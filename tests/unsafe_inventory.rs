//! The workspace's `unsafe` inventory, checked rather than claimed.
//!
//! Every `unsafe` block, fn, impl or trait under `crates/*/src` lies in
//! one of two places: the libc surface `crates/netsim/src/backend/os/sys.rs`
//! (raw sockets, CPU affinity, the wire backend's packet rings) or the
//! body of `libvig::prefetch`, the cache hint the staged flow-table
//! probes issue. The crate roots' `deny(unsafe_code)` lints keep the
//! rest out per crate; this test keeps the whole list short, so a new
//! `#[allow(unsafe_code)]` anywhere else fails here.

use std::fs;
use std::path::{Path, PathBuf};

/// The file allowed any amount of `unsafe`.
const FFI_FILE: &str = "crates/netsim/src/backend/os/sys.rs";
/// The file holding the prefetch helper, and the helper's signature.
const PREFETCH_FILE: &str = "crates/libvig/src/lib.rs";
const PREFETCH_FN: &str = "pub fn prefetch<T>(r: &T)";

/// Whether `line` holds the `unsafe` keyword before any `//` comment.
/// A string or block comment that says `unsafe` reads as a hit, so the
/// scan errs towards failing, never towards missing a block.
fn has_unsafe(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or_default();
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(at, _)| {
        !code[..at].ends_with(ident) && !code[at + "unsafe".len()..].starts_with(ident)
    })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn unsafe_lies_only_in_the_ffi_file_and_the_prefetch_helper() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());

    let (mut ffi, mut helper, mut stray) = (0, 0, Vec::new());
    for path in &files {
        let rel = path.strip_prefix(root).unwrap().to_string_lossy();
        let src = fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = src.lines().collect();
        if rel == FFI_FILE {
            ffi += lines.iter().filter(|l| has_unsafe(l)).count();
            continue;
        }
        // The helper's body: its signature's line to the first line
        // that closes an item at column 0.
        let body = (rel == PREFETCH_FILE).then(|| {
            let first = lines
                .iter()
                .position(|l| l.starts_with(PREFETCH_FN))
                .expect("libvig defines the prefetch helper");
            let len = lines[first..]
                .iter()
                .position(|l| *l == "}")
                .expect("the helper's body closes");
            first..first + len
        });
        for (n, line) in lines.iter().enumerate().filter(|(_, l)| has_unsafe(l)) {
            if body.as_ref().is_some_and(|body| body.contains(&n)) {
                helper += 1;
            } else {
                stray.push(format!("{rel}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        stray.is_empty(),
        "`unsafe` outside the inventory: {stray:#?}"
    );
    // The scan sees what it guards: the FFI file's blocks and the
    // helper's one block.
    assert!(ffi > 10, "the FFI file shows only {ffi} `unsafe` lines");
    assert_eq!(helper, 1, "the prefetch helper holds one `unsafe` block");
}
