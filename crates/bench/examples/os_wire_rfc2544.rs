//! Short privileged cross-the-wire RFC 2544 run for CI.
//!
//! Measures two points — the sim backend, then the mmap-ring
//! `AF_PACKET` wire backend over real veth wires — sized for a CI
//! job, and writes the result to
//! `target/os_wire_rfc2544.json` so the workflow can upload it as an
//! artifact. Exits non-zero when the wire run is unavailable (missing
//! `CAP_NET_RAW`/`CAP_NET_ADMIN`), so a silently-skipped measurement
//! can never look green.
//!
//! Sizing via env (defaults fit a CI minute):
//! `OS_WIRE_FLOWS` (default 1024), `OS_WIRE_PACKETS` (default 12000).
//!
//! Run: `sudo -E cargo run --release -p vig-bench --example os_wire_rfc2544`

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let flows = env_usize("OS_WIRE_FLOWS", 1024);
    let packets = env_usize("OS_WIRE_PACKETS", 12_000);
    let section = vig_bench::os_wire::section_json(flows, packets);
    let json =
        format!("{{\n  \"bench\": \"os_wire_rfc2544\",\n  \"os_wire_rfc2544\": {section}\n}}\n");
    vig_bench::write_result_json("target/os_wire_rfc2544.json", &json);
    let doc = vig_bench::check::parse(&json).expect("section renders valid JSON");
    let available = doc.get("os_wire_rfc2544").and_then(|w| w.get("available"))
        == Some(&vig_bench::check::Json::Bool(true));
    if !available {
        eprintln!("os_wire_rfc2544: wire run unavailable — failing the CI measurement");
        std::process::exit(1);
    }
}
