#!/usr/bin/env bash
# Mutation score for `VERIFIED`: apply each hand-written mutant of
# crates/core/src/loop_body.rs (scripts/mutants.txt) to a `git archive`
# copy of a revision, and record which of `verify_nat`, `cargo test` or
# neither kills it.
#
#   scripts/mutants.sh [--check] [REV]      # REV defaults to HEAD
#
# Prints one markdown table row per mutant. The mutant list is read from
# this checkout, so an older REV is scored against the same mutants.
# With --check, exits 1 when a mutant survives what the list expects of
# it (see scripts/mutants.txt). A mutant that no longer applies or no
# longer compiles exits 2: the list has drifted from the code.
#
# The copy and its build live under $TMPDIR (removed on exit) unless
# CARGO_TARGET_DIR points the build elsewhere. Every mutant rebuilds the
# workspace in release and, when verify_nat lets it through, runs the
# debug test suite: budget about 5 minutes per mutant on 2 cores.
set -euo pipefail

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
rev=${1:-HEAD}
here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/vignat-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

mkdir "$work/src"
git -C "$root" archive "$rev" | tar -x -C "$work/src"
cd "$work/src"
body=crates/core/src/loop_body.rs
cp "$body" "$work/pristine.rs"

verify() { cargo run -q --release --example verify_nat >"$work/verify.log" 2>&1; }
if ! verify; then
    echo "verify_nat fails on unmutated $rev" >&2
    tail -20 "$work/verify.log" >&2
    exit 2
fi

echo "| mutant | what it breaks | expected | killed by ($(git -C "$root" rev-parse --short "$rev")) |"
echo "|---|---|---|---|"
failed=0
while IFS='|' read -r id expect what script; do
    case "$id" in '' | '#'*) continue ;; esac
    cp "$work/pristine.rs" "$body"
    sed -i -e "$script" "$body"
    touch "$body"
    if cmp -s "$work/pristine.rs" "$body"; then
        echo "mutant $id does not apply to $rev" >&2
        exit 2
    fi
    if ! cargo build -q --release --example verify_nat >"$work/build.log" 2>&1; then
        echo "mutant $id does not compile on $rev" >&2
        tail -20 "$work/build.log" >&2
        exit 2
    fi
    if ! verify; then
        prop=$(grep -m1 -o 'property: "[A-Z0-9]*"' "$work/verify.log" | cut -d'"' -f2 || true)
        killer="verify_nat${prop:+ [$prop]}"
    elif ! cargo test -q >"$work/test.log" 2>&1; then
        killer="tests"
    else
        killer="none"
    fi
    echo "| \`$id\` | $what | $expect | $killer |"
    case "$expect:$killer" in
        verify_nat:verify_nat* | tests:verify_nat* | tests:tests | out-of-scope:*) ;;
        *) failed=1 ;;
    esac
done <"$here/mutants.txt"

if [ "$check" = 1 ] && [ "$failed" = 1 ]; then
    echo "a mutant survived what scripts/mutants.txt expects of it" >&2
    exit 1
fi
