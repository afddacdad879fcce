#!/usr/bin/env bash
# Fails if a release binary that instantiates the drivers keeps an
# out-of-line copy of a vignat / netsim function that every packet
# crosses.
#
#   cargo build --release --manifest-path benchmark/Cargo.toml
#   scripts/inline_check.sh benchmark/target/release/natbench
#
# The generic datapath (BackendDriver, VigNatMb::process_burst,
# run_staged, nat_process_batch_into, ConcreteEnv) is monomorphized in
# the crate that drives it, so a non-generic function it calls in
# another crate is an opaque call through the GOT unless it carries
# #[inline] (docs/ARCHITECTURE.md, "Why the per-packet path is
# #[inline]"). Prints each out-of-line copy it finds and exits 1 if
# there is one. libvig::map::get_staged stays out of line and is not
# checked. A count, not a timing: shared runners can hold it.
set -euo pipefail

BIN=${1:?usage: inline_check.sh <release binary>}

per_packet='FlowTable>::(rejuvenate_proto|expire|lookup_internal_hashed|probe_batch)$'
per_packet+='|frame_env::(BurstEnv|FrameEnv) as vignat::env::concrete::PacketSide>::(receive|tx)$'
per_packet+='|env::concrete::FidMemo::'
per_packet+='|middlebox::Verdict::of$'
per_packet+='|flow_manager::(touch_ahead|probe_staged)$'
per_packet+='|dpdk::Mempool::(put|frame)$'

if nm -C "$BIN" | grep -E "$per_packet"; then
    echo "out-of-line copies of the per-packet path above: mark them #[inline]" >&2
    exit 1
fi
echo "per-packet path inlined: no out-of-line copy in $BIN"
