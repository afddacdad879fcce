//! FIG13 — reproduction of the paper's Figure 13: the complementary
//! cumulative distribution (CCDF) of probe-flow latency at 60,000
//! background flows (≈ 92% table occupancy).
//!
//! Paper result: the Verified NAT has a slightly heavier tail than the
//! Unverified NAT; all three curves merge in the far tail, where the
//! outliers come from the shared environment (DPDK there, the host
//! OS/allocator here), not from NAT-specific processing.
//!
//! Run: `cargo bench -p vig-bench --bench fig13_ccdf`

use libvig::time::Time;
use netsim::middlebox::{Middlebox, NoopForwarder, VigNatMb};
use vig_baselines::UnverifiedNat;
use vig_bench::harness::{probe_latency, LatencySamples, WorkloadMix};
use vig_bench::{full_mode, print_table};
use vig_packet::Ip4;
use vig_spec::NatConfig;

const BACKGROUND: usize = 60_000;

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

fn samples(nf: &mut dyn Middlebox) -> LatencySamples {
    let mix = WorkloadMix {
        background_flows: BACKGROUND,
        probe_packets: if full_mode() { 2_000 } else { 300 },
        probe_batch: 64,
        texp_ns: Time::from_secs(2).nanos(),
        probe_pool: 1 << 23,
    };
    probe_latency(nf, &mix)
}

fn main() {
    let noop = samples(&mut NoopForwarder::new());
    let unv = samples(&mut UnverifiedNat::new(cfg()));
    let ver = samples(&mut VigNatMb::new(cfg()));

    // Report the latency at fixed CCDF levels (the y-axis of Fig. 13).
    let levels = [1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05, 0.01];
    let rows: Vec<Vec<String>> = levels
        .iter()
        .map(|&lvl| {
            let p = 1.0 - lvl; // CCDF level -> percentile
            vec![
                format!("{lvl:.2}"),
                format!("{}", noop.percentile(p)),
                format!("{}", unv.percentile(p)),
                format!("{}", ver.percentile(p)),
            ]
        })
        .collect();
    print_table(
        "FIG13: probe-flow latency CCDF at 60k background flows (ns at CCDF level)",
        &["P[X > x]", "No-op", "Unverified", "Verified"],
        &rows,
    );
    println!(
        "paper reference: Verified tail slightly heavier than Unverified; \
         curves coincide in the far tail"
    );

    // Shape checks.
    println!("\nshape checks:");
    let med_ok = noop.percentile(0.5) <= unv.percentile(0.5)
        && unv.percentile(0.5) as f64 <= ver.percentile(0.5) as f64 * 1.15;
    println!(
        "  median ordering No-op <= Unverified <= Verified: {}",
        if med_ok { "ok" } else { "DEVIATION" }
    );
    let tail_ver = ver.percentile(0.95);
    let tail_unv = unv.percentile(0.95);
    println!(
        "  Verified p95 >= Unverified p95 (heavier tail): {} ({tail_ver} vs {tail_unv} ns)",
        if tail_ver * 10 >= tail_unv * 9 {
            "ok"
        } else {
            "DEVIATION"
        }
    );
    let far_ver = ver.percentile(0.999) as f64;
    let far_unv = unv.percentile(0.999) as f64;
    let merge = if far_unv > 0.0 {
        far_ver / far_unv
    } else {
        1.0
    };
    println!("  far-tail ratio Verified/Unverified at p99.9: {merge:.2} (paper: ~1, shared-environment outliers)");
}
