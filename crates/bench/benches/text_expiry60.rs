//! TEXT-LAT60 — reproduction of the paper's §6 in-text second latency
//! experiment: the same probe/background mix as Fig. 12, but with the
//! NATs configured to expire flows after **60 seconds** of inactivity,
//! "hence neither the probe flows nor the background flows ever
//! expire".
//!
//! With nothing expiring, each of the 1,000 probe flows stays resident,
//! so after the first round every probe packet takes the *hit* path
//! (lookup + rejuvenate) instead of the miss path (allocate + insert) —
//! which is why the paper measures the Verified NAT slightly *faster*
//! here (5.07 µs) than in the 2 s experiment (5.13 µs), while the
//! Unverified NAT stays put (5.03 µs).
//!
//! Run: `cargo bench -p vig-bench --bench text_expiry60`

use libvig::time::Time;
use netsim::middlebox::{Middlebox, VigNatMb};
use vig_baselines::UnverifiedNat;
use vig_bench::harness::{probe_latency, WorkloadMix};
use vig_bench::{print_table, probe_count, us, WIRE_BASE_NS};
use vig_packet::Ip4;
use vig_spec::NatConfig;

const BACKGROUND: usize = 30_000;
const PROBE_POOL: usize = 1_000; // the paper's 1,000 probe flows

fn cfg(texp_s: u64) -> NatConfig {
    NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(texp_s).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

fn probe_mean(nf: &mut dyn Middlebox, texp_s: u64, pool: usize) -> f64 {
    // Measure 2x the probe count and keep the second half: with the
    // 60 s expiry the first `pool` probes are misses (cold start), the
    // steady state is all hits.
    let n = probe_count().max(PROBE_POOL / 4);
    let mix = WorkloadMix {
        background_flows: BACKGROUND,
        probe_packets: 2 * n,
        // With the 60 s expiry the whole probe pool must recur within
        // one refresh window so the pooled flows stay resident (the
        // paper's probe flows fire every ~2 s, far inside 60 s).
        probe_batch: if pool <= PROBE_POOL { pool } else { 64 },
        texp_ns: Time::from_secs(texp_s).nanos(),
        probe_pool: pool,
    };
    let s = probe_latency(nf, &mix);
    let tail = &s.ns[s.ns.len() / 2..];
    tail.iter().sum::<u64>() as f64 / tail.len() as f64
}

fn main() {
    // 2 s expiry: every probe misses (fresh tuples).
    let ver_2s = probe_mean(&mut VigNatMb::new(cfg(2)), 2, 1 << 23);
    let unv_2s = probe_mean(&mut UnverifiedNat::new(cfg(2)), 2, 1 << 23);
    // 60 s expiry: probes cycle through the pool and hit.
    let ver_60s = probe_mean(&mut VigNatMb::new(cfg(60)), 60, PROBE_POOL);
    let unv_60s = probe_mean(&mut UnverifiedNat::new(cfg(60)), 60, PROBE_POOL);

    let rows = vec![
        vec![
            "Texp = 2 s (probes miss)".to_string(),
            format!("{unv_2s:.0}"),
            format!("{ver_2s:.0}"),
            us(unv_2s + WIRE_BASE_NS as f64),
            us(ver_2s + WIRE_BASE_NS as f64),
        ],
        vec![
            "Texp = 60 s (probes hit)".to_string(),
            format!("{unv_60s:.0}"),
            format!("{ver_60s:.0}"),
            us(unv_60s + WIRE_BASE_NS as f64),
            us(ver_60s + WIRE_BASE_NS as f64),
        ],
    ];
    print_table(
        "TEXT-LAT60: probe latency with 2 s vs 60 s expiry (30k background flows)",
        &[
            "experiment",
            "Unverified ns",
            "Verified ns",
            "Unverified us*",
            "Verified us*",
        ],
        &rows,
    );
    println!("(*) +{WIRE_BASE_NS} ns wire/NIC offset");
    println!(
        "paper reference: Verified 5.13 -> 5.07 us (hits slightly cheaper than misses), \
         Unverified ~5.03 us in both"
    );

    println!("\nshape checks:");
    println!(
        "  Verified 60 s <= Verified 2 s (hit path cheaper than miss path): {} ({:.0} vs {:.0} ns)",
        if ver_60s <= ver_2s * 1.05 {
            "ok"
        } else {
            "DEVIATION"
        },
        ver_60s,
        ver_2s
    );
    let drift = (unv_60s - unv_2s).abs() / unv_2s;
    println!(
        "  Unverified roughly unchanged: {} (drift {:.0}%)",
        if drift < 0.35 { "ok" } else { "DEVIATION" },
        drift * 100.0
    );
}
