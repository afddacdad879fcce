//! FIG14 — reproduction of the paper's Figure 14: "Maximum throughput
//! with a maximum loss rate of 0.1%" as a function of the number of
//! flows, for No-op, Unverified NAT, Verified NAT and the Linux
//! (NetFilter) NAT.
//!
//! Methodology (RFC 2544, as in the paper): for each flow count, the
//! NF's steady-state per-packet service times are measured on the
//! all-hits workload ("flows that never expire, each producing 64-byte
//! packets") through the one driver every NF shares
//! ([`round_service_times`] over a 1-queue simulated port — each
//! series carries the same event-loop cost, as every paper NF carries
//! the same DPDK cost), MAD outlier rejection removes timer-noise
//! samples (a descheduled burst inflates a handful of samples by 100x
//! and would otherwise dominate the loss search — the rejected count
//! is reported), then the highest offered rate whose bounded-ring
//! queue simulation loses ≤ 0.1% of packets is found by binary search.
//!
//! Beyond the paper's four NFs, the figure carries three more series
//! of the same NAT under the same methodology:
//!
//! * **the batched fast path** (`verified_batched`): the bare
//!   [`VigNatMb`], whose `process_burst` runs the burst pipeline —
//!   `verified` is the same NAT seen one frame at a time;
//! * **real-clock mode** (`*_sysclock` series): the same NATs wrapped
//!   in [`SystemClockMb`], which reads the host's monotonic clock per
//!   process call instead of trusting the harness's virtual time — the
//!   per-packet fixed cost a production loop pays and the burst path
//!   amortizes.
//!
//! Every rate point is the mean of per-trial rates with a bootstrap
//! 95% CI on that mean ([`search_rate_with_ci`]), so run-to-run noise
//! on shared hosts is visible in the committed trajectory, and the
//! document is validated ([`vig_bench::check`]) before it is written.
//! What this bench does not measure — shards, workers, queues, churn,
//! the wire — natbench (`benchmark/`) does, with an oracle on every
//! frame; see `docs/BENCHMARKS.md`.
//!
//! Paper result: Verified 1.8 Mpps ≈ 10% below Unverified 2.0 Mpps,
//! both far above Linux 0.6 Mpps, No-op highest, all flat in the flow
//! count. The shape checks below encode exactly those claims.
//!
//! Run: `cargo bench -p vig-bench --bench fig14_throughput`

use libvig::time::Time;
use netsim::backend::SimBackend;
use netsim::middlebox::{Middlebox, NoopForwarder, SystemClockMb, Verdict, VigNatMb};
use netsim::tester::FlowGen;
use netsim::RssClassifier;
use vig_baselines::{NetfilterNat, UnverifiedNat};
use vig_bench::check;
use vig_bench::harness::{
    round_service_times, search_rate_with_ci, LatencySamples, RateEstimate, RATE_CI_RESAMPLES,
    RATE_CI_TRIALS,
};
use vig_bench::{flow_sweep, print_table, throughput_packets, write_result_json};
use vig_packet::{Direction, Ip4, Proto};
use vig_spec::NatConfig;

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(60).nanos(), // flows never expire mid-run
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

/// An NF seen one frame at a time: forwards [`Middlebox::process`] and
/// leaves `process_burst` at the trait default, so the driver's bursts
/// reach it frame by frame — the paper's per-packet loop, and the
/// `verified` / `verified_sysclock` series (the bare [`VigNatMb`] is
/// the batched fast path).
struct PerFrame<M>(M);

impl<M: Middlebox> Middlebox for PerFrame<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict {
        self.0.process(dir, frame, now)
    }
}

/// Steady-state service times of `nf` behind a 1-queue simulated port
/// (512-descriptor rings): the one measurement loop every series of
/// this bench shares.
fn service_times(nf: &mut dyn Middlebox, flows: usize, packets: usize) -> LatencySamples {
    let io = SimBackend::new(RssClassifier::for_nat(&cfg(), 1), 512);
    let gen = FlowGen::new(Proto::Udp);
    round_service_times(io, nf, &gen, flows, packets, cfg().expiry_ns).0
}

/// One throughput measurement: the mean per-trial RFC 2544 rate with
/// its bootstrap 95% CI ([`search_rate_with_ci`]).
fn measure(nf: &mut dyn Middlebox, flows: usize) -> RateEstimate {
    search_rate_with_ci(&service_times(nf, flows, throughput_packets()), 512)
}

fn main() {
    let sweep = flow_sweep();
    let mut rows = Vec::new();
    let mut series: [Vec<f64>; 7] = Default::default();
    let mut outliers_total = 0usize;

    let mut cis: [Vec<(f64, f64)>; 7] = Default::default();
    for &n in &sweep {
        let noop = measure(&mut NoopForwarder::new(), n);
        let unv = measure(&mut UnverifiedNat::new(cfg()), n);
        let ver = measure(&mut PerFrame(VigNatMb::new(cfg())), n);
        let verb = measure(&mut VigNatMb::new(cfg()), n);
        let lin = measure(&mut NetfilterNat::new(cfg()), n);
        // Real-clock mode: the same NAT reading the host clock per
        // process call / per burst — side by side with virtual time.
        let ver_sys = measure(
            &mut PerFrame(SystemClockMb::new(
                VigNatMb::new(cfg()),
                "Verified NAT (sysclock)",
            )),
            n,
        );
        let verb_sys = measure(
            &mut SystemClockMb::new(VigNatMb::new(cfg()), "Verified batched (sysclock)"),
            n,
        );
        let all = [&noop, &unv, &ver, &lin, &verb, &ver_sys, &verb_sys];
        outliers_total += all.iter().map(|e| e.outliers_rejected).sum::<usize>();
        for (i, est) in all.into_iter().enumerate() {
            series[i].push(est.mpps);
            cis[i].push((est.ci95_lo_mpps, est.ci95_hi_mpps));
        }
        rows.push(vec![
            format!("{}", n / 1000),
            format!("{:.2}", noop.mpps),
            format!("{:.2}", unv.mpps),
            format!("{:.2}", ver.mpps),
            format!(
                "{:.2} [{:.2},{:.2}]",
                verb.mpps, verb.ci95_lo_mpps, verb.ci95_hi_mpps
            ),
            format!("{:.2}", ver_sys.mpps),
            format!("{:.2}", verb_sys.mpps),
            format!("{:.2}", lin.mpps),
        ]);
    }
    print_table(
        "FIG14: max throughput at <=0.1% loss (Mpps) vs flows",
        &[
            "flows (k)",
            "No-op",
            "Unverified NAT",
            "Verified NAT",
            "Verified (batched)",
            "Verified (sysclock)",
            "Batched (sysclock)",
            "Linux NAT",
        ],
        &rows,
    );
    println!(
        "paper reference: No-op > Unverified 2.0 > Verified 1.8 (-10%) >> Linux 0.6 Mpps, flat"
    );
    println!(
        "(MAD outlier rejection dropped {outliers_total} service-time samples across the run)"
    );

    // Machine-readable trajectory: Mpps per flow count for all series,
    // plus p50/p99 steady-state service times for the verified NAT in
    // both modes at the largest flow count.
    let (p50_seq, p99_seq, p50_bat, p99_bat) = {
        let flows = *sweep.last().expect("non-empty sweep");
        let pkts = throughput_packets() / 4;
        let s = service_times(&mut PerFrame(VigNatMb::new(cfg())), flows, pkts);
        let b = service_times(&mut VigNatMb::new(cfg()), flows, pkts);
        (
            s.percentile(0.5),
            s.percentile(0.99),
            b.percentile(0.5),
            b.percentile(0.99),
        )
    };
    let fmt_series = |name: &str, v: &[f64], ci: &[(f64, f64)]| {
        format!(
            r#"{{"name":"{name}","mpps_per_flow_count":[{}],"mpps_ci95_per_flow_count":[{}]}}"#,
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(","),
            ci.iter()
                .map(|(lo, hi)| format!("[{lo:.3},{hi:.3}]"))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"fig14_throughput\",\n  \"statistics\": {{\"outlier_rejection\": \"mad_z3.5\", \"rejected_total\": {outliers_total}, \"rate\": \"mean of {RATE_CI_TRIALS} per-trial rates\", \"rate_ci\": \"bootstrap pct of that mean, {RATE_CI_RESAMPLES} resamples\"}},\n  \"flow_counts\": [{}],\n  \"series\": [\n    {},\n    {},\n    {},\n    {},\n    {},\n    {},\n    {}\n  ],\n  \"verified_seq\": {{\"p50_ns\": {p50_seq}, \"p99_ns\": {p99_seq}}},\n  \"verified_batched\": {{\"p50_ns\": {p50_bat}, \"p99_ns\": {p99_bat}}}\n}}\n",
        sweep.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(","),
        fmt_series("noop", &series[0], &cis[0]),
        fmt_series("unverified", &series[1], &cis[1]),
        fmt_series("verified", &series[2], &cis[2]),
        fmt_series("verified_batched", &series[4], &cis[4]),
        fmt_series("verified_sysclock", &series[5], &cis[5]),
        fmt_series("verified_batched_sysclock", &series[6], &cis[6]),
        fmt_series("linux", &series[3], &cis[3]),
    );
    // A bench cannot write a file the committed-trajectory test would
    // refuse.
    if let Err(e) = check::validate(&json) {
        panic!("refusing to write BENCH_throughput.json: {e}");
    }
    write_result_json("BENCH_throughput.json", &json);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (m_noop, m_unv, m_ver, m_lin) = (
        mean(&series[0]),
        mean(&series[1]),
        mean(&series[2]),
        mean(&series[3]),
    );
    println!("\nshape checks:");
    println!(
        "  No-op fastest: {} ({m_noop:.2} Mpps)",
        if m_noop >= m_unv && m_noop >= m_ver {
            "ok"
        } else {
            "DEVIATION"
        }
    );
    let gap = (m_unv - m_ver) / m_unv * 100.0;
    println!(
        "  Verified within ~10-20% of Unverified: {} (gap {gap:.1}%, paper 10%)",
        if gap > -5.0 && gap < 25.0 {
            "ok"
        } else {
            "DEVIATION"
        }
    );
    let factor = m_unv / m_lin;
    println!(
        "  DPDK NATs >> Linux NAT: {} (Unverified/Linux = {factor:.1}x, paper 3.3x)",
        if factor > 1.8 { "ok" } else { "DEVIATION" }
    );
    let flat = series[2].iter().all(|&v| (v - m_ver).abs() / m_ver < 0.5);
    println!(
        "  Verified flat in flow count: {}",
        if flat { "ok" } else { "DEVIATION" }
    );
    let m_verb = mean(&series[4]);
    println!(
        "  Batched fast path vs single-packet Verified: {:.2}x ({m_verb:.2} vs {m_ver:.2} Mpps)",
        m_verb / m_ver
    );
    let (m_ver_sys, m_verb_sys) = (mean(&series[5]), mean(&series[6]));
    println!(
        "  Real-clock vs virtual-time (the per-packet clock read): single {:.2}x ({m_ver_sys:.2} vs {m_ver:.2} Mpps), batched {:.2}x ({m_verb_sys:.2} vs {m_verb:.2} Mpps)",
        m_ver_sys / m_ver,
        m_verb_sys / m_verb
    );
}
