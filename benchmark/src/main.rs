//! `natbench`: one stack benchmark for the verified NAT.
//!
//! ```text
//! natbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! natbench [--seed <n>] [--seconds <s>] [--repeat <k>]      # all four
//! ```
//!
//! With `--workload`, one workload is measured for `--seconds` and the
//! last line of standard output is one JSON object: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Without it, all four workloads run with their segments interleaved,
//! then each one's traced pass; `--repeat k` does that `k` times and
//! judges the spread of every end-to-end metric against its bound.
//! `README.md` beside this crate explains the workloads and metrics.

mod alloc;
mod dut;
mod gen;
mod host;
mod ladder;
mod passes;
mod stats;
mod trace;
mod workload;

use host::Host;
use passes::{E2e, Traced};
use workload::Kind;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// An end-to-end metric: name, unit, which way is better, and the share
/// of the parent's median by which it may worsen.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics, in the order [`E2e::metrics`] yields them.
/// `BENCHMARK.json` lists the same names, units and bounds (a unit test
/// holds the two together).
const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "fwd_mpps",
        unit: "Mpps",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "burst_us_p50",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "burst_us_p99",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "dut_heap_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.02,
    },
];

/// The per-layer metrics: `(name, unit)`. A traced run prints every one
/// of them; a layer that is not on the workload's path reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("eventloop.self_ns_pkt", "ns"),
    ("eventloop.pkts_per_burst", "count"),
    ("eventloop.polls_per_window", "count"),
    ("eventloop.allocs_per_kpkt", "count"),
    ("eventloop.idle_round_ns", "ns"),
    ("eventloop.burst4_ns_pkt", "ns"),
    ("backend.rx_burst_ns_pkt", "ns"),
    ("backend.tx_put_ns_pkt", "ns"),
    ("backend.poll_ns_window", "ns"),
    ("backend.rx_dropped", "count"),
    ("backend.tx_dropped", "count"),
    ("dpdk.mempool_put_ns", "ns"),
    ("middlebox.process_burst_ns_pkt", "ns"),
    ("middlebox.self_ns_pkt", "ns"),
    ("middlebox.allocs_per_kpkt", "count"),
    ("frame_env.batch_ns_pkt", "ns"),
    ("frame_env.rss_ns_pkt", "ns"),
    ("vig_packet.parse_ns", "ns"),
    ("vig_packet.csum_update_ns", "ns"),
    ("loop_body.batch_ns_pkt", "ns"),
    ("flow_manager.lookup_int_ns", "ns"),
    ("flow_manager.lookup_ext_ns", "ns"),
    ("flow_manager.rejuvenate_ns", "ns"),
    ("flow_manager.probe_len_mean", "count"),
    ("flow_manager.probe_len_p99", "count"),
    ("flow_manager.occupancy_pct", "%"),
    ("flow_manager.allocate_ns", "ns"),
    ("flow_manager.expire_ns_flow", "ns"),
    ("flow_manager.expired_per_kpkt", "count"),
    ("libvig.map_get_ns", "ns"),
    ("libvig.map_get_batch_ns", "ns"),
    ("libvig.map_miss_ns", "ns"),
    ("libvig.map_put_erase_ns", "ns"),
    ("libvig.dchain_rejuvenate_ns", "ns"),
    ("libvig.wheel_refresh_ns", "ns"),
    ("libvig.wheel_pop_ns", "ns"),
    ("libvig.spsc_words_per_us", "1/us"),
    ("runtime.process_burst_ns_pkt", "ns"),
    ("runtime.inline_ns_pkt", "ns"),
    ("runtime.tax_ns_pkt", "ns"),
    ("runtime.tax_ns_pkt_1518B", "ns"),
    ("runtime.allocs_per_kpkt", "count"),
    ("runtime.alloc_bytes_per_pkt", "count"),
    ("runtime.pool_denied", "count"),
    ("runtime.backpressure_drops", "count"),
    ("runtime.pinned_workers", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.timer_ns", "ns"),
    ("trace.closure_pct", "%"),
];

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out_dir: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: natbench [--workload hits-resident|hits-large|churn|runtime] [--seed N] \
         [--seconds S] [--trace 0|1] [--repeat K] [--out-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 1,
        out_dir: "benchmark/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let ok = match flag.as_str() {
            "--workload" => Kind::parse(&value)
                .map(|k| args.workload = Some(k))
                .is_some(),
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => {
                    args.seconds = s;
                    true
                }
                _ => false,
            },
            "--trace" => {
                args.trace = value == "1";
                value == "0" || value == "1"
            }
            "--repeat" => match value.parse::<usize>() {
                Ok(k) if (1..=100).contains(&k) => {
                    args.repeat = k;
                    true
                }
                _ => false,
            },
            "--out-dir" => {
                args.out_dir = value;
                true
            }
            _ => false,
        };
        if !ok {
            usage();
        }
    }
    args
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(
    workload: Option<Kind>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &str,
) -> String {
    let tag = workload.map_or(String::new(), |k| {
        format!("\"workload\": \"{}\", ", k.name())
    });
    format!(
        "{{{tag}\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

fn e2e_metrics(e: &E2e) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .zip(e.metrics())
        .map(|(m, v)| (m.name, m.unit, v))
        .collect()
}

fn print_e2e(e: &E2e) {
    println!("== {} (end to end, tracing off) ==", e.kind.name());
    for (m, v) in END_TO_END.iter().zip(e.metrics()) {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!(
            "  {:<14} {v:>12.4} {:<5} ({better} is better; may worsen {:.0} %)",
            m.name,
            m.unit,
            m.bound * 100.0
        );
    }
    let [mpps, p50, p99, setup] = e.as_measured();
    println!(
        "  as measured, before the core-speed correction: fwd_mpps {mpps:.4} burst_us_p50 {p50:.4} burst_us_p99 {p99:.4} setup_s {setup:.4}"
    );
    let windows: Vec<usize> = e.segments.iter().map(|s| s.windows).collect();
    println!(
        "  samples: {} segments of {:?} timed windows (64 packets each); p99 has ten samples beyond it in {} of them; {} set-ups",
        e.segments.len(),
        windows,
        e.segments.iter().filter(|s| s.p99_supported).count(),
        e.setups.len()
    );
    let per_segment = |f: fn(&stats::Segment) -> f64| -> Vec<String> {
        e.segments.iter().map(|s| format!("{:.3}", f(s))).collect()
    };
    println!(
        "  per segment, as measured: fwd_mpps {:?}",
        per_segment(|s| s.mpps)
    );
    println!(
        "  per segment, as measured: burst_us_p50 {:?}",
        per_segment(|s| s.p50_us)
    );
    println!(
        "  per segment, as measured: burst_us_p99 {:?}",
        per_segment(|s| s.p99_us)
    );
    println!(
        "  per segment: host ALU probe, us {:?}",
        per_segment(|s| s.probe_us)
    );
    if let Some((pinned, workers)) = e.pinned_workers {
        println!("  runtime workers pinned: {pinned} of {workers}");
    }
    println!("  ops_attempted {}  ops_failed {}", e.attempted, e.failed);
    for p in &e.problems {
        println!("  FAILED CHECK: {p}");
    }
}

/// Every per-layer metric in table order, 0 where `t` has no value.
fn layer_metrics(t: &Traced) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = t.values.iter().find(|(n, _)| *n == name);
            (name, unit, v.map_or(0.0, |(_, v)| *v))
        })
        .collect()
}

fn print_traced(t: &Traced) {
    println!("== {} (traced pass + ladder) ==", t.kind.name());
    for (name, unit, v) in layer_metrics(t) {
        let n = t
            .samples
            .iter()
            .find(|(s, _)| *s == name)
            .map_or(String::new(), |(_, n)| format!("  (median of {n})"));
        println!("  {name:<34} {v:>14.3} {unit}{n}");
    }
    println!("  windows: {} untraced and {} traced", t.windows, t.windows);
    println!("  trace file: {}", t.trace_file);
    println!("  ops_attempted {}  ops_failed {}", t.attempted, t.failed);
    for p in &t.problems {
        println!("  FAILED CHECK: {p}");
    }
}

/// `--repeat`: min / median / max and max:min of every end-to-end
/// metric per workload over the runs. Returns whether every ratio is
/// within the metric's bound.
fn judge_repeats(runs: &[Vec<E2e>]) -> bool {
    let mut ok = true;
    println!(
        "== spread over {} runs (max/min against 1 + bound) ==",
        runs.len()
    );
    for (w, first) in runs[0].iter().enumerate() {
        for (m, meta) in END_TO_END.iter().enumerate() {
            let mut v: Vec<f64> = runs.iter().map(|r| r[w].metrics()[m]).collect();
            let med = stats::median(&mut v);
            let (lo, hi) = (v[0], v[v.len() - 1]);
            let ratio = hi / lo;
            let within = ratio <= 1.0 + meta.bound;
            ok &= within;
            println!(
                "  {:<14} {:<13} min {lo:>11.4} med {med:>11.4} max {hi:>11.4} {:<4} max/min {ratio:.4} (<= {:.2}) {}",
                first.kind.name(),
                meta.name,
                meta.unit,
                1.0 + meta.bound,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    let host = Host::detect();
    println!("natbench seed {} seconds {}", args.seed, args.seconds);
    println!(
        "closed loop, one tester, {} frames in flight (64 B), in-process sim backend: no link is crossed",
        gen::WINDOW
    );

    let Some(kind) = args.workload else {
        // All four workloads, `--repeat` times.
        let mut runs = Vec::new();
        let mut correct = true;
        let mut lines = Vec::new();
        for rep in 0..args.repeat {
            println!("-- run {} of {} --", rep + 1, args.repeat);
            let e2e = passes::end_to_end(&host, &Kind::ALL, args.seed, args.seconds);
            lines.clear();
            for e in &e2e {
                print_e2e(e);
                correct &= e.correct();
                lines.push(result_line(
                    Some(e.kind),
                    e.correct(),
                    e.attempted,
                    e.failed,
                    &json_metrics(&e2e_metrics(e)),
                ));
            }
            runs.push(e2e);
        }
        for kind in Kind::ALL {
            let t = passes::traced(&host, kind, args.seed, args.seconds, &args.out_dir);
            print_traced(&t);
            correct &= t.correct();
        }
        if args.repeat > 1 {
            correct &= judge_repeats(&runs);
        }
        println!("{}", host.describe());
        for l in &lines {
            println!("{l}");
        }
        std::process::exit(i32::from(!correct));
    };

    let (correct, line) = if args.trace {
        let t = passes::traced(&host, kind, args.seed, args.seconds, &args.out_dir);
        print_traced(&t);
        (
            t.correct(),
            result_line(
                None,
                t.correct(),
                t.attempted,
                t.failed,
                &json_metrics(&layer_metrics(&t)),
            ),
        )
    } else {
        let e = passes::end_to_end(&host, &[kind], args.seed, args.seconds).remove(0);
        print_e2e(&e);
        (
            e.correct(),
            result_line(
                None,
                e.correct(),
                e.attempted,
                e.failed,
                &json_metrics(&e2e_metrics(&e)),
            ),
        )
    };
    println!("{}", host.describe());
    println!("{line}");
    std::process::exit(i32::from(!correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` (one directory up) names exactly the metrics,
    /// units, bounds and workloads this binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for m in &END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in &PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for k in Kind::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", k.name())));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = json_metrics(&[("a", "ms", 1.25), ("b", "s", 0.5)]);
        assert_eq!(
            result_line(None, true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
