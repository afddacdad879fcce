//! The reproduction of the paper's §6: the RFC 2544 measurement
//! [`harness`] (traffic loops, statistics, the loss-bounded rate
//! search), the cross-the-wire run ([`os_wire`]), the validator of the
//! one committed trajectory file ([`check`]), and the plumbing the
//! bench targets share (table rendering, run sizing, the wire-latency
//! constant).
//!
//! Every bench target prints a paper-style table to stdout; the
//! `EXPERIMENTS.md` tables are regenerated from these outputs. What
//! judges the stack's speed is natbench (`benchmark/`), not this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod harness;
pub mod os_wire;

/// Documented constant added when reporting *absolute* latencies
/// (nanoseconds): the paper's numbers include wire, PCIe and NIC DMA
/// time on both sides of the middlebox, which the simulator does not
/// model. The no-op baseline measured ~4.75 µs on the paper's testbed,
/// of which NAT-specific processing is zero, so we use the paper's
/// no-op figure minus our measured no-op processing as the fixed
/// environment offset. Reported in both raw and offset forms; the
/// *shape* claims never depend on it.
pub const WIRE_BASE_NS: u64 = 4_650;

/// Run benches in full (paper-scale) mode when `VIGNAT_BENCH_FULL=1`;
/// default is a quick mode sized to finish the whole suite in minutes.
pub fn full_mode() -> bool {
    std::env::var("VIGNAT_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Background-flow counts for the x-axis of Fig. 12/13/14.
/// Paper: 1k .. 64k. Quick mode trims the sweep.
pub fn flow_sweep() -> Vec<usize> {
    if full_mode() {
        vec![
            1_000, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 64_000,
        ]
    } else {
        vec![1_000, 8_000, 24_000, 48_000, 64_000]
    }
}

/// Probe packets per latency point.
pub fn probe_count() -> usize {
    if full_mode() {
        400
    } else {
        60
    }
}

/// Packets measured per throughput point.
pub fn throughput_packets() -> usize {
    if full_mode() {
        400_000
    } else {
        60_000
    }
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format nanoseconds as microseconds with two decimals.
pub fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1_000.0)
}

/// The workspace root (where `BENCH_throughput.json` lands), resolved
/// from this crate's manifest directory so it works no matter which
/// directory `cargo bench` runs the target from.
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// Write a machine-readable result file at the workspace root and echo
/// its path, so every bench run leaves a perf-trajectory artifact for
/// later PRs to compare against.
pub fn write_result_json(filename: &str, json: &str) {
    let path = workspace_root().join(filename);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{mad_filter, mad_filter_ns};

    #[test]
    fn sweep_is_sane() {
        let s = flow_sweep();
        assert!(s.first().copied().unwrap() >= 1_000);
        assert_eq!(s.last().copied().unwrap(), 64_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn formatting() {
        assert_eq!(us(5_130.0), "5.13");
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn mad_filter_rejects_the_descheduled_burst() {
        // 99 quiet samples around 100 ns plus one 100x outlier (the
        // BENCH_throughput.json pathology): the outlier goes, the quiet
        // samples stay.
        let mut samples: Vec<f64> = (0..99).map(|i| 95.0 + (i % 11) as f64).collect();
        samples.push(10_000.0);
        let (kept, rejected) = mad_filter(&samples);
        assert_eq!(rejected, 1);
        assert_eq!(kept.len(), 99);
        assert!(kept.iter().all(|&x| x < 1_000.0));
    }

    #[test]
    fn mad_filter_keeps_everything_when_quiet() {
        let samples = vec![100.0; 64];
        let (kept, rejected) = mad_filter(&samples);
        assert_eq!((kept.len(), rejected), (64, 0), "zero MAD: no rejection");
        let jittered: Vec<f64> = (0..64).map(|i| 100.0 + (i % 7) as f64).collect();
        let (kept, rejected) = mad_filter(&jittered);
        assert_eq!(
            (kept.len(), rejected),
            (64, 0),
            "small jitter: no rejection"
        );
    }

    #[test]
    fn mad_filter_ns_roundtrips_integers() {
        let (kept, rejected) = mad_filter_ns(&[100, 101, 99, 100, 9_000, 100, 101, 99, 100]);
        assert_eq!(rejected, 1);
        assert!(kept.iter().all(|&x| x < 1_000));
    }
}
