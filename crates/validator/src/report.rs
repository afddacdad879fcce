//! The end-to-end verification pipeline and its report.
//!
//! [`run_verification`] = ESE + parallel per-trace validation of
//! P2/P4/P5/P1 (P3 is the libvig crate's own contract/exhaustive test
//! layer, re-attested by `cargo test -p libvig`). The report carries
//! the same statistics the paper quotes in §5.2: path count, trace
//! count including prefixes, and single- vs multi-threaded validation
//! time — reproduced as experiment TAB-VERIF.

use crate::checks::{check_p1, check_p2, check_p4, check_p5, CheckFailure};
use crate::ese::run_ese;
use crate::sym::ModelStyle;
use crate::trace::SymTrace;
use vig_spec::NatConfig;

/// Outcome of the full pipeline. The default is the report of a run
/// that never reached validation: every count zero.
#[derive(Debug, Default)]
pub struct VerificationReport {
    /// Feasible execution paths explored (paper: 108).
    pub paths: usize,
    /// Traces including all prefixes (paper: 431).
    pub traces_with_prefixes: usize,
    /// Total branch/model decisions across all paths.
    pub decisions: usize,
    /// Low-level obligations discharged (P2).
    pub p2_obligations: usize,
    /// Usage-discipline conditions checked (P4).
    pub p4_checks: usize,
    /// Model constraints validated against contracts (P5).
    pub p5_checks: usize,
    /// Semantic conditions proven (P1).
    pub p1_checks: usize,
    /// Wall-clock time of the symbolic execution.
    pub ese_duration: std::time::Duration,
    /// Wall-clock time of trace validation.
    pub validation_duration: std::time::Duration,
    /// Threads used for validation.
    pub threads: usize,
    /// Every condition that could not be proven.
    pub failures: Vec<CheckFailure>,
}

impl VerificationReport {
    /// Did the whole proof go through?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// A human-readable summary block (used by the example binary and
    /// the verification bench).
    pub fn summary(&self) -> String {
        format!(
            "paths: {}\ntraces (incl. prefixes): {}\ndecisions: {}\n\
             P2 obligations discharged: {}\nP4 conditions: {}\nP5 model validations: {}\n\
             P1 semantic conditions: {}\nESE time: {:?}\nvalidation time ({} thread(s)): {:?}\n\
             verdict: {}",
            self.paths,
            self.traces_with_prefixes,
            self.decisions,
            self.p2_obligations,
            self.p4_checks,
            self.p5_checks,
            self.p1_checks,
            self.ese_duration,
            self.threads,
            self.validation_duration,
            if self.ok() { "VERIFIED" } else { "FAILED" },
        )
    }
}

/// Validate one trace, returning its (P2, P4, P5, P1) counts or the
/// first failure.
fn validate_trace(trace: &mut SymTrace, cfg: &NatConfig) -> Result<[usize; 4], CheckFailure> {
    Ok([
        check_p2(trace)?,
        check_p4(trace, cfg)?,
        check_p5(trace, cfg)?,
        check_p1(trace, cfg)?,
    ])
}

/// Run the full pipeline. `threads` = 1 reproduces the paper's
/// single-core validation; more threads reproduce the parallel run.
/// The traces split into `threads` contiguous chunks, one thread each,
/// so the failures come out in path order at every thread count.
pub fn run_verification(cfg: &NatConfig, style: ModelStyle, threads: usize) -> VerificationReport {
    let threads = threads.max(1);
    let ese = match run_ese(cfg, style, 10_000) {
        Ok(r) => r,
        Err(detail) => {
            return VerificationReport {
                threads,
                failures: vec![CheckFailure {
                    property: "ESE",
                    detail,
                }],
                ..VerificationReport::default()
            }
        }
    };
    let traces_with_prefixes = ese.trace_count_with_prefixes();
    let start = std::time::Instant::now();
    let mut traces = ese.traces;
    let chunk = traces.len().div_ceil(threads).max(1);
    let results: Vec<Result<[usize; 4], CheckFailure>> = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .chunks_mut(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    slice
                        .iter_mut()
                        .map(|t| validate_trace(t, cfg))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("validator thread"))
            .collect()
    });
    let mut counts = [0usize; 4];
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok(c) => counts.iter_mut().zip(c).for_each(|(n, k)| *n += k),
            Err(f) => failures.push(f),
        }
    }
    let [p2_obligations, p4_checks, p5_checks, p1_checks] = counts;

    VerificationReport {
        paths: ese.stats.paths,
        traces_with_prefixes,
        decisions: ese.stats.decisions,
        p2_obligations,
        p4_checks,
        p5_checks,
        p1_checks,
        ese_duration: ese.duration,
        validation_duration: start.elapsed(),
        threads,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::Ip4;

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 65_535,
            expiry_ns: 2_000_000_000,
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1,
            ..NatConfig::paper_default()
        }
    }

    /// The headline result: the real loop body, under faithful models,
    /// verifies completely — P1 (RFC 3022 semantics), P2, P4, P5.
    #[test]
    fn vignat_verifies() {
        let r = run_verification(&cfg(), ModelStyle::Faithful, 1);
        assert!(r.ok(), "verification failed:\n{:#?}", r.failures);
        assert!(r.p2_obligations > 0, "must discharge real obligations");
        assert!(r.p1_checks > 0, "must prove real semantic conditions");
        assert!(r.p5_checks > 0, "must validate real model constraints");
    }

    /// Parallel validation (the paper's 4-core run) gives every count
    /// and every failure, in order, that the single-threaded run gives,
    /// under each model style.
    #[test]
    fn parallel_validation_agrees() {
        let counts = |r: &VerificationReport| {
            [
                r.paths,
                r.traces_with_prefixes,
                r.decisions,
                r.p2_obligations,
                r.p4_checks,
                r.p5_checks,
                r.p1_checks,
            ]
        };
        for style in [
            ModelStyle::Faithful,
            ModelStyle::OverApproximate,
            ModelStyle::UnderApproximate,
        ] {
            let seq = run_verification(&cfg(), style, 1);
            let par = run_verification(&cfg(), style, 4);
            assert_eq!(counts(&seq), counts(&par), "{style:?}");
            assert_eq!(seq.failures, par.failures, "{style:?}");
            assert_eq!(seq.ok(), style == ModelStyle::Faithful, "{style:?}");
        }
    }

    /// Paper §3, model (b): an over-approximate model (allocation index
    /// unconstrained) breaks the low-level proof — the port arithmetic
    /// can no longer be shown not to wrap.
    #[test]
    fn over_approximate_model_fails_p2() {
        let r = run_verification(&cfg(), ModelStyle::OverApproximate, 1);
        assert!(!r.ok());
        assert!(
            r.failures.iter().any(|f| f.property == "P2"),
            "expected a P2 failure, got {:?}",
            r.failures
        );
    }

    /// Paper §3, model (c): an under-approximate model (allocation index
    /// pinned to 0) fails lazy model validation.
    #[test]
    fn under_approximate_model_fails_p5() {
        let r = run_verification(&cfg(), ModelStyle::UnderApproximate, 1);
        assert!(!r.ok());
        assert!(
            r.failures.iter().any(|f| f.property == "P5"),
            "expected a P5 failure, got {:?}",
            r.failures
        );
    }

    /// A different configuration still verifies — the proof is about
    /// the code, not about one parameterization. (Notably the port
    /// range sitting flush against 65535.)
    #[test]
    fn verification_holds_across_configs() {
        let tight = NatConfig {
            capacity: 1_024,
            expiry_ns: 60_000_000_000,
            external_ip: Ip4::new(203, 0, 113, 7),
            start_port: 64_512, // 64512 + 1024 = 65536: flush fit,
            ..NatConfig::paper_default()
        };
        let r = run_verification(&tight, ModelStyle::Faithful, 2);
        assert!(r.ok(), "verification failed:\n{:#?}", r.failures);
    }
}
