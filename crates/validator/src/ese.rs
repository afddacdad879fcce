//! The exhaustive-symbolic-execution driver (paper §5.2.1).
//!
//! Runs the loop body's one entry, which every driver and
//! `Middlebox::process` ship, `vignat::loop_body::nat_process_batch_into`,
//! under [`SymEnv`] once per feasible path, collecting one [`SymTrace`]
//! each. [`SymEnv`] bounds the burst at one packet — the paper's single
//! iteration, which looks up at its sequence point; the batched probe
//! of a burst of two or more is held to it by
//! `tests/batch_equivalence.rs` (ROADMAP item 13). The paper reports
//! 108 paths for VigNAT's stateless code; ours is of the same order
//! (the exact count depends on how many validation branches the loop
//! has — the [`run_ese`] result records it, and the verification bench
//! reproduces the paper's table).

use crate::sym::ModelStyle;
use crate::sym_env::{check_scope, NatModels, SymEnv};
use crate::trace::SymTrace;
use vig_spec::NatConfig;
use vig_symbex::explorer::{explore, ExploreStats};
use vignat::loop_body::nat_process_batch_into;

/// Result of exhaustive symbolic execution.
#[derive(Debug)]
pub struct EseResult {
    /// One trace per feasible path.
    pub traces: Vec<SymTrace>,
    /// Exploration statistics.
    pub stats: ExploreStats,
    /// Wall-clock duration of the exploration.
    pub duration: std::time::Duration,
}

impl EseResult {
    /// The paper counts *traces* as all paths plus all their proper
    /// prefixes (§5.2.2: "the set of symbolic traces considered by
    /// Vigor consists of all execution path traces and all their
    /// prefixes"). This returns that number for our execution tree:
    /// the count of distinct non-empty decision-sequence prefixes plus
    /// the full paths' root.
    pub fn trace_count_with_prefixes(&self) -> usize {
        use std::collections::HashSet;
        let mut prefixes: HashSet<Vec<(u8, u8)>> = HashSet::new();
        for t in &self.traces {
            let seq: Vec<(u8, u8)> = t.decisions.iter().map(|d| (d.chosen, d.arity)).collect();
            for k in 0..=seq.len() {
                prefixes.insert(seq[..k].to_vec());
            }
        }
        prefixes.len()
    }
}

/// Exhaustively execute one burst of the NAT's loop symbolically.
///
/// `max_paths` bounds the exploration (a safety valve; the NAT needs
/// on the order of 10² paths). A configuration that `check_config`
/// rejects, or that lies outside the models' [`check_scope`], is an
/// `Err` naming why.
pub fn run_ese(cfg: &NatConfig, style: ModelStyle, max_paths: usize) -> Result<EseResult, String> {
    vignat::loop_body::check_config(cfg).map_err(|e| format!("bad config: {e}"))?;
    check_scope(cfg)?;
    let start = std::time::Instant::now();
    let cfg = *cfg;
    let (traces, stats) = explore(max_paths, |steer| {
        let mut env = SymEnv::new(steer, NatModels::new(cfg, style));
        nat_process_batch_into(&mut env, &cfg, |_| {});
        env.into_trace()
    })?;
    Ok(EseResult {
        traces,
        stats,
        duration: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;
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

    #[test]
    fn ese_terminates_with_expected_path_structure() {
        let r = run_ese(&cfg(), ModelStyle::Faithful, 10_000).unwrap();
        // Sanity on the family of paths: the no-packet paths (expire
        // guard x {packet, none}) and the forwarding paths must all be
        // present.
        assert!(r.stats.paths >= 30, "too few paths: {}", r.stats.paths);
        assert!(r.stats.paths <= 200, "path explosion: {}", r.stats.paths);
        let no_pkt = r
            .traces
            .iter()
            .filter(|t| t.events.iter().any(|e| matches!(e, Event::NoPacket)))
            .count();
        assert_eq!(no_pkt, 2, "expire-guard x no-packet");
        let forwarded = r.traces.iter().filter(|t| t.tx().is_some()).count();
        // internal hit, internal miss+alloc, external hit — per expire
        // guard and per protocol (TCP/UDP): 3 * 2 * 2 = 12.
        assert_eq!(forwarded, 12, "forwarding path family");
        let dropped = r.traces.iter().filter(|t| t.dropped()).count();
        assert_eq!(
            r.stats.paths,
            no_pkt + forwarded + dropped,
            "every path ends in exactly one of no-packet/tx/drop"
        );
    }

    #[test]
    fn traces_are_prefix_countable() {
        let r = run_ese(&cfg(), ModelStyle::Faithful, 10_000).unwrap();
        let with_prefixes = r.trace_count_with_prefixes();
        assert!(
            with_prefixes > r.stats.paths,
            "prefix closure must exceed the path count"
        );
    }

    #[test]
    fn every_packet_path_is_consumed_exactly_once() {
        let r = run_ese(&cfg(), ModelStyle::Faithful, 10_000).unwrap();
        for t in &r.traces {
            let got_pkt = t.rx().is_some();
            let consumed = t.tx().is_some() || t.dropped();
            assert_eq!(
                got_pkt,
                consumed,
                "ownership: packet iff consumed\n{}",
                t.render()
            );
            let consume_events = t
                .events
                .iter()
                .filter(|e| matches!(e, Event::Tx { .. } | Event::DropPkt))
                .count();
            assert!(consume_events <= 1, "at most one consume per path");
        }
    }
}
