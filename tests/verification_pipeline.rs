//! Workspace-level test of the verification pipeline through the
//! public API — the reproduction of the paper's Fig. 7 proof structure
//! as one executable statement.

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::NatConfig;
use vignat_repro::packet::Ip4;
use vignat_repro::validator::{run_ese, run_verification, ModelStyle};

fn paper_cfg() -> NatConfig {
    NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

#[test]
fn the_headline_result() {
    // "We present a NAT ... proven to be semantically correct according
    // to RFC 3022, as well as crash-free and memory-safe."
    let report = run_verification(&paper_cfg(), ModelStyle::Faithful, 2);
    assert!(report.ok(), "{:#?}", report.failures);
    // The proof did real work on every property, and exactly this much
    // of it: a loop-body change that alters the path set, or a check
    // that proves more or less, moves one of these counts.
    let counts = [
        report.paths,
        report.traces_with_prefixes,
        report.decisions,
        report.p2_obligations,
        report.p4_checks,
        report.p5_checks,
        report.p1_checks,
    ];
    assert_eq!(
        counts,
        [70, 139, 754, 167, 152, 12, 547],
        "paths, traces with prefixes, decisions, P2, P4, P5, P1"
    );
}

#[test]
fn ese_is_deterministic() {
    let a = run_ese(&paper_cfg(), ModelStyle::Faithful, 10_000).unwrap();
    let b = run_ese(&paper_cfg(), ModelStyle::Faithful, 10_000).unwrap();
    assert_eq!(a.stats.paths, b.stats.paths);
    assert_eq!(a.trace_count_with_prefixes(), b.trace_count_with_prefixes());
    let ids = |r: &vignat_repro::validator::EseResult| {
        let mut v: Vec<Vec<u8>> = r
            .traces
            .iter()
            .map(|t| t.decisions.iter().map(|d| d.chosen).collect())
            .collect();
        v.sort();
        v
    };
    assert_eq!(ids(&a), ids(&b), "identical path sets across runs");
}

#[test]
fn trace_shape_matches_the_papers_figure9() {
    let ese = run_ese(&paper_cfg(), ModelStyle::Faithful, 10_000).unwrap();
    // Find the internal-hit forwarding path and eyeball its call
    // sequence: now, expire (on guarded paths), receive, branches,
    // lookup, rejuvenate, tx.
    let t = ese
        .traces
        .iter()
        .find(|t| {
            t.tx().is_some()
                && t.events.iter().any(|e| {
                    matches!(
                        e,
                        vignat_repro::validator::Event::LookupInternal {
                            result: Some(_),
                            ..
                        }
                    )
                })
        })
        .expect("internal-hit path exists");
    let rendered = t.render();
    for needle in [
        "now()",
        "receive()",
        "lookup_internal",
        "rejuvenate",
        "tx(out=External)",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle} in:\n{rendered}"
        );
    }
}

#[test]
fn broken_models_cannot_produce_proofs() {
    // Paper §3: "An invalid model will cause either Step 2 or Step 3 to
    // fail, but it will never lead to an incorrect proof."
    let over = run_verification(&paper_cfg(), ModelStyle::OverApproximate, 2);
    assert!(!over.ok());
    assert!(over
        .failures
        .iter()
        .all(|f| f.property == "P2" || f.property == "P5"));

    let under = run_verification(&paper_cfg(), ModelStyle::UnderApproximate, 2);
    assert!(!under.ok());
    assert!(under.failures.iter().any(|f| f.property == "P5"));
}

#[test]
fn verification_covers_edge_configurations() {
    // Port range flush against the top of u16 — the overflow proof's
    // tightest case.
    let tight = NatConfig {
        capacity: 65_535,
        expiry_ns: 1,
        external_ip: Ip4::new(1, 1, 1, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    };
    assert!(run_verification(&tight, ModelStyle::Faithful, 2).ok());

    // Minimal table.
    let tiny = NatConfig {
        capacity: 1,
        expiry_ns: u64::MAX,
        external_ip: Ip4::new(1, 1, 1, 1),
        start_port: 65_535,
        ..NatConfig::paper_default()
    };
    assert!(run_verification(&tiny, ModelStyle::Faithful, 2).ok());
}

#[test]
fn rejected_configurations_never_reach_the_prover() {
    // An endpoint pool spilling past the top of the IPv4 address space
    // would break the slot⇄endpoint bijection; the config validator
    // must refuse it up front.
    let bad = NatConfig {
        capacity: 1 << 20,
        expiry_ns: 1,
        external_ip: Ip4::new(255, 255, 255, 255),
        start_port: 1024,
        ..NatConfig::paper_default()
    };
    assert!(vignat_repro::nat::loop_body::check_config(&bad).is_err());
    let r = run_ese(&bad, ModelStyle::Faithful, 10_000);
    assert!(r.is_err(), "ESE must refuse invalid configurations");

    // Valid but multi-address (capacity exceeds one address's ports):
    // outside the symbolic models' single-address scope, so the engine
    // must refuse it rather than silently prove the wrong pool shape.
    // Multi-address behaviour is covered differentially instead.
    let spill = NatConfig {
        capacity: 65_535,
        expiry_ns: 1,
        external_ip: Ip4::new(1, 1, 1, 1),
        start_port: 2,
        ..NatConfig::paper_default()
    };
    assert!(vignat_repro::nat::loop_body::check_config(&spill).is_ok());
    let r = run_ese(&spill, ModelStyle::Faithful, 10_000);
    assert!(r.is_err(), "ESE must refuse multi-address pools");

    // Valid but outside the models' other bounds: per-class TCP
    // lifetimes, EIM, EIM with hairpinning. Each, and the spill pool,
    // is refused with an error naming the feature — never a panic —
    // and the pipeline reports exactly one failure, labelled ESE: no
    // low-level property failed, the prover was never reached.
    let base = paper_cfg();
    let outside = [
        (
            NatConfig {
                tcp_transitory_ns: Time::from_secs(1).nanos(),
                tcp_established_ns: Time::from_secs(60).nanos(),
                ..base
            },
            "per-class TCP lifetimes",
        ),
        (NatConfig { eim: true, ..base }, "EIM"),
        (
            NatConfig {
                eim: true,
                hairpinning: true,
                ..base
            },
            "hairpinning",
        ),
        (spill, "multi-address pool"),
    ];
    for (cfg, feature) in outside {
        assert!(vignat_repro::nat::loop_body::check_config(&cfg).is_ok());
        let err = run_ese(&cfg, ModelStyle::Faithful, 10_000)
            .err()
            .unwrap_or_else(|| panic!("ESE must refuse {feature}"));
        assert!(err.contains(feature), "{feature}: {err}");
        let report = run_verification(&cfg, ModelStyle::Faithful, 2);
        assert_eq!(report.failures.len(), 1, "{feature}: {:?}", report.failures);
        assert_eq!(report.failures[0].property, "ESE", "{feature}");
        assert!(report.failures[0].detail.contains(feature), "{feature}");
    }
}
