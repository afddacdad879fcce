//! Persistent-runtime differential tests: the core-pinned shard
//! runtime (`netsim::runtime` — long-lived workers handed jobs that
//! carry their shard's mempool) must be packet-for-packet AND state-identical to the
//! sequential `ShardedFlowManager` oracle, for any worker count and
//! any interleaving of worker execution.
//!
//! This is the persistent-session counterpart of
//! `tests/shard_equivalence.rs`'s `parallel_driver_equals_sequential_sharded`
//! (which opens a one-burst session per round).
//! Here one pinned session stays alive across every burst of a run, so
//! job round trips, worker idle/backoff cycles, and cross-burst state
//! carried inside the workers are all exercised. Five angles:
//!
//! 1. **adversarial bursts** at 1/2/4 workers — the full hostile
//!    generator (junk, bit flips, truncations, straddling return
//!    traffic), verdicts + bytes compared per round, per-flow TX byte
//!    totals, full LRU state and expiry counts at session end;
//! 2. **skewed bursts** — most traffic is a single flow, so one worker
//!    drains deep bursts while its siblings run empty expiry ticks;
//! 3. **port exhaustion** — tiny capacity, hundreds of candidate
//!    flows: every worker's allocator hits TableFull mid-burst;
//! 4. **expiry racing** — virtual-time jumps past `Texp` interleaved
//!    with *empty* bursts (pure expiry ticks on the runtime side,
//!    nothing at all on the oracle side): the idempotent-expiry
//!    argument says totals re-converge at the next non-empty burst,
//!    and this proves it;
//! 5. **jobs longer than a ring** — the dispatcher pushes and drains
//!    them in pieces, resuming mid-frame both ways.
//!
//! Pinning is requested everywhere (`pin = true`): where the host
//! permits, workers really are core-pinned; where it doesn't, the
//! graceful-degradation path runs. Equivalence must hold either way —
//! that is the point.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vignat_repro::libvig::map::MapKey;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig, ShardedFlowManager};
use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, Flow, FlowId, Ip4};
use vignat_repro::sim::dpdk::Mempool;
use vignat_repro::sim::harness::ParallelShardedNat;
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb, Verdict};

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 64,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 4096,
        ..NatConfig::paper_default()
    }
}

/// One randomized frame of adversarial traffic (the
/// `shard_equivalence` generator): valid internal flows from a small
/// pool, return traffic straddling the NAT port range, bit flips,
/// truncations, raw noise.
fn gen_frame(rng: &mut StdRng) -> (Direction, Vec<u8>) {
    let class = rng.gen_range(0..10u8);
    match class {
        0..=4 => {
            let host = rng.gen_range(1..=48u8);
            let port = 1024 + u16::from(rng.gen_range(0..4u8));
            let frame = if rng.gen_bool(0.5) {
                PacketBuilder::udp(Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1), port, 53).build()
            } else {
                PacketBuilder::tcp(Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1), port, 80).build()
            };
            (Direction::Internal, frame)
        }
        5..=6 => {
            let ext_port = 4090 + u16::from(rng.gen_range(0..80u8)); // straddles the range
            let frame =
                PacketBuilder::udp(Ip4::new(1, 1, 1, 1), Ip4::new(203, 0, 113, 1), 53, ext_port)
                    .build();
            (Direction::External, frame)
        }
        7 => {
            let mut frame =
                PacketBuilder::tcp(Ip4::new(10, 0, 0, 1), Ip4::new(1, 1, 1, 1), 1024, 80).build();
            for _ in 0..rng.gen_range(1..=4) {
                let byte = rng.gen_range(0..frame.len());
                frame[byte] ^= 1u8 << rng.gen_range(0..8);
            }
            let dir = if rng.gen_bool(0.5) {
                Direction::Internal
            } else {
                Direction::External
            };
            (dir, frame)
        }
        8 => {
            let frame =
                PacketBuilder::udp(Ip4::new(10, 0, 0, 2), Ip4::new(1, 1, 1, 1), 1025, 53).build();
            let cut = rng.gen_range(0..frame.len());
            (Direction::Internal, frame[..cut].to_vec())
        }
        _ => {
            let len = rng.gen_range(0..120usize);
            let frame: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            let dir = if rng.gen_bool(0.5) {
                Direction::Internal
            } else {
                Direction::External
            };
            (dir, frame)
        }
    }
}

/// Observable state of a sharded flow manager: per-shard LRU snapshots,
/// coherence (including the routing invariant) asserted.
fn sharded_state(t: &ShardedFlowManager) -> Vec<Vec<(usize, Flow, Time)>> {
    FlowTable::check_coherence(t).expect("sharded coherence");
    t.snapshot()
}

/// Credit a forwarded frame's bytes to its flow (keyed by the *output*
/// frame's flow hash — the rewritten five-tuple, so internal and
/// return traffic of the same mapping land on different keys, which is
/// fine: both sides account identically or not at all).
fn credit_tx(acct: &mut HashMap<u64, u64>, verdict: Verdict, frame: &[u8]) {
    if matches!(verdict, Verdict::Forward(_)) {
        if let Ok((_, f)) = parse_l3l4(frame) {
            let fid = FlowId {
                src_ip: f.src_ip,
                src_port: f.src_port,
                dst_ip: f.dst_ip,
                dst_port: f.dst_port,
                proto: f.proto,
            };
            *acct.entry(fid.key_hash()).or_insert(0) += frame.len() as u64;
        }
    }
}

/// The differential core: drive `rounds` bursts from `make_burst`
/// through (a) the sequential sharded oracle and (b) one persistent
/// pinned runtime session at `workers` workers, comparing verdicts and
/// frame bytes every round and per-flow TX bytes, full LRU state, and
/// expiry totals at the end. `now` advances by `make_burst`'s returned
/// step, so callers control expiry pressure.
fn run_differential(
    c: NatConfig,
    workers: usize,
    rounds: usize,
    burst_cap: usize,
    mut make_burst: impl FnMut(&mut StdRng, usize) -> (Direction, Vec<Vec<u8>>, u64),
    seed: u64,
) -> (usize, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = ShardedVigNatMb::sharded(c, workers);
    let mut par = ParallelShardedNat::new(c, workers, burst_cap);
    let mut pool = Mempool::new(burst_cap);
    let mut tx_seq: HashMap<u64, u64> = HashMap::new();
    let mut tx_par: HashMap<u64, u64> = HashMap::new();

    let ((), report) = par.with_runtime(true, |session| {
        let mut now = Time::from_secs(1);
        for round in 0..rounds {
            let (dir, frames, step) = make_burst(&mut rng, round);
            now = now.plus(step);

            // Sequential oracle through the batched middlebox path.
            let bufs: Vec<_> = frames
                .iter()
                .map(|f| {
                    let b = pool.get().expect("pool sized for a burst");
                    pool.write_frame(b, f);
                    b
                })
                .collect();
            let v_seq = seq.process_burst(dir, &mut pool, &bufs, now);

            // Persistent runtime on its own copy of the burst.
            let mut par_frames = frames.clone();
            let v_par = session.process_burst(dir, &mut par_frames, now);

            assert_eq!(
                v_seq, v_par,
                "verdicts diverged in round {round} ({workers} workers)"
            );
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(
                    pool.frame(*b),
                    &par_frames[i][..],
                    "frame bytes diverged in round {round}, packet {i} ({workers} workers)"
                );
                credit_tx(&mut tx_seq, v_seq[i], pool.frame(*b));
                credit_tx(&mut tx_par, v_par[i], &par_frames[i]);
                pool.put(*b);
            }
            // Expiry totals may transiently lag after an *empty* burst
            // (the runtime ticks idle shards; the oracle's burst loop
            // runs zero chunks), so compare them only when this round
            // carried packets — the idempotent-expiry argument says
            // they re-converge there, and this assertion proves it.
            if !frames.is_empty() {
                assert_eq!(
                    seq.expired_total(),
                    session.expired(),
                    "expiry totals diverged in round {round} ({workers} workers)"
                );
            }
        }
        // A trailing empty burst leaves the oracle holding stale flows
        // the runtime already expired (the oracle only expires when a
        // burst carries packets — the same unobservable difference
        // `shard_equivalence` pins down). Flush both expiry clocks to
        // one instant with a single out-of-range return packet (drops
        // everywhere, mutates nothing but expiry) so the final state
        // comparison sees both at the same horizon.
        now = now.plus(1_000_000);
        let flush =
            PacketBuilder::udp(Ip4::new(9, 9, 9, 9), Ip4::new(203, 0, 113, 1), 1, 9).build();
        let b = pool.get().expect("pool holds one flush frame");
        pool.write_frame(b, &flush);
        let v_seq = seq.process_burst(Direction::External, &mut pool, &[b], now);
        pool.put(b);
        let mut par_flush = vec![flush];
        let v_par = session.process_burst(Direction::External, &mut par_flush, now);
        assert_eq!(v_seq, vec![Verdict::Drop]);
        assert_eq!(v_par, vec![Verdict::Drop]);
        assert_eq!(seq.expired_total(), session.expired());
    });
    assert_eq!(report.pin.workers, workers);
    assert_eq!(tx_seq, tx_par, "per-flow TX bytes diverged");
    assert_eq!(
        sharded_state(seq.flow_manager()),
        sharded_state(par.table()),
        "flow-table state diverged ({workers} workers)"
    );
    assert_eq!(seq.expired_total(), par.expired_total());
    (par.occupancy(), par.expired_total())
}

#[test]
fn persistent_runtime_equals_sequential_sharded() {
    for workers in [1usize, 2, 4] {
        let (occupancy, _) = run_differential(
            cfg(),
            workers,
            200,
            64,
            |rng, _round| {
                let burst_len = rng.gen_range(1..=32usize);
                let dir = if rng.gen_bool(0.8) {
                    Direction::Internal
                } else {
                    Direction::External
                };
                let frames = (0..burst_len).map(|_| gen_frame(rng).1).collect();
                (dir, frames, rng.gen_range(1_000_000..800_000_000))
            },
            0xD15A + workers as u64,
        );
        assert!(occupancy > 0, "the run must have built flow state");
    }
}

#[test]
fn skewed_bursts_hit_one_worker() {
    // ~80% of frames are one single flow: its worker drains deep
    // bursts while the siblings run empty expiry ticks every round.
    let (occupancy, _) = run_differential(
        cfg(),
        4,
        150,
        64,
        |rng, _round| {
            let burst_len = rng.gen_range(8..=48usize);
            let frames = (0..burst_len)
                .map(|_| {
                    if rng.gen_bool(0.8) {
                        PacketBuilder::udp(Ip4::new(10, 0, 0, 1), Ip4::new(1, 1, 1, 1), 1024, 53)
                            .build()
                    } else {
                        gen_frame(rng).1
                    }
                })
                .collect();
            (
                Direction::Internal,
                frames,
                rng.gen_range(1_000_000..100_000_000),
            )
        },
        0x5_4E1,
    );
    assert!(occupancy > 0, "the run must have built flow state");
}

#[test]
fn port_exhaustion_parity() {
    // Capacity 8 over 4 workers = 2 slots per shard; 48×16 candidate
    // flows guarantee TableFull drops inside every worker's bursts.
    let c = NatConfig {
        capacity: 8,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 4096,
        ..NatConfig::paper_default()
    };
    let (occupancy, _) = run_differential(
        c,
        4,
        150,
        64,
        |rng, _round| {
            let burst_len = rng.gen_range(1..=32usize);
            let frames = (0..burst_len)
                .map(|_| {
                    let host = rng.gen_range(1..=48u8);
                    let port = 1024 + u16::from(rng.gen_range(0..16u8));
                    PacketBuilder::udp(Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1), port, 53)
                        .build()
                })
                .collect();
            (
                Direction::Internal,
                frames,
                rng.gen_range(1_000_000..500_000_000),
            )
        },
        0xF0_11,
    );
    assert!(occupancy > 0, "the run must have built flow state");
}

/// EIM traffic: a handful of internal endpoints, each talking to many
/// remotes (one mapping per endpoint, whatever the remote), and return
/// traffic from arbitrary senders across the port range (full cone).
fn eim_burst(rng: &mut StdRng) -> (Direction, Vec<Vec<u8>>, u64) {
    let internal = rng.gen_bool(0.75);
    let frames = (0..rng.gen_range(1..=32usize))
        .map(|_| {
            let remote = Ip4::new(8, 8, rng.gen_range(0..4u8), rng.gen_range(1..=8u8));
            let rport = 53 + u16::from(rng.gen_range(0..4u8));
            if !internal {
                let ext_port = 4090 + u16::from(rng.gen_range(0..80u8));
                PacketBuilder::udp(remote, Ip4::new(203, 0, 113, 1), rport, ext_port).build()
            } else if rng.gen_bool(0.1) {
                gen_frame(rng).1
            } else {
                let host = Ip4::new(10, 0, 0, rng.gen_range(1..=6u8));
                let port = 1024 + u16::from(rng.gen_range(0..2u8));
                PacketBuilder::udp(host, remote, port, rport).build()
            }
        })
        .collect();
    let dir = if internal {
        Direction::Internal
    } else {
        Direction::External
    };
    (dir, frames, rng.gen_range(1_000_000..300_000_000))
}

#[test]
fn eim_runtime_equals_sequential_sharded() {
    // Dispatch must steer by the key the loop body looks up: under EIM
    // that key has no remote half, so every packet of one internal
    // endpoint lands on one shard and shares one mapping. (A dispatcher
    // hashing the raw 5-tuple spreads them over the shards, each of
    // which opens a mapping of its own: verdicts survive, the external
    // ports and `check_coherence` do not.)
    let c = NatConfig { eim: true, ..cfg() };
    for workers in [1usize, 2, 4] {
        let (occupancy, _) = run_differential(
            c,
            workers,
            150,
            64,
            |rng, _round| eim_burst(rng),
            0xE14 + workers as u64,
        );
        assert!(occupancy > 0, "the run must have built flow state");
    }
}

/// The hairpinning configuration (RFC 4787 REQ-9; needs EIM).
fn hairpin_cfg() -> NatConfig {
    NatConfig {
        eim: true,
        hairpinning: true,
        ..cfg()
    }
}

const HAIRPIN_HOSTS: u8 = 16;

fn hairpin_host(i: u8) -> Ip4 {
    Ip4::new(10, 0, 0, 1 + i % HAIRPIN_HOSTS)
}

/// Each host opens a mapping by sending one packet out.
fn hairpin_openers() -> Vec<Vec<u8>> {
    (0..HAIRPIN_HOSTS)
        .map(|i| PacketBuilder::udp(hairpin_host(i), Ip4::new(1, 1, 1, 1), 1024, 53).build())
        .collect()
}

/// Each host sends a packet to its neighbour's *external* endpoint,
/// read off the neighbour's translated opener.
fn hairpins_to(opened: &[Vec<u8>]) -> Vec<Vec<u8>> {
    (0..HAIRPIN_HOSTS)
        .map(|i| {
            let (_, target) = parse_l3l4(&opened[usize::from((i + 1) % HAIRPIN_HOSTS)]).unwrap();
            PacketBuilder::udp(hairpin_host(i), target.src_ip, 1024, target.src_port).build()
        })
        .collect()
}

/// The hairpin scene through the sequential NAT over `shards` shards:
/// every hairpinned packet must come back inside, addressed to the
/// neighbour's internal endpoint. Returns the translated openers.
fn sequential_hairpins(shards: usize) -> Vec<Vec<u8>> {
    let mut seq = ShardedVigNatMb::sharded(hairpin_cfg(), shards);
    let now = Time::from_secs(1);
    let mut opened = hairpin_openers();
    for f in opened.iter_mut() {
        assert_eq!(
            seq.process(Direction::Internal, f, now),
            Verdict::Forward(Direction::External)
        );
    }
    let shards_used = sharded_state(seq.flow_manager())
        .iter()
        .filter(|s| !s.is_empty())
        .count();
    assert_eq!(
        shards_used > 1,
        shards > 1,
        "the scene must span the shards"
    );
    for (i, mut f) in hairpins_to(&opened).into_iter().enumerate() {
        assert_eq!(
            seq.process(Direction::Internal, &mut f, now),
            Verdict::Forward(Direction::Internal),
            "hairpinned packet {i} ({shards} shards)"
        );
        let (_, out) = parse_l3l4(&f).unwrap();
        assert_eq!(out.dst_ip, hairpin_host(i as u8 + 1));
        assert_eq!(out.dst_port, 1024);
    }
    assert_eq!(
        seq.occupancy(),
        usize::from(HAIRPIN_HOSTS),
        "hairpinning opens no extra mappings"
    );
    opened
}

#[test]
fn sequential_sharded_nat_hairpins_across_shards() {
    // The whole-table driver resolves a hairpin target wherever its
    // port lives: 16 senders over 4 shards, 16 of 16 forwarded.
    sequential_hairpins(4);
}

#[test]
fn hairpin_runtime_equals_sequential_at_one_shard() {
    // One shard is the whole table, so the per-shard drivers support
    // hairpinning there — and must agree with the oracle on it, which
    // (being the NAT of the dry run) forwards 16 of 16.
    let opened = sequential_hairpins(1);
    let (occupancy, _) = run_differential(
        hairpin_cfg(),
        1,
        2,
        64,
        |_rng, round| {
            let frames = match round {
                0 => hairpin_openers(),
                _ => hairpins_to(&opened),
            };
            (Direction::Internal, frames, 0)
        },
        0,
    );
    assert_eq!(occupancy, usize::from(HAIRPIN_HOSTS));
}

#[test]
#[should_panic(expected = "hairpinning requires one shard")]
fn per_shard_drivers_refuse_hairpinning_across_shards() {
    // A worker owns one shard and cannot see the shard holding a
    // hairpin target's mapping (§5: no shared state) — refused at
    // session start rather than served wrong.
    let mut par = ParallelShardedNat::new(hairpin_cfg(), 2, 8);
    par.with_runtime(false, |_session| ());
}

/// A distinct internal-side frame for flow index `i` (up to 2^24
/// distinct flows — enough to fill the 2^20-slot table and keep
/// churning past it).
fn flow_frame(i: u32) -> Vec<u8> {
    PacketBuilder::udp(
        Ip4(0x0a00_0000 | (i & 0x00ff_ffff)),
        Ip4::new(1, 1, 1, 1),
        1024 ^ (i >> 16) as u16,
        53,
    )
    .build()
}

/// Sustained million-flow churn through the persistent pinned runtime:
/// a 2^20-slot table (the endpoint pool spills across 18 external
/// addresses) at 1/2/4 workers. Phase 1 fills the table to capacity —
/// plus a margin, so TableFull parity is exercised at the full
/// million-flow table — with distinct arrivals; phase 2 is sustained
/// churn: random arrivals/refreshes from a larger population with
/// Texp-crossing time jumps forcing mass expiry, verdicts and
/// frame bytes compared every round and per-flow TX bytes, full LRU
/// state, and expiry totals at session end. This is the scale
/// satellite of `expiry_equivalence.rs` driven through the real
/// datapath (job hand-over, burst envs, RSS dispatch) rather than the
/// table API. Release-only by size: the `nightly-deep` CI job runs it
/// with `--release -- --ignored million`.
#[test]
#[ignore = "million-flow scale; run in release (nightly-deep CI job)"]
fn sustained_million_flow_churn_session() {
    const CAP: usize = 1 << 20;
    const BURST: usize = 256;
    let fill_rounds = CAP / BURST + 16; // overshoot => TableFull parity
    for workers in [1usize, 2, 4] {
        let c = NatConfig {
            capacity: CAP,
            expiry_ns: Time::from_secs(2).nanos(),
            external_ip: Ip4::new(203, 0, 113, 1),
            start_port: 4096,
            ..NatConfig::paper_default()
        };
        let (occupancy, expired) = run_differential(
            c,
            workers,
            fill_rounds + 600,
            BURST,
            |rng, round| {
                if round < fill_rounds {
                    // Fill: distinct flows, sub-Texp steps — occupancy
                    // climbs monotonically to the capacity edge.
                    let base = (round * BURST) as u32;
                    let frames = (0..BURST as u32).map(|k| flow_frame(base + k)).collect();
                    (Direction::Internal, frames, 1_000)
                } else {
                    // Churn: arrivals/refreshes from a 1.5M-flow
                    // population; every 150th round jumps past Texp so
                    // the table drains en masse while new flows keep
                    // arriving.
                    let frames = (0..BURST)
                        .map(|_| flow_frame(rng.gen_range(0..1_500_000u32)))
                        .collect();
                    let churn_round = round - fill_rounds;
                    let step = if churn_round > 0 && churn_round.is_multiple_of(150) {
                        2_500_000_000 // > Texp: mass expiry
                    } else {
                        rng.gen_range(100_000..2_000_000)
                    };
                    (Direction::Internal, frames, step)
                }
            },
            0x1_000_000 + workers as u64,
        );
        assert!(
            occupancy > 20_000,
            "the churn phase must leave substantial state ({workers} workers)"
        );
        assert!(
            expired as usize > CAP,
            "the session must have expired more than a full table ({workers} workers)"
        );
    }
}

/// Large jobs: 1,200 frames of 14 + 20 + 8 + 1,400 = 1,442 bytes over
/// 2 workers put about 600 frames, ≈ 850 KB, in each shard's job, with
/// distinct bytes per frame and round, so a buffer written back to the
/// wrong frame shows in the comparison.
#[test]
fn jobs_larger_than_the_ring_equal_sequential_sharded() {
    let c = NatConfig {
        capacity: 2_048,
        ..cfg()
    };
    let (occupancy, _) = run_differential(
        c,
        2,
        4,
        1_200,
        |_rng, round| {
            let frames = (0..1_200u16)
                .map(|i| {
                    // Distinct bytes per frame and round, so a
                    // misplaced resumption shows in the comparison.
                    let payload: Vec<u8> = (0..1_400u16)
                        .map(|k| (k ^ i ^ round as u16) as u8)
                        .collect();
                    PacketBuilder::udp(
                        Ip4::new(10, 0, (i >> 8) as u8, i as u8),
                        Ip4::new(1, 1, 1, 1),
                        1024,
                        53,
                    )
                    .payload(&payload)
                    .build()
                })
                .collect();
            (Direction::Internal, frames, 1_000_000)
        },
        0x0B16,
    );
    assert_eq!(occupancy, 1_200, "every flow allocated, none expired");
}

#[test]
fn expiry_racing_parity() {
    // Time jumps past Texp (2 s) plus ~25% empty bursts: the runtime
    // expires on the empty tick, the oracle only at the next non-empty
    // burst — totals and state must still re-converge.
    let (_, expired) = run_differential(
        cfg(),
        4,
        200,
        64,
        |rng, _round| {
            let empty = rng.gen_bool(0.25);
            let burst_len = if empty { 0 } else { rng.gen_range(1..=24usize) };
            let frames = (0..burst_len).map(|_| gen_frame(rng).1).collect();
            let step = if rng.gen_bool(0.4) {
                rng.gen_range(2_000_000_000..6_000_000_000) // > Texp: mass expiry
            } else {
                rng.gen_range(1_000_000..200_000_000)
            };
            (Direction::Internal, frames, step)
        },
        0xE_417,
    );
    assert!(expired > 0, "the run must have raced expiry");
}
