//! Multi-queue / event-driven differential tests: the one driver
//! (`BackendDriver` over the multi-queue `SimBackend`) must be
//! byte-for-byte equivalent, per flow, to the sequential per-frame
//! `Middlebox::process` oracle.
//!
//! The equivalence argument, layer by layer:
//!
//! 1. **Classification follows the table**: the NIC model's RSS
//!    classifier (which is also the software dispatch of the per-shard
//!    drivers) steers every frame to the shard the sequential sharded
//!    NAT keeps its flow in — checked against the table's own snapshot
//!    for every key shape, on adversarial frames including garbage.
//! 2. **`queues == shards`**: each queue carries exactly one shard's
//!    arrival subsequence in FIFO order, so no matter how the
//!    event-driven scheduler interleaves queue bursts, every shard
//!    processes its packets in arrival order — outputs, drop verdicts,
//!    allocations, expiry, and final table state are *identical* to
//!    sequential processing (proven per flow by payload tags).
//!
//!    The one ordering a multi-port NIC genuinely does *not* preserve
//!    is **across directions**: a shard's packets arrive on two rings
//!    (its internal-port queue and its external-port queue), and the
//!    scheduler may interleave them either way. Translation bytes per
//!    flow are unaffected (replies allocate nothing), but
//!    *rejuvenation* order — hence LRU order, hence slot-reuse order
//!    after an expiry wave — can differ. The headline test therefore
//!    drains direction-homogeneous batches (byte-for-byte through
//!    expiry and reallocation, state equality included), and a second
//!    test mixes directions in one drain and proves per-flow byte
//!    equality up to the point an expiry wave would reorder reuse.
//! 3. **`queues > shards`** (4 queues × 2 shards): queue groups nest
//!    inside shards; translation of established flows remains
//!    byte-identical under any interleaving.
//! 4. **Overflow isolation**: a full RX ring drops (and counts) on that
//!    queue alone; siblings drain normally and flow state stays
//!    coherent — loss is an accounting event, never corruption. Every
//!    per-queue counter of both ports (rx, rx drops, tx, tx bytes) is
//!    checked against a ledger kept beside the oracle.
//! 5. **Skewed budgets**: `Wrr::weighted` budgets and a tight backoff
//!    window reorder *when* queues are served, never what a flow's
//!    packets become.

use std::collections::HashMap;

use proptest::prelude::*;

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig};
use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, Ip4, Proto};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::{BackendDriver, EventLoop, Poller, Wrr};
use vignat_repro::sim::frame_env::RssClassifier;
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb, Verdict};

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 64,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    }
}

/// A uniquely tagged frame: the 4-byte tag rides in the payload, which
/// the NAT preserves, so every output frame can be attributed to its
/// input no matter which queue carried it or in which order it left.
fn tagged_frame(
    dir: Direction,
    src: Ip4,
    dst: Ip4,
    sp: u16,
    dp: u16,
    proto: Proto,
    tag: u32,
) -> (Direction, Vec<u8>) {
    let b = match proto {
        Proto::Udp => PacketBuilder::udp(src, dst, sp, dp),
        Proto::Tcp => PacketBuilder::tcp(src, dst, sp, dp),
    };
    (dir, b.payload(&tag.to_be_bytes()).build())
}

fn tag_of(frame: &[u8]) -> u32 {
    let n = frame.len();
    u32::from_be_bytes(frame[n - 4..].try_into().unwrap())
}

/// Internal frame of flow `h` with a fresh tag.
fn internal(h: u8, tag: u32) -> (Direction, Vec<u8>) {
    tagged_frame(
        Direction::Internal,
        Ip4::new(192, 168, 0, h),
        Ip4::new(8, 8, 8, 8),
        10_000 + u16::from(h),
        53,
        if h.is_multiple_of(3) {
            Proto::Tcp
        } else {
            Proto::Udp
        },
        tag,
    )
}

/// Outputs per tag: (egress direction, full frame bytes).
type Outputs = HashMap<u32, (Direction, Vec<u8>)>;

/// Sequential single-queue oracle: process every frame in arrival
/// order, one at a time, recording each forwarded frame by its tag.
fn run_sequential(
    nf: &mut ShardedVigNatMb,
    traffic: &[(Direction, Vec<u8>)],
    now: Time,
) -> Outputs {
    let mut out = Outputs::new();
    for (dir, frame) in traffic {
        let mut f = frame.clone();
        if let Verdict::Forward(d) = nf.process(*dir, &mut f, now) {
            let tag = tag_of(&f);
            assert!(out.insert(tag, (d, f)).is_none(), "duplicate tag {tag}");
        }
    }
    out
}

/// A driver over `queues`-queue simulated ports with the given event
/// loop.
fn driver(c: &NatConfig, queues: usize, ring: usize, ev: EventLoop) -> BackendDriver<SimBackend> {
    BackendDriver::with_event_loop(SimBackend::new(RssClassifier::for_nat(c, queues), ring), ev)
}

/// Stage one frame; the RX queue it landed in, or `None` on overflow.
fn stage(drv: &mut BackendDriver<SimBackend>, dir: Direction, frame: &[u8]) -> Option<usize> {
    drv.io_mut().stage(dir, |b| {
        b[..frame.len()].copy_from_slice(frame);
        frame.len()
    })
}

/// Reap both ports' TX queues into per-tag outputs.
fn reap_outputs(drv: &mut BackendDriver<SimBackend>) -> Outputs {
    let mut out = Outputs::new();
    for dir in [Direction::Internal, Direction::External] {
        for (_q, frame) in drv.io_mut().reap(dir) {
            let tag = tag_of(&frame);
            assert!(
                out.insert(tag, (dir, frame)).is_none(),
                "duplicate tag {tag}"
            );
        }
    }
    out
}

/// Event-driven driver: stage everything (classified by RSS), drain,
/// reap both ports' TX queues.
fn run_event_driven(
    nf: &mut ShardedVigNatMb,
    drv: &mut BackendDriver<SimBackend>,
    traffic: &[(Direction, Vec<u8>)],
    now: Time,
) -> Outputs {
    for (dir, frame) in traffic {
        let accepted = stage(drv, *dir, frame);
        assert!(accepted.is_some(), "test traffic sized within the rings");
    }
    drv.drain(nf, now);
    reap_outputs(drv)
}

fn assert_same_outputs(a: &Outputs, b: &Outputs, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: forwarded counts diverge");
    for (tag, (dir, bytes)) in a {
        let (bdir, bbytes) = b
            .get(tag)
            .unwrap_or_else(|| panic!("{what}: tag {tag} missing from event-driven output"));
        assert_eq!(dir, bdir, "{what}: egress diverged for tag {tag}");
        assert_eq!(bytes, bbytes, "{what}: bytes diverged for tag {tag}");
    }
}

/// The headline proof: with queues == shards, the event-driven
/// multi-queue drain is byte-for-byte equivalent per flow to the
/// sequential single-queue oracle — across allocations, repeats,
/// return traffic, junk, an expiry wave, and re-allocation — and the
/// final sharded table state is identical.
#[test]
fn event_driven_equals_sequential_byte_for_byte_per_flow() {
    for shards in [2usize, 4] {
        let c = cfg();
        let mut seq_nf = ShardedVigNatMb::sharded(c, shards);
        let mut ev_nf = ShardedVigNatMb::sharded(c, shards);
        // Skewed weights + small quantum: force budgeted interleaving
        // rather than drain-to-completion per queue.
        let weights: Vec<usize> = (0..shards).map(|q| 1 + (q % 2)).collect();
        let ev = EventLoop::with_parts(Poller::with_backoff(100, 1_000), Wrr::weighted(weights, 4));
        let mut drv = driver(&c, shards, 64, ev);
        let mut tag = 0u32;
        let next_tag = |n: &mut u32| {
            *n += 1;
            *n
        };

        // Round 1 (t=1s): new flows + repeats → allocations on every shard.
        let t1 = Time::from_secs(1);
        let round1: Vec<_> = (0..48)
            .map(|i| internal(i % 12, next_tag(&mut tag)))
            .collect();
        let seq_out = run_sequential(&mut seq_nf, &round1, t1);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round1, t1);
        assert_same_outputs(&seq_out, &ev_out, "round 1");

        // Round 2a (t=2s), external drain: replies to every translation
        // (routed to their owning queue by the port partition), plus
        // junk return traffic to a dead and an out-of-range port.
        let t2 = Time::from_secs(2);
        let mut round2a = Vec::new();
        for (_, (d, f)) in seq_out.iter() {
            if *d != Direction::External {
                continue;
            }
            let (_, ff) = parse_l3l4(f).unwrap();
            round2a.push(tagged_frame(
                Direction::External,
                ff.dst_ip,
                Ip4::new(203, 0, 113, 1),
                ff.dst_port,
                ff.src_port,
                ff.proto,
                next_tag(&mut tag),
            ));
        }
        // Dead port inside the range, and a port outside it entirely.
        round2a.push(tagged_frame(
            Direction::External,
            Ip4::new(9, 9, 9, 9),
            Ip4::new(203, 0, 113, 1),
            1,
            1000 + 63,
            Proto::Udp,
            next_tag(&mut tag),
        ));
        round2a.push(tagged_frame(
            Direction::External,
            Ip4::new(9, 9, 9, 9),
            Ip4::new(203, 0, 113, 1),
            1,
            40_000,
            Proto::Udp,
            next_tag(&mut tag),
        ));
        let seq_out = run_sequential(&mut seq_nf, &round2a, t2);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round2a, t2);
        assert_same_outputs(&seq_out, &ev_out, "round 2a");

        // Round 2b, internal drain at the same instant: repeats that
        // rejuvenate a subset of the flows (reordering the LRU before
        // the expiry wave below).
        let round2b: Vec<_> = (0..8)
            .map(|i| internal(i % 12, next_tag(&mut tag)))
            .collect();
        let seq_out = run_sequential(&mut seq_nf, &round2b, t2);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round2b, t2);
        assert_same_outputs(&seq_out, &ev_out, "round 2b");

        // Round 3 (t=10s, Texp=2s): everything expired — the expiry
        // wave plus re-allocation must interleave identically.
        let t3 = Time::from_secs(10);
        let round3: Vec<_> = (0..24)
            .map(|i| internal(i % 20, next_tag(&mut tag)))
            .collect();
        let seq_out = run_sequential(&mut seq_nf, &round3, t3);
        let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round3, t3);
        assert_same_outputs(&seq_out, &ev_out, "round 3");

        // Final state: same occupancy, same expiry count, and the same
        // flows at the same global slots with the same stamps, shard by
        // shard, in the same LRU order.
        assert_eq!(seq_nf.occupancy(), ev_nf.occupancy(), "{shards} shards");
        assert_eq!(seq_nf.expired_total(), ev_nf.expired_total());
        assert_eq!(
            seq_nf.flow_manager().snapshot(),
            ev_nf.flow_manager().snapshot(),
            "sharded state diverged at {shards} shards"
        );
        ev_nf.flow_manager().check_coherence().unwrap();
    }
}

/// Mixed directions in one drain: internal packets (allocations and
/// hits) and return traffic interleave across the two ports' queues in
/// whatever order the scheduler picks — yet per-flow output bytes are
/// identical to sequential arrival-order processing, because replies
/// allocate nothing and each direction's per-shard order is preserved
/// by its own ring. (Only *rejuvenation* order across directions is
/// schedule-dependent — see the module docs — which is unobservable in
/// the translation bytes.)
#[test]
fn mixed_direction_drain_translates_identically_per_flow() {
    let c = cfg();
    let shards = 2usize;
    let mut seq_nf = ShardedVigNatMb::sharded(c, shards);
    let mut ev_nf = ShardedVigNatMb::sharded(c, shards);
    let ev = EventLoop::with_parts(Poller::new(), Wrr::weighted(vec![2, 1], 4));
    let mut drv = driver(&c, shards, 64, ev);

    // Establish a few flows (single-direction round — equivalence from
    // the headline test).
    let t1 = Time::from_secs(1);
    let round1: Vec<_> = (0..12).map(|h| internal(h, 500 + u32::from(h))).collect();
    let seq_out = run_sequential(&mut seq_nf, &round1, t1);
    let ev_out = run_event_driven(&mut ev_nf, &mut drv, &round1, t1);
    assert_same_outputs(&seq_out, &ev_out, "mixed: establish");

    // One drain mixing new flows, repeats, and replies.
    let t2 = Time::from_secs(2);
    let mut tag = 9_000u32;
    let mut mixed = Vec::new();
    for (i, (_, (d, f))) in seq_out.iter().enumerate() {
        tag += 1;
        if *d == Direction::External {
            let (_, ff) = parse_l3l4(f).unwrap();
            mixed.push(tagged_frame(
                Direction::External,
                ff.dst_ip,
                Ip4::new(203, 0, 113, 1),
                ff.dst_port,
                ff.src_port,
                ff.proto,
                tag,
            ));
        }
        tag += 1;
        mixed.push(internal((12 + i as u8) % 40, tag)); // new flows
        tag += 1;
        mixed.push(internal(i as u8 % 12, tag)); // repeats
    }
    let seq_out = run_sequential(&mut seq_nf, &mixed, t2);
    let ev_out = run_event_driven(&mut ev_nf, &mut drv, &mixed, t2);
    assert_same_outputs(&seq_out, &ev_out, "mixed drain");
    assert_eq!(seq_nf.occupancy(), ev_nf.occupancy());
    ev_nf.flow_manager().check_coherence().unwrap();
}

/// 4 queues × 2 shards: with more queues than shards, same-shard flows
/// from different queues may *allocate* in schedule order — but the
/// translation of established flows is byte-identical under any
/// interleaving. (This is the configuration the release CI job runs.)
#[test]
fn four_queues_two_shards_established_flows_translate_identically() {
    let c = cfg();
    let (queues, shards) = (4usize, 2usize);
    let mut seq_nf = ShardedVigNatMb::sharded(c, shards);
    let mut ev_nf = ShardedVigNatMb::sharded(c, shards);
    let mut drv = driver(&c, queues, 64, EventLoop::new(queues));

    // Establish the same flows in both NATs through the *same
    // sequential* order (allocation fixed), outside the queues; the
    // translated frames reveal each flow's external mapping.
    let t1 = Time::from_secs(1);
    let mut translated = Vec::new();
    for h in 0..32u8 {
        let (dir, frame) = internal(h, u32::from(h) + 1);
        let mut a = frame.clone();
        let mut b = frame;
        assert_eq!(
            seq_nf.process(dir, &mut a, t1),
            ev_nf.process(dir, &mut b, t1)
        );
        assert_eq!(a, b);
        let (_, ff) = parse_l3l4(&a).unwrap();
        translated.push(ff);
    }

    // Steady-state traffic (hits + return packets) through 4 queues,
    // event-driven, vs the sequential oracle.
    let t2 = Time::from_secs(2);
    let mut tag = 1_000u32;
    let mut traffic = Vec::new();
    for rep in 0..3 {
        for h in 0..32u8 {
            tag += 1;
            traffic.push(internal(h, tag));
            if rep == 1 {
                // The reply the remote host sends to this flow's
                // translation.
                let ff = &translated[usize::from(h)];
                tag += 1;
                traffic.push(tagged_frame(
                    Direction::External,
                    ff.dst_ip,
                    Ip4::new(203, 0, 113, 1),
                    ff.dst_port,
                    ff.src_port,
                    ff.proto,
                    tag,
                ));
            }
        }
    }
    let seq_out = run_sequential(&mut seq_nf, &traffic, t2);
    let ev_out = run_event_driven(&mut ev_nf, &mut drv, &traffic, t2);
    assert_same_outputs(&seq_out, &ev_out, "4q x 2s steady state");
    assert_eq!(seq_nf.occupancy(), ev_nf.occupancy());
}

/// Drop accounting under an overflowing queue, with the default event
/// loop and under skewed `Wrr::weighted` budgets with a tight backoff
/// window: the full ring drops (and counts) on that queue alone;
/// siblings drain normally, every accepted frame is processed exactly
/// as the oracle processes the accepted subsequence, every per-queue
/// counter of both ports matches the ledger the oracle implies, and
/// the flow table stays coherent.
#[test]
fn overflowing_queue_counts_drops_and_spares_siblings() {
    let queues = 2usize;
    overflow_case(EventLoop::new(queues));
    overflow_case(EventLoop::with_parts(
        Poller::with_backoff(100, 400),
        Wrr::weighted((1..=queues).collect(), 4),
    ));
}

fn overflow_case(ev: EventLoop) {
    let c = cfg();
    let queues = 2usize;
    let ring = 8usize;
    let mut nf = ShardedVigNatMb::sharded(c, queues);
    let mut oracle = ShardedVigNatMb::sharded(c, queues);
    let mut drv = driver(&c, queues, ring, ev);
    let classifier = drv.io().classifier();

    // Sort candidate flows by the queue RSS steers them to.
    let mut by_queue: Vec<Vec<u8>> = vec![Vec::new(); queues];
    for h in 0..=255u8 {
        let (_, frame) = internal(h, 0);
        by_queue[classifier.queue_of(Direction::Internal, &frame)].push(h);
    }
    assert!(
        by_queue.iter().all(|v| v.len() >= 4),
        "both queues reachable"
    );

    // Offer 20 frames of queue-0 flows (ring holds 8) and 4 of queue-1
    // flows; record which were accepted, in order.
    let t = Time::from_secs(1);
    let mut accepted = Vec::new();
    let mut tag = 0u32;
    for (q, count) in [(0usize, 20usize), (1, 4)] {
        for k in 0..count {
            tag += 1;
            let (dir, frame) = internal(by_queue[q][k % by_queue[q].len()], tag);
            match stage(&mut drv, dir, &frame) {
                Some(landed) => {
                    assert_eq!(landed, q, "RSS steers the flow to its queue");
                    accepted.push((dir, frame));
                }
                None => assert_eq!(q, 0, "sibling queue must not be affected"),
            }
        }
    }

    // The drain processes every accepted frame — and only those —
    // exactly as the oracle fed the accepted subsequence does.
    let stats = drv.drain(&mut nf, t);
    assert_eq!(stats.forwarded, ring as u64 + 4);
    assert_eq!(stats.dropped, 0, "ring loss is not NF loss");
    let ev_out = reap_outputs(&mut drv);
    let seq_out = run_sequential(&mut oracle, &accepted, t);
    assert_same_outputs(&seq_out, &ev_out, "accepted subsequence");
    assert_eq!(nf.occupancy(), oracle.occupancy());
    nf.flow_manager().check_coherence().unwrap();

    // Accounting, per queue and per port, as `(rx, rx_dropped, tx,
    // tx_bytes)`: queue 0 accepted exactly its ring depth and dropped
    // the rest, queue 1 is clean, and each accepted frame left on the
    // external port's TX queue of its carrying queue's index with the
    // oracle's byte count. Nothing touched the other two rings.
    let mut want = [[(0u64, 0u64, 0u64, 0u64); 2]; 2];
    want[0][0] = (ring as u64, 20 - ring as u64, 0, 0);
    want[0][1] = (4, 0, 0, 0);
    for (dir, frame) in &accepted {
        let q = classifier.queue_of(*dir, frame);
        let (out, bytes) = &seq_out[&tag_of(frame)];
        assert_eq!(*out, Direction::External);
        want[1][q].2 += 1;
        want[1][q].3 += bytes.len() as u64;
    }
    for (p, dir) in [Direction::Internal, Direction::External]
        .into_iter()
        .enumerate()
    {
        for (q, want) in want[p].iter().enumerate() {
            let s = drv.io().queue_stats(dir, q);
            assert_eq!(
                (s.rx, s.rx_dropped, s.tx, s.tx_bytes),
                *want,
                "{dir:?} queue {q} counters"
            );
        }
    }

    // The overflowed queue is not stalled: the next round drains fine.
    let t2 = Time::from_secs(1).plus(1_000_000);
    let (dir, frame) = internal(by_queue[0][0], 77_777);
    assert_eq!(stage(&mut drv, dir, &frame), Some(0));
    let stats = drv.drain(&mut nf, t2);
    assert_eq!(stats.forwarded, 1);
    assert_eq!(reap_outputs(&mut drv).len(), 1);
    assert_eq!(
        drv.io().pool_available(),
        drv.io().pool().capacity(),
        "no buffer leaks through overflow"
    );
}

/// The config shapes whose key construction differs: the paper's, a
/// 17-address pool (4 ports each: the return key keeps its destination
/// address), endpoint-independent mapping (keys lose their remote
/// half), per-class TCP lifetimes.
fn key_shapes() -> [(&'static str, NatConfig); 4] {
    let multi = NatConfig {
        capacity: 66,
        start_port: 65_532,
        ..cfg()
    };
    assert_eq!(multi.num_external_ips(), 17);
    let eim = NatConfig { eim: true, ..cfg() };
    let classed = NatConfig {
        tcp_transitory_ns: Time::from_secs(1).nanos(),
        tcp_established_ns: Time::from_secs(30).nanos(),
        ..cfg()
    };
    [
        ("paper", cfg()),
        ("17 addresses", multi),
        ("eim", eim),
        ("tcp classes", classed),
    ]
}

/// This suite's own header reader (independent of the code under
/// test): `((src_ip, src_port), (dst_ip, dst_port))`, zero where the
/// frame ends.
fn endpoints(frame: &[u8]) -> ((Ip4, u16), (Ip4, u16)) {
    let field = |off: usize, len: usize| {
        let bytes = frame.get(off..off + len).unwrap_or(&[]);
        bytes.iter().fold(0u32, |v, &b| v << 8 | u32::from(b))
    };
    let l4 = 14 + (field(14, 1) as usize & 0x0f) * 4;
    (
        (Ip4(field(26, 4)), field(l4, 2) as u16),
        (Ip4(field(30, 4)), field(l4 + 2, 2) as u16),
    )
}

/// The sequential sharded NAT beside the classifier of its table: the
/// property is that a frame steers to the shard its flow lives in.
struct Steering {
    cfg: NatConfig,
    nat: ShardedVigNatMb,
    classifier: RssClassifier,
    /// Forwarded frames whose flow was found where the classifier said.
    agreed: usize,
}

impl Steering {
    fn new(cfg: NatConfig, shards: usize) -> Steering {
        let nat = ShardedVigNatMb::sharded(cfg, shards);
        let classifier = RssClassifier::for_table(nat.flow_manager());
        assert_eq!(classifier.queue_count(), shards);
        Steering {
            cfg,
            nat,
            classifier,
            agreed: 0,
        }
    }

    /// Classify `frame`, then process it. Whenever it forwards, the
    /// flow it created or hit — found in the table's snapshot by its
    /// external endpoint: the translated source of an outbound packet,
    /// the original destination of a return packet — must sit in the
    /// shard the classifier named. Returns the forwarded frame.
    fn push(&mut self, dir: Direction, frame: &[u8], what: &str) -> Option<Vec<u8>> {
        let queue = self.classifier.queue_of(dir, frame);
        assert!(queue < self.classifier.queue_count());
        let mut out = frame.to_vec();
        let verdict = self.nat.process(dir, &mut out, Time::from_secs(1));
        let table = self.nat.flow_manager();
        FlowTable::check_coherence(table).unwrap_or_else(|e| panic!("{what}: {e}"));
        let Verdict::Forward(_) = verdict else {
            return None;
        };
        let (ip, port) = match dir {
            Direction::Internal => endpoints(&out).0,
            Direction::External if self.cfg.is_single_address() => {
                (self.cfg.external_ip, endpoints(frame).1 .1)
            }
            Direction::External => endpoints(frame).1,
        };
        let home = table.snapshot().iter().position(|shard| {
            shard
                .iter()
                .any(|(_, f, _)| (f.ext_ip, f.ext_port) == (ip, port))
        });
        assert_eq!(
            home,
            Some(queue),
            "{what}: {dir:?} frame steered to queue {queue}, its flow {ip}:{port} lives in {home:?}"
        );
        self.agreed += 1;
        Some(out)
    }
}

/// The classifier steers every frame to the shard the table keeps its
/// flow in — checked against where the sequential sharded NAT actually
/// put the flow, for every key shape and 1–4 shards, on valid,
/// truncated and noise frames in both directions. (Under `eim` one
/// internal endpoint reaches many remotes through one mapping: the
/// shape a classifier hashing the raw 5-tuple gets wrong.)
#[test]
fn rss_classifier_agrees_with_parallel_dispatch() {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for h in 0..40u8 {
        let (_, f) = internal(h, u32::from(h));
        frames.push(f);
    }
    // One internal endpoint, many remotes.
    for r in 0..8u8 {
        let (_, f) = tagged_frame(
            Direction::Internal,
            Ip4::new(192, 168, 0, 1),
            Ip4::new(8, 8, 4, r),
            10_001,
            53 + u16::from(r),
            Proto::Udp,
            100 + u32::from(r),
        );
        frames.push(f);
    }
    // Return traffic across the whole port range, in and out.
    for port in [0u16, 999, 1000, 1031, 1063, 1064, 65_535] {
        let (_, f) = tagged_frame(
            Direction::External,
            Ip4::new(9, 9, 9, 9),
            Ip4::new(203, 0, 113, 1),
            80,
            port,
            Proto::Udp,
            u32::from(port),
        );
        frames.push(f);
    }
    // Truncations and noise.
    let full = frames[0].clone();
    for cut in [0usize, 10, 14, 20, 33] {
        frames.push(full[..cut.min(full.len())].to_vec());
    }
    frames.push(vec![0xa5; 60]);

    for (shape, c) in key_shapes() {
        for shards in [1usize, 2, 3, 4] {
            let what = format!("{shape}, {shards} shards");
            let mut steering = Steering::new(c, shards);
            let mut replies = Vec::new();
            for f in &frames {
                for dir in [Direction::Internal, Direction::External] {
                    let Some(out) = steering.push(dir, f, &what) else {
                        continue;
                    };
                    if dir == Direction::Internal {
                        // The reply the remote would send to it.
                        let ((nat_ip, nat_port), (remote_ip, remote_port)) = endpoints(&out);
                        let (_, proto) = parse_l3l4(&out).unwrap();
                        replies.push(
                            tagged_frame(
                                Direction::External,
                                remote_ip,
                                nat_ip,
                                remote_port,
                                nat_port,
                                proto.proto,
                                0,
                            )
                            .1,
                        );
                    }
                }
            }
            let outbound = steering.agreed;
            assert!(outbound >= 40, "{what}: only {outbound} frames forwarded");
            for r in &replies {
                assert!(
                    steering.push(Direction::External, r, &what).is_some(),
                    "{what}: a reply to a live mapping must forward"
                );
            }
        }
    }
}

proptest! {
    /// The same property on arbitrary byte strings, and on a valid
    /// frame with such a string XORed over it at an arbitrary offset
    /// (options, odd lengths, foreign protocols), in both directions.
    #[test]
    fn rss_classifier_agrees_with_table_routing_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..=128),
        at in 0usize..64,
        shards in 1usize..=4,
    ) {
        let mut patched = internal(7, 7).1;
        for (b, x) in patched.iter_mut().skip(at).zip(&bytes) {
            *b ^= x;
        }
        for (shape, c) in key_shapes() {
            let mut steering = Steering::new(c, shards);
            for dir in [Direction::Internal, Direction::External] {
                steering.push(dir, &bytes, shape);
                steering.push(dir, &patched, shape);
            }
        }
    }
}
