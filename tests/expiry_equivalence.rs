//! Differential proof that the flow table's expiry — one dchain LRU
//! list per timeout class, merged at the heads — **is the naive
//! definition**: at every tick the table expires the *same set* of
//! flows a full scan would, leaves the *same LRU state*, and reuses
//! freed slots in the *same order*, so no downstream observer — port
//! assignments, verdicts, TX tuples — can tell it from the model.
//!
//! The oracle is [`Model`], local to this file: live flows as
//! `(slot, class, stamp)` in arrival order plus a LIFO free stack; the
//! flows due at `now` are the stable sort of the live ones with
//! `stamp + lifetime[class] <= now` by `(stamp + lifetime[class],
//! class)`. On a homogeneous configuration every flow has class 0 — the
//! paper's single list, ties in global LRU order.
//!
//! The model also *stores* what the table only derives: each live
//! flow's whole [`Flow`] — external endpoint included, as the loop body
//! inserted it — and its TCP tracker beside it. Every lookup, every
//! `snapshot()` and every `tcp_state_of` is held to those stored
//! copies, and the two ways to rejuvenate (by slot alone, or naming the
//! flow's protocol as the loop body does) must digest identically.
//!
//! Four angles, each over UDP flows and TCP flows whose flags migrate
//! them between classes, on one lifetime and on per-class lifetimes:
//!
//! 1. **adversarial proptest schedules** — same-stamp bursts, refresh
//!    storms, big time jumps, churn at the capacity edge, and expiry
//!    from a clock *ahead* of the table's own followed by late local
//!    arrivals — full state compared after every operation;
//! 2. **exhaustive small-capacity sweep** — every schedule of length 6
//!    over a 6-op alphabet at capacity 2 (46 656 runs per config);
//! 3. **boundary semantics** — `stamp + lifetime == now` expires (the
//!    dchain's inclusive `expire_one` contract), one tick younger
//!    survives, a zero-age flow dies under a zero-length window;
//! 4. **scale** — the full middlebox (frames in, frames out), and the
//!    sharded table at 2^16 / 2^20 slots across 1/2/4 shards, where the
//!    endpoint pool spills onto several external addresses. The 2^20
//!    run is `#[ignore]`d for the release `nightly-deep` CI job.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use vignat_repro::libvig::map::MapKey;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig, ShardedFlowManager};
use vignat_repro::packet::tcp::flags;
use vignat_repro::packet::{
    builder::PacketBuilder, parse_l3l4, Direction, Flow, FlowId, Ip4, Proto,
};
use vignat_repro::sim::middlebox::{Middlebox, Verdict, VigNatMb};
use vignat_repro::spec::tcp::{class_of, initial_state, transition};
use vignat_repro::spec::{TcpState, TimeoutClass};

const INT: Direction = Direction::Internal;
const EXT: Direction = Direction::External;

/// `lifetimes` = UDP / TCP transitory / TCP established, in ns; all
/// equal is the paper's homogeneous configuration.
fn cfg(capacity: usize, lifetimes: [u64; 3]) -> NatConfig {
    NatConfig {
        capacity,
        expiry_ns: lifetimes[0],
        tcp_transitory_ns: lifetimes[1],
        tcp_established_ns: lifetimes[2],
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1024,
        ..NatConfig::paper_default()
    }
}

/// 68 slots at four ports per address: a 17-address pool, whose address
/// boundaries fall inside every shard of a 1-, 2- or 4-way split.
fn pool17_cfg(lifetimes: [u64; 3]) -> NatConfig {
    let c = NatConfig {
        start_port: 65_532,
        ..cfg(68, lifetimes)
    };
    assert_eq!(c.num_external_ips(), 17);
    c
}

fn secs(lifetimes: [u64; 3]) -> [u64; 3] {
    lifetimes.map(|s| Time::from_secs(s).nanos())
}

/// Distinct internal flows for up to 2^24 indices; odd ones are TCP.
fn fid(i: u32) -> FlowId {
    FlowId {
        src_ip: Ip4(0x0a00_0000 | (i & 0x00ff_ffff)),
        src_port: 10_000 ^ (i >> 24) as u16,
        dst_ip: Ip4::new(1, 1, 1, 1),
        dst_port: 80,
        proto: if i % 2 == 1 { Proto::Tcp } else { Proto::Udp },
    }
}

/// One live flow of the model.
#[derive(Debug, Clone, Copy)]
struct Live {
    /// The whole flow, endpoint stored, as inserted.
    flow: Flow,
    tcp: Option<TcpState>,
    /// Bumped on every (re)link; log entries of older versions are dead.
    version: u32,
}

/// `(slot, class, stamp, version)`.
type Entry = (usize, usize, Time, u32);

/// The naive expiry model of one table (or one shard). See the file
/// docs. `log` is the arrival order: refreshing a flow appends a new
/// entry and leaves the old one behind as garbage (its version no
/// longer matches), which `expire` sweeps — so an arrival is O(1) and
/// the model stays usable at a million flows.
struct Model {
    cfg: NatConfig,
    lifetimes: [u64; 3],
    one_list: bool,
    /// Global slot of local slot 0.
    base: usize,
    log: Vec<Entry>,
    slots: Vec<Option<Live>>,
    free: Vec<usize>,
    by_fid: HashMap<FlowId, usize>,
    expired: u64,
}

impl Model {
    fn new(c: &NatConfig, capacity: usize, base: usize) -> Model {
        Model {
            cfg: *c,
            lifetimes: TimeoutClass::ALL.map(|cl| c.lifetime_ns(cl)),
            one_list: c.is_homogeneous(),
            base,
            log: Vec::new(),
            slots: vec![None; capacity],
            free: (0..capacity).rev().collect(),
            by_fid: HashMap::new(),
            expired: 0,
        }
    }

    /// A packet of `f`: refresh on hit, allocate on miss. The (local)
    /// slot it lands in, `None` when the table is full.
    fn arrive(&mut self, f: FlowId, now: Time, dir: Direction, fl: u8) -> Option<usize> {
        let slot = match self.by_fid.get(&f) {
            Some(&slot) => slot,
            None => {
                let slot = self.free.pop()?;
                self.by_fid.insert(f, slot);
                slot
            }
        };
        let live = match self.slots[slot] {
            Some(live) => Live {
                tcp: live.tcp.map(|st| transition(st, dir, fl)),
                version: live.version + 1,
                ..live
            },
            // What the loop body inserts: the key, and the endpoint the
            // spec's (dividing) pool mapping gives the slot.
            None => Live {
                flow: Flow {
                    int_key: f,
                    ext_ip: self.cfg.ext_ip_of_slot(self.base + slot),
                    ext_port: self.cfg.ext_port_of_slot(self.base + slot),
                },
                tcp: (f.proto == Proto::Tcp).then(|| initial_state(fl)),
                version: 0,
            },
        };
        self.slots[slot] = Some(live);
        let (tcp, version) = (live.tcp, live.version);
        let class = class_of(f.proto, tcp).index();
        let class = if self.one_list { 0 } else { class };
        self.log.push((slot, class, now, version));
        Some(slot)
    }

    fn is_current(&self, &(slot, _, _, version): &Entry) -> bool {
        self.slots[slot].is_some_and(|l| l.version == version)
    }

    /// The definition: scan everything, stable-sort the due.
    fn expire(&mut self, now: Time) -> usize {
        let mut log = std::mem::take(&mut self.log);
        log.retain(|e| self.is_current(e));
        let lifetimes = self.lifetimes;
        let deadline = |e: &Entry| e.2.nanos().checked_add(lifetimes[e.1]);
        let is_due = |e: &Entry| deadline(e).is_some_and(|d| d <= now.nanos());
        let mut due: Vec<Entry> = log.iter().copied().filter(is_due).collect();
        due.sort_by_key(|e| (deadline(e), e.1));
        log.retain(|e| !is_due(e));
        self.log = log;
        for &(slot, ..) in &due {
            let live = self.slots[slot].take().expect("due slot is live");
            self.by_fid.remove(&live.flow.int_key);
            self.free.push(slot);
        }
        self.expired += due.len() as u64;
        due.len()
    }

    /// What the table's `iter_lru` must yield (with global slots): the
    /// live flows — the stored copies — by `(stamp, class)`, arrival
    /// order within that.
    fn snapshot(&self) -> Vec<(usize, Flow, Time)> {
        let mut live: Vec<&Entry> = self.log.iter().filter(|e| self.is_current(e)).collect();
        live.sort_by_key(|e| (e.2, e.1));
        let flow = |&&(slot, _, stamp, _): &&Entry| {
            let flow = self.slots[slot].expect("current").flow;
            (self.base + slot, flow, stamp)
        };
        live.iter().map(flow).collect()
    }
}

/// A (sharded) table and one model per shard, driven in lockstep; one
/// shard is the unsharded table.
struct Pair {
    table: ShardedFlowManager,
    models: Vec<Model>,
    cfg: NatConfig,
    now: Time,
    /// Rejuvenate as the loop body does, naming the flow's protocol
    /// (`rejuvenate_proto`), instead of by slot alone (`rejuvenate`).
    by_proto: bool,
    /// Every state [`Pair::expire_at`] observed, hashed in order.
    digest: DefaultHasher,
}

impl Pair {
    fn new(c: &NatConfig, shards: usize, by_proto: bool) -> Pair {
        let table = ShardedFlowManager::new(c, shards);
        let per_shard = table.per_shard_capacity();
        Pair {
            models: (0..shards)
                .map(|s| Model::new(c, per_shard, s * per_shard))
                .collect(),
            table,
            cfg: *c,
            now: Time::from_secs(1),
            by_proto,
            digest: DefaultHasher::new(),
        }
    }

    /// A packet of `f` arrives at `self.now` with TCP flags `fl` from
    /// `dir`: refresh on hit, allocate on miss. Table and model must
    /// agree on hit/miss, slot, the flow both lookups hand out (the
    /// table derives what the model stored), and tracker state.
    fn arrive(&mut self, f: FlowId, dir: Direction, fl: u8) {
        let (h, now, t) = (f.key_hash(), self.now, &mut self.table);
        let s = t.shard_of_hash(h);
        let model = &mut self.models[s];
        let hit = t.lookup_internal_hashed(&f, h);
        let known = model.by_fid.get(&f).map(|&slot| {
            let stored = model.slots[slot].expect("live").flow;
            (model.base + slot, stored)
        });
        assert_eq!(hit, known, "internal lookup diverged for {f:?}");
        if let Some((_, stored)) = known {
            let back = t.lookup_external(&stored.ext_key());
            assert_eq!(back, known, "return lookup diverged for {f:?}");
        }
        let want = model.arrive(f, now, dir, fl).map(|l| model.base + l);
        let got = match hit {
            Some((slot, _)) => {
                if self.by_proto {
                    t.rejuvenate_proto(slot, now, dir, fl, f.proto);
                } else {
                    t.rejuvenate(slot, now, dir, fl);
                }
                Some(slot)
            }
            None => t.allocate_slot_routed(h, now),
        };
        assert_eq!(got, want, "slot diverged for {f:?}");
        let Some(slot) = got else { return };
        let live = model.slots[slot - model.base].expect("live");
        if hit.is_none() {
            // The model's stored endpoint goes in; the table keeps none
            // and asserts this one is the slot's.
            t.insert_hashed(slot, f, live.flow.ext_ip, live.flow.ext_port, h, fl);
        }
        let tracked = t.shard(s).tcp_state_of(slot - model.base);
        assert_eq!(tracked, live.tcp, "tracker diverged");
    }

    fn advance(&mut self, ns: u64) {
        self.now = self.now.plus(ns);
    }

    /// Expire every shard as the loop body does at `clock` (`threshold
    /// = clock - min lifetime`, guarded) — which may be ahead of, or
    /// behind, the table's own `now`. Counts and the full per-shard
    /// state must be the models'.
    fn expire_at(&mut self, clock: Time) -> usize {
        let Some(thr) = clock.nanos().checked_sub(self.cfg.min_lifetime_ns()) else {
            return 0;
        };
        let got = FlowTable::expire(&mut self.table, Time(thr));
        let want: usize = self.models.iter_mut().map(|m| m.expire(clock)).sum();
        assert_eq!(got, want, "expiry count diverged at {clock:?}");
        FlowTable::check_coherence(&self.table).expect("coherence");
        let state: Vec<_> = self.models.iter().map(Model::snapshot).collect();
        assert_eq!(self.table.snapshot(), state, "state diverged at {clock:?}");
        // Every live flow's tracker, not only the last arrival's.
        let mut trackers = Vec::new();
        for (s, model) in self.models.iter().enumerate() {
            for (local, live) in model.slots.iter().enumerate() {
                let Some(live) = live else { continue };
                let tracked = self.table.shard(s).tcp_state_of(local);
                assert_eq!(tracked, live.tcp, "shard {s} slot {local}: tracker");
                trackers.push(tracked);
            }
        }
        (got, state, trackers).hash(&mut self.digest);
        got
    }

    /// A digest of every state the run passed through.
    fn digest(&self) -> u64 {
        self.digest.finish()
    }

    fn expire(&mut self) -> usize {
        self.expire_at(self.now)
    }

    /// Slot-reuse order: filling the table from its free lists must
    /// allocate the models' slot sequence (this is what makes the engine
    /// indistinguishable to future port assignments).
    fn assert_reuse_order_equal(&mut self) {
        for k in 0..4 * self.cfg.capacity as u32 {
            self.arrive(fid(0x0080_0000 + 2 * k), INT, 0);
        }
        assert_eq!(self.table.flow_count(), self.cfg.capacity);
        self.expire();
    }
}

/// Lifetime triples (UDP / transitory / established, ns) the schedules
/// run on: the paper's one lifetime, the usual shape (transitory <
/// UDP < established), and two classes sharing a lifetime (equal
/// deadlines across lists on every same-stamp burst).
const LIFETIMES: [[u64; 3]; 3] = [[1_000; 3], [1_000, 300, 2_500], [700, 700, 1_500]];

const FLAGS: [u8; 6] = [
    0,
    flags::ACK,
    flags::SYN,
    flags::SYN | flags::ACK,
    flags::FIN | flags::ACK,
    flags::RST,
];

proptest! {
    /// Angle 1: adversarial schedules at capacity 8 with flows drawn
    /// from a 24-id population (3× capacity — constant churn at the
    /// table-full edge; half of them TCP, steered through their states
    /// by random flags from both directions), refresh storms (many
    /// arrivals collapse onto the same ids), same-stamp bursts,
    /// sub-lifetime steps and 10× jumps, and expiry from a clock ahead
    /// of the table's own followed by late local arrivals — with expiry
    /// and a full-state comparison after every single operation.
    ///
    /// Run on the 8-slot single-address table and on a 68-slot
    /// 17-address pool split 1, 2 and 4 ways (ids drawn from 3× the
    /// capacity either way), each schedule once per rejuvenate entry
    /// point: both must pass through the same states.
    #[test]
    fn engine_equals_model_under_adversarial_schedules(
        lifetimes in 0usize..LIFETIMES.len(),
        shape in 0usize..4,
        ops in proptest::collection::vec((0u8..12, 0u32..204, 1u64..2_500, 0usize..6, any::<bool>()), 1..120),
    ) {
        let (c, shards) = match shape {
            0 => (cfg(8, LIFETIMES[lifetimes]), 1),
            _ => (pool17_cfg(LIFETIMES[lifetimes]), [1, 2, 4][shape - 1]),
        };
        let ids = 3 * c.capacity as u32;
        let run = |by_proto: bool| {
            let mut pair = Pair::new(&c, shards, by_proto);
            for &(kind, idx, step, fl, external) in &ops {
                match kind {
                    0..=5 => pair.arrive(fid(idx % ids), if external { EXT } else { INT }, FLAGS[fl]),
                    6 | 7 => pair.advance(step),
                    8 => pair.advance(step * 10), // time jump past many lifetimes
                    9 => { pair.expire_at(pair.now.plus(step)); } // a clock ahead of ours
                    _ => {}
                }
                // Every tick, not just the end: the equivalence must hold
                // at every intermediate state the NAT could be observed in.
                pair.expire();
            }
            pair.assert_reuse_order_equal();
            pair.digest()
        };
        prop_assert_eq!(run(false), run(true));
    }
}

/// Angle 2: exhaustive small-capacity sweep — all 6^6 schedules over
/// {UDP arrives, TCP 1 arrives with ACK (established), TCP 1 arrives
/// with FIN (back to transitory), TCP 3 arrives with SYN, step+expire,
/// jump+expire} at capacity 2 (three flows fighting for two slots),
/// state compared after every op of every schedule, on one list and on
/// per-class lists.
#[test]
fn engine_equals_model_exhaustive_small_capacity() {
    const OPS: u32 = 6;
    const LEN: u32 = 6;
    for lifetimes in [[1_000; 3], [1_000, 500, 2_000]] {
        let c = cfg(2, lifetimes);
        for code in 0..OPS.pow(LEN) {
            // Once per rejuvenate entry point, same states either way.
            let run = |by_proto: bool| {
                let (mut pair, mut code) = (Pair::new(&c, 1, by_proto), code);
                for _ in 0..LEN {
                    match code % OPS {
                        0 => pair.arrive(fid(0), INT, 0),
                        1 => pair.arrive(fid(1), INT, flags::ACK),
                        2 => pair.arrive(fid(1), EXT, flags::FIN),
                        3 => pair.arrive(fid(3), INT, flags::SYN),
                        4 => pair.advance(400), // below every lifetime but one
                        _ => pair.advance(1_100), // past the UDP lifetime
                    }
                    code /= OPS;
                    pair.expire();
                }
                pair.digest()
            };
            assert_eq!(run(false), run(true), "schedule {code}");
        }
    }
}

/// Angle 3: the `dchain::expire_one` boundary, per list: a flow dies at
/// `stamp + lifetime(class)` exactly (inclusive), one tick earlier it
/// survives; a refresh moves the boundary, a migration moves it to the
/// new class's lifetime, and a zero-length window kills a flow stamped
/// this very tick.
#[test]
fn boundary_semantics_per_list() {
    let classed = [1_000u64, 300, 2_500];
    // (flow, creating flags) per class: UDP, TCP SYN, TCP mid-stream.
    let flows = [(0u32, 0u8), (1, flags::SYN), (3, flags::ACK)];
    for lifetimes in [[1_000; 3], classed] {
        for (class, &(i, fl)) in flows.iter().enumerate() {
            let mut pair = Pair::new(&cfg(4, lifetimes), 1, true);
            pair.arrive(fid(i), INT, fl);
            pair.advance(5);
            pair.arrive(fid(i), INT, fl); // refreshed: the birth stamp is dead
            pair.advance(lifetimes[class] - 1);
            assert_eq!(pair.expire(), 0, "class {class}: one tick early survives");
            pair.advance(1);
            assert_eq!(pair.expire(), 1, "class {class}: deadline is inclusive");
            // Zero-length window: stamped now, expired now.
            pair.arrive(fid(i), INT, fl);
            let window_end = pair.now.plus(lifetimes[class]);
            assert_eq!(pair.expire_at(window_end), 1, "class {class}: zero-age");
        }
    }
    // Established at t, FIN at t+100: dies 300 after the FIN, not 2 500
    // after anything.
    let mut pair = Pair::new(&cfg(4, classed), 1, true);
    pair.arrive(fid(1), INT, flags::ACK);
    pair.advance(100);
    pair.arrive(fid(1), EXT, flags::FIN);
    pair.advance(299);
    assert_eq!(pair.expire(), 0);
    pair.advance(1);
    assert_eq!(pair.expire(), 1);
}

/// Angle 4a: the full middlebox — frames in, frames out — against the
/// model, over adversarial UDP and TCP traffic with expiry-forcing time
/// steps, on one list and on per-class lists. Verdicts, translated
/// tuples, expiry totals, and end-state must be the model's.
#[test]
fn middlebox_parity_under_churn() {
    let remote = Ip4::new(1, 1, 1, 1);
    for lifetimes in [secs([2; 3]), secs([2, 1, 5])] {
        let c = cfg(64, lifetimes);
        let mut nat = VigNatMb::new(c);
        let mut model = Model::new(&c, c.capacity, 0);
        let mut rng = StdRng::seed_from_u64(0x8EE1);
        let mut now = Time::from_secs(1);
        for round in 0..6_000 {
            now = now.plus(rng.gen_range(1_000_000..600_000_000));
            let fl = FLAGS[rng.gen_range(0..FLAGS.len())];
            let tcp = rng.gen_bool(0.5);
            let proto = if tcp { Proto::Tcp } else { Proto::Udp };
            let build = |src, dst, sport, dport| match tcp {
                true => PacketBuilder::tcp(src, dst, sport, dport).tcp_flags(fl),
                false => PacketBuilder::udp(src, dst, sport, dport),
            };
            model.expire(now);
            // The frame, and the (src, sport, dst, dport) it must leave
            // with — `None` when it must be dropped.
            let (dir, mut frame, want) = if rng.gen_bool(0.75) {
                let f = FlowId {
                    src_ip: Ip4::new(10, 0, 0, rng.gen_range(1..=48)),
                    src_port: rng.gen_range(1024..1026),
                    dst_ip: remote,
                    dst_port: 53,
                    proto,
                };
                let out = model.arrive(f, now, INT, fl); // None: table full
                let want = out.map(|slot| (c.external_ip, c.ext_port_of_slot(slot), remote, 53));
                (INT, build(f.src_ip, remote, f.src_port, 53).build(), want)
            } else {
                let ext_port: u16 = rng.gen_range(1000..1120); // straddles the pool
                let owner = ext_port
                    .checked_sub(c.start_port)
                    .and_then(|slot| model.slots.get(usize::from(slot)).copied().flatten())
                    .map(|live| live.flow.int_key)
                    .filter(|fid| fid.proto == proto);
                let want = owner.map(|fid| {
                    model.arrive(fid, now, EXT, fl);
                    (remote, 53, fid.src_ip, fid.src_port)
                });
                let frame = build(remote, c.external_ip, 53, ext_port).build();
                (EXT, frame, want) // None: unsolicited
            };
            let verdict = nat.process(dir, &mut frame, now);
            let got = matches!(verdict, Verdict::Forward(_)).then(|| {
                let (_, out) = parse_l3l4(&frame).expect("forwarded frame parses");
                (out.src_ip, out.src_port, out.dst_ip, out.dst_port)
            });
            assert_eq!(got, want, "round {round}");
            assert_eq!(nat.expired_total(), model.expired, "round {round}");
        }
        assert!(model.expired > 0, "the run must have raced expiry");
        let fm = nat.flow_manager();
        fm.check_coherence().expect("coherence");
        let state: Vec<_> = fm.iter_lru().collect();
        assert_eq!(state, model.snapshot());
    }
}

/// Drive churn waves through a sharded table and its per-shard models
/// in lockstep; state compared after every expiry.
fn sharded_churn(c: &NatConfig, shards: usize, waves: usize, wave_flows: u32, seed: u64) {
    let mut pair = Pair::new(c, shards, true);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u32;
    let mut total_expired = 0usize;
    let mut peak = 0usize;
    for _ in 0..waves {
        // Sustained arrivals: a fresh block of flows (TCP ones opened by
        // SYN or picked up mid-stream) plus refreshes of a random slice
        // of the previous block (refresh storm; the flags establish,
        // close and reset TCP flows).
        let fresh = next_id..next_id + wave_flows;
        next_id += wave_flows;
        for i in fresh {
            pair.advance(1_000);
            pair.arrive(fid(i), INT, [flags::SYN, flags::ACK][(i as usize / 2) % 2]);
        }
        let refresh_lo = next_id.saturating_sub(2 * wave_flows);
        for _ in 0..wave_flows / 2 {
            pair.advance(100);
            let i = rng.gen_range(refresh_lo..next_id);
            pair.arrive(fid(i), INT, FLAGS[rng.gen_range(0..FLAGS.len())]);
        }
        peak = peak.max(pair.table.flow_count());
        // Step the clock 0.5–3× the UDP lifetime and expire.
        pair.advance(rng.gen_range(1_000_000_000..6_000_000_000));
        total_expired += pair.expire();
    }
    assert!(peak > 0, "the run must have built flow state");
    assert!(
        total_expired > 0,
        "the run must have churned through expiry"
    );
}

/// The sharded scale runs: the paper's single 2 s lifetime and 2 s UDP
/// / 1 s transitory / 4 s established, over 1, 2 and 4 shards.
fn sharded_parity(capacity: usize, waves: usize, wave_flows: u32, seed: u64) {
    let (one_list, classed) = (secs([2; 3]), secs([2, 1, 4]));
    for (lifetimes, shards) in [
        (one_list, 1usize),
        (classed, 1),
        (one_list, 2),
        (classed, 4),
    ] {
        let c = cfg(capacity, lifetimes);
        sharded_churn(&c, shards, waves, wave_flows, seed + shards as u64);
    }
}

/// Angle 4b (every push): sharded table ≡ model at 2^16 capacity — the
/// pool's first spill onto a second external address.
#[test]
fn sharded_parity_at_64k() {
    sharded_parity(1 << 16, 4, 24_000, 0x64_000);
}

/// Angle 4b (nightly-deep, release): the million-flow configuration —
/// 2^20 slots spilling across 17 external addresses. 6 waves × 220k
/// fresh flows > 2^20 slots: the table reaches capacity under churn and
/// allocation failure parity is exercised at the full million-flow
/// table. Run with `cargo test --release -- --ignored million`.
#[test]
#[ignore = "million-flow scale; run in release (nightly-deep CI job)"]
fn sharded_parity_at_million_flows() {
    sharded_parity(1 << 20, 6, 220_000, 0x100_0000);
}

/// The case the timer wheels needed an "overdue lane" for: a driver
/// that expires every shard at the fleet-wide clock ticks an idle shard
/// *ahead* of its own packet clock, and the shard's next local arrivals
/// carry stamps behind that tick — some already due at the next one.
/// On a list there is nothing special about it: the stamps are still
/// monotone per shard.
#[test]
fn late_local_insert_behind_a_global_expiry_clock() {
    for lifetimes in [secs([2; 3]), secs([2, 1, 4])] {
        let mut pair = Pair::new(&cfg(64, lifetimes), 2, false);
        let on = |p: &Pair, s: usize| -> Vec<FlowId> {
            let routed = |f: &FlowId| p.table.shard_of_hash(f.key_hash()) == s;
            (0..200).map(fid).filter(routed).collect()
        };
        let (s0, s1) = (on(&pair, 0), on(&pair, 1));
        // Shard 0 sees 20 flows around t = 1 s; shard 1 races ahead to
        // t = 10 s, and the driver expires both at shard 1's clock.
        for f in &s0[..20] {
            pair.advance(1_000_000);
            pair.arrive(*f, INT, flags::SYN);
        }
        let behind = pair.now;
        pair.now = Time::from_secs(10);
        for f in &s1[..20] {
            pair.advance(1_000_000);
            pair.arrive(*f, INT, flags::ACK);
        }
        let ahead = pair.now;
        assert_eq!(pair.expire_at(ahead), 20, "all of shard 0 was due");
        // Late local arrivals on shard 0, stamped ~1 s — behind the 10 s
        // tick it has already seen, and already due at the next one.
        pair.now = behind;
        for f in &s0[20..40] {
            pair.advance(1_000_000);
            pair.arrive(*f, INT, flags::ACK);
        }
        assert_eq!(pair.table.shard(0).flow_count(), 20);
        assert_eq!(pair.expire_at(ahead.plus(1)), 20, "the late arrivals");
        // And the slots they freed come back in the model's order.
        for f in &s0[40..70] {
            pair.advance(1_000_000);
            pair.arrive(*f, INT, 0);
        }
        pair.expire();
    }
}

/// The endpoint is not stored, so the one place it enters from outside
/// must refuse a wrong one — in release too (CI's `table` job runs this
/// file with `--release`): an `assert!`, where a stored copy used to
/// make do with a `debug_assert!`.
#[test]
#[should_panic(expected = "slot/endpoint bijection violated")]
fn insert_with_a_neighbour_slots_endpoint_is_refused() {
    let mut t = ShardedFlowManager::new(&cfg(8, [1_000; 3]), 1);
    let (f, now) = (fid(0), Time::from_secs(1));
    let slot = t.allocate_slot_routed(f.key_hash(), now).expect("room");
    let (ip, port) = t.endpoint_of_slot(slot ^ 1);
    t.insert_hashed(slot, f, ip, port, f.key_hash(), 0);
}
