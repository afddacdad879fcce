//! The ladder: each lower layer's public functions called directly,
//! on the workload's flows in the workload's order, so a layer's cost
//! is a number of its own and not a share of a span.
//!
//! Every timing here is the median of per-batch means (a batch is a
//! few hundred calls between two clock reads); batches repeat until the
//! metric's share of the time budget is spent. The table-level rungs
//! run on the DUT's own flow table after its passes are over — the
//! exact state the workload built — and the destructive ones
//! (allocate, expire) run last.

use std::hint::black_box;
use std::time::{Duration, Instant};

use libvig::dchain::DoubleChain;
use libvig::map::{Map, MapKey};
use libvig::time::Time;
use libvig::wheel::TimerWheel;
use netsim::backend::{PacketIo, SimBackend, TesterIo};
use netsim::dpdk::{BufIdx, Mempool};
use netsim::frame_env::{BurstEnv, BurstScratch};
use netsim::middlebox::ShardedVigNatMb;
use netsim::RssClassifier;
use vig_packet::checksum::Checksum;
use vig_packet::tcp::flags;
use vig_packet::{parse_l3l4, Direction, ExtKey, FlowId, Ip4, Proto};
use vig_spec::NatConfig;
use vignat::simple_env::{EnvEvent, RawRx};
use vignat::{
    nat_process_batch, FlowTable, IterationOutcome, ShardedFlowManager, SimpleEnv, MAX_BURST,
};

use crate::dut::{Dut, SimDut};
use crate::gen::{Item, ItemKind, Tester, REMOTE_IP, REMOTE_PORT};
use crate::stats::median;

/// Named results, in measurement order, plus each timing's batch count.
#[derive(Debug, Default)]
pub struct Rungs {
    /// `(metric, value)`.
    pub values: Vec<(&'static str, f64)>,
    /// `(metric, batches behind the median)`.
    pub samples: Vec<(&'static str, usize)>,
}

impl Rungs {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Look a value up (0 when the rung did not run).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What every rung needs.
pub struct Ctx<'a> {
    /// The workload's NAT configuration.
    pub cfg: NatConfig,
    /// Flow-table shards of the workload's DUT.
    pub shards: usize,
    /// Frames, protocols and learned mappings.
    pub tester: &'a mut Tester,
    /// Resident flows in the order the workload visits them.
    pub order: Vec<u32>,
    /// Wall time each timing may spend.
    pub budget: Duration,
    /// Virtual time: at or after the DUT's last window, and held fixed
    /// so that nothing expires under the ladder's feet.
    pub now: Time,
}

const MIN_BATCHES: usize = 5;
const MAX_BATCHES: usize = 4_000;

/// Median ns per operation of `batch`, which returns the timed duration
/// and the operations it covered (zero operations ends the rung: there
/// is nothing left to measure, e.g. a table that filled up).
fn time(
    budget: Duration,
    out: &mut Rungs,
    name: &'static str,
    mut batch: impl FnMut() -> (Duration, u64),
) {
    let t0 = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < MIN_BATCHES || (t0.elapsed() < budget && per_op.len() < MAX_BATCHES) {
        let (d, ops) = batch();
        if ops == 0 {
            break;
        }
        per_op.push(d.as_nanos() as f64 / ops as f64);
    }
    let v = if per_op.is_empty() {
        0.0
    } else {
        median(&mut per_op)
    };
    out.samples.push((name, per_op.len()));
    out.put(name, v);
}

impl Ctx<'_> {
    fn fid(&self, flow: u32) -> FlowId {
        self.tester.fid(flow)
    }

    fn tcp_flags(&self, flow: u32) -> u8 {
        match self.tester.proto(flow) {
            Proto::Tcp => flags::ACK,
            Proto::Udp => 0,
        }
    }

    /// `n` consecutive flows of the order starting at `*cur` (cyclic).
    fn take(&self, cur: &mut usize, n: usize) -> Vec<u32> {
        let v = (0..n)
            .map(|k| self.order[(*cur + k) % self.order.len()])
            .collect();
        *cur = (*cur + n) % self.order.len();
        v
    }
}

/// A key no workload flow uses: same shape, another source prefix.
fn foreign_fid(prefix: u8, i: u32) -> FlowId {
    FlowId {
        src_ip: Ip4(u32::from(prefix) << 24 | (i & 0x00ff_ffff)),
        src_port: 10_000 + (i % 40_000) as u16,
        dst_ip: REMOTE_IP,
        dst_port: REMOTE_PORT,
        proto: Proto::Udp,
    }
}

/// Rungs that need the assembled sim DUT: the backend's and the event
/// loop's own calls.
pub fn sim_rungs(
    ctx: &mut Ctx<'_>,
    dut: &mut SimDut<SimBackend, ShardedVigNatMb>,
    out: &mut Rungs,
) {
    let queues = dut.drv.io().queue_count();
    // What one window costs the backend in readiness traffic: two poll
    // rounds (pump + one rx_len per queue and port) and one TX flush.
    time(ctx.budget, out, "backend.poll_ns_window", || {
        let io = dut.drv.io_mut();
        let t0 = Instant::now();
        for _ in 0..256 {
            for _ in 0..2 {
                black_box(io.pump_rx());
                for dir in [Direction::Internal, Direction::External] {
                    for q in 0..queues {
                        black_box(io.rx_len(dir, q));
                    }
                }
            }
            black_box(io.flush_tx());
        }
        (t0.elapsed(), 256)
    });
    let mut cur = 0;
    time(ctx.budget, out, "backend.tx_put_ns_pkt", || {
        let flows = ctx.take(&mut cur, MAX_BURST);
        let io = dut.drv.io_mut();
        let bufs: Vec<BufIdx> = flows
            .iter()
            .map(|&f| {
                let b = io.pool_mut().get().expect("pool idle between windows");
                io.pool_mut().write_frame(b, ctx.tester.int_frame(f));
                b
            })
            .collect();
        let t0 = Instant::now();
        for (k, &b) in bufs.iter().enumerate() {
            black_box(io.tx_put(Direction::External, k % queues, b));
        }
        let d = t0.elapsed();
        let _ = io.reap(Direction::External);
        (d, bufs.len() as u64)
    });
    // `Mempool::put` at the free-list length the DUT sees: a window's
    // worth of buffers out, the rest of the pool free.
    time(ctx.budget, out, "dpdk.mempool_put_ns", || {
        let pool = dut.drv.io_mut().pool_mut();
        let bufs: Vec<BufIdx> = (0..crate::gen::WINDOW)
            .map(|_| pool.get().expect("pool idle between windows"))
            .collect();
        let t0 = Instant::now();
        for &b in &bufs {
            pool.put(black_box(b));
        }
        (t0.elapsed(), bufs.len() as u64)
    });
    let now = ctx.now;
    time(ctx.budget, out, "eventloop.idle_round_ns", || {
        let t0 = Instant::now();
        for _ in 0..64 {
            black_box(dut.drv.drain(&mut dut.nf, now));
        }
        (t0.elapsed(), 64)
    });
    // Light load: four frames in flight instead of sixty-four.
    let mut cur = 0;
    let mut reply_cur = ctx.order.len() / 2;
    time(ctx.budget, out, "eventloop.burst4_ns_pkt", || {
        let mut ns = 0;
        for _ in 0..16 {
            let mut plan: Vec<Item> = ctx
                .take(&mut cur, 3)
                .into_iter()
                .map(|flow| Item {
                    flow,
                    kind: ItemKind::Int,
                    flags: flags::ACK,
                })
                .collect();
            plan.push(Item {
                flow: ctx.take(&mut reply_cur, 1)[0],
                kind: ItemKind::Ret,
                flags: flags::ACK,
            });
            ns += dut.window(ctx.tester, &plan, now);
        }
        (Duration::from_nanos(ns), 64)
    });
}

/// Rungs over frames alone: classifier, parser, checksum arithmetic.
pub fn frame_rungs(ctx: &mut Ctx<'_>, out: &mut Rungs) {
    let cls = RssClassifier::for_nat(&ctx.cfg, ctx.shards);
    let mut cur = 0;
    time(ctx.budget, out, "frame_env.rss_ns_pkt", || {
        let flows = ctx.take(&mut cur, 1024);
        let t0 = Instant::now();
        for (k, &f) in flows.iter().enumerate() {
            // The window's 3:1 mix of internal and external frames.
            if k % 4 == 3 {
                black_box(cls.queue_of(Direction::External, ctx.tester.ext_frame(f)));
            } else {
                black_box(cls.queue_of(Direction::Internal, ctx.tester.int_frame(f)));
            }
        }
        (t0.elapsed(), flows.len() as u64)
    });
    let mut cur = 0;
    time(ctx.budget, out, "vig_packet.parse_ns", || {
        let flows = ctx.take(&mut cur, 1024);
        let t0 = Instant::now();
        for &f in &flows {
            black_box(parse_l3l4(black_box(ctx.tester.int_frame(f))).is_ok());
        }
        (t0.elapsed(), flows.len() as u64)
    });
    // One packet's worth of RFC 1624 updates, as `apply_rewrite` does
    // them: the IP header sum over one address, the L4 sum over that
    // address and one port (the other address and port are unchanged).
    time(ctx.budget, out, "vig_packet.csum_update_ns", || {
        let t0 = Instant::now();
        let mut acc = 0u16;
        for i in 0..1024u32 {
            let (old_ip, new_ip) = (black_box(0x0a00_0000 | i), black_box(0xcb00_7101));
            let (old_port, new_port) = (black_box(10_000 + i as u16), black_box(1 + i as u16));
            let ip = Checksum::from_field(black_box(0x1234))
                .update_u32(old_ip, new_ip)
                .update_u32(0x0101_0101, 0x0101_0101);
            let l4 = Checksum::from_field(black_box(0x5678))
                .update_u32(old_ip, new_ip)
                .update_u32(0x0101_0101, 0x0101_0101)
                .update_u16(old_port, new_port)
                .update_u16(80, 80);
            acc ^= ip.to_field() ^ l4.to_field();
        }
        black_box(acc);
        (t0.elapsed(), 1024)
    });
}

/// `nat_process_batch` over `BurstEnv`: the middlebox's work minus its
/// own wrapper (verdict vector, chunking), 32-frame chunks in the
/// window's 3:1 mix, on the DUT's own table.
pub fn frame_env_rung(ctx: &mut Ctx<'_>, fm: &mut ShardedFlowManager, out: &mut Rungs) {
    let cfg = ctx.cfg;
    let mut pool = Mempool::new(MAX_BURST);
    let mut scratch = BurstScratch::default();
    let mut cur = 0;
    let now = ctx.now;
    time(ctx.budget, out, "frame_env.batch_ns_pkt", || {
        let mut timed = Duration::ZERO;
        for chunk in 0..4 {
            let dir = if chunk == 3 {
                Direction::External
            } else {
                Direction::Internal
            };
            let flows = ctx.take(&mut cur, MAX_BURST);
            let bufs: Vec<BufIdx> = flows
                .iter()
                .map(|&f| {
                    let b = pool.get().expect("chunk-sized pool");
                    let frame = match dir {
                        Direction::Internal => ctx.tester.int_frame(f),
                        Direction::External => ctx.tester.ext_frame(f),
                    };
                    pool.write_frame(b, frame);
                    b
                })
                .collect();
            let t0 = Instant::now();
            let mut env = BurstEnv::new(fm, &mut pool, &bufs, dir, now, &mut scratch);
            let outcomes = nat_process_batch(&mut env, &cfg);
            env.finish();
            timed += t0.elapsed();
            assert!(
                outcomes
                    .iter()
                    .all(|o| matches!(o, IterationOutcome::Forwarded(_))),
                "ladder replays resident flows: all hits"
            );
            for b in bufs {
                pool.put(b);
            }
        }
        (timed, 4 * MAX_BURST as u64)
    });
}

/// `nat_process_batch` over `SimpleEnv`: the loop body and the flow
/// table with no frame bytes at all (pre-parsed `RawRx` in, field-level
/// events out). `frame_env.batch_ns_pkt` minus this is what reading and
/// rewriting real frames costs.
pub fn loop_body_rung(ctx: &mut Ctx<'_>, out: &mut Rungs) {
    let mut env = SimpleEnv::sharded(ctx.cfg, ctx.shards);
    env.set_time(ctx.now);
    let rx_int = |ctx: &Ctx<'_>, f: u32| {
        let fid = ctx.fid(f);
        RawRx::well_formed(
            Direction::Internal,
            vig_packet::FlowFields {
                src_ip: fid.src_ip,
                dst_ip: fid.dst_ip,
                src_port: fid.src_port,
                dst_port: fid.dst_port,
                proto: fid.proto,
            },
        )
        .with_tcp_flags(ctx.tcp_flags(f))
    };
    // Populate in flow-index order, as the DUT was; remember where this
    // env put each flow so replies can be addressed to it.
    let mut sorted = ctx.order.clone();
    sorted.sort_unstable();
    let mut ext_of = vec![(0u32, 0u16); ctx.tester.flows()];
    for chunk in sorted.chunks(MAX_BURST) {
        for &f in chunk {
            env.inject(rx_int(ctx, f));
        }
        let base = env.events().len();
        let outcomes = env.run_burst();
        assert_eq!(outcomes.len(), chunk.len());
        for (&f, ev) in chunk.iter().zip(&env.events()[base..]) {
            match ev {
                EnvEvent::Sent {
                    src_ip, src_port, ..
                } => ext_of[f as usize] = (*src_ip, *src_port),
                EnvEvent::Dropped => panic!("replica table must hold the workload's flows"),
            }
        }
    }
    let mut cur = 0;
    time(ctx.budget, out, "loop_body.batch_ns_pkt", || {
        let mut timed = Duration::ZERO;
        for chunk in 0..4 {
            for f in ctx.take(&mut cur, MAX_BURST) {
                if chunk == 3 {
                    let (ip, port) = ext_of[f as usize];
                    env.inject(
                        RawRx::well_formed(
                            Direction::External,
                            vig_packet::FlowFields {
                                src_ip: REMOTE_IP,
                                dst_ip: Ip4(ip),
                                src_port: REMOTE_PORT,
                                dst_port: port,
                                proto: ctx.tester.proto(f),
                            },
                        )
                        .with_tcp_flags(ctx.tcp_flags(f)),
                    );
                } else {
                    env.inject(rx_int(ctx, f));
                }
            }
            let t0 = Instant::now();
            let outcomes = env.run_burst();
            timed += t0.elapsed();
            assert!(outcomes
                .iter()
                .all(|o| matches!(o, IterationOutcome::Forwarded(_))));
        }
        (timed, 4 * MAX_BURST as u64)
    });
}

/// Flow-manager rungs on `fm` (the DUT's table, or a replica holding
/// the workload's flows). Ends by expiring every flow: call last.
pub fn table_rungs(ctx: &mut Ctx<'_>, fm: &mut ShardedFlowManager, out: &mut Rungs) {
    let now = ctx.now;
    out.put(
        "flow_manager.occupancy_pct",
        fm.flow_count() as f64 * 100.0 / fm.table_capacity() as f64,
    );
    let mut probes: Vec<u32> = ctx
        .order
        .iter()
        .map(|&f| fm.internal_probe_len(&ctx.fid(f)) as u32)
        .collect();
    probes.sort_unstable();
    out.put(
        "flow_manager.probe_len_mean",
        probes.iter().map(|&p| f64::from(p)).sum::<f64>() / probes.len() as f64,
    );
    out.put(
        "flow_manager.probe_len_p99",
        f64::from(probes[(probes.len() * 99).div_ceil(100).max(1) - 1]),
    );

    let mut cur = 0;
    time(ctx.budget, out, "flow_manager.lookup_int_ns", || {
        let fids: Vec<FlowId> = ctx
            .take(&mut cur, 1024)
            .iter()
            .map(|&f| ctx.fid(f))
            .collect();
        let t0 = Instant::now();
        for fid in &fids {
            black_box(fm.lookup_internal_hashed(fid, fid.key_hash()).is_some());
        }
        (t0.elapsed(), fids.len() as u64)
    });
    let mut cur = 0;
    time(ctx.budget, out, "flow_manager.lookup_ext_ns", || {
        let keys: Vec<ExtKey> = ctx
            .take(&mut cur, 1024)
            .iter()
            .map(|&f| {
                let (ext_ip, ext_port) = ctx.tester.learned(f).expect("resident flow is mapped");
                ExtKey {
                    ext_ip,
                    ext_port,
                    dst_ip: REMOTE_IP,
                    dst_port: REMOTE_PORT,
                    proto: ctx.tester.proto(f),
                }
            })
            .collect();
        let t0 = Instant::now();
        for k in &keys {
            black_box(fm.lookup_external_hashed(k, k.key_hash()).is_some());
        }
        (t0.elapsed(), keys.len() as u64)
    });
    let mut cur = 0;
    time(ctx.budget, out, "flow_manager.rejuvenate_ns", || {
        let touches: Vec<(usize, u8)> = ctx
            .take(&mut cur, 1024)
            .iter()
            .map(|&f| {
                let fid = ctx.fid(f);
                let (slot, _) = fm
                    .lookup_internal_hashed(&fid, fid.key_hash())
                    .expect("resident flow is in the table");
                (slot, ctx.tcp_flags(f))
            })
            .collect();
        let t0 = Instant::now();
        for &(slot, fl) in &touches {
            fm.rejuvenate(black_box(slot), now, Direction::Internal, fl);
        }
        (t0.elapsed(), touches.len() as u64)
    });

    // Destructive from here on.
    let mut next = 0u32;
    let room = (fm.table_capacity() - fm.flow_count()) / 2;
    time(ctx.budget, out, "flow_manager.allocate_ns", || {
        if next as usize >= room.min(1 << 15) {
            return (Duration::ZERO, 0);
        }
        let fids: Vec<FlowId> = (next..next + 256).map(|i| foreign_fid(12, i)).collect();
        next += 256;
        let mut done = 0;
        let t0 = Instant::now();
        for fid in &fids {
            let h = fid.key_hash();
            if let Some(slot) = fm.allocate_slot_routed(h, now) {
                let (ip, port) = fm.endpoint_of_slot(slot);
                fm.insert_hashed(slot, *fid, ip, port, h, 0);
                done += 1;
            }
        }
        (t0.elapsed(), done)
    });
    let flows = fm.flow_count();
    let t0 = Instant::now();
    let expired = fm.expire(Time(u64::MAX / 2));
    let d = t0.elapsed();
    assert_eq!(expired, flows, "a far-future threshold expires every flow");
    out.samples.push(("flow_manager.expire_ns_flow", 1));
    out.put(
        "flow_manager.expire_ns_flow",
        d.as_nanos() as f64 / expired.max(1) as f64,
    );
}

/// libVig rungs on replicas the size of one DUT shard, holding the
/// resident flows that shard would hold, inserted in flow-index order
/// (as set-up did) and visited in the workload's order.
pub fn libvig_rungs(ctx: &mut Ctx<'_>, out: &mut Rungs) {
    let cap = ctx.cfg.capacity / ctx.shards;
    let mine = |fid: &FlowId| libvig::rss::shard_of(fid.key_hash(), ctx.shards) == 0;
    let mut sorted = ctx.order.clone();
    sorted.sort_unstable();
    let mut index_of = vec![u32::MAX; ctx.tester.flows()];
    let mut map: Map<FlowId> = Map::new(cap);
    let mut chain = DoubleChain::new(cap);
    let mut wheel = TimerWheel::new(cap);
    for &f in &sorted {
        let fid = ctx.fid(f);
        if !mine(&fid) || map.is_full() {
            continue;
        }
        let stamp = Time(map.size() as u64);
        let idx = chain.allocate(stamp).expect("same capacity as the map");
        map.put_with_hash(fid, fid.key_hash(), idx)
            .expect("not full");
        wheel.insert(idx, stamp);
        index_of[f as usize] = idx as u32;
    }
    // The shard's flows in visiting order: keys, hashes, indices.
    let visit: Vec<(FlowId, u64, usize)> = ctx
        .order
        .iter()
        .filter(|&&f| index_of[f as usize] != u32::MAX)
        .map(|&f| {
            let fid = ctx.fid(f);
            (fid, fid.key_hash(), index_of[f as usize] as usize)
        })
        .collect();
    assert!(
        !visit.is_empty(),
        "shard 0 holds some of the workload's flows"
    );
    let mut at = 0;
    let mut next = |n: usize| -> Vec<(FlowId, u64, usize)> {
        let v = (0..n).map(|k| visit[(at + k) % visit.len()]).collect();
        at = (at + n) % visit.len();
        v
    };

    time(ctx.budget, out, "libvig.map_get_ns", || {
        let keys = next(1024);
        let t0 = Instant::now();
        for (k, h, _) in &keys {
            black_box(map.get_with_hash(k, *h));
        }
        (t0.elapsed(), keys.len() as u64)
    });
    let mut found = Vec::with_capacity(MAX_BURST);
    time(ctx.budget, out, "libvig.map_get_batch_ns", || {
        let batch = next(1024);
        let keys: Vec<FlowId> = batch.iter().map(|b| b.0).collect();
        let hashes: Vec<u64> = batch.iter().map(|b| b.1).collect();
        let t0 = Instant::now();
        for (k, h) in keys.chunks(MAX_BURST).zip(hashes.chunks(MAX_BURST)) {
            found.clear();
            map.get_batch_with_hash(k, h, &mut found);
            black_box(&found);
        }
        (t0.elapsed(), keys.len() as u64)
    });
    let mut miss = 0u32;
    time(ctx.budget, out, "libvig.map_miss_ns", || {
        let keys: Vec<(FlowId, u64)> = (miss..miss + 1024)
            .map(|i| {
                let k = foreign_fid(13, i);
                (k, k.key_hash())
            })
            .collect();
        miss = miss.wrapping_add(1024);
        let t0 = Instant::now();
        for (k, h) in &keys {
            black_box(map.get_with_hash(k, *h));
        }
        (t0.elapsed(), keys.len() as u64)
    });
    let mut fresh = 0u32;
    time(ctx.budget, out, "libvig.map_put_erase_ns", || {
        if map.is_full() {
            return (Duration::ZERO, 0);
        }
        let keys: Vec<(FlowId, u64)> = (fresh..fresh + 256)
            .map(|i| {
                let k = foreign_fid(14, i);
                (k, k.key_hash())
            })
            .collect();
        fresh = fresh.wrapping_add(256);
        let t0 = Instant::now();
        for (k, h) in &keys {
            map.put_with_hash(*k, *h, 0).expect("one free slot");
            black_box(map.erase(k));
        }
        (t0.elapsed(), keys.len() as u64)
    });
    let mut clock = map.size() as u64;
    time(ctx.budget, out, "libvig.dchain_rejuvenate_ns", || {
        let batch = next(1024);
        let t0 = Instant::now();
        for (_, _, idx) in &batch {
            clock += 1;
            black_box(chain.rejuvenate(*idx, Time(clock)));
        }
        (t0.elapsed(), batch.len() as u64)
    });
    let mut clock = map.size() as u64;
    time(ctx.budget, out, "libvig.wheel_refresh_ns", || {
        let batch = next(1024);
        let t0 = Instant::now();
        for (_, _, idx) in &batch {
            clock += crate::gen::DT_NS;
            wheel.refresh(*idx, Time(clock));
        }
        (t0.elapsed(), batch.len() as u64)
    });
    let armed = wheel.len();
    let t0 = Instant::now();
    let mut popped = 0;
    while wheel.pop_expired(Time(u64::MAX / 2)).is_some() {
        popped += 1;
    }
    let d = t0.elapsed();
    assert_eq!(popped, armed);
    out.samples.push(("libvig.wheel_pop_ns", 1));
    out.put(
        "libvig.wheel_pop_ns",
        d.as_nanos() as f64 / popped.max(1) as f64,
    );
}

/// Words per microsecond through one `libvig::spsc` ring, this thread
/// producing and one consumer thread (pinned to `consumer_cpu` when
/// given) draining: the ceiling the runtime's codec traffic sits under.
pub fn spsc_words_per_us(consumer_cpu: Option<usize>) -> f64 {
    const WORDS: usize = 1 << 22;
    const CHUNK: usize = 512;
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let (mut tx, mut rx) = libvig::spsc::channel(netsim::runtime::DEFAULT_RING_WORDS);
            let chunk = [0x5au64; CHUNK];
            std::thread::scope(|sc| {
                let consumer = sc.spawn(move || {
                    if let Some(cpu) = consumer_cpu {
                        let _ = netsim::backend::os::pin_current_thread(cpu);
                    }
                    let mut sink = Vec::with_capacity(CHUNK);
                    let mut got = 0;
                    while got < WORDS {
                        sink.clear();
                        match rx.pop_extend(&mut sink, CHUNK) {
                            0 => std::hint::spin_loop(),
                            n => got += n,
                        }
                    }
                });
                let t0 = Instant::now();
                let mut sent = 0;
                while sent < WORDS {
                    let n = tx.push_slice(&chunk[..CHUNK.min(WORDS - sent)]);
                    if n == 0 {
                        std::hint::spin_loop();
                    }
                    sent += n;
                }
                consumer.join().expect("consumer thread");
                WORDS as f64 / (t0.elapsed().as_nanos() as f64 / 1e3)
            })
        })
        .collect();
    median(&mut rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Schedule;
    use crate::workload::{Kind, Run, SIM_SHARDS};

    #[test]
    fn every_rung_runs_on_a_small_workload() {
        let kind = Kind::HitsResident;
        let cfg = kind.cfg();
        let sched = Schedule::round_robin(256);
        let tester = Tester::new(cfg, 256, 4);
        let nf = ShardedVigNatMb::sharded(cfg, SIM_SHARDS);
        let io = SimBackend::new(RssClassifier::for_nat(&cfg, SIM_SHARDS), 512);
        let mut run = Run::new(
            kind,
            SimDut::new(io, nf, None),
            tester,
            sched,
            Time::from_secs(1),
        );
        run.populate();
        run.fixed_pass(8);
        let mut out = Rungs::default();
        let mut ctx = Ctx {
            cfg,
            shards: SIM_SHARDS,
            order: run.sched.resident_order(),
            tester: &mut run.tester,
            budget: Duration::from_millis(2),
            now: run.now,
        };
        sim_rungs(&mut ctx, &mut run.dut, &mut out);
        frame_rungs(&mut ctx, &mut out);
        frame_env_rung(&mut ctx, run.dut.nf.flow_manager_mut(), &mut out);
        loop_body_rung(&mut ctx, &mut out);
        libvig_rungs(&mut ctx, &mut out);
        table_rungs(&mut ctx, run.dut.nf.flow_manager_mut(), &mut out);
        for (name, v) in &out.values {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        assert_eq!(run.tester.failed, 0, "burst4 windows check out too");
        assert_eq!(
            run.dut.nf.flow_manager().flow_count(),
            0,
            "expire rung emptied the table"
        );
        assert!(spsc_words_per_us(None) > 0.0);
    }
}
