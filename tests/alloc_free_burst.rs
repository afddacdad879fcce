//! The burst path allocates nothing. With the table, the mempool and the
//! verdict vector sized up front, a burst through the loop body makes no
//! heap allocation — the paper's "all memory preallocated" (§5.1.1)
//! held on the fast path, by count:
//!
//! * `run_staged` over a 2-shard table past the cache-resident budget
//!   (so the staged probes touch ahead): resident hits, new flows,
//!   unsolicited and malformed frames, an expiry tick, bursts whose
//!   frames alternate shards in both directions, and a 40-frame burst
//!   that runs as two chunks;
//! * `nat_process_batch_into` with a sink, over `BurstEnv`;
//! * `VigNatMb::process_burst`: exactly one allocation, the `Vec` it
//!   returns;
//! * `NatRuntimeSession::process_burst` on the dispatcher's thread:
//!   exactly one allocation, the `Vec` it returns — staging, the job's
//!   trip to the worker and back, and the write-back allocate nothing.
//!
//! Its own test binary because it installs a counting global
//! allocator. The counter is per thread, so the harness's other test
//! threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vignat_repro::libvig::map::MapKey;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{
    nat_process_batch_into, FlowManager, IterationOutcome, NatConfig, ShardedFlowManager, MAX_BURST,
};
use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, FlowId, Ip4, Proto};
use vignat_repro::sim::dpdk::{BufIdx, Mempool};
use vignat_repro::sim::frame_env::{BurstEnv, BurstScratch};
use vignat_repro::sim::middlebox::{run_staged, Middlebox, Verdict, VigNatMb};
use vignat_repro::sim::runtime::ParallelShardedNat;

/// Forwards to the system allocator, counting allocation calls on the
/// calling thread.
struct Counting;

thread_local! {
    /// Const-initialised and without a destructor: touching it never
    /// allocates, so the allocator may.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `count` neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` came from `System` through this
        // allocator; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from `System` through this
        // allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

const REMOTE: Ip4 = Ip4::new(1, 1, 1, 1);

/// 8,192 slots, long lifetimes: the warm-up's flows pile up past the
/// 2,048 per shard below which the staged probes skip their touches.
fn cfg() -> NatConfig {
    NatConfig {
        capacity: 8192,
        expiry_ns: Time::from_secs(10).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1024,
        ..NatConfig::paper_default()
    }
}

/// Internal flow `i`: TCP one time in three.
fn fid(i: u32) -> FlowId {
    FlowId {
        src_ip: Ip4(Ip4::new(10, 0, 0, 0).raw() + i),
        src_port: 4000,
        dst_ip: REMOTE,
        dst_port: 53,
        proto: if i.is_multiple_of(3) {
            Proto::Tcp
        } else {
            Proto::Udp
        },
    }
}

fn int_frame(f: &FlowId) -> Vec<u8> {
    match f.proto {
        Proto::Udp => PacketBuilder::udp(f.src_ip, f.dst_ip, f.src_port, f.dst_port).build(),
        Proto::Tcp => PacketBuilder::tcp(f.src_ip, f.dst_ip, f.src_port, f.dst_port)
            .tcp_flags(0x10)
            .build(),
    }
}

/// The reply to flow `f`, translated to `ext_port`.
fn ext_frame(f: &FlowId, ext_port: u16) -> Vec<u8> {
    let ext_ip = cfg().external_ip;
    match f.proto {
        Proto::Udp => PacketBuilder::udp(f.dst_ip, ext_ip, f.dst_port, ext_port).build(),
        Proto::Tcp => PacketBuilder::tcp(f.dst_ip, ext_ip, f.dst_port, ext_port)
            .tcp_flags(0x10)
            .build(),
    }
}

/// Stage `frames` in `pool`.
fn stage(pool: &mut Mempool, frames: &[Vec<u8>]) -> Vec<BufIdx> {
    frames
        .iter()
        .map(|f| {
            let b = pool.get().expect("pool sized for the burst");
            pool.write_frame(b, f);
            b
        })
        .collect()
}

/// A 2-shard table, a mempool and a verdict vector, sized up front.
struct Rig {
    table: ShardedFlowManager,
    pool: Mempool,
    verdicts: Vec<Verdict>,
    now: Time,
}

impl Rig {
    /// One burst through `run_staged` on `dir`, `dt` ns after the last,
    /// counted: the translated source ports (what return traffic is
    /// addressed to) and the allocations `run_staged` made.
    fn burst(&mut self, dir: Direction, dt: u64, frames: &[Vec<u8>]) -> (Vec<u16>, u64) {
        let bufs = stage(&mut self.pool, frames);
        let cfg = self.table.global_cfg();
        self.now = self.now.plus(dt);
        let Rig {
            table,
            pool,
            verdicts,
            now,
        } = self;
        verdicts.clear();
        let (_, allocs) = allocs_in(|| run_staged(table, pool, &cfg, dir, *now, &bufs, verdicts));
        let ports = bufs
            .iter()
            .map(|&b| parse_l3l4(pool.frame(b)).map_or(0, |(_, f)| f.src_port))
            .collect();
        for b in bufs {
            pool.put(b);
        }
        (ports, allocs)
    }

    /// [`Rig::burst`], asserting every frame's verdict is `want` and
    /// that nothing was allocated.
    fn check(&mut self, what: &str, dir: Direction, frames: &[Vec<u8>], want: Verdict) {
        let (_, allocs) = self.burst(dir, 1_000, frames);
        assert_eq!(self.verdicts, vec![want; frames.len()], "{what}: verdicts");
        assert_eq!(allocs, 0, "{what}: allocations");
    }
}

#[test]
fn run_staged_allocates_nothing_on_a_sharded_table() {
    let mut rig = Rig {
        table: ShardedFlowManager::new(&cfg(), 2),
        pool: Mempool::new(2 * MAX_BURST),
        verdicts: Vec::with_capacity(2 * MAX_BURST),
        now: Time::from_secs(1),
    };
    let (out, back) = (
        Verdict::Forward(Direction::External),
        Verdict::Forward(Direction::Internal),
    );

    // Warm-up: 4,400 flows, about 2,200 per shard, and each one's
    // external port.
    let mut ext_port = vec![0u16; 4400];
    for chunk in (0..4400u32).collect::<Vec<_>>().chunks(MAX_BURST) {
        let frames: Vec<_> = chunk.iter().map(|&i| int_frame(&fid(i))).collect();
        let (ports, _) = rig.burst(Direction::Internal, 0, &frames);
        assert!(rig.verdicts.iter().all(|&v| v == out));
        for (&i, p) in chunk.iter().zip(ports) {
            ext_port[i as usize] = p;
        }
    }
    assert!(
        (0..2).all(|s| rig.table.shard(s).len() > 2048),
        "past the resident budget"
    );

    // Resident hits, in flow order (shards as the hash falls).
    let frames: Vec<_> = (100..132).map(|i| int_frame(&fid(i))).collect();
    rig.check("resident hits", Direction::Internal, &frames, out);
    // Hits alternating shards packet by packet, both directions.
    let shard: Vec<usize> = (0..4400)
        .map(|i| rig.table.shard_of_hash(fid(i).key_hash()))
        .collect();
    let shard = &shard;
    let of_shard = |s: usize| (0..4400u32).filter(move |&i| shard[i as usize] == s);
    let alternating: Vec<u32> = of_shard(0)
        .zip(of_shard(1))
        .flat_map(|(a, b)| [a, b])
        .take(MAX_BURST)
        .collect();
    let frames: Vec<_> = alternating.iter().map(|&i| int_frame(&fid(i))).collect();
    rig.check("alternating shards", Direction::Internal, &frames, out);
    let frames: Vec<_> = alternating
        .iter()
        .map(|&i| ext_frame(&fid(i), ext_port[i as usize]))
        .collect();
    rig.check("alternating returns", Direction::External, &frames, back);
    // New flows.
    let frames: Vec<_> = (10_000..10_032).map(|i| int_frame(&fid(i))).collect();
    rig.check("new flows", Direction::Internal, &frames, out);
    // Unsolicited: to live flows' endpoints, from a remote port none
    // of them talks to.
    let frames: Vec<_> = (0..32u32)
        .map(|i| {
            let stranger = FlowId {
                dst_port: 54,
                ..fid(i)
            };
            ext_frame(&stranger, ext_port[i as usize])
        })
        .collect();
    rig.check("unsolicited", Direction::External, &frames, Verdict::Drop);
    // Malformed: truncations of a valid frame, and noise.
    let valid = int_frame(&fid(7));
    let frames: Vec<_> = (0..32usize)
        .map(|cut| match valid.get(..cut) {
            Some(short) if cut < 30 => short.to_vec(),
            _ => vec![0xa5; 60],
        })
        .collect();
    rig.check("malformed", Direction::Internal, &frames, Verdict::Drop);
    // 40 frames: two chunks of the loop body.
    let frames: Vec<_> = (200..240).map(|i| int_frame(&fid(i))).collect();
    rig.check("40-frame burst", Direction::Internal, &frames, out);

    // An expiry tick: no frames, and every flow idle past its lifetime.
    let (_, allocs) = rig.burst(Direction::Internal, cfg().expiry_ns + 1, &[]);
    assert!(rig.verdicts.is_empty());
    assert_eq!(rig.table.shard(0).len() + rig.table.shard(1).len(), 0);
    assert_eq!(allocs, 0, "expiry tick: allocations");
}

#[test]
fn the_sink_form_of_the_batch_loop_allocates_nothing() {
    let c = NatConfig {
        capacity: 64,
        ..cfg()
    };
    let mut fm = FlowManager::new(&c);
    let mut pool = Mempool::new(MAX_BURST);
    let frames: Vec<_> = (0..MAX_BURST as u32).map(|i| int_frame(&fid(i))).collect();
    for round in 0..2u64 {
        let bufs = stage(&mut pool, &frames);
        let mut outcomes = [IterationOutcome::NoPacket; MAX_BURST];
        let mut n = 0;
        let (expired, allocs) = allocs_in(|| {
            let now = Time::from_secs(1 + round);
            let mut env = BurstEnv::new(
                &mut fm,
                &mut pool,
                &bufs,
                Direction::Internal,
                now,
                &mut BurstScratch,
            );
            nat_process_batch_into(&mut env, &c, |o| {
                outcomes[n] = o;
                n += 1;
            });
            env.finish()
        });
        assert_eq!(expired, 0);
        assert_eq!(n, MAX_BURST);
        assert!(outcomes
            .iter()
            .all(|&o| o == IterationOutcome::Forwarded(Direction::External)));
        // Round 0 opens the flows, round 1 hits them.
        assert_eq!(allocs, 0, "round {round}: allocations");
        for b in bufs {
            pool.put(b);
        }
    }
}

#[test]
fn process_burst_allocates_only_the_verdicts_it_returns() {
    let mut nat = VigNatMb::sharded(cfg(), 2);
    let mut pool = Mempool::new(MAX_BURST);
    let frames: Vec<_> = (0..24u32).map(|i| int_frame(&fid(i))).collect();
    for round in 0..3u64 {
        let bufs = stage(&mut pool, &frames);
        let now = Time::from_secs(1 + round);
        let (verdicts, allocs) =
            allocs_in(|| nat.process_burst(Direction::Internal, &mut pool, &bufs, now));
        assert_eq!(verdicts, vec![Verdict::Forward(Direction::External); 24]);
        assert_eq!(
            allocs, 1,
            "round {round}: the returned Vec and nothing else"
        );
        for b in bufs {
            pool.put(b);
        }
    }
}

#[test]
fn runtime_burst_allocates_only_the_verdicts_it_returns() {
    let mut nat = ParallelShardedNat::new(cfg(), 1, MAX_BURST * 2);
    let frames: Vec<_> = (0..48u32).map(|i| int_frame(&fid(i))).collect();
    let (allocs, report) = nat.with_runtime(false, |s| {
        // Warm-up: the flows open and the session's vectors grow to
        // the burst size.
        for round in 0..3u64 {
            let v = s.process_burst(
                Direction::Internal,
                &mut frames.clone(),
                Time::from_secs(1 + round),
            );
            assert_eq!(v, vec![Verdict::Forward(Direction::External); 48]);
        }
        let mut burst = frames.clone();
        let (v, allocs) =
            allocs_in(|| s.process_burst(Direction::Internal, &mut burst, Time::from_secs(4)));
        assert_eq!(v, vec![Verdict::Forward(Direction::External); 48]);
        allocs
    });
    assert_eq!(report.chaos, Default::default());
    assert_eq!(allocs, 1, "the returned Vec and nothing else");
}
