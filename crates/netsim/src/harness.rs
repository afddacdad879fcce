//! The `std::thread` per-shard parallel driver: [`ParallelShardedNat`]
//! and the [`NatRuntimeSession`] it lends out over the pinned
//! [`crate::runtime`].
//!
//! The module keeps its old name — it used to hold the RFC 2544
//! measurement harness, which now lives with its only caller in
//! `vig_bench::harness` — because `benchmark/` imports both types by
//! this path; the next PR that may edit `benchmark/` renames it.

use crate::dpdk::{BufIdx, Mempool, MBUF_SIZE};
use crate::frame_env::RssClassifier;
use crate::middlebox::{run_staged, Verdict};
use crate::runtime::{
    refuse_cross_shard_config, with_shard_runtime, RuntimeReport, ShardRuntimeSession,
    DEFAULT_RING_WORDS,
};
use libvig::time::Time;
use vig_packet::Direction;
use vig_spec::NatConfig;
use vignat::ShardedFlowManager;

/// The `std::thread`-based driver for the N-shard NAT: each shard runs
/// on its own worker with its own mempool and expiry clock — the software model of RSS hardware dispatch feeding one RX
/// queue per core.
///
/// Per burst: an (untimed, tester-side) dispatch pass routes each frame
/// to its shard with [`RssClassifier::queue_of`] — the shard of the
/// key the loop body will look up, computed by the loop body's own key
/// functions — then `std::thread::scope` runs every shard's sub-burst
/// concurrently through the ordinary batched fast path
/// ([`crate::middlebox::run_staged`]). Shards share no state, so no
/// locks exist anywhere on the datapath; verdicts are scattered back to
/// arrival order afterwards. For the same reason the per-shard drivers
/// (`with_runtime`, `process_burst_parallel`, `process_on_shard`)
/// refuse `cfg.hairpinning` with more than one shard: a hairpinned
/// packet resolves its *target* by external lookup, and that mapping
/// lives on whichever shard owns the port.
///
/// Correctness, not wall-clock speed, is this driver's contract:
/// `tests/shard_equivalence.rs` proves it packet-for-packet equivalent
/// to the single-threaded sharded NAT ([`crate::middlebox::ShardedVigNatMb`])
/// and to N independent 1-shard NATs. Wall-clock scaling additionally
/// requires ≥ N physical cores; natbench's `runtime` workload is where
/// the runtime is timed (see `docs/BENCHMARKS.md`).
pub struct ParallelShardedNat {
    table: ShardedFlowManager,
    pools: Vec<Mempool>,
    /// Per-shard expiry clocks: the last `now` each shard processed.
    /// [`ParallelShardedNat::process_burst_parallel`] advances all of
    /// them together (one burst = one arrival instant);
    /// [`ParallelShardedNat::process_on_shard`] advances one shard
    /// independently, which is how a real per-core driver behaves when
    /// its queues drain at different rates.
    clocks: Vec<Time>,
    expired_total: u64,
}

impl ParallelShardedNat {
    /// Build an N-shard parallel NAT. `burst_capacity` bounds the
    /// number of frames one [`ParallelShardedNat::process_burst_parallel`]
    /// call may carry (it sizes every per-shard mempool for the
    /// worst-case skew of all frames hashing to one shard).
    pub fn new(cfg: NatConfig, shards: usize, burst_capacity: usize) -> ParallelShardedNat {
        assert!(burst_capacity > 0, "burst capacity must be non-zero");
        ParallelShardedNat {
            table: ShardedFlowManager::new(&cfg, shards),
            pools: (0..shards).map(|_| Mempool::new(burst_capacity)).collect(),
            clocks: vec![Time::ZERO; shards],
            expired_total: 0,
        }
    }

    /// Number of shards (== worker threads per burst).
    pub fn shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// The sharded flow table (assertions/statistics).
    pub fn table(&self) -> &ShardedFlowManager {
        &self.table
    }

    /// Flows currently tracked across all shards.
    pub fn occupancy(&self) -> usize {
        use vignat::FlowTable;
        self.table.flow_count()
    }

    /// Total flows expired over the run, across all shards.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// This NAT's RSS function ([`RssClassifier::for_table`]) — the
    /// *same function* the multi-queue NIC model's hash unit computes
    /// and the per-shard drivers dispatch by; `tests/queue_equivalence.rs`
    /// holds it to where the sequential table actually puts each flow.
    pub fn classifier(&self) -> RssClassifier {
        RssClassifier::for_table(&self.table)
    }

    /// Process one burst arriving on `dir` at instant `now`, one worker
    /// thread per shard. Frames are rewritten in place; returns one
    /// verdict per frame in arrival order.
    ///
    /// Implemented as a one-burst [`crate::runtime`] session (spawn,
    /// process, join): semantics are identical to driving a persistent
    /// session — same dispatch, chunking, expiry ticks, and merge order
    /// — so the equivalence suites cover both. Loops that care about
    /// wall-clock rate use [`ParallelShardedNat::with_runtime`] instead
    /// and keep the workers alive across bursts.
    pub fn process_burst_parallel(
        &mut self,
        dir: Direction,
        frames: &mut [Vec<u8>],
        now: Time,
    ) -> Vec<Verdict> {
        let (out, _report) = self.with_runtime(false, |s| s.process_burst(dir, frames, now));
        out
    }

    /// Run `f` over a persistent pinned shard runtime: one long-lived
    /// worker thread per shard (pinned to a CPU when `pin` is set and
    /// the host permits; see [`crate::runtime::PinReport`]), fed
    /// through SPSC rings. The session lives exactly as long as `f`;
    /// expiry counts accumulate into [`ParallelShardedNat::expired_total`]
    /// on return.
    pub fn with_runtime<R>(
        &mut self,
        pin: bool,
        f: impl FnOnce(&mut NatRuntimeSession<'_>) -> R,
    ) -> (R, RuntimeReport) {
        let ParallelShardedNat {
            table,
            pools,
            clocks,
            expired_total,
        } = self;
        let (r, report) = with_shard_runtime(table, pools, DEFAULT_RING_WORDS, pin, |session| {
            let mut nat_session = NatRuntimeSession {
                inner: session,
                clocks,
            };
            f(&mut nat_session)
        });
        *expired_total += report.expired;
        (r, report)
    }

    /// Drive one shard alone at its own clock — what a per-core driver
    /// does when its queue drains on its own schedule. Every frame must
    /// dispatch to shard `s` (asserted); `now` must be monotone *for
    /// this shard* but may run ahead of (or behind) the siblings', so
    /// tests can race one shard's expiry against another's re-lookup.
    pub fn process_on_shard(
        &mut self,
        s: usize,
        dir: Direction,
        frames: &mut [Vec<u8>],
        now: Time,
    ) -> Vec<Verdict> {
        assert!(self.clocks[s] <= now, "shard clock must be monotone");
        self.clocks[s] = now;
        refuse_cross_shard_config(&self.table);
        let cls = self.classifier();
        for f in frames.iter() {
            assert_eq!(cls.queue_of(dir, f), s, "frame dispatched to wrong shard");
        }
        // Checked admission, like the runtime's workers: a frame the
        // pool cannot take (exhausted, or longer than a buffer) is
        // dropped with its bytes unmodified — never a panic, never a
        // leaked buffer.
        let pool = &mut self.pools[s];
        let slots: Vec<Option<BufIdx>> = frames
            .iter()
            .map(|f| {
                let b = (f.len() <= MBUF_SIZE).then(|| pool.get()).flatten()?;
                pool.write_frame(b, f);
                Some(b)
            })
            .collect();
        let bufs: Vec<BufIdx> = slots.iter().flatten().copied().collect();
        // Global config, like the parallel workers: the shard's
        // FlowManager returns pool-global port offsets.
        let cfg = self.table.global_cfg();
        let fm = &mut self.table.shards_mut()[s];
        let mut staged = Vec::with_capacity(bufs.len());
        let expired = run_staged(fm, pool, &cfg, dir, now, &bufs, &mut staged);
        self.expired_total += expired as u64;
        let mut staged = staged.into_iter();
        frames
            .iter_mut()
            .zip(slots)
            .map(|(f, slot)| {
                let Some(b) = slot else {
                    return Verdict::Drop;
                };
                f.copy_from_slice(pool.frame(b));
                pool.put(b);
                staged.next().expect("one verdict per staged buffer")
            })
            .collect()
    }
}

/// A live [`ParallelShardedNat`] runtime session: the persistent-worker
/// view of the NAT, valid inside one
/// [`ParallelShardedNat::with_runtime`] call. Adds the NAT's clock
/// discipline (all shard clocks advance together, monotonically) on
/// top of the raw [`ShardRuntimeSession`].
pub struct NatRuntimeSession<'a> {
    inner: &'a mut ShardRuntimeSession,
    clocks: &'a mut [Time],
}

impl NatRuntimeSession<'_> {
    /// Process one burst on the persistent workers (see
    /// [`ParallelShardedNat::process_burst_parallel`] for the
    /// contract; this is the same operation minus thread spawn).
    pub fn process_burst(
        &mut self,
        dir: Direction,
        frames: &mut [Vec<u8>],
        now: Time,
    ) -> Vec<Verdict> {
        for c in self.clocks.iter_mut() {
            assert!(*c <= now, "shard clock must be monotone");
            *c = now;
        }
        self.inner.process_burst(dir, frames, now)
    }

    /// Pinning outcome for this session's workers.
    pub fn pin_report(&self) -> crate::runtime::PinReport {
        self.inner.pin_report()
    }

    /// Flows expired by the workers so far **this session** (folded
    /// into [`ParallelShardedNat::expired_total`] when the session
    /// ends; the differential suites compare it mid-session, while the
    /// table itself is on loan to the workers).
    pub fn expired(&self) -> u64 {
        self.inner.expired()
    }

    /// Supervisor counters so far this session (see
    /// [`crate::runtime::SupervisorStats`]): all zero on a fault-free
    /// session.
    pub fn supervisor(&self) -> crate::runtime::SupervisorStats {
        self.inner.supervisor()
    }

    /// Supervised-failure events so far this session, in order.
    pub fn down_events(&self) -> &[crate::runtime::WorkerDown] {
        self.inner.down_events()
    }

    /// Whether shard `s` is still serving (not retired by the
    /// supervisor).
    pub fn shard_alive(&self, s: usize) -> bool {
        self.inner.shard_alive(s)
    }

    /// Arm shard `s`'s worker to panic partway through its next job —
    /// the chaos seam (see [`ShardRuntimeSession::kill_worker`]).
    pub fn kill_worker(&mut self, s: usize) -> bool {
        self.inner.kill_worker(s)
    }

    /// Make shard `s`'s worker exit silently — a simulated hard death
    /// (see [`ShardRuntimeSession::halt_worker`]).
    pub fn halt_worker(&mut self, s: usize) -> bool {
        self.inner.halt_worker(s)
    }

    /// Replace the supervisor's stall budget (see
    /// [`ShardRuntimeSession::set_stall_budget`]).
    pub fn set_stall_budget(&mut self, budget: std::time::Duration) {
        self.inner.set_stall_budget(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tester::FlowGen;
    use vig_packet::{Ip4, Proto};

    fn cfg(cap: usize) -> NatConfig {
        NatConfig {
            capacity: cap,
            expiry_ns: Time::from_secs(2).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1,
            ..NatConfig::paper_default()
        }
    }

    #[test]
    fn parallel_sharded_nat_reclaims_buffers_and_translates() {
        let mut nat = ParallelShardedNat::new(cfg(128), 2, 64);
        let mut frames = udp_frames(48);
        let before: usize = (0..2).map(|s| 64 - nat.pools[s].available()).sum();
        let v = nat.process_burst_parallel(Direction::Internal, &mut frames, Time::from_secs(1));
        assert_eq!(v, vec![Verdict::Forward(Direction::External); 48]);
        assert_eq!(nat.occupancy(), 48);
        let after: usize = (0..2).map(|s| 64 - nat.pools[s].available()).sum();
        assert_eq!(before, after, "no buffer leaks through the parallel path");
        // Every translated frame carries the external ip and a port
        // from its dispatch shard's slice of the range.
        let per = nat.table().per_shard_capacity() as u16;
        for f in &frames {
            let (_, ff) = vig_packet::parse_l3l4(f).unwrap();
            assert_eq!(ff.src_ip, Ip4::new(10, 1, 0, 1));
            let s = nat.table().shard_of_port(ff.src_port).unwrap();
            let start = 1 + s as u16 * per;
            assert!((start..start + per).contains(&ff.src_port));
        }
    }

    fn udp_frames(n: u32) -> Vec<Vec<u8>> {
        let gen = FlowGen::new(Proto::Udp);
        let mut buf = [0u8; MBUF_SIZE];
        (0..n)
            .map(|i| {
                let len = gen.write_frame(&gen.background(i), &mut buf);
                buf[..len].to_vec()
            })
            .collect()
    }

    #[test]
    fn process_on_shard_denies_what_the_pool_cannot_hold() {
        // Two buffers for an eight-frame burst: the in-line path gets
        // the runtime's checked admission — six frames denied, none
        // panics, no buffer leaks.
        let mut nat = ParallelShardedNat::new(cfg(128), 1, 2);
        let mut frames = udp_frames(8);
        let originals = frames.clone();
        let v = nat.process_on_shard(0, Direction::Internal, &mut frames, Time::from_secs(1));
        for (i, v) in v.iter().enumerate() {
            if i < 2 {
                assert_eq!(*v, Verdict::Forward(Direction::External));
                assert_ne!(frames[i], originals[i]);
            } else {
                assert_eq!(*v, Verdict::Drop);
                assert_eq!(
                    frames[i], originals[i],
                    "denied frames come back unmodified"
                );
            }
        }
        assert_eq!(nat.occupancy(), 2);
        assert_eq!(nat.pools[0].available(), nat.pools[0].capacity());
    }

    #[test]
    fn a_frame_longer_than_a_buffer_drops_on_both_paths() {
        let mut nat = ParallelShardedNat::new(cfg(128), 1, 8);
        let mut frames = udp_frames(3);
        frames[1].resize(MBUF_SIZE + 1, 0xab);
        let jumbo = frames[1].clone();
        let want = [
            Verdict::Forward(Direction::External),
            Verdict::Drop,
            Verdict::Forward(Direction::External),
        ];
        let now = Time::from_secs(1);
        assert_eq!(
            nat.process_on_shard(0, Direction::Internal, &mut frames.clone(), now),
            want
        );
        let (v, report) = nat.with_runtime(false, |s| {
            s.process_burst(Direction::Internal, &mut frames, now)
        });
        assert_eq!(v, want);
        assert_eq!(frames[1], jumbo, "dropped unmodified");
        assert_eq!(report.chaos.pool_denied, 1);
        assert_eq!(nat.pools[0].available(), nat.pools[0].capacity());
    }

    #[test]
    fn a_panicking_session_closure_propagates_instead_of_hanging() {
        // Without the shutdown sentinels on unwind the workers would
        // spin forever and `thread::scope` would never join them. The
        // helper thread reports through a channel so a hang fails the
        // test instead of wedging the suite.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let helper = std::thread::spawn(move || {
            let mut nat = ParallelShardedNat::new(cfg(128), 2, 8);
            let _done = done_tx; // dropped when the thread unwinds or returns
            nat.with_runtime(false, |s| {
                s.process_burst(Direction::Internal, &mut udp_frames(4), Time::from_secs(2));
                // Time runs backwards: "shard clock must be monotone".
                s.process_burst(Direction::Internal, &mut udp_frames(4), Time::from_secs(1));
            });
        });
        let hung = done_rx.recv_timeout(std::time::Duration::from_secs(10))
            != Err(std::sync::mpsc::RecvTimeoutError::Disconnected);
        assert!(
            !hung,
            "session did not shut down within 10 s of the closure panicking"
        );
        assert!(helper.join().is_err(), "the closure's panic must propagate");
    }
}
