//! The four workloads: configuration, set-up, and the measured loops.

use std::time::{Duration, Instant};

use libvig::time::Time;
use netsim::backend::{PacketIo, SimBackend, TesterIo};
use netsim::harness::ParallelShardedNat;
use netsim::middlebox::{Middlebox, ShardedVigNatMb};
use netsim::runtime::RuntimeReport;
use netsim::RssClassifier;
use vig_packet::{Direction, Ip4};
use vig_spec::NatConfig;

use crate::alloc;
use crate::dut::{Dut, RtDut, SimDut};
use crate::gen::{Item, Schedule, Tester, DT_NS, WINDOW};
use crate::stats::{alu_probe_us, to_reference_speed, Segment};

/// Segments a measurement is cut into; the reported value of a metric
/// is the median over them (the lower quartile, for the tail metric).
pub const SEGMENTS: usize = 20;
/// Unmeasured windows before the first timed one (caches, branch
/// predictors and lazily grown scratch vectors settle).
pub const WARM_WINDOWS: usize = 2_000;
/// Unmeasured steady-state churn windows in set-up: 96 ms of virtual
/// time, two full established-class timeouts.
pub const CHURN_WARM_WINDOWS: usize = 6_000;
/// Flow-table shards and RX queues of the sim workloads
/// (`examples/live_nat`'s defaults).
pub const SIM_SHARDS: usize = 2;
/// Ring size of the sim backend (`examples/live_nat`'s default).
pub const RING: usize = 512;
/// Resident flows of `hits-resident` and `runtime`.
pub const RESIDENT_FLOWS: usize = 256;
/// Slots of the `hits-large` table.
pub const LARGE_CAPACITY: usize = 1 << 20;
/// Resident flows of `hits-large`: 90 % of its table.
pub const LARGE_FLOWS: usize = 943_718;

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1,024 flows in a 65,535-slot table: everything in cache.
    HitsResident,
    /// 943,718 flows in a 2^20-slot table, random order: every table
    /// access misses cache.
    HitsLarge,
    /// A 65,535-slot table held at 90–95 % by arrivals and expiries.
    Churn,
    /// `hits-resident` through the pinned runtime.
    Runtime,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::HitsResident,
        Kind::HitsLarge,
        Kind::Churn,
        Kind::Runtime,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HitsResident => "hits-resident",
            Kind::HitsLarge => "hits-large",
            Kind::Churn => "churn",
            Kind::Runtime => "runtime",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The NAT configuration: the scenario matrix's, with the table
    /// size of `hits-large` and the lifetimes of `churn` overridden.
    pub fn cfg(self) -> NatConfig {
        let ms = |n| Time::from_millis(n).nanos();
        let base = NatConfig {
            capacity: 65_535,
            expiry_ns: Time::from_secs(60).nanos(),
            tcp_transitory_ns: Time::from_secs(4).nanos(),
            tcp_established_ns: Time::from_secs(120).nanos(),
            external_ip: Ip4::new(203, 0, 113, 1),
            start_port: 1,
            ..NatConfig::paper_default()
        };
        match self {
            Kind::HitsResident | Kind::Runtime => base,
            Kind::HitsLarge => NatConfig {
                capacity: LARGE_CAPACITY,
                ..base
            },
            Kind::Churn => NatConfig {
                expiry_ns: ms(24),
                tcp_transitory_ns: ms(24),
                tcp_established_ns: ms(48),
                ..base
            },
        }
    }

    /// The share of the workload's timed window that scales with the
    /// core clock: the slope of log(window time) on log(host-speed
    /// probe) over segments measured in both of the host's speed
    /// states (1.07 and 1.08 for the two cache-resident workloads, 0.24
    /// and 0.15 for the two that wait on memory), rounded.
    pub fn core_bound_share(self) -> f64 {
        match self {
            Kind::HitsResident | Kind::Runtime => 1.0,
            Kind::HitsLarge | Kind::Churn => 0.25,
        }
    }

    /// The workload's flow schedule for `seed`.
    pub fn schedule(self, seed: u64) -> Schedule {
        match self {
            Kind::HitsResident | Kind::Runtime => Schedule::round_robin(RESIDENT_FLOWS),
            Kind::HitsLarge => Schedule::permuted(LARGE_FLOWS, seed),
            Kind::Churn => Schedule::churn(seed),
        }
    }
}

/// What set-up cost.
#[derive(Debug, Clone, Copy)]
pub struct SetupInfo {
    /// Construct + populate (+ churn warm-up, + runtime spawn), seconds,
    /// as measured.
    pub secs: f64,
    /// [`to_reference_speed`] from the host-speed probes right before
    /// and right after.
    pub to_ref: f64,
    /// Live heap bytes the set-up added.
    pub heap_bytes: u64,
}

impl SetupInfo {
    /// The set-up time at the reference core speed.
    pub fn secs_at_ref(&self) -> f64 {
        self.secs * self.to_ref
    }
}

/// One workload in progress: a DUT, its tester, its schedule and the
/// virtual clock.
pub struct Run<D: Dut> {
    /// Which workload.
    pub kind: Kind,
    /// The device under test.
    pub dut: D,
    /// Frames and oracle.
    pub tester: Tester,
    /// Flow schedule.
    pub sched: Schedule,
    /// Virtual time of the last window.
    pub now: Time,
    plan: Vec<Item>,
    window_ns: Vec<u32>,
    /// Segments measured so far.
    pub segments: Vec<Segment>,
}

impl<D: Dut> Run<D> {
    /// A run at virtual time `now`.
    pub fn new(kind: Kind, dut: D, tester: Tester, sched: Schedule, now: Time) -> Run<D> {
        Run {
            kind,
            dut,
            tester,
            sched,
            now,
            plan: Vec::with_capacity(WINDOW),
            window_ns: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// Generate, clock and run one window; returns its timed ns.
    pub fn step(&mut self) -> u64 {
        self.sched.next_window(&mut self.tester, &mut self.plan);
        self.now = self.now.plus(DT_NS * self.plan.len() as u64);
        self.dut.window(&mut self.tester, &self.plan, self.now)
    }

    /// Open every flow the schedule starts with.
    pub fn populate(&mut self) {
        while self.sched.populating() {
            self.step();
        }
    }

    /// `windows` unmeasured windows.
    pub fn warm(&mut self, windows: usize) {
        for _ in 0..windows {
            self.step();
        }
    }

    fn measure(&mut self, mut more: impl FnMut(usize) -> bool) -> Segment {
        let probe_before = alu_probe_us();
        self.window_ns.clear();
        let good0 = self.tester.attempted - self.tester.failed;
        while more(self.window_ns.len()) {
            let ns = self.step();
            self.window_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        }
        let good = self.tester.attempted - self.tester.failed - good0;
        let probe_us = (probe_before + alu_probe_us()) / 2.0;
        let share = self.kind.core_bound_share();
        let seg = Segment::from_windows(&mut self.window_ns, good, probe_us, share);
        self.segments.push(seg);
        seg
    }

    /// One segment: timed windows until `budget` of wall time is spent
    /// (wall time, because only about a sixth of it is timed — the
    /// tester's stage, reap and check take the rest).
    pub fn segment(&mut self, budget: Duration) -> Segment {
        let t0 = Instant::now();
        // The clock is read every 16th window; never fewer than 16.
        self.measure(|done| done % 16 != 0 || done == 0 || t0.elapsed() < budget)
    }

    /// One segment of exactly `windows` timed windows.
    pub fn fixed_pass(&mut self, windows: usize) -> Segment {
        self.measure(|done| done < windows)
    }
}

/// A sim workload's run.
pub type SimRun = Run<SimDut<SimBackend, ShardedVigNatMb>>;

/// Construct and populate a sim workload (and, for `churn`, run it to
/// steady state). The tester and schedule are built first and are not
/// part of the measured set-up.
pub fn setup_sim(kind: Kind, seed: u64) -> (SimRun, SetupInfo) {
    let cfg = kind.cfg();
    let sched = kind.schedule(seed);
    let tester = Tester::new(cfg, sched.universe(), seed);
    let heap0 = alloc::snapshot().live;
    let probe_before = alu_probe_us();
    let t0 = Instant::now();
    let nf = ShardedVigNatMb::sharded(cfg, SIM_SHARDS);
    let io = SimBackend::new(RssClassifier::for_nat(&cfg, SIM_SHARDS), RING);
    let mut run = Run::new(
        kind,
        SimDut::new(io, nf, None),
        tester,
        sched,
        Time::from_secs(1),
    );
    run.populate();
    if kind == Kind::Churn {
        run.warm(CHURN_WARM_WINDOWS);
    }
    let secs = t0.elapsed().as_secs_f64();
    let info = SetupInfo {
        secs,
        to_ref: to_reference_speed(
            (probe_before + alu_probe_us()) / 2.0,
            kind.core_bound_share(),
        ),
        heap_bytes: alloc::snapshot().live.saturating_sub(heap0),
    };
    (run, info)
}

/// What is left of the `runtime` workload once its session has ended.
pub struct RuntimeAfter {
    /// The NAT, its table back from the workers.
    pub nat: ParallelShardedNat,
    /// The tester, with every mapping it learned.
    pub tester: Tester,
    /// The schedule where the session left it.
    pub sched: Schedule,
    /// Virtual time of the last window.
    pub now: Time,
    /// The runtime's own post-session report.
    pub report: RuntimeReport,
}

/// Burst capacity of the runtime's per-shard mempool (the scaling
/// bench's value).
pub const RUNTIME_BURST_CAPACITY: usize = 4_096;

/// Construct the `runtime` workload — one shard, one pinned worker —
/// spawn it (the worker pins itself within this thread's CPU mask),
/// populate it, and hand the live run to `body`. The session ends (and
/// the worker is joined) when `body` returns.
pub fn with_runtime_run<R>(
    seed: u64,
    body: impl FnOnce(&mut Run<RtDut<'_, '_>>, SetupInfo) -> R,
) -> (R, RuntimeAfter) {
    let kind = Kind::Runtime;
    let cfg = kind.cfg();
    let sched = kind.schedule(seed);
    let tester = Tester::new(cfg, sched.universe(), seed);
    let heap0 = alloc::snapshot().live;
    let probe_before = alu_probe_us();
    let t0 = Instant::now();
    let mut nat = ParallelShardedNat::new(cfg, 1, RUNTIME_BURST_CAPACITY);
    let ((r, tester, sched, now), report) = nat.with_runtime(true, |sess| {
        let mut run = Run::new(kind, RtDut::new(sess), tester, sched, Time::from_secs(1));
        run.populate();
        let secs = t0.elapsed().as_secs_f64();
        let info = SetupInfo {
            secs,
            to_ref: to_reference_speed(
                (probe_before + alu_probe_us()) / 2.0,
                kind.core_bound_share(),
            ),
            heap_bytes: alloc::snapshot().live.saturating_sub(heap0),
        };
        let r = body(&mut run, info);
        (r, run.tester, run.sched, run.now)
    });
    (
        r,
        RuntimeAfter {
            nat,
            tester,
            sched,
            now,
            report,
        },
    )
}

/// Frames a backend dropped at its RX rings, both ports.
pub fn rx_dropped<B: PacketIo>(io: &B) -> u64 {
    [Direction::Internal, Direction::External]
        .iter()
        .map(|&d| io.port_stats(d).rx_dropped)
        .sum()
}

/// The end-of-workload checks every sim DUT must pass: every buffer
/// back in the pool, nothing dropped at a ring, `staged = forwarded +
/// dropped` on every window. Returns what failed.
pub fn final_checks<B: TesterIo, M: Middlebox>(run: &Run<SimDut<B, M>>) -> Vec<String> {
    let io = run.dut.drv.io();
    let mut bad = Vec::new();
    if io.pool().available() != io.pool().capacity() {
        bad.push(format!(
            "buffer leak: {} of {} buffers back in the pool",
            io.pool().available(),
            io.pool().capacity()
        ));
    }
    let rx_dropped = rx_dropped(io);
    if rx_dropped != 0 {
        bad.push(format!("{rx_dropped} frames dropped at an RX ring"));
    }
    if run.dut.totals().tx_dropped != 0 {
        bad.push(format!(
            "{} frames dropped at a TX ring",
            run.dut.totals().tx_dropped
        ));
    }
    if !run.tester.conservation_ok {
        bad.push("conservation failed: staged != forwarded + dropped".into());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ItemKind, CHURN_ACTIVE};
    use vig_packet::tcp::flags;

    fn small_sim(kind: Kind, sched: Schedule, seed: u64) -> SimRun {
        let cfg = kind.cfg();
        let tester = Tester::new(cfg, sched.universe(), seed);
        let nf = ShardedVigNatMb::sharded(cfg, SIM_SHARDS);
        let io = SimBackend::new(RssClassifier::for_nat(&cfg, SIM_SHARDS), RING);
        let mut run = Run::new(
            kind,
            SimDut::new(io, nf, None),
            tester,
            sched,
            Time::from_secs(1),
        );
        run.populate();
        run
    }

    #[test]
    fn resident_hits_all_check_out() {
        let mut run = small_sim(Kind::HitsResident, Schedule::round_robin(RESIDENT_FLOWS), 3);
        assert_eq!(run.dut.nf.occupancy(), RESIDENT_FLOWS);
        let seg = run.fixed_pass(200);
        assert_eq!(seg.windows, 200);
        assert_eq!(run.tester.attempted, (RESIDENT_FLOWS + 200 * WINDOW) as u64);
        assert_eq!(run.tester.failed, 0);
        assert!(final_checks(&run).is_empty(), "{:?}", final_checks(&run));
        // Nothing allocates a mapping twice: occupancy is unchanged.
        assert_eq!(run.dut.nf.occupancy(), RESIDENT_FLOWS);
    }

    #[test]
    fn a_corrupted_expectation_raises_ops_failed() {
        let mut run = small_sim(Kind::HitsResident, Schedule::round_robin(RESIDENT_FLOWS), 3);
        run.fixed_pass(4);
        assert_eq!(run.tester.failed, 0);
        // Pretend flow 5 had been given another port: every later
        // packet of it now comes out "wrong".
        let (ip, port) = run.tester.learned(5).unwrap();
        run.tester.set_learned(5, ip, port ^ 1);
        run.fixed_pass(RESIDENT_FLOWS / 48 + 1);
        assert!(run.tester.failed >= 1, "oracle must notice the wrong port");

        // An expected drop that is forwarded, and an expected forward
        // that is dropped, both count.
        let mut run = small_sim(Kind::HitsResident, Schedule::round_robin(RESIDENT_FLOWS), 3);
        let reply = Item {
            flow: 7,
            kind: ItemKind::Ret,
            flags: flags::ACK,
        };
        let scan = Item {
            flow: 9_999, // UDP probe of port 9999: no such mapping
            kind: ItemKind::Scan,
            flags: 0,
        };
        let now = run.now.plus(1_000);
        // Staged a reply, told the oracle to expect nothing.
        crate::gen::stage_plan(run.dut.drv.io_mut(), &run.tester, &[reply]);
        run.tester.begin_window(&[scan]);
        run.dut.drv.drain(&mut run.dut.nf, now);
        for (_, f) in run.dut.drv.io_mut().reap(Direction::Internal) {
            run.tester.observe(Direction::Internal, &f);
        }
        run.tester.end_window(0);
        assert_eq!(run.tester.failed, 1, "unexpected forward");
        // Staged a probe, told the oracle to expect a reply.
        crate::gen::stage_plan(run.dut.drv.io_mut(), &run.tester, &[scan]);
        run.tester.begin_window(&[reply]);
        run.dut.drv.drain(&mut run.dut.nf, now);
        assert!(run.dut.drv.io_mut().reap(Direction::Internal).is_empty());
        run.tester.end_window(0);
        assert_eq!(run.tester.failed, 2, "missing forward");
    }

    #[test]
    fn same_seed_gives_identical_counts() {
        let counts = |seed| {
            let mut run = small_sim(Kind::HitsLarge, Schedule::permuted(8_192, seed), seed);
            run.fixed_pass(100);
            let t = run.dut.totals();
            let probes: usize = run
                .sched
                .resident_order()
                .iter()
                .take(512)
                .map(|&f| {
                    run.dut
                        .nf
                        .flow_manager()
                        .internal_probe_len(&run.tester.fid(f))
                })
                .sum();
            // (Allocation counts are process-wide and other tests run
            // beside this one; `--repeat` compares those across runs.)
            (t.bursts, t.polls, probes, run.tester.attempted)
        };
        assert_eq!(counts(21), counts(21));
        assert_ne!(counts(21).2, counts(22).2, "another seed, another order");
    }

    #[test]
    fn churn_holds_90_to_95_percent_with_no_table_full_drop() {
        let (mut run, _) = setup_sim(Kind::Churn, 17);
        let cap = Kind::Churn.cfg().capacity;
        let mut lo = usize::MAX;
        let mut hi = 0;
        for _ in 0..40 {
            run.warm(100);
            let occ = run.dut.nf.occupancy();
            lo = lo.min(occ);
            hi = hi.max(occ);
        }
        assert!(
            lo * 100 >= cap * 90 && hi * 100 <= cap * 95,
            "occupancy {lo}..{hi} of {cap} (active {CHURN_ACTIVE})"
        );
        // A table-full drop would be an expected forward that never
        // came out; so would a flow that expired while still in use.
        assert_eq!(run.tester.failed, 0);
        assert!(run.dut.nf.expired_total() > 0, "churn must expire flows");
        assert!(final_checks(&run).is_empty(), "{:?}", final_checks(&run));
    }

    #[test]
    fn runtime_hits_check_out_and_the_session_ends_cleanly() {
        let ((seg, failed), after) = with_runtime_run(5, |run, info| {
            assert!(info.heap_bytes > 0);
            (run.fixed_pass(50), run.tester.failed)
        });
        assert_eq!(seg.windows, 50);
        assert_eq!(failed, 0);
        assert_eq!(after.nat.occupancy(), RESIDENT_FLOWS);
        assert_eq!(after.report.chaos.pool_denied, 0);
        assert_eq!(after.report.pin.workers, 1);
    }
}
