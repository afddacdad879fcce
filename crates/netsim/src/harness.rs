//! The RFC 2544 measurement harness (paper §6, Fig. 11's methodology).
//!
//! Two experiments reproduce the paper's figures:
//!
//! * [`probe_latency`] — Fig. 12/13: measure per-packet middlebox
//!   residence time of *probe* packets (worst case: flow-table miss,
//!   expiry work, allocation) while N background flows occupy the
//!   table;
//! * the loss-bounded maximum throughput of Fig. 14 — measure the NF's
//!   per-packet service times on the steady-state (all-hits) workload
//!   ([`crate::eventloop::round_service_times`]), MAD-reject
//!   timer-noise outliers ([`mad_filter_ns`]), then binary-search the
//!   highest offered rate whose queue simulation loses ≤ 0.1% of
//!   packets at the device's RX-ring depth ([`search_rate_with_ci`]).
//!
//! Every frame of every experiment reaches its NF the same way — staged
//! through [`crate::backend::TesterIo`], drained by
//! [`crate::eventloop::BackendDriver`], reaped — so ring, mempool and
//! event-loop costs are inside the measurement uniformly for every NF,
//! mirroring how every paper NF pays the same DPDK rx/tx cost.

use crate::backend::SimBackend;
use crate::dpdk::{BufIdx, Mempool, MBUF_SIZE};
use crate::eventloop::{offer_background, offer_round, round_service_times, BackendDriver};
use crate::frame_env::{run_staged, BurstScratch, RssClassifier};
use crate::middlebox::{Middlebox, Verdict, VigNatMb};
use crate::runtime::{with_shard_runtime, RuntimeReport, ShardRuntimeSession, DEFAULT_RING_WORDS};
use crate::tester::{FlowGen, WorkloadMix};
use libvig::time::Time;
use vig_packet::Direction;
use vig_spec::NatConfig;
use vignat::{ShardedFlowManager, MAX_BURST};

// ---------------------------------------------------------------------------
// Sharded parallel driver (RSS model: one worker thread per shard)
// ---------------------------------------------------------------------------

/// The `std::thread`-based driver for the N-shard NAT: each shard runs
/// on its own worker with its own mempool, burst scratch, and expiry
/// clock — the software model of RSS hardware dispatch feeding one RX
/// queue per core.
///
/// Per burst: an (untimed, tester-side) dispatch pass routes each frame
/// to its shard — internal frames by the flow-key hash
/// ([`crate::frame_env::frame_flow_id`], the hash a NIC's RSS unit
/// would compute), external frames by the NAT port partition
/// ([`crate::frame_env::frame_l4_dst_port`]) —
/// then `std::thread::scope` runs every shard's sub-burst concurrently
/// through the ordinary batched fast path
/// ([`vignat::nat_process_batch`] over
/// [`crate::frame_env::BurstEnv`]). Shards share no state, so no locks
/// exist anywhere on the datapath; verdicts are scattered back to
/// arrival order afterwards.
///
/// Correctness, not wall-clock speed, is this driver's contract:
/// `tests/shard_equivalence.rs` proves it packet-for-packet equivalent
/// to the single-threaded sharded NAT ([`crate::middlebox::ShardedVigNatMb`])
/// and to N independent 1-shard NATs. Wall-clock scaling additionally
/// requires ≥ N physical cores (the throughput sweep reports the
/// core-count alongside its numbers; see `docs/BENCHMARKS.md`).
pub struct ParallelShardedNat {
    table: ShardedFlowManager,
    pools: Vec<Mempool>,
    scratches: Vec<BurstScratch>,
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
            scratches: (0..shards).map(|_| BurstScratch::default()).collect(),
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
    /// *same function* the multi-queue NIC model's hash unit computes,
    /// so hardware steering and software dispatch can never drift
    /// apart. Burst loops hoist this once and classify per frame.
    pub fn classifier(&self) -> RssClassifier {
        RssClassifier::for_table(&self.table)
    }

    /// The shard a frame arriving on `dir` is dispatched to — the RSS
    /// model: internal traffic by flow-key hash (the same memoized hash
    /// the flow table routes by, so the dispatch shard and the lookup
    /// shard always agree), return traffic by the port partition.
    pub fn dispatch(&self, dir: Direction, frame: &[u8]) -> usize {
        self.classifier().queue_of(dir, frame)
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
            scratches,
            clocks,
            expired_total,
        } = self;
        let (r, report) = with_shard_runtime(
            table,
            pools,
            scratches,
            DEFAULT_RING_WORDS,
            pin,
            |session| {
                let mut nat_session = NatRuntimeSession {
                    inner: session,
                    clocks,
                };
                f(&mut nat_session)
            },
        );
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
        let scratch = &mut self.scratches[s];
        let mut staged = Vec::with_capacity(bufs.len());
        let expired = run_staged(fm, pool, scratch, &cfg, dir, now, &bufs, &mut staged);
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
                staged.next().expect("one verdict per staged buffer").into()
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

/// One point of the shard-count throughput sweep
/// ([`sharded_throughput_sweep`]).
#[derive(Debug, Clone)]
pub struct ShardSweepPoint {
    /// Shard count of this point.
    pub shards: usize,
    /// Aggregate RFC 2544 max rate at ≤ 0.1% loss, Mpps: `shards ×` the
    /// slowest shard's rate (uniform RSS splits offered load evenly, so
    /// the slowest queue caps every share).
    pub mpps: f64,
    /// Aggregate batched NAT steps per second: the sum over shards of
    /// `1e9 / mean service ns` — the "batched step" rate the shard-count
    /// acceptance compares (2 shards ≥ 1.5× 1 shard).
    pub steps_per_sec: f64,
    /// Mean per-packet batched service time, averaged over shards (ns).
    pub mean_step_ns: f64,
    /// Each shard's individual ≤ 0.1%-loss rate (Mpps).
    pub per_shard_mpps: Vec<f64>,
}

/// The shard-count sweep behind `BENCH_throughput.json`'s
/// `sharded_sweep` object: for each shard count, measure every shard's
/// steady-state batched service times *on real code* (its own
/// [`VigNatMb`] over its slice of the capacity and port range, at
/// `occupancy` of its table), then aggregate under the multi-queue RSS
/// model — N independent RX queues, one core each, loss simulated per
/// queue exactly as [`search_rate_filtered`] does for one.
///
/// Per-shard tables are `capacity/N` slots, so higher shard counts also
/// shrink each core's working set — the sweep measures that real cache
/// effect; only the "N cores run concurrently" step is modeled (it is
/// exact when ≥ N physical cores exist, the deployment this models).
pub fn sharded_throughput_sweep(
    cfg: &NatConfig,
    shard_counts: &[usize],
    occupancy: f64,
    packets_per_shard: usize,
    texp_ns: u64,
    ring_cap: usize,
) -> Vec<ShardSweepPoint> {
    assert!((0.0..=1.0).contains(&occupancy));
    let gen = FlowGen::new(vig_packet::Proto::Udp);
    let mut points = Vec::with_capacity(shard_counts.len());
    for &n in shard_counts {
        let table = ShardedFlowManager::new(cfg, n); // config derivation only
        let mut per_rate = Vec::with_capacity(n);
        let mut steps_per_sec = 0.0;
        let mut mean_sum = 0.0;
        for s in 0..n {
            let scfg = table.shard_cfg(s);
            let flows = ((scfg.capacity as f64 * occupancy) as usize).max(1);
            let mut nf = VigNatMb::new(scfg);
            let (svc, _io) = round_service_times(
                SimBackend::new(RssClassifier::for_nat(&scfg, 1), ring_cap),
                &mut nf,
                &gen,
                flows,
                packets_per_shard,
                texp_ns,
            );
            // MAD-filtered like every rate search here: one descheduled
            // burst on one shard would otherwise cap the whole point
            // (mpps = n × slowest shard).
            let (mpps, mean, _) = search_rate_filtered(&svc, ring_cap);
            mean_sum += mean;
            steps_per_sec += if mean > 0.0 { 1e9 / mean } else { 0.0 };
            per_rate.push(mpps);
        }
        let slowest = per_rate.iter().cloned().fold(f64::INFINITY, f64::min);
        points.push(ShardSweepPoint {
            shards: n,
            mpps: n as f64 * slowest,
            steps_per_sec,
            mean_step_ns: mean_sum / n as f64,
            per_shard_mpps: per_rate,
        });
    }
    points
}

/// Burst size of the wall-clock phases: large bursts amortize dispatch
/// so the measurement is dominated by per-packet work, as in a real
/// poll-mode driver under load.
const WALL_BURST: usize = 4096;

/// Frame-builder of the scaling curve's loops: background flow `i` as
/// an owned frame.
fn wall_frame(gen: &FlowGen, i: u32, buf: &mut [u8]) -> Vec<u8> {
    let f = gen.background(i);
    let len = gen.write_frame(&f, buf);
    buf[..len].to_vec()
}

/// One point of the aggregate-Mpps scaling curve
/// ([`parallel_scaling_curve`]).
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Worker-thread count of this point (== shards).
    pub workers: usize,
    /// RFC 2544 ≤ 0.1%-loss rate over the pinned runtime's measured
    /// per-packet service times, Mpps ([`search_rate_with_ci`]).
    pub mpps: f64,
    /// Bootstrap 95% CI on `mpps`, low end.
    pub ci95_lo_mpps: f64,
    /// Bootstrap 95% CI on `mpps`, high end.
    pub ci95_hi_mpps: f64,
    /// MAD-filtered mean per-packet wall time through the runtime (ns).
    pub mean_step_ns: f64,
    /// Timer-noise samples rejected by the MAD filter.
    pub outliers_rejected: usize,
    /// Raw large-burst wall-clock rate of the same session (Mpps) — the
    /// "what this host actually did" companion to the searched rate.
    pub wallclock_mpps: f64,
    /// Workers whose `sched_setaffinity` succeeded at this point.
    pub pinned_workers: usize,
}

/// The aggregate-Mpps-vs-workers scaling curve
/// ([`ScalingPoint`]s plus host attribution).
#[derive(Debug, Clone)]
pub struct ScalingCurve {
    /// Flow-table occupancy during measurement (fraction of capacity).
    pub occupancy: f64,
    /// CPUs the process may run on (`sched_getaffinity`) — the honest
    /// parallelism budget; points with `workers > host_cores` time-slice
    /// and are expected to scale sublinearly or not at all.
    pub host_cores: usize,
    /// Whether pinning was requested (per-point `pinned_workers` says
    /// whether it worked).
    pub pinning_requested: bool,
    /// One point per requested worker count.
    pub points: Vec<ScalingPoint>,
}

/// The parallel RFC 2544 mode behind `BENCH_throughput.json`'s
/// `scaling_curve`: for each worker count, run one persistent pinned
/// runtime session, measure steady-state all-hit per-packet wall times
/// through the *whole* dispatcher→rings→workers→merge path in
/// [`MAX_BURST`]-sized bursts, and search the maximum ≤ 0.1%-loss rate
/// with bootstrap CIs ([`search_rate_with_ci`]) — the same methodology
/// as every single-core rate here, applied to the parallel datapath.
/// A second, large-burst pass reports the raw wall-clock rate of the
/// same session. Both are wall-clock numbers: on a host with fewer
/// cores than workers the curve honestly flattens (the per-point pin
/// and core attribution lets readers interpret it).
pub fn parallel_scaling_curve(
    cfg: &NatConfig,
    worker_counts: &[usize],
    occupancy: f64,
    packets: usize,
    ring_cap: usize,
) -> ScalingCurve {
    assert!((0.0..=1.0).contains(&occupancy));
    let burst = MAX_BURST.max(1);
    let gen = FlowGen::new(vig_packet::Proto::Udp);
    let mut points = Vec::with_capacity(worker_counts.len());
    let mut host_cores = 1;
    for &n in worker_counts {
        let mut nat = ParallelShardedNat::new(*cfg, n, WALL_BURST);
        let flows =
            ((n as f64 * nat.table().per_shard_capacity() as f64 * occupancy) as usize).max(1);
        let mut buf = vec![0u8; MBUF_SIZE];
        let ((svc, wallclock_mpps), report) = nat.with_runtime(true, |session| {
            let mut now = Time::from_secs(1);
            // Populate (untimed).
            for chunk_start in (0..flows).step_by(WALL_BURST) {
                let mut frames: Vec<Vec<u8>> = (chunk_start..flows.min(chunk_start + WALL_BURST))
                    .map(|i| wall_frame(&gen, i as u32, &mut buf))
                    .collect();
                now = now.plus(1_000);
                session.process_burst(Direction::Internal, &mut frames, now);
            }
            // Service-time phase: MAX_BURST bursts, per-packet = burst
            // mean, virtual time advancing slowly enough that nothing
            // expires (mirrors `round_service_times`).
            let bursts = packets.div_ceil(burst) as u64;
            let step = ((cfg.expiry_ns / 4) / (bursts * 8 + 1)).max(1);
            let mut samples = Vec::with_capacity(packets);
            let mut next = 0u32;
            while samples.len() < packets {
                let count = burst.min(packets - samples.len());
                let mut frames: Vec<Vec<u8>> = (0..count)
                    .map(|k| wall_frame(&gen, (next + k as u32) % flows as u32, &mut buf))
                    .collect();
                next = (next + count as u32) % flows as u32;
                now = now.plus(step);
                let t = std::time::Instant::now();
                session.process_burst(Direction::Internal, &mut frames, now);
                let ns = t.elapsed().as_nanos() as u64;
                let per_packet = (ns / count as u64).max(1);
                samples.extend(std::iter::repeat_n(per_packet, count));
            }
            samples.truncate(packets);
            // Wall-clock phase: same session, large bursts.
            let mut done = 0usize;
            let mut elapsed_ns = 0u64;
            while done < packets {
                let count = WALL_BURST.min(packets - done);
                let mut frames: Vec<Vec<u8>> = (0..count)
                    .map(|k| wall_frame(&gen, (next + k as u32) % flows as u32, &mut buf))
                    .collect();
                next = (next + count as u32) % flows as u32;
                now = now.plus(step);
                let t = std::time::Instant::now();
                session.process_burst(Direction::Internal, &mut frames, now);
                elapsed_ns += t.elapsed().as_nanos() as u64;
                done += count;
            }
            let wall = if elapsed_ns == 0 {
                0.0
            } else {
                done as f64 / (elapsed_ns as f64 / 1e9) / 1e6
            };
            (LatencySamples { ns: samples }, wall)
        });
        host_cores = report.pin.host_cores;
        let est = search_rate_with_ci(&svc, ring_cap);
        points.push(ScalingPoint {
            workers: n,
            mpps: est.mpps,
            ci95_lo_mpps: est.ci95_lo_mpps,
            ci95_hi_mpps: est.ci95_hi_mpps,
            mean_step_ns: est.mean_ns,
            outliers_rejected: est.outliers_rejected,
            wallclock_mpps,
            pinned_workers: report.pin.pinned,
        });
    }
    ScalingCurve {
        occupancy,
        host_cores,
        pinning_requested: true,
        points,
    }
}

/// Latency samples with the summary statistics the paper reports.
#[derive(Debug, Clone)]
pub struct LatencySamples {
    /// Raw per-packet middlebox residence times, nanoseconds.
    pub ns: Vec<u64>,
}

impl LatencySamples {
    /// Arithmetic mean (Fig. 12's y-axis).
    pub fn mean(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64
    }

    /// The p-th percentile (0.0..=1.0), by nearest-rank.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.ns.is_empty() {
            return 0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// CCDF points `(latency_ns, P[latency > x])` at each distinct
    /// sample value (Fig. 13's curve).
    pub fn ccdf(&self) -> Vec<(u64, f64)> {
        if self.ns.is_empty() {
            return Vec::new();
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mut out = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let v = sorted[i];
            let mut j = i;
            while j < sorted.len() && sorted[j] == v {
                j += 1;
            }
            out.push((v, (sorted.len() - j) as f64 / n));
            i = j;
        }
        out
    }
}

/// Ring depth of [`probe_latency`]'s simulated port (512 descriptors
/// is the representative DPDK default used throughout the benches).
const PROBE_RING: usize = 512;

/// Fig. 12 experiment. Builds `mix.background_flows` flows, keeps every
/// one of them refreshed at least once per `2/3 · Texp` of virtual
/// time, and measures `mix.probe_packets` probe packets, each staged
/// alone on a 1-queue [`SimBackend`] and timed through one
/// [`BackendDriver`] drain. With the default 2 s expiry each probe
/// flow's own packet gap exceeds `Texp`, so every probe is the paper's
/// worst case: a table miss that triggers expiry work and a fresh
/// allocation. Returns the probe samples.
pub fn probe_latency(nf: &mut dyn Middlebox, mix: &WorkloadMix) -> LatencySamples {
    let gen = FlowGen::new(vig_packet::Proto::Udp);
    // One queue: every frame classifies to queue 0 whatever the pool,
    // so the classifier's NAT config is immaterial (and the NF under
    // test need not be a NAT at all).
    let classifier = RssClassifier::for_nat(&NatConfig::paper_default(), 1);
    let mut drv = BackendDriver::new(SimBackend::new(classifier, PROBE_RING));
    let bg = mix.background_flows;
    let batch = mix.probe_batch.max(1);
    let pool = mix.probe_pool.max(1) as u32;

    let mut now = offer_background(&mut drv, nf, &gen, bg, Time::from_secs(1), 1_000);

    // One window = Texp/2 of virtual time, in three equal sections: two
    // full refresh passes, then the probe batch. No background flow
    // goes unrefreshed for more than Texp/3, and a probe flow that
    // recurs within one window (pool <= batch) is refreshed at most
    // Texp/2 apart — both safely inside the expiry, while fresh-tuple
    // probes (huge pool) still miss every time.
    let third = mix.texp_ns / 6;
    let mut samples = Vec::with_capacity(mix.probe_packets);
    let mut probe_id = 0u32;
    'outer: loop {
        for _pass in 0..2 {
            // Rounds 128 ns apart keep the clock strictly monotone.
            now = offer_background(&mut drv, nf, &gen, bg, now.plus(third), 128);
        }
        let probe_gap = third / (batch as u64 + 1);
        for _ in 0..batch {
            if samples.len() >= mix.probe_packets {
                break 'outer;
            }
            now = now.plus(probe_gap.max(1));
            let probe = gen.probe(probe_id % pool);
            probe_id += 1;
            let (staged, stats) = offer_round(&mut drv, nf, &gen, std::iter::once(probe), now);
            assert_eq!(staged, 1, "an idle ring admits one probe");
            samples.push(stats.elapsed_ns);
        }
        now = now.plus(third - probe_gap * batch as u64);
    }
    LatencySamples { ns: samples }
}

/// The modified-z-score cutoff for MAD outlier rejection: the standard
/// Iglewicz–Hoaglin recommendation (samples with
/// `|0.6745·(x − median)/MAD| > MAD_Z_CUTOFF` are rejected).
pub const MAD_Z_CUTOFF: f64 = 3.5;

/// MAD-based outlier rejection (Iglewicz–Hoaglin modified z-score) —
/// the canonical implementation, shared by every RFC 2544 rate search
/// here and by `vig_bench::Series` (which re-exports it). Returns the
/// retained samples and the rejected count. When the MAD is zero (over
/// half the samples identical — a perfectly quiet series) nothing is
/// rejected: the z-score is undefined and the series needs no
/// cleaning.
///
/// Why the rate searches need it: the loss search is extremely
/// tail-sensitive, so on a shared host a single descheduled burst (a
/// handful of samples inflated ~100x) can drag a ~10 Mpps point to
/// 0.2. Rejection counts are reported alongside results so the
/// cleaning is auditable.
pub fn mad_filter(samples: &[f64]) -> (Vec<f64>, usize) {
    assert!(!samples.is_empty(), "mad_filter needs samples");
    let median_sorted = |sorted: &[f64]| -> f64 {
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        }
    };
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let med = median_sorted(&sorted);
    let mut dev: Vec<f64> = samples.iter().map(|x| (x - med).abs()).collect();
    dev.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mad = median_sorted(&dev);
    if mad == 0.0 {
        return (samples.to_vec(), 0);
    }
    let keep: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|x| (0.6745 * (x - med) / mad).abs() <= MAD_Z_CUTOFF)
        .collect();
    let rejected = samples.len() - keep.len();
    (keep, rejected)
}

/// [`mad_filter`] over integer nanosecond samples (lossless: service
/// times are far below 2^53).
pub fn mad_filter_ns(samples: &[u64]) -> (Vec<u64>, usize) {
    let f: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    let (keep, rejected) = mad_filter(&f);
    (keep.into_iter().map(|x| x as u64).collect(), rejected)
}

/// FIFO queue simulation: deterministic arrivals at `rate_pps`, service
/// times drawn cyclically from `service_ns`, queue bounded at
/// `ring_cap`. Returns the fraction of arrivals dropped.
pub fn queue_loss(service_ns: &[u64], rate_pps: f64, ring_cap: usize) -> f64 {
    assert!(!service_ns.is_empty());
    assert!(rate_pps > 0.0);
    let inter_ns = 1e9 / rate_pps;
    // Long enough that the bounded ring's transient absorption (it can
    // swallow `ring_cap` packets before any loss shows) cannot hide a
    // 0.1% steady-state loss — the reason RFC 2544 mandates long trials.
    let n = (service_ns.len() * 4).max(ring_cap * 400).max(200_000);
    let mut dropped = 0usize;
    // completion times of queued-but-unfinished packets
    let mut busy_until = 0.0f64;
    let mut queue: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
    for k in 0..n {
        let arrival = k as f64 * inter_ns;
        // retire completed packets
        while let Some(&done) = queue.front() {
            if done <= arrival {
                queue.pop_front();
            } else {
                break;
            }
        }
        if queue.len() >= ring_cap {
            dropped += 1;
            continue;
        }
        let s = service_ns[k % service_ns.len()] as f64;
        let start = busy_until.max(arrival);
        busy_until = start + s;
        queue.push_back(busy_until);
    }
    dropped as f64 / n as f64
}

/// RFC 2544 binary search: the highest rate (pps) with loss ≤
/// `loss_bound` under [`queue_loss`]. Search window `[lo, hi]` pps.
pub fn max_rate_with_loss(
    service_ns: &[u64],
    ring_cap: usize,
    loss_bound: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    let mut lo = lo;
    let mut hi = hi;
    // If even `lo` loses, report 0 — the NF can't sustain the floor.
    if queue_loss(service_ns, lo, ring_cap) > loss_bound {
        return 0.0;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if queue_loss(service_ns, mid, ring_cap) <= loss_bound {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// MAD-reject outliers from a service-time series, then run the
/// RFC 2544 rate search on the retained samples. Returns
/// (Mpps, mean retained service ns, samples rejected).
pub fn search_rate_filtered(svc: &LatencySamples, ring_cap: usize) -> (f64, f64, usize) {
    let (kept, rejected) = mad_filter_ns(&svc.ns);
    let mean = kept.iter().sum::<u64>() as f64 / kept.len() as f64;
    let pps = max_rate_with_loss(&kept, ring_cap, 0.001, 1e4, 1e9);
    (pps / 1e6, mean, rejected)
}

/// An RFC 2544 rate estimate with a bootstrap confidence interval
/// (see [`search_rate_with_ci`]).
///
/// **Read the two statistics for what they are.** `mpps` is the loss
/// search over the *pooled* series: it is gated by the slowest
/// contiguous stretch of the whole run, which makes it a conservative,
/// trajectory-comparable floor (and exactly what every committed
/// `BENCH_throughput.json` before the CI existed reported). The
/// interval bounds the *mean per-trial rate* — trials see only their
/// own slow stretches, so their mean sits at or above the pooled
/// search, and the interval can therefore lie entirely above `mpps`.
/// That is information, not error: a point far below its interval
/// means one slow phase of the run capped the pooled search, while a
/// point inside it means the run was uniform. The interval's job is to
/// calibrate *trial-to-trial spread* when comparing cells across PRs.
#[derive(Debug, Clone)]
pub struct RateEstimate {
    /// Point estimate: the rate search over all retained samples, Mpps
    /// (identical to [`search_rate_filtered`]'s first component).
    pub mpps: f64,
    /// Lower bound of the 95% bootstrap CI on the **mean per-trial
    /// rate**, Mpps (see the type docs for how this relates to
    /// `mpps`).
    pub ci95_lo_mpps: f64,
    /// Upper bound of the 95% bootstrap CI on the mean per-trial rate,
    /// Mpps.
    pub ci95_hi_mpps: f64,
    /// Mean retained service time, ns.
    pub mean_ns: f64,
    /// Service-time samples rejected as MAD outliers.
    pub outliers_rejected: usize,
    /// The per-trial rates the bootstrap resampled (Mpps, one per
    /// contiguous trial chunk). The bootstrap interval always lies
    /// within `[min, max]` of these.
    pub per_trial_mpps: Vec<f64>,
}

/// Split a service-time series into exactly `trials` contiguous chunks
/// (sizes differing by at most one sample) and run the full filtered
/// rate search on each — the "per-trial rates" an RFC 2544 run would
/// report from repeated independent trials. Chunks are contiguous (not
/// interleaved) so slow phases of the run — cache warmup, a noisy
/// neighbour mid-measurement — land in *one* trial and widen the
/// interval instead of averaging away invisibly.
pub fn per_trial_rates(svc: &LatencySamples, ring_cap: usize, trials: usize) -> Vec<f64> {
    assert!(trials >= 2, "need at least two trials for an interval");
    let n = svc.ns.len();
    assert!(n >= trials, "fewer samples than trials");
    // Exact partition: the first `n % trials` chunks carry one extra
    // sample, so the result always has `trials` entries (a plain
    // `chunks(ceil)` split can come up short, e.g. 17 samples / 8
    // trials -> 6 chunks).
    let base = n / trials;
    let rem = n % trials;
    let mut start = 0usize;
    (0..trials)
        .map(|t| {
            let len = base + usize::from(t < rem);
            let c = &svc.ns[start..start + len];
            start += len;
            let (mpps, _, _) = search_rate_filtered(&LatencySamples { ns: c.to_vec() }, ring_cap);
            mpps
        })
        .collect()
}

/// Percentile bootstrap 95% CI of the mean of `values`: resample with
/// replacement `resamples` times (deterministic SplitMix64 stream from
/// `seed`, so benches are reproducible), take the mean of each
/// resample, and report the 2.5th/97.5th percentiles of those means.
/// Returns `(lo, hi)`.
pub fn bootstrap_mean_ci95(values: &[f64], resamples: usize, seed: u64) -> (f64, f64) {
    assert!(!values.is_empty(), "bootstrap needs values");
    assert!(resamples >= 40, "too few resamples for 95% percentiles");
    let mut state = seed;
    let mut next = move || {
        // SplitMix64: the same generator MapKey<u64> uses, seeded once.
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let n = values.len();
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let sum: f64 = (0..n).map(|_| values[(next() % n as u64) as usize]).sum();
            sum / n as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("no NaN means"));
    let pick = |p: f64| {
        let rank = ((p * means.len() as f64).ceil() as usize).clamp(1, means.len());
        means[rank - 1]
    };
    (pick(0.025), pick(0.975))
}

/// Number of trials and bootstrap resamples the CI-carrying rate
/// searches use (fixed so committed trajectories are comparable).
pub const RATE_CI_TRIALS: usize = 8;
/// Bootstrap resample count for [`search_rate_with_ci`].
pub const RATE_CI_RESAMPLES: usize = 1000;

/// [`search_rate_filtered`] plus a bootstrap 95% confidence interval:
/// the point estimate comes from the rate search over all retained
/// samples (unchanged from the committed trajectory), and the interval
/// from resampling [`RATE_CI_TRIALS`] per-trial rates
/// [`RATE_CI_RESAMPLES`] times — the ROADMAP follow-up ("bootstrap CIs
/// for the rate searches themselves") left from the MAD-rejection PR.
/// The interval bounds the mean per-trial rate, **not** the pooled
/// point estimate, and may sit entirely above it — see
/// [`RateEstimate`]'s docs for how to read the pair.
pub fn search_rate_with_ci(svc: &LatencySamples, ring_cap: usize) -> RateEstimate {
    let (mpps, mean_ns, outliers_rejected) = search_rate_filtered(svc, ring_cap);
    let per_trial_mpps = per_trial_rates(svc, ring_cap, RATE_CI_TRIALS);
    let (ci95_lo_mpps, ci95_hi_mpps) =
        bootstrap_mean_ci95(&per_trial_mpps, RATE_CI_RESAMPLES, 0x5eed_2544);
    RateEstimate {
        mpps,
        ci95_lo_mpps,
        ci95_hi_mpps,
        mean_ns,
        outliers_rejected,
        per_trial_mpps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::{Ip4, Proto};
    use vig_spec::NatConfig;

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
    fn probe_latency_keeps_occupancy_stable() {
        let mut nf = VigNatMb::new(cfg(512));
        let mix = WorkloadMix {
            background_flows: 64,
            probe_packets: 24,
            probe_batch: 4,
            texp_ns: Time::from_secs(2).nanos(),
            probe_pool: 1_000,
        };
        let s = probe_latency(&mut nf, &mix);
        assert_eq!(s.ns.len(), 24);
        // Occupancy: 64 background + at most ~4 windows' worth of
        // probes still inside Texp (window = Texp/2).
        assert!(
            (64..=64 + 16).contains(&nf.occupancy()),
            "occupancy {} drifted",
            nf.occupancy()
        );
        assert!(nf.expired_total() >= 8, "old probe flows must have expired");
    }

    #[test]
    fn probe_latency_with_long_expiry_turns_probes_into_hits() {
        // The paper's in-text 60 s-expiry experiment: probe flows cycle
        // through a small pool and never expire, so after the first
        // round every probe is a lookup hit. (NF expiry must match the
        // workload's 60 s — they describe the same NAT parameter.)
        let mut nf = VigNatMb::new(NatConfig {
            expiry_ns: Time::from_secs(60).nanos(),
            ..cfg(512)
        });
        let mix = WorkloadMix {
            background_flows: 32,
            probe_packets: 40,
            probe_batch: 10, // batch >= pool: probes recur every window
            texp_ns: Time::from_secs(60).nanos(),
            probe_pool: 10,
        };
        let s = probe_latency(&mut nf, &mix);
        assert_eq!(s.ns.len(), 40);
        assert_eq!(nf.expired_total(), 0, "nothing expires at 60 s");
        assert_eq!(
            nf.occupancy(),
            32 + 10,
            "background + probe pool all resident"
        );
    }

    /// An NF seen one frame at a time: forwards `process` and leaves
    /// `process_burst` at the trait default.
    struct PerFrame(VigNatMb);

    impl Middlebox for PerFrame {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict {
            self.0.process(dir, frame, now)
        }
    }

    fn steady_state(nf: &mut dyn Middlebox, c: &NatConfig) -> LatencySamples {
        let io = SimBackend::new(RssClassifier::for_nat(c, 1), 64);
        let gen = FlowGen::new(Proto::Udp);
        round_service_times(io, nf, &gen, 32, 500, c.expiry_ns).0
    }

    #[test]
    fn steady_state_is_all_hits() {
        let c = cfg(128);
        let mut nf = PerFrame(VigNatMb::new(c));
        let s = steady_state(&mut nf, &c);
        assert_eq!(s.ns.len(), 500);
        assert_eq!(nf.0.occupancy(), 32, "no flow may expire mid-experiment");
        assert_eq!(nf.0.expired_total(), 0);
    }

    #[test]
    fn batched_steady_state_is_all_hits_too() {
        let c = cfg(128);
        let mut nf = VigNatMb::new(c);
        let s = steady_state(&mut nf, &c);
        assert_eq!(s.ns.len(), 500);
        assert_eq!(nf.occupancy(), 32, "no flow may expire mid-experiment");
        assert_eq!(nf.expired_total(), 0);
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

    #[test]
    fn sharded_sweep_reports_aggregate_scaling() {
        let cfg = NatConfig {
            expiry_ns: Time::from_secs(60).nanos(), // nothing expires mid-sweep
            ..cfg(1024)
        };
        let points =
            sharded_throughput_sweep(&cfg, &[1, 2], 0.5, 2_000, Time::from_secs(60).nanos(), 64);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].shards, 1);
        assert_eq!(points[1].per_shard_mpps.len(), 2);
        assert!(points.iter().all(|p| p.mpps > 0.0 && p.mean_step_ns > 0.0));
        // The multi-queue aggregate of two shards must comfortably beat
        // one (the acceptance threshold is 1.5x at bench scale).
        assert!(
            points[1].steps_per_sec > points[0].steps_per_sec,
            "2-shard aggregate step rate must exceed 1-shard"
        );
    }

    #[test]
    fn queue_loss_is_zero_below_capacity_and_high_above() {
        let svc = vec![1_000u64; 256]; // 1 µs per packet => 1 Mpps capacity
        assert_eq!(queue_loss(&svc, 0.5e6, 512), 0.0);
        assert!(
            queue_loss(&svc, 2.0e6, 512) > 0.3,
            "2x overload loses heavily"
        );
    }

    #[test]
    fn per_trial_rates_agree_on_quiet_series() {
        // Uniform service times: every trial finds the same knee, so
        // the bootstrap interval collapses around the point estimate.
        let svc = LatencySamples {
            ns: vec![1_000u64; 4_000],
        };
        let rates = per_trial_rates(&svc, 512, RATE_CI_TRIALS);
        assert_eq!(rates.len(), RATE_CI_TRIALS);
        assert!(rates.iter().all(|&r| (0.9..=1.1).contains(&r)));
        let (lo, hi) = bootstrap_mean_ci95(&rates, 200, 7);
        assert!(lo <= hi);
        assert!((0.9..=1.1).contains(&lo) && (0.9..=1.1).contains(&hi));
    }

    #[test]
    fn bootstrap_ci_widens_with_trial_variance() {
        let quiet = [1.0f64; 8];
        let noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2];
        let (ql, qh) = bootstrap_mean_ci95(&quiet, 200, 42);
        let (nl, nh) = bootstrap_mean_ci95(&noisy, 200, 42);
        assert!(qh - ql < 1e-12, "identical trials: degenerate interval");
        assert!(nh - nl > 0.1, "spread trials: visible interval");
        // the interval brackets the sample mean
        assert!(nl <= 1.0 && 1.0 <= nh);
    }

    #[test]
    fn bootstrap_is_deterministic_per_seed() {
        let v = [0.9, 1.1, 1.0, 1.05, 0.95];
        assert_eq!(
            bootstrap_mean_ci95(&v, 100, 1),
            bootstrap_mean_ci95(&v, 100, 1)
        );
        assert_ne!(
            bootstrap_mean_ci95(&v, 100, 1),
            bootstrap_mean_ci95(&v, 100, 2)
        );
    }

    #[test]
    fn search_rate_with_ci_point_and_interval_semantics() {
        // Two-level service times (fast then slow halves): per-trial
        // rates differ. The point estimate must match the pooled
        // search exactly (trajectory comparability), and the interval
        // must bound the mean per-trial rate — every bootstrap
        // resample is a mean of per-trial values, so the interval is
        // guaranteed to lie within [min, max] of the trials. The
        // pooled point may legitimately sit below the interval (it is
        // gated by the slowest stretch); what is guaranteed is that it
        // cannot exceed the fastest trial.
        let mut ns = vec![800u64; 2_000];
        ns.extend(vec![1_200u64; 2_000]);
        let svc = LatencySamples { ns };
        let est = search_rate_with_ci(&svc, 512);
        let (mpps, mean, rejected) = search_rate_filtered(&svc, 512);
        assert_eq!(est.mpps, mpps);
        assert_eq!(est.mean_ns, mean);
        assert_eq!(est.outliers_rejected, rejected);
        assert_eq!(est.per_trial_mpps.len(), RATE_CI_TRIALS);
        let min = est
            .per_trial_mpps
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = est.per_trial_mpps.iter().cloned().fold(0.0f64, f64::max);
        assert!(est.ci95_lo_mpps <= est.ci95_hi_mpps);
        assert!(est.ci95_lo_mpps >= min && est.ci95_hi_mpps <= max);
        assert!(est.mpps > 0.0 && est.mpps <= max * 1.001);
    }

    #[test]
    fn per_trial_rates_always_returns_exactly_trials_chunks() {
        // 17 samples over 8 trials: a ceil-chunked split would yield 6
        // chunks; the exact partition must yield 8, sizes 3/3/2/2/...
        for n in [17usize, 8, 100, 101, 4_003] {
            let svc = LatencySamples {
                ns: vec![1_000u64; n],
            };
            let rates = per_trial_rates(&svc, 64, 8);
            assert_eq!(rates.len(), 8, "n={n}");
            assert!(rates.iter().all(|&r| r > 0.0));
        }
    }

    #[test]
    fn rate_search_finds_the_knee() {
        let svc = vec![1_000u64; 256]; // capacity exactly 1 Mpps
        let rate = max_rate_with_loss(&svc, 512, 0.001, 1e4, 1e8);
        assert!(
            (0.9e6..=1.1e6).contains(&rate),
            "search found {rate} pps, expected ~1e6"
        );
    }

    #[test]
    fn latency_stats() {
        let s = LatencySamples {
            ns: vec![10, 20, 30, 40],
        };
        assert_eq!(s.mean(), 25.0);
        assert_eq!(s.percentile(0.5), 20);
        assert_eq!(s.percentile(1.0), 40);
        let ccdf = s.ccdf();
        assert_eq!(ccdf[0], (10, 0.75));
        assert_eq!(ccdf[3], (40, 0.0));
    }
}
