//! The persistent core-pinned shard runtime: long-lived worker threads
//! fed through lock-free SPSC rings, under a supervising dispatcher.
//!
//! The deployment shape of the N-shard NAT
//! ([`ParallelShardedNat`](crate::harness::ParallelShardedNat) drives
//! it): thread creation is paid once per session, never per burst —
//! the software analog of DPDK's `rte_eal_remote_launch` + `rte_ring`
//! topology:
//!
//! * **one long-lived worker thread per shard**, spawned once per
//!   session ([`with_shard_runtime`]) and kept hot across every burst;
//! * each worker **pinned to a CPU** with `sched_setaffinity` (via the
//!   safe wrappers in [`crate::backend::os`]; `unsafe` stays confined
//!   to that module's `sys` block). Pinning failure — unprivileged or
//!   cgroup-restricted runners — degrades gracefully to unpinned
//!   persistent workers, and the [`PinReport`] says so;
//! * dispatcher ↔ worker traffic rides two [`libvig::spsc`] rings per
//!   shard (jobs down, results up): single-producer/single-consumer,
//!   cache-line-padded cursors, bulk transfers — no locks anywhere on
//!   the datapath, matching the paper's no-shared-state discipline
//!   (§5: every structure single-owner);
//! * workers **busy-poll with exponential idle backoff** (spin → yield
//!   → sleep, the thread-world analog of
//!   [`crate::eventloop::Poller`]'s virtual backoff), so an idle shard
//!   cedes its core — which matters on the very runners where pinning
//!   is also restricted. A session with more threads than the host has
//!   cores skips the spin phase on both sides.
//!
//! ## Transport
//!
//! Control travels as `u64` words; frame payloads are packed 8 bytes
//! per word by [`spsc::Producer::push_bytes`], straight from the
//! caller's frame into the job ring, straight from the ring into a
//! worker-pool buffer, and back the same way — two copies per
//! direction, no staging vectors, nothing allocated per burst once the
//! session's and workers' scratch has grown to the burst size.
//!
//! ```text
//! job:      count, dir, now_ns, len × count, payload × count
//! response: STATUS_OK, expired, pool_denied, verdict × count,
//!           payload × (frames whose verdict is not DENIED)
//!      or:  STATUS_DOWN, repinned, 0, DENIED × count
//! ```
//!
//! ## Determinism (the oracle contract)
//!
//! Parallelism changes *when* work happens, never *what* the result
//! is. Dispatch is the same RSS function the flow table routes by, so
//! shards share no flow state; each worker drains its sub-burst
//! run-to-completion in [`MAX_BURST`] chunks (an empty sub-burst still
//! runs one empty chunk — the expiry tick a polling core performs
//! every iteration); and the dispatcher merges results in shard order,
//! scattering verdicts and rewritten bytes back to arrival positions.
//! The result: for any interleaving of worker execution, N-worker
//! output and state are byte-identical to the sequential
//! [`ShardedFlowManager`] oracle — `tests/runtime_equivalence.rs`
//! proves it differentially at 1/2/4 workers.
//!
//! ## Supervision (graceful degradation)
//!
//! The paper's proof covers the loop body; a deployment also has to
//! survive the loop body's *host* misbehaving. Three failure classes
//! are handled, each with full loss attribution (every frame that
//! does not come back forwarded is counted in exactly one
//! [`SupervisorStats`] bucket):
//!
//! 1. **Worker panic.** Each worker reads its *entire* job off the
//!    ring before touching shard state, and pushes nothing until the
//!    job has run to completion — so the rings only ever see whole
//!    responses, never a torn stream. The job itself runs under
//!    `catch_unwind`; on panic the worker discards the suspect shard
//!    state ([`vignat::FlowManager::reset`] — mid-batch, any subset of
//!    table/chain updates may have landed — plus a fresh
//!    [`Mempool`], since staged buffers leak on unwind), re-attempts
//!    its pin, and answers with a two-word `DOWN` report instead of a
//!    result body. The dispatcher maps the whole job to
//!    [`Verdict::Drop`], records a [`WorkerDown`] event, and the next
//!    burst finds the shard alive and empty. Surviving shards are
//!    untouched: their merge is byte-identical to a run where the dead
//!    shard's frames simply never arrived.
//! 2. **Worker death.** If a shard stops making ring progress for
//!    longer than the session's stall budget
//!    ([`ShardRuntimeSession::set_stall_budget`]), the dispatcher
//!    retires it: the in-flight job is dropped with accounting, the
//!    dead result ring is drained (words counted, not abandoned), and
//!    the shard is marked dead. This is also the **bounded
//!    backpressure** guarantee — a full job ring can delay a burst by
//!    at most the stall budget, never stall it forever.
//! 3. **Retired shards.** Frames the RSS function routes to a dead
//!    shard are dropped at dispatch (`backpressure_drops`), before any
//!    ring traffic — the session keeps serving every surviving shard.
//!
//! Mempool exhaustion inside a worker is *not* a failure: admission is
//! checked per frame as the job is read (a job holds its buffers until
//! its response is out), denied frames come back as [`Verdict::Drop`]
//! with their bytes unmodified, and the count rides the response into
//! `SupervisorStats::pool_denied`.
//!
//! ## Deadlock freedom
//!
//! Rings are bounded, so a naive "push whole job, then read whole
//! result" dispatcher could deadlock against a worker blocked on a
//! full result ring. The dispatcher therefore never blocks: it pumps
//! round-robin — push as much of each job as fits, drain whatever of
//! each response arrived — until every stream completes or exceeds its
//! stall budget. Workers *may* block (with backoff) on both rings,
//! because the dispatcher is always draining the other end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::dpdk::{BufIdx, Mempool, MBUF_SIZE};
use crate::frame_env::RssClassifier;
use crate::middlebox::{run_staged, Verdict};
use libvig::spsc;
use libvig::time::Time;
use vig_packet::Direction;
use vignat::{ShardedFlowManager, MAX_BURST};

/// Job-stream sentinel header: "session over, worker exits".
const SHUTDOWN: u64 = u64::MAX;

/// Job-stream sentinel header: arm the worker to panic partway through
/// its next job — the chaos seam behind the supervised-restart tests.
const KILL: u64 = u64::MAX - 1;

/// Job-stream sentinel header: the worker thread exits immediately and
/// silently — a simulated hard death (SIGKILL analog) that exercises
/// the dispatcher's stall-budget retirement path.
const HALT: u64 = u64::MAX - 2;

/// First word of a response to a job that ran to completion.
const STATUS_OK: u64 = 0;

/// First word of a response from a worker that panicked on the job:
/// the second says whether the re-pin after restart succeeded, and
/// every frame is [`VERDICT_DENIED`] (no payload comes back).
const STATUS_DOWN: u64 = 1;

/// Default per-ring capacity in words (64 Ki words = 512 KiB): holds a
/// full 4096-frame burst of minimum-size frames on one shard, so the
/// steady-state pump rarely has to split a job across refills.
pub const DEFAULT_RING_WORDS: usize = 1 << 16;

/// Default [`ShardRuntimeSession::set_stall_budget`]: how long a shard
/// may make zero ring progress mid-burst before the dispatcher retires
/// it. Generous — a healthy worker chewing a full 4096-frame job
/// finishes orders of magnitude faster — because a false positive
/// retires a live shard.
pub const DEFAULT_STALL_BUDGET: Duration = Duration::from_secs(1);

/// What happened when the session asked for core pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinReport {
    /// Whether pinning was requested for this session.
    pub requested: bool,
    /// Worker threads the session ran.
    pub workers: usize,
    /// Workers whose `sched_setaffinity` succeeded (0 when pinning was
    /// not requested, or on non-Linux hosts, or when the runner forbids
    /// it — the graceful-degradation path). Kept current across
    /// supervised restarts: a restarted worker re-attempts its pin and
    /// reports the outcome; a retired shard stops counting.
    pub pinned: usize,
    /// CPUs the process may run on (`sched_getaffinity`), the honest
    /// core budget under taskset/cgroup limits. Worker `s` pins to
    /// `allowed[s % host_cores]`.
    pub host_cores: usize,
}

/// Supervisor counters: every frame the runtime failed to process is
/// attributed to exactly one bucket here (the chaos suites assert the
/// conservation law). All counters accumulate over a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Worker panics caught and recovered (shard state reset, worker
    /// kept serving). One [`WorkerDown`] event each.
    pub worker_downs: u64,
    /// Shards retired after exceeding the dispatcher's stall budget
    /// with zero ring progress (worker thread presumed dead).
    pub hard_deaths: u64,
    /// Frames lost to a panicking or dying worker: the whole in-flight
    /// job maps to [`Verdict::Drop`].
    pub frames_lost: u64,
    /// Frames dropped at dispatch because their shard was already
    /// retired — the bounded-backpressure path (no ring traffic, no
    /// stall).
    pub backpressure_drops: u64,
    /// Frames denied a buffer by a worker's checked mempool admission:
    /// returned as [`Verdict::Drop`] with bytes unmodified.
    pub pool_denied: u64,
    /// Result-ring words drained and discarded from dead shards —
    /// counted so in-flight data is accounted, never silently
    /// abandoned.
    pub drained_result_words: u64,
}

/// One supervised-failure event, in occurrence order
/// ([`ShardRuntimeSession::down_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDown {
    /// Which shard went down.
    pub shard: usize,
    /// Frames of the in-flight job lost to the failure (all returned
    /// as [`Verdict::Drop`]).
    pub frames_lost: usize,
    /// Whether the restarted worker's re-pin succeeded (always `false`
    /// for hard deaths — there is no worker left to pin).
    pub repinned: bool,
    /// `true`: panic caught, worker restarted on a fresh shard and
    /// still serving. `false`: hard death, shard retired for the rest
    /// of the session.
    pub restarted: bool,
}

/// Post-session summary returned by [`with_shard_runtime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeReport {
    /// Pinning outcome (see [`PinReport`]).
    pub pin: PinReport,
    /// Flows expired by workers over the whole session.
    pub expired: u64,
    /// Supervisor counters (see [`SupervisorStats`]): all zero on a
    /// fault-free session.
    pub chaos: SupervisorStats,
}

// --- affinity shims (backend::os is Linux-only) ----------------------------

#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    crate::backend::os::pin_current_thread(cpu).is_ok()
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}

#[cfg(target_os = "linux")]
fn host_allowed_cpus() -> Vec<usize> {
    crate::backend::os::allowed_cpus().unwrap_or_else(|_| fallback_cpus())
}

#[cfg(not(target_os = "linux"))]
fn host_allowed_cpus() -> Vec<usize> {
    fallback_cpus()
}

fn fallback_cpus() -> Vec<usize> {
    let n = std::thread::available_parallelism().map_or(1, |p| p.get());
    (0..n).collect()
}

// --- verdict words ---------------------------------------------------------

const VERDICT_DROP: u64 = 0;
const VERDICT_FWD_INTERNAL: u64 = 1;
const VERDICT_FWD_EXTERNAL: u64 = 2;
/// The worker had no buffer for the frame: dropped, and no payload
/// follows — the dispatcher's copy is still the unmodified original.
const VERDICT_DENIED: u64 = 3;

fn verdict_word(v: Verdict) -> u64 {
    match v {
        Verdict::Drop => VERDICT_DROP,
        Verdict::Forward(Direction::Internal) => VERDICT_FWD_INTERNAL,
        Verdict::Forward(Direction::External) => VERDICT_FWD_EXTERNAL,
    }
}

// --- waiting ---------------------------------------------------------------

/// Spin → yield → sleep ladder for a thread waiting on its rings: the
/// real-time analog of the event loop's virtual idle backoff. The spin
/// phase keeps the hot path latency-free; the sleep phase (doubling
/// 1 µs → 128 µs) matters on hosts with fewer cores than workers,
/// where a spinning worker would starve the dispatcher it is waiting
/// on.
struct Backoff {
    step: u32,
    spins: u32,
}

impl Backoff {
    const SPINS: u32 = 64;
    const YIELDS: u32 = 16;
    const SLEEP_MIN_NS: u64 = 1_000;
    const SLEEP_MAX_NS: u64 = 128_000;

    /// `oversubscribed`: the session runs more threads than the host
    /// has cores, so whoever is being waited for needs this core —
    /// spinning only burns its timeslice; start at the yield phase.
    fn new(oversubscribed: bool) -> Backoff {
        Backoff {
            step: 0,
            spins: if oversubscribed { 0 } else { Self::SPINS },
        }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    /// The workers' wait: the whole ladder.
    fn wait(&mut self) {
        if self.step < self.spins + Self::YIELDS {
            return self.wait_awake();
        }
        let exp = (self.step - self.spins - Self::YIELDS).min(16);
        let ns = (Self::SLEEP_MIN_NS << exp).min(Self::SLEEP_MAX_NS);
        std::thread::sleep(Duration::from_nanos(ns));
        self.step = self.step.saturating_add(1);
    }

    /// The dispatcher's wait: spin, then yield, never sleep — it is
    /// waiting for a worker that is running, not for traffic.
    fn wait_awake(&mut self) {
        if self.step < self.spins {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        self.step = self.step.saturating_add(1);
    }
}

/// Drive a non-blocking bulk ring operation to completion (worker side
/// only — the dispatcher never blocks; see the module docs' deadlock
/// argument). `step(done)` moves what it can starting at offset `done`
/// and returns how much that was.
fn until_done(total: usize, backoff: &mut Backoff, mut step: impl FnMut(usize) -> usize) {
    let mut done = 0;
    while done < total {
        match step(done) {
            0 => backoff.wait(),
            n => {
                backoff.reset();
                done += n;
            }
        }
    }
}

/// Blocking word push (worker side only).
fn push_blocking(ring: &mut spsc::Producer, words: &[u64], backoff: &mut Backoff) {
    until_done(words.len(), backoff, |at| ring.push_slice(&words[at..]));
}

/// Blocking word pop (worker side only).
fn pop_blocking(ring: &mut spsc::Consumer, out: &mut [u64], backoff: &mut Backoff) {
    until_done(out.len(), backoff, |at| ring.pop_into(&mut out[at..]));
}

// --- the worker loop -------------------------------------------------------

/// One shard's long-lived worker: pin (best effort), report pin status
/// as the first result word, then serve jobs (stream layout: module
/// docs, "Transport") until the shutdown sentinel.
///
/// The worker reads the *whole* job before running it — payloads land
/// directly in pool buffers, admission checked per frame — and pushes
/// nothing until the job has run to completion, when the response
/// streams straight out of those buffers. A panic can therefore never
/// leave a torn stream on either ring: the supervisor's framing
/// invariant. Frames an exhausted pool cannot take come back
/// [`VERDICT_DENIED`] — undersized pools degrade, they don't panic.
///
/// Everything the loop needs per job lives in vectors it owns and
/// reuses, so a steady-state job allocates nothing on the transport
/// path.
fn worker_loop(
    fm: &mut vignat::FlowManager,
    pool: &mut Mempool,
    cfg: vig_spec::NatConfig,
    jobs: &mut spsc::Consumer,
    results: &mut spsc::Producer,
    pin_cpu: Option<usize>,
    oversubscribed: bool,
) {
    let pinned = pin_cpu.is_some_and(pin_to);
    let mut backoff = Backoff::new(oversubscribed);
    push_blocking(results, &[u64::from(pinned)], &mut backoff);
    let pool_capacity = pool.capacity();
    let mut lens: Vec<u64> = Vec::new();
    let mut bufs: Vec<BufIdx> = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut response: Vec<u64> = Vec::new();
    let mut armed = false;
    loop {
        let mut header = [0u64; 1];
        pop_blocking(jobs, &mut header, &mut backoff);
        match header[0] {
            SHUTDOWN | HALT => return, // HALT: simulated hard death, no last word
            KILL => {
                armed = true;
                continue;
            }
            _ => {}
        }
        let mut meta = [0u64; 2];
        pop_blocking(jobs, &mut meta, &mut backoff);
        let dir = if meta[0] == Direction::Internal as u64 {
            Direction::Internal
        } else {
            Direction::External
        };
        let now = Time::ZERO.plus(meta[1]);
        lens.clear();
        lens.resize(header[0] as usize, 0);
        pop_blocking(jobs, &mut lens, &mut backoff);
        // Payloads land straight in pool buffers until the pool runs
        // dry; the rest of the job is read off the ring and discarded.
        bufs.clear();
        for &len in &lens {
            let len = len as usize;
            if let Some(b) = pool.get() {
                let room = pool.reserve_frame(b, len);
                until_done(len, &mut backoff, |at| jobs.pop_bytes(&mut room[at..]));
                bufs.push(b);
            } else {
                let sink = &mut [0u8; MBUF_SIZE][..len];
                until_done(len, &mut backoff, |at| jobs.pop_bytes(&mut sink[at..]));
            }
        }
        // The whole job is now local: shard state is touched only from
        // here on, and only whole responses hit the result ring.
        let kill = std::mem::take(&mut armed);
        verdicts.clear();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Armed by KILL (the test seam): run the first chunk only,
            // then panic — shard state is *partially* mutated when the
            // supervisor's reset runs, the hard case.
            let run = if kill {
                bufs.len().min(MAX_BURST)
            } else {
                bufs.len()
            };
            let run = &bufs[..run];
            let expired = run_staged(fm, pool, &cfg, dir, now, run, &mut verdicts);
            assert!(!kill, "injected worker kill (test seam)");
            expired
        }));
        response.clear();
        match outcome {
            Ok(expired) => {
                let denied = lens.len() - bufs.len();
                response.extend([STATUS_OK, expired as u64, denied as u64]);
                response.extend(verdicts.iter().map(|&v| verdict_word(v)));
            }
            Err(_) => {
                // Supervised restart: the shard's state is suspect (any
                // subset of the batch's updates may have landed, and who
                // holds which mbuf is unknown) — rebuild table and pool,
                // re-pin, and report DOWN with every frame denied.
                fm.reset();
                *pool = Mempool::new(pool_capacity);
                bufs.clear();
                let repinned = pin_cpu.is_some_and(pin_to);
                response.extend([STATUS_DOWN, u64::from(repinned), 0]);
            }
        }
        response.resize(3 + lens.len(), VERDICT_DENIED);
        push_blocking(results, &response, &mut backoff);
        for &b in &bufs {
            let frame = pool.frame(b);
            until_done(frame.len(), &mut backoff, |at| {
                results.push_bytes(&frame[at..])
            });
            pool.put(b);
        }
    }
}

// --- the dispatcher session ------------------------------------------------

/// The dispatcher's end of one shard: its rings, what the supervisor
/// knows of its worker, and its slice of the current burst with the
/// cursors the non-blocking pump resumes from. Session-owned and
/// reused, so once its vectors have grown to the session's burst size
/// a burst allocates nothing here.
struct Lane {
    jobs: spsc::Producer,
    results: spsc::Consumer,
    /// Retired by the supervisor; its worker thread is gone.
    dead: bool,
    /// The worker's latest pin attempt stuck.
    pinned: bool,
    /// Arrival positions of the frames routed to this shard.
    idxs: Vec<usize>,
    /// The job's control words (`count, dir, now_ns, len × count`).
    head: Vec<u64>,
    /// The response's control words as far as they have arrived.
    ctrl: Vec<u64>,
    at: Progress,
}

/// A [`Lane`]'s cursors, reset with every burst.
#[derive(Default)]
struct Progress {
    /// Words of `head` on the job ring.
    head_sent: usize,
    /// Next frame of `idxs` to put on the job ring, and how many of
    /// its bytes already are.
    tx_frame: usize,
    tx_off: usize,
    /// Next frame of `idxs` to take off the result ring, and how many
    /// of its bytes already are.
    rx_frame: usize,
    rx_off: usize,
    /// Result-ring words taken this burst (control and payload).
    rx_words: u64,
    /// The whole response is in (or the shard is dead).
    complete: bool,
    /// Start of the current run of passes without ring progress.
    idle_since: Option<Instant>,
}

impl Lane {
    /// Move what the rings will take without blocking: job words and
    /// payload bytes down, response words and payload bytes up (straight
    /// into `frames`). Returns whether anything moved.
    fn pump(&mut self, frames: &mut [Vec<u8>]) -> bool {
        let at = &mut self.at;
        let mut moved = 0;
        if at.head_sent < self.head.len() {
            let n = self.jobs.push_slice(&self.head[at.head_sent..]);
            at.head_sent += n;
            moved += n;
        }
        if at.head_sent == self.head.len() {
            while let Some(&i) = self.idxs.get(at.tx_frame) {
                let n = self.jobs.push_bytes(&frames[i][at.tx_off..]);
                at.tx_off += n;
                moved += n;
                if at.tx_off < frames[i].len() {
                    break; // ring full
                }
                at.tx_frame += 1;
                at.tx_off = 0;
            }
        }
        let ctrl_need = 3 + self.idxs.len();
        let want = ctrl_need - self.ctrl.len();
        let n = self.results.pop_extend(&mut self.ctrl, want);
        at.rx_words += n as u64;
        moved += n;
        if self.ctrl.len() == ctrl_need {
            while let Some(&i) = self.idxs.get(at.rx_frame) {
                if self.ctrl[3 + at.rx_frame] != VERDICT_DENIED {
                    let n = self.results.pop_bytes(&mut frames[i][at.rx_off..]);
                    at.rx_off += n;
                    at.rx_words += spsc::words_for_bytes(n) as u64;
                    moved += n;
                    if at.rx_off < frames[i].len() {
                        break; // ring empty
                    }
                }
                at.rx_frame += 1;
                at.rx_off = 0;
            }
        }
        // A worker answers only after reading its whole job, so a whole
        // response implies the job was wholly sent.
        at.complete = self.ctrl.len() == ctrl_need && at.rx_frame == self.idxs.len();
        debug_assert!(!at.complete || at.tx_frame == self.idxs.len());
        moved > 0
    }
}

/// The dispatcher's handle to a live worker fleet, valid inside one
/// [`with_shard_runtime`] call. Owns the job-ring producers and
/// result-ring consumers; the workers own the opposite ends plus their
/// shard's flow state and mempool (disjoint `&mut` borrows —
/// the compiler enforces the no-shared-state discipline).
///
/// The session doubles as the supervisor: it detects worker panics
/// (`DOWN` responses), retires unresponsive shards after the stall
/// budget, and attributes every lost frame in [`SupervisorStats`].
/// Dropping it — normally, or while a panic in the session closure
/// unwinds — sends every live worker its shutdown sentinel.
pub struct ShardRuntimeSession {
    lanes: Vec<Lane>,
    classifier: RssClassifier,
    expired: u64,
    pin: PinReport,
    chaos: SupervisorStats,
    downs: Vec<WorkerDown>,
    stall_budget: Duration,
    idle: Backoff,
}

impl Drop for ShardRuntimeSession {
    fn drop(&mut self) {
        // Retired shards get no sentinel: their threads already exited,
        // which is exactly why they were retired. A live worker whose
        // ring stays full past the stall budget is given up on.
        for s in 0..self.worker_count() {
            self.send_sentinel(s, SHUTDOWN);
        }
    }
}

impl ShardRuntimeSession {
    /// Number of worker threads (== shards).
    pub fn worker_count(&self) -> usize {
        self.lanes.len()
    }

    /// Pinning outcome for this session's workers (kept current across
    /// restarts and retirements).
    pub fn pin_report(&self) -> PinReport {
        self.pin
    }

    /// Flows expired by workers so far this session.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Supervisor counters so far this session.
    pub fn supervisor(&self) -> SupervisorStats {
        self.chaos
    }

    /// Supervised-failure events so far this session, in order.
    pub fn down_events(&self) -> &[WorkerDown] {
        &self.downs
    }

    /// Whether shard `s` is still serving (not retired by the
    /// supervisor). A worker that panicked and restarted is alive.
    pub fn shard_alive(&self, s: usize) -> bool {
        !self.lanes[s].dead
    }

    /// Replace the stall budget ([`DEFAULT_STALL_BUDGET`]): the longest
    /// a shard may sit mid-burst with zero ring progress before the
    /// dispatcher declares it dead and drops its in-flight job. Chaos
    /// tests shrink it to keep hard-death scenarios fast.
    pub fn set_stall_budget(&mut self, budget: Duration) {
        self.stall_budget = budget;
    }

    /// Arm shard `s`'s worker to panic partway through its next job —
    /// the chaos seam the supervised-restart tests drive. Returns
    /// `false` if the shard is already dead or the sentinel could not
    /// be enqueued within the stall budget.
    pub fn kill_worker(&mut self, s: usize) -> bool {
        self.send_sentinel(s, KILL)
    }

    /// Make shard `s`'s worker thread exit silently — a simulated hard
    /// death (SIGKILL analog). The dispatcher only notices at the next
    /// burst, when the shard exhausts its stall budget and is retired.
    /// Returns `false` if the shard is already dead or the sentinel
    /// could not be enqueued.
    pub fn halt_worker(&mut self, s: usize) -> bool {
        self.send_sentinel(s, HALT)
    }

    fn send_sentinel(&mut self, s: usize, sentinel: u64) -> bool {
        let deadline = Instant::now() + self.stall_budget;
        let lane = &mut self.lanes[s];
        loop {
            if lane.dead || lane.jobs.try_push(sentinel) {
                return !lane.dead;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Record a supervised failure of shard `s` that lost its whole
    /// in-flight job, and the worker's pin state after it.
    fn worker_down(&mut self, s: usize, repinned: bool, restarted: bool) {
        let frames_lost = self.lanes[s].idxs.len();
        self.chaos.frames_lost += frames_lost as u64;
        self.lanes[s].pinned = repinned;
        self.pin.pinned = self.lanes.iter().filter(|l| l.pinned).count();
        self.downs.push(WorkerDown {
            shard: s,
            frames_lost,
            repinned,
            restarted,
        });
    }

    /// Retire shard `s`: mark dead, account the lost in-flight frames,
    /// and drain whatever the dead worker left on its result ring so
    /// the words are counted rather than silently abandoned.
    fn retire_shard(&mut self, s: usize) {
        let lane = &mut self.lanes[s];
        lane.dead = true;
        lane.at.complete = true;
        self.chaos.hard_deaths += 1;
        self.chaos.drained_result_words += lane.at.rx_words;
        while lane.results.try_pop().is_some() {
            self.chaos.drained_result_words += 1;
        }
        self.worker_down(s, false, false);
    }

    /// Process one burst arriving on `dir` at instant `now` across the
    /// persistent workers. Frames are rewritten in place; returns one
    /// verdict per frame in arrival order. Semantically identical to
    /// [`crate::harness::ParallelShardedNat::process_burst_parallel`] —
    /// same dispatch, same chunking, same merge order — minus the
    /// per-burst thread spawn.
    ///
    /// Under faults the burst still returns: frames on a panicking or
    /// dying shard come back as [`Verdict::Drop`] with the loss
    /// attributed in [`SupervisorStats`]; surviving shards' verdicts
    /// and bytes are unaffected. (A shard retired *while its response
    /// was arriving* may have rewritten some of its frames already;
    /// they are `Drop` all the same.)
    pub fn process_burst(
        &mut self,
        dir: Direction,
        frames: &mut [Vec<u8>],
        now: Time,
    ) -> Vec<Verdict> {
        for lane in &mut self.lanes {
            lane.idxs.clear();
            lane.head.clear();
            lane.ctrl.clear();
            lane.at = Progress {
                complete: lane.dead,
                ..Progress::default()
            };
        }
        // Dispatch: route every frame to its shard (RSS function).
        // Frames bound for a retired shard drop here, with accounting —
        // bounded backpressure, not an unbounded stall. So does a frame
        // longer than any worker buffer: no pool could admit it.
        for (i, f) in frames.iter().enumerate() {
            let lane = &mut self.lanes[self.classifier.queue_of(dir, f)];
            if lane.dead {
                self.chaos.backpressure_drops += 1;
            } else if f.len() > MBUF_SIZE {
                self.chaos.pool_denied += 1;
            } else {
                lane.idxs.push(i);
            }
        }
        for lane in self.lanes.iter_mut().filter(|l| !l.dead) {
            let meta = [lane.idxs.len() as u64, dir as u64, now.nanos()];
            let lens = lane.idxs.iter().map(|&i| frames[i].len() as u64);
            lane.head.extend(meta.into_iter().chain(lens));
        }
        // Non-blocking pump: interleave job pushes and result drains so
        // bounded rings can never deadlock (see module docs). A shard
        // with zero progress past the stall budget is retired.
        loop {
            let mut progress = false;
            for lane in self.lanes.iter_mut().filter(|l| !l.at.complete) {
                if lane.pump(frames) {
                    lane.at.idle_since = None;
                    progress = true;
                }
            }
            if self.lanes.iter().all(|l| l.at.complete) {
                break;
            }
            if progress {
                self.idle.reset();
                continue;
            }
            let now_t = Instant::now();
            for s in 0..self.lanes.len() {
                let at = &mut self.lanes[s].at;
                let since = *at.idle_since.get_or_insert(now_t);
                if !at.complete && now_t.duration_since(since) > self.stall_budget {
                    self.retire_shard(s);
                }
            }
            self.idle.wait_awake();
        }
        self.idle.reset();
        // Merge in deterministic shard order: scatter verdicts back to
        // arrival positions (the bytes are already in place), accumulate
        // expiry. A DOWN response maps its whole job to Drop — the
        // honest loss report; surviving shards merge exactly as on a
        // clean run.
        let mut out = vec![Verdict::Drop; frames.len()];
        for s in 0..self.lanes.len() {
            let lane = &self.lanes[s];
            if lane.dead {
                continue;
            }
            if lane.ctrl[0] == STATUS_DOWN {
                let repinned = lane.ctrl[1] != 0;
                self.chaos.worker_downs += 1;
                self.worker_down(s, repinned, true);
                continue; // every verdict is DENIED: the whole job drops
            }
            self.expired += lane.ctrl[1];
            self.chaos.pool_denied += lane.ctrl[2];
            for (&i, &word) in lane.idxs.iter().zip(&lane.ctrl[3..]) {
                out[i] = match word {
                    VERDICT_DROP | VERDICT_DENIED => Verdict::Drop,
                    VERDICT_FWD_INTERNAL => Verdict::Forward(Direction::Internal),
                    VERDICT_FWD_EXTERNAL => Verdict::Forward(Direction::External),
                    w => unreachable!("bad verdict word {w}"),
                };
            }
        }
        out
    }
}

/// A driver that hands each shard to its own worker cannot serve a
/// configuration whose packets read another shard's state (the
/// paper's §5 no-shared-state rule): a hairpinned packet resolves its
/// *target* by external lookup, and that mapping lives on whichever
/// shard owns the port. Panics, at session start, on such a table.
pub(crate) fn refuse_cross_shard_config(table: &ShardedFlowManager) {
    let shards = table.shard_count();
    assert!(
        !table.global_cfg().hairpinning || shards == 1,
        "hairpinning requires one shard per per-shard driver session \
         (a target's mapping lives on the shard owning its port), got {shards}"
    );
}

/// Run `f` with a live shard runtime: one persistent worker thread per
/// shard of `table`, each owning its shard's [`Mempool`], connected to the calling (dispatcher) thread by
/// SPSC rings of `ring_words` words (use [`DEFAULT_RING_WORDS`]).
///
/// With `pin` set, worker `s` pins itself to the `s % host_cores`-th
/// *allowed* CPU; failures degrade to unpinned workers and are counted
/// in the returned [`RuntimeReport`] — never an error, matching how a
/// restricted CI runner should behave. When the session's threads
/// (workers plus the dispatcher) outnumber the allowed CPUs, both sides
/// skip the spin phase of their waits and yield at once.
///
/// Panics on a table only a whole-table driver can serve
/// (`cfg.hairpinning` over more than one shard).
///
/// The session (and thus every worker) lives exactly as long as `f`:
/// when `f` returns — or panics — dropping the session sends the
/// shutdown sentinels and the scope joins all workers, so `table` is
/// borrowable again immediately after, and a panic in `f` propagates
/// instead of hanging on workers that wait forever.
pub fn with_shard_runtime<R>(
    table: &mut ShardedFlowManager,
    pools: &mut [Mempool],
    ring_words: usize,
    pin: bool,
    f: impl FnOnce(&mut ShardRuntimeSession) -> R,
) -> (R, RuntimeReport) {
    let n = table.shard_count();
    assert_eq!(pools.len(), n, "one mempool per shard");
    refuse_cross_shard_config(table);
    let classifier = RssClassifier::for_table(table);
    // Every worker runs the loop body with the *global* config: shard
    // FlowManagers hand out pool-global port offsets (via their slot
    // base), so the loop's `start_port + offset` arithmetic must use
    // the global start port on every core.
    let cfg = table.global_cfg();
    let allowed = host_allowed_cpus();
    let host_cores = allowed.len().max(1);
    let oversubscribed = n + 1 > host_cores;
    let mut lanes = Vec::with_capacity(n);
    let mut worker_ends = Vec::with_capacity(n);
    for _ in 0..n {
        let (jobs, jobs_rx) = spsc::channel(ring_words);
        let (results_tx, results) = spsc::channel(ring_words);
        worker_ends.push((jobs_rx, results_tx));
        lanes.push(Lane {
            jobs,
            results,
            dead: false,
            pinned: false,
            idxs: Vec::new(),
            head: Vec::new(),
            ctrl: Vec::new(),
            at: Progress::default(),
        });
    }
    std::thread::scope(|sc| {
        let workers = table
            .shards_mut()
            .iter_mut()
            .zip(pools.iter_mut())
            .zip(worker_ends)
            .enumerate();
        for (s, ((fm, pool), (mut jobs, mut results))) in workers {
            let pin_cpu = pin.then(|| allowed[s % host_cores]);
            sc.spawn(move || {
                let (jobs, results) = (&mut jobs, &mut results);
                worker_loop(fm, pool, cfg, jobs, results, pin_cpu, oversubscribed)
            });
        }
        let mut session = ShardRuntimeSession {
            lanes,
            classifier,
            expired: 0,
            pin: PinReport {
                requested: pin,
                workers: n,
                pinned: 0,
                host_cores,
            },
            chaos: SupervisorStats::default(),
            downs: Vec::new(),
            stall_budget: DEFAULT_STALL_BUDGET,
            idle: Backoff::new(oversubscribed),
        };
        // First result word from each worker is its pin status; collect
        // before handing the session to `f` so reports are complete even
        // if `f` never processes a burst. Workers push it immediately,
        // so this wait is bounded by thread startup.
        for lane in &mut session.lanes {
            let mut pinned = [0u64; 1];
            pop_blocking(&mut lane.results, &mut pinned, &mut session.idle);
            lane.pinned = pinned[0] != 0;
        }
        session.idle.reset();
        session.pin.pinned = session.lanes.iter().filter(|l| l.pinned).count();
        let r = f(&mut session);
        let report = RuntimeReport {
            pin: session.pin,
            expired: session.expired,
            chaos: session.chaos,
        };
        // Dropping the session shuts the workers down; the scope then
        // joins them.
        (r, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::builder::PacketBuilder;
    use vig_packet::Ip4;

    fn test_cfg() -> vig_spec::NatConfig {
        vig_spec::NatConfig {
            capacity: 64,
            expiry_ns: Time::from_secs(2).nanos(),
            external_ip: Ip4::new(203, 0, 113, 1),
            start_port: 4096,
            ..vig_spec::NatConfig::paper_default()
        }
    }

    fn flow_frame(host: u8, sport: u16) -> Vec<u8> {
        PacketBuilder::udp(Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1), sport, 53).build()
    }

    #[test]
    fn pin_report_degrades_gracefully() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 2);
        let mut pools: Vec<Mempool> = (0..2).map(|_| Mempool::new(8)).collect();
        let ((), report) =
            with_shard_runtime(&mut table, &mut pools, DEFAULT_RING_WORDS, true, |s| {
                assert_eq!(s.worker_count(), 2);
            });
        assert!(report.pin.requested);
        assert_eq!(report.pin.workers, 2);
        // Pinning either worked or degraded — both are valid outcomes;
        // the report just has to be internally consistent.
        assert!(report.pin.pinned <= 2);
        assert!(report.pin.host_cores >= 1);
        assert_eq!(report.chaos, SupervisorStats::default());
    }

    #[test]
    fn undersized_pool_denies_frames_instead_of_panicking() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 1);
        // Two buffers for an eight-frame burst: six frames must be
        // denied admission, zero may panic the worker.
        let mut pools = vec![Mempool::new(2)];
        let (v, report) =
            with_shard_runtime(&mut table, &mut pools, DEFAULT_RING_WORDS, false, |s| {
                let mut frames: Vec<Vec<u8>> =
                    (0..8).map(|i| flow_frame(2, 1000 + i as u16)).collect();
                let originals = frames.clone();
                let verdicts = s.process_burst(Direction::Internal, &mut frames, Time::ZERO);
                assert_eq!(s.supervisor().pool_denied, 6);
                assert_eq!(s.supervisor().worker_downs, 0);
                // Denied frames drop with bytes unmodified; admitted
                // ones forward rewritten.
                for (i, v) in verdicts.iter().enumerate() {
                    if i < 2 {
                        assert_eq!(*v, Verdict::Forward(Direction::External));
                        assert_ne!(frames[i], originals[i]);
                    } else {
                        assert_eq!(*v, Verdict::Drop);
                        assert_eq!(frames[i], originals[i]);
                    }
                }
                // The session keeps serving afterwards.
                let mut again = vec![flow_frame(2, 1000)];
                let v2 = s.process_burst(Direction::Internal, &mut again, Time::ZERO.plus(1));
                assert_eq!(v2, vec![Verdict::Forward(Direction::External)]);
                verdicts
            });
        assert_eq!(v.len(), 8);
        assert_eq!(report.chaos.pool_denied, 6);
        assert_eq!(report.chaos.frames_lost, 0);
    }

    #[test]
    fn killed_worker_reports_down_and_restarts_on_fresh_state() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 1);
        let mut pools = vec![Mempool::new(64)];
        let ((), report) =
            with_shard_runtime(&mut table, &mut pools, DEFAULT_RING_WORDS, false, |s| {
                // Establish a flow, then kill the worker mid-job.
                let mut burst1 = vec![flow_frame(2, 1025)];
                let v1 = s.process_burst(Direction::Internal, &mut burst1, Time::ZERO);
                assert_eq!(v1, vec![Verdict::Forward(Direction::External)]);
                assert!(s.kill_worker(0));
                let mut burst2 = vec![flow_frame(3, 2000)];
                let original = burst2[0].clone();
                // Note: the injected panic prints the usual thread
                // panic message to stderr — expected noise here.
                let v2 = s.process_burst(Direction::Internal, &mut burst2, Time::ZERO.plus(1));
                assert_eq!(v2, vec![Verdict::Drop]);
                assert_eq!(burst2[0], original, "lost frames come back unmodified");
                assert_eq!(s.supervisor().worker_downs, 1);
                assert_eq!(s.supervisor().frames_lost, 1);
                assert_eq!(s.down_events().len(), 1);
                let ev = s.down_events()[0];
                assert_eq!(ev.shard, 0);
                assert_eq!(ev.frames_lost, 1);
                assert!(ev.restarted);
                assert!(s.shard_alive(0));
                // The restarted worker serves from a *fresh* table: the
                // first flow after restart gets the first port again.
                let mut burst3 = vec![flow_frame(4, 3000)];
                let v3 = s.process_burst(Direction::Internal, &mut burst3, Time::ZERO.plus(2));
                assert_eq!(v3, vec![Verdict::Forward(Direction::External)]);
                let mut burst1b = vec![flow_frame(2, 1025)];
                let v1b = s.process_burst(Direction::Internal, &mut burst1b, Time::ZERO.plus(3));
                assert_eq!(v1b, vec![Verdict::Forward(Direction::External)]);
                assert_ne!(
                    burst1b[0], burst1[0],
                    "restart cleared the old mapping: the flow re-maps to a new port"
                );
            });
        assert_eq!(report.chaos.worker_downs, 1);
        assert_eq!(report.chaos.hard_deaths, 0);
    }

    #[test]
    fn halted_worker_is_retired_within_the_stall_budget() {
        let cfg = test_cfg();
        let mut table = ShardedFlowManager::new(&cfg, 1);
        let mut pools = vec![Mempool::new(64)];
        let ((), report) =
            with_shard_runtime(&mut table, &mut pools, DEFAULT_RING_WORDS, false, |s| {
                s.set_stall_budget(Duration::from_millis(50));
                assert!(s.halt_worker(0));
                // The dead worker never answers: the burst returns
                // after the stall budget with the loss attributed.
                let mut burst = vec![flow_frame(2, 1025), flow_frame(2, 1026)];
                let v = s.process_burst(Direction::Internal, &mut burst, Time::ZERO);
                assert_eq!(v, vec![Verdict::Drop, Verdict::Drop]);
                assert_eq!(s.supervisor().hard_deaths, 1);
                assert_eq!(s.supervisor().frames_lost, 2);
                assert!(!s.shard_alive(0));
                assert!(!s.down_events()[0].restarted);
                // Later bursts drop at dispatch — bounded backpressure,
                // no ring traffic, no stall.
                let mut burst2 = vec![flow_frame(3, 2000)];
                let v2 = s.process_burst(Direction::Internal, &mut burst2, Time::ZERO.plus(1));
                assert_eq!(v2, vec![Verdict::Drop]);
                assert_eq!(s.supervisor().backpressure_drops, 1);
                // Sentinels to a dead shard are refused.
                assert!(!s.kill_worker(0));
            });
        assert_eq!(report.chaos.hard_deaths, 1);
        assert_eq!(report.chaos.backpressure_drops, 1);
    }
}
