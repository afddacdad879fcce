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
//!   ([`round_service_times`]), MAD-reject timer-noise outliers
//!   ([`mad_filter_ns`]), then binary-search the highest offered rate
//!   whose queue simulation loses ≤ 0.1% of packets at the device's
//!   RX-ring depth ([`search_rate_with_ci`]).
//!
//! Every frame of every experiment reaches its NF the same way — staged
//! through [`TesterIo`], drained by [`BackendDriver`], reaped — so
//! ring, mempool and event-loop costs are inside the measurement
//! uniformly for every NF, mirroring how every paper NF pays the same
//! DPDK rx/tx cost. [`round_service_times`] and
//! [`sustained_service_times_io`] are the two traffic shapes (paced
//! all-hit rounds for synchronous backends, a sustained in-flight
//! window for asynchronous wires).

use libvig::time::Time;
use netsim::backend::{PacketIo, SimBackend, TesterIo};
use netsim::eventloop::{BackendDriver, DrainStats};
use netsim::frame_env::RssClassifier;
use netsim::middlebox::Middlebox;
use netsim::tester::FlowGen;
use vig_packet::{Direction, FlowFields};
use vig_spec::NatConfig;

/// A Fig. 12-style workload description.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadMix {
    /// Number of background flows (the x-axis of Fig. 12/14).
    pub background_flows: usize,
    /// Number of probe packets to measure.
    pub probe_packets: usize,
    /// Probes measured per refresh window. The paper's probe flows each
    /// send one packet and then expire; batching several distinct probe
    /// flows into one background-refresh window keeps the simulation
    /// cost at `2·background/batch` refreshes per probe while
    /// distorting table occupancy by at most `batch` entries. Use 1 for
    /// the literal paper cadence.
    pub probe_batch: usize,
    /// Flow expiry used by the NF (2 s in the main experiment, 60 s in
    /// the in-text variant).
    pub texp_ns: u64,
    /// Number of distinct probe flow ids to cycle through. The paper
    /// uses 1,000 probe flows; with `texp` = 2 s they expire between
    /// their packets (every probe misses), with `texp` = 60 s they
    /// survive (later probes hit) — the in-text experiment.
    pub probe_pool: usize,
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

/// Frames per measurement round: the DPDK run-to-completion burst
/// granularity every service-time loop here stages and times at.
const ROUND: usize = 64;

/// Drain until `staged` frames of the current round have been
/// accounted for (forwarded, dropped by the NF, or dropped at TX). One
/// pass on a synchronous backend — the sim stages straight into the
/// FIFOs, so the first drain handles everything and the loop exits
/// without re-polling. On an asynchronous rig (the veth `OsTestRig`,
/// where `stage` is a wire send) the kernel may deliver after the
/// first poll, so keep draining until the frames show up, bounded by a
/// generous real-time deadline. Statistics accumulate across passes.
fn drain_staged<B: PacketIo>(
    drv: &mut BackendDriver<B>,
    nf: &mut dyn Middlebox,
    now: Time,
    staged: u64,
) -> DrainStats {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut total = DrainStats::default();
    loop {
        let s = drv.drain(nf, now);
        total.forwarded += s.forwarded;
        total.dropped += s.dropped;
        total.tx_dropped += s.tx_dropped;
        total.bursts += s.bursts;
        total.polls += s.polls;
        total.elapsed_ns += s.elapsed_ns;
        if total.forwarded + total.dropped + total.tx_dropped >= staged
            || std::time::Instant::now() >= deadline
        {
            return total;
        }
        std::thread::yield_now();
    }
}

/// One measurement round: stage `flows` on the internal port, drain
/// until every admitted frame is accounted for, reap the external
/// port. Returns how many frames the backend admitted and the round's
/// drain statistics.
fn offer_round<B: TesterIo>(
    drv: &mut BackendDriver<B>,
    nf: &mut dyn Middlebox,
    gen: &FlowGen,
    flows: impl Iterator<Item = FlowFields>,
    now: Time,
) -> (usize, DrainStats) {
    let mut staged = 0usize;
    for f in flows {
        let admitted = drv
            .io_mut()
            .stage(Direction::Internal, |b| gen.write_frame(&f, b));
        staged += usize::from(admitted.is_some());
    }
    let stats = drain_staged(drv, nf, now, staged as u64);
    let _ = drv.io_mut().reap(Direction::External);
    (staged, stats)
}

/// Send one frame of each of `gen`'s background flows `0..flows`
/// through the driver (untimed) in paced [`ROUND`]-frame rounds,
/// `round_gap_ns` of virtual time apart, starting after `now`: the
/// populate step of every measurement loop, and the background refresh
/// pass of [`probe_latency`]. Returns the clock after
/// the last round.
fn offer_background<B: TesterIo>(
    drv: &mut BackendDriver<B>,
    nf: &mut dyn Middlebox,
    gen: &FlowGen,
    flows: usize,
    mut now: Time,
    round_gap_ns: u64,
) -> Time {
    for start in (0..flows).step_by(ROUND) {
        let end = flows.min(start + ROUND);
        now = now.plus(round_gap_ns);
        let ids = (start..end).map(|i| gen.background(i as u32));
        let (staged, _) = offer_round(drv, nf, gen, ids, now);
        assert_eq!(staged, end - start, "populate must not overflow");
    }
    now
}

/// Steady-state per-packet service times through the driver (Fig. 14's
/// workload: "a fixed number of flows that never expire"): establish
/// `flows` flows from `gen`'s universe, then time all-hit
/// 64-frame rounds, staged through [`TesterIo`] and drained by
/// [`BackendDriver`], until `packets` samples exist. Each packet is
/// assigned its round's mean, which keeps clock-read overhead out of
/// the service times while preserving burst-scale variance for the
/// queue simulation. The virtual clock advances slowly enough that no
/// flow expires inside `texp_ns`.
///
/// This is the one round loop: the NF (any [`Middlebox`], batched fast
/// path or trait-default per-frame), the flow universe and the
/// backend (a 1-queue [`SimBackend`] for the paper's figures,
/// multi-queue, `FaultIo`-wrapped, or a veth rig) are the caller's
/// choice; the methodology is not. Rounds pace themselves on
/// actual delivery — one drain pass on a synchronous backend,
/// re-draining until the staged frames arrive on an asynchronous one —
/// and a rig's interfaces should be quiesced the way
/// `backend::os::VethPair::create` leaves them, so no kernel noise
/// lands in the timed region. Every ring must hold a full round. The
/// backend is handed back so honesty counters (kernel drops, tx
/// errors, fault stats) can be read after the measurement.
pub fn round_service_times<B: TesterIo>(
    io: B,
    nf: &mut dyn Middlebox,
    gen: &FlowGen,
    flows: usize,
    packets: usize,
    texp_ns: u64,
) -> (LatencySamples, B) {
    let mut drv = BackendDriver::new(io);
    let mut now = offer_background(&mut drv, nf, gen, flows, Time::from_secs(1), 1_000);

    let rounds_estimate = packets.div_ceil(ROUND) as u64;
    let step = (texp_ns / 4) / (rounds_estimate * 8 + 1);
    let mut samples = Vec::with_capacity(packets + ROUND);
    let mut next_flow = 0u32;
    while samples.len() < packets {
        now = now.plus(step.max(1));
        let ids = (0..ROUND as u32).map(|k| gen.background((next_flow + k) % flows as u32));
        let (staged, stats) = offer_round(&mut drv, nf, gen, ids, now);
        next_flow = (next_flow + ROUND as u32) % flows as u32;
        debug_assert_eq!(stats.dropped, 0, "steady state must be all hits");
        assert!(staged > 0, "backend admitted nothing of a whole round");
        let per_packet = stats.elapsed_ns / staged as u64;
        samples.extend(std::iter::repeat_n(per_packet.max(1), staged));
    }
    samples.truncate(packets);
    (LatencySamples { ns: samples }, drv.into_io())
}

/// Sustained-load service times: keep a window of frames in flight and
/// drain continuously, instead of offering 64-frame bursts and waiting
/// for each to fully drain.
///
/// [`round_service_times`] is the right shape for the simulated
/// backend (stage and delivery are synchronous), but it measures a
/// *batching transport* at its worst: on the `TPACKET_V3` block ring
/// the kernel hands a block to user space when it fills **or** when
/// the millisecond-granular retire timer fires, so a 64-frame burst
/// that never fills a block pays the retire latency every round —
/// a latency artifact of pausing the offered load, not a throughput
/// limit. RFC 2544 saturation is a sustained-rate question, so the
/// cross-wire comparison offers sustained load: stage until `window`
/// frames are in flight, drain what has arrived (empty drain passes
/// are *not* discarded — their time is carried into the next
/// productive drain, so wire stalls stay in the measurement), reap,
/// top the window back up. All three transports (sim, per-frame,
/// mmap) are measured by this same loop.
///
/// `window` should exceed the mmap RX block capacity in frames (so the
/// in-flight traffic keeps filling blocks) and stay within the
/// per-queue FIFO capacity (so admission never drops in steady state).
/// The ring size is a good default.
pub fn sustained_service_times_io<B: TesterIo>(
    io: B,
    nf: &mut dyn Middlebox,
    flows: usize,
    packets: usize,
    window: usize,
    texp_ns: u64,
) -> (LatencySamples, B) {
    let mut drv = BackendDriver::new(io);
    let gen = FlowGen::new(vig_packet::Proto::Udp);
    let mut now = offer_background(&mut drv, nf, &gen, flows, Time::from_secs(1), 1_000);

    // Timed sustained phase. The virtual clock advances slowly enough
    // that no flow expires across the whole run.
    let step = (texp_ns / 4) / (packets as u64 * 4 + 1);
    let mut samples = Vec::with_capacity(packets);
    let mut staged_total = 0usize;
    let mut done = 0usize;
    let mut next_flow = 0u32;
    // Time spent in drains that found nothing ready (frames still on
    // the wire / in a kernel block): attributed to the packets the
    // next productive drain delivers.
    let mut carried_idle_ns = 0u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    // Top up with hysteresis: refill only once half the window has
    // drained, so every stage burst is at least `window / 2` frames.
    // A trickle that replaces exactly what completed tends to align
    // with the mmap ring's block capacity and leaves the tail of each
    // burst parked in a partial block until the retire timer fires;
    // bursts of half a window always cross block boundaries.
    let chunk = (window / 2).max(1);
    while done < packets {
        if staged_total - done <= window - chunk {
            while staged_total - done < window {
                let f = gen.background(next_flow % flows as u32);
                if drv
                    .io_mut()
                    .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                    .is_none()
                {
                    break; // FIFO pushback: stop topping up, drain first
                }
                next_flow = next_flow.wrapping_add(1);
                staged_total += 1;
            }
        }
        now = now.plus(step.max(1));
        let stats = drv.drain(nf, now);
        debug_assert_eq!(stats.dropped, 0, "steady state must be all hits");
        let processed = stats.forwarded as usize;
        if processed > 0 {
            done += processed;
            let per_packet = ((stats.elapsed_ns + carried_idle_ns) / processed as u64).max(1);
            carried_idle_ns = 0;
            samples.extend(std::iter::repeat_n(per_packet, processed));
        } else {
            carried_idle_ns += stats.elapsed_ns;
            std::thread::yield_now();
        }
        let _ = drv.io_mut().reap(Direction::External);
        assert!(
            std::time::Instant::now() < deadline,
            "sustained run stalled: {done}/{packets} packets after 60s"
        );
    }
    samples.truncate(packets);
    (LatencySamples { ns: samples }, drv.into_io())
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

/// MAD-based outlier rejection (Iglewicz–Hoaglin modified z-score),
/// shared by every RFC 2544 rate search here. Returns the retained
/// samples and the rejected count. When the MAD is zero (over
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
/// (see [`search_rate_with_ci`]): one statistic, the mean per-trial
/// rate, as a point and as the interval that bounds it.
#[derive(Debug, Clone)]
pub struct RateEstimate {
    /// Point estimate: the mean of `per_trial_mpps`, Mpps.
    pub mpps: f64,
    /// Lower bound of the 95% bootstrap CI on the mean per-trial rate,
    /// Mpps.
    pub ci95_lo_mpps: f64,
    /// Upper bound of the 95% bootstrap CI on the mean per-trial rate,
    /// Mpps.
    pub ci95_hi_mpps: f64,
    /// Mean retained service time over the whole series, ns.
    pub mean_ns: f64,
    /// Service-time samples of the whole series rejected as MAD
    /// outliers.
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

/// The RFC 2544 rate of a service-time series with a bootstrap 95%
/// confidence interval: [`search_rate_filtered`] runs on each of
/// [`RATE_CI_TRIALS`] contiguous trials ([`per_trial_rates`]), the
/// point is their mean, and the interval comes from resampling them
/// [`RATE_CI_RESAMPLES`] times — so the point lies inside its own
/// interval (the trajectory validator's `Inside` rule holds every
/// committed pair to that).
pub fn search_rate_with_ci(svc: &LatencySamples, ring_cap: usize) -> RateEstimate {
    let (kept, outliers_rejected) = mad_filter_ns(&svc.ns);
    let mean_ns = kept.iter().sum::<u64>() as f64 / kept.len() as f64;
    let per_trial_mpps = per_trial_rates(svc, ring_cap, RATE_CI_TRIALS);
    let mpps = per_trial_mpps.iter().sum::<f64>() / per_trial_mpps.len() as f64;
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
    use netsim::backend::{FaultIo, FaultPlan};
    use netsim::eventloop::TX_RETRY_BUDGET;
    use netsim::middlebox::{ShardedVigNatMb, Verdict, VigNatMb};
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

    fn sim(c: &NatConfig, queues: usize, ring: usize) -> SimBackend {
        SimBackend::new(RssClassifier::for_nat(c, queues), ring)
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
    fn event_driven_steady_state_is_all_hits() {
        let c = cfg(1024);
        let mut nf = ShardedVigNatMb::sharded(c, 2);
        let (s, io) = round_service_times(
            sim(&c, 2, 64),
            &mut nf,
            &FlowGen::new(Proto::Udp),
            64,
            500,
            c.expiry_ns,
        );
        assert_eq!(s.ns.len(), 500);
        assert!(s.mean() > 0.0);
        assert_eq!(nf.occupancy(), 64, "no flow may expire mid-experiment");
        assert_eq!(io.pool_available(), io.pool().capacity(), "rounds reap");
    }

    #[test]
    fn drain_staged_accounts_tx_drops_and_returns_at_once() {
        // An overrun longer than the retry budget forces real TX
        // drops. The round must count them as done (not wait out its
        // 5 s delivery deadline for frames that will never forward)
        // and report them.
        let c = cfg(256);
        let mut nf = VigNatMb::new(c);
        let plan = FaultPlan::seeded(7).tx_reject_1_in(8, TX_RETRY_BUDGET as u64 + 1);
        let mut drv = BackendDriver::new(FaultIo::new(sim(&c, 1, 64), plan));
        let gen = FlowGen::new(Proto::Udp);
        let t0 = std::time::Instant::now();
        let ids = (0..ROUND as u32).map(|i| gen.background(i));
        let (staged, stats) = offer_round(&mut drv, &mut nf, &gen, ids, Time::from_secs(1));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "round waited for TX-dropped frames"
        );
        assert_eq!(staged, ROUND);
        assert!(stats.tx_dropped > 0, "the plan must force a TX drop");
        assert_eq!(
            stats.forwarded + stats.dropped + stats.tx_dropped,
            staged as u64
        );
        assert_eq!(
            drv.io().inner().pool_available(),
            drv.io().pool().capacity(),
            "TX-dropped buffers go back to the pool"
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
        // The point is the mean per-trial rate and the interval bounds
        // that same statistic, so the point lies inside it: on a quiet
        // series with burst-scale jitter, on one whose first trial is
        // slow (the case the pooled search used to report below its
        // own interval), and — degenerately, `lo == point == hi` — on a
        // constant one.
        let quiet: Vec<u64> = (0..4_000).map(|i| 1_000 + (i / 64 % 5) * 10).collect();
        let mut slow_first = vec![1_600u64; 500];
        slow_first.extend(vec![1_000u64; 3_500]);
        for ns in [quiet, slow_first] {
            let est = search_rate_with_ci(&LatencySamples { ns }, 512);
            assert_eq!(est.per_trial_mpps.len(), RATE_CI_TRIALS);
            let mean = est.per_trial_mpps.iter().sum::<f64>() / RATE_CI_TRIALS as f64;
            assert_eq!(est.mpps, mean);
            assert!(
                est.ci95_lo_mpps <= est.mpps && est.mpps <= est.ci95_hi_mpps,
                "{} outside [{}, {}]",
                est.mpps,
                est.ci95_lo_mpps,
                est.ci95_hi_mpps
            );
            assert!(est.ci95_lo_mpps < est.ci95_hi_mpps, "trials differ");
        }
        let constant = LatencySamples {
            ns: vec![1_000u64; 4_000],
        };
        let est = search_rate_with_ci(&constant, 512);
        assert_eq!(est.ci95_lo_mpps, est.mpps);
        assert_eq!(est.ci95_hi_mpps, est.mpps);
        assert_eq!((est.mean_ns, est.outliers_rejected), (1_000.0, 0));
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
