//! Deterministic fault injection at the [`PacketIo`] seam.
//!
//! The paper's proof covers the NAT's semantics; everything below the
//! driver contract — NIC, DMA, kernel socket path — is trusted to
//! either deliver a frame intact or lose it cleanly. [`FaultIo`] makes
//! that trust assumption *testable*: it wraps any backend and injects
//! seeded, schedulable faults exactly at the seam every backend already
//! flows through, so the chaos suites can prove the verified state
//! machine stays closed under environment failure
//! (`tests/chaos_equivalence.rs`):
//!
//! * **frame drops** — a received frame vanishes (buffer reclaimed,
//!   loss attributed to [`FaultStats::rx_injected_drops`]);
//! * **truncation / corruption** — a received frame is cut short or
//!   has header bytes damaged before the parser sees it; profiles
//!   ([`TruncateKind`], [`CorruptKind`]) target the exact malformations
//!   the parser must reject (bad IHL, garbage version, short L4);
//! * **duplicate / reordered delivery** — a frame is delivered twice,
//!   or swapped with its neighbor within a burst (the within-queue
//!   reordering a retransmitting link produces);
//! * **per-queue stalls** — a queue reports empty for a scheduled
//!   window of service rounds; frames are delayed, never lost;
//! * **transient syscall errors** — `pump_rx` returns without pumping,
//!   the simulated `EINTR`/`EAGAIN` a signal-heavy host injects;
//! * **forced ring overruns** — `tx_put` refuses a run of frames, the
//!   simulated `ENOBUFS` burst that forces the driver's bounded
//!   retry-then-drop path.
//!
//! **Identity theorem**: with the empty schedule ([`FaultPlan::none`])
//! every method forwards verbatim — `FaultIo<B>` is byte-for-byte and
//! stat-for-stat indistinguishable from `B`. The conformance suite
//! pins this down differentially for the sim, per-frame, and mmap
//! backends, which is what licenses wrapping `FaultIo` around any
//! backend in any existing test without weakening it.
//!
//! Every decision comes from one SplitMix64 stream seeded by the plan,
//! so a fault schedule is a pure function of `(seed, call sequence)` —
//! chaos runs replay exactly.

use super::{PacketIo, TesterIo};
use crate::dpdk::{BufIdx, Mempool, PortStats};
use vig_packet::Direction;

/// How a truncation fault cuts a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateKind {
    /// Cut at a pseudo-random offset below the original length
    /// (anywhere, including inside the Ethernet header — the parser
    /// must reject arbitrary prefixes).
    RandomTail,
    /// Cut inside the L4 header: `14 + IHL·4 + (0..8)` bytes, the
    /// "IP header complete, transport header short" shape the L4
    /// parser must reject without reading past the end.
    ShortL4,
}

/// How a corruption fault damages header bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// XOR a pseudo-random byte anywhere in the frame with a non-zero
    /// mask (may or may not still parse — general bit-rot).
    RandomByte,
    /// Force the IPv4 IHL nibble below 5 (header shorter than the
    /// fixed part — the parser must reject, never index with it).
    BadIhl,
    /// Force the IP version nibble to anything but 4.
    BadVersion,
}

/// A scheduled per-queue stall: RX queue `queue` of port `dir` reports
/// empty during service rounds `[start_round, start_round + rounds)`.
/// Rounds are counted by [`PacketIo::pump_rx`] calls on the wrapper —
/// one per driver service round. Stalled frames are delayed, not lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// Stalled port.
    pub dir: Direction,
    /// Stalled RX queue on that port.
    pub queue: usize,
    /// First stalled service round (rounds count from 1).
    pub start_round: u64,
    /// Number of consecutive stalled rounds.
    pub rounds: u64,
}

/// A seeded, schedulable fault plan. [`FaultPlan::none`] is the empty
/// schedule (the identity); rates are expressed as "fire once per `n`
/// opportunities in expectation" with `n == 0` meaning never and
/// `n == 1` meaning always.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_1_in: u64,
    truncate_1_in: u64,
    truncate_kind: TruncateKind,
    corrupt_1_in: u64,
    corrupt_kind: CorruptKind,
    duplicate_1_in: u64,
    reorder_1_in: u64,
    pump_error_1_in: u64,
    tx_reject_1_in: u64,
    tx_overrun_len: u64,
    stalls: Vec<StallWindow>,
}

impl FaultPlan {
    /// The empty schedule: no faults, ever. `FaultIo` with this plan is
    /// the identity wrapper (proven differentially in
    /// `tests/backend_conformance.rs`).
    pub fn none() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// An empty plan carrying `seed`; compose faults with the builder
    /// methods.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_1_in: 0,
            truncate_1_in: 0,
            truncate_kind: TruncateKind::RandomTail,
            corrupt_1_in: 0,
            corrupt_kind: CorruptKind::RandomByte,
            duplicate_1_in: 0,
            reorder_1_in: 0,
            pump_error_1_in: 0,
            tx_reject_1_in: 0,
            tx_overrun_len: 1,
            stalls: Vec::new(),
        }
    }

    /// Drop one received frame in `n` (buffer reclaimed, loss counted).
    pub fn drop_1_in(mut self, n: u64) -> FaultPlan {
        self.drop_1_in = n;
        self
    }

    /// Truncate one received frame in `n` with the given profile.
    pub fn truncate_1_in(mut self, n: u64, kind: TruncateKind) -> FaultPlan {
        self.truncate_1_in = n;
        self.truncate_kind = kind;
        self
    }

    /// Corrupt one received frame in `n` with the given profile.
    pub fn corrupt_1_in(mut self, n: u64, kind: CorruptKind) -> FaultPlan {
        self.corrupt_1_in = n;
        self.corrupt_kind = kind;
        self
    }

    /// Deliver one received frame in `n` twice (the duplicate rides in
    /// the same burst, budget permitting).
    pub fn duplicate_1_in(mut self, n: u64) -> FaultPlan {
        self.duplicate_1_in = n;
        self
    }

    /// Swap one received frame in `n` with its successor in the burst
    /// (within-queue reordering).
    pub fn reorder_1_in(mut self, n: u64) -> FaultPlan {
        self.reorder_1_in = n;
        self
    }

    /// Make one `pump_rx` call in `n` return without pumping — the
    /// simulated transient `EINTR`/`EAGAIN`. Frames are delayed to the
    /// next pump, never lost.
    pub fn pump_error_1_in(mut self, n: u64) -> FaultPlan {
        self.pump_error_1_in = n;
        self
    }

    /// Make one `tx_put` in `n` fail as if the ring were full
    /// (simulated `ENOBUFS`), and keep failing for `overrun_len`
    /// consecutive puts — `overrun_len` larger than the driver's retry
    /// budget forces a ring-overrun drop.
    pub fn tx_reject_1_in(mut self, n: u64, overrun_len: u64) -> FaultPlan {
        self.tx_reject_1_in = n;
        self.tx_overrun_len = overrun_len.max(1);
        self
    }

    /// Schedule a per-queue stall window (see [`StallWindow`]).
    pub fn stall(
        mut self,
        dir: Direction,
        queue: usize,
        start_round: u64,
        rounds: u64,
    ) -> FaultPlan {
        self.stalls.push(StallWindow {
            dir,
            queue,
            start_round,
            rounds,
        });
        self
    }

    /// Whether this plan is the empty schedule (the identity wrapper).
    pub fn is_identity(&self) -> bool {
        self.drop_1_in == 0
            && self.truncate_1_in == 0
            && self.corrupt_1_in == 0
            && self.duplicate_1_in == 0
            && self.reorder_1_in == 0
            && self.pump_error_1_in == 0
            && self.tx_reject_1_in == 0
            && self.stalls.is_empty()
    }
}

/// Attribution counters: every frame the fault layer loses, delays, or
/// fabricates lands in exactly one of these — the chaos suites close
/// the conservation equation over them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Received frames deliberately dropped (buffers reclaimed).
    pub rx_injected_drops: u64,
    /// Received frames truncated (frame survives, shorter).
    pub rx_truncated: u64,
    /// Received frames with damaged bytes (frame survives, same length).
    pub rx_corrupted: u64,
    /// Extra copies fabricated by duplication faults.
    pub rx_duplicated: u64,
    /// Duplication faults that fired but found no free buffer (no frame
    /// gained or lost — the fault degraded to a no-op, honestly).
    pub dup_pool_denied: u64,
    /// Adjacent-swap reorderings applied within a burst.
    pub rx_reordered: u64,
    /// `pump_rx` calls turned into simulated transient errors.
    pub pump_faults: u64,
    /// `tx_put` calls refused with a simulated full ring.
    pub tx_rejections: u64,
    /// Service rounds during which at least one queue was stalled.
    pub stalled_rounds: u64,
}

/// A [`PacketIo`] wrapper injecting the faults scheduled by a
/// [`FaultPlan`] — see the module docs for the taxonomy and the
/// identity theorem.
pub struct FaultIo<B: PacketIo> {
    inner: B,
    plan: FaultPlan,
    stats: FaultStats,
    rng: u64,
    round: u64,
    tx_overrun_left: u64,
    // The plan is immutable after construction, so the identity test
    // is hoisted out of the per-call hot path: with the empty schedule
    // every PacketIo method is one branch plus the delegate — and the
    // disarmed seam is the inner backend byte for byte, which
    // `tests/backend_conformance.rs`'s `faultio*` cases hold it to.
    identity: bool,
}

impl<B: PacketIo> FaultIo<B> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> FaultIo<B> {
        let rng = plan.seed;
        let identity = plan.is_identity();
        FaultIo {
            inner,
            plan,
            stats: FaultStats::default(),
            rng,
            round: 0,
            tx_overrun_left: 0,
            identity,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap, returning the backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The fault attribution counters so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan this wrapper runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Service rounds seen (one per [`PacketIo::pump_rx`] call).
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// SplitMix64 — one deterministic stream drives every decision.
    fn next_rng(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fire a 1-in-`rate` fault (`rate == 0`: never, consumes no
    /// randomness — the identity fast path stays bit-exact).
    fn fire(&mut self, rate: u64) -> bool {
        rate != 0 && self.next_rng().is_multiple_of(rate)
    }

    fn stalled(&self, dir: Direction, q: usize) -> bool {
        self.plan.stalls.iter().any(|w| {
            w.dir == dir
                && w.queue == q
                && self.round >= w.start_round
                && self.round < w.start_round + w.rounds
        })
    }

    fn any_stall_active(&self) -> bool {
        self.plan
            .stalls
            .iter()
            .any(|w| self.round >= w.start_round && self.round < w.start_round + w.rounds)
    }

    /// Apply per-frame RX faults to the freshly-drained tail
    /// `out[start..]`, in a fixed order (drop → truncate → corrupt →
    /// duplicate → reorder) so a schedule replays exactly.
    fn fault_rx_tail(&mut self, max: usize, out: &mut Vec<BufIdx>, start: usize) {
        // Drops: reclaim the buffer, attribute the loss.
        let mut i = start;
        while i < out.len() {
            if self.fire(self.plan.drop_1_in) {
                let buf = out.remove(i);
                self.inner.pool_mut().put(buf);
                self.stats.rx_injected_drops += 1;
            } else {
                i += 1;
            }
        }
        // Truncations: rewrite the buffer with a shorter prefix.
        for &buf in out.iter().skip(start) {
            if !self.fire(self.plan.truncate_1_in) {
                continue;
            }
            let len = self.inner.pool().frame(buf).len();
            if len == 0 {
                continue;
            }
            let cut = match self.plan.truncate_kind {
                TruncateKind::RandomTail => (self.next_rng() % len as u64) as usize,
                TruncateKind::ShortL4 => {
                    if len <= 14 {
                        continue;
                    }
                    let ihl = (self.inner.pool().frame(buf)[14] & 0x0f) as usize;
                    let cut = 14 + ihl * 4 + (self.next_rng() % 8) as usize;
                    if cut >= len {
                        continue;
                    }
                    cut
                }
            };
            // Faults are rare; a per-fault allocation keeps the hot
            // (fault-free) path allocation-free.
            let prefix = self.inner.pool().frame(buf)[..cut].to_vec();
            self.inner.pool_mut().write_frame(buf, &prefix);
            self.stats.rx_truncated += 1;
        }
        // Corruption: damage bytes in place, length unchanged.
        for &buf in out.iter().skip(start) {
            if !self.fire(self.plan.corrupt_1_in) {
                continue;
            }
            let len = self.inner.pool().frame(buf).len();
            match self.plan.corrupt_kind {
                CorruptKind::RandomByte => {
                    if len == 0 {
                        continue;
                    }
                    let at = (self.next_rng() % len as u64) as usize;
                    let mask = (self.next_rng() as u8) | 1;
                    self.inner.pool_mut().frame_mut(buf)[at] ^= mask;
                }
                CorruptKind::BadIhl => {
                    if len <= 14 {
                        continue;
                    }
                    let bad = (self.next_rng() % 5) as u8; // IHL 0..=4 < minimum 5
                    let b = &mut self.inner.pool_mut().frame_mut(buf)[14];
                    *b = (*b & 0xf0) | bad;
                }
                CorruptKind::BadVersion => {
                    if len <= 14 {
                        continue;
                    }
                    let mut v = (self.next_rng() % 15) as u8;
                    if v >= 4 {
                        v += 1; // anything but 4
                    }
                    let b = &mut self.inner.pool_mut().frame_mut(buf)[14];
                    *b = (v << 4) | (*b & 0x0f);
                }
            }
            self.stats.rx_corrupted += 1;
        }
        // Duplication: fabricate a copy at the end of the burst, budget
        // and pool permitting.
        let tail_len = out.len() - start;
        for i in start..start + tail_len {
            if !self.fire(self.plan.duplicate_1_in) {
                continue;
            }
            if out.len() - start >= max {
                break; // burst budget exhausted — no frame gained or lost
            }
            let src = out[i];
            match self.inner.pool_mut().get() {
                Some(dup) => {
                    let bytes = self.inner.pool().frame(src).to_vec();
                    self.inner.pool_mut().write_frame(dup, &bytes);
                    out.push(dup);
                    self.stats.rx_duplicated += 1;
                }
                None => self.stats.dup_pool_denied += 1,
            }
        }
        // Reordering: adjacent swaps within the burst.
        if out.len() - start >= 2 {
            for i in start..out.len() - 1 {
                if self.fire(self.plan.reorder_1_in) {
                    out.swap(i, i + 1);
                    self.stats.rx_reordered += 1;
                }
            }
        }
    }
}

impl<B: PacketIo> PacketIo for FaultIo<B> {
    fn queue_count(&self) -> usize {
        self.inner.queue_count()
    }

    fn pool(&self) -> &Mempool {
        self.inner.pool()
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        self.inner.pool_mut()
    }

    fn pump_rx(&mut self) -> usize {
        self.round += 1;
        if self.identity {
            return self.inner.pump_rx();
        }
        if self.any_stall_active() {
            self.stats.stalled_rounds += 1;
        }
        if self.fire(self.plan.pump_error_1_in) {
            // Simulated transient EINTR/EAGAIN: nothing pumped this
            // round; the outside world keeps its frames for the next.
            self.stats.pump_faults += 1;
            return 0;
        }
        self.inner.pump_rx()
    }

    fn rx_len(&self, dir: Direction, q: usize) -> usize {
        if !self.identity && self.stalled(dir, q) {
            0
        } else {
            self.inner.rx_len(dir, q)
        }
    }

    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        if self.identity {
            return self.inner.rx_burst(dir, q, max, out);
        }
        if self.stalled(dir, q) {
            return 0;
        }
        let start = out.len();
        let n = self.inner.rx_burst(dir, q, max, out);
        if n > 0 {
            self.fault_rx_tail(max, out, start);
        }
        out.len() - start
    }

    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool {
        if self.identity {
            return self.inner.tx_put(dir, q, buf);
        }
        if self.tx_overrun_left > 0 {
            self.tx_overrun_left -= 1;
            self.stats.tx_rejections += 1;
            return false;
        }
        if self.fire(self.plan.tx_reject_1_in) {
            self.stats.tx_rejections += 1;
            self.tx_overrun_left = self.plan.tx_overrun_len - 1;
            return false;
        }
        self.inner.tx_put(dir, q, buf)
    }

    fn flush_tx(&mut self) -> usize {
        self.inner.flush_tx()
    }

    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.inner.queue_stats(dir, q)
    }
}

impl<B: TesterIo> TesterIo for FaultIo<B> {
    fn stage(
        &mut self,
        dir: Direction,
        fields_writer: impl FnOnce(&mut [u8]) -> usize,
    ) -> Option<usize> {
        self.inner.stage(dir, fields_writer)
    }

    fn reap(&mut self, dir: Direction) -> Vec<(usize, Vec<u8>)> {
        self.inner.reap(dir)
    }
}

#[cfg(target_os = "linux")]
impl<B: super::os::WireBackend> super::os::WireBackend for FaultIo<B> {
    fn classifier(&self) -> crate::frame_env::RssClassifier {
        self.inner.classifier()
    }

    fn set_rx_log(&mut self, on: bool) {
        self.inner.set_rx_log(on)
    }

    fn take_rx_log(&mut self) -> Vec<(Direction, Vec<u8>)> {
        self.inner.take_rx_log()
    }

    fn rx_errors(&self) -> u64 {
        self.inner.rx_errors()
    }

    fn tx_errors(&self) -> u64 {
        self.inner.tx_errors()
    }

    fn kernel_drops(&mut self) -> u64 {
        self.inner.kernel_drops()
    }

    fn io_retries(&self) -> super::os::IoRetryStats {
        self.inner.io_retries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::frame_env::RssClassifier;
    use vig_packet::builder::PacketBuilder;
    use vig_packet::Ip4;
    use vig_spec::NatConfig;

    fn test_cfg() -> NatConfig {
        NatConfig {
            capacity: 256,
            expiry_ns: 1_000_000_000,
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    fn sim(queues: usize) -> SimBackend {
        SimBackend::new(RssClassifier::for_nat(&test_cfg(), queues), 16)
    }

    fn stage_udp(io: &mut impl TesterIo, i: u32) -> Option<usize> {
        let frame = PacketBuilder::udp(
            Ip4(0x0a00_0100 | (i & 0xff)),
            Ip4::new(1, 1, 1, 1),
            5000 + i as u16,
            53,
        )
        .build();
        io.stage(Direction::Internal, |b| {
            b[..frame.len()].copy_from_slice(&frame);
            frame.len()
        })
    }

    #[test]
    fn empty_plan_is_identity_on_a_burst() {
        let mut bare = sim(2);
        let mut wrapped = FaultIo::new(sim(2), FaultPlan::none());
        for i in 0..32 {
            assert_eq!(stage_udp(&mut bare, i), stage_udp(&mut wrapped, i));
        }
        for q in 0..2 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            assert_eq!(
                bare.rx_burst(Direction::Internal, q, 64, &mut a),
                wrapped.rx_burst(Direction::Internal, q, 64, &mut b)
            );
            let fa: Vec<Vec<u8>> = a.iter().map(|&x| bare.pool().frame(x).to_vec()).collect();
            let fb: Vec<Vec<u8>> = b
                .iter()
                .map(|&x| wrapped.pool().frame(x).to_vec())
                .collect();
            assert_eq!(fa, fb);
            assert_eq!(
                bare.queue_stats(Direction::Internal, q),
                wrapped.queue_stats(Direction::Internal, q)
            );
        }
        assert_eq!(wrapped.fault_stats(), FaultStats::default());
    }

    #[test]
    fn drop_always_loses_every_frame_with_attribution() {
        let mut io = FaultIo::new(sim(1), FaultPlan::seeded(7).drop_1_in(1));
        let free0 = io.inner().pool_available();
        for i in 0..8 {
            stage_udp(&mut io, i).expect("staged");
        }
        let mut out = Vec::new();
        assert_eq!(io.rx_burst(Direction::Internal, 0, 64, &mut out), 0);
        assert_eq!(io.fault_stats().rx_injected_drops, 8);
        assert_eq!(io.inner().pool_available(), free0, "buffers reclaimed");
    }

    #[test]
    fn stall_window_delays_but_never_loses() {
        let mut io = FaultIo::new(
            sim(1),
            FaultPlan::seeded(7).stall(Direction::Internal, 0, 1, 2),
        );
        stage_udp(&mut io, 1).expect("staged");
        io.pump_rx(); // round 1: stalled
        assert_eq!(io.rx_len(Direction::Internal, 0), 0);
        let mut out = Vec::new();
        assert_eq!(io.rx_burst(Direction::Internal, 0, 64, &mut out), 0);
        io.pump_rx(); // round 2: still stalled
        assert_eq!(io.rx_len(Direction::Internal, 0), 0);
        io.pump_rx(); // round 3: window over — the frame is back
        assert_eq!(io.rx_len(Direction::Internal, 0), 1);
        assert_eq!(io.rx_burst(Direction::Internal, 0, 64, &mut out), 1);
        assert_eq!(io.fault_stats().stalled_rounds, 2);
    }

    #[test]
    fn corruption_profiles_hit_their_header_fields() {
        for kind in [CorruptKind::BadIhl, CorruptKind::BadVersion] {
            let mut io = FaultIo::new(sim(1), FaultPlan::seeded(3).corrupt_1_in(1, kind));
            for i in 0..8 {
                stage_udp(&mut io, i).expect("staged");
            }
            let mut out = Vec::new();
            let n = io.rx_burst(Direction::Internal, 0, 64, &mut out);
            assert_eq!(n, 8);
            for &b in &out {
                let vihl = io.pool().frame(b)[14];
                let rejected = match kind {
                    CorruptKind::BadIhl => vihl & 0x0f < 5,
                    CorruptKind::BadVersion => vihl >> 4 != 4,
                    CorruptKind::RandomByte => unreachable!(),
                };
                assert!(rejected, "profile {kind:?} applied");
            }
            assert_eq!(io.fault_stats().rx_corrupted, 8);
        }
    }

    #[test]
    fn tx_overrun_burst_rejects_consecutive_puts() {
        let mut io = FaultIo::new(sim(1), FaultPlan::seeded(3).tx_reject_1_in(1, 3));
        let b = io.pool_mut().get().expect("buffer");
        io.pool_mut().write_frame(b, &[0u8; 64]);
        for _ in 0..3 {
            assert!(!io.tx_put(Direction::External, 0, b));
        }
        assert_eq!(io.fault_stats().tx_rejections, 3);
        io.pool_mut().put(b);
    }
}
