//! The async (epoll-style) event-driven driver: the one piece of code
//! that moves frames from an RX ring into
//! [`Middlebox::process_burst`] and verdicts out to a TX ring.
//!
//! The paper's NAT is one run-to-completion loop over one RX ring; this
//! module is the I/O layer that feeds the *same verified loop body*
//! from N hardware queues instead. [`BackendDriver`] is that layer, one
//! type with no scheduling knobs (its one switch,
//! [`BackendDriver::set_tx_log`], records forwarded frames for test
//! traces and changes nothing it schedules):
//!
//! * **readiness** — each round scans every RX queue of both ports
//!   (internal port first, ascending queue index) for "queue
//!   non-empty", epoll's `EPOLLIN` analog for a poll-mode driver;
//! * **scheduling** — round-robin over the ready queues, the start
//!   position rotating one step per non-idle round so no queue index
//!   is structurally favoured, each visit taking at most [`MAX_BURST`]
//!   frames so one deep queue cannot starve its siblings;
//! * **idle backoff** — a round that finds nothing ready doubles the
//!   pause a live loop should take (1 µs up to 128 µs, a poll-mode
//!   driver's typical ladder); any readiness resets it.
//!
//! The drain loop is written once over the [`PacketIo`] backend seam
//! (see [`crate::backend`]), so it runs identically on the simulated
//! NIC model ([`SimBackend`](crate::backend::SimBackend), any queue
//! count down to one) and on real OS packet I/O
//! (`backend::os::mmap::MmapBackend`). Its scratch is reused across
//! drains, so the steady-state path allocates nothing here.
//!
//! Packets reach the NF through the ordinary [`Middlebox::process_burst`]
//! — each queue visit becomes one `BurstEnv` drain of the verified
//! batch loop — so the event-driven driver changes *when* bursts run,
//! never *what* a burst does. `tests/queue_equivalence.rs` proves the
//! output byte-for-byte equivalent per flow to the sequential
//! per-frame [`Middlebox::process`] oracle.
//!
//! ## Ordering guarantees (and the shape of the equivalence proof)
//!
//! The driver preserves FIFO order *within* each ring and promises
//! nothing *across* rings. With `queues == shards` the RSS classifier
//! and the flow table's dispatch are the same function, so each queue
//! carries exactly one shard's subsequence and per-flow behaviour —
//! allocation order, ports, rewrites — is identical to sequential
//! processing. Two orderings are genuinely schedule-dependent, exactly
//! as on real multi-queue hardware: the interleaving of a shard's
//! *internal*-port and *external*-port rings (replies allocate
//! nothing, so only rejuvenation/LRU order — hence slot-*reuse* order
//! after an expiry wave — can differ), and, with `queues > shards`
//! (several queues nested per shard by the multiply-shift reduction),
//! the allocation order of same-shard flows arriving on different
//! queues; translation of *established* flows remains byte-identical
//! in every case. See `docs/ARCHITECTURE.md`.

use crate::backend::PacketIo;
use crate::dpdk::BufIdx;
use crate::middlebox::{Middlebox, Verdict};
use libvig::time::Time;
use vig_packet::Direction;
use vignat::MAX_BURST;

/// First rung of the idle-backoff ladder, which doubles per idle round
/// up to [`BACKOFF_MAX_NS`]: this driver's virtual backoff and the
/// pinned runtime's sleep phase climb the same one.
pub(crate) const BACKOFF_MIN_NS: u64 = 1_000;

/// Cap of the idle-backoff ladder.
pub(crate) const BACKOFF_MAX_NS: u64 = 128_000;

/// What one event-driven drain did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped by the NF.
    pub dropped: u64,
    /// Queue-visit bursts processed.
    pub bursts: u64,
    /// Poll rounds taken (including the final empty one).
    pub polls: u64,
    /// Forwarded frames dropped at TX because the ring stayed full
    /// through the bounded flush-and-retry budget — a real overrun
    /// (forced or organic), accounted instead of stalling or panicking.
    /// Zero on every loss-free path, so equality comparisons against
    /// pre-fault-layer expectations are unchanged.
    pub tx_dropped: u64,
    /// Wall-clock nanoseconds of the drain loop (the timed region the
    /// throughput measurements use).
    pub elapsed_ns: u64,
}

/// Flush-and-retry attempts [`BackendDriver`] makes before it drops a
/// frame whose TX ring stays full ([`DrainStats::tx_dropped`]): enough
/// to ride out a transient `ENOBUFS` burst shorter than the budget,
/// bounded so a wedged ring degrades to accounted loss, never an
/// unbounded stall.
pub const TX_RETRY_BUDGET: usize = 4;

/// One transmitted frame as the driver saw it leave: which port, which
/// TX queue, and the rewritten bytes — the unit of the tx-trace
/// conformance proofs (and the artifact the CI OS-backend job uploads
/// on failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRecord {
    /// The port the frame left on.
    pub out: Direction,
    /// The TX queue it was placed on (the carrying RX queue's index).
    pub queue: usize,
    /// The frame bytes after the NAT's rewrite.
    pub frame: Vec<u8>,
}

/// The event-driven driver: scan for ready queues, visit them in
/// rotating round-robin order, and run each visit's burst of up to
/// [`MAX_BURST`] frames through [`Middlebox::process_burst`] — one
/// queue visit, one `BurstEnv` drain of the verified batch loop.
/// Forwarded frames go out on the destination port's TX queue of the
/// same index (a run-to-completion core owns its queue pair). Written
/// once over [`PacketIo`], so it runs identically on the simulated NIC
/// model and on real OS packet I/O; `tests/queue_equivalence.rs` proves
/// the `SimBackend` instantiation byte-for-byte equivalent per flow to
/// the sequential per-frame oracle.
pub struct BackendDriver<B: PacketIo> {
    io: B,
    /// The last scan's ready queues, in scan order.
    ready: Vec<(Direction, usize)>,
    /// Non-idle rounds so far: the rotation's start position.
    round: usize,
    /// How long a live loop should sleep after an idle round.
    backoff_ns: u64,
    /// One visit's buffers.
    batch: Vec<BufIdx>,
    tx_log: Option<Vec<TxRecord>>,
}

impl<B: PacketIo> BackendDriver<B> {
    /// Driver over `io`.
    pub fn new(io: B) -> BackendDriver<B> {
        BackendDriver {
            io,
            ready: Vec::new(),
            round: 0,
            backoff_ns: BACKOFF_MIN_NS,
            batch: Vec::with_capacity(MAX_BURST),
            tx_log: None,
        }
    }

    /// The backend (stats, tester-side access).
    pub fn io(&self) -> &B {
        &self.io
    }

    /// Mutable backend access (tester-side staging between drains).
    pub fn io_mut(&mut self) -> &mut B {
        &mut self.io
    }

    /// Unwrap the driver, returning the backend — so a measurement run
    /// can read backend counters (kernel drops, tx errors) that must
    /// outlive the drive loop.
    pub fn into_io(self) -> B {
        self.io
    }

    /// Record every forwarded frame as a [`TxRecord`] (conformance
    /// traces). Off by default — the steady-state path allocates
    /// nothing.
    pub fn set_tx_log(&mut self, on: bool) {
        self.tx_log = if on { Some(Vec::new()) } else { None };
    }

    /// Take the recorded tx trace (see [`BackendDriver::set_tx_log`]).
    pub fn take_tx_log(&mut self) -> Vec<TxRecord> {
        self.tx_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// One service round: pump the backend's RX path, scan for ready
    /// queues, and visit every ready queue once in rotating order,
    /// draining up to [`MAX_BURST`] frames per visit through
    /// [`Middlebox::process_burst`]. Returns how many queues were ready
    /// (0 = idle round).
    fn service_round(
        &mut self,
        nf: &mut dyn Middlebox,
        now: Time,
        stats: &mut DrainStats,
    ) -> usize {
        stats.polls += 1;
        self.io.pump_rx();
        self.ready.clear();
        for dir in [Direction::Internal, Direction::External] {
            for q in 0..self.io.queue_count() {
                if self.io.rx_len(dir, q) > 0 {
                    self.ready.push((dir, q));
                }
            }
        }
        let n_ready = self.ready.len();
        if n_ready == 0 {
            self.backoff_ns = (self.backoff_ns * 2).min(BACKOFF_MAX_NS);
            return 0;
        }
        self.backoff_ns = BACKOFF_MIN_NS;
        let start = self.round % n_ready;
        self.round = self.round.wrapping_add(1);
        for k in 0..n_ready {
            let (dir, queue) = self.ready[(start + k) % n_ready];
            self.batch.clear();
            if self.io.rx_burst(dir, queue, MAX_BURST, &mut self.batch) == 0 {
                continue;
            }
            stats.bursts += 1;
            let verdicts = nf.process_burst(dir, self.io.pool_mut(), &self.batch, now);
            debug_assert_eq!(verdicts.len(), self.batch.len());
            for (&buf, v) in self.batch.iter().zip(&verdicts) {
                match v {
                    Verdict::Forward(out) => {
                        // Capture trace bytes before the put (the mmap
                        // backend reclaims the buffer on success), but
                        // commit the record only if the frame left: a
                        // TX-dropped frame is accounted, not traced.
                        let trace = self.tx_log.as_ref().map(|_| TxRecord {
                            out: *out,
                            queue,
                            frame: self.io.pool().frame(buf).to_vec(),
                        });
                        // A full TX queue mid-drain happens on a live
                        // backend (pump_rx refills RX between rounds
                        // faster than flush_tx runs) or under an
                        // injected overrun: flush and retry up to the
                        // budget, then drop with accounting — bounded
                        // degradation, never a stall or a panic. On the
                        // sim backend flush is a no-op, and a tester
                        // that reaps between drains leaves each TX ring
                        // (as deep as the RX ring feeding it) room for
                        // the whole drain, so the first put succeeds.
                        let mut sent = self.io.tx_put(*out, queue, buf);
                        for _ in 0..TX_RETRY_BUDGET {
                            if sent {
                                break;
                            }
                            self.io.flush_tx();
                            sent = self.io.tx_put(*out, queue, buf);
                        }
                        if sent {
                            if let (Some(log), Some(rec)) = (&mut self.tx_log, trace) {
                                log.push(rec);
                            }
                            stats.forwarded += 1;
                        } else {
                            self.io.pool_mut().put(buf);
                            stats.tx_dropped += 1;
                        }
                    }
                    Verdict::Drop => {
                        self.io.pool_mut().put(buf);
                        stats.dropped += 1;
                    }
                }
            }
        }
        n_ready
    }

    /// Drain until idle: service rounds until a scan finds no queue
    /// ready, then flush TX to the backend's outside world. The final
    /// empty round is counted in [`DrainStats::polls`].
    pub fn drain(&mut self, nf: &mut dyn Middlebox, now: Time) -> DrainStats {
        let mut stats = DrainStats::default();
        let t0 = std::time::Instant::now();
        while self.service_round(nf, now, &mut stats) > 0 {}
        self.io.flush_tx();
        stats.elapsed_ns = t0.elapsed().as_nanos() as u64;
        stats
    }

    /// One service round + TX flush — the building block of a *live*
    /// loop, which re-reads its clock between rounds and sleeps
    /// [`BackendDriver::current_backoff_ns`] when a round reports idle
    /// (see `examples/live_nat.rs`).
    pub fn service_once(&mut self, nf: &mut dyn Middlebox, now: Time) -> DrainStats {
        let mut stats = DrainStats::default();
        let t0 = std::time::Instant::now();
        self.service_round(nf, now, &mut stats);
        self.io.flush_tx();
        stats.elapsed_ns = t0.elapsed().as_nanos() as u64;
        stats
    }

    /// How long a live loop should sleep after an idle round: 1 µs
    /// after any readiness, doubling with each idle round up to 128 µs.
    pub fn current_backoff_ns(&self) -> u64 {
        self.backoff_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SimBackend, TesterIo};
    use crate::dpdk::MBUF_SIZE;
    use crate::frame_env::RssClassifier;
    use crate::middlebox::{ShardedVigNatMb, VigNatMb};
    use crate::tester::FlowGen;
    use vig_packet::{Ip4, Proto};
    use vig_spec::NatConfig;

    fn cfg(cap: usize) -> NatConfig {
        NatConfig {
            capacity: cap,
            expiry_ns: Time::from_secs(60).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1,
            ..NatConfig::paper_default()
        }
    }

    fn sim(c: &NatConfig, queues: usize, ring: usize) -> SimBackend {
        SimBackend::new(RssClassifier::for_nat(c, queues), ring)
    }

    /// Stage background flow `i` on the internal port.
    fn stage(io: &mut impl TesterIo, gen: &FlowGen, i: u32) -> Option<usize> {
        let f = gen.background(i);
        io.stage(Direction::Internal, |b| gen.write_frame(&f, b))
    }

    /// Background flow indices `0..512` sorted by the internal RX queue
    /// a 2-queue classifier steers them to.
    fn flows_by_queue(io: &SimBackend, gen: &FlowGen) -> [Vec<u32>; 2] {
        let mut by_queue: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        let mut buf = [0u8; MBUF_SIZE];
        for i in 0..512u32 {
            let n = gen.write_frame(&gen.background(i), &mut buf);
            by_queue[io.classifier().queue_of(Direction::Internal, &buf[..n])].push(i);
        }
        by_queue
    }

    #[test]
    fn poller_reports_readiness_and_backs_off_when_idle() {
        let c = cfg(64);
        let mut nf = VigNatMb::new(c);
        let mut drv = BackendDriver::new(sim(&c, 2, 4));
        let now = Time::from_secs(1);
        // Idle rounds double the backoff from 1 µs up to the 128 µs cap.
        assert_eq!(drv.current_backoff_ns(), 1_000);
        for want in [2, 4, 8, 16, 32, 64, 128, 128] {
            let idle = drv.service_once(&mut nf, now);
            assert_eq!((idle.polls, idle.bursts), (1, 0));
            assert_eq!(drv.current_backoff_ns(), want * 1_000);
        }

        // Readiness resets the backoff, and the round serves exactly
        // the queue the frame landed on.
        drv.set_tx_log(true);
        let queue = stage(drv.io_mut(), &FlowGen::new(Proto::Udp), 0).expect("ring has room");
        let busy = drv.service_once(&mut nf, now);
        assert_eq!((busy.bursts, busy.forwarded), (1, 1));
        let log = drv.take_tx_log();
        assert_eq!((log[0].out, log[0].queue), (Direction::External, queue));
        assert_eq!(drv.current_backoff_ns(), 1_000);
        let _ = drv.io_mut().reap(Direction::External);
    }

    /// 48 fresh flows through 4 queues into a 2-shard NAT, one drain,
    /// tx log on: the shared scene of the two translate-and-reclaim
    /// tests.
    fn drain_48_flows() -> (BackendDriver<SimBackend>, ShardedVigNatMb, DrainStats) {
        let c = cfg(256);
        let mut nf = ShardedVigNatMb::sharded(c, 2);
        let mut drv = BackendDriver::new(sim(&c, 4, 64));
        drv.set_tx_log(true);
        let gen = FlowGen::new(Proto::Udp);
        for i in 0..48u32 {
            assert!(stage(drv.io_mut(), &gen, i).is_some());
        }
        let stats = drv.drain(&mut nf, Time::from_secs(1));
        (drv, nf, stats)
    }

    #[test]
    fn event_driven_drain_translates_and_reclaims_buffers() {
        let (mut drv, nf, stats) = drain_48_flows();
        assert_eq!(stats.forwarded, 48);
        assert_eq!(stats.dropped, 0);
        assert!(stats.bursts >= 1);
        let tx = drv.io_mut().reap(Direction::External);
        assert_eq!(tx.len(), 48);
        // Every output frame carries the external ip, and the port it
        // was allocated belongs to the *shard* the carrying queue nests
        // in (4 queues nest pairwise inside 2 shards).
        for (q, frame) in &tx {
            let (_, ff) = vig_packet::parse_l3l4(frame).unwrap();
            assert_eq!(ff.src_ip, Ip4::new(10, 1, 0, 1));
            let port_shard = nf
                .flow_manager()
                .shard_of_port(ff.src_port)
                .expect("allocated port is in range");
            assert_eq!(
                port_shard,
                q * 2 / 4,
                "the port's shard must be the one the carrying queue nests in"
            );
        }
        assert_eq!(
            drv.io().pool_available(),
            drv.io().pool().capacity(),
            "no buffer leaks"
        );
        assert_eq!(nf.occupancy(), 48);
    }

    #[test]
    fn wrr_budget_interleaves_deep_and_shallow_queues() {
        // One deep queue must not be drained to completion before a
        // shallow sibling gets service: a visit takes at most
        // MAX_BURST frames, so the deep queue needs several visits,
        // and each round visits every ready queue once.
        let c = cfg(256);
        let mut nf = VigNatMb::new(c);
        let mut drv = BackendDriver::new(sim(&c, 2, 128));
        let gen = FlowGen::new(Proto::Udp);
        let by_queue = flows_by_queue(drv.io(), &gen);
        let deep = 3 * MAX_BURST + 4;
        for (q, count) in [(0, deep), (1, 8)] {
            for k in 0..count {
                let i = by_queue[q][k % by_queue[q].len()];
                assert_eq!(stage(drv.io_mut(), &gen, i), Some(q));
            }
        }
        drv.set_tx_log(true);
        let stats = drv.drain(&mut nf, Time::from_secs(1));
        assert_eq!(stats.forwarded, deep as u64 + 8);
        // Deep queue: 4 visits (three full, one of 4 frames); shallow:
        // 1. Five rounds, the last one empty: the deep queue re-polls
        // while the shallow one is done.
        assert_eq!((stats.bursts, stats.polls), (5, 5), "budgeted visits");
        // The first round serves both queues once: the shallow queue's
        // 8 frames have all left within the first MAX_BURST + 8
        // transmissions.
        let log = drv.take_tx_log();
        let last_shallow = log.iter().rposition(|r| r.queue == 1).unwrap();
        assert!(
            last_shallow < MAX_BURST + 8,
            "shallow queue waited for the deep one"
        );
        let _ = drv.io_mut().reap(Direction::External);
    }

    #[test]
    fn sequential_oracle_matches_event_driven_on_totals() {
        // The reference is the thing that is actually one: per-frame
        // `Middlebox::process` in arrival order.
        let c = cfg(128);
        let gen = FlowGen::new(Proto::Udp);
        let mut nf_drv = ShardedVigNatMb::sharded(c, 2);
        let mut nf_seq = ShardedVigNatMb::sharded(c, 2);
        let mut drv = BackendDriver::new(sim(&c, 2, 64));
        let (mut fwd, mut drop) = (0u64, 0u64);
        let mut buf = [0u8; MBUF_SIZE];
        for i in 0..32u32 {
            assert!(stage(drv.io_mut(), &gen, i).is_some());
            let n = gen.write_frame(&gen.background(i), &mut buf);
            match nf_seq.process(Direction::Internal, &mut buf[..n], Time::from_secs(1)) {
                Verdict::Forward(_) => fwd += 1,
                Verdict::Drop => drop += 1,
            }
        }
        let s = drv.drain(&mut nf_drv, Time::from_secs(1));
        assert_eq!((s.forwarded, s.dropped), (fwd, drop));
        assert_eq!(nf_drv.occupancy(), nf_seq.occupancy());
        assert_eq!(
            nf_drv.flow_manager().snapshot(),
            nf_seq.flow_manager().snapshot()
        );
        let _ = drv.io_mut().reap(Direction::External);
    }

    #[test]
    fn backend_driver_over_sim_translates_and_reclaims_buffers() {
        let (mut drv, nf, stats) = drain_48_flows();
        assert_eq!((stats.forwarded, stats.dropped), (48, 0));
        let log = drv.take_tx_log();
        assert_eq!(log.len(), 48);
        assert!(log.iter().all(|r| r.out == Direction::External));
        let tx = drv.io_mut().reap(Direction::External);
        assert_eq!(tx.len(), 48);
        // The tx log records the same frames the backend transmitted
        // (reap returns queue order; the log is drain order — compare
        // as multisets of (queue, bytes)).
        let mut logged: Vec<(usize, Vec<u8>)> =
            log.into_iter().map(|r| (r.queue, r.frame)).collect();
        let mut reaped = tx;
        logged.sort();
        reaped.sort();
        assert_eq!(logged, reaped);
        assert_eq!(
            drv.io().pool_available(),
            drv.io().pool().capacity(),
            "no buffer leaks"
        );
        assert_eq!(nf.occupancy(), 48);
    }

    #[test]
    fn service_once_does_one_round_and_reports_idle() {
        let c = cfg(64);
        let mut nf = ShardedVigNatMb::sharded(c, 2);
        let mut drv = BackendDriver::new(sim(&c, 2, 64));
        let idle = drv.service_once(&mut nf, Time::from_secs(1));
        assert_eq!((idle.forwarded, idle.bursts, idle.polls), (0, 0, 1));
        assert!(drv.current_backoff_ns() > 0);
        let gen = FlowGen::new(Proto::Udp);
        assert!(stage(drv.io_mut(), &gen, 7).is_some());
        let busy = drv.service_once(&mut nf, Time::from_secs(1));
        assert_eq!((busy.forwarded, busy.bursts), (1, 1));
        let _ = drv.io_mut().reap(Direction::External);
    }
}
