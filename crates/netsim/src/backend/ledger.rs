//! [`PortLedger`]: the receive side of the NIC model, and every
//! per-queue counter — the one type both backends are built on.
//!
//! The paper trusts the packet engine under VigNAT: the NIC hashes an
//! arriving frame to a queue, DPDK lands it in a pool buffer, and a
//! full RX ring (or a dry pool) loses it, counted on that queue (§5,
//! §6, Fig. 11). This type is that engine's admission rule, written
//! once: [`SimBackend`](super::SimBackend) admits tester-staged frames
//! through it and [`MmapBackend`](super::os::mmap::MmapBackend)
//! admits kernel-delivered ones, so a wire trace replayed through the
//! sim backend reproduces the wire's per-queue counters by
//! construction. What differs between backends — where frames come
//! from and how TX leaves — stays in the backend.
//!
//! Ports are indexed by `Direction as usize`. Queues are fully
//! independent: a full RX ring drops (and counts) on that queue only
//! and can never stall or corrupt a sibling.

use crate::dpdk::{BufIdx, Mempool, PortStats};
use crate::frame_env::RssClassifier;
use libvig::Ring;
use vig_packet::Direction;

/// The mempool, the RSS classifier and, per port and queue, the RX
/// ring and its [`PortStats`]. See module docs.
#[derive(Debug)]
pub struct PortLedger {
    pool: Mempool,
    classifier: RssClassifier,
    rx: [Vec<Ring<BufIdx>>; 2],
    stats: [Vec<PortStats>; 2],
}

impl PortLedger {
    /// A ledger with one RX ring of `ring_size` descriptors per
    /// classifier queue on each port. The pool holds four rings' worth
    /// of buffers per queue, so both ports' RX rings and a backend's
    /// TX queues can be full at once without exhausting it.
    pub fn new(classifier: RssClassifier, ring_size: usize) -> PortLedger {
        let queues = classifier.queue_count();
        let rings = || (0..queues).map(|_| Ring::new(ring_size)).collect();
        PortLedger {
            pool: Mempool::new(queues * ring_size * 4),
            classifier,
            rx: [rings(), rings()],
            stats: [
                vec![PortStats::default(); queues],
                vec![PortStats::default(); queues],
            ],
        }
    }

    /// Admit one frame arriving on port `dir`: classify it (the NIC
    /// hash unit's step), copy it into a pool buffer and enqueue it on
    /// its queue's RX ring, counting `rx`. A dry pool (a NIC out of
    /// descriptors) or a full ring counts `rx_dropped` on that queue
    /// instead, and no buffer stays out. Returns the queue when the
    /// frame was admitted.
    pub fn admit(&mut self, dir: Direction, frame: &[u8]) -> Option<usize> {
        let q = self.classifier.queue_of(dir, frame);
        let stats = &mut self.stats[dir as usize][q];
        let Some(buf) = self.pool.get() else {
            stats.rx_dropped += 1;
            return None;
        };
        self.pool.write_frame(buf, frame);
        if self.rx[dir as usize][q].push_back(buf).is_ok() {
            stats.rx += 1;
            Some(q)
        } else {
            self.pool.put(buf);
            stats.rx_dropped += 1;
            None
        }
    }

    /// Frames waiting in RX queue `q` of port `dir`.
    pub fn rx_len(&self, dir: Direction, q: usize) -> usize {
        self.rx[dir as usize][q].len()
    }

    /// Move up to `max` frames from RX queue `q` of port `dir` to
    /// `out`, FIFO order (the per-queue `rte_eth_rx_burst`). Returns
    /// the count.
    pub fn rx_burst(
        &mut self,
        dir: Direction,
        q: usize,
        max: usize,
        out: &mut Vec<BufIdx>,
    ) -> usize {
        let ring = &mut self.rx[dir as usize][q];
        let mut n = 0;
        while n < max {
            match ring.pop_front() {
                Some(b) => {
                    out.push(b);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Count one transmitted frame of `bytes` bytes on TX queue `q` of
    /// port `dir`. Each backend calls it at its own attribution point
    /// (see `backend::os`, "TX attribution").
    pub fn count_tx(&mut self, dir: Direction, q: usize, bytes: usize) {
        let stats = &mut self.stats[dir as usize][q];
        stats.tx += 1;
        stats.tx_bytes += bytes as u64;
    }

    /// Queue `q`'s counters on port `dir`.
    pub fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.stats[dir as usize][q]
    }

    /// RX queues per port.
    pub fn queue_count(&self) -> usize {
        self.classifier.queue_count()
    }

    /// The classifier steering admissions.
    pub fn classifier(&self) -> RssClassifier {
        self.classifier
    }

    /// The buffer pool every admitted frame lives in.
    pub fn pool(&self) -> &Mempool {
        &self.pool
    }

    /// Mutable pool access (the driver processes and frees frames
    /// through it; a backend reclaims transmitted buffers).
    pub fn pool_mut(&mut self) -> &mut Mempool {
        &mut self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpdk::MBUF_SIZE;
    use crate::tester::FlowGen;
    use libvig::time::Time;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use vig_packet::{Ip4, Proto};
    use vig_spec::NatConfig;

    /// One step of the model-based ledger test. Indices are reduced
    /// modulo whatever they select from.
    #[derive(Debug, Clone)]
    enum LedgerOp {
        /// Offer flow `f`'s frame to a port: background flow `f`
        /// inside, a reply to pool port `4f` outside.
        Admit(bool, u32),
        /// Take up to this many buffers out of the pool and hold them.
        Hold(usize),
        /// Put up to this many held buffers back.
        Release(usize),
        /// `rx_burst(port, q, max)`; the test holds what it returns.
        Burst(bool, usize, usize),
        /// `count_tx(port, q, bytes)`.
        Tx(bool, usize, usize),
    }

    fn ledger_op() -> impl Strategy<Value = LedgerOp> {
        let admit = || (any::<bool>(), 0u32..16).prop_map(|(e, f)| LedgerOp::Admit(e, f));
        prop_oneof![
            admit(),
            admit(),
            admit(),
            (0usize..24).prop_map(LedgerOp::Hold),
            (0usize..24).prop_map(LedgerOp::Release),
            (any::<bool>(), 0usize..4, 0usize..6).prop_map(|(e, q, m)| LedgerOp::Burst(e, q, m)),
            (any::<bool>(), 0usize..4, 0usize..1600).prop_map(|(e, q, b)| LedgerOp::Tx(e, q, b)),
        ]
    }

    fn direction(external: bool) -> Direction {
        if external {
            Direction::External
        } else {
            Direction::Internal
        }
    }

    /// What the ledger must report for one port's queue.
    #[derive(Debug, Default)]
    struct QueueModel {
        /// Sequence numbers of the queued frames, oldest first.
        fifo: VecDeque<u32>,
        offered: u64,
        stats: PortStats,
    }

    proptest! {
        /// Random interleavings of admissions on both ports (sometimes
        /// into a dry pool), bursts of random size, TX counts and
        /// buffers held out by the caller, against a per-queue model:
        /// every offered frame is counted exactly once as `rx` or
        /// `rx_dropped`, rings are FIFO and bounded, and no buffer
        /// leaks (`available + queued + held == capacity`).
        #[test]
        fn ledger_matches_a_per_queue_model(
            queues in 1usize..4,
            ring_size in 1usize..4,
            ops in proptest::collection::vec(ledger_op(), 0..160),
        ) {
            let cfg = NatConfig {
                capacity: 64,
                expiry_ns: Time::from_secs(60).nanos(),
                external_ip: Ip4::new(10, 1, 0, 1),
                start_port: 1,
                ..NatConfig::paper_default()
            };
            let mut ledger = PortLedger::new(RssClassifier::for_nat(&cfg, queues), ring_size);
            let capacity = ledger.pool().capacity();
            let mut model: [Vec<QueueModel>; 2] = [
                (0..queues).map(|_| QueueModel::default()).collect(),
                (0..queues).map(|_| QueueModel::default()).collect(),
            ];
            let mut held: Vec<BufIdx> = Vec::new();
            let gen = FlowGen::new(Proto::Udp);
            let mut frame = [0u8; MBUF_SIZE];
            let mut seq = 0u32;
            for op in ops {
                match op {
                    LedgerOp::Admit(ext, flow) => {
                        let dir = direction(ext);
                        // Return traffic spreads over the pool, hence
                        // over the queues, only when it targets it.
                        let fields = match dir {
                            Direction::Internal => gen.background(flow),
                            Direction::External => {
                                gen.return_for(cfg.external_ip, cfg.start_port + 4 * flow as u16)
                            }
                        };
                        let len = gen.write_frame(&fields, &mut frame);
                        // A sequence number in the padding, past every
                        // header the classifier reads.
                        frame[len - 4..len].copy_from_slice(&seq.to_ne_bytes());
                        let q = ledger.classifier().queue_of(dir, &frame[..len]);
                        let queued: usize = model.iter().flatten().map(|m| m.fifo.len()).sum();
                        let m = &mut model[dir as usize][q];
                        m.offered += 1;
                        let fits = queued + held.len() < capacity && m.fifo.len() < ring_size;
                        if fits {
                            m.fifo.push_back(seq);
                            m.stats.rx += 1;
                        } else {
                            m.stats.rx_dropped += 1;
                        }
                        let got = ledger.admit(dir, &frame[..len]);
                        prop_assert_eq!(got, fits.then_some(q));
                        seq += 1;
                    }
                    LedgerOp::Hold(n) => {
                        for _ in 0..n {
                            match ledger.pool_mut().get() {
                                Some(b) => held.push(b),
                                None => break,
                            }
                        }
                    }
                    LedgerOp::Release(n) => {
                        for _ in 0..n.min(held.len()) {
                            let b = held.pop().expect("counted");
                            ledger.pool_mut().put(b);
                        }
                    }
                    LedgerOp::Burst(ext, q, max) => {
                        let dir = direction(ext);
                        let q = q % queues;
                        let mut out = Vec::new();
                        let n = ledger.rx_burst(dir, q, max, &mut out);
                        let m = &mut model[dir as usize][q];
                        prop_assert_eq!(n, max.min(m.fifo.len()));
                        prop_assert_eq!(out.len(), n);
                        for b in out {
                            let f = ledger.pool().frame(b);
                            let got = u32::from_ne_bytes(f[f.len() - 4..].try_into().expect("4 bytes"));
                            prop_assert_eq!(Some(got), m.fifo.pop_front(), "FIFO order");
                            held.push(b);
                        }
                    }
                    LedgerOp::Tx(ext, q, bytes) => {
                        let dir = direction(ext);
                        let q = q % queues;
                        ledger.count_tx(dir, q, bytes);
                        let s = &mut model[dir as usize][q].stats;
                        s.tx += 1;
                        s.tx_bytes += bytes as u64;
                    }
                }
                let mut queued = 0;
                for dir in [Direction::Internal, Direction::External] {
                    for (q, m) in model[dir as usize].iter().enumerate() {
                        let s = ledger.queue_stats(dir, q);
                        prop_assert_eq!(s, m.stats);
                        prop_assert_eq!(s.rx + s.rx_dropped, m.offered);
                        prop_assert_eq!(ledger.rx_len(dir, q), m.fifo.len());
                        queued += m.fifo.len();
                    }
                }
                prop_assert_eq!(ledger.pool().available() + queued + held.len(), capacity);
            }
        }
    }
}
