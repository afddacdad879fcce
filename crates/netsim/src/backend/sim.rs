//! [`SimBackend`]: the in-process NIC model behind the [`PacketIo`]
//! seam.
//!
//! A [`PortLedger`] (the pool, the classifier, and per port and queue
//! the RX rings and counters) plus a TX ring per port and queue that
//! the tester reaps: the two-port testbed of the paper's Fig. 11 (one
//! queue) or its RSS multi-queue extension, arranged behind the
//! backend trait so the one drain loop
//! ([`crate::eventloop::BackendDriver`]) serves it like any other
//! packet source. `tests/queue_equivalence.rs` proves the driver over
//! this backend byte-for-byte equivalent per flow to sequential
//! per-frame processing, per-queue drop accounting under overflow
//! included.

use super::{PacketIo, PortLedger, TesterIo};
use crate::dpdk::{BufIdx, Mempool, PortStats, MBUF_SIZE};
use crate::frame_env::RssClassifier;
use libvig::Ring;
use vig_packet::Direction;

/// The simulated two-port multi-queue backend. See module docs.
pub struct SimBackend {
    ledger: PortLedger,
    /// `tx[dir as usize][q]`: frames the NF transmitted, until reaped.
    tx: [Vec<Ring<BufIdx>>; 2],
    scratch: Box<[u8; MBUF_SIZE]>,
}

impl SimBackend {
    /// Backend whose ports have one RX/TX ring pair of `ring_size`
    /// descriptors per classifier queue, over the ledger's pool.
    pub fn new(classifier: RssClassifier, ring_size: usize) -> SimBackend {
        let queues = classifier.queue_count();
        let rings = || (0..queues).map(|_| Ring::new(ring_size)).collect();
        SimBackend {
            ledger: PortLedger::new(classifier, ring_size),
            tx: [rings(), rings()],
            scratch: Box::new([0u8; MBUF_SIZE]),
        }
    }

    /// The classifier steering this backend's traffic.
    pub fn classifier(&self) -> RssClassifier {
        self.ledger.classifier()
    }

    /// Buffers currently free in the pool (leak checks).
    pub fn pool_available(&self) -> usize {
        self.ledger.pool().available()
    }
}

impl PacketIo for SimBackend {
    fn queue_count(&self) -> usize {
        self.ledger.queue_count()
    }

    fn pool(&self) -> &Mempool {
        self.ledger.pool()
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        self.ledger.pool_mut()
    }

    /// No outside world: the tester stages frames via [`TesterIo`].
    fn pump_rx(&mut self) -> usize {
        0
    }

    fn rx_len(&self, dir: Direction, q: usize) -> usize {
        self.ledger.rx_len(dir, q)
    }

    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        self.ledger.rx_burst(dir, q, max, out)
    }

    /// The NIC owns the frame once it is on the TX ring, so `tx` and
    /// `tx_bytes` count here.
    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool {
        let bytes = self.ledger.pool().frame(buf).len();
        let ok = self.tx[dir as usize][q].push_back(buf).is_ok();
        if ok {
            self.ledger.count_tx(dir, q, bytes);
        }
        ok
    }

    /// TX frames stay queued for the tester's [`TesterIo::reap`].
    fn flush_tx(&mut self) -> usize {
        0
    }

    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.ledger.queue_stats(dir, q)
    }
}

impl TesterIo for SimBackend {
    /// Tester-side: write the frame, then admit it through the ledger
    /// (classify, then a full ring or a dry pool counts an RX drop on
    /// the frame's queue).
    fn stage(
        &mut self,
        dir: Direction,
        fields_writer: impl FnOnce(&mut [u8]) -> usize,
    ) -> Option<usize> {
        let len = fields_writer(&mut self.scratch[..]);
        self.ledger.admit(dir, &self.scratch[..len])
    }

    fn reap(&mut self, dir: Direction) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        for (q, ring) in self.tx[dir as usize].iter_mut().enumerate() {
            while let Some(buf) = ring.pop_front() {
                let pool = self.ledger.pool_mut();
                out.push((q, pool.frame(buf).to_vec()));
                pool.put(buf);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tester::FlowGen;
    use libvig::time::Time;
    use vig_packet::{Ip4, Proto};
    use vig_spec::NatConfig;

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 64,
            expiry_ns: Time::from_secs(60).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1,
            ..NatConfig::paper_default()
        }
    }

    #[test]
    fn stage_classifies_and_queues_like_the_device_model() {
        let c = cfg();
        let mut io = SimBackend::new(RssClassifier::for_nat(&c, 2), 8);
        let gen = FlowGen::new(Proto::Udp);
        let before = io.pool_available();
        let mut per_queue = [0usize; 2];
        for i in 0..8u32 {
            let f = gen.background(i);
            let q = io
                .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                .expect("ring has room");
            per_queue[q] += 1;
        }
        assert_eq!(per_queue.iter().sum::<usize>(), 8);
        for (q, &count) in per_queue.iter().enumerate() {
            assert_eq!(io.rx_len(Direction::Internal, q), count);
            assert_eq!(io.queue_stats(Direction::Internal, q).rx, count as u64);
        }
        assert_eq!(io.pool_available(), before - 8);
        assert_eq!(io.pump_rx(), 0, "sim backend has no outside world");
    }

    #[test]
    fn overflow_drops_on_the_full_queue_only() {
        let c = cfg();
        // 2-descriptor rings: the third frame into a queue must drop
        // there and be counted there, with the sibling untouched.
        let mut io = SimBackend::new(RssClassifier::for_nat(&c, 2), 2);
        let gen = FlowGen::new(Proto::Udp);
        // Find a flow for queue 0.
        let mut buf = [0u8; MBUF_SIZE];
        let mut flow0 = None;
        for i in 0..64u32 {
            let f = gen.background(i);
            let n = gen.write_frame(&f, &mut buf);
            if io.classifier().queue_of(Direction::Internal, &buf[..n]) == 0 {
                flow0 = Some(f);
                break;
            }
        }
        let f = flow0.expect("some flow classifies to queue 0");
        for k in 0..3 {
            let got = io.stage(Direction::Internal, |b| gen.write_frame(&f, b));
            assert_eq!(got.is_some(), k < 2, "third stage overflows");
        }
        assert_eq!(io.queue_stats(Direction::Internal, 0).rx_dropped, 1);
        assert_eq!(io.queue_stats(Direction::Internal, 1).rx_dropped, 0);
        assert_eq!(io.port_stats(Direction::Internal).rx_dropped, 1);
    }
}
