//! [`SimBackend`]: the in-process NIC model behind the [`PacketIo`]
//! seam.
//!
//! An adapter over two [`MultiQueueDevice`]s and one [`Mempool`]: the
//! two-port testbed of the paper's Fig. 11 (one queue) or its RSS
//! multi-queue extension, arranged behind the backend trait so the one
//! drain loop ([`crate::eventloop::BackendDriver`]) serves it like any
//! other packet source. `tests/queue_equivalence.rs` proves the driver
//! over this backend byte-for-byte equivalent per flow to sequential
//! per-frame processing, per-queue drop accounting under overflow
//! included.

use super::{PacketIo, TesterIo};
use crate::dpdk::{BufIdx, Mempool, MultiQueueDevice, PortStats, MBUF_SIZE};
use crate::frame_env::RssClassifier;
use vig_packet::Direction;

/// The simulated two-port multi-queue backend. See module docs.
pub struct SimBackend {
    pool: Mempool,
    int_dev: MultiQueueDevice,
    ext_dev: MultiQueueDevice,
    classifier: RssClassifier,
    scratch: Box<[u8; MBUF_SIZE]>,
}

impl SimBackend {
    /// Backend whose ports have one RX/TX ring pair of `ring_size`
    /// descriptors per classifier queue. The pool holds four rings'
    /// worth of buffers per queue — both ports' RX and TX rings can be
    /// full at once without exhausting it.
    pub fn new(classifier: RssClassifier, ring_size: usize) -> SimBackend {
        let queues = classifier.queue_count();
        SimBackend {
            pool: Mempool::new(queues * ring_size * 4),
            int_dev: MultiQueueDevice::new(queues, ring_size),
            ext_dev: MultiQueueDevice::new(queues, ring_size),
            classifier,
            scratch: Box::new([0u8; MBUF_SIZE]),
        }
    }

    fn dev(&mut self, d: Direction) -> &mut MultiQueueDevice {
        match d {
            Direction::Internal => &mut self.int_dev,
            Direction::External => &mut self.ext_dev,
        }
    }

    fn dev_ref(&self, d: Direction) -> &MultiQueueDevice {
        match d {
            Direction::Internal => &self.int_dev,
            Direction::External => &self.ext_dev,
        }
    }

    /// The classifier steering this backend's traffic.
    pub fn classifier(&self) -> RssClassifier {
        self.classifier
    }

    /// Buffers currently free in the pool (leak checks).
    pub fn pool_available(&self) -> usize {
        self.pool.available()
    }
}

impl PacketIo for SimBackend {
    fn queue_count(&self) -> usize {
        self.int_dev.queue_count()
    }

    fn pool(&self) -> &Mempool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        &mut self.pool
    }

    /// No outside world: the tester stages frames via [`TesterIo`].
    fn pump_rx(&mut self) -> usize {
        0
    }

    fn rx_len(&self, dir: Direction, q: usize) -> usize {
        self.dev_ref(dir).rx_len(q)
    }

    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        self.dev(dir).rx_burst(q, max, out)
    }

    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool {
        let bytes = self.pool.frame(buf).len();
        self.dev(dir).tx_put(q, buf, bytes)
    }

    /// TX frames stay queued for the tester's [`TesterIo::reap`].
    fn flush_tx(&mut self) -> usize {
        0
    }

    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.dev_ref(dir).queue_stats(q)
    }
}

impl TesterIo for SimBackend {
    /// Tester-side: write the frame, classify it (the NIC hash unit's
    /// step), and offer it to the chosen RX queue. A full ring counts
    /// the drop on that queue; pool exhaustion manifests the same way
    /// (an RX drop on the queue the frame would have entered — a NIC
    /// out of descriptors).
    fn stage(
        &mut self,
        dir: Direction,
        fields_writer: impl FnOnce(&mut [u8]) -> usize,
    ) -> Option<usize> {
        let len = fields_writer(&mut self.scratch[..]);
        let q = self.classifier.queue_of(dir, &self.scratch[..len]);
        let Some(buf) = self.pool.get() else {
            self.dev(dir).note_rx_drop(q);
            return None;
        };
        self.pool.write_frame(buf, &self.scratch[..len]);
        if self.dev(dir).offer_to(q, buf) {
            Some(q)
        } else {
            self.pool.put(buf);
            None
        }
    }

    fn reap(&mut self, dir: Direction) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        for q in 0..self.queue_count() {
            while let Some(buf) = self.dev(dir).tx_take(q) {
                out.push((q, self.pool.frame(buf).to_vec()));
                self.pool.put(buf);
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
