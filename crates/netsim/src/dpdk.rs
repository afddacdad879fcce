//! The DPDK-analog runtime: mempool and port statistics.
//!
//! Faithful to the parts of DPDK the paper's NFs relied on:
//!
//! * **all memory preallocated** — `Mempool::new` grabs every buffer up
//!   front, as one zeroed slab of `count × MBUF_SIZE` bytes (buffer `i`
//!   is the `i`-th [`MBUF_SIZE`] bytes of it), `get`/`put` are O(1)
//!   free-list pops/pushes, nothing
//!   allocates on the datapath (the property §5.1.1 of the paper builds
//!   on). Double frees are still caught on every `put`: the pool keeps
//!   one allocated flag per buffer, set by `get` and tested-and-cleared
//!   by `put`, so the check costs one byte load instead of a scan of
//!   the free list;
//! * **fixed-capacity rings** — like `rte_ring`, excess traffic is
//!   dropped at the RX ring and counted, which is where "loss" in the
//!   RFC 2544 throughput experiments comes from. The rings are libVig's
//!   own [`libvig::Ring`] of [`BufIdx`] descriptors, the FIFO of the
//!   paper's §3 worked example, so the queues run on the ring whose
//!   `ring_pop_front` contract `libvig::ring::CheckedRing` checks;
//! * **port statistics** — the [`PortStats`] counter type; the
//!   per-queue counters themselves live in
//!   [`PortLedger`](crate::backend::PortLedger), which admits and counts
//!   frames for every backend.

/// Default buffer size: one standard mbuf data room (holds any frame the
/// evaluation uses; the paper's experiments are 64-byte frames).
pub const MBUF_SIZE: usize = 2048;

/// A handle to a mempool buffer. `Default` (buffer 0) only fills the
/// idle cells of a descriptor ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BufIdx(pub usize);

/// Preallocated packet-buffer pool (DPDK `rte_mempool` analog).
#[derive(Debug)]
pub struct Mempool {
    /// Every buffer's data room, back to back: one allocation.
    slab: Vec<u8>,
    lens: Vec<usize>,
    free: Vec<usize>,
    /// `allocated[i]`: buffer `i` is out of the pool (not on `free`).
    allocated: Vec<bool>,
}

impl Mempool {
    /// Preallocate `count` buffers of [`MBUF_SIZE`] bytes.
    pub fn new(count: usize) -> Mempool {
        assert!(count > 0, "mempool must hold at least one buffer");
        Mempool {
            slab: vec![0u8; count * MBUF_SIZE],
            lens: vec![0; count],
            free: (0..count).rev().collect(),
            allocated: vec![false; count],
        }
    }

    /// Total buffers.
    pub fn capacity(&self) -> usize {
        self.lens.len()
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Take a buffer. `None` when exhausted (DPDK returns `ENOMEM`; NFs
    /// must treat it as packet loss, never crash — the leak Vigor caught
    /// in VigNAT was exactly a buffer that never came back here).
    #[inline]
    pub fn get(&mut self) -> Option<BufIdx> {
        let idx = self.free.pop()?;
        self.allocated[idx] = true;
        Some(BufIdx(idx))
    }

    /// Return a buffer.
    ///
    /// Panics on double-free — on the datapath this is a bug class the
    /// paper proves absent (P2); the simulator enforces it dynamically.
    #[inline]
    pub fn put(&mut self, idx: BufIdx) {
        assert!(
            idx.0 < self.capacity(),
            "foreign buffer returned to mempool"
        );
        assert!(
            std::mem::replace(&mut self.allocated[idx.0], false),
            "double free of mempool buffer {}",
            idx.0
        );
        self.lens[idx.0] = 0;
        self.free.push(idx.0);
    }

    /// Write a frame into a buffer, recording its length.
    pub fn write_frame(&mut self, idx: BufIdx, frame: &[u8]) {
        self.reserve_frame(idx, frame.len()).copy_from_slice(frame);
    }

    /// Size a buffer's frame to `len` bytes and hand them out for the
    /// caller to fill in place (the `rte_pktmbuf_append` analog): how a
    /// receive path lands a frame in the pool without staging it
    /// elsewhere first. The bytes are whatever the buffer last held.
    pub fn reserve_frame(&mut self, idx: BufIdx, len: usize) -> &mut [u8] {
        assert!(len <= MBUF_SIZE, "frame exceeds mbuf data room");
        self.lens[idx.0] = len;
        let at = idx.0 * MBUF_SIZE;
        &mut self.slab[at..at + len]
    }

    /// The valid bytes of a buffer.
    #[inline]
    pub fn frame(&self, idx: BufIdx) -> &[u8] {
        let at = idx.0 * MBUF_SIZE;
        &self.slab[at..at + self.lens[idx.0]]
    }

    /// Mutable access to the valid bytes of a buffer.
    #[inline]
    pub fn frame_mut(&mut self, idx: BufIdx) -> &mut [u8] {
        let at = idx.0 * MBUF_SIZE;
        &mut self.slab[at..at + self.lens[idx.0]]
    }
}

/// Per-port statistics (DPDK `rte_eth_stats` analog).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Frames accepted into the RX ring.
    pub rx: u64,
    /// Frames dropped at the RX ring (imissed).
    pub rx_dropped: u64,
    /// Frames transmitted.
    pub tx: u64,
    /// Bytes transmitted (`obytes`). Attributed when the frame is
    /// handed to the transmit path: at `tx_put` for the sim backend
    /// (the NIC owns the frame from that point), at flush time for the
    /// wire backend (only a frame the kernel accepted counts).
    pub tx_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mempool_get_put_roundtrip() {
        let mut p = Mempool::new(2);
        let a = p.get().unwrap();
        let b = p.get().unwrap();
        assert_ne!(a, b);
        assert!(p.get().is_none(), "exhausted pool yields None");
        p.put(a);
        assert_eq!(p.available(), 1);
        let c = p.get().unwrap();
        assert_eq!(c, a, "free list reuses buffers");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn mempool_double_free_is_caught() {
        let mut p = Mempool::new(2);
        let a = p.get().unwrap();
        p.put(a);
        p.put(a);
    }

    #[test]
    #[should_panic(expected = "foreign buffer")]
    fn mempool_foreign_buffer_is_caught() {
        Mempool::new(2).put(BufIdx(2));
    }

    /// One step of the model-based mempool test. Indices are reduced
    /// modulo whatever they select from.
    #[derive(Debug, Clone)]
    enum PoolOp {
        Get,
        /// Return the k-th buffer currently out of the pool.
        Put(usize),
        /// Write a frame of this length into the k-th buffer out.
        Write(usize, usize),
        /// Return a buffer that is already free: must panic.
        DoubleFree(usize),
        /// Return an index this far past the pool: must panic.
        Foreign(usize),
    }

    fn pool_op() -> impl Strategy<Value = PoolOp> {
        prop_oneof![
            Just(PoolOp::Get),
            Just(PoolOp::Get),
            (0usize..64).prop_map(PoolOp::Put),
            (0usize..64, 0usize..=MBUF_SIZE).prop_map(|(k, len)| PoolOp::Write(k, len)),
            (0usize..64).prop_map(PoolOp::DoubleFree),
            (0usize..64).prop_map(PoolOp::Foreign),
        ]
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    proptest! {
        /// Random `get`/`put`/`write_frame` sequences against a model
        /// that knows only which buffers are out (a set) and in what
        /// order the rest came back (a stack): availability, LIFO
        /// reuse, length reset on free, exhaustion, and the two panics
        /// — which must fire *every* time and leave the pool as it was.
        #[test]
        fn mempool_matches_set_model(
            cap in 1usize..12,
            ops in proptest::collection::vec(pool_op(), 0..120),
        ) {
            let mut pool = Mempool::new(cap);
            let mut free: Vec<usize> = (0..cap).rev().collect();
            let mut out: Vec<usize> = Vec::new();
            for op in ops {
                match op {
                    PoolOp::Get => {
                        let want = free.pop();
                        prop_assert_eq!(pool.get(), want.map(BufIdx), "LIFO reuse; None when dry");
                        if let Some(i) = want {
                            prop_assert_eq!(pool.frame(BufIdx(i)).len(), 0, "length reset by put");
                            out.push(i);
                        }
                    }
                    PoolOp::Put(k) if !out.is_empty() => {
                        let i = out.swap_remove(k % out.len());
                        pool.put(BufIdx(i));
                        free.push(i);
                    }
                    PoolOp::Write(k, len) if !out.is_empty() => {
                        let i = BufIdx(out[k % out.len()]);
                        let frame: Vec<u8> = (0..len).map(|b| (b ^ i.0) as u8).collect();
                        pool.write_frame(i, &frame);
                        prop_assert_eq!(pool.frame(i), &frame[..]);
                    }
                    PoolOp::DoubleFree(k) if !free.is_empty() => {
                        let i = free[k % free.len()];
                        prop_assert!(panics(|| pool.put(BufIdx(i))), "double free of {} passed", i);
                    }
                    PoolOp::Foreign(k) => {
                        prop_assert!(panics(|| pool.put(BufIdx(cap + k))), "foreign index passed");
                    }
                    _ => {}
                }
                prop_assert_eq!(pool.available(), free.len());
                prop_assert_eq!(pool.available() + out.len(), pool.capacity());
            }
        }
    }

    #[test]
    fn mempool_frames_roundtrip() {
        let mut p = Mempool::new(1);
        let a = p.get().unwrap();
        p.write_frame(a, &[1, 2, 3, 4]);
        assert_eq!(p.frame(a), &[1, 2, 3, 4]);
        p.frame_mut(a)[0] = 9;
        assert_eq!(p.frame(a), &[9, 2, 3, 4]);
    }

    /// The slab's buffers are disjoint: a full-room frame in each of
    /// three adjacent buffers — the last one ending the slab — reads
    /// back intact after all three are written, and a write through
    /// `frame_mut` or `reserve_frame` changes only its own buffer.
    #[test]
    fn adjacent_slab_buffers_do_not_alias() {
        let mut p = Mempool::new(3);
        let bufs: Vec<BufIdx> = (0..3).map(|_| p.get().unwrap()).collect();
        let frame =
            |b: BufIdx| -> Vec<u8> { (0..MBUF_SIZE).map(|i| (i * 7 + b.0 * 31) as u8).collect() };
        for &b in &bufs {
            p.write_frame(b, &frame(b));
        }
        for &b in &bufs {
            assert_eq!(p.frame(b), &frame(b)[..], "buffer {}", b.0);
        }
        let last = *bufs.iter().max_by_key(|b| b.0).unwrap();
        assert_eq!(last.0, 2);
        p.frame_mut(last)[MBUF_SIZE - 1] ^= 0xff;
        p.reserve_frame(bufs[0], 1)[0] ^= 0xff;
        for &b in &bufs {
            let mut want = frame(b);
            if b == last {
                want[MBUF_SIZE - 1] ^= 0xff;
            }
            if b == bufs[0] {
                want.truncate(1);
                want[0] ^= 0xff;
            }
            assert_eq!(p.frame(b), &want[..], "buffer {}", b.0);
        }
    }

    // The per-queue port counters are kept by `backend::PortLedger`;
    // these pin down the `PortStats` semantics it reports.

    use crate::backend::PortLedger;
    use crate::frame_env::RssClassifier;
    use crate::tester::FlowGen;
    use vig_packet::{Direction, Proto};
    use vig_spec::NatConfig;

    /// A ledger with `queues` queues of `ring_size` descriptors, and a
    /// picker of distinct inside frames the classifier steers to a
    /// given queue.
    fn ledger(queues: usize, ring_size: usize) -> (PortLedger, impl FnMut(usize) -> Vec<u8>) {
        let classifier = RssClassifier::for_nat(&NatConfig::paper_default(), queues);
        let gen = FlowGen::new(Proto::Udp);
        let mut next = 0u32;
        let frame_on = move |q: usize| loop {
            let mut buf = [0u8; MBUF_SIZE];
            let len = gen.write_frame(&gen.background(next), &mut buf);
            next += 1;
            if classifier.queue_of(Direction::Internal, &buf[..len]) == q {
                return buf[..len].to_vec();
            }
        };
        (PortLedger::new(classifier, ring_size), frame_on)
    }

    /// Port-wide counters: the sum over queues (what `rte_eth_stats`
    /// reports at the port level).
    fn port_stats(l: &PortLedger) -> PortStats {
        (0..l.queue_count())
            .map(|q| l.queue_stats(Direction::Internal, q))
            .fold(PortStats::default(), |a, s| PortStats {
                rx: a.rx + s.rx,
                rx_dropped: a.rx_dropped + s.rx_dropped,
                tx: a.tx + s.tx,
                tx_bytes: a.tx_bytes + s.tx_bytes,
            })
    }

    #[test]
    fn device_counts_loss() {
        let (mut d, mut frame_on) = ledger(1, 1);
        let (a, b) = (frame_on(0), frame_on(0));
        let dir = Direction::Internal;
        assert_eq!(d.admit(dir, &a), Some(0));
        assert_eq!(
            d.admit(dir, &b),
            None,
            "second offer overflows the 1-slot ring"
        );
        assert_eq!(d.queue_stats(dir, 0).rx, 1);
        assert_eq!(d.queue_stats(dir, 0).rx_dropped, 1);
        assert_eq!(
            d.pool().available(),
            d.pool().capacity() - 1,
            "dropped frame's buffer returned"
        );
        let mut got = Vec::new();
        assert_eq!(d.rx_burst(dir, 0, 1, &mut got), 1);
        assert_eq!(d.pool().frame(got[0]), &a[..]);
        d.count_tx(dir, 0, 64);
        assert_eq!(d.queue_stats(dir, 0).tx, 1);
        assert_eq!(d.queue_stats(dir, 0).tx_bytes, 64);
    }

    #[test]
    fn multiqueue_queues_are_independent() {
        let (mut d, mut frame_on) = ledger(3, 2);
        let dir = Direction::Internal;
        assert_eq!(d.queue_count(), 3);
        // Fill queue 1 past capacity; queues 0 and 2 keep working.
        assert_eq!(d.admit(dir, &frame_on(1)), Some(1));
        assert_eq!(d.admit(dir, &frame_on(1)), Some(1));
        assert_eq!(d.admit(dir, &frame_on(1)), None, "queue 1 overflows");
        assert_eq!(d.admit(dir, &frame_on(0)), Some(0));
        assert_eq!(d.admit(dir, &frame_on(2)), Some(2));
        assert_eq!(d.queue_stats(dir, 1).rx_dropped, 1);
        assert_eq!(d.queue_stats(dir, 0).rx_dropped, 0);
        assert_eq!(d.queue_stats(dir, 2).rx_dropped, 0);
        assert_eq!(d.rx_len(dir, 0), 1);
        assert_eq!(d.rx_len(dir, 1), 2);
        assert_eq!(d.rx_len(dir, 2), 1);
        let total = port_stats(&d);
        assert_eq!((total.rx, total.rx_dropped, total.tx), (4, 1, 0));
    }

    #[test]
    fn multiqueue_rx_tx_roundtrip_per_queue() {
        let (mut d, mut frame_on) = ledger(2, 4);
        let dir = Direction::Internal;
        let frames: Vec<Vec<u8>> = (0..3).map(|_| frame_on(0)).collect();
        for f in &frames {
            assert_eq!(d.admit(dir, f), Some(0));
        }
        let mut out = Vec::new();
        assert_eq!(d.rx_burst(dir, 0, 2, &mut out), 2);
        let got: Vec<&[u8]> = out.iter().map(|&b| d.pool().frame(b)).collect();
        assert_eq!(got, vec![&frames[0][..], &frames[1][..]], "FIFO order");
        assert_eq!(d.rx_burst(dir, 1, 8, &mut out), 0, "sibling queue is empty");
        d.count_tx(dir, 0, 128);
        assert_eq!(d.queue_stats(dir, 0).tx, 1);
        assert_eq!(d.queue_stats(dir, 0).tx_bytes, 128);
        assert_eq!(d.queue_stats(dir, 1).tx, 0);
        assert_eq!(port_stats(&d).tx_bytes, 128, "port sum includes bytes");
    }
}
