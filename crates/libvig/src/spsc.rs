//! Lock-free bounded single-producer/single-consumer ring of `u64`
//! words. Nothing on the datapath uses it: the shard runtime
//! (`netsim::runtime`) moves whole jobs by ownership. It stays as
//! natbench's `libvig.spsc_words_per_us` rung and as the paper-style
//! exercise in proving a two-thread structure against a sequential
//! model.
//!
//! ## Design
//!
//! A power-of-two array of [`AtomicU64`] slots with monotonically
//! increasing producer/consumer cursors, each on its own cache line
//! (`#[repr(align(64))]` padding) so the two sides never false-share.
//! [`Producer::push_slice`] and [`Consumer::pop_into`] move batches
//! of words with one cursor publication per call.
//!
//! The crate-wide `#![deny(unsafe_code)]` applies here too: unlike
//! the usual `UnsafeCell` SPSC ring, every slot is itself an atomic, so
//! even a protocol bug could only ever produce a stale *value*, never
//! undefined behaviour. The protocol is the classic two-cursor one:
//!
//! * the producer owns `tail`: it writes slots `[head, head+cap)` only,
//!   checking the consumer's published `head` (Acquire) before reusing
//!   a slot, and publishes new items with a Release store of `tail`;
//! * the consumer owns `head`: it reads slots below the producer's
//!   published `tail` (Acquire) and frees them with a Release store of
//!   `head`.
//!
//! Each side caches the other's cursor and refreshes it only when the
//! cached value would block progress, so the steady-state fast path
//! touches one shared cache line per batch, not per word.
//!
//! Both endpoints are `Send` (move each to its thread); neither is
//! `Sync` nor `Clone`, so single-producer/single-consumer holds by
//! construction. Correctness is covered three ways below: proptest
//! op sequences against a `VecDeque` oracle (wraparound, full/empty
//! boundaries, batched ops, partial fits), a bounded-exhaustive
//! enumeration of every producer/consumer interleaving at small sizes
//! against the same oracle, and two-thread stress transfers that must
//! deliver every word in order.

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A value alone on its cache line, so the producer's and consumer's
/// cursors never share one (the classic SPSC false-sharing fix).
#[repr(align(64))]
struct CachePadded<T>(T);

/// The shared ring storage. Users never hold this directly; see
/// [`channel`] for the producer/consumer pair.
struct Shared {
    /// Power-of-two slot array; a cursor's slot is `cursor & mask`.
    slots: Box<[AtomicU64]>,
    mask: usize,
    /// Consumer cursor: everything below it has been popped.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: everything below it has been pushed.
    tail: CachePadded<AtomicUsize>,
}

impl Shared {
    /// The `n` slots starting at `cursor` as at most two contiguous
    /// runs (before and after the wrap), so bulk copies walk plain
    /// slices instead of masking every index.
    fn runs(&self, cursor: usize, n: usize) -> (&[AtomicU64], &[AtomicU64]) {
        let start = cursor & self.mask;
        let first = n.min(self.slots.len() - start);
        (&self.slots[start..start + first], &self.slots[..n - first])
    }
}

/// Create a bounded SPSC ring holding at least `capacity` words
/// (rounded up to a power of two, minimum 2). Returns the two
/// endpoints; move each to its thread.
pub fn channel(capacity: usize) -> (Producer, Consumer) {
    let cap = capacity.max(2).next_power_of_two();
    let shared = Arc::new(Shared {
        slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

/// The producing endpoint of an SPSC [`channel`]. `Send` but not
/// `Clone`: exactly one producer exists.
pub struct Producer {
    shared: Arc<Shared>,
    /// Local mirror of the published tail (we are its only writer).
    tail: usize,
    /// Last observed consumer cursor; refreshed only when it blocks.
    head_cache: usize,
}

impl Producer {
    /// Slot count of the ring (the capacity pushes block against).
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Words currently in flight (pushed, not yet popped), as visible
    /// from this side.
    pub fn len(&self) -> usize {
        self.tail
            .wrapping_sub(self.shared.head.0.load(Ordering::Acquire))
    }

    /// True when nothing is in flight, as visible from this side.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push one word. Returns `false` (ring full) without blocking.
    pub fn try_push(&mut self, word: u64) -> bool {
        self.push_slice(core::slice::from_ref(&word)) == 1
    }

    /// Free slots, refreshing the cached consumer cursor only if the
    /// cached view cannot hold `want` words.
    fn free(&mut self, want: usize) -> usize {
        let cap = self.capacity();
        let mut free = cap - self.tail.wrapping_sub(self.head_cache);
        if free < want {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            free = cap - self.tail.wrapping_sub(self.head_cache);
        }
        free
    }

    /// Publish `n` freshly written slots. The Release store is what
    /// makes the Relaxed slot writes before it visible to the
    /// consumer's Acquire load of `tail`.
    fn publish(&mut self, n: usize) {
        self.tail = self.tail.wrapping_add(n);
        self.shared.tail.0.store(self.tail, Ordering::Release);
    }

    /// Push as many words of `words` as fit, in order, with a single
    /// cursor publication. Returns how many were pushed (0 when full).
    pub fn push_slice(&mut self, words: &[u64]) -> usize {
        let n = words.len().min(self.free(words.len()));
        if n == 0 {
            return 0;
        }
        let (a, b) = self.shared.runs(self.tail, n);
        for (slot, &w) in a.iter().chain(b).zip(words) {
            slot.store(w, Ordering::Relaxed);
        }
        self.publish(n);
        n
    }
}

/// The consuming endpoint of an SPSC [`channel`]. `Send` but not
/// `Clone`: exactly one consumer exists.
pub struct Consumer {
    shared: Arc<Shared>,
    /// Local mirror of the published head (we are its only writer).
    head: usize,
    /// Last observed producer cursor; refreshed only when empty.
    tail_cache: usize,
}

impl Consumer {
    /// Slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Words available to pop after refreshing the producer cursor
    /// only if the cached view cannot satisfy `want` — the mirror of
    /// the producer's head-cache policy.
    fn available(&mut self, want: usize) -> usize {
        let mut avail = self.tail_cache.wrapping_sub(self.head);
        if avail < want {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            avail = self.tail_cache.wrapping_sub(self.head);
        }
        avail
    }

    /// Words available to pop right now.
    pub fn len(&mut self) -> usize {
        self.available(usize::MAX)
    }

    /// True when nothing is available right now.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Pop one word, `None` (ring empty) without blocking.
    pub fn try_pop(&mut self) -> Option<u64> {
        let mut out = [0u64; 1];
        (self.pop_into(&mut out) == 1).then_some(out[0])
    }

    /// Pop up to `out.len()` words into `out`, in order, with a single
    /// cursor publication. Returns how many were popped (0 when empty).
    pub fn pop_into(&mut self, out: &mut [u64]) -> usize {
        let n = out.len().min(self.available(out.len()));
        if n == 0 {
            return 0;
        }
        let (a, b) = self.shared.runs(self.head, n);
        for (slot, w) in a.iter().chain(b).zip(out.iter_mut()) {
            *w = slot.load(Ordering::Relaxed);
        }
        self.release(n);
        n
    }

    /// Free `n` slots just read. Their Relaxed reads are ordered after
    /// the producer's writes by the Acquire load of `tail` in
    /// [`Consumer::available`], and no slot can be overwritten until
    /// this Release store of `head`.
    fn release(&mut self, n: usize) {
        self.head = self.head.wrapping_add(n);
        self.shared.head.0.store(self.head, Ordering::Release);
    }

    /// Append up to `max` available words to `out` (convenience over
    /// [`Consumer::pop_into`] for accumulating decoders). Returns how
    /// many were appended.
    pub fn pop_extend(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        let avail = self.available(max).min(max);
        if avail == 0 {
            return 0;
        }
        let start = out.len();
        out.resize(start + avail, 0);
        let n = self.pop_into(&mut out[start..]);
        out.truncate(start + n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Reference semantics: a capacity-bounded FIFO.
    struct Oracle {
        q: VecDeque<u64>,
        cap: usize,
    }

    impl Oracle {
        fn push(&mut self, w: u64) -> bool {
            if self.q.len() == self.cap {
                return false;
            }
            self.q.push_back(w);
            true
        }

        fn pop(&mut self) -> Option<u64> {
            self.q.pop_front()
        }
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let (mut tx, mut rx) = channel(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            assert!(tx.try_push(i), "push {i} within capacity");
        }
        assert!(!tx.try_push(99), "full ring must reject");
        assert_eq!(rx.try_pop(), Some(0));
        assert!(tx.try_push(99), "freed slot is reusable");
        assert_eq!(
            (1..4).chain([99]).collect::<Vec<_>>(),
            std::iter::from_fn(|| rx.try_pop()).collect::<Vec<_>>(),
            "FIFO order across the wrap"
        );
        assert_eq!(rx.try_pop(), None, "empty ring must reject");
    }

    #[test]
    fn batched_ops_split_at_boundaries() {
        let (mut tx, mut rx) = channel(8);
        let words: Vec<u64> = (0..13).collect();
        assert_eq!(tx.push_slice(&words), 8, "batch clamps at capacity");
        let mut out = [0u64; 16];
        assert_eq!(rx.pop_into(&mut out[..5]), 5, "batch pop clamps at ask");
        assert_eq!(&out[..5], &[0, 1, 2, 3, 4]);
        assert_eq!(tx.push_slice(&words[8..]), 5, "freed space, rest fits");
        let n = rx.pop_into(&mut out);
        assert_eq!(n, 8);
        assert_eq!(&out[..n], &[5, 6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(rx.pop_into(&mut out), 0);
        assert_eq!(tx.push_slice(&[]), 0, "empty slice is a no-op");
    }

    #[test]
    fn many_wraps_preserve_order() {
        // Cursor arithmetic must survive thousands of wraps of a tiny
        // ring (the wrapping_sub length math is what's under test).
        let (mut tx, mut rx) = channel(2);
        for i in 0..10_000u64 {
            assert!(tx.try_push(i));
            if i % 2 == 1 {
                assert_eq!(rx.try_pop(), Some(i - 1));
                assert_eq!(rx.try_pop(), Some(i));
            }
        }
    }

    /// Every interleaving of `pushes` pushes and `pops` pops (at small
    /// bounded sizes) behaves exactly like the FIFO oracle — the
    /// loom-style exhaustive schedule exploration, at operation
    /// granularity, that a vendored-deps workspace can afford.
    #[test]
    fn exhaustive_interleavings_match_oracle() {
        for cap in [2usize, 4] {
            let (pushes, pops) = (5u32, 5u32);
            let total = pushes + pops;
            // Each bitmask with `pushes` set bits is one interleaving:
            // bit i set => operation i is a push.
            for mask in 0u32..(1 << total) {
                if mask.count_ones() != pushes {
                    continue;
                }
                let (mut tx, mut rx) = channel(cap);
                let mut oracle = Oracle {
                    q: VecDeque::new(),
                    cap: tx.capacity(),
                };
                let mut next = 0u64;
                for i in 0..total {
                    if mask & (1 << i) != 0 {
                        assert_eq!(
                            tx.try_push(next),
                            oracle.push(next),
                            "push diverged (cap {cap}, mask {mask:#b}, op {i})"
                        );
                        next += 1;
                    } else {
                        assert_eq!(
                            rx.try_pop(),
                            oracle.pop(),
                            "pop diverged (cap {cap}, mask {mask:#b}, op {i})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn two_threads_deliver_every_word_in_order() {
        // A tiny ring forces constant wraparound and full/empty
        // collisions between the two threads.
        for cap in [2usize, 8, 64] {
            const N: u64 = 100_000;
            let (mut tx, mut rx) = channel(cap);
            let producer = std::thread::spawn(move || {
                let words: Vec<u64> = (0..N).collect();
                let mut sent = 0usize;
                while sent < words.len() {
                    let n = tx.push_slice(&words[sent..]);
                    sent += n;
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            let mut got = Vec::with_capacity(N as usize);
            let mut buf = [0u64; 128];
            while got.len() < N as usize {
                let n = rx.pop_into(&mut buf);
                got.extend_from_slice(&buf[..n]);
                if n == 0 {
                    std::thread::yield_now();
                }
            }
            producer.join().expect("producer thread");
            assert_eq!(rx.try_pop(), None);
            assert!(
                got.iter().copied().eq(0..N),
                "cap {cap}: words lost or reordered"
            );
        }
    }

    /// One randomized batched op: push a chunk or pop a chunk.
    #[derive(Debug, Clone)]
    enum Op {
        Push(Vec<u64>),
        Pop(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u64>(), 0..12).prop_map(Op::Push),
            (0usize..12).prop_map(Op::Pop),
        ]
    }

    proptest! {
        /// Random batched op sequences over random (rounded) capacities
        /// never diverge from the FIFO oracle — wraparound, partial
        /// batches and full/empty boundaries included.
        #[test]
        fn random_batched_ops_match_oracle(
            cap in 1usize..40,
            ops in proptest::collection::vec(op_strategy(), 0..80),
        ) {
            let (mut tx, mut rx) = channel(cap);
            let mut oracle = Oracle { q: VecDeque::new(), cap: tx.capacity() };
            for op in ops {
                match op {
                    Op::Push(words) => {
                        let pushed = tx.push_slice(&words);
                        // The ring pushes the longest prefix that fits;
                        // mirror it in the oracle and require equality.
                        let fit = words.len().min(oracle.cap - oracle.q.len());
                        prop_assert_eq!(pushed, fit);
                        for w in &words[..fit] {
                            prop_assert!(oracle.push(*w));
                        }
                    }
                    Op::Pop(max) => {
                        let mut out = vec![0u64; max];
                        let n = rx.pop_into(&mut out);
                        for got in out[..n].iter() {
                            prop_assert_eq!(Some(*got), oracle.pop());
                        }
                        // A short pop is only legal when the oracle is
                        // now empty (SPSC: no concurrent producer here).
                        if n < max {
                            prop_assert!(oracle.q.is_empty());
                        }
                    }
                }
            }
            // Drain and compare the tails.
            let mut rest = Vec::new();
            rx.pop_extend(&mut rest, usize::MAX >> 1);
            prop_assert_eq!(rest, oracle.q.into_iter().collect::<Vec<_>>());
        }
    }
}
