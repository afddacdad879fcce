//! The "double chain": libVig's index allocator with timestamp-ordered
//! expiry (Vigor's `double-chain.c`).
//!
//! The NAT allocates one slot index per flow. The double chain hands out
//! indices from a preallocated pool, remembers the last-activity time of
//! each allocated index, and can **expire the oldest index in O(1)**
//! because the allocated list is kept in least-recently-refreshed order:
//! `allocate` and `rejuvenate` both append at the tail with the current
//! time, and time is monotonic, so the head is always the stalest entry.
//!
//! ## Contract summary
//!
//! Writing the abstract state as an ordered sequence
//! `[(index, timestamp)]` (oldest first) plus a free set
//! ([`AbstractChain`]):
//!
//! * `allocate(t)` — requires `t >= every allocated timestamp` (time
//!   monotonicity); ensures: if the free set is nonempty, some free index
//!   moves to the tail of the sequence with timestamp `t`; otherwise
//!   returns `None` and nothing changes.
//! * `rejuvenate(i, t)` — requires `i` allocated and `t >=` its current
//!   stamp (and every other stamp, by monotonicity); ensures `i` moves to
//!   the tail with timestamp `t`.
//! * `expire_one(threshold)` — ensures: if the head's timestamp
//!   `<= threshold`, the head index is freed and returned; otherwise
//!   `None` and nothing changes. (Paper Fig. 6 expires
//!   `G.timestamp + Texp <= t`; callers pass
//!   `threshold = now - Texp`, see [`crate::expirator`].)
//! * `is_allocated(i)`, `timestamp_of(i)` — pure queries.
//!
//! ## Memory layout
//!
//! One `Vec` of 16-byte cells `{prev, next, ts}`, four to a cache line,
//! so everything `rejuvenate` reads or writes about an index — both
//! links, the stamp, and whether it is allocated at all — is one line,
//! not one line in each of four parallel arrays. Links are `u32` (the
//! NAT caps capacity at 2^26; [`DoubleChain::new`] asserts the capacity
//! fits below the two sentinels), and "free" is encoded in `prev`: a
//! free cell's `prev` is the `FREE` sentinel, an allocated cell's is a
//! real index or `NIL`. The allocated list is doubly linked in LRU order; the
//! free list is singly linked through `next`.

use crate::time::Time;
use crate::Full;

/// Link terminator.
const NIL: u32 = u32::MAX;
/// `prev` of a cell on the free list.
const FREE: u32 = u32::MAX - 1;

/// Everything the chain keeps about one index. See the module docs.
#[derive(Debug, Clone, Copy)]
struct Cell {
    prev: u32,
    next: u32,
    ts: Time,
}

/// The double chain. See module docs.
#[derive(Debug, Clone)]
pub struct DoubleChain {
    cells: Vec<Cell>,
    /// Head/tail of the allocated list (oldest / freshest).
    al_head: u32,
    al_tail: u32,
    /// Head of the free list.
    free_head: u32,
    size: usize,
}

impl DoubleChain {
    /// Preallocate a chain handing out indices `0..capacity`.
    pub fn new(capacity: usize) -> DoubleChain {
        assert!(capacity > 0, "dchain capacity must be non-zero");
        assert!(
            capacity <= FREE as usize,
            "dchain capacity must fit u32 links below the NIL/FREE sentinels"
        );
        let cells = (0..capacity)
            .map(|i| Cell {
                prev: FREE,
                next: if i + 1 < capacity { i as u32 + 1 } else { NIL },
                ts: Time::ZERO,
            })
            .collect();
        DoubleChain {
            cells,
            al_head: NIL,
            al_tail: NIL,
            free_head: 0,
            size: 0,
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Number of allocated indices.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when every index is allocated.
    pub fn is_full(&self) -> bool {
        self.size == self.cells.len()
    }

    /// True if `index` is currently allocated. Out-of-range is `false`.
    pub fn is_allocated(&self, index: usize) -> bool {
        self.cells.get(index).is_some_and(|c| c.prev != FREE)
    }

    /// Last-refresh time of an allocated index.
    pub fn timestamp_of(&self, index: usize) -> Option<Time> {
        self.cells
            .get(index)
            .and_then(|c| (c.prev != FREE).then_some(c.ts))
    }

    /// Timestamp of the oldest allocated index (the expiry candidate).
    pub fn oldest_timestamp(&self) -> Option<Time> {
        self.cells.get(self.al_head as usize).map(|c| c.ts)
    }

    /// Hint: load `index`'s cell so a following
    /// [`DoubleChain::rejuvenate`] finds it in cache. Changes nothing;
    /// any `index` is accepted (out of range loads nothing).
    #[inline]
    pub fn first_touch(&self, index: usize) {
        std::hint::black_box(self.cells.get(index).map(|c| c.ts));
    }

    /// Hint: load the cells of `index`'s two list neighbours — the
    /// lines unlinking it will write. Changes nothing; any `index` is
    /// accepted (a free cell's `next` is just another cell to load).
    #[inline]
    pub fn first_touch_neighbours(&self, index: usize) {
        if let Some(c) = self.cells.get(index) {
            self.first_touch(c.prev as usize);
            self.first_touch(c.next as usize);
        }
    }

    /// Allocate a fresh index stamped `time`.
    ///
    /// Contract precondition (checked by [`CheckedChain`]): `time` is not
    /// older than any allocated timestamp. Returns [`Full`] when no index
    /// is free.
    pub fn allocate(&mut self, time: Time) -> Result<usize, Full> {
        if self.free_head == NIL {
            return Err(Full);
        }
        let idx = self.free_head;
        self.free_head = self.cells[idx as usize].next;
        self.append_allocated(idx, time);
        self.size += 1;
        Ok(idx as usize)
    }

    /// Refresh an allocated index's timestamp to `time`, moving it to the
    /// freshest end of the expiry order.
    ///
    /// Contract preconditions: `index` allocated; `time` monotonic.
    /// Returns `false` (and changes nothing) if `index` is not allocated.
    pub fn rejuvenate(&mut self, index: usize, time: Time) -> bool {
        if !self.is_allocated(index) {
            return false;
        }
        self.unlink_allocated(index as u32);
        self.append_allocated(index as u32, time);
        true
    }

    /// If the oldest allocated index has `timestamp <= threshold`, free it
    /// and return it.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        let idx = self.al_head;
        if self.cells.get(idx as usize)?.ts > threshold {
            return None;
        }
        self.release(idx);
        Some(idx as usize)
    }

    /// Free an allocated index directly (used by NFs that tear down state
    /// eagerly, e.g. on TCP RST — VigNAT itself only expires by time).
    /// Returns `false` if the index was not allocated.
    pub fn free_index(&mut self, index: usize) -> bool {
        if !self.is_allocated(index) {
            return false;
        }
        self.release(index as u32);
        true
    }

    /// Allocated indices oldest-first (the expiry order). For contracts
    /// and tests; the NF never iterates.
    pub fn iter_lru(&self) -> impl Iterator<Item = (usize, Time)> + '_ {
        LruIter {
            chain: self,
            cur: self.al_head,
        }
    }

    /// Move allocated `idx` to the head of the free list.
    fn release(&mut self, idx: u32) {
        self.unlink_allocated(idx);
        let cell = &mut self.cells[idx as usize];
        cell.prev = FREE;
        cell.next = self.free_head;
        self.free_head = idx;
        self.size -= 1;
    }

    fn append_allocated(&mut self, idx: u32, time: Time) {
        self.cells[idx as usize] = Cell {
            prev: self.al_tail,
            next: NIL,
            ts: time,
        };
        if self.al_tail != NIL {
            self.cells[self.al_tail as usize].next = idx;
        } else {
            self.al_head = idx;
        }
        self.al_tail = idx;
    }

    fn unlink_allocated(&mut self, idx: u32) {
        let Cell {
            prev: p, next: n, ..
        } = self.cells[idx as usize];
        if p != NIL {
            self.cells[p as usize].next = n;
        } else {
            self.al_head = n;
        }
        if n != NIL {
            self.cells[n as usize].prev = p;
        } else {
            self.al_tail = p;
        }
    }
}

struct LruIter<'a> {
    chain: &'a DoubleChain,
    cur: u32,
}

impl Iterator for LruIter<'_> {
    type Item = (usize, Time);

    fn next(&mut self) -> Option<Self::Item> {
        let cell = self.chain.cells.get(self.cur as usize)?;
        let i = self.cur as usize;
        self.cur = cell.next;
        Some((i, cell.ts))
    }
}

// ---------------------------------------------------------------------------
// Abstract model and contracts
// ---------------------------------------------------------------------------

/// Abstract double chain: allocated indices in expiry order (oldest first)
/// plus the derived free set. Analog of Vigor's `dchainp` fixpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractChain {
    /// `(index, timestamp)` oldest-first; timestamps are non-decreasing.
    seq: Vec<(usize, Time)>,
    capacity: usize,
}

impl AbstractChain {
    /// Empty chain over `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        AbstractChain {
            seq: Vec::new(),
            capacity,
        }
    }

    /// Allocated count.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True when nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Is the index allocated?
    pub fn is_allocated(&self, index: usize) -> bool {
        self.seq.iter().any(|&(i, _)| i == index)
    }

    /// Timestamp of an allocated index.
    pub fn timestamp_of(&self, index: usize) -> Option<Time> {
        self.seq.iter().find(|&&(i, _)| i == index).map(|&(_, t)| t)
    }

    /// The allocation-order sequence.
    pub fn seq(&self) -> &[(usize, Time)] {
        &self.seq
    }

    /// Greatest timestamp currently allocated (for the monotonicity
    /// precondition).
    pub fn max_timestamp(&self) -> Option<Time> {
        self.seq.last().map(|&(_, t)| t)
    }

    /// Model `allocate`: nondeterministic in which free index is chosen,
    /// so it takes the implementation's answer and validates it.
    pub fn allocate_as(&mut self, index: usize, time: Time) {
        debug_assert!(index < self.capacity);
        debug_assert!(!self.is_allocated(index));
        self.seq.push((index, time));
    }

    /// Model `rejuvenate`.
    pub fn rejuvenate(&mut self, index: usize, time: Time) {
        let pos = self
            .seq
            .iter()
            .position(|&(i, _)| i == index)
            .expect("rejuvenate of unallocated index");
        self.seq.remove(pos);
        self.seq.push((index, time));
    }

    /// Model `expire_one`.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        match self.seq.first() {
            Some(&(i, t)) if t <= threshold => {
                self.seq.remove(0);
                Some(i)
            }
            _ => None,
        }
    }

    /// Model `free_index`.
    pub fn free_index(&mut self, index: usize) -> bool {
        match self.seq.iter().position(|&(i, _)| i == index) {
            Some(pos) => {
                self.seq.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// Implementation + model in lockstep with contract assertions (P3).
#[derive(Debug, Clone)]
pub struct CheckedChain {
    imp: DoubleChain,
    model: AbstractChain,
}

impl CheckedChain {
    /// Preallocate, like [`DoubleChain::new`].
    pub fn new(capacity: usize) -> Self {
        CheckedChain {
            imp: DoubleChain::new(capacity),
            model: AbstractChain::new(capacity),
        }
    }

    /// Contract-checked `allocate`.
    pub fn allocate(&mut self, time: Time) -> Result<usize, Full> {
        if let Some(mx) = self.model.max_timestamp() {
            assert!(
                time >= mx,
                "dchain.allocate precondition: time monotonicity violated"
            );
        }
        let r = self.imp.allocate(time);
        match r {
            Ok(i) => {
                assert!(i < self.imp.capacity(), "allocated index out of range");
                assert!(
                    !self.model.is_allocated(i),
                    "impl allocated an in-use index"
                );
                self.model.allocate_as(i, time);
            }
            Err(Full) => {
                assert_eq!(self.model.len(), self.imp.capacity(), "Full below capacity");
            }
        }
        self.check_equiv();
        r
    }

    /// Contract-checked `rejuvenate`.
    pub fn rejuvenate(&mut self, index: usize, time: Time) -> bool {
        let was = self.model.is_allocated(index);
        if was {
            if let Some(mx) = self.model.max_timestamp() {
                assert!(
                    time >= mx,
                    "dchain.rejuvenate precondition: time monotonicity"
                );
            }
        }
        let r = self.imp.rejuvenate(index, time);
        assert_eq!(r, was, "rejuvenate result diverged from model");
        if was {
            self.model.rejuvenate(index, time);
        }
        self.check_equiv();
        r
    }

    /// Contract-checked `expire_one`.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        let got = self.imp.expire_one(threshold);
        let spec = self.model.expire_one(threshold);
        assert_eq!(got, spec, "expire_one diverged from model");
        self.check_equiv();
        got
    }

    /// Contract-checked `free_index`.
    pub fn free_index(&mut self, index: usize) -> bool {
        let got = self.imp.free_index(index);
        let spec = self.model.free_index(index);
        assert_eq!(got, spec, "free_index diverged from model");
        self.check_equiv();
        got
    }

    /// Contract-checked allocation query.
    pub fn is_allocated(&self, index: usize) -> bool {
        let got = self.imp.is_allocated(index);
        assert_eq!(got, self.model.is_allocated(index));
        got
    }

    /// Access the underlying implementation.
    pub fn raw(&self) -> &DoubleChain {
        &self.imp
    }

    /// Full refinement check: identical LRU sequences, and the model's
    /// timestamps are non-decreasing (the LRU invariant).
    pub fn check_equiv(&self) {
        let imp_seq: Vec<(usize, Time)> = self.imp.iter_lru().collect();
        assert_eq!(imp_seq.as_slice(), self.model.seq(), "LRU order diverged");
        assert_eq!(self.imp.size(), self.model.len());
        let mut prev = Time::ZERO;
        for &(_, t) in self.model.seq() {
            assert!(
                t >= prev,
                "LRU invariant broken: timestamps must be non-decreasing"
            );
            prev = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn allocate_all_then_full() {
        let mut c = CheckedChain::new(3);
        let mut got = vec![
            c.allocate(Time(1)).unwrap(),
            c.allocate(Time(2)).unwrap(),
            c.allocate(Time(3)).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(c.allocate(Time(4)), Err(Full));
    }

    #[test]
    fn expire_follows_lru_order() {
        let mut c = CheckedChain::new(4);
        let a = c.allocate(Time::from_secs(1)).unwrap();
        let b = c.allocate(Time::from_secs(2)).unwrap();
        let d = c.allocate(Time::from_secs(3)).unwrap();
        // threshold covers a and b but not d
        assert_eq!(c.expire_one(Time::from_secs(2)), Some(a));
        assert_eq!(c.expire_one(Time::from_secs(2)), Some(b));
        assert_eq!(c.expire_one(Time::from_secs(2)), None);
        assert!(c.is_allocated(d));
    }

    #[test]
    fn rejuvenate_rescues_from_expiry() {
        let mut c = CheckedChain::new(4);
        let a = c.allocate(Time::from_secs(1)).unwrap();
        let b = c.allocate(Time::from_secs(2)).unwrap();
        assert!(c.rejuvenate(a, Time::from_secs(10)));
        // now b is the oldest
        assert_eq!(c.expire_one(Time::from_secs(5)), Some(b));
        assert_eq!(
            c.expire_one(Time::from_secs(5)),
            None,
            "a was rejuvenated past threshold"
        );
        assert!(c.is_allocated(a));
    }

    #[test]
    fn rejuvenate_unallocated_returns_false() {
        let mut c = CheckedChain::new(2);
        assert!(!c.rejuvenate(0, Time(1)));
        assert!(!c.rejuvenate(7, Time(1))); // out of range
    }

    #[test]
    fn freed_indices_are_reallocated() {
        let mut c = CheckedChain::new(2);
        let a = c.allocate(Time(1)).unwrap();
        let b = c.allocate(Time(2)).unwrap();
        assert!(c.free_index(a));
        let a2 = c.allocate(Time(3)).unwrap();
        assert_eq!(a2, a, "freed index must be reusable");
        assert!(c.is_allocated(b));
        assert_eq!(c.raw().size(), 2);
    }

    #[test]
    fn expire_exact_threshold_boundary() {
        // Fig. 6: expire iff timestamp + Texp <= now, i.e. ts <= threshold.
        let mut c = CheckedChain::new(2);
        c.allocate(Time(100)).unwrap();
        assert_eq!(c.expire_one(Time(99)), None, "ts > threshold survives");
        assert!(c.expire_one(Time(100)).is_some(), "ts == threshold expires");
    }

    #[test]
    fn timestamp_queries() {
        let mut c = CheckedChain::new(2);
        let a = c.allocate(Time(5)).unwrap();
        assert_eq!(c.raw().timestamp_of(a), Some(Time(5)));
        assert_eq!(c.raw().timestamp_of(1 - a), None);
        assert_eq!(c.raw().oldest_timestamp(), Some(Time(5)));
    }

    #[test]
    fn cell_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 16);
    }

    #[test]
    #[should_panic(expected = "must fit u32 links")]
    fn capacity_past_the_link_width_is_rejected_at_construction() {
        // The assert fires before anything is allocated.
        let _ = DoubleChain::new(FREE as usize + 1);
    }

    #[test]
    fn hints_change_nothing_and_accept_any_index() {
        let mut c = DoubleChain::new(6);
        for t in 1..=5 {
            c.allocate(Time(t)).unwrap();
        }
        c.free_index(2);
        c.rejuvenate(0, Time(9));
        let before: Vec<_> = c.iter_lru().collect();
        let free_before = c.clone().allocate(Time(10));
        // Allocated, freed, never-allocated, one past the end, and the
        // sentinels themselves.
        for i in [0, 1, 2, 5, 6, 7, FREE as usize, NIL as usize, usize::MAX] {
            c.first_touch(i);
            c.first_touch_neighbours(i);
        }
        assert_eq!(c.iter_lru().collect::<Vec<_>>(), before);
        assert_eq!(c.size(), 4);
        assert_eq!(c.clone().allocate(Time(10)), free_before, "free list too");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Allocate,
        Rejuvenate(usize),
        ExpireOne(u64),
        Free(usize),
    }

    fn op_strategy(cap: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Allocate),
            (0..cap).prop_map(Op::Rejuvenate),
            (0u64..16).prop_map(Op::ExpireOne),
            (0..cap).prop_map(Op::Free),
        ]
    }

    proptest! {
        /// Random op sequences with a monotone clock refine the model.
        #[test]
        fn random_ops_refine_model(ops in proptest::collection::vec(op_strategy(5), 0..200)) {
            let mut c = CheckedChain::new(5);
            let mut now = Time::ZERO;
            for op in ops {
                now = now.plus(1); // strictly monotone clock
                match op {
                    Op::Allocate => { let _ = c.allocate(now); }
                    Op::Rejuvenate(i) => { c.rejuvenate(i, now); }
                    Op::ExpireOne(back) => { c.expire_one(now.minus(back)); }
                    Op::Free(i) => { c.free_index(i); }
                }
            }
        }

        /// After expiring exhaustively at threshold T, every surviving
        /// timestamp is > T (the paper's expire_flows postcondition).
        #[test]
        fn exhaustive_expiry_leaves_only_fresh(
            stamps in proptest::collection::vec(1u64..100, 1..20),
            thr in 0u64..100,
        ) {
            let mut c = DoubleChain::new(32);
            let mut now = Time::ZERO;
            for s in &stamps {
                now = Time(now.0.max(*s)); // keep monotone by sorting input
            }
            let mut sorted = stamps.clone();
            sorted.sort_unstable();
            for s in &sorted {
                c.allocate(Time(*s)).unwrap();
            }
            while c.expire_one(Time(thr)).is_some() {}
            for (_, t) in c.iter_lru() {
                prop_assert!(t > Time(thr));
            }
            let expected_survivors = sorted.iter().filter(|&&s| s > thr).count();
            prop_assert_eq!(c.size(), expected_survivors);
        }
    }
}
