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
//! Writing the abstract state as one ordered sequence
//! `[(index, timestamp)]` (oldest first) per list plus a free set
//! ([`AbstractChain`]; [`DoubleChain::new`] builds one list, the
//! paper's chain):
//!
//! * `allocate(t)` — requires `t >= every allocated timestamp` (time
//!   monotonicity); ensures: if the free set is nonempty, some free index
//!   moves to the tail of list 0 with timestamp `t`; otherwise returns
//!   `Err(Full)` and nothing changes.
//! * `rejuvenate_on(i, l, t)` — requires `i` allocated and `t >=` every
//!   stamp (monotonicity); ensures `i` leaves the sequence it was on and
//!   joins the tail of list `l` with timestamp `t` — refresh and
//!   migration between lists are one operation. `rejuvenate(i, t)` is
//!   `rejuvenate_on(i, 0, t)`.
//! * `expire_one(threshold)` — ensures: if the oldest head — smallest
//!   `(timestamp, list)` — has timestamp `<= threshold`, it is freed and
//!   returned; otherwise `None` and nothing changes. (Paper Fig. 6
//!   expires `G.timestamp + Texp <= t`; [`crate::expirator`] applies one
//!   lifetime per list through `oldest_on` and `free_index`.)
//! * `is_allocated(i)`, `timestamp_of(i)`, `oldest_on(l)` — pure queries.
//!
//! Each sequence's timestamps are non-decreasing, so under one constant
//! lifetime per list a list's order *is* its deadline order and the
//! expirator only ever looks at K heads — what per-class lifetimes need,
//! with no timer structure beside the chain.
//!
//! ## Memory layout
//!
//! One `Vec` of 16-byte cells `{prev, next, ts}`, four to a cache line,
//! so everything `rejuvenate` reads or writes about an index — both
//! links, the stamp, and whether it is allocated at all — is one line,
//! not one line in each of four parallel arrays. Links are `u32` (the
//! NAT caps capacity at 2^26; [`DoubleChain::with_lists`] asserts the
//! cells fit below the two sentinel values), and "free" is encoded in
//! `prev`: a free cell's `prev` is `FREE`, an allocated cell's is a cell
//! index. The free list is singly linked through `next`.
//!
//! Each allocated list is doubly linked and **circular through a
//! sentinel cell** stored after the `capacity` real cells (cell
//! `capacity + l` for list `l`, as Vigor's `double-chain-impl.c` keeps
//! its list heads): the sentinel's `next` is the list's oldest index,
//! its `prev` the freshest, and an empty list is a sentinel linked to
//! itself. Every allocated cell therefore has two real neighbours, so
//! unlinking is two unconditional stores and never needs to know which
//! list the index is on.

use crate::time::Time;
use crate::Full;

/// Free-list terminator.
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
    /// `capacity` real cells, then one sentinel per list.
    cells: Vec<Cell>,
    lists: usize,
    /// Head of the free list.
    free_head: u32,
    size: usize,
}

impl DoubleChain {
    /// Preallocate a one-list chain handing out indices `0..capacity`.
    pub fn new(capacity: usize) -> DoubleChain {
        DoubleChain::with_lists(capacity, 1)
    }

    /// Preallocate a chain handing out indices `0..capacity` onto
    /// `lists` LRU lists (module docs).
    pub fn with_lists(capacity: usize, lists: usize) -> DoubleChain {
        assert!(capacity > 0, "dchain capacity must be non-zero");
        assert!(lists > 0, "dchain needs at least one list");
        assert!(
            capacity
                .checked_add(lists)
                .is_some_and(|n| n <= FREE as usize),
            "dchain capacity must fit u32 links below the NIL/FREE sentinels"
        );
        // Sized once: `capacity + lists` cells, no growth slack.
        let mut cells = Vec::with_capacity(capacity + lists);
        cells.extend((0..capacity).map(|i| Cell {
            prev: FREE,
            next: if i + 1 < capacity { i as u32 + 1 } else { NIL },
            ts: Time::ZERO,
        }));
        cells.extend((capacity..capacity + lists).map(|s| Cell {
            prev: s as u32,
            next: s as u32,
            ts: Time::ZERO,
        }));
        DoubleChain {
            cells,
            lists,
            free_head: 0,
            size: 0,
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cells.len() - self.lists
    }

    /// Number of LRU lists fixed at construction.
    pub fn lists(&self) -> usize {
        self.lists
    }

    /// Number of allocated indices.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when every index is allocated.
    pub fn is_full(&self) -> bool {
        self.size == self.capacity()
    }

    /// True if `index` is currently allocated. Out-of-range is `false`.
    pub fn is_allocated(&self, index: usize) -> bool {
        index < self.capacity() && self.cells[index].prev != FREE
    }

    /// Last-refresh time of an allocated index.
    pub fn timestamp_of(&self, index: usize) -> Option<Time> {
        self.is_allocated(index).then(|| self.cells[index].ts)
    }

    /// The oldest index on `list` and its timestamp (that list's expiry
    /// candidate).
    pub fn oldest_on(&self, list: usize) -> Option<(usize, Time)> {
        self.real(self.cells[self.sentinel(list)].next)
    }

    /// Hint: prefetch `index`'s cell ([`crate::prefetch`]) so a
    /// following [`DoubleChain::rejuvenate`] finds it in cache. Changes
    /// nothing; any `index` is accepted (out of range prefetches
    /// nothing).
    #[inline]
    pub fn first_touch(&self, index: usize) {
        if let Some(c) = self.cells.get(index) {
            crate::prefetch(c);
        }
    }

    /// Hint: prefetch the cells of `index`'s two list neighbours — the
    /// lines unlinking it will write. It reads `index`'s own cell for
    /// their indices, so it follows a [`DoubleChain::first_touch`] of
    /// `index`. Changes nothing; any `index` is accepted (a free cell's
    /// `next` is just another cell to prefetch).
    #[inline]
    pub fn first_touch_neighbours(&self, index: usize) {
        if let Some(c) = self.cells.get(index) {
            self.first_touch(c.prev as usize);
            self.first_touch(c.next as usize);
        }
    }

    /// Allocate a fresh index stamped `time`, on list 0.
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
        self.append(idx, self.sentinel(0), time);
        self.size += 1;
        Ok(idx as usize)
    }

    /// Refresh an allocated index's timestamp to `time`, moving it to the
    /// freshest end of the expiry order — [`DoubleChain::rejuvenate_on`]
    /// list 0, the only list of a chain built by [`DoubleChain::new`].
    ///
    /// Contract preconditions: `index` allocated; `time` monotonic.
    /// Returns `false` (and changes nothing) if `index` is not allocated.
    pub fn rejuvenate(&mut self, index: usize, time: Time) -> bool {
        self.rejuvenate_on(index, 0, time)
    }

    /// Refresh an allocated index's timestamp to `time` and move it to
    /// the freshest end of `list`, whichever list it was on — refresh
    /// and migration between lists are the same operation.
    ///
    /// Contract preconditions: `index` allocated; `time` monotonic.
    /// Returns `false` (and changes nothing) if `index` is not allocated.
    pub fn rejuvenate_on(&mut self, index: usize, list: usize, time: Time) -> bool {
        let sentinel = self.sentinel(list);
        if !self.is_allocated(index) {
            return false;
        }
        self.unlink(index as u32);
        self.append(index as u32, sentinel, time);
        true
    }

    /// If the oldest allocated index — across lists, the head with the
    /// smallest `(timestamp, list)` — has `timestamp <= threshold`, free
    /// it and return it.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        let (idx, ts) = (0..self.lists)
            .filter_map(|l| self.oldest_on(l))
            .min_by_key(|&(_, ts)| ts)?;
        if ts > threshold {
            return None;
        }
        self.release(idx as u32);
        Some(idx)
    }

    /// Free an allocated index directly — the expirator frees the list
    /// head it chose this way, and NFs may tear down state eagerly (e.g.
    /// on TCP RST; VigNAT itself only expires by time).
    /// Returns `false` if the index was not allocated.
    pub fn free_index(&mut self, index: usize) -> bool {
        if !self.is_allocated(index) {
            return false;
        }
        self.release(index as u32);
        true
    }

    /// The indices on `list`, oldest first.
    pub fn iter_list(&self, list: usize) -> impl Iterator<Item = (usize, Time)> + '_ {
        let mut cur = self.cells[self.sentinel(list)].next;
        std::iter::from_fn(move || {
            let item = self.real(cur)?;
            cur = self.cells[item.0].next;
            Some(item)
        })
    }

    /// Allocated indices oldest-first: the lists merged by
    /// `(timestamp, list)`, which for one list is its expiry order. For
    /// contracts and tests; the NF never iterates.
    pub fn iter_lru(&self) -> impl Iterator<Item = (usize, Time)> + '_ {
        let mut heads: Vec<_> = (0..self.lists)
            .map(|l| self.iter_list(l).peekable())
            .collect();
        std::iter::from_fn(move || {
            heads
                .iter_mut()
                .filter_map(|h| Some((h.peek()?.1, h)))
                .min_by_key(|&(ts, _)| ts)
                .and_then(|(_, h)| h.next())
        })
    }

    /// Cell index of `list`'s sentinel.
    fn sentinel(&self, list: usize) -> usize {
        assert!(list < self.lists, "dchain has no list {list}");
        self.capacity() + list
    }

    /// `link` as a real index with its stamp; `None` for a sentinel.
    fn real(&self, link: u32) -> Option<(usize, Time)> {
        let i = link as usize;
        (i < self.capacity()).then(|| (i, self.cells[i].ts))
    }

    /// Move allocated `idx` to the head of the free list.
    fn release(&mut self, idx: u32) {
        self.unlink(idx);
        let cell = &mut self.cells[idx as usize];
        cell.prev = FREE;
        cell.next = self.free_head;
        self.free_head = idx;
        self.size -= 1;
    }

    /// Link `idx` in as the freshest index of the list circling through
    /// `sentinel`, stamped `time`.
    fn append(&mut self, idx: u32, sentinel: usize, time: Time) {
        let tail = self.cells[sentinel].prev;
        self.cells[idx as usize] = Cell {
            prev: tail,
            next: sentinel as u32,
            ts: time,
        };
        self.cells[tail as usize].next = idx;
        self.cells[sentinel].prev = idx;
    }

    /// Unlink allocated `idx` from whichever list it is on.
    fn unlink(&mut self, idx: u32) {
        let Cell {
            prev: p, next: n, ..
        } = self.cells[idx as usize];
        self.cells[p as usize].next = n;
        self.cells[n as usize].prev = p;
    }
}

// ---------------------------------------------------------------------------
// Abstract model and contracts
// ---------------------------------------------------------------------------

/// Abstract double chain: per list, the allocated indices in expiry
/// order (oldest first), plus the derived free set. Analog of Vigor's
/// `dchainp` fixpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractChain {
    /// Per list, `(index, timestamp)` oldest-first; timestamps are
    /// non-decreasing along each list.
    lists: Vec<Vec<(usize, Time)>>,
    capacity: usize,
}

impl AbstractChain {
    /// Empty one-list chain over `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        AbstractChain::with_lists(capacity, 1)
    }

    /// Empty chain over `0..capacity` with `lists` sequences.
    pub fn with_lists(capacity: usize, lists: usize) -> Self {
        AbstractChain {
            lists: vec![Vec::new(); lists],
            capacity,
        }
    }

    /// Allocated count.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// True when nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is the index allocated?
    pub fn is_allocated(&self, index: usize) -> bool {
        self.timestamp_of(index).is_some()
    }

    /// Timestamp of an allocated index.
    pub fn timestamp_of(&self, index: usize) -> Option<Time> {
        self.lists
            .iter()
            .flatten()
            .find(|&&(i, _)| i == index)
            .map(|&(_, t)| t)
    }

    /// One list's sequence, oldest first.
    pub fn seq(&self, list: usize) -> &[(usize, Time)] {
        &self.lists[list]
    }

    /// Every allocated index oldest-first: the sequences merged by
    /// `(timestamp, list)`, each keeping its own order.
    pub fn merged(&self) -> Vec<(usize, Time)> {
        let mut all: Vec<(Time, usize, usize)> = self
            .lists
            .iter()
            .enumerate()
            .flat_map(|(l, seq)| seq.iter().map(move |&(i, t)| (t, l, i)))
            .collect();
        all.sort_by_key(|&(t, l, _)| (t, l)); // stable
        all.into_iter().map(|(t, _, i)| (i, t)).collect()
    }

    /// Greatest timestamp currently allocated (for the monotonicity
    /// precondition).
    pub fn max_timestamp(&self) -> Option<Time> {
        self.lists
            .iter()
            .filter_map(|s| s.last())
            .map(|&(_, t)| t)
            .max()
    }

    /// Model `allocate`: nondeterministic in which free index is chosen,
    /// so it takes the implementation's answer and validates it.
    pub fn allocate_as(&mut self, index: usize, time: Time) {
        debug_assert!(index < self.capacity);
        debug_assert!(!self.is_allocated(index));
        self.lists[0].push((index, time));
    }

    /// Model `rejuvenate_on`.
    pub fn rejuvenate_on(&mut self, index: usize, list: usize, time: Time) {
        let removed = self.free_index(index);
        assert!(removed, "rejuvenate of unallocated index");
        self.lists[list].push((index, time));
    }

    /// Model `expire_one`.
    pub fn expire_one(&mut self, threshold: Time) -> Option<usize> {
        match self.merged().first() {
            Some(&(i, t)) if t <= threshold => {
                self.free_index(i);
                Some(i)
            }
            _ => None,
        }
    }

    /// Model `free_index`.
    pub fn free_index(&mut self, index: usize) -> bool {
        self.lists.iter_mut().any(|seq| {
            let pos = seq.iter().position(|&(i, _)| i == index);
            pos.map(|p| seq.remove(p)).is_some()
        })
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
        CheckedChain::with_lists(capacity, 1)
    }

    /// Preallocate, like [`DoubleChain::with_lists`].
    pub fn with_lists(capacity: usize, lists: usize) -> Self {
        CheckedChain {
            imp: DoubleChain::with_lists(capacity, lists),
            model: AbstractChain::with_lists(capacity, lists),
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
        self.rejuvenate_on(index, 0, time)
    }

    /// Contract-checked `rejuvenate_on`.
    pub fn rejuvenate_on(&mut self, index: usize, list: usize, time: Time) -> bool {
        let was = self.model.is_allocated(index);
        if was {
            if let Some(mx) = self.model.max_timestamp() {
                assert!(
                    time >= mx,
                    "dchain.rejuvenate precondition: time monotonicity"
                );
            }
        }
        let r = self.imp.rejuvenate_on(index, list, time);
        assert_eq!(r, was, "rejuvenate result diverged from model");
        if was {
            self.model.rejuvenate_on(index, list, time);
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

    /// Full refinement check: every list's sequence identical, the
    /// merged order identical, and the model's timestamps non-decreasing
    /// along each list (the LRU invariant).
    pub fn check_equiv(&self) {
        for list in 0..self.imp.lists() {
            let imp_seq: Vec<(usize, Time)> = self.imp.iter_list(list).collect();
            let seq = self.model.seq(list);
            assert_eq!(imp_seq.as_slice(), seq, "list {list} order diverged");
            assert_eq!(self.imp.oldest_on(list), seq.first().copied());
            assert!(
                seq.windows(2).all(|w| w[0].1 <= w[1].1),
                "LRU invariant broken: timestamps must be non-decreasing"
            );
        }
        let merged: Vec<(usize, Time)> = self.imp.iter_lru().collect();
        assert_eq!(merged, self.model.merged(), "merged LRU order diverged");
        assert_eq!(self.imp.size(), self.model.len());
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
        assert_eq!(c.raw().oldest_on(0), Some((a, Time(5))));
    }

    #[test]
    fn cell_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Cell>(), 16);
    }

    #[test]
    fn cells_are_sized_once() {
        // Real cells plus one sentinel per list, with no growth slack.
        let c = DoubleChain::with_lists(1000, 3);
        assert_eq!((c.cells.len(), c.cells.capacity()), (1003, 1003));
        assert_eq!(c.capacity(), 1000);
    }

    #[test]
    fn lists_order_independently_and_merge_by_stamp_then_list() {
        let mut c = CheckedChain::with_lists(4, 3);
        let [a, b, d, e] = [1, 1, 2, 2].map(|t| c.allocate(Time(t)).unwrap());
        // Migration at the current stamp, and refresh-with-migration.
        assert!(c.rejuvenate_on(d, 2, Time(2)));
        assert!(c.rejuvenate_on(a, 1, Time(2)));
        assert_eq!(
            c.raw().iter_list(0).collect::<Vec<_>>(),
            [(b, Time(1)), (e, Time(2))]
        );
        assert_eq!(c.raw().oldest_on(1), Some((a, Time(2))));
        assert_eq!(c.raw().oldest_on(2), Some((d, Time(2))));
        // Equal stamps across lists: lower list first.
        let merged: Vec<usize> = c.raw().iter_lru().map(|(i, _)| i).collect();
        assert_eq!(merged, [b, e, a, d]);
        assert_eq!(c.expire_one(Time(1)), Some(b));
        assert_eq!(c.expire_one(Time(1)), None);
        // Unlinking the only index of a list leaves it empty and usable.
        assert!(c.free_index(a));
        assert_eq!(c.raw().oldest_on(1), None);
        assert!(c.rejuvenate_on(e, 1, Time(3)));
        assert_eq!(c.raw().oldest_on(0), None);
        assert!(!c.rejuvenate_on(a, 0, Time(3)), "freed index");
    }

    #[test]
    #[should_panic(expected = "no list 3")]
    fn list_out_of_range_is_rejected_before_anything_moves() {
        let mut c = DoubleChain::with_lists(2, 3);
        let i = c.allocate(Time(1)).unwrap();
        c.rejuvenate_on(i, 3, Time(2));
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
        RejuvenateOn(usize, usize),
        ExpireOne(u64),
        Free(usize),
    }

    fn op_strategy(cap: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Allocate),
            (0..cap, 0usize..3).prop_map(|(i, l)| Op::RejuvenateOn(i, l)),
            (0u64..16).prop_map(Op::ExpireOne),
            (0..cap).prop_map(Op::Free),
        ]
    }

    proptest! {
        /// Random op sequences with a monotone clock refine the model,
        /// on one list (the paper's chain) and on three, with clock
        /// stalls so equal stamps meet across lists.
        #[test]
        fn random_ops_refine_model(
            lists in prop_oneof![Just(1usize), Just(3)],
            ops in proptest::collection::vec((op_strategy(5), 0u64..2), 0..200),
        ) {
            let mut c = CheckedChain::with_lists(5, lists);
            let mut now = Time::ZERO;
            for (op, dt) in ops {
                now = now.plus(dt);
                match op {
                    Op::Allocate => { let _ = c.allocate(now); }
                    Op::RejuvenateOn(i, l) => { c.rejuvenate_on(i, l % lists, now); }
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
