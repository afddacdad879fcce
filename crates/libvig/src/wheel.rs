//! Hierarchical timer wheel: O(1) expiry bucketed by deadline.
//!
//! **Status: the NAT does not use this module.** It used to shadow the
//! [`crate::dchain`] with one wheel per timeout class. But every wheel
//! the NAT owned was fed monotone stamps under one constant lifetime, so
//! it only ever sorted a sequence that arrived sorted: within a class,
//! deadline order is arrival order, and one LRU list per class
//! ([`crate::dchain::DoubleChain::with_lists`], drained by
//! [`crate::expirator::expire_items`]) pops a due flow in O(1) with no
//! buckets, cascades or overdue lane — measured faster and 54 bytes per
//! slot smaller. The module is still compiled, unedited below this
//! header, for one reason: `benchmark/src/ladder.rs` times
//! [`TimerWheel::insert`], [`TimerWheel::refresh`] and
//! [`TimerWheel::pop_expired`] for natbench's `libvig.wheel_refresh_ns`
//! and `libvig.wheel_pop_ns` rungs, and the change that retired the
//! wheel was not allowed to touch `benchmark/`. The benchmark change
//! that drops those two rungs deletes this file with them.
//!
//! What a wheel is for, and what would bring one back: deadlines that do
//! *not* arrive in order within a list — a lifetime chosen per flow
//! rather than per class (RFC 4787 behaviours, per-subscriber policy).
//! The classical answer is the hierarchical timer wheel (Varghese &
//! Lauck, SOSP '87): hash each deadline into a bucket, expire by
//! draining due buckets, pay O(1) amortized per timer regardless of
//! table size.
//!
//! The wheel keeps the verification story of every other libVig
//! structure: an executable abstract model ([`AbstractWheel`] — the
//! naive scan), a lockstep [`CheckedWheel`] asserting the contract on
//! every call, and property/boundary suites, all in this file.
//!
//! ## Geometry
//!
//! 11 levels × 64 slots (6 bits per level, 66 bits ≥ the full `u64`
//! nanosecond range), one `u64` occupancy bitmap per level, and a
//! cursor `C` = the wheel's notion of "now". An armed timestamp `t ≥ C`
//! lives at
//!
//! ```text
//! level(t) = msb(t XOR C) / 6      (level 0 when t == C)
//! slot(t)  = (t >> 6·level) & 63
//! ```
//!
//! i.e. the level of the *highest bit where `t` disagrees with the
//! cursor* — Linux's `timer_wheel` placement. Level-0 buckets hold a
//! single nanosecond each; a level-`l` bucket spans `2^(6l)` ns. When
//! the earliest due bucket sits at level ≥ 1, its entries *cascade*:
//! the cursor advances to the bucket's start and each entry is
//! re-placed relative to the new cursor, landing at a strictly lower
//! level. An entry cascades at most 10 times over its whole life, so
//! arm + disarm + expire stay amortized O(1).
//!
//! ## The monotone-insert precondition and the order theorem
//!
//! Every [`TimerWheel::insert`]/[`TimerWheel::refresh`] timestamp must
//! be ≥ every timestamp currently armed (contract precondition,
//! asserted by [`CheckedWheel`]). The NAT satisfied it for free — one
//! lifetime per wheel, stamps from a monotone clock — which is exactly
//! why it never needed a wheel (header). Under it:
//!
//! * every bucket's FIFO is nondecreasing in timestamp (a new insert
//!   is ≥ everything already armed, wherever it lands);
//! * buckets are disjoint, ordered intervals of time, and for two
//!   armed timestamps `a`, `b ≥ C`, `msb(a^C) < msb(b^C)` implies
//!   `a < b` — so "lowest nonempty level, then lowest set slot bit"
//!   *is* the global minimum bucket, and its head the global minimum
//!   entry;
//! * cascading walks the source FIFO in order and appends, so order is
//!   preserved exactly.
//!
//! Hence [`TimerWheel::pop_expired`] yields entries in ascending
//! `(timestamp, insertion order)` — precisely the order
//! [`crate::dchain::DoubleChain::expire_one`] frees them. That exact
//! (not just set-wise) agreement is what let the flow manager run a
//! wheel beside the chain without perturbing one byte of downstream
//! state: freed indices hit the dchain free list in the same sequence,
//! so port reuse, probe layout, and TX bytes all stayed identical.
//!
//! ## The overdue lane
//!
//! A sharded NAT's expiry threshold can come from a *global* clock
//! ahead of the shard's local packet clock (a driver that expires
//! every shard at each burst's arrival instant ticks idle shards at
//! the fleet-wide max). After such a tick fast-forwards the
//! cursor, a later local insert may carry `t < C`. Those entries are
//! already due-or-imminent; they go to a dedicated **overdue FIFO**
//! drained before the wheel. Monotonicity makes this exact too: an
//! overdue insert's `t` is ≥ all armed entries yet `< C`, and in-wheel
//! entries are ≥ `C` — so at that moment the wheel proper is empty,
//! and every in-wheel entry armed *later* is ≥ the overdue tail.
//! Overdue-first is therefore still globally ascending order.
//!
//! ## Memory layout
//!
//! Per index: one 16-byte node `{next, prev, ts}` in a single `Vec`
//! (four to a cache line) and one `u16` bucket id in an array beside it
//! — two lines per refresh where four parallel arrays cost four. The
//! bucket id stays outside the node because folding it in pads the node
//! to 24 bytes, which measured +4.5 % table heap; 16 + 2 bytes is what
//! the parallel arrays already cost.

use crate::time::Time;

/// Bits per wheel level (64 slots each).
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels: 11 × 6 = 66 bits ≥ 64, so any `u64` nanosecond timestamp
/// places without overflow.
const LEVELS: usize = 11;
/// Total buckets.
const BUCKETS: usize = LEVELS * SLOTS;

/// Linked-list terminator for entry indices.
const NIL: u32 = u32::MAX;
/// `bucket[i]` value meaning "index `i` is not armed".
const B_NONE: u16 = u16::MAX;
/// `bucket[i]` value meaning "index `i` is in the overdue FIFO".
const B_OVERDUE: u16 = u16::MAX - 1;

/// One entry's links within its bucket (or overdue) FIFO and its armed
/// deadline; all three are meaningful only while the entry is armed.
#[derive(Debug, Clone, Copy)]
struct Node {
    next: u32,
    prev: u32,
    ts: u64,
}

/// A hierarchical timer wheel over a preallocated index space
/// `0..capacity` (the same dense index space the dchain and dmap
/// share). See the module docs for geometry and contracts.
#[derive(Debug, Clone)]
pub struct TimerWheel {
    /// Per-entry links and deadline.
    nodes: Vec<Node>,
    /// Which bucket each entry sits in: `level·64 + slot`, or
    /// [`B_NONE`] / [`B_OVERDUE`].
    bucket: Vec<u16>,
    /// Per-bucket FIFO head.
    head: Vec<u32>,
    /// Per-bucket FIFO tail.
    tail: Vec<u32>,
    /// One occupancy bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// Overdue FIFO head/tail (entries armed behind the cursor).
    overdue_head: u32,
    overdue_tail: u32,
    /// The wheel's "now": all in-wheel entries have `ts >= cursor`.
    cursor: u64,
    /// Armed entries (wheel + overdue).
    len: usize,
}

impl TimerWheel {
    /// A wheel for indices `0..capacity`, cursor at time zero, nothing
    /// armed. All memory is allocated here (§5.1.1: nothing allocates
    /// on the packet path).
    pub fn new(capacity: usize) -> TimerWheel {
        assert!(
            capacity <= NIL as usize,
            "wheel capacity must fit u32 links below the NIL sentinel"
        );
        TimerWheel {
            nodes: vec![
                Node {
                    next: NIL,
                    prev: NIL,
                    ts: 0
                };
                capacity
            ],
            bucket: vec![B_NONE; capacity],
            head: vec![NIL; BUCKETS],
            tail: vec![NIL; BUCKETS],
            occupancy: [0; LEVELS],
            overdue_head: NIL,
            overdue_tail: NIL,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of indices the wheel covers.
    pub fn capacity(&self) -> usize {
        self.bucket.len()
    }

    /// Number of armed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is currently armed.
    pub fn contains(&self, index: usize) -> bool {
        self.bucket[index] != B_NONE
    }

    /// The armed deadline of `index`, if armed.
    pub fn deadline_of(&self, index: usize) -> Option<Time> {
        (self.bucket[index] != B_NONE).then(|| Time::ZERO.plus(self.nodes[index].ts))
    }

    /// Hint: load `index`'s node and bucket id so a following
    /// [`TimerWheel::refresh`] finds them in cache. Changes nothing;
    /// any `index` is accepted (out of range loads nothing).
    #[inline]
    pub fn first_touch(&self, index: usize) {
        std::hint::black_box((
            self.nodes.get(index).map(|n| n.ts),
            self.bucket.get(index).copied(),
        ));
    }

    /// Hint: load the nodes of `index`'s two FIFO neighbours — the
    /// lines unlinking it will write. Changes nothing; any `index` is
    /// accepted (an unarmed node's links are `NIL` and load nothing).
    #[inline]
    pub fn first_touch_neighbours(&self, index: usize) {
        if let Some(n) = self.nodes.get(index) {
            std::hint::black_box((
                self.nodes.get(n.prev as usize).map(|p| p.next),
                self.nodes.get(n.next as usize).map(|p| p.prev),
            ));
        }
    }

    /// The wheel's current cursor (diagnostic; tests use it to pin the
    /// fast-forward behavior).
    pub fn cursor(&self) -> Time {
        Time::ZERO.plus(self.cursor)
    }

    /// Bucket for timestamp `t` relative to cursor `c`. Precondition:
    /// `t >= c`.
    fn place(c: u64, t: u64) -> u16 {
        debug_assert!(t >= c, "place: timestamp behind cursor");
        let diff = t ^ c;
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) / SLOT_BITS
        };
        let slot = (t >> (SLOT_BITS * level)) & (SLOTS as u64 - 1);
        (level as u16) * SLOTS as u16 + slot as u16
    }

    /// First (smallest) timestamp that maps to `bucket` under the
    /// current cursor: the cursor's bits above the bucket's level, the
    /// bucket's slot at the level, zeros below.
    fn bucket_start(&self, bucket: u16) -> u64 {
        let level = u32::from(bucket) / SLOTS as u32;
        let slot = u64::from(bucket) % SLOTS as u64;
        let above = SLOT_BITS * (level + 1);
        let high = if above >= 64 {
            0
        } else {
            (self.cursor >> above) << above
        };
        high | (slot << (SLOT_BITS * level))
    }

    /// Append `index` to `bucket`'s FIFO and set the occupancy bit.
    fn push_bucket(&mut self, index: usize, bucket: u16) {
        let b = bucket as usize;
        self.bucket[index] = bucket;
        self.nodes[index].next = NIL;
        self.nodes[index].prev = self.tail[b];
        if self.tail[b] == NIL {
            self.head[b] = index as u32;
            self.occupancy[b / SLOTS] |= 1u64 << (b % SLOTS);
        } else {
            self.nodes[self.tail[b] as usize].next = index as u32;
        }
        self.tail[b] = index as u32;
    }

    /// Unlink `index` from the doubly linked list it is in (a bucket
    /// FIFO or the overdue FIFO), clearing the occupancy bit if a
    /// bucket empties.
    fn unlink(&mut self, index: usize) {
        let b = self.bucket[index];
        debug_assert_ne!(b, B_NONE, "unlink of an unarmed index");
        let Node { next, prev, .. } = self.nodes[index];
        if b == B_OVERDUE {
            if prev == NIL {
                self.overdue_head = next;
            } else {
                self.nodes[prev as usize].next = next;
            }
            if next == NIL {
                self.overdue_tail = prev;
            } else {
                self.nodes[next as usize].prev = prev;
            }
        } else {
            let bu = b as usize;
            if prev == NIL {
                self.head[bu] = next;
            } else {
                self.nodes[prev as usize].next = next;
            }
            if next == NIL {
                self.tail[bu] = prev;
            } else {
                self.nodes[next as usize].prev = prev;
            }
            if self.head[bu] == NIL {
                self.occupancy[bu / SLOTS] &= !(1u64 << (bu % SLOTS));
            }
        }
        self.bucket[index] = B_NONE;
        self.nodes[index].next = NIL;
        self.nodes[index].prev = NIL;
    }

    /// Arm `index` with deadline `time`.
    ///
    /// Contract: `index` is not armed, and `time` is ≥ every deadline
    /// currently armed (the monotone-insert precondition — see the
    /// module docs; a monotone clock plus a shared timeout guarantees
    /// it). Deadlines behind the cursor join the overdue FIFO.
    pub fn insert(&mut self, index: usize, time: Time) {
        debug_assert!(!self.contains(index), "insert of an armed index");
        let t = time.nanos();
        self.nodes[index].ts = t;
        if t < self.cursor {
            // Overdue lane: already due relative to the fast-forwarded
            // cursor; drained FIFO-first (see module docs for why this
            // preserves exact global order).
            self.bucket[index] = B_OVERDUE;
            self.nodes[index].next = NIL;
            self.nodes[index].prev = self.overdue_tail;
            if self.overdue_tail == NIL {
                self.overdue_head = index as u32;
            } else {
                self.nodes[self.overdue_tail as usize].next = index as u32;
            }
            self.overdue_tail = index as u32;
        } else {
            let bucket = Self::place(self.cursor, t);
            self.push_bucket(index, bucket);
        }
        self.len += 1;
    }

    /// Re-arm `index` with a fresh deadline (the rejuvenate path).
    /// Same contract as [`TimerWheel::insert`]; the entry moves to the
    /// tail of its (possibly new) bucket, exactly as dchain's
    /// rejuvenate moves it to the LRU tail.
    pub fn refresh(&mut self, index: usize, time: Time) {
        debug_assert!(self.contains(index), "refresh of an unarmed index");
        self.unlink(index);
        self.len -= 1;
        self.insert(index, time);
    }

    /// Disarm `index` (the free path — e.g. the flow was torn down by
    /// something other than expiry). No-op ordering-wise.
    pub fn remove(&mut self, index: usize) -> bool {
        if !self.contains(index) {
            return false;
        }
        self.unlink(index);
        self.len -= 1;
        true
    }

    /// Lowest nonempty bucket id, or `None` when the wheel proper is
    /// empty. By the placement invariants this bucket contains the
    /// global minimum armed deadline (overdue lane aside).
    fn min_bucket(&self) -> Option<u16> {
        for (level, &occ) in self.occupancy.iter().enumerate() {
            if occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                return Some((level * SLOTS + slot) as u16);
            }
        }
        None
    }

    /// Cascade every entry of `bucket` (level ≥ 1) down to finer
    /// levels after the cursor advanced to the bucket's start. Walks
    /// the FIFO head→tail and re-places each entry, so relative order
    /// is preserved exactly.
    fn cascade(&mut self, bucket: u16) {
        let b = bucket as usize;
        debug_assert!(b >= SLOTS, "cascade of a level-0 bucket");
        let mut at = self.head[b];
        self.head[b] = NIL;
        self.tail[b] = NIL;
        self.occupancy[b / SLOTS] &= !(1u64 << (b % SLOTS));
        while at != NIL {
            let idx = at as usize;
            at = self.nodes[idx].next;
            let target = Self::place(self.cursor, self.nodes[idx].ts);
            debug_assert!(target < bucket, "cascade must strictly descend");
            self.push_bucket(idx, target);
        }
    }

    /// Pop the earliest-armed entry if its deadline is `<= threshold`,
    /// returning its index and deadline. `None` means nothing (more)
    /// is due — the paper's `expire_one` drain contract, so the flow
    /// manager can loop this exactly like the dchain scan.
    ///
    /// Entries come out in ascending `(deadline, insertion order)` —
    /// see the module docs' order theorem. Thresholds may regress
    /// between calls (per-shard skew); the check is against the
    /// entry's own deadline, so a regressed threshold simply pops
    /// nothing, same as the scan.
    pub fn pop_expired(&mut self, threshold: Time) -> Option<usize> {
        let thr = threshold.nanos();
        // Overdue lane first: always the globally earliest entries.
        if self.overdue_head != NIL {
            let idx = self.overdue_head as usize;
            if self.nodes[idx].ts <= thr {
                self.unlink(idx);
                self.len -= 1;
                return Some(idx);
            }
            return None;
        }
        loop {
            let Some(bucket) = self.min_bucket() else {
                // Empty wheel: fast-forward so the cursor never lags
                // behind what the caller has already observed as "now".
                self.cursor = self.cursor.max(thr);
                return None;
            };
            if bucket < SLOTS as u16 {
                // Level 0: one nanosecond per bucket, head is the
                // global minimum entry.
                let idx = self.head[bucket as usize] as usize;
                if self.nodes[idx].ts > thr {
                    return None;
                }
                self.unlink(idx);
                self.len -= 1;
                return Some(idx);
            }
            let start = self.bucket_start(bucket);
            if start > thr {
                // Everything armed is strictly later than the
                // threshold; don't move the cursor (a later insert may
                // still legitimately land between cursor and start).
                return None;
            }
            debug_assert!(start >= self.cursor, "cursor may only advance");
            self.cursor = start;
            self.cascade(bucket);
        }
    }

    /// Exhaustive internal consistency check (test-side): link/bucket
    /// agreement, occupancy bitmap exactness, bucket FIFOs sorted
    /// nondecreasing, every armed `ts` ≥ cursor (wheel) or the overdue
    /// lane ordered. O(capacity + buckets); used by `CheckedWheel` and
    /// the differential suites, never on the datapath.
    pub fn check_consistency(&self) {
        let mut armed = 0usize;
        for i in 0..self.capacity() {
            if self.bucket[i] == B_NONE {
                continue;
            }
            armed += 1;
            if self.bucket[i] != B_OVERDUE {
                assert_eq!(
                    self.bucket[i],
                    Self::place(self.cursor, self.nodes[i].ts),
                    "entry {i} not exactly placed for the current cursor"
                );
            }
        }
        assert_eq!(armed, self.len, "len does not match armed entries");
        for b in 0..BUCKETS {
            let occupied = self.head[b] != NIL;
            assert_eq!(
                self.occupancy[b / SLOTS] >> (b % SLOTS) & 1 == 1,
                occupied,
                "occupancy bit mismatch at bucket {b}"
            );
            let mut at = self.head[b];
            let mut prev = NIL;
            let mut last_ts = 0u64;
            while at != NIL {
                let i = at as usize;
                assert_eq!(self.bucket[i] as usize, b, "entry in the wrong bucket");
                let node = self.nodes[i];
                assert_eq!(node.prev, prev, "broken back link in bucket {b}");
                assert!(node.ts >= last_ts, "bucket {b} FIFO not ts-sorted");
                assert!(node.ts >= self.cursor, "in-wheel entry behind cursor");
                last_ts = node.ts;
                prev = at;
                at = node.next;
            }
            assert_eq!(self.tail[b], prev, "tail mismatch in bucket {b}");
        }
        let mut at = self.overdue_head;
        let mut prev = NIL;
        let mut last_ts = 0u64;
        while at != NIL {
            let i = at as usize;
            assert_eq!(self.bucket[i], B_OVERDUE, "stray entry in overdue lane");
            let node = self.nodes[i];
            assert_eq!(node.prev, prev, "broken back link in overdue lane");
            assert!(node.ts >= last_ts, "overdue lane not ts-sorted");
            assert!(node.ts < self.cursor, "overdue entry not behind cursor");
            last_ts = node.ts;
            prev = at;
            at = node.next;
        }
        assert_eq!(self.overdue_tail, prev, "overdue tail mismatch");
    }
}

/// The abstract model: the naive scan the wheel replaces. Armed
/// entries live in one insertion-ordered sequence; `pop_expired`
/// *scans the whole sequence* for the minimum `(deadline, position)`
/// and pops it if due — the obviously-correct O(n) semantics, and
/// (under the monotone-insert precondition) exactly the dchain LRU
/// drain.
#[derive(Debug, Clone, Default)]
pub struct AbstractWheel {
    /// `(index, deadline)` in arm order.
    seq: Vec<(usize, u64)>,
}

impl AbstractWheel {
    /// Empty model.
    pub fn new() -> AbstractWheel {
        AbstractWheel::default()
    }

    /// Armed entries.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Whether `index` is armed.
    pub fn contains(&self, index: usize) -> bool {
        self.seq.iter().any(|&(i, _)| i == index)
    }

    /// The armed deadline of `index`, if armed.
    pub fn deadline_of(&self, index: usize) -> Option<Time> {
        self.seq
            .iter()
            .find(|&&(i, _)| i == index)
            .map(|&(_, t)| Time::ZERO.plus(t))
    }

    /// Arm `index` (must not be armed).
    pub fn insert(&mut self, index: usize, time: Time) {
        assert!(!self.contains(index), "model: insert of an armed index");
        self.seq.push((index, time.nanos()));
    }

    /// Re-arm `index` (must be armed): remove, append — the LRU-tail
    /// move.
    pub fn refresh(&mut self, index: usize, time: Time) {
        assert!(self.remove(index), "model: refresh of an unarmed index");
        self.seq.push((index, time.nanos()));
    }

    /// Disarm `index`.
    pub fn remove(&mut self, index: usize) -> bool {
        match self.seq.iter().position(|&(i, _)| i == index) {
            Some(p) => {
                self.seq.remove(p);
                true
            }
            None => false,
        }
    }

    /// Scan for the minimum `(deadline, position)`; pop it if due.
    pub fn pop_expired(&mut self, threshold: Time) -> Option<usize> {
        let best = self
            .seq
            .iter()
            .enumerate()
            .min_by_key(|&(p, &(_, t))| (t, p))
            .map(|(p, _)| p)?;
        if self.seq[best].1 <= threshold.nanos() {
            Some(self.seq.remove(best).0)
        } else {
            None
        }
    }
}

/// Lockstep wrapper: runs the real wheel and the scan model together,
/// asserting after every operation that they agree — membership,
/// deadlines, lengths, and (the theorem that matters) identical pop
/// order. Also asserts the monotone-insert precondition, so a caller
/// that would void the order theorem fails loudly here rather than
/// diverging silently in production.
#[derive(Debug, Clone)]
pub struct CheckedWheel {
    real: TimerWheel,
    model: AbstractWheel,
    /// Largest deadline ever armed (precondition tracking).
    high_water: u64,
}

impl CheckedWheel {
    /// A checked wheel over `0..capacity`.
    pub fn new(capacity: usize) -> CheckedWheel {
        CheckedWheel {
            real: TimerWheel::new(capacity),
            model: AbstractWheel::new(),
            high_water: 0,
        }
    }

    /// The real wheel (read-only).
    pub fn raw(&self) -> &TimerWheel {
        &self.real
    }

    fn check(&self) {
        self.real.check_consistency();
        assert_eq!(self.real.len(), self.model.len(), "length divergence");
        for &(i, t) in &self.model.seq {
            assert_eq!(
                self.real.deadline_of(i),
                Some(Time::ZERO.plus(t)),
                "deadline divergence at index {i}"
            );
        }
    }

    /// Checked [`TimerWheel::insert`].
    pub fn insert(&mut self, index: usize, time: Time) {
        assert!(
            time.nanos() >= self.high_water,
            "monotone-insert precondition violated: {} < {}",
            time.nanos(),
            self.high_water
        );
        self.high_water = time.nanos();
        self.real.insert(index, time);
        self.model.insert(index, time);
        self.check();
    }

    /// Checked [`TimerWheel::refresh`].
    pub fn refresh(&mut self, index: usize, time: Time) {
        assert!(
            time.nanos() >= self.high_water,
            "monotone-insert precondition violated: {} < {}",
            time.nanos(),
            self.high_water
        );
        self.high_water = time.nanos();
        self.real.refresh(index, time);
        self.model.refresh(index, time);
        self.check();
    }

    /// Checked [`TimerWheel::remove`].
    pub fn remove(&mut self, index: usize) -> bool {
        let r = self.real.remove(index);
        let m = self.model.remove(index);
        assert_eq!(r, m, "remove divergence at index {index}");
        self.check();
        r
    }

    /// Checked [`TimerWheel::pop_expired`]: the wheel must pop exactly
    /// the entry the scan model pops.
    pub fn pop_expired(&mut self, threshold: Time) -> Option<usize> {
        let r = self.real.pop_expired(threshold);
        let m = self.model.pop_expired(threshold);
        assert_eq!(r, m, "pop order divergence at threshold {threshold:?}");
        self.check();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ns: u64) -> Time {
        Time::ZERO.plus(ns)
    }

    #[test]
    fn node_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    #[should_panic(expected = "must fit u32 links")]
    fn capacity_past_the_link_width_is_rejected_at_construction() {
        // The assert fires before anything is allocated.
        let _ = TimerWheel::new(NIL as usize + 1);
    }

    #[test]
    fn hints_change_nothing_and_accept_any_index() {
        let mut w = TimerWheel::new(6);
        assert_eq!(w.pop_expired(t(1 << 20)), None); // fast-forward
        w.insert(0, t(100)); // overdue lane
        w.insert(1, t(200));
        w.insert(2, t((1 << 20) + 5)); // wheel proper
        w.insert(3, t((1 << 20) + 5));
        w.remove(1);
        let before = (format!("{w:?}"), w.len());
        // Armed (both lanes), disarmed, never armed, one past the end,
        // and the link sentinel.
        for i in [0, 1, 2, 3, 5, 6, 7, NIL as usize, usize::MAX] {
            w.first_touch(i);
            w.first_touch_neighbours(i);
        }
        assert_eq!((format!("{w:?}"), w.len()), before);
        w.check_consistency();
    }

    #[test]
    fn placement_levels_match_msb() {
        // cursor 0: timestamps below 64 are level 0, then 6 bits/level.
        assert_eq!(TimerWheel::place(0, 0), 0);
        assert_eq!(TimerWheel::place(0, 63), 63);
        assert_eq!(TimerWheel::place(0, 64), 64 + 1); // level 1, slot 1
        assert_eq!(TimerWheel::place(0, 4095), 64 + 63); // level 1, slot 63
        assert_eq!(TimerWheel::place(0, 4096), 128 + 1); // level 2, slot 1
                                                         // Level 10 covers bits 60..64: slot is the top nibble (15).
        assert_eq!(TimerWheel::place(0, u64::MAX), (10 * 64 + 15) as u16);
        // Placement is relative: near cursor everything is level 0.
        let c = 0xDEAD_BEEF_0000u64;
        assert_eq!(TimerWheel::place(c, c), ((c & 63) as u16));
    }

    #[test]
    fn pop_order_is_deadline_then_insertion() {
        let mut w = CheckedWheel::new(16);
        w.insert(3, t(100));
        w.insert(7, t(100)); // same deadline: insertion order breaks the tie
        w.insert(1, t(5_000));
        w.insert(9, t(5_000_000));
        assert_eq!(w.pop_expired(t(99)), None);
        assert_eq!(w.pop_expired(t(100)), Some(3));
        assert_eq!(w.pop_expired(t(100)), Some(7));
        assert_eq!(w.pop_expired(t(100)), None);
        assert_eq!(w.pop_expired(t(u64::MAX)), Some(1));
        assert_eq!(w.pop_expired(t(u64::MAX)), Some(9));
        assert_eq!(w.pop_expired(t(u64::MAX)), None);
    }

    #[test]
    fn refresh_moves_to_tail_like_rejuvenate() {
        let mut w = CheckedWheel::new(8);
        w.insert(0, t(10));
        w.insert(1, t(10));
        w.refresh(0, t(10)); // same deadline, but now behind 1
        assert_eq!(w.pop_expired(t(10)), Some(1));
        assert_eq!(w.pop_expired(t(10)), Some(0));
    }

    #[test]
    fn boundary_exact_threshold_expires_inclusive() {
        // ts == threshold expires — the dchain `expire_one` boundary
        // (its `ts <= threshold` check), pinned here for the wheel.
        let mut w = CheckedWheel::new(4);
        w.insert(2, t(1_000));
        assert_eq!(w.pop_expired(t(999)), None);
        assert_eq!(w.pop_expired(t(1_000)), Some(2));
    }

    #[test]
    fn boundary_zero_duration_timeout() {
        // Zero-duration timeout: armed at `now`, due at `now`.
        let mut w = CheckedWheel::new(4);
        w.insert(0, t(777));
        assert_eq!(w.pop_expired(t(777)), Some(0));
        // And at time zero with deadline zero.
        let mut w0 = CheckedWheel::new(4);
        w0.insert(1, Time::ZERO);
        assert_eq!(w0.pop_expired(Time::ZERO), Some(1));
    }

    #[test]
    fn overdue_inserts_drain_first_in_order() {
        let mut w = CheckedWheel::new(8);
        // Fast-forward the cursor far ahead via an empty-wheel pop.
        assert_eq!(w.pop_expired(t(1 << 30)), None);
        assert_eq!(w.raw().cursor(), t(1 << 30));
        // Inserts behind the cursor take the overdue lane...
        w.insert(4, t(1_000));
        w.insert(5, t(2_000));
        // ...and one ahead of it takes the wheel.
        w.insert(6, t((1 << 30) + 7));
        assert_eq!(w.pop_expired(t(1_500)), Some(4));
        assert_eq!(w.pop_expired(t(1_500)), None, "5 not yet due");
        assert_eq!(w.pop_expired(t(u64::MAX)), Some(5));
        assert_eq!(w.pop_expired(t(u64::MAX)), Some(6));
    }

    #[test]
    fn overdue_refresh_rejoins_the_wheel() {
        let mut w = CheckedWheel::new(8);
        assert_eq!(w.pop_expired(t(1 << 20)), None);
        w.insert(0, t(100)); // overdue
        w.refresh(0, t(1 << 21)); // refreshed ahead: back into the wheel
        assert_eq!(w.pop_expired(t(1 << 20)), None);
        assert_eq!(w.pop_expired(t(1 << 21)), Some(0));
    }

    #[test]
    fn threshold_regression_pops_nothing_spurious() {
        let mut w = CheckedWheel::new(8);
        w.insert(0, t(5_000_000));
        assert_eq!(w.pop_expired(t(4_000_000)), None);
        // Regressed threshold (per-shard skew): still nothing due.
        assert_eq!(w.pop_expired(t(10)), None);
        assert_eq!(w.pop_expired(t(5_000_000)), Some(0));
        // Regression after a fast-forward is fine too.
        assert_eq!(w.pop_expired(t(1)), None);
    }

    #[test]
    fn remove_then_reinsert_round_trips() {
        let mut w = CheckedWheel::new(8);
        w.insert(0, t(50));
        w.insert(1, t(60));
        assert!(w.remove(0));
        assert!(!w.remove(0), "double remove is a no-op");
        w.insert(0, t(60));
        assert_eq!(w.pop_expired(t(100)), Some(1));
        assert_eq!(w.pop_expired(t(100)), Some(0));
    }

    #[test]
    fn deep_time_jumps_cascade_correctly() {
        // Deadlines spread across many levels; one huge threshold
        // drains them all in order through repeated cascades.
        let mut w = CheckedWheel::new(64);
        let mut deadlines: Vec<u64> = (0..40).map(|i| 1u64 << (i % 38)).collect();
        deadlines.sort_unstable();
        for (i, &d) in deadlines.iter().enumerate() {
            w.insert(i, t(d));
        }
        let mut drained = Vec::new();
        while let Some(i) = w.pop_expired(t(u64::MAX)) {
            drained.push(deadlines[i]);
        }
        assert_eq!(drained.len(), deadlines.len());
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        assert_eq!(drained, sorted, "drain order must be ascending");
    }

    /// Bounded-exhaustive micro-suite in the depth-5 style of the map's:
    /// every op sequence of depth 5 over a capacity-2 wheel — op
    /// alphabet of 12 (arm/refresh/remove/pop × 2 indices, with a
    /// per-op time drawn from a 4-magnitude table spanning level-0
    /// through level-4 placements so cascades, fast-forwards, and the
    /// overdue lane are all reached) — checked against the scan model
    /// at every step via `CheckedWheel`.
    #[test]
    fn exhaustive_depth5_small_capacity() {
        // Time alphabet: same-instant, +1 ns, a level-1 hop, a deep
        // multi-level hop. Chosen per op by mixing the op code so the
        // enumeration still covers every (kind, index) × time pairing
        // across positions.
        const TIMES: [u64; 4] = [0, 1, 100, 1 << 20];
        const KINDS: usize = 4; // arm, refresh, remove, pop
        const IDXS: usize = 2;
        const OPS: usize = KINDS * IDXS; // 8
        let depth = 5usize;
        let total = OPS.pow(depth as u32) * 2; // 8^5 · 2 = 65536 sequences
        let mut runs = 0u64;
        // Enumerate op codes in base OPS, plus one extra base-2 digit
        // steering the time-table phase, keeping the space ~500k ops.
        for code in 0..(OPS.pow(depth as u32) * 2) {
            let phase = code % 2;
            let mut c = code / 2;
            let mut w = CheckedWheel::new(IDXS);
            let mut clock = 0u64; // enforce the monotone precondition
            for step in 0..depth {
                let op = c % OPS;
                c /= OPS;
                let kind = op % KINDS;
                let index = op / KINDS;
                let time = TIMES[(step + phase + op) % TIMES.len()];
                match kind {
                    0 => {
                        if !w.raw().contains(index) {
                            clock = clock.max(clock + time);
                            w.insert(index, t(clock));
                        }
                    }
                    1 => {
                        if w.raw().contains(index) {
                            clock = clock.max(clock + time);
                            w.refresh(index, t(clock));
                        }
                    }
                    2 => {
                        w.remove(index);
                    }
                    _ => {
                        // Pop at a threshold both behind and ahead of
                        // the clock across the enumeration.
                        let thr = if phase == 0 { clock } else { clock + time };
                        w.pop_expired(t(thr));
                    }
                }
            }
            runs += 1;
        }
        assert_eq!(runs as usize, total);
    }

    proptest! {
        /// Adversarial schedules: bursty arrivals, refresh storms, time
        /// jumps (including far jumps that force deep cascades and
        /// fast-forwards creating overdue inserts), random removes —
        /// the wheel must agree with the scan model at every step.
        #[test]
        fn wheel_equals_scan_model(
            ops in proptest::collection::vec(
                (0u8..8, 0usize..24, 0u64..1 << 40), 1..300),
        ) {
            let mut w = CheckedWheel::new(24);
            let mut clock = 0u64;
            for (kind, index, raw_t) in ops {
                match kind {
                    // Bias toward arm/refresh so the wheel fills up.
                    0..=2 => {
                        clock = clock.max(raw_t % (1 << 30));
                        if w.raw().contains(index) {
                            w.refresh(index, t(clock));
                        } else {
                            w.insert(index, t(clock));
                        }
                    }
                    3 => {
                        // Refresh storm: touch several indices at one
                        // instant (ties stress the FIFO order).
                        clock = clock.max(raw_t % (1 << 30));
                        for i in index..(index + 4).min(24) {
                            if w.raw().contains(i) {
                                w.refresh(i, t(clock));
                            } else {
                                w.insert(i, t(clock));
                            }
                        }
                    }
                    4 => { w.remove(index); }
                    5 => {
                        // Drain at a nearby threshold.
                        let thr = raw_t % (1 << 31);
                        while w.pop_expired(t(thr)).is_some() {}
                    }
                    6 => {
                        // Far time jump: deep cascade / fast-forward.
                        let thr = raw_t;
                        while w.pop_expired(t(thr)).is_some() {}
                    }
                    _ => { w.pop_expired(t(raw_t % (1 << 31))); }
                }
            }
            // Final total drain agrees too.
            while w.pop_expired(t(u64::MAX)).is_some() {}
            prop_assert_eq!(w.raw().len(), 0);
        }

        /// Monotone random deadlines drain in exactly sorted order for
        /// any threshold schedule.
        #[test]
        fn drain_is_globally_sorted(
            gaps in proptest::collection::vec(0u64..1 << 22, 1..64),
        ) {
            let mut w = TimerWheel::new(64);
            let mut clock = 0u64;
            let mut armed = Vec::new();
            for (i, g) in gaps.iter().enumerate() {
                clock += g;
                w.insert(i, t(clock));
                armed.push(clock);
            }
            let mut out = Vec::new();
            while let Some(i) = w.pop_expired(t(u64::MAX)) {
                out.push(armed[i]);
            }
            let mut sorted = armed.clone();
            sorted.sort_unstable();
            prop_assert_eq!(out, sorted);
            w.check_consistency();
        }
    }
}
