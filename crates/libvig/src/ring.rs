//! The bounded FIFO ring (`ring.c`) — the data structure of the paper's
//! §3 worked example.
//!
//! The paper uses the ring to illustrate the whole Vigor methodology:
//! the discard-protocol NF pushes received packets (minus port-9 ones)
//! and pops them for transmission, and the proof shows a popped packet
//! can never have target port 9 because (a) the NF never pushes one and
//! (b) the ring never alters stored values. Property (b) is exactly the
//! `ring_pop_front` contract of the paper's Fig. 3, reproduced by
//! [`CheckedRing`] — including the *constraint preservation* clause: a
//! predicate that holds for every pushed element holds for every popped
//! element.

use crate::Full;
use core::fmt::Debug;
use std::collections::VecDeque;

/// Preallocated FIFO ring buffer: every RX and TX descriptor queue of
/// the NIC model (`netsim`'s `PortLedger` and `SimBackend`) is one.
///
/// Elements are stored unboxed (`T: Copy`), so a ring of 8-byte
/// descriptors is 8 bytes a cell, in one allocation made at
/// construction. Cells outside the live run hold `T::default()` and are
/// never read. Both ends wrap by a compare, not a division.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    cells: Vec<T>,
    begin: usize,
    len: usize,
}

impl<T: Copy + Default> Ring<T> {
    /// Preallocate a ring holding up to `capacity` items (paper Fig. 1:
    /// `ring_create(CAP)`).
    pub fn new(capacity: usize) -> Ring<T> {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Ring {
            cells: vec![T::default(); capacity],
            begin: 0,
            len: 0,
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Item count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `ring_empty`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `ring_full`.
    pub fn is_full(&self) -> bool {
        self.len == self.cells.len()
    }

    /// Cell `begin + i`, wrapped. `begin < capacity` and
    /// `i <= len <= capacity`, so one subtraction at most.
    fn wrap(&self, i: usize) -> usize {
        let at = self.begin + i;
        if at >= self.cells.len() {
            at - self.cells.len()
        } else {
            at
        }
    }

    /// `ring_push_back`. Returns [`Full`] when at capacity (the paper's
    /// NF guards with `!ring_full(r)`, making fullness unreachable; the
    /// Rust interface stays total).
    pub fn push_back(&mut self, item: T) -> Result<(), Full> {
        if self.is_full() {
            return Err(Full);
        }
        let tail = self.wrap(self.len);
        self.cells[tail] = item;
        self.len += 1;
        Ok(())
    }

    /// `ring_pop_front`. Returns `None` when empty.
    ///
    /// Contract (paper Fig. 3): removes and returns exactly the head
    /// element; the rest of the ring is unchanged; any predicate that
    /// held of the element when pushed still holds (values are never
    /// altered in storage).
    pub fn pop_front(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let item = self.cells[self.begin];
        self.begin = self.wrap(1);
        self.len -= 1;
        Some(item)
    }

    /// Peek at the head without removing it.
    pub fn front(&self) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self.cells[self.begin])
        }
    }

    /// Iterate front-to-back. For contracts/tests.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(move |i| &self.cells[self.wrap(i)])
    }
}

/// Implementation + `VecDeque` model in lockstep, with an optional
/// element **constraint** checked on every push and pop — the executable
/// analog of the `packet_constraints_fp` abstract predicate threading
/// through the paper's Fig. 2–3 contracts.
pub struct CheckedRing<T: Copy + Default + PartialEq + Debug> {
    imp: Ring<T>,
    model: VecDeque<T>,
    constraint: fn(&T) -> bool,
}

impl<T: Copy + Default + PartialEq + Debug> CheckedRing<T> {
    /// Ring with no element constraint.
    pub fn new(capacity: usize) -> Self {
        Self::with_constraint(capacity, |_| true)
    }

    /// Ring whose elements must all satisfy `constraint` (checked as a
    /// push precondition and re-asserted as a pop postcondition).
    pub fn with_constraint(capacity: usize, constraint: fn(&T) -> bool) -> Self {
        CheckedRing {
            imp: Ring::new(capacity),
            model: VecDeque::new(),
            constraint,
        }
    }

    /// Contract-checked push.
    pub fn push_back(&mut self, item: T) -> Result<(), Full> {
        assert!(
            (self.constraint)(&item),
            "ring.push_back precondition: element violates ring constraint"
        );
        let r = self.imp.push_back(item);
        match r {
            Ok(()) => {
                assert!(
                    self.model.len() < self.imp.capacity(),
                    "impl accepted push when full"
                );
                self.model.push_back(item);
            }
            Err(Full) => assert_eq!(self.model.len(), self.imp.capacity(), "Full below capacity"),
        }
        self.check_equiv();
        r
    }

    /// Contract-checked pop: result equals the model head **and**
    /// satisfies the ring constraint (the paper's target property).
    pub fn pop_front(&mut self) -> Option<T> {
        let got = self.imp.pop_front();
        let spec = self.model.pop_front();
        assert_eq!(got, spec, "ring.pop_front diverged from model");
        if let Some(v) = &got {
            assert!(
                (self.constraint)(v),
                "ring.pop_front postcondition: popped element violates constraint"
            );
        }
        self.check_equiv();
        got
    }

    /// Contract-checked emptiness query.
    pub fn is_empty(&self) -> bool {
        let got = self.imp.is_empty();
        assert_eq!(got, self.model.is_empty());
        got
    }

    /// Contract-checked fullness query.
    pub fn is_full(&self) -> bool {
        let got = self.imp.is_full();
        assert_eq!(got, self.model.len() == self.imp.capacity());
        got
    }

    /// Full refinement check: identical contents in order, and the
    /// constraint invariant holds of every stored element.
    pub fn check_equiv(&self) {
        let imp: Vec<&T> = self.imp.iter().collect();
        let spec: Vec<&T> = self.model.iter().collect();
        assert_eq!(imp, spec, "ring contents diverged");
        for v in &imp {
            assert!(
                (self.constraint)(v),
                "stored element violates ring invariant"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_order() {
        let mut r = CheckedRing::new(4);
        for i in 0..4 {
            r.push_back(i).unwrap();
        }
        assert!(r.is_full());
        for i in 0..4 {
            assert_eq!(r.pop_front(), Some(i));
        }
        assert!(r.is_empty());
        assert_eq!(r.pop_front(), None);
    }

    #[test]
    fn wraparound_many_times() {
        let mut r = CheckedRing::new(3);
        for round in 0..10u32 {
            r.push_back(round * 2).unwrap();
            r.push_back(round * 2 + 1).unwrap();
            assert_eq!(r.pop_front(), Some(round * 2));
            assert_eq!(r.pop_front(), Some(round * 2 + 1));
        }
    }

    #[test]
    fn push_full_rejected() {
        let mut r = CheckedRing::new(2);
        r.push_back(1).unwrap();
        r.push_back(2).unwrap();
        assert_eq!(r.push_back(3), Err(Full));
        assert_eq!(
            r.pop_front(),
            Some(1),
            "failed push must not disturb contents"
        );
    }

    /// The paper's §3 target property, in miniature: with the discard
    /// constraint installed, no popped "packet" ever has port 9.
    #[test]
    fn discard_constraint_preserved() {
        let not_port_9 = |p: &u16| *p != 9;
        let mut r = CheckedRing::with_constraint(8, not_port_9);
        for port in [1u16, 80, 443, 8080] {
            r.push_back(port).unwrap();
        }
        while let Some(p) = r.pop_front() {
            assert_ne!(p, 9);
        }
    }

    #[test]
    #[should_panic(expected = "violates ring constraint")]
    fn constraint_violating_push_is_caught() {
        let mut r = CheckedRing::with_constraint(4, |p: &u16| *p != 9);
        let _ = r.push_back(9);
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut r = Ring::new(2);
        assert_eq!(r.front(), None);
        r.push_back(7).unwrap();
        assert_eq!(r.front(), Some(&7));
        assert_eq!(r.len(), 1);
    }

    /// Runs of pushes and pops of every length up to one past the
    /// capacity, alternating: each run ends against the full or the
    /// empty edge, and the head laps the ring many times — at the
    /// capacities of a one-descriptor queue, odd ones, and the NIC
    /// model's default 512.
    #[test]
    fn ring_wraps_many_times() {
        for capacity in [1usize, 3, 5, 512] {
            let mut r = Ring::new(capacity);
            let mut model = VecDeque::new();
            let mut next = 0usize;
            for run in (1..=capacity + 1).cycle().take(4 * capacity + 40) {
                for _ in 0..run {
                    let accepted = r.push_back(next).is_ok();
                    assert_eq!(accepted, model.len() < capacity);
                    if accepted {
                        model.push_back(next);
                    }
                    next += 1;
                    assert_eq!(r.len(), model.len());
                    assert_eq!(r.is_full(), model.len() == capacity);
                }
                for _ in 0..run.div_ceil(2) + 1 {
                    assert_eq!(r.front(), model.front());
                    assert_eq!(r.pop_front(), model.pop_front());
                    assert_eq!(r.is_empty(), model.is_empty());
                }
                assert!(r.iter().eq(model.iter()));
            }
            while let Some(want) = model.pop_front() {
                assert_eq!(r.pop_front(), Some(want));
            }
            assert_eq!(r.pop_front(), None);
        }
    }

    proptest! {
        /// Arbitrary interleavings of pushes and pops match VecDeque,
        /// at every capacity from a single cell to nine (short rings
        /// wrap on almost every step).
        #[test]
        fn random_ops_refine_model(
            capacity in 1usize..10,
            ops in proptest::collection::vec(any::<Option<u8>>(), 0..200),
        ) {
            let mut r = CheckedRing::new(capacity);
            for op in ops {
                match op {
                    Some(v) => { let _ = r.push_back(v); }
                    None => { r.pop_front(); }
                }
            }
        }
    }
}
