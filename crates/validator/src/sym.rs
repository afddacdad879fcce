//! The one symbolic environment both NFs run on (paper §5.1.4).
//!
//! [`Sym`] is everything an NF's symbolic environment shares with any
//! other: the term arena, the explorer's steering, the path
//! constraints, the P2 obligations the arithmetic emits, and the trace
//! it packs at the end. What differs per NF is its libVig models — the
//! `M` parameter, which holds their per-path state and names the event
//! vocabulary its traces record ([`Models::Event`]). The NAT runs on
//! `Sym<'_, NatModels>` ([`crate::sym_env`]), the §3 discard NF on
//! `Sym<'_, RingModels>` ([`crate::discard`]); each module adds only
//! its own environment calls.
//!
//! Every value the stateless code sees is a term; every branch asks the
//! solver which directions are feasible and forks through the steering
//! (`fork_on`); every model outcome forks unpruned (`fork_free`) and
//! pins its fresh symbols with the constraints it assumes (`assume`),
//! which P5 later validates per call.

use crate::trace::{Obligation, SymTrace};
use vig_symbex::explorer::Steering;
use vig_symbex::solver::{Lit, SatResult, Solver};
use vig_symbex::term::{TermArena, TermId, Width};
use vignat::domain::Domain;

/// Which libVig model variant to execute under: the paper's §3
/// invalid-model experiments, for both NFs.
///
/// Each variant is one of Fig. 4's `ring_pop_front` models. The discard
/// NF applies it to `ring_pop` as drawn; the NAT applies the same shape
/// to `allocate_slot`, its model that constrains a returned index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelStyle {
    /// Model (a), the production models: fresh symbols constrained
    /// exactly as the libVig contract promises (the popped port is not
    /// 9; the allocated index is below the capacity).
    #[default]
    Faithful,
    /// Model (b), over-approximate: the fresh symbol is left
    /// unconstrained ("returns a packet whose content could be
    /// anything"). A proof that needs the constraint fails — the
    /// discard's P1, the NAT's P2 port-arithmetic overflow.
    OverApproximate,
    /// Model (c), under-approximate: the output is pinned to 0 ("always
    /// returns a packet with target port 0"), narrower than the
    /// contract allows, so P5 fails.
    UnderApproximate,
}

/// An NF's libVig models, as a symbolic environment carries them: their
/// per-path state is the implementing type, and [`Models::Event`] is
/// what the NF's traces record of its environment calls.
pub trait Models {
    /// One event on the NF's traced interface.
    type Event;
}

/// The symbolic environment for one path of an NF whose libVig models
/// are `M`. See module docs.
pub struct Sym<'s, M: Models> {
    /// Term arena (moves into the trace at the end).
    pub arena: TermArena,
    steer: &'s mut Steering,
    path: Vec<Lit>,
    obligations: Vec<Obligation>,
    pub(crate) events: Vec<M::Event>,
    pub(crate) models: M,
}

impl<'s, M: Models> Sym<'s, M> {
    /// Fresh environment for one path run.
    pub fn new(steer: &'s mut Steering, models: M) -> Sym<'s, M> {
        Sym {
            arena: TermArena::new(),
            steer,
            path: Vec::new(),
            obligations: Vec::new(),
            events: Vec::new(),
            models,
        }
    }

    /// Package the run into a trace.
    pub fn into_trace(self) -> SymTrace<M::Event> {
        SymTrace {
            decisions: self.steer.taken().to_vec(),
            arena: self.arena,
            path: self.path,
            events: self.events,
            obligations: self.obligations,
        }
    }

    /// Fork over `arity` alternatives, none pruned: a model outcome
    /// (hit or miss, packet or none) is always possible.
    pub(crate) fn fork_free(&mut self, arity: u8) -> u8 {
        self.steer.decide(arity, |_| true)
    }

    /// Fork on `cond`, following only the directions the solver finds
    /// consistent with the path; the taken direction joins the path. A
    /// syntactically constant condition does not fork.
    pub(crate) fn fork_on(&mut self, cond: TermId) -> bool {
        if let Some(b) = self.arena.as_const_bool(cond) {
            return b;
        }
        let [f_true, f_false] = [true, false].map(|taken| {
            let mut lits = self.path.clone();
            lits.push((cond, taken));
            Solver::check(&self.arena, &lits) == SatResult::Sat
        });
        let taken = self.steer.decide_bool(f_true, f_false);
        self.path.push((cond, taken));
        taken
    }

    /// Add a model's assumed constraints to the path.
    pub(crate) fn assume(&mut self, lits: &[Lit]) {
        self.path.extend_from_slice(lits);
    }

    fn oblige(&mut self, prop: TermId, what: &'static str) {
        self.obligations.push(Obligation { prop, what });
    }
}

/// The term domain's associated types and methods, for expansion inside
/// an `impl Domain for …` block whose type has an `arena: TermArena`
/// field and an `oblige(prop, what)` method: [`Sym`]'s and [`Terms`]',
/// so the spec's decision step and the loop body build the same
/// hash-consed terms.
macro_rules! term_domain_items {
    () => {
        type B = TermId;
        type U8 = TermId;
        type U16 = TermId;
        type U32 = TermId;
        type U64 = TermId;
        type Values = Terms;

        fn c_bool(&mut self, v: bool) -> TermId {
            self.arena.cb(v)
        }
        fn c_u8(&mut self, v: u8) -> TermId {
            self.arena.cu(u64::from(v), Width::W8)
        }
        fn c_u16(&mut self, v: u16) -> TermId {
            self.arena.cu(u64::from(v), Width::W16)
        }
        fn c_u32(&mut self, v: u32) -> TermId {
            self.arena.cu(u64::from(v), Width::W32)
        }
        fn c_u64(&mut self, v: u64) -> TermId {
            self.arena.cu(v, Width::W64)
        }

        fn eq_u8(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.eq(*a, *b)
        }
        fn eq_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.eq(*a, *b)
        }
        fn eq_u32(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.eq(*a, *b)
        }
        fn eq_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.eq(*a, *b)
        }

        fn lt_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.lt(*a, *b)
        }
        fn le_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.le(*a, *b)
        }
        fn lt_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.lt(*a, *b)
        }
        fn le_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.le(*a, *b)
        }

        fn and(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.and(*a, *b)
        }
        fn or(&mut self, a: &TermId, b: &TermId) -> TermId {
            self.arena.or(*a, *b)
        }
        fn not(&mut self, a: &TermId) -> TermId {
            self.arena.not(*a)
        }

        fn add_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
            let t = self.arena.add(*a, *b);
            let max = self.arena.cu(0xffff, Width::W16);
            let ob = self.arena.le(t, max);
            self.oblige(ob, "u16 addition must not wrap");
            t
        }
        fn add_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
            let t = self.arena.add(*a, *b);
            let max = self.arena.cu(u64::MAX, Width::W64);
            let ob = self.arena.le(t, max);
            self.oblige(ob, "u64 addition must not wrap");
            t
        }
        fn sub_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
            let ob = self.arena.le(*b, *a);
            self.oblige(ob, "u64 subtraction must not underflow");
            self.arena.sub(*a, *b)
        }
        fn sub_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
            let ob = self.arena.le(*b, *a);
            self.oblige(ob, "u16 subtraction must not underflow");
            self.arena.sub(*a, *b)
        }

        fn and_u8(&mut self, a: &TermId, mask: u8) -> TermId {
            self.arena.and_mask(*a, u64::from(mask))
        }
        fn and_u16(&mut self, a: &TermId, mask: u16) -> TermId {
            self.arena.and_mask(*a, u64::from(mask))
        }
        fn shr_u8(&mut self, a: &TermId, shift: u32) -> TermId {
            self.arena.shr(*a, shift)
        }
        fn shl_u8(&mut self, a: &TermId, shift: u32) -> TermId {
            let t = self.arena.shl(*a, shift);
            let max = self.arena.cu(0xff, Width::W8);
            let ob = self.arena.le(t, max);
            self.oblige(ob, "u8 shift must not lose bits");
            t
        }
        fn u8_to_u16(&mut self, a: &TermId) -> TermId {
            self.arena.zext(*a, Width::W16)
        }
    };
}
impl<M: Models> Domain for Sym<'_, M> {
    term_domain_items!();
}

/// The term domain alone, without obligations: the [`Domain::Values`]
/// of every symbolic environment, so what a received frame, a key and a
/// rewritten header are written in, and what the spec's step computes
/// in (P1).
#[derive(Debug, Clone, Default)]
pub struct Terms {
    /// The trace's term arena.
    pub arena: TermArena,
}

impl Terms {
    /// The spec's own arithmetic sits behind its own branches, which the
    /// path entails; P2 is about the NAT's.
    fn oblige(&mut self, _prop: TermId, _what: &'static str) {}
}

impl Domain for Terms {
    term_domain_items!();
}
