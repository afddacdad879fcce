//! The paper's §3 worked example, verified with the full pipeline: the
//! discard-protocol NF (drop port 9, ring-buffer the rest) under
//! exhaustive symbolic execution with all three of Fig. 4's ring
//! models.
//!
//! This is the generality demonstration: the same symbolic environment
//! as the NAT ([`Sym`], here `Sym<'_, RingModels>`: one term domain with
//! its P2 obligations, one solver-pruned branch, one trace type), the
//! same lazy-proof structure (assume the model, validate it a
//! posteriori), applied to a different NF with a different stateful
//! library (the ring instead of the flow table). This module adds only
//! the ring's models and the discard's checks. Every path's arithmetic
//! obligations are discharged by the NAT's own [`check_p2`] (the loop
//! below does no arithmetic, so it has none to discharge), and the
//! [`ModelStyle`] that breaks the NAT's models breaks the ring's:
//!
//! * with the **faithful model (a)** — `ring_pop_front` returns a fresh
//!   symbol constrained by the ring invariant `port != 9` — the
//!   semantic property "no emitted packet has target port 9" is proven
//!   on every path, and the model constraint is validated against the
//!   ring contract (P5);
//! * with the **over-approximate model (b)** — no constraint on the
//!   popped packet — the *semantic* proof fails (paper: "Step 3b
//!   fails: since the model can return packets with target port 9,
//!   Vigor cannot verify ... that the output packet does not have
//!   target port 9");
//! * with the **under-approximate model (c)** — popped port pinned to
//!   0 — *model validation* fails (paper: "Step 3a fails ... the proof
//!   checker cannot confirm that this assertion is always true, because
//!   ring_pop_front's contract specifies a wider range").
//!
//! The loop body below is the paper's Fig. 1, written over the same
//! `Domain` abstraction as the NAT so the engine executes the real
//! code.

use crate::checks::{check_p2, contract_entails, CheckFailure};
use crate::sym::{ModelStyle, Models, Sym};
use vig_symbex::explorer::explore;
use vig_symbex::solver::{Lit, Solver};
use vig_symbex::term::{TermArena, TermId, Width};
use vignat::domain::Domain;

/// The discard NF's effect interface (paper Fig. 1's calls).
pub trait DiscardEnv: Domain {
    /// Non-blocking receive; `Some(port)` is the packet's target port.
    fn receive(&mut self) -> Option<Self::U16>;
    /// Fork point.
    fn branch(&mut self, cond: Self::B) -> bool;
    /// `ring_full(r)`.
    fn ring_full(&mut self) -> Self::B;
    /// `ring_empty(r)`.
    fn ring_empty(&mut self) -> Self::B;
    /// `can_send()`.
    fn can_send(&mut self) -> Self::B;
    /// `ring_push_back(r, &p)`.
    fn ring_push(&mut self, port: Self::U16);
    /// `ring_pop_front(r, &p)`.
    fn ring_pop(&mut self) -> Self::U16;
    /// `send(&p)`.
    fn send(&mut self, port: Self::U16);
}

/// One iteration of the paper's Fig. 1 event loop — the stateless code
/// under verification.
pub fn discard_loop_iteration<E: DiscardEnv + ?Sized>(env: &mut E) {
    // if (!ring_full(r))
    let full = env.ring_full();
    let not_full = env.not(&full);
    if env.branch(not_full) {
        // if (receive(&p) && p.port != 9) ring_push_back(r, &p);
        if let Some(port) = env.receive() {
            let nine = env.c_u16(9);
            let is_nine = env.eq_u16(&port, &nine);
            let ok = env.not(&is_nine);
            if env.branch(ok) {
                env.ring_push(port);
            }
            // else: discarded (the packet is simply not enqueued)
        }
    }
    // if (!ring_empty(r) && can_send()) { ring_pop_front(r, &p); send(&p); }
    let empty = env.ring_empty();
    let not_empty = env.not(&empty);
    let cs = env.can_send();
    let both = env.and(&not_empty, &cs);
    if env.branch(both) {
        let p = env.ring_pop();
        env.send(p);
    }
}

/// Trace events of the symbolic discard run.
#[derive(Debug, Clone)]
pub enum DiscardEvent {
    /// Packet received with this (symbolic) port.
    Receive(TermId),
    /// Port pushed onto the ring.
    Push(TermId),
    /// Port popped, with the model's assumed constraints.
    Pop {
        /// The popped port term.
        port: TermId,
        /// Model assumptions (P5 checks these against the contract).
        assumed: Vec<Lit>,
    },
    /// Packet emitted.
    Send(TermId),
}

/// The ring's models for one path: `ring_pop`'s [`ModelStyle`].
pub struct RingModels {
    style: ModelStyle,
}

impl Models for RingModels {
    type Event = DiscardEvent;
}

/// Fig. 2's ring constraint, `port != 9`, as a proposition: what a push
/// requires, what a send must prove and what a pop's contract ensures.
fn port_not_nine(arena: &mut TermArena, port: TermId) -> TermId {
    let nine = arena.cu(9, Width::W16);
    let eq9 = arena.eq(port, nine);
    arena.not(eq9)
}

/// A fresh symbolic flag, as a proposition: `flag == 1`. The solver
/// only ever needs the fork structure of the ring's state predicates,
/// matching how KLEE treats opaque model returns.
fn fresh_flag(arena: &mut TermArena, name: &str) -> TermId {
    let v = arena.var(name, Width::W8);
    let one = arena.cu(1, Width::W8);
    arena.eq(v, one)
}

impl DiscardEnv for Sym<'_, RingModels> {
    fn receive(&mut self) -> Option<TermId> {
        if self.fork_free(2) == 1 {
            return None;
        }
        let p = self.arena.var("rx_port", Width::W16);
        self.events.push(DiscardEvent::Receive(p));
        Some(p)
    }

    fn branch(&mut self, cond: TermId) -> bool {
        self.fork_on(cond)
    }

    fn ring_full(&mut self) -> TermId {
        fresh_flag(&mut self.arena, "ring_full")
    }

    fn ring_empty(&mut self) -> TermId {
        fresh_flag(&mut self.arena, "ring_empty")
    }

    fn can_send(&mut self) -> TermId {
        fresh_flag(&mut self.arena, "can_send")
    }

    fn ring_push(&mut self, port: TermId) {
        self.events.push(DiscardEvent::Push(port));
    }

    fn ring_pop(&mut self) -> TermId {
        // Fig. 4: FILL_SYMBOLIC, then the style's ASSUME. Model (c)'s
        // `p->port = 0` pins a fresh symbol by an assumed equality, so
        // every style has the same shape.
        let port = self.arena.var("popped_port", Width::W16);
        let assumed: Vec<Lit> = match self.models.style {
            ModelStyle::Faithful => vec![(port_not_nine(&mut self.arena, port), true)],
            ModelStyle::OverApproximate => Vec::new(),
            ModelStyle::UnderApproximate => {
                let zero = self.arena.cu(0, Width::W16);
                vec![(self.arena.eq(port, zero), true)]
            }
        };
        self.assume(&assumed);
        self.events.push(DiscardEvent::Pop { port, assumed });
        port
    }

    fn send(&mut self, port: TermId) {
        self.events.push(DiscardEvent::Send(port));
    }
}

/// Result of verifying the discard NF.
#[derive(Debug)]
pub struct DiscardReport {
    /// Feasible paths.
    pub paths: usize,
    /// Semantic conditions (sends proven != 9) + ring-contract
    /// preconditions (pushes proven != 9).
    pub conditions: usize,
    /// Model constraints validated (P5).
    pub model_validations: usize,
    /// Failures, if any.
    pub failures: Vec<CheckFailure>,
}

impl DiscardReport {
    /// Did everything verify?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run the full pipeline on the discard NF under the given ring model.
pub fn verify_discard(style: ModelStyle) -> DiscardReport {
    verify_body(style, |env| discard_loop_iteration(env))
}

/// Explore `body` exhaustively under the ring's models in `style`, and
/// check every path: P2 on its arithmetic, the ring's push
/// precondition, the port-9 property on each send, and P5 on each pop.
fn verify_body(style: ModelStyle, body: impl Fn(&mut Sym<'_, RingModels>)) -> DiscardReport {
    let (traces, stats) = explore(1_000, |steer| {
        let mut env = Sym::new(steer, RingModels { style });
        body(&mut env);
        env.into_trace()
    })
    .expect("discard NF explores in bounded paths");
    let mut conditions = 0usize;
    let mut model_validations = 0usize;
    let mut failures = Vec::new();

    for mut t in traces {
        if let Err(f) = check_p2(&t) {
            failures.push(f);
        }
        for ev in t.events.clone() {
            let (proven, property, detail) = match ev {
                // Ring contract precondition (P4 analog): only
                // constraint-satisfying packets may be pushed.
                DiscardEvent::Push(p) => {
                    let ne9 = port_not_nine(&mut t.arena, p);
                    (
                        Solver::entails(&t.arena, &t.path, ne9),
                        "P4",
                        "cannot prove pushed packet satisfies the ring constraint",
                    )
                }
                // The target semantic property (P1 analog): no emitted
                // packet has target port 9.
                DiscardEvent::Send(p) => {
                    let ne9 = port_not_nine(&mut t.arena, p);
                    (
                        Solver::entails(&t.arena, &t.path, ne9),
                        "P1",
                        "cannot prove the emitted packet's port is not 9 \
                         (paper §3: Step 3b fails with model (b))",
                    )
                }
                // Lazy model validation (P5): the pop model's
                // assumptions must be entailed by the ring contract's
                // postcondition (popped element satisfies the ring
                // constraint — Fig. 3 l.6).
                DiscardEvent::Pop { port, assumed } => {
                    let contract = [(port_not_nine(&mut t.arena, port), true)];
                    let proven = contract_entails(&mut t.arena, &contract, &assumed);
                    if proven {
                        model_validations += assumed.len();
                    }
                    (
                        proven,
                        "P5",
                        "pop model assumed what the ring contract does not guarantee \
                         (paper §3: Step 3a fails with model (c))",
                    )
                }
                DiscardEvent::Receive(_) => continue,
            };
            if !proven {
                failures.push(CheckFailure {
                    property,
                    detail: detail.into(),
                });
            } else if property != "P5" {
                conditions += 1;
            }
        }
    }

    DiscardReport {
        paths: stats.paths,
        conditions,
        model_validations,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn properties(r: &DiscardReport) -> Vec<&'static str> {
        r.failures.iter().map(|f| f.property).collect()
    }

    /// The paper's §3 headline: with the faithful model, the discard NF
    /// verifies — low-level (vacuously here), ring discipline, and the
    /// semantic property. Receive × filter × send forks give 8 paths:
    /// 2 pushes and 4 sends proven, 4 pops validated.
    #[test]
    fn discard_nf_verifies_with_faithful_model() {
        let r = verify_discard(ModelStyle::Faithful);
        assert!(r.ok(), "{:#?}", r.failures);
        assert_eq!(
            (r.paths, r.conditions, r.model_validations),
            (8, 6, 4),
            "{r:#?}"
        );
    }

    /// Fig. 4 model (b): over-approximate pop — the semantic proof
    /// fails on each of the 4 sending paths (never the model
    /// validation); the 2 guarded pushes still prove.
    #[test]
    fn over_approximate_ring_model_fails_semantics() {
        let r = verify_discard(ModelStyle::OverApproximate);
        assert_eq!(
            (r.paths, r.conditions, r.model_validations),
            (8, 2, 0),
            "{r:#?}"
        );
        assert_eq!(properties(&r), ["P1"; 4]);
    }

    /// Fig. 4 model (c): under-approximate pop — model validation
    /// fails on each of the 4 popping paths, while the pinned port
    /// still proves every push and send.
    #[test]
    fn under_approximate_ring_model_fails_validation() {
        let r = verify_discard(ModelStyle::UnderApproximate);
        assert_eq!(
            (r.paths, r.conditions, r.model_validations),
            (8, 6, 0),
            "{r:#?}"
        );
        assert_eq!(properties(&r), ["P5"; 4]);
    }

    /// The push discipline is itself proven: the loop's `port != 9`
    /// guard is what discharges the ring-contract precondition. The
    /// same push without the guard fails P4 on the one pushing path.
    #[test]
    fn every_push_is_guarded() {
        let r = verify_body(ModelStyle::Faithful, |env| {
            if let Some(port) = env.receive() {
                env.ring_push(port);
            }
        });
        assert_eq!((r.paths, r.conditions), (2, 0), "{r:#?}");
        assert_eq!(properties(&r), ["P4"]);
    }

    /// The discard NF's arithmetic is checked: it runs on the NAT's
    /// symbolic domain, so `port + 1` on a received port records the
    /// u16 overflow obligation, which P2 cannot discharge.
    #[test]
    fn discard_arithmetic_is_p2_checked() {
        let r = verify_body(ModelStyle::Faithful, |env| {
            if let Some(port) = env.receive() {
                let one = env.c_u16(1);
                let next = env.add_u16(&port, &one);
                env.send(next);
            }
        });
        assert_eq!(r.paths, 2, "packet or none");
        let p2: Vec<&CheckFailure> = r.failures.iter().filter(|f| f.property == "P2").collect();
        assert_eq!(p2.len(), 1, "{:#?}", r.failures);
        assert!(
            p2[0].detail.contains("u16 addition must not wrap"),
            "{}",
            p2[0]
        );
    }

    /// A wrap between two constants fails P2 like any other: the arena
    /// folds a constant sum or shift only when it fits the width, so the
    /// obligations of `0xffff + 1` and `0x80 << 1` stay refutable
    /// instead of folding to `true`.
    #[test]
    fn constant_wraps_fail_p2() {
        type Op = fn(&mut Sym<'_, RingModels>);
        let add: Op = |env| {
            let max = env.c_u16(0xffff);
            let one = env.c_u16(1);
            env.add_u16(&max, &one);
        };
        let shl: Op = |env| {
            let high = env.c_u8(0x80);
            env.shl_u8(&high, 1);
        };
        for (op, what) in [
            (add, "u16 addition must not wrap"),
            (shl, "u8 shift must not lose bits"),
        ] {
            let r = verify_body(ModelStyle::Faithful, op);
            assert_eq!(r.paths, 1);
            assert_eq!(properties(&r), ["P2"], "{what}");
            assert!(r.failures[0].detail.contains(what), "{}", r.failures[0]);
        }
    }
}
