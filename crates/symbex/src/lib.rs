//! # vig-symbex — the exhaustive symbolic execution engine (KLEE analog)
//!
//! The paper verifies VigNAT's stateless code by *exhaustive symbolic
//! execution* (ESE, §5.2.1): a modified KLEE explores every feasible
//! path of the loop body with libVig replaced by symbolic models,
//! proving low-level properties along each path and emitting symbolic
//! traces for the Validator. This crate is the engine underneath our
//! equivalent:
//!
//! * [`term`] — symbolic values: a hash-consed term arena over 8/16/32/
//!   64-bit bit-vectors and propositions. The NAT's `Domain` operations
//!   build these terms instead of computing machine integers.
//! * [`solver`] — a bounded decision procedure for the constraint shapes
//!   NF code produces: interval reasoning through the bit-twiddling
//!   operators, difference-bound constraints between terms, disequality
//!   tracking, and DPLL-style case splitting over the boolean structure.
//!   **Sound for UNSAT**: when it answers [`solver::SatResult::Unsat`]
//!   the formula truly has no model, so every proof obligation it
//!   discharges really holds. When it cannot decide, it answers `Sat`
//!   (possibly-satisfiable), which can only make verification *fail*,
//!   never pass wrongly — the same one-sided guarantee the paper claims
//!   for Vigor ("Vigor will not produce an incorrect proof, but it may
//!   fail to prove a property that actually holds", §7).
//! * [`explorer`] — exhaustive path enumeration by decision-steered
//!   re-execution: the engine runs the *actual* stateless code over and
//!   over, each time steering the environment's fork points down a new
//!   decision prefix until every feasible prefix has been explored.
//!   This replaces KLEE's fork-the-interpreter with fork-the-schedule,
//!   which is exactly as exhaustive for code whose only nondeterminism
//!   comes through the environment interface — which the `NatEnv`
//!   boundary guarantees by construction.
//!
//! The engine is NF-agnostic. `vig-validator` builds the one symbolic
//! environment on it (`vig_validator::sym::Sym`: the term domain with
//! its P2 obligations, the solver-pruned branch, the trace), and each
//! NF brings only its libVig models and trace vocabulary — the NAT's
//! and the §3 discard NF's run on that same environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
pub mod solver;
pub mod term;

pub use explorer::{explore, Decision, Steering};
pub use solver::{SatResult, Solver};
pub use term::{Prop, TermArena, TermId, Width};
