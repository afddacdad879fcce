//! # vig-spec — the formal NAT specification (paper §4.1)
//!
//! The paper's authors wrote a 300-line separation-logic specification
//! formalizing their reading of RFC 3022 *Traditional NAT*, structured as
//! a decision tree of pre-conditions (on abstract NAT state and the
//! incoming packet) and post-conditions (on the outgoing packet and the
//! updated state) — summarized in the paper's Fig. 6.
//!
//! This crate is the executable Rust analog, playing the same role the
//! separation-logic spec played for Vigor:
//!
//! * [`state::AbstractNat`] — the abstract state: a bounded set of flows
//!   with timestamps (the paper's `flow_table`), plus the three static
//!   configuration parameters `CAP`, `Texp`, `EXT_IP`.
//! * [`rfc3022`] — the decision step itself, [`rfc3022::decide`],
//!   written once over a value [`Domain`] and the queries it makes of a
//!   [`rfc3022::SpecState`]. Concretely it is a *relation*
//!   ([`rfc3022::step_allows`]): given a pre-state, an input packet,
//!   the arrival time and an observed output, it either derives the
//!   unique post-state or reports a [`rfc3022::SpecViolation`] — a
//!   relation because the RFC leaves the external port to the NF; the
//!   spec only *constrains* it (free, non-zero).
//! * [`rfc3022::SpecChecker`] — the trace form: feed it every packet the
//!   NF sees along with what the NF did, and it maintains the abstract
//!   state and flags the first divergence. The differential suites run
//!   it against millions of concrete packets; the Validator runs the
//!   same `decide` symbolically per execution path (P1).
//! * [`discard`] — the tiny spec of the paper's §3 discard-protocol
//!   example NF, used to demonstrate toolchain generality.
//!
//! The paper reports their spec took 3 person-days and 300 lines; ours
//! is of comparable size and, like theirs, is *trusted*: it is the thing
//! VigNAT is verified against, so it is kept small, obvious, and heavily
//! cross-tested against hand-worked RFC examples (this crate's tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discard;
pub mod domain;
pub mod rfc3022;
pub mod state;
pub mod tcp;

pub use domain::{Concrete, Domain};
pub use rfc3022::{step_allows, Output, PacketInput, SpecChecker, SpecViolation};
pub use state::{AbstractFlow, AbstractNat, NatConfig};
pub use tcp::{TcpState, TimeoutClass};
