//! # vig-validator — the Vigor Validator (lazy proofs, paper §5.2)
//!
//! This crate closes the loop of the paper's Fig. 7:
//!
//! ```text
//! P1  VigNAT satisfies RFC 3022 semantics      (Validator + solver)   <- P2, P3, P4
//! P2  VigNAT satisfies low-level properties    (ESE + solver)         <- P3, P4, P5
//! P3  libVig refines its contracts             (libvig crate's checked/exhaustive layer)
//! P4  stateless code uses libVig correctly     (Validator + solver)
//! P5  libVig models faithful to the contracts  (Validator + solver)
//! ```
//!
//! Both NFs run on one symbolic environment, [`sym::Sym`]: one term
//! domain whose arithmetic emits the P2 obligations, one solver-pruned
//! branch, one trace type ([`trace::SymTrace`]). An NF adds only its
//! libVig models — the NAT's in [`sym_env`], the §3 discard NF's ring
//! in [`discard`] — so a model written for either is checked by the
//! same P2.
//!
//! The pipeline ([`run_verification`]):
//!
//! 1. **ESE** ([`ese`]): the *actual* burst entry every driver ships,
//!    `vignat::nat_process_batch_into`, at a burst of one packet, is
//!    executed exhaustively under [`sym_env::SymEnv`]
//!    (`Sym<'_, NatModels>`), whose libVig **models** fork execution
//!    (lookup hit/miss, allocation success/failure) and return
//!    constrained fresh symbols, exactly like the paper's symbolic
//!    models (§5.1.4). Every feasible path yields a
//!    [`trace::SymTrace`]. A configuration outside the models' scope
//!    ([`sym_env::check_scope`]: per-class lifetimes, EIM, hairpinning,
//!    a multi-address pool) is refused with an `Err` naming the
//!    feature, reported as one failure labelled `"ESE"`.
//! 2. **P2** ([`checks::check_p2`]): each arithmetic obligation the
//!    domain emitted (no overflow/underflow, shifts in range) is
//!    discharged against that path's constraints.
//! 3. **P4** ([`checks::check_p4`]): buffer ownership (every received
//!    packet is sent or dropped exactly once — the leak check that
//!    caught a real bug in VigNAT, §5.2.4), allocate→insert pairing,
//!    the slot/port arithmetic discipline, rejuvenate-only-after-hit,
//!    and the guarded-expiry discipline.
//! 4. **P5** ([`checks::check_p5`]): for every model call on the path,
//!    the constraints the model emitted are *entailed by the libVig
//!    contract postconditions* — the lazy model validation of §5.2.3
//!    (validity only for the calls actually observed, not universally).
//! 5. **P1** ([`checks::check_p1`]): the spec's RFC 3022 step
//!    (`vig_spec::rfc3022::decide`) runs over the trace: the path must
//!    decide its every branch, the trace's calls answer its queries in
//!    order, and the emitted header must equal the required rewrite.
//!
//! Deliberately-broken models (paper §3's Fig. 4 models (b) and (c))
//! are one [`ModelStyle`] for both NFs. On the NAT the
//! over-approximate model breaks the P2 overflow proof and the
//! under-approximate one fails P5; on the discard NF they fail P1 and
//! P5 — and the tests pin all four failures.
//!
//! Trace validation is embarrassingly parallel; [`run_verification`]
//! validates traces across threads like the paper's 4-core run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod discard;
pub mod ese;
pub mod report;
pub mod sym;
pub mod sym_env;
pub mod trace;

pub use ese::{run_ese, EseResult};
pub use report::{run_verification, VerificationReport};
pub use sym::ModelStyle;
pub use trace::{Event, SymTrace};
