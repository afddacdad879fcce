//! # vignat-repro — Rust reproduction of *A Formally Verified NAT* (SIGCOMM 2017)
//!
//! This umbrella crate re-exports the whole workspace so examples,
//! integration tests and downstream users can depend on one name:
//!
//! * [`packet`] — wire formats: Ethernet/IPv4/TCP/UDP views, RFC 1624
//!   incremental checksums, flow identifiers;
//! * [`libvig`] — the verified data-structure library (flow table,
//!   double chain, ring, …) with executable contracts and abstract
//!   models (paper property P3);
//! * [`spec`] — the executable RFC 3022 specification (paper §4.1);
//! * [`nat`] — VigNAT itself: the flow manager (unsharded and
//!   RSS-sharded behind the `FlowTable` seam) and the stateless loop
//!   body, written once, generic over domain and environment;
//! * [`symbex`] — the exhaustive symbolic execution engine (KLEE
//!   analog);
//! * [`validator`] — the Vigor Validator: lazy proofs discharging
//!   P1/P2/P4/P5 over symbolic traces;
//! * [`sim`] — the DPDK/testbed analog: packet-I/O backends, the
//!   event-driven driver and the pinned per-shard runtime (the paper's
//!   §6 measurements over it live in `crates/bench`, the stack
//!   benchmark in `benchmark/`);
//! * [`baselines`] — the paper's comparison NFs (no-op, unverified
//!   NAT, NetFilter analog).
//!
//! ## Thirty-second tour
//!
//! Verify the NAT (the paper's headline result):
//!
//! ```
//! use vignat_repro::validator::{run_verification, ModelStyle};
//! use vignat_repro::nat::NatConfig;
//!
//! let report = run_verification(&NatConfig::paper_default(), ModelStyle::Faithful, 2);
//! assert!(report.ok(), "{:#?}", report.failures);
//! ```
//!
//! Push a packet through it:
//!
//! ```
//! use vignat_repro::nat::NatConfig;
//! use vignat_repro::sim::middlebox::{Middlebox, Verdict, VigNatMb};
//! use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, Ip4};
//! use vignat_repro::libvig::time::Time;
//!
//! let mut nat = VigNatMb::new(NatConfig::paper_default());
//! let mut frame = PacketBuilder::tcp(
//!     Ip4::new(192, 168, 0, 5), Ip4::new(93, 184, 216, 34), 44_000, 443,
//! ).build();
//! let verdict = nat.process(Direction::Internal, &mut frame, Time::from_secs(1));
//! assert_eq!(verdict, Verdict::Forward(Direction::External));
//! let (_, translated) = parse_l3l4(&frame).unwrap();
//! assert_eq!(translated.src_ip, NatConfig::paper_default().external_ip);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Wire formats (re-export of `vig-packet`).
pub use vig_packet as packet;

/// The verified data-structure library (re-export of `libvig`).
pub use libvig;

/// The executable RFC 3022 specification (re-export of `vig-spec`).
pub use vig_spec as spec;

/// VigNAT: flow manager + stateless loop (re-export of `vignat`).
pub use vignat as nat;

/// The symbolic execution engine (re-export of `vig-symbex`).
pub use vig_symbex as symbex;

/// The Vigor Validator (re-export of `vig-validator`).
pub use vig_validator as validator;

/// The DPDK/testbed analog (re-export of `netsim`).
pub use netsim as sim;

/// The comparison NFs (re-export of `vig-baselines`).
pub use vig_baselines as baselines;
