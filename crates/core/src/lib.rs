//! # vignat — the verified NAT (the paper's primary artifact)
//!
//! VigNAT splits into exactly the two halves the paper's methodology
//! requires (§5):
//!
//! * **Stateful half** — [`flow_manager::FlowManager`]: all NAT state,
//!   held in libVig structures (a [`libvig::DoubleMap`] flow table plus a
//!   [`libvig::DoubleChain`] slot allocator). Verified against contracts
//!   in the `libvig` crate (P3). Behind the [`flow_manager::FlowTable`]
//!   seam the state can also be RSS-partitioned across N independent
//!   shards ([`sharded::ShardedFlowManager`]) without the stateless
//!   half noticing — see the `sharded` module docs.
//! * **Stateless half** — [`loop_body::nat_loop_iteration`]: one
//!   iteration of the packet-processing loop, containing *every* branch
//!   and every piece of arithmetic the NAT performs, but **zero**
//!   persistent state. It is written once, generically:
//!
//!   - over a value [`domain::Domain`] — concrete machine integers on
//!     the datapath ([`domain::Concrete`]), symbolic terms under the
//!     verification engine;
//!   - over an effect interface [`env::NatEnv`] — real libVig under a
//!     packet side in production ([`env::concrete::ConcreteEnv`]; the
//!     `netsim` crate supplies the frames), *symbolic models* of both
//!     under verification (the `vig-validator` crate).
//!
//! This is the Rust equivalent of the paper's arrangement where the same
//! C file is compiled against DPDK + libVig for deployment and against
//! the symbolic models for exhaustive symbolic execution. Because the
//! loop body is a single generic function, there is no possibility of
//! the verified code and the deployed code drifting apart — they are
//! the same monomorphization source, and with [`domain::Concrete`]
//! every domain operation inlines to a plain machine instruction.
//!
//! The slot⇄port bijection VigNAT is known for is preserved: flow slot
//! `i` always uses the pool endpoint of index `i` — external port
//! `start_port + i` with the paper's single-address pool — so endpoint
//! uniqueness follows from slot uniqueness, which the dchain contract
//! provides. Beyond 64k flows the pool spills onto consecutive
//! external addresses. Expiry is the paper's: the dchain's LRU list is
//! its deadline order, one list per timeout class when TCP lifetimes
//! differ ([`flow_manager`] module docs).
//!
//! ## Quick start
//!
//! ```
//! use vignat::{FlowManager, NatConfig};
//! use libvig::time::Time;
//! use vig_packet::{FlowId, Ip4, Proto};
//!
//! let cfg = NatConfig {
//!     capacity: 1024,
//!     expiry_ns: Time::from_secs(60).nanos(),
//!     external_ip: Ip4::new(203, 0, 113, 1),
//!     start_port: 1024,
//!     ..NatConfig::paper_default()
//! };
//! let mut fm = FlowManager::new(&cfg);
//! let fid = FlowId {
//!     src_ip: Ip4::new(192, 168, 0, 2), src_port: 49152,
//!     dst_ip: Ip4::new(93, 184, 216, 34), dst_port: 80, proto: Proto::Tcp,
//! };
//! let (slot, ext_port) = fm.allocate(fid, Time::from_secs(1)).unwrap();
//! assert_eq!(ext_port, 1024 + slot as u16);
//! assert_eq!(fm.lookup_internal(&fid).unwrap().0, slot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod flow_manager;
pub mod loop_body;
pub mod sharded;
pub mod simple_env;

pub use domain::{Concrete, Domain};
pub use env::{NatEnv, PktHandle, SlotId};
pub use flow_manager::{FlowManager, FlowTable};
pub use loop_body::{
    nat_loop_iteration, nat_process_batch, nat_process_batch_into, IterationOutcome, MAX_BURST,
};
pub use sharded::ShardedFlowManager;
pub use simple_env::SimpleEnv;
pub use vig_spec::concrete_domain_items;
pub use vig_spec::domain;

/// The NAT configuration — re-exported from the spec crate so that the
/// implementation and its specification can never disagree about what
/// the parameters mean.
pub use vig_spec::NatConfig;
