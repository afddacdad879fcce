//! # libVig — verified NF data structures (Rust reproduction)
//!
//! The paper's libVig keeps **all** NF state behind a small library of
//! data structures so the stateless NF code can be verified by exhaustive
//! symbolic execution while the stateful library is proven once against
//! separation-logic contracts (property P3 in the paper's Fig. 7).
//!
//! This crate reproduces that library and its verification artifacts:
//!
//! | module | structure | paper counterpart |
//! |--------|-----------|-------------------|
//! | [`map`] | open-addressing hash map with probe-chain counters; single-allocation slot layout, `get/put_with_hash` memoized-hash ops, `get_staged` burst probe across one map or several (`get_batch_with_hash`: one) | `map.c` / `map.h` |
//! | [`dmap`] | double-keyed map over preallocated value slots: one hash directory for the A-key (`get_by_a_with_hash`, `put_with_hash`, `directory` for staged probes), the B-key compared at the slot it names (`get_by_b_at`) | the flow table (`double-map.c`) |
//! | [`dchain`] | index allocator with LRU timestamp order on one list, or one list per timeout class; one 16-byte cell per index, `first_touch*` load hints | `double-chain.c` (expirator substrate) |
//! | [`ring`] | bounded FIFO ring (the paper's §3 example) | `ring.c` |
//! | [`spsc`] | lock-free bounded SPSC word ring; off the datapath — natbench's `libvig.spsc_words_per_us` rung and a two-thread proof exercise (module header) | DPDK `rte_ring` (SP/SC mode) |
//! | [`rss`] | RSS-style hash→shard routing | NIC receive-side scaling |
//! | [`expirator`] | dchain+dmap glue that expires old flows: a merge over the chain's list heads, one lifetime per list | `expirator.c` |
//! | [`wheel`] | hierarchical timer wheel; **not used by the NAT** — kept only while natbench's ladder times it (module header) | Varghese–Lauck wheel |
//! | [`time`] | time abstraction (virtual + system clocks) | `nf_time` |
//! | [`flow`] | NAT flow key hashing | `flow.h` |
//!
//! ## The verification story (P3)
//!
//! Each structure comes with:
//!
//! 1. a **pure abstract model** (`Abstract*` types) — the executable analog
//!    of the paper's separation-logic *fixpoint* definitions: association
//!    lists and ordered sequences with obvious semantics;
//! 2. an executable **contract** for every operation — a precondition over
//!    the abstract state and a postcondition relating (pre-state, inputs)
//!    to (post-state, output), mirroring the `requires`/`ensures` clauses
//!    in the paper's Fig. 8;
//! 3. a **`Checked*` wrapper** that runs the real implementation and the
//!    abstract model in lockstep, asserting the contract on every call —
//!    refinement shadowing. The batched and memoized-hash operations are
//!    covered too: `Checked*` asserts the caller-supplied hash equals
//!    the key's hash and that a batch result equals element-wise model
//!    lookups, so the fast path cannot drift from the verified
//!    semantics;
//! 4. property-based tests (long random op sequences) and
//!    **bounded-exhaustive** tests (every op sequence up to a depth on
//!    small capacities) in [`exhaustive`] — the executable analog of the
//!    VeriFast proof that the implementation refines the contracts.
//!
//! ## Design rules carried over from the paper
//!
//! * **All memory is preallocated** at construction (§5.1.1): no
//!   allocation ever happens on the packet path, which both bounds the
//!   memory footprint and keeps layout under control.
//! * Structures are **opaque** to callers: state is only reachable through
//!   the interface, so the contract describes everything a caller can
//!   observe (the "sanitary" pointer policy of §5.1.2 becomes Rust
//!   ownership, enforced by the compiler instead of the Validator).
//! * `#![forbid(unsafe_code)]`: the paper's P2 memory-safety obligations
//!   are discharged by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dchain;
pub mod dmap;
pub mod exhaustive;
pub mod expirator;
pub mod flow;
pub mod map;
pub mod ring;
pub mod rss;
pub mod spsc;
pub mod time;
pub mod wheel;

pub use dchain::DoubleChain;
pub use dmap::{DmapValue, DoubleMap};
pub use map::{Map, MapKey};
pub use ring::Ring;
pub use time::{Clock, SystemClock, Time, VirtualClock};

/// Error returned by operations whose contract precondition "capacity not
/// exhausted" does not hold. These are *not* contract violations: the NF is
/// expected to handle fullness (e.g. drop the packet), so fullness is part
/// of the interface, unlike e.g. double-insertion of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Full;

impl core::fmt::Display for Full {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "structure is at capacity")
    }
}

impl std::error::Error for Full {}
