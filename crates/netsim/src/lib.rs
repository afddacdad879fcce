//! # netsim — the evaluation substrate (DPDK + testbed analog)
//!
//! The paper evaluates on two Xeon machines with 10 GbE NICs: a Tester
//! running MoonGen fires 64-byte frames at a Middlebox running one of
//! four NFs over DPDK (§6, Fig. 11). None of that hardware exists here,
//! so this crate builds the closest pure-Rust equivalent (see DESIGN.md
//! §5 for the substitution argument):
//!
//! * [`dpdk`] — the runtime: a preallocated buffer [`dpdk::Mempool`]
//!   (DPDK's mbuf pool) and the [`dpdk::PortStats`] counters; every RX
//!   and TX queue is a fixed-capacity [`libvig::Ring`] of buffer
//!   descriptors, the FIFO of the paper's §3 example;
//! * [`eventloop`] — the one driver, [`eventloop::BackendDriver`]:
//!   readiness over queue non-empty events, rotating round-robin
//!   visits of at most `MAX_BURST` frames, idle backoff, and the
//!   verified batch loop run per queue visit over any
//!   [`backend::PacketIo`] — every frame of every test, bench and live
//!   run reaches its [`middlebox::Middlebox`] through it (the pinned
//!   [`runtime`] session is the only other entry);
//! * [`frame_env`] — the bridge that runs the **verified loop body**
//!   (`vignat::nat_process_batch_into`) over real packet bytes: header
//!   fields in, incremental-checksum rewrites out;
//! * [`middlebox`] — the uniform NF interface every driver calls
//!   ([`middlebox::Middlebox`]), plus the VigNAT and no-op instances;
//! * [`tester`] — the MoonGen analog: background/probe flow workloads,
//!   deterministic and reproducible via seeds;
//! * [`runtime`] — the per-shard parallel driver
//!   ([`runtime::ParallelShardedNat`]) and the persistent core-pinned
//!   session it lends out ([`runtime::NatRuntimeSession`]): one
//!   long-lived worker thread per shard (pinned via `sched_setaffinity`
//!   where permitted), handed jobs by the RSS dispatcher that carry the
//!   shard's mempool — ownership moves, frame bytes stay put — with
//!   results merged in deterministic shard order — the
//!   deployment-shaped parallel driver natbench's `runtime` workload
//!   times;
//! * [`harness`] — the old import path of those two types, kept for
//!   `benchmark/` only;
//! * [`backend`] — the pluggable packet-I/O layer: the
//!   [`backend::PacketIo`] driver contract (classify into per-queue
//!   FIFOs, budgeted drain, per-queue stats), the port model both
//!   backends are built on ([`backend::PortLedger`]: N RX rings per
//!   port with per-queue statistics, fed through the RSS classifier;
//!   one queue is the paper's single-ring port), the simulated
//!   [`backend::SimBackend`] and, on Linux, one `AF_PACKET` wire
//!   backend feeding the same event loop with real kernel-delivered
//!   frames: [`backend::os::mmap::MmapBackend`] (`TPACKET_V3` RX block
//!   ring + `TPACKET_V2` TX ring shared with the kernel via `mmap`).
//!
//! What is real and what is modeled: the per-packet CPU work — parsing,
//! flow-table probes, expiry, rewrites, checksum updates, ring and
//! mempool traffic — is all real Rust running on the host CPU, and it is
//! what the experiments measure. Wire time, PCIe, and NIC DMA are *not*
//! modeled (except through `backend::os`, where the kernel's packet
//! path is real and trusted); benches that reproduce the paper's
//! absolute latency scale add a single documented constant for them.

// This crate's only `unsafe` is the libc FFI in `backend::os::sys`
// (raw-socket calls, the two CPU-affinity calls, and the packet-ring
// setup/`mmap` surface for the wire backend, each safely wrapped on
// the spot; shared ring memory is reachable only through
// bounds-checked volatile accessors); the rest of the crate stays
// unsafe-free and the lint keeps it that way. The workspace's one
// other `unsafe` block is `libvig::prefetch`'s cache hint;
// `tests/unsafe_inventory.rs` holds the workspace to these two.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod backend;
pub mod dpdk;
pub mod eventloop;
pub mod frame_env;
pub mod harness;
pub mod middlebox;
pub mod runtime;
pub mod tester;

pub use backend::{
    CorruptKind, FaultIo, FaultPlan, FaultStats, PacketIo, SimBackend, TesterIo, TruncateKind,
};
pub use dpdk::{Mempool, PortStats};
pub use eventloop::{BackendDriver, TxRecord};
pub use frame_env::{BurstEnv, FrameEnv, RssClassifier};
pub use middlebox::{Middlebox, NoopForwarder, Verdict, VigNatMb};
pub use runtime::{
    NatRuntimeSession, ParallelShardedNat, PinReport, RuntimeReport, SupervisorStats, WorkerDown,
};
pub use tester::FlowGen;
