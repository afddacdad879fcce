//! The pluggable packet-I/O backend layer.
//!
//! The event-driven driver ([`crate::eventloop`]) never cared *where*
//! queue events come from — it assumes exactly the driver contract the
//! multi-queue work established: frames are classified by
//! [`RssClassifier`](crate::frame_env::RssClassifier) into per-queue
//! FIFOs, drained in budgeted round-robin bursts through
//! [`Middlebox::process_burst`](crate::middlebox::Middlebox::process_burst),
//! transmitted on the destination port's queue of the same index, and
//! accounted per queue (rx / rx_dropped / tx). [`PacketIo`] makes that
//! contract a trait, so the same verified loop body — and the same
//! driver — runs over:
//!
//! * [`SimBackend`] — the in-process NIC model: a [`PortLedger`] plus
//!   TX rings the tester reaps, the home of every simulated test and
//!   bench (`tests/queue_equivalence.rs` proves the driver over it
//!   equivalent to sequential per-frame processing);
//! * [`os::mmap::MmapBackend`] (Linux) — real OS packet I/O: a
//!   [`PortLedger`] plus, per port, an `AF_PACKET` RX block ring and TX
//!   slot ring shared with the kernel via `mmap`, bound to an interface
//!   (a veth pair end in the intended deployment), admitting
//!   kernel-delivered frames through the *same* ledger.
//!
//! Both backends admit, queue and count through [`PortLedger`], the one
//! copy of the per-queue admission rule (pool dry or ring full: an RX
//! drop on the frame's queue), so a wire trace replayed through the sim
//! backend reproduces the wire's counters by construction.
//!
//! The split keeps the trust boundary explicit: everything above
//! `PacketIo` (classification, scheduling, the verified NAT) is
//! identical across backends and covered by the differential suites;
//! everything below it (the kernel's packet path, for the wire backend) is
//! trusted, exactly as the paper trusts DPDK and the NIC. A future
//! AF_XDP or DPDK backend drops in behind this trait without touching
//! verified code. See `docs/ARCHITECTURE.md` ("Drivers: how a frame
//! reaches a `Middlebox`" and "The wire backend: mmap rings").

use crate::dpdk::{BufIdx, Mempool, PortStats};
use vig_packet::Direction;

pub mod fault;
mod ledger;
mod sim;
pub use fault::{CorruptKind, FaultIo, FaultPlan, FaultStats, StallWindow, TruncateKind};
pub use ledger::PortLedger;
pub use sim::SimBackend;

#[cfg(target_os = "linux")]
pub mod os;

/// The driver contract between the event loop and a packet source/sink.
///
/// A backend owns the [`Mempool`] its frames live in plus, per port
/// (internal/external), `queue_count()` RX FIFOs and TX queues with
/// per-queue statistics. The event loop only ever:
///
/// 1. calls [`PacketIo::pump_rx`] to let the backend admit frames from
///    the outside world into its per-queue RX FIFOs (classifying each
///    with the backend's [`RssClassifier`](crate::frame_env::RssClassifier)
///    — a no-op for the sim backend, whose tester stages frames
///    directly);
/// 2. polls [`PacketIo::rx_len`] for readiness (level-triggered);
/// 3. drains ready queues in budgeted bursts via [`PacketIo::rx_burst`];
/// 4. forwards via [`PacketIo::tx_put`] on the destination port's queue
///    of the *same index* (run-to-completion cores own their queue
///    pair), or returns dropped buffers to the pool;
/// 5. calls [`PacketIo::flush_tx`] to push queued TX frames to the
///    outside world (a no-op for the sim backend, whose tester collects
///    them).
///
/// Implementations must keep queues independent: a full RX FIFO drops
/// (and counts, in that queue's [`PortStats`]) without stalling or
/// corrupting siblings — the conformance suite pins this down for every
/// backend.
pub trait PacketIo {
    /// RX/TX queue pairs per port.
    fn queue_count(&self) -> usize;

    /// The buffer pool backing this backend's frames.
    fn pool(&self) -> &Mempool;

    /// Mutable pool access (the driver passes this to
    /// [`Middlebox::process_burst`](crate::middlebox::Middlebox::process_burst)
    /// and returns dropped buffers through it).
    fn pool_mut(&mut self) -> &mut Mempool;

    /// Admit frames from the outside world into the per-queue RX FIFOs,
    /// classifying each one. Returns how many frames were admitted.
    /// Backends whose frames are staged by an in-process tester (the
    /// sim backend) return 0 without doing anything.
    fn pump_rx(&mut self) -> usize;

    /// Frames waiting in RX queue `q` of port `dir` — the readiness
    /// signal the poller level-triggers on.
    fn rx_len(&self, dir: Direction, q: usize) -> usize;

    /// Drain up to `max` frames from RX queue `q` of port `dir` into
    /// `out` (FIFO order). Returns the count.
    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize;

    /// Queue a frame on TX queue `q` of port `dir`; `false` when the
    /// TX queue is full (the caller keeps ownership of the buffer).
    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool;

    /// Push queued TX frames to the outside world, reclaiming their
    /// buffers. Returns how many frames left. Backends whose tester
    /// collects TX in-process (the sim backend) return 0 and leave the
    /// queues intact.
    fn flush_tx(&mut self) -> usize;

    /// Queue `q`'s counters on port `dir`.
    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats;

    /// Port-wide counters: the sum over queues.
    fn port_stats(&self, dir: Direction) -> PortStats {
        (0..self.queue_count()).fold(PortStats::default(), |a, q| {
            let s = self.queue_stats(dir, q);
            PortStats {
                rx: a.rx + s.rx,
                rx_dropped: a.rx_dropped + s.rx_dropped,
                tx: a.tx + s.tx,
                tx_bytes: a.tx_bytes + s.tx_bytes,
            }
        })
    }
}

/// Tester-side frame staging and collection — how a measurement
/// harness gets frames *into* a backend and reads what came out.
///
/// For the sim backend this is direct ring access (classify + enqueue
/// on the way in, dequeue + reclaim on the way out). For an OS
/// backend the "tester" sits on the far end of the wire: the veth-pair
/// test rig ([`os::OsTestRig`]) implements `stage` by sending on the
/// peer interface's own raw socket and `reap` by receiving there.
/// The RFC 2544 harness is generic over this trait, so the same
/// measurement methodology spans simulated and real packet paths.
pub trait TesterIo: PacketIo {
    /// Write one frame with `fields_writer` (which returns the frame
    /// length) and inject it into port `dir`. Returns the RX queue the
    /// frame classifies to, or `None` when it could not be admitted
    /// (full ring / exhausted pool / send failure — counted by the
    /// backend where the contract requires it).
    fn stage(
        &mut self,
        dir: Direction,
        fields_writer: impl FnOnce(&mut [u8]) -> usize,
    ) -> Option<usize>;

    /// Collect every frame the NF transmitted out of port `dir`, as
    /// `(tx_queue, frame bytes)` in transmission order (queue order,
    /// FIFO within a queue, for backends with inspectable TX queues).
    fn reap(&mut self, dir: Direction) -> Vec<(usize, Vec<u8>)>;
}
