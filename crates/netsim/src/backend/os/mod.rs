//! Real OS packet I/O behind the [`PacketIo`] seam (Linux
//! `AF_PACKET`): the wire backend [`mmap::MmapBackend`], the veth test
//! rig [`OsTestRig`] around it, and the pieces both share.
//!
//! [`mmap::MmapBackend`] shares a `TPACKET_V3` RX block ring and a
//! `TPACKET_V2` TX ring with the kernel via `mmap`, so steady-state RX
//! needs no syscalls at all and a whole TX batch is flushed with a
//! single kick. It admits every frame through the *same*
//! [`PortLedger`](super::PortLedger) the sim backend is built on —
//! the [`RssClassifier`] the sharded table routes by, the per-queue
//! FIFOs and their drop accounting — so the verified NAT, the event
//! loop, and the conformance suites are identical across backends;
//! only the frame transport changes.
//!
//! [`RawSocket`] is the plain per-frame socket (`recvfrom` / `send`):
//! the test rig's peer ends inject and collect through it.
//!
//! ## The trust boundary
//!
//! The `sys` submodule contains this crate's only `unsafe` code:
//! the libc surface (raw-socket calls, the two CPU-affinity calls the
//! shard runtime uses, and the ring-setup/`mmap` calls the wire
//! backend needs), each wrapped immediately in a safe function. Ring
//! memory the kernel writes concurrently is only reachable through
//! `sys::RingMap`'s bounds-checked volatile accessors, and a byte
//! slice over frame data can only be formed after the block/frame
//! descriptors are validated in safe code (`mmap::walk_block`, unit
//! tested on synthetic ring images). The kernel's packet path below
//! the socket is trusted, exactly as the paper trusts DPDK and the
//! NIC hardware — the verified properties cover what happens to a
//! frame *after* `pump_rx` admits it and *before* `flush_tx` hands it
//! back. See `docs/ARCHITECTURE.md` ("The wire backend: mmap rings").
//!
//! ## TX attribution
//!
//! The sim backend counts `tx`/`tx_bytes` when a frame enters the TX
//! ring (the simulated NIC owns it from that point). The wire backend
//! counts at *flush* time, and only frames the kernel actually
//! accepted — an enqueued frame the kernel refuses is a `tx_error`,
//! not a transmission. Conformance asserts the totals agree (and that
//! `tx_errors == 0` on a quiesced veth wire, which is what makes the
//! comparison exact).
//!
//! ## Privileges
//!
//! `AF_PACKET` sockets need `CAP_NET_RAW`; creating veth pairs needs
//! `CAP_NET_ADMIN`. [`mmap::MmapBackend::open`] fails with a plain
//! `io::Error` when they are missing, and the conformance tests skip
//! cleanly in that case (CI runs them in a privileged job).

use super::{PacketIo, TesterIo};
use crate::dpdk::{BufIdx, Mempool, PortStats, MBUF_SIZE};
use crate::frame_env::RssClassifier;
use std::io;
use vig_packet::Direction;

mod sys;

pub mod mmap;

/// The `sll_pkttype` of a frame the socket itself sent (looped back by
/// the kernel for observers); the RX pump and the tester filter these out.
const PACKET_OUTGOING: u8 = 4;

/// Pin the **calling thread** to CPU `cpu` via `sched_setaffinity`.
///
/// The shard runtime calls this from each worker thread at startup so a
/// shard's cache state stays on one core. Failure (unprivileged or
/// cgroup-restricted environments, or a CPU index outside the allowed
/// set) is an ordinary `io::Error`; callers fall back to unpinned
/// workers and report the degradation, they do not abort.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    sys::set_affinity(cpu)
}

/// The CPUs the calling thread may run on, ascending — the honest core
/// budget under taskset/cgroup limits, which the shard runtime uses to
/// choose pin targets and the benches report as `host_cores`.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    sys::get_affinity()
}

/// A safe handle to one nonblocking `AF_PACKET` socket bound to an
/// interface. Closed on drop.
#[derive(Debug)]
pub struct RawSocket {
    fd: sys::CInt,
    ifname: String,
    /// Transient-error retries absorbed on this socket (a `Cell`
    /// because the receive/send paths take `&self`).
    retries: std::cell::Cell<sys::Retries>,
}

impl RawSocket {
    /// Open and bind to `ifname`. Needs `CAP_NET_RAW`.
    pub fn open(ifname: &str) -> io::Result<RawSocket> {
        let idx = sys::ifindex(ifname)?;
        let fd = sys::open_bound(idx)?;
        // Best effort: keeps looped-back copies of this host's own
        // transmissions out of the receive queue; receivers still
        // filter `PACKET_OUTGOING` by pkttype on kernels without it.
        let _ = sys::set_ignore_outgoing(fd);
        Ok(RawSocket {
            fd,
            ifname: ifname.to_string(),
            retries: std::cell::Cell::new(sys::Retries::default()),
        })
    }

    /// Wrap an already-configured fd (the mmap backend opens its ring
    /// sockets through [`sys`] directly, then hands them here so drop
    /// semantics are uniform).
    pub(super) fn from_fd(fd: sys::CInt, ifname: &str) -> RawSocket {
        RawSocket {
            fd,
            ifname: ifname.to_string(),
            retries: std::cell::Cell::new(sys::Retries::default()),
        }
    }

    /// The raw fd, for [`sys`] calls that need it (ring stats, kicks).
    pub(super) fn fd(&self) -> sys::CInt {
        self.fd
    }

    /// The interface this socket is bound to.
    pub fn ifname(&self) -> &str {
        &self.ifname
    }

    /// Nonblocking receive into `buf`; `Ok(None)` when nothing is
    /// waiting. Returns `(frame_len, sll_pkttype)` — callers filter
    /// `pkttype == PACKET_OUTGOING` to ignore their own transmissions.
    pub fn recv_from(&self, buf: &mut [u8]) -> io::Result<Option<(usize, u8)>> {
        self.with_retries(|r| sys::recv_one(self.fd, buf, r))
    }

    /// Run `op` with this socket's retry accumulator checked out of its
    /// `Cell` and checked back in afterwards.
    fn with_retries<T>(&self, op: impl FnOnce(&mut sys::Retries) -> T) -> T {
        let mut r = self.retries.get();
        let out = op(&mut r);
        self.retries.set(r);
        out
    }

    /// Transient-error retries absorbed on this socket so far.
    pub(super) fn retry_stats(&self) -> IoRetryStats {
        let r = self.retries.get();
        IoRetryStats {
            eintr_retries: r.eintr,
            enobufs_backoffs: r.enobufs,
        }
    }

    /// Transmit one frame out the bound interface.
    pub fn send(&self, frame: &[u8]) -> io::Result<usize> {
        self.with_retries(|r| sys::send_one(self.fd, frame, r))
    }

    /// Kick a TPACKET TX ring attached to this socket (the mmap
    /// backend's flush path).
    pub(super) fn kick_tx_ring(&self) -> io::Result<()> {
        self.with_retries(|r| sys::send_flush(self.fd, r))
    }
}

impl Drop for RawSocket {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// The live-counter surface of a wire backend, so the veth test rig,
/// the conformance suites, and the cross-wire RFC 2544 measurement
/// (`vig_bench::os_wire`) run the bare [`mmap::MmapBackend`] and the
/// same backend under the fault layer (`FaultIo<MmapBackend>`) alike.
pub trait WireBackend: PacketIo {
    /// The classifier steering this backend's traffic (the tester
    /// predicts queue assignment with the same function).
    fn classifier(&self) -> RssClassifier;

    /// Record every admitted frame (arrival order, with its port) so a
    /// live run can be replayed through the sim backend — the
    /// recorded-trace parity proofs in `tests/backend_conformance.rs`.
    fn set_rx_log(&mut self, on: bool);

    /// Take the recorded arrival trace (see [`WireBackend::set_rx_log`]).
    fn take_rx_log(&mut self) -> Vec<(Direction, Vec<u8>)>;

    /// Real receive errors from the kernel (not `EWOULDBLOCK`, which
    /// just means "no frame waiting"): `ENETDOWN` after the interface
    /// went down, `ENODEV` after a veth peer was deleted, … A live
    /// loop seeing this grow with `rx` flat has a dead socket, not a
    /// quiet network.
    fn rx_errors(&self) -> u64;

    /// Transmissions the kernel refused (counted, frame dropped — the
    /// OS analog of a TX ring running dry).
    fn tx_errors(&self) -> u64;

    /// Frames the *kernel* dropped before this backend could see them
    /// (socket buffer / ring overrun), via `PACKET_STATISTICS`,
    /// accumulated across both ports. Mutable because the kernel
    /// resets its counter on read. Overruns lose frames but never
    /// corrupt backend state — the overrun conformance test pins that
    /// down.
    fn kernel_drops(&mut self) -> u64;

    /// Transient-error retries the hardened syscall layer absorbed on
    /// this backend's sockets (`EINTR` re-issues, `ENOBUFS` TX
    /// backoffs) — honesty counters: a wire point reporting zero
    /// errors *and* zero retries really had a quiet kernel path.
    fn io_retries(&self) -> IoRetryStats;
}

/// Syscall-retry honesty counters, summed over a backend's sockets —
/// see [`WireBackend::io_retries`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoRetryStats {
    /// Syscalls transparently re-issued after `EINTR`.
    pub eintr_retries: u64,
    /// Bounded backoff-sleeps taken on `ENOBUFS` before retrying TX.
    pub enobufs_backoffs: u64,
}

/// A veth pair created (and deleted on drop) via the `ip` tool — the
/// fixture the privileged conformance tests and the CI
/// `wire` job build their wire out of. Needs
/// `CAP_NET_ADMIN`; [`VethPair::create`] returns the underlying error
/// when the capability (or the `ip` binary) is missing, and callers
/// skip cleanly.
#[derive(Debug)]
pub struct VethPair {
    /// One end (the backend binds this).
    pub a: String,
    /// The peer end (the tester binds this).
    pub b: String,
}

fn run_ip(args: &[&str]) -> io::Result<()> {
    let out = std::process::Command::new("ip").args(args).output()?;
    if out.status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "ip {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        )))
    }
}

impl VethPair {
    /// Create `a <-> b`, quiesce them (IPv6 autoconf off, so the
    /// kernel does not inject router solicitations into the trace),
    /// and bring both up.
    pub fn create(a: &str, b: &str) -> io::Result<VethPair> {
        run_ip(&["link", "add", a, "type", "veth", "peer", "name", b])?;
        let pair = VethPair {
            a: a.to_string(),
            b: b.to_string(),
        };
        for dev in [a, b] {
            // Best effort: without it the kernel emits IPv6 ND noise,
            // which the NAT drops (it only ever creates state for
            // TCP/UDP over IPv4) but which inflates drop counters.
            let _ = std::fs::write(format!("/proc/sys/net/ipv6/conf/{dev}/disable_ipv6"), "1");
            run_ip(&["link", "set", dev, "up"])?;
        }
        Ok(pair)
    }
}

impl Drop for VethPair {
    fn drop(&mut self) {
        // Deleting one end removes the pair.
        let _ = run_ip(&["link", "del", &self.a]);
    }
}

/// The two-veth-pair test rig: a [`WireBackend`] (by default the
/// [`mmap::MmapBackend`]; a test swaps in `FaultIo<MmapBackend>`
/// through [`OsTestRig::with_backend`]) on the near ends and tester
/// sockets on the far ends, implementing [`TesterIo`] *across the
/// wire* — `stage` transmits on the peer interface and `reap` receives
/// what the NAT sent back out, so the generic RFC 2544 harness and the
/// conformance suites run unchanged over real kernel packet I/O.
pub struct OsTestRig<B: WireBackend = mmap::MmapBackend> {
    backend: B,
    /// The tester's sockets on the far ends, indexed by `Direction as
    /// usize`.
    peers: [RawSocket; 2],
    scratch: Box<[u8; MBUF_SIZE]>,
}

impl OsTestRig {
    /// Build the rig: an [`mmap::MmapBackend`] with default ring
    /// geometry binds `int_veth.a` / `ext_veth.a`, the tester binds the
    /// `.b` peers.
    pub fn open(
        int_veth: &VethPair,
        ext_veth: &VethPair,
        classifier: RssClassifier,
        ring_size: usize,
    ) -> io::Result<OsTestRig> {
        let backend = mmap::MmapBackend::open(
            &int_veth.a,
            &ext_veth.a,
            classifier,
            ring_size,
            mmap::MmapRingConfig::default(),
        )?;
        OsTestRig::with_backend(backend, int_veth, ext_veth)
    }
}

impl<B: WireBackend> OsTestRig<B> {
    /// Wrap an already-open backend with tester sockets on the peers.
    pub fn with_backend(
        backend: B,
        int_veth: &VethPair,
        ext_veth: &VethPair,
    ) -> io::Result<OsTestRig<B>> {
        Ok(OsTestRig {
            backend,
            peers: [RawSocket::open(&int_veth.b)?, RawSocket::open(&ext_veth.b)?],
            scratch: Box::new([0u8; MBUF_SIZE]),
        })
    }

    /// The wrapped backend (error counters, classifier).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The wrapped backend, mutably (rx-log control, kernel-drop
    /// reads).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Receive frames the NAT transmitted out of port `dir` (arriving
    /// at the tester's peer socket), waiting up to `timeout` for at
    /// least `expect` of them. TX-queue attribution does not survive
    /// the wire, so every frame reports queue 0; order within the port
    /// is kernel delivery order.
    pub fn reap_wait(
        &mut self,
        dir: Direction,
        expect: usize,
        timeout: std::time::Duration,
    ) -> Vec<(usize, Vec<u8>)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut out = Vec::new();
        let peer = &self.peers[dir as usize];
        let scratch = &mut self.scratch;
        loop {
            while let Ok(Some((len, pkttype))) = peer.recv_from(&mut scratch[..]) {
                if pkttype == PACKET_OUTGOING {
                    continue; // the tester's own injection, looped back
                }
                out.push((0, scratch[..len].to_vec()));
            }
            if out.len() >= expect || std::time::Instant::now() >= deadline {
                return out;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

impl<B: WireBackend> PacketIo for OsTestRig<B> {
    fn queue_count(&self) -> usize {
        self.backend.queue_count()
    }

    fn pool(&self) -> &Mempool {
        self.backend.pool()
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        self.backend.pool_mut()
    }

    fn pump_rx(&mut self) -> usize {
        self.backend.pump_rx()
    }

    fn rx_len(&self, dir: Direction, q: usize) -> usize {
        self.backend.rx_len(dir, q)
    }

    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        self.backend.rx_burst(dir, q, max, out)
    }

    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool {
        self.backend.tx_put(dir, q, buf)
    }

    fn flush_tx(&mut self) -> usize {
        self.backend.flush_tx()
    }

    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.backend.queue_stats(dir, q)
    }
}

impl<B: WireBackend> TesterIo for OsTestRig<B> {
    /// Inject across the wire: transmit on the peer interface; the
    /// kernel delivers to the backend's bound socket, where the next
    /// `pump_rx` classifies and admits it. Returns the queue the frame
    /// *will* classify to (the same function runs on both sides).
    fn stage(
        &mut self,
        dir: Direction,
        fields_writer: impl FnOnce(&mut [u8]) -> usize,
    ) -> Option<usize> {
        let len = fields_writer(&mut self.scratch[..]);
        let q = self
            .backend
            .classifier()
            .queue_of(dir, &self.scratch[..len]);
        match self.peers[dir as usize].send(&self.scratch[..len]) {
            Ok(_) => Some(q),
            Err(_) => None,
        }
    }

    /// Nonblocking wire-side collection (see [`OsTestRig::reap_wait`]
    /// for the deadline variant the tests use).
    fn reap(&mut self, dir: Direction) -> Vec<(usize, Vec<u8>)> {
        self.reap_wait(dir, 0, std::time::Duration::ZERO)
    }
}
