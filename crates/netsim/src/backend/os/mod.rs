//! [`OsBackend`] and [`mmap::MmapBackend`]: real OS packet I/O behind
//! the [`PacketIo`] seam (Linux `AF_PACKET`).
//!
//! Two backends share this module, differing only in how frames cross
//! the kernel boundary:
//!
//! * [`OsBackend`] — the per-frame baseline: one nonblocking raw
//!   socket per port; RX drains the socket in `recvmmsg` bursts (one
//!   syscall per 32 frames, one copy per frame), TX sends one syscall
//!   per frame. Honest, simple, and the reference point the mmap
//!   speedup is measured against (`vig_bench::os_wire`).
//! * [`mmap::MmapBackend`] — the zero-copy path: a `TPACKET_V3` RX
//!   block ring and a `TPACKET_V2` TX ring shared with the kernel via
//!   `mmap`, so steady-state RX needs no syscalls at all and a whole
//!   TX batch is flushed with a single kick.
//!
//! Both classify frames into per-queue software FIFOs with the *same*
//! [`RssClassifier`] the sim backend and the sharded table use, and
//! both admit through the same `admit` function, so the verified
//! NAT, the event loop, and the conformance suites are identical
//! across backends; only the frame transport changes.
//!
//! ## The trust boundary
//!
//! The `sys` submodule contains the workspace's only `unsafe` code:
//! the libc surface (raw-socket calls, the two CPU-affinity calls the
//! shard runtime uses, and the ring-setup/`mmap` calls the zero-copy
//! backend needs), each wrapped immediately in a safe function. Ring
//! memory the kernel writes concurrently is only reachable through
//! `sys::RingMap`'s bounds-checked volatile accessors, and a byte
//! slice over frame data can only be formed after the block/frame
//! descriptors are validated in safe code (`mmap::walk_block`, unit
//! tested on synthetic ring images). The kernel's packet path below
//! the socket is trusted, exactly as the paper trusts DPDK and the
//! NIC hardware — the verified properties cover what happens to a
//! frame *after* `pump_rx` admits it and *before* `flush_tx` hands it
//! back. See `docs/ARCHITECTURE.md` ("The backend layer").
//!
//! ## TX attribution
//!
//! The device models count `tx`/`tx_bytes` when a frame enters the TX
//! ring (the simulated NIC owns it from that point). The OS backends
//! count at *flush* time, and only frames the kernel actually
//! accepted — an enqueued frame the kernel refuses is a `tx_error`,
//! not a transmission. Conformance asserts the totals agree (and that
//! `tx_errors == 0` on a quiesced veth wire, which is what makes the
//! comparison exact).
//!
//! ## Privileges
//!
//! `AF_PACKET` sockets need `CAP_NET_RAW`; creating veth pairs needs
//! `CAP_NET_ADMIN`. [`OsBackend::open`] fails with a plain
//! `io::Error` when they are missing, and the conformance tests skip
//! cleanly in that case (CI runs them in a privileged job).

use super::{PacketIo, TesterIo};
use crate::dpdk::{BufIdx, Mempool, PortStats, Ring, MBUF_SIZE};
use crate::frame_env::RssClassifier;
use std::io;
use vig_packet::Direction;

mod sys;

pub mod mmap;

/// The `sll_pkttype` of a frame the socket itself sent (looped back by
/// the kernel for observers); the RX pumps filter these out.
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

    /// Batched nonblocking receive (`recvmmsg`): up to
    /// `sys::BURST_FRAMES` frames per syscall, frame `i` landing at
    /// `buf[i * frame_cap ..]`. Returns the frame count.
    pub(super) fn recv_burst(
        &self,
        buf: &mut [u8],
        frame_cap: usize,
        lens: &mut [usize; sys::BURST_FRAMES],
        pkttypes: &mut [u8; sys::BURST_FRAMES],
    ) -> io::Result<usize> {
        self.with_retries(|r| sys::recv_burst(self.fd, buf, frame_cap, lens, pkttypes, r))
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

/// The live-counter surface every OS-facing backend exposes, so the
/// veth test rig, the conformance suites, and the cross-wire RFC 2544
/// measurement (`vig_bench::os_wire`) are generic over per-frame vs
/// mmap transport.
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

    /// Total frames received from the kernel over this backend's
    /// lifetime (after the own-transmission filter), whether admitted
    /// to a FIFO or dropped at a full ring — the tester's "has
    /// everything I sent arrived yet?" signal.
    fn rx_seen(&self) -> u64;

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

/// One port of the per-frame OS backend: a bound socket plus the
/// per-queue software FIFOs and stats the driver contract requires.
struct OsPort {
    sock: RawSocket,
    rx: Vec<Ring>,
    tx: Vec<Ring>,
    stats: Vec<PortStats>,
}

impl OsPort {
    fn new(sock: RawSocket, queues: usize, ring_size: usize) -> OsPort {
        OsPort {
            sock,
            rx: (0..queues).map(|_| Ring::new(ring_size)).collect(),
            tx: (0..queues).map(|_| Ring::new(ring_size)).collect(),
            stats: vec![PortStats::default(); queues],
        }
    }
}

/// The Linux per-frame raw-socket backend. See module docs.
pub struct OsBackend {
    pool: Mempool,
    classifier: RssClassifier,
    int_port: OsPort,
    ext_port: OsPort,
    scratch: Box<[u8; MBUF_SIZE]>,
    /// Flat `recvmmsg` landing area: `sys::BURST_FRAMES` slots of
    /// `MBUF_SIZE` each.
    burst_buf: Vec<u8>,
    /// Per-call admission cap (one ring's worth per queue), so a
    /// flooded socket cannot wedge the driver in `pump_rx` forever.
    pump_cap: usize,
    rx_log: Option<Vec<(Direction, Vec<u8>)>>,
    rx_seen: u64,
    rx_errors: u64,
    tx_errors: u64,
    kernel_drops: u64,
}

impl OsBackend {
    /// Open the backend on two interfaces: `int_if` is the NAT's
    /// internal port, `ext_if` the external one. Ring sizing matches
    /// the sim backend (`ring_size` descriptors per queue, pool holds
    /// four rings' worth per queue). Needs `CAP_NET_RAW`.
    pub fn open(
        int_if: &str,
        ext_if: &str,
        classifier: RssClassifier,
        ring_size: usize,
    ) -> io::Result<OsBackend> {
        let queues = classifier.queue_count();
        let int_sock = RawSocket::open(int_if)?;
        let ext_sock = RawSocket::open(ext_if)?;
        Ok(OsBackend {
            pool: Mempool::new(queues * ring_size * 4),
            classifier,
            int_port: OsPort::new(int_sock, queues, ring_size),
            ext_port: OsPort::new(ext_sock, queues, ring_size),
            scratch: Box::new([0u8; MBUF_SIZE]),
            burst_buf: vec![0u8; sys::BURST_FRAMES * MBUF_SIZE],
            pump_cap: queues * ring_size,
            rx_log: None,
            rx_seen: 0,
            rx_errors: 0,
            tx_errors: 0,
            kernel_drops: 0,
        })
    }

    fn port(&mut self, d: Direction) -> &mut OsPort {
        match d {
            Direction::Internal => &mut self.int_port,
            Direction::External => &mut self.ext_port,
        }
    }

    fn port_ref(&self, d: Direction) -> &OsPort {
        match d {
            Direction::Internal => &self.int_port,
            Direction::External => &self.ext_port,
        }
    }
}

impl WireBackend for OsBackend {
    fn classifier(&self) -> RssClassifier {
        self.classifier
    }

    fn set_rx_log(&mut self, on: bool) {
        self.rx_log = if on { Some(Vec::new()) } else { None };
    }

    fn take_rx_log(&mut self) -> Vec<(Direction, Vec<u8>)> {
        self.rx_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn rx_seen(&self) -> u64 {
        self.rx_seen
    }

    fn rx_errors(&self) -> u64 {
        self.rx_errors
    }

    fn tx_errors(&self) -> u64 {
        self.tx_errors
    }

    fn kernel_drops(&mut self) -> u64 {
        for dir in [Direction::Internal, Direction::External] {
            let fd = self.port_ref(dir).sock.fd();
            if let Ok((_, drops, _)) = sys::ring_stats(fd) {
                self.kernel_drops += drops;
            }
        }
        self.kernel_drops
    }

    fn io_retries(&self) -> IoRetryStats {
        let a = self.int_port.sock.retry_stats();
        let b = self.ext_port.sock.retry_stats();
        IoRetryStats {
            eintr_retries: a.eintr_retries + b.eintr_retries,
            enobufs_backoffs: a.enobufs_backoffs + b.enobufs_backoffs,
        }
    }
}

/// Admit one frame into a port's per-queue FIFOs: log it, classify it,
/// and apply the driver contract's drop accounting (pool exhaustion or
/// a full ring counts `rx_dropped` on the frame's queue; admission
/// counts `rx`). The single definition the per-frame RX pump, the mmap
/// block walker, and the loopback `stage` paths all use, so their
/// accounting can never diverge.
pub(super) fn admit(
    pool: &mut Mempool,
    classifier: &RssClassifier,
    rx: &mut [Ring],
    stats: &mut [PortStats],
    dir: Direction,
    frame: &[u8],
    rx_log: &mut Option<Vec<(Direction, Vec<u8>)>>,
) -> Option<usize> {
    if let Some(log) = rx_log {
        log.push((dir, frame.to_vec()));
    }
    let q = classifier.queue_of(dir, frame);
    let Some(buf) = pool.get() else {
        stats[q].rx_dropped += 1;
        return None;
    };
    pool.write_frame(buf, frame);
    if rx[q].push(buf) {
        stats[q].rx += 1;
        Some(q)
    } else {
        pool.put(buf);
        stats[q].rx_dropped += 1;
        None
    }
}

impl PacketIo for OsBackend {
    fn queue_count(&self) -> usize {
        self.int_port.rx.len()
    }

    fn pool(&self) -> &Mempool {
        &self.pool
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        &mut self.pool
    }

    /// Drain both sockets in `recvmmsg` bursts (one syscall per
    /// `sys::BURST_FRAMES` frames) until the kernel reports empty or
    /// the per-call cap is reached.
    fn pump_rx(&mut self) -> usize {
        let mut admitted = 0;
        for dir in [Direction::Internal, Direction::External] {
            let mut pumped = 0;
            'dir: while pumped < self.pump_cap {
                // Destructure so the socket read and the ring/pool
                // writes borrow disjoint fields.
                let OsBackend {
                    pool,
                    classifier,
                    int_port,
                    ext_port,
                    burst_buf,
                    rx_log,
                    rx_seen,
                    rx_errors,
                    ..
                } = self;
                let port = match dir {
                    Direction::Internal => int_port,
                    Direction::External => ext_port,
                };
                let mut lens = [0usize; sys::BURST_FRAMES];
                let mut kinds = [0u8; sys::BURST_FRAMES];
                let n = match port
                    .sock
                    .recv_burst(burst_buf, MBUF_SIZE, &mut lens, &mut kinds)
                {
                    Ok(0) => break 'dir,
                    Ok(n) => n,
                    // A real error (the nonblocking wrapper already
                    // maps EWOULDBLOCK to Ok(0)): count it so a dead
                    // socket is distinguishable from a quiet network,
                    // and retry on the next pump.
                    Err(_) => {
                        *rx_errors += 1;
                        break 'dir;
                    }
                };
                for i in 0..n {
                    if kinds[i] == PACKET_OUTGOING {
                        continue; // our own transmission, looped back
                    }
                    *rx_seen += 1;
                    let start = i * MBUF_SIZE;
                    let frame = &burst_buf[start..start + lens[i].min(MBUF_SIZE)];
                    if admit(
                        pool,
                        classifier,
                        &mut port.rx,
                        &mut port.stats,
                        dir,
                        frame,
                        rx_log,
                    )
                    .is_some()
                    {
                        admitted += 1;
                    }
                }
                pumped += n;
                if n < sys::BURST_FRAMES {
                    break 'dir; // short burst: the socket is drained
                }
            }
        }
        admitted
    }

    fn rx_len(&self, dir: Direction, q: usize) -> usize {
        self.port_ref(dir).rx[q].len()
    }

    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        let port = self.port(dir);
        let mut n = 0;
        while n < max {
            match port.rx[q].pop() {
                Some(b) => {
                    out.push(b);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Enqueue only — `tx`/`tx_bytes` are counted at flush time, when
    /// the kernel accepts the frame (see module docs, "TX attribution").
    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool {
        self.port(dir).tx[q].push(buf)
    }

    fn flush_tx(&mut self) -> usize {
        let mut flushed = 0;
        for dir in [Direction::Internal, Direction::External] {
            for q in 0..self.queue_count() {
                loop {
                    let OsBackend {
                        pool,
                        int_port,
                        ext_port,
                        tx_errors,
                        ..
                    } = self;
                    let port = match dir {
                        Direction::Internal => int_port,
                        Direction::External => ext_port,
                    };
                    let Some(buf) = port.tx[q].pop() else { break };
                    let frame = pool.frame(buf);
                    match port.sock.send(frame) {
                        Ok(_) => {
                            port.stats[q].tx += 1;
                            port.stats[q].tx_bytes += frame.len() as u64;
                            flushed += 1;
                        }
                        Err(_) => *tx_errors += 1,
                    }
                    pool.put(buf);
                }
            }
        }
        flushed
    }

    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.port_ref(dir).stats[q]
    }
}

impl TesterIo for OsBackend {
    /// Staging directly into an OS backend is a *loopback* injection:
    /// the frame is written straight into the classified RX FIFO as if
    /// the kernel had just delivered it. Real-wire injection goes
    /// through [`OsTestRig`], whose tester sits on the veth peer.
    fn stage(
        &mut self,
        dir: Direction,
        fields_writer: impl FnOnce(&mut [u8]) -> usize,
    ) -> Option<usize> {
        let len = fields_writer(&mut self.scratch[..]);
        let OsBackend {
            pool,
            classifier,
            int_port,
            ext_port,
            scratch,
            rx_log,
            ..
        } = self;
        let port = match dir {
            Direction::Internal => int_port,
            Direction::External => ext_port,
        };
        admit(
            pool,
            classifier,
            &mut port.rx,
            &mut port.stats,
            dir,
            &scratch[..len],
            rx_log,
        )
    }

    /// Drain the backend's own TX queues without touching the wire
    /// (loopback collection, the dual of loopback staging). A live
    /// driver normally calls `flush_tx` instead, which sends on the
    /// socket.
    fn reap(&mut self, dir: Direction) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        for q in 0..self.queue_count() {
            loop {
                let OsBackend {
                    pool,
                    int_port,
                    ext_port,
                    ..
                } = self;
                let port = match dir {
                    Direction::Internal => int_port,
                    Direction::External => ext_port,
                };
                let Some(buf) = port.tx[q].pop() else { break };
                out.push((q, pool.frame(buf).to_vec()));
                pool.put(buf);
            }
        }
        out
    }
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

/// The two-veth-pair test rig, generic over the backend transport: a
/// [`WireBackend`] (per-frame [`OsBackend`] or zero-copy
/// [`mmap::MmapBackend`]) on the near ends and tester sockets on the
/// far ends, implementing [`TesterIo`] *across the wire* — `stage`
/// transmits on the peer interface and `reap` receives what the NAT
/// sent back out, so the generic RFC 2544 harness and the conformance
/// suites run unchanged over real kernel packet I/O on either
/// transport.
pub struct OsTestRig<B: WireBackend = OsBackend> {
    backend: B,
    int_peer: RawSocket,
    ext_peer: RawSocket,
    scratch: Box<[u8; MBUF_SIZE]>,
}

impl OsTestRig<OsBackend> {
    /// Build the per-frame rig: the backend binds `int_veth.a` /
    /// `ext_veth.a`, the tester binds the `.b` peers.
    pub fn open(
        int_veth: &VethPair,
        ext_veth: &VethPair,
        classifier: RssClassifier,
        ring_size: usize,
    ) -> io::Result<OsTestRig<OsBackend>> {
        let backend = OsBackend::open(&int_veth.a, &ext_veth.a, classifier, ring_size)?;
        OsTestRig::with_backend(backend, int_veth, ext_veth)
    }
}

impl OsTestRig<mmap::MmapBackend> {
    /// Build the zero-copy rig: an [`mmap::MmapBackend`] with default
    /// ring geometry on the `.a` ends, tester sockets on the `.b`
    /// peers.
    pub fn open_mmap(
        int_veth: &VethPair,
        ext_veth: &VethPair,
        classifier: RssClassifier,
        ring_size: usize,
    ) -> io::Result<OsTestRig<mmap::MmapBackend>> {
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
            int_peer: RawSocket::open(&int_veth.b)?,
            ext_peer: RawSocket::open(&ext_veth.b)?,
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

    fn peer(&self, dir: Direction) -> &RawSocket {
        match dir {
            Direction::Internal => &self.int_peer,
            Direction::External => &self.ext_peer,
        }
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
        let peer = match dir {
            Direction::Internal => &self.int_peer,
            Direction::External => &self.ext_peer,
        };
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
        match self.peer(dir).send(&self.scratch[..len]) {
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
