//! The raw libc surface: every syscall the wire backend and its test
//! rig make, wrapped here and nowhere else.
//!
//! This file is the workspace's **entire** FFI `unsafe` budget; the
//! one other `unsafe` block is `libvig::prefetch`'s cache hint, and
//! `tests/unsafe_inventory.rs` checks that nothing else holds any. The
//! crate root carries `#![deny(unsafe_code)]` and
//! `#![deny(clippy::undocumented_unsafe_blocks)]` (every block states
//! its `SAFETY:`); only this module re-allows `unsafe_code`,
//! and every `unsafe` block sits directly inside a safe wrapper that
//! establishes its contract before the call and validates the result
//! after it. The surface:
//!
//! * raw sockets — `socket`, `bind`, `close`, `if_nametoindex`, and
//!   the per-frame `recvfrom` / `send` the test rig's peer sockets
//!   use;
//! * CPU affinity for the shard runtime — `sched_setaffinity`,
//!   `sched_getaffinity`;
//! * packet rings for [`super::mmap::MmapBackend`] — `setsockopt`
//!   (ring/version/bypass setup), `getsockopt` (kernel drop counters),
//!   `mmap`/`munmap` (the shared ring itself), `poll` (bounded waits in
//!   tests), and the zero-length `send` that kicks a TX ring.
//!
//! The shared ring memory is the subtle part: the kernel writes block
//! and frame descriptors into the same pages we read. [`RingMap`]
//! therefore exposes only bounds-checked accessors — status words are
//! read/written with volatile ops (the kernel is the other side of the
//! handoff), and a byte slice over frame data can only be formed
//! through [`RingMap::bytes`], *after* the caller has validated the
//! descriptor that produced the offsets. The descriptor validation
//! itself lives in safe code (`super::mmap`), where it is unit-tested
//! on synthetic ring images; this module only enforces that no access
//! can leave the mapping.

#![allow(unsafe_code)]

use std::io;

pub type CInt = i32;

const AF_PACKET: CInt = 17;
const SOCK_RAW: CInt = 3;
/// `SOCK_NONBLOCK`: open the socket nonblocking, no fcntl dance.
const SOCK_NONBLOCK: CInt = 0o4000;
/// `ETH_P_ALL` in network byte order, as `socket(2)` wants it.
pub const ETH_P_ALL_BE: CInt = 0x0300;

const SOL_PACKET: CInt = 263;
const PACKET_RX_RING: CInt = 5;
const PACKET_STATISTICS: CInt = 6;
const PACKET_VERSION: CInt = 10;
const PACKET_TX_RING: CInt = 13;
const PACKET_QDISC_BYPASS: CInt = 20;
const PACKET_IGNORE_OUTGOING: CInt = 23;

/// `TPACKET_V2`: fixed-size frame slots, status word first — the TX
/// ring format.
pub const TPACKET_V2: CInt = 1;
/// `TPACKET_V3`: variable-size frames packed into block-granular
/// handoff — the RX ring format.
pub const TPACKET_V3: CInt = 2;

const PROT_READ: CInt = 1;
const PROT_WRITE: CInt = 2;
const MAP_SHARED: CInt = 1;

const MSG_DONTWAIT: CInt = 0x40;
const POLLIN: i16 = 1;

/// `struct sockaddr_ll` (linux/if_packet.h), the AF_PACKET bind
/// address: 20 bytes, `repr(C)` so the kernel sees the C layout.
#[repr(C)]
pub struct SockaddrLl {
    pub sll_family: u16,
    /// Network byte order.
    pub sll_protocol: u16,
    pub sll_ifindex: i32,
    pub sll_hatype: u16,
    pub sll_pkttype: u8,
    pub sll_halen: u8,
    pub sll_addr: [u8; 8],
}

impl SockaddrLl {
    fn zeroed() -> SockaddrLl {
        SockaddrLl {
            sll_family: 0,
            sll_protocol: 0,
            sll_ifindex: 0,
            sll_hatype: 0,
            sll_pkttype: 0,
            sll_halen: 0,
            sll_addr: [0; 8],
        }
    }
}

/// `struct tpacket_req3` (linux/if_packet.h): TPACKET_V3 RX ring
/// geometry.
#[repr(C)]
struct TpacketReq3 {
    tp_block_size: u32,
    tp_block_nr: u32,
    tp_frame_size: u32,
    tp_frame_nr: u32,
    tp_retire_blk_tov: u32,
    tp_sizeof_priv: u32,
    tp_feature_req_word: u32,
}

/// `struct tpacket_req`: V1/V2 ring geometry (the TX ring).
#[repr(C)]
struct TpacketReq {
    tp_block_size: u32,
    tp_block_nr: u32,
    tp_frame_size: u32,
    tp_frame_nr: u32,
}

/// `struct tpacket_stats_v3`: kernel-side RX counters, reset on read.
#[repr(C)]
struct TpacketStatsV3 {
    tp_packets: u32,
    tp_drops: u32,
    tp_freeze_q_cnt: u32,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: CInt,
    events: i16,
    revents: i16,
}

extern "C" {
    fn socket(domain: CInt, ty: CInt, protocol: CInt) -> CInt;
    fn bind(fd: CInt, addr: *const SockaddrLl, addrlen: u32) -> CInt;
    fn recvfrom(
        fd: CInt,
        buf: *mut u8,
        len: usize,
        flags: CInt,
        addr: *mut SockaddrLl,
        addrlen: *mut u32,
    ) -> isize;
    fn send(fd: CInt, buf: *const u8, len: usize, flags: CInt) -> isize;
    fn close(fd: CInt) -> CInt;
    fn if_nametoindex(name: *const u8) -> u32;
    fn sched_setaffinity(pid: CInt, cpusetsize: usize, mask: *const u64) -> CInt;
    fn sched_getaffinity(pid: CInt, cpusetsize: usize, mask: *mut u64) -> CInt;
    fn setsockopt(fd: CInt, level: CInt, name: CInt, val: *const u8, len: u32) -> CInt;
    fn getsockopt(fd: CInt, level: CInt, name: CInt, val: *mut u8, len: *mut u32) -> CInt;
    fn mmap(addr: *mut u8, len: usize, prot: CInt, flags: CInt, fd: CInt, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> CInt;
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: CInt) -> CInt;
}

/// Words in the affinity mask: 16 × 64 = 1024 CPUs, the kernel's
/// default `CONFIG_NR_CPUS` ceiling.
const MASK_WORDS: usize = 16;

/// Restrict the *calling thread* (pid 0) to the single CPU `cpu`.
pub fn set_affinity(cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cpu index {cpu} out of mask range"),
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `mask` is a valid readable buffer of `cpusetsize`
    // bytes for the call's duration; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The CPUs the calling thread is allowed to run on, in ascending
/// order (cgroup/taskset restrictions included — exactly the set a
/// runner's `taskset` limit leaves us).
pub fn get_affinity() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a valid writable buffer of `cpusetsize`
    // bytes; the kernel writes at most that much.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let mut cpus = Vec::new();
    for (w, word) in mask.iter().enumerate() {
        for b in 0..64 {
            if word & (1u64 << b) != 0 {
                cpus.push(w * 64 + b);
            }
        }
    }
    Ok(cpus)
}

/// Resolve an interface name (NUL-terminated internally) to its
/// index.
pub fn ifindex(name: &str) -> io::Result<i32> {
    let mut z: Vec<u8> = name.as_bytes().to_vec();
    if z.contains(&0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "interface name contains NUL",
        ));
    }
    z.push(0);
    // SAFETY: `z` is a valid NUL-terminated buffer for the call's
    // duration; if_nametoindex only reads it.
    let idx = unsafe { if_nametoindex(z.as_ptr()) };
    if idx == 0 {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no such interface: {name}"),
        ));
    }
    Ok(idx as i32)
}

/// `socket(AF_PACKET, SOCK_RAW|SOCK_NONBLOCK, proto_be)`, unbound.
/// Protocol 0 makes a TX-only socket: the kernel never delivers RX
/// frames to it, which is exactly what the mmap backend's TX ring
/// socket wants.
pub fn open_raw(proto_be: CInt) -> io::Result<CInt> {
    // SAFETY: plain syscall, no pointers.
    let fd = unsafe { socket(AF_PACKET, SOCK_RAW | SOCK_NONBLOCK, proto_be) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

/// Bind a packet socket to interface `idx` with protocol `proto_be`.
pub fn bind_to(fd: CInt, idx: i32, proto_be: CInt) -> io::Result<()> {
    let addr = SockaddrLl {
        sll_family: AF_PACKET as u16,
        sll_protocol: proto_be as u16,
        sll_ifindex: idx,
        sll_hatype: 0,
        sll_pkttype: 0,
        sll_halen: 0,
        sll_addr: [0; 8],
    };
    // SAFETY: `addr` is a properly initialized sockaddr_ll and
    // outlives the call; the kernel copies it.
    let rc = unsafe { bind(fd, &addr, std::mem::size_of::<SockaddrLl>() as u32) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// `socket(AF_PACKET, SOCK_RAW|SOCK_NONBLOCK, htons(ETH_P_ALL))`
/// bound to interface `idx`. Returns the fd.
pub fn open_bound(idx: i32) -> io::Result<CInt> {
    let fd = open_raw(ETH_P_ALL_BE)?;
    if let Err(e) = bind_to(fd, idx, ETH_P_ALL_BE) {
        close_fd(fd);
        return Err(e);
    }
    Ok(fd)
}

/// Retry accounting for the hardened wrappers below — the honesty
/// counters [`WireBackend::io_retries`](super::WireBackend::io_retries)
/// surfaces. `EINTR` is retried unconditionally (a signal interrupting
/// a syscall is not an I/O outcome); `ENOBUFS` on TX gets a bounded
/// exponential backoff before the error is surfaced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retries {
    /// Syscalls transparently re-issued after `EINTR`.
    pub eintr: u64,
    /// TX backoff-sleeps taken on `ENOBUFS` before retrying.
    pub enobufs: u64,
}

/// `ENOBUFS` (no kernel buffer space, errno 105 on Linux) has no
/// `io::ErrorKind` mapping; match the raw errno.
const ENOBUFS_ERRNO: i32 = 105;

/// Backoff-retry attempts on `ENOBUFS` TX before surfacing the error:
/// sleeps of 50 µs doubling per attempt (350 µs worst-case total) ride
/// out a qdisc burst without turning a dead link into a stall.
const ENOBUFS_TX_ATTEMPTS: u32 = 3;
const ENOBUFS_BACKOFF_MIN_US: u64 = 50;

fn enobufs(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOBUFS_ERRNO)
}

/// Nonblocking receive; returns `(len, sll_pkttype)`, `None` when
/// no frame is waiting. Retries `EINTR` (counted in `retries`).
pub fn recv_one(
    fd: CInt,
    buf: &mut [u8],
    retries: &mut Retries,
) -> io::Result<Option<(usize, u8)>> {
    loop {
        let mut from = SockaddrLl::zeroed();
        let mut fromlen = std::mem::size_of::<SockaddrLl>() as u32;
        // SAFETY: buf/from/fromlen are valid for the call's duration;
        // the kernel writes at most `buf.len()` bytes and a sockaddr_ll.
        let n = unsafe { recvfrom(fd, buf.as_mut_ptr(), buf.len(), 0, &mut from, &mut fromlen) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                retries.eintr += 1;
                continue;
            }
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(None);
            }
            return Err(e);
        }
        return Ok(Some((n as usize, from.sll_pkttype)));
    }
}

/// Send one frame on the bound interface. Retries `EINTR`
/// unconditionally; backs off and retries `ENOBUFS` up to
/// [`ENOBUFS_TX_ATTEMPTS`] times (both counted in `retries`) before
/// surfacing the error — bounded degradation, never a stall.
pub fn send_one(fd: CInt, frame: &[u8], retries: &mut Retries) -> io::Result<usize> {
    let mut enobufs_left = ENOBUFS_TX_ATTEMPTS;
    let mut backoff_us = ENOBUFS_BACKOFF_MIN_US;
    loop {
        // SAFETY: frame is a valid readable buffer for the call.
        let n = unsafe { send(fd, frame.as_ptr(), frame.len(), 0) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                retries.eintr += 1;
                continue;
            }
            if enobufs(&e) && enobufs_left > 0 {
                enobufs_left -= 1;
                retries.enobufs += 1;
                std::thread::sleep(std::time::Duration::from_micros(backoff_us));
                backoff_us *= 2;
                continue;
            }
            return Err(e);
        }
        return Ok(n as usize);
    }
}

/// Kick a TX ring: `send(fd, NULL, 0, MSG_DONTWAIT)` tells the kernel
/// to walk the ring and transmit every `TP_STATUS_SEND_REQUEST` slot.
/// Retries `EINTR`; treats `ENOBUFS` like `EWOULDBLOCK` after a
/// bounded backoff (ring slots stay `SEND_REQUEST` and the next flush
/// re-kicks them — congestion delays frames, it must not error a
/// healthy ring).
pub fn send_flush(fd: CInt, retries: &mut Retries) -> io::Result<()> {
    let mut enobufs_left = ENOBUFS_TX_ATTEMPTS;
    let mut backoff_us = ENOBUFS_BACKOFF_MIN_US;
    loop {
        // SAFETY: a NULL buffer of length 0 is the documented TX-ring
        // flush form; the kernel reads frame data from the shared ring,
        // not from this pointer.
        let n = unsafe { send(fd, std::ptr::null(), 0, MSG_DONTWAIT) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                retries.eintr += 1;
                continue;
            }
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(()); // partial progress; re-kicked next flush
            }
            if enobufs(&e) {
                if enobufs_left > 0 {
                    enobufs_left -= 1;
                    retries.enobufs += 1;
                    std::thread::sleep(std::time::Duration::from_micros(backoff_us));
                    backoff_us *= 2;
                    continue;
                }
                return Ok(()); // still congested; re-kicked next flush
            }
            return Err(e);
        }
        return Ok(());
    }
}

/// Close the fd (Drop path; errors ignored like stdlib's File).
pub fn close_fd(fd: CInt) {
    // SAFETY: fd belongs to the socket wrapper being dropped.
    unsafe { close(fd) };
}

fn set_opt(fd: CInt, name: CInt, val: *const u8, len: usize) -> io::Result<()> {
    // SAFETY: every caller below passes a `val` that points to a
    // live, properly sized and aligned option struct for the call's
    // duration; the kernel copies it.
    let rc = unsafe { setsockopt(fd, SOL_PACKET, name, val, len as u32) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// `PACKET_VERSION`: select the tpacket descriptor format
/// ([`TPACKET_V2`] / [`TPACKET_V3`]). Must precede ring setup.
pub fn set_packet_version(fd: CInt, version: CInt) -> io::Result<()> {
    set_opt(
        fd,
        PACKET_VERSION,
        (&version as *const CInt).cast(),
        std::mem::size_of::<CInt>(),
    )
}

/// `PACKET_QDISC_BYPASS`: transmissions skip the qdisc layer and go
/// straight to the device. Best-effort — callers may ignore failure
/// on kernels without it.
pub fn set_qdisc_bypass(fd: CInt) -> io::Result<()> {
    let one: CInt = 1;
    set_opt(
        fd,
        PACKET_QDISC_BYPASS,
        (&one as *const CInt).cast(),
        std::mem::size_of::<CInt>(),
    )
}

/// `PACKET_IGNORE_OUTGOING`: the socket stops receiving looped-back
/// copies of its host's own transmissions. Best-effort (kernels
/// before 4.20 lack it) — receivers must still filter
/// `PACKET_OUTGOING` by `sll_pkttype`, this just keeps the junk out
/// of the ring/queue in the first place.
pub fn set_ignore_outgoing(fd: CInt) -> io::Result<()> {
    let one: CInt = 1;
    set_opt(
        fd,
        PACKET_IGNORE_OUTGOING,
        (&one as *const CInt).cast(),
        std::mem::size_of::<CInt>(),
    )
}

/// `PACKET_RX_RING` with a TPACKET_V3 geometry: `block_count` blocks
/// of `block_size` bytes, retire timeout `retire_ms` (a partially
/// filled block is handed to user space after at most this long).
pub fn set_rx_ring_v3(
    fd: CInt,
    block_size: u32,
    block_count: u32,
    frame_size: u32,
    retire_ms: u32,
) -> io::Result<()> {
    let req = TpacketReq3 {
        tp_block_size: block_size,
        tp_block_nr: block_count,
        tp_frame_size: frame_size,
        tp_frame_nr: (block_size / frame_size) * block_count,
        tp_retire_blk_tov: retire_ms,
        tp_sizeof_priv: 0,
        tp_feature_req_word: 0,
    };
    set_opt(
        fd,
        PACKET_RX_RING,
        (&req as *const TpacketReq3).cast(),
        std::mem::size_of::<TpacketReq3>(),
    )
}

/// `PACKET_TX_RING` with a V2 geometry: fixed `frame_size` slots.
pub fn set_tx_ring_v2(
    fd: CInt,
    block_size: u32,
    block_count: u32,
    frame_size: u32,
) -> io::Result<()> {
    let req = TpacketReq {
        tp_block_size: block_size,
        tp_block_nr: block_count,
        tp_frame_size: frame_size,
        tp_frame_nr: (block_size / frame_size) * block_count,
    };
    set_opt(
        fd,
        PACKET_TX_RING,
        (&req as *const TpacketReq).cast(),
        std::mem::size_of::<TpacketReq>(),
    )
}

/// `PACKET_STATISTICS`: kernel-side `(received, dropped, queue
/// freezes)` counters for the socket since the last read (the kernel
/// resets them on read — callers accumulate).
pub fn ring_stats(fd: CInt) -> io::Result<(u64, u64, u64)> {
    let mut st = TpacketStatsV3 {
        tp_packets: 0,
        tp_drops: 0,
        tp_freeze_q_cnt: 0,
    };
    let mut len = std::mem::size_of::<TpacketStatsV3>() as u32;
    // SAFETY: `st`/`len` are valid for the call; the kernel writes at
    // most `len` bytes (8 for V1/V2 sockets, 12 for V3 — both fit).
    let rc = unsafe {
        getsockopt(
            fd,
            SOL_PACKET,
            PACKET_STATISTICS,
            (&mut st as *mut TpacketStatsV3).cast(),
            &mut len,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((
        st.tp_packets as u64,
        st.tp_drops as u64,
        st.tp_freeze_q_cnt as u64,
    ))
}

/// Block until `fd` is readable or `timeout_ms` elapses. Returns
/// whether it became readable. Used by tests to wait out a block
/// retire timeout without busy-spinning; the backends themselves
/// never block.
pub fn wait_readable(fd: CInt, timeout_ms: i32) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `pfd` is a valid pollfd array of length 1 for the
    // call's duration.
    let rc = unsafe { poll(&mut pfd, 1, timeout_ms) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc > 0 && (pfd.revents & POLLIN) != 0)
}

/// A shared memory mapping over a packet socket's ring(s), unmapped on
/// drop. All access is bounds-checked; the status-word accessors are
/// volatile because the kernel writes the same addresses concurrently.
///
/// The only way to form a byte slice over ring memory is
/// [`RingMap::bytes`]; its contract (the caller holds a user-owned
/// block whose descriptor has been validated) is the trusted boundary
/// documented in `docs/ARCHITECTURE.md`.
#[derive(Debug)]
pub struct RingMap {
    base: *mut u8,
    len: usize,
}

// SAFETY: the mapping is exclusively owned by this handle (the kernel
// is the other party of the explicit status-word handoff protocol);
// moving the handle to another thread moves that ownership with it.
unsafe impl Send for RingMap {}

impl RingMap {
    /// `mmap(PROT_READ|PROT_WRITE, MAP_SHARED)` over `len` bytes of
    /// `fd`'s ring. The kernel requires `len` to equal the configured
    /// ring sizes (RX ring first, then TX, when both are set).
    pub fn map_ring(fd: CInt, len: usize) -> io::Result<RingMap> {
        // SAFETY: NULL addr + MAP_SHARED is the standard "kernel picks
        // the address" form; the result is checked against MAP_FAILED
        // before use.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            )
        };
        if base as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(RingMap { base, len })
    }

    /// Mapping length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Volatile `u32` read at byte offset `off` (native endianness —
    /// the kernel writes descriptors in host order). `None` when the
    /// read would leave the mapping or is misaligned.
    pub fn u32_at(&self, off: usize) -> Option<u32> {
        if !off.is_multiple_of(4) || off.checked_add(4)? > self.len {
            return None;
        }
        // SAFETY: in-bounds and 4-aligned per the check above; volatile
        // because the kernel may write this word concurrently (status
        // handoff), and a torn read of a 32-bit aligned word cannot
        // occur on supported targets.
        Some(unsafe { (self.base.add(off) as *const u32).read_volatile() })
    }

    /// Volatile `u32` write at byte offset `off`. Returns `false`
    /// (writing nothing) when out of bounds or misaligned.
    pub fn set_u32(&mut self, off: usize, v: u32) -> bool {
        if !off.is_multiple_of(4) || off + 4 > self.len {
            return false;
        }
        // SAFETY: in-bounds and aligned per the check; volatile for
        // the same handoff reason as `u32_at`.
        unsafe { (self.base.add(off) as *mut u32).write_volatile(v) };
        true
    }

    /// `u16` read at `off` (2-aligned, bounds-checked).
    pub fn u16_at(&self, off: usize) -> Option<u16> {
        if !off.is_multiple_of(2) || off.checked_add(2)? > self.len {
            return None;
        }
        // SAFETY: in-bounds and 2-aligned per the check above.
        Some(unsafe { (self.base.add(off) as *const u16).read_volatile() })
    }

    /// `u8` read at `off` (bounds-checked).
    pub fn u8_at(&self, off: usize) -> Option<u8> {
        if off >= self.len {
            return None;
        }
        // SAFETY: in-bounds per the check above.
        Some(unsafe { self.base.add(off).read_volatile() })
    }

    /// A byte slice over `[off, off+len)` of the mapping.
    ///
    /// Contract (the trusted boundary): the caller must only call this
    /// for regions inside a block the kernel has handed to user space
    /// (`TP_STATUS_USER` observed on that block's status word) and
    /// whose descriptor offsets have been validated — the kernel does
    /// not write user-owned blocks, so the slice is stable until the
    /// block is released.
    pub fn bytes(&self, off: usize, len: usize) -> Option<&[u8]> {
        let end = off.checked_add(len)?;
        if end > self.len {
            return None;
        }
        // SAFETY: in-bounds per the check; stability of the region is
        // the documented caller contract above.
        Some(unsafe { std::slice::from_raw_parts(self.base.add(off), len) })
    }

    /// Copy `src` into the mapping at `off`. Returns `false` (writing
    /// nothing) when it would not fit. Used to fill TX slots the
    /// backend owns (status `TP_STATUS_AVAILABLE`).
    pub fn write_bytes(&mut self, off: usize, src: &[u8]) -> bool {
        let Some(end) = off.checked_add(src.len()) else {
            return false;
        };
        if end > self.len {
            return false;
        }
        // SAFETY: in-bounds per the check; the caller owns the slot
        // per the status handoff, so the kernel is not reading it.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base.add(off), src.len());
        }
        true
    }
}

impl Drop for RingMap {
    fn drop(&mut self) {
        // SAFETY: base/len are exactly what mmap returned; unmapping
        // on drop is the leak-free teardown the tests pin down. Errors
        // are ignored like stdlib File close.
        unsafe { munmap(self.base, self.len) };
    }
}
