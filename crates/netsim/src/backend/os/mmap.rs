//! [`MmapBackend`]: the zero-copy `AF_PACKET` transport — a
//! `TPACKET_V3` RX block ring and a `TPACKET_V2` TX frame ring shared
//! with the kernel via `mmap`.
//!
//! ## RX: block-granular handoff, zero syscalls
//!
//! The kernel fills fixed-size *blocks* of the shared ring with
//! variable-size frames and flips each block's status word to
//! `TP_STATUS_USER` when it is full (or when the `retire_blk_tov`
//! timeout expires on a partial block). [`MmapBackend::pump_rx`] walks
//! user-owned blocks in place: every frame descriptor is validated by
//! `walk_block` *before* any byte slice over ring memory is formed,
//! each valid frame is admitted through the backend's
//! [`PortLedger`] (the one the sim backend is built on), and the
//! block is released back to the kernel with a single volatile status
//! write. Steady-state RX therefore costs no syscalls and no
//! per-frame copies beyond the one admission copy into the
//! [`Mempool`] (which every backend pays — the verified NAT operates
//! on pool frames).
//!
//! ## TX: fill at `tx_put`, one kick per batch
//!
//! [`MmapBackend::tx_put`] copies the outgoing frame into the next
//! `TP_STATUS_AVAILABLE` slot of the V2 TX ring *immediately* — while
//! the bytes are still cache-hot from `process_burst` — and marks it
//! `TP_STATUS_SEND_REQUEST` (deferring the copy to `flush_tx` was
//! measured ~6x slower per frame: by flush time the frames have left
//! L1). `flush_tx` then issues one zero-length `send` per port with
//! pending slots — the kernel walks the ring and transmits every
//! requested slot (with `PACKET_QDISC_BYPASS` where available) — and
//! reaps completions off the same status words: a slot returning to
//! `TP_STATUS_AVAILABLE` was accepted (counted as `tx`/`tx_bytes` at
//! that point, per the module-level TX-attribution rule), one marked
//! `TP_STATUS_WRONG_FORMAT` was refused (a `tx_error`; the slot is
//! reclaimed). One syscall flushes a whole batch.
//!
//! ## Why two sockets per port
//!
//! A packet socket has one `PACKET_VERSION`, and V3 TX rings are not a
//! kernel feature combination worth trusting (V3 is RX-oriented);
//! each port therefore uses an RX socket (`ETH_P_ALL`, V3 RX ring)
//! and a TX socket (protocol 0 — never receives — with a V2 TX
//! ring). Both bind the same interface.
//!
//! ## Overrun and teardown
//!
//! When the NF falls behind, the kernel drops frames *outside* the
//! ring (counted via `PACKET_STATISTICS`, surfaced as
//! [`WireBackend::kernel_drops`]);
//! ring state is never corrupted — the overrun conformance test
//! floods the wire and asserts exactly that. Teardown unmaps both
//! rings and closes both sockets per port (`sys::RingMap` unmaps on
//! drop); the leak test opens and drops backends in a loop and pins
//! fd-table and mapping counts flat.

use super::sys;
use super::{PacketIo, WireBackend, PACKET_OUTGOING};
use crate::backend::PortLedger;
use crate::dpdk::{BufIdx, Mempool, PortStats, MBUF_SIZE};
use crate::frame_env::RssClassifier;
use std::collections::VecDeque;
use std::io;
use vig_packet::Direction;

// ---- tpacket descriptor layout (linux/if_packet.h) ----------------

/// Block descriptor: `block_status` offset within `tpacket_block_desc`.
const BLK_STATUS: usize = 8;
/// Block descriptor: `num_pkts`.
const BLK_NUM_PKTS: usize = 12;
/// Block descriptor: `offset_to_first_pkt`.
const BLK_FIRST_PKT: usize = 16;

/// `tpacket3_hdr.tp_next_offset` (relative to the frame).
const T3_NEXT: usize = 0;
/// `tpacket3_hdr.tp_snaplen` — bytes captured into the ring.
const T3_SNAPLEN: usize = 12;
/// `tpacket3_hdr.tp_len` — bytes on the wire.
const T3_LEN: usize = 16;
/// `tpacket3_hdr.tp_mac` (u16) — frame-relative offset of the MAC
/// header, i.e. of the packet data.
const T3_MAC: usize = 24;
/// `sizeof(struct tpacket3_hdr)`, already 16-byte aligned.
const T3_HDRLEN: usize = 48;
/// `sll_pkttype` within the `sockaddr_ll` the kernel stores right
/// after the frame header.
const T3_PKTTYPE: usize = T3_HDRLEN + 10;

/// Block owned by user space (`TP_STATUS_USER`).
const STATUS_USER: u32 = 1;
/// Block/slot owned by the kernel (`TP_STATUS_KERNEL` /
/// `TP_STATUS_AVAILABLE` — both are 0).
const STATUS_KERNEL: u32 = 0;
/// TX slot queued for transmission (`TP_STATUS_SEND_REQUEST`); the
/// kernel moves an accepted slot through `TP_STATUS_SENDING` (2) back
/// to 0.
const STATUS_SEND_REQUEST: u32 = 1;
/// TX slot the kernel refused (`TP_STATUS_WRONG_FORMAT`).
const STATUS_WRONG_FORMAT: u32 = 4;

/// V2 TX slot: `tpacket2_hdr.tp_status`.
const T2_STATUS: usize = 0;
/// V2 TX slot: `tpacket2_hdr.tp_len`.
const T2_LEN: usize = 4;
/// Frame data offset within a V2 TX slot:
/// `TPACKET2_HDRLEN(52) - sizeof(sockaddr_ll)(20)` — the kernel reads
/// packet bytes from here when no per-send address is given.
const TX_DATA_OFF: usize = 32;

/// Ring geometry for one [`MmapBackend`] port. The defaults fit the
/// conformance and RFC 2544 workloads on a veth wire: 512 KiB of RX
/// ring (64 × 8 KiB blocks), 1 ms block retire so partial blocks
/// reach the walker promptly, and 64 TX slots of 4 KiB (a slot holds
/// the 32-byte V2 header plus a full [`MBUF_SIZE`] frame).
#[derive(Debug, Clone, Copy)]
pub struct MmapRingConfig {
    /// RX block size in bytes (must be a multiple of the page size).
    pub rx_block_size: u32,
    /// RX block count.
    pub rx_block_count: u32,
    /// RX frame-size hint (V3 packs variable frames; the kernel only
    /// requires `block_size % frame_size == 0`).
    pub rx_frame_size: u32,
    /// Partial-block retire timeout, milliseconds.
    pub retire_ms: u32,
    /// TX slot size in bytes (≥ `TX_DATA_OFF + MBUF_SIZE`).
    pub tx_frame_size: u32,
    /// TX block size in bytes (must be a multiple of the page size).
    pub tx_block_size: u32,
    /// TX block count.
    pub tx_block_count: u32,
}

impl Default for MmapRingConfig {
    fn default() -> MmapRingConfig {
        MmapRingConfig {
            // 8 KiB blocks fill after ~50 minimum-size frames (each
            // costs ~160 B of ring: 48 B header + sockaddr + padding
            // + data), so under sustained load with a ring-sized
            // in-flight window blocks retire by *filling* rather than
            // by the millisecond retire timer — the timer is only the
            // latency bound for trailing partial blocks. 8 KiB beat
            // both 4 KiB (too many handoffs) and 16 KiB (half-window
            // bursts strand frames in unfilled blocks) on the veth
            // RFC 2544 rig.
            rx_block_size: 8 * 1024,
            rx_block_count: 64,
            rx_frame_size: 2048,
            retire_ms: 1,
            tx_frame_size: 4096,
            tx_block_size: 32 * 1024,
            tx_block_count: 8,
        }
    }
}

impl MmapRingConfig {
    fn rx_map_len(&self) -> usize {
        self.rx_block_size as usize * self.rx_block_count as usize
    }

    fn tx_map_len(&self) -> usize {
        self.tx_block_size as usize * self.tx_block_count as usize
    }

    fn tx_slots(&self) -> usize {
        self.tx_map_len() / self.tx_frame_size as usize
    }
}

/// Ring-transport counters a [`MmapBackend`] port accumulates —
/// the mmap-specific honesty ledger next to the generic [`PortStats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RingCounters {
    /// Frames the kernel dropped before they reached the ring
    /// (`PACKET_STATISTICS`, accumulated).
    pub kernel_drops: u64,
    /// RX queue freezes (`tp_freeze_q_cnt`): the ring ran out of
    /// kernel-owned blocks and RX paused until one was released.
    pub freezes: u64,
    /// Frames whose ring capture was shorter than the wire frame
    /// (`tp_snaplen < tp_len`) or longer than [`MBUF_SIZE`] —
    /// admitted truncated, counted here.
    pub truncated: u64,
    /// Blocks whose descriptors failed validation; the walk stops at
    /// the first bad descriptor and the block is released (frames
    /// before the corruption were already admitted).
    pub malformed_blocks: u64,
    /// TX-ring kick syscalls that failed outright (the queued slots
    /// stay `SEND_REQUEST` and are retried on the next flush).
    pub kick_errors: u64,
}

/// Read access to ring memory, as the block walker needs it. Two
/// implementors: [`sys::RingMap`] (the live kernel-shared mapping,
/// volatile and bounds-checked) and plain byte slices (synthetic
/// block images, so descriptor validation is unit-testable without
/// `CAP_NET_RAW`).
pub(crate) trait RingMem {
    /// `u8` at `off`, `None` out of bounds.
    fn u8_at(&self, off: usize) -> Option<u8>;
    /// Native-endian `u16` at `off`, `None` out of bounds/misaligned.
    fn u16_at(&self, off: usize) -> Option<u16>;
    /// Native-endian `u32` at `off`, `None` out of bounds/misaligned.
    fn u32_at(&self, off: usize) -> Option<u32>;
    /// Byte slice over `[off, off+len)`, `None` out of bounds.
    fn bytes(&self, off: usize, len: usize) -> Option<&[u8]>;
}

impl RingMem for sys::RingMap {
    fn u8_at(&self, off: usize) -> Option<u8> {
        sys::RingMap::u8_at(self, off)
    }
    fn u16_at(&self, off: usize) -> Option<u16> {
        sys::RingMap::u16_at(self, off)
    }
    fn u32_at(&self, off: usize) -> Option<u32> {
        sys::RingMap::u32_at(self, off)
    }
    fn bytes(&self, off: usize, len: usize) -> Option<&[u8]> {
        sys::RingMap::bytes(self, off, len)
    }
}

impl RingMem for [u8] {
    fn u8_at(&self, off: usize) -> Option<u8> {
        self.get(off).copied()
    }
    fn u16_at(&self, off: usize) -> Option<u16> {
        if !off.is_multiple_of(2) {
            return None;
        }
        let b = self.get(off..off + 2)?;
        Some(u16::from_ne_bytes([b[0], b[1]]))
    }
    fn u32_at(&self, off: usize) -> Option<u32> {
        if !off.is_multiple_of(4) {
            return None;
        }
        let b = self.get(off..off + 4)?;
        Some(u32::from_ne_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn bytes(&self, off: usize, len: usize) -> Option<&[u8]> {
        self.get(off..off.checked_add(len)?)
    }
}

/// One validated frame inside a user-owned RX block: ring offsets a
/// caller may safely slice (the walker has already bounds-checked
/// them against the block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalkedFrame {
    /// Ring offset of the packet data (`frame + tp_mac`).
    pub data_off: usize,
    /// Captured length (`tp_snaplen`).
    pub snaplen: usize,
    /// On-the-wire length (`tp_len`; `> snaplen` means the kernel
    /// truncated the capture).
    pub wire_len: usize,
    /// `sll_pkttype` (filter [`PACKET_OUTGOING`]).
    pub pkttype: u8,
}

/// Outcome of walking one block's descriptors.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct BlockWalk {
    /// Frames that validated (appended to the caller's vec).
    pub frames: usize,
    /// A descriptor failed validation; the walk stopped there.
    pub malformed: bool,
}

/// An upper bound on plausible frames per block: a V3 frame costs at
/// least its 48-byte header plus the 20-byte `sockaddr_ll`, 16-byte
/// aligned. A `num_pkts` beyond this is a corrupt descriptor, not a
/// busy block.
fn max_frames_in(block_size: usize) -> usize {
    block_size / 64
}

/// Validate and enumerate the frames of the RX block at `block_off`
/// (size `block_size`) into `out`. **This is the trusted boundary's
/// gate**: every offset/length pair pushed to `out` has been checked
/// to lie inside the block, so slicing ring memory at a
/// [`WalkedFrame`] cannot read outside the mapping — and a corrupt
/// descriptor (offsets escaping the block, a non-advancing
/// `tp_next_offset`, an absurd `num_pkts`) stops the walk with
/// `malformed` set instead of ever forming a slice. Unit-tested on
/// synthetic block images below; the kernel, of course, writes only
/// well-formed blocks.
pub(crate) fn walk_block<R: RingMem + ?Sized>(
    ring: &R,
    block_off: usize,
    block_size: usize,
    out: &mut Vec<WalkedFrame>,
) -> BlockWalk {
    let mut walk = BlockWalk::default();
    let block_end = match block_off.checked_add(block_size) {
        Some(e) => e,
        None => {
            walk.malformed = true;
            return walk;
        }
    };
    let (Some(num_pkts), Some(first_off)) = (
        ring.u32_at(block_off + BLK_NUM_PKTS),
        ring.u32_at(block_off + BLK_FIRST_PKT),
    ) else {
        walk.malformed = true;
        return walk;
    };
    let num_pkts = num_pkts as usize;
    if num_pkts > max_frames_in(block_size) {
        walk.malformed = true;
        return walk;
    }
    let mut cur = match block_off.checked_add(first_off as usize) {
        Some(c) => c,
        None => {
            walk.malformed = true;
            return walk;
        }
    };
    for i in 0..num_pkts {
        // The whole frame header (+ the sockaddr_ll holding pkttype)
        // must fit in the block before any field is read.
        if cur < block_off || cur + T3_PKTTYPE >= block_end {
            walk.malformed = true;
            return walk;
        }
        let (Some(next), Some(snaplen), Some(wire_len), Some(mac), Some(pkttype)) = (
            ring.u32_at(cur + T3_NEXT),
            ring.u32_at(cur + T3_SNAPLEN),
            ring.u32_at(cur + T3_LEN),
            ring.u16_at(cur + T3_MAC),
            ring.u8_at(cur + T3_PKTTYPE),
        ) else {
            walk.malformed = true;
            return walk;
        };
        let data_off = cur + mac as usize;
        let Some(data_end) = data_off.checked_add(snaplen as usize) else {
            walk.malformed = true;
            return walk;
        };
        if (mac as usize) < T3_HDRLEN || data_end > block_end {
            // Data escaping the block (e.g. a descriptor claiming a
            // frame that crosses the block boundary) never becomes a
            // slice.
            walk.malformed = true;
            return walk;
        }
        out.push(WalkedFrame {
            data_off,
            snaplen: snaplen as usize,
            wire_len: wire_len as usize,
            pkttype,
        });
        walk.frames += 1;
        if i + 1 < num_pkts {
            // tp_next_offset must advance past this frame's header;
            // 0 or a tiny value here would loop forever.
            if (next as usize) < T3_HDRLEN {
                walk.malformed = true;
                return walk;
            }
            cur += next as usize;
        }
    }
    walk
}

/// Admit the frames of the user-owned RX block `block` (ring offsets)
/// on port `dir`: walk it into the `walked` scratch, skip the
/// socket's own looped-back transmissions, count truncated captures,
/// clamp each frame to [`MBUF_SIZE`], log it when `rx_log` is on, and
/// hand it to `ledger`. Returns how many frames the ledger admitted.
/// Generic over [`RingMem`] so a synthetic block image exercises the
/// same path as the live mapping.
fn admit_block<R: RingMem + ?Sized>(
    ring: &R,
    block: std::ops::Range<usize>,
    dir: Direction,
    walked: &mut Vec<WalkedFrame>,
    counters: &mut RingCounters,
    ledger: &mut PortLedger,
    rx_log: &mut Option<Vec<(Direction, Vec<u8>)>>,
) -> usize {
    walked.clear();
    if walk_block(ring, block.start, block.len(), walked).malformed {
        counters.malformed_blocks += 1;
    }
    let mut admitted = 0;
    for wf in walked.iter() {
        if wf.pkttype == PACKET_OUTGOING {
            continue; // our own transmission, looped back
        }
        let take = wf.snaplen.min(MBUF_SIZE);
        if wf.snaplen < wf.wire_len || wf.wire_len > MBUF_SIZE {
            counters.truncated += 1;
        }
        // The walker validated [data_off, data_off+snaplen) against
        // the block, so this slice cannot fail.
        let Some(frame) = ring.bytes(wf.data_off, take) else {
            continue;
        };
        if let Some(log) = rx_log {
            log.push((dir, frame.to_vec()));
        }
        if ledger.admit(dir, frame).is_some() {
            admitted += 1;
        }
    }
    admitted
}

/// One port of the mmap backend: RX ring socket + TX ring socket on
/// the same interface, their mappings, and the ring-transport
/// counters. The per-queue FIFOs and stats are the backend's
/// [`PortLedger`].
///
/// Field order matters for drop: mappings unmap before their sockets
/// close.
struct MmapPort {
    rx_map: sys::RingMap,
    tx_map: sys::RingMap,
    rx_sock: super::RawSocket,
    tx_sock: super::RawSocket,
    /// Next RX block to inspect.
    cur_block: u32,
    /// Next TX slot to fill.
    tx_head: usize,
    /// Filled-but-unreaped TX slots, oldest first: `(slot, q, bytes)`.
    tx_inflight: VecDeque<(usize, usize, usize)>,
    /// Slots marked `SEND_REQUEST` since the last kernel kick.
    unkicked: usize,
    counters: RingCounters,
    /// Scratch for the per-block frame walk (no steady-state allocs).
    walked: Vec<WalkedFrame>,
}

impl MmapPort {
    fn open(ifname: &str, rc: &MmapRingConfig) -> io::Result<MmapPort> {
        let idx = sys::ifindex(ifname)?;

        // RX: V3 block ring on an ETH_P_ALL socket.
        let rx_sock = super::RawSocket::from_fd(sys::open_raw(sys::ETH_P_ALL_BE)?, ifname);
        // Best effort: keeps looped-back copies of our own
        // transmissions out of the ring; the walker's pkttype filter
        // still guards against them on kernels without the option.
        let _ = sys::set_ignore_outgoing(rx_sock.fd());
        sys::set_packet_version(rx_sock.fd(), sys::TPACKET_V3)?;
        sys::set_rx_ring_v3(
            rx_sock.fd(),
            rc.rx_block_size,
            rc.rx_block_count,
            rc.rx_frame_size,
            rc.retire_ms,
        )?;
        sys::bind_to(rx_sock.fd(), idx, sys::ETH_P_ALL_BE)?;
        let rx_map = sys::RingMap::map_ring(rx_sock.fd(), rc.rx_map_len())?;

        // TX: V2 slot ring on a protocol-0 socket (receives nothing).
        let tx_sock = super::RawSocket::from_fd(sys::open_raw(0)?, ifname);
        sys::set_packet_version(tx_sock.fd(), sys::TPACKET_V2)?;
        sys::set_tx_ring_v2(
            tx_sock.fd(),
            rc.tx_block_size,
            rc.tx_block_count,
            rc.tx_frame_size,
        )?;
        // Best effort: absent on old kernels, and the ring works
        // (slower) without it.
        let _ = sys::set_qdisc_bypass(tx_sock.fd());
        sys::bind_to(tx_sock.fd(), idx, 0)?;
        let tx_map = sys::RingMap::map_ring(tx_sock.fd(), rc.tx_map_len())?;
        debug_assert_eq!(rx_map.len(), rc.rx_map_len());
        debug_assert_eq!(tx_map.len(), rc.tx_map_len());

        Ok(MmapPort {
            rx_map,
            tx_map,
            rx_sock,
            tx_sock,
            cur_block: 0,
            tx_head: 0,
            tx_inflight: VecDeque::with_capacity(rc.tx_slots()),
            unkicked: 0,
            counters: RingCounters::default(),
            walked: Vec::with_capacity(max_frames_in(rc.rx_block_size as usize)),
        })
    }

    /// Fold the kernel's since-last-read RX counters into ours.
    fn accumulate_kernel_stats(&mut self) {
        if let Ok((_, drops, freezes)) = sys::ring_stats(self.rx_sock.fd()) {
            self.counters.kernel_drops += drops;
            self.counters.freezes += freezes;
        }
    }

    /// Reap completed TX slots from the front of the inflight queue:
    /// `AVAILABLE` → transmitted (count it), `WRONG_FORMAT` → refused
    /// (tx_error, reclaim the slot), `SEND_REQUEST`/`SENDING` → still
    /// the kernel's; stop there. Returns frames confirmed sent.
    fn reap_tx(
        &mut self,
        tx_frame_size: usize,
        dir: Direction,
        ledger: &mut PortLedger,
        tx_errors: &mut u64,
    ) -> usize {
        let mut sent = 0;
        while let Some(&(slot, q, bytes)) = self.tx_inflight.front() {
            let off = slot * tx_frame_size;
            match self.tx_map.u32_at(off + T2_STATUS) {
                Some(STATUS_KERNEL) => {
                    ledger.count_tx(dir, q, bytes);
                    sent += 1;
                    self.tx_inflight.pop_front();
                }
                Some(STATUS_WRONG_FORMAT) => {
                    *tx_errors += 1;
                    self.tx_map.set_u32(off + T2_STATUS, STATUS_KERNEL);
                    self.tx_inflight.pop_front();
                }
                // STATUS_SEND_REQUEST / SENDING: still in flight.
                _ => break,
            }
        }
        sent
    }
}

/// The zero-copy mmap-ring backend. See module docs.
pub struct MmapBackend {
    ledger: PortLedger,
    ring_cfg: MmapRingConfig,
    /// Indexed by `Direction as usize`.
    ports: [MmapPort; 2],
    /// RX blocks processed per `pump_rx` call — one full ring pass, so
    /// a flooded wire cannot wedge the driver.
    pump_blocks: u32,
    rx_log: Option<Vec<(Direction, Vec<u8>)>>,
    rx_errors: u64,
    tx_errors: u64,
}

impl MmapBackend {
    /// Open the backend on two interfaces with ring geometry `rc`.
    /// `ring_size` sizes the per-queue software FIFOs and the pool,
    /// identically to the sim backend. Needs `CAP_NET_RAW`.
    pub fn open(
        int_if: &str,
        ext_if: &str,
        classifier: RssClassifier,
        ring_size: usize,
        rc: MmapRingConfig,
    ) -> io::Result<MmapBackend> {
        if (rc.tx_frame_size as usize) < TX_DATA_OFF + MBUF_SIZE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "tx_frame_size must hold the V2 header plus a full mbuf",
            ));
        }
        Ok(MmapBackend {
            ledger: PortLedger::new(classifier, ring_size),
            ports: [MmapPort::open(int_if, &rc)?, MmapPort::open(ext_if, &rc)?],
            ring_cfg: rc,
            pump_blocks: rc.rx_block_count,
            rx_log: None,
            rx_errors: 0,
            tx_errors: 0,
        })
    }

    /// TX slots handed to the kernel and not yet confirmed, both
    /// ports. Zero after a quiescent flush — teardown tests pin this.
    pub fn tx_inflight(&self) -> usize {
        self.ports.iter().map(|p| p.tx_inflight.len()).sum()
    }

    /// Block until port `dir`'s RX ring has a user-owned block or
    /// `timeout_ms` elapses (the retire timeout makes even a partial
    /// block arrive within `retire_ms`). Returns whether one arrived.
    /// For tests that wait out the block-retire timeout without busy
    /// spinning; the driver itself never blocks.
    pub fn wait_rx(&self, dir: Direction, timeout_ms: i32) -> io::Result<bool> {
        sys::wait_readable(self.ports[dir as usize].rx_sock.fd(), timeout_ms)
    }
}

impl WireBackend for MmapBackend {
    fn classifier(&self) -> RssClassifier {
        self.ledger.classifier()
    }

    fn set_rx_log(&mut self, on: bool) {
        self.rx_log = if on { Some(Vec::new()) } else { None };
    }

    fn take_rx_log(&mut self) -> Vec<(Direction, Vec<u8>)> {
        self.rx_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn rx_errors(&self) -> u64 {
        self.rx_errors
    }

    fn tx_errors(&self) -> u64 {
        self.tx_errors
    }

    fn kernel_drops(&mut self) -> u64 {
        let mut drops = 0;
        for port in &mut self.ports {
            port.accumulate_kernel_stats();
            drops += port.counters.kernel_drops;
        }
        drops
    }

    fn io_retries(&self) -> super::IoRetryStats {
        self.ports
            .iter()
            .flat_map(|p| [p.rx_sock.retry_stats(), p.tx_sock.retry_stats()])
            .fold(super::IoRetryStats::default(), |a, s| super::IoRetryStats {
                eintr_retries: a.eintr_retries + s.eintr_retries,
                enobufs_backoffs: a.enobufs_backoffs + s.enobufs_backoffs,
            })
    }
}

impl PacketIo for MmapBackend {
    fn queue_count(&self) -> usize {
        self.ledger.queue_count()
    }

    fn pool(&self) -> &Mempool {
        self.ledger.pool()
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        self.ledger.pool_mut()
    }

    /// Walk user-owned RX blocks in place — no syscalls — admitting
    /// every validated frame and releasing each block back to the
    /// kernel. At most one full ring pass per call.
    fn pump_rx(&mut self) -> usize {
        let mut admitted = 0;
        let block_size = self.ring_cfg.rx_block_size as usize;
        let block_count = self.ring_cfg.rx_block_count;
        for dir in [Direction::Internal, Direction::External] {
            let port = &mut self.ports[dir as usize];
            for _ in 0..self.pump_blocks {
                let block_off = port.cur_block as usize * block_size;
                let Some(status) = port.rx_map.u32_at(block_off + BLK_STATUS) else {
                    break;
                };
                if status & STATUS_USER == 0 {
                    break; // kernel still owns it: ring drained
                }
                admitted += admit_block(
                    &port.rx_map,
                    block_off..block_off + block_size,
                    dir,
                    &mut port.walked,
                    &mut port.counters,
                    &mut self.ledger,
                    &mut self.rx_log,
                );
                // Hand the block back: after this volatile write the
                // kernel may refill it, and no slice into it survives
                // (the admission copies above are complete).
                port.rx_map.set_u32(block_off + BLK_STATUS, STATUS_KERNEL);
                port.cur_block = (port.cur_block + 1) % block_count;
            }
        }
        admitted
    }

    fn rx_len(&self, dir: Direction, q: usize) -> usize {
        self.ledger.rx_len(dir, q)
    }

    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        self.ledger.rx_burst(dir, q, max, out)
    }

    /// Copy the frame into the next TX-ring slot *now*, while its
    /// bytes are still cache-hot from `process_burst`, and mark it
    /// `SEND_REQUEST`; the kernel is kicked in batches by `flush_tx`.
    /// Returns `false` when no slot is available (ring full or an
    /// unreaped tail) — the driver flushes and retries, exactly the
    /// full-FIFO contract of the sim backend. `tx`/`tx_bytes` are
    /// counted when the kernel confirms the slot (see module docs,
    /// "TX attribution").
    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool {
        let tx_frame_size = self.ring_cfg.tx_frame_size as usize;
        let tx_slots = self.ring_cfg.tx_slots();
        let port = &mut self.ports[dir as usize];
        if port.tx_inflight.len() >= tx_slots {
            return false;
        }
        let slot = port.tx_head;
        let off = slot * tx_frame_size;
        // A slot not yet AVAILABLE means we caught up with an
        // unreaped tail.
        if port.tx_map.u32_at(off + T2_STATUS) != Some(STATUS_KERNEL) {
            return false;
        }
        let pool = self.ledger.pool_mut();
        let frame = pool.frame(buf);
        let bytes = frame.len();
        port.tx_map.write_bytes(off + TX_DATA_OFF, frame);
        port.tx_map.set_u32(off + T2_LEN, bytes as u32);
        // Publish last: the kernel owns the slot once the status word
        // says SEND_REQUEST.
        port.tx_map.set_u32(off + T2_STATUS, STATUS_SEND_REQUEST);
        pool.put(buf);
        port.tx_inflight.push_back((slot, q, bytes));
        port.tx_head = (port.tx_head + 1) % tx_slots;
        port.unkicked += 1;
        true
    }

    /// Kick the kernel once per port with pending `SEND_REQUEST` slots
    /// (the slots themselves were filled at [`PacketIo::tx_put`] time)
    /// and reap completions. Returns frames confirmed transmitted by
    /// this call.
    fn flush_tx(&mut self) -> usize {
        let tx_frame_size = self.ring_cfg.tx_frame_size as usize;
        let mut sent = 0;
        for dir in [Direction::Internal, Direction::External] {
            let port = &mut self.ports[dir as usize];
            if port.unkicked > 0 {
                port.unkicked = 0;
                // One syscall transmits the whole batch.
                if port.tx_sock.kick_tx_ring().is_err() {
                    port.counters.kick_errors += 1;
                }
            }
            sent += port.reap_tx(tx_frame_size, dir, &mut self.ledger, &mut self.tx_errors);
        }
        sent
    }

    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.ledger.queue_stats(dir, q)
    }
}

// ----------------------------------------------------------------
// Synthetic-ring tests: descriptor validation without CAP_NET_RAW.
// A block image is a plain Vec<u8> laid out exactly as the kernel
// lays out a TPACKET_V3 block; the walker must accept well-formed
// images and refuse every corruption without forming a slice.
// ----------------------------------------------------------------
#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 4096;

    fn put32(img: &mut [u8], off: usize, v: u32) {
        img[off..off + 4].copy_from_slice(&v.to_ne_bytes());
    }

    fn put16(img: &mut [u8], off: usize, v: u16) {
        img[off..off + 2].copy_from_slice(&v.to_ne_bytes());
    }

    /// Append one frame at `cur` with payload `data`; returns the
    /// 16-byte-aligned offset of the next frame and writes it into
    /// this frame's `tp_next_offset`.
    fn lay_frame(img: &mut [u8], cur: usize, data: &[u8], wire_len: u32, pkttype: u8) -> usize {
        let mac = 80u16; // header 48 + sockaddr 20, aligned up
        put32(img, cur + T3_SNAPLEN, data.len() as u32);
        put32(img, cur + T3_LEN, wire_len);
        put16(img, cur + T3_MAC, mac);
        img[cur + T3_PKTTYPE] = pkttype;
        img[cur + mac as usize..cur + mac as usize + data.len()].copy_from_slice(data);
        let next = (mac as usize + data.len() + 15) & !15;
        put32(img, cur + T3_NEXT, next as u32);
        cur + next
    }

    /// A block image with the given frames, `num_pkts` in the
    /// descriptor, first frame at offset 48.
    fn block_with(frames: &[(&[u8], u32, u8)]) -> Vec<u8> {
        let mut img = vec![0u8; BLOCK];
        put32(&mut img, BLK_STATUS, STATUS_USER);
        put32(&mut img, BLK_NUM_PKTS, frames.len() as u32);
        put32(&mut img, BLK_FIRST_PKT, 48);
        let mut cur = 48;
        for &(data, wire_len, pkttype) in frames {
            cur = lay_frame(&mut img, cur, data, wire_len, pkttype);
        }
        img
    }

    #[test]
    fn walks_a_partial_block_exactly() {
        // Retire-timeout handoff: a block with room for dozens of
        // frames holds only two. The walker must report exactly those.
        let img = block_with(&[(&[0xaa; 60], 60, 0), (&[0xbb; 100], 100, 3)]);
        let mut out = Vec::new();
        let walk = walk_block(&img[..], 0, BLOCK, &mut out);
        assert_eq!(
            walk,
            BlockWalk {
                frames: 2,
                malformed: false
            }
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].snaplen, 60);
        assert_eq!(out[0].pkttype, 0);
        // Slice through the same RingMem accessor the live pump uses.
        let d0 = RingMem::bytes(&img[..], out[0].data_off, out[0].snaplen).unwrap();
        assert!(d0.iter().all(|&b| b == 0xaa));
        assert_eq!(out[1].snaplen, 100);
        assert_eq!(out[1].pkttype, 3);
        let d1 = RingMem::bytes(&img[..], out[1].data_off, out[1].snaplen).unwrap();
        assert!(d1.iter().all(|&b| b == 0xbb));
    }

    #[test]
    fn frame_data_crossing_the_block_boundary_is_refused() {
        // A descriptor claiming data that runs past the block end must
        // stop the walk before any slice is formed.
        let mut img = block_with(&[(&[0xcc; 64], 64, 0)]);
        put32(&mut img, 48 + T3_SNAPLEN, BLOCK as u32); // escapes block
        let mut out = Vec::new();
        let walk = walk_block(&img[..], 0, BLOCK, &mut out);
        assert!(walk.malformed);
        assert_eq!(out.len(), 0, "no frame survives a boundary escape");
    }

    #[test]
    fn truncated_capture_reports_both_lengths() {
        // snaplen < tp_len: the kernel captured less than the wire
        // frame. The walker surfaces both so the backend can count the
        // truncation and admit the captured prefix.
        let img = block_with(&[(&[0xdd; 128], 9000, 0)]);
        let mut out = Vec::new();
        let walk = walk_block(&img[..], 0, BLOCK, &mut out);
        assert_eq!(walk.frames, 1);
        assert_eq!(out[0].snaplen, 128);
        assert_eq!(out[0].wire_len, 9000);
        assert!(out[0].snaplen < out[0].wire_len);
    }

    #[test]
    fn absurd_num_pkts_is_a_malformed_block() {
        let mut img = block_with(&[(&[0xee; 60], 60, 0)]);
        put32(&mut img, BLK_NUM_PKTS, u32::MAX);
        let mut out = Vec::new();
        let walk = walk_block(&img[..], 0, BLOCK, &mut out);
        assert!(walk.malformed);
        assert_eq!(walk.frames, 0);
    }

    #[test]
    fn non_advancing_next_offset_terminates() {
        // tp_next_offset of 0 (or anything smaller than the header) on
        // a non-final frame would spin the walker forever; it must
        // bail as malformed instead — and in bounded time.
        let mut img = block_with(&[(&[0x11; 60], 60, 0), (&[0x22; 60], 60, 0)]);
        put32(&mut img, 48 + T3_NEXT, 0);
        let mut out = Vec::new();
        let walk = walk_block(&img[..], 0, BLOCK, &mut out);
        assert!(walk.malformed);
        assert_eq!(walk.frames, 1, "first frame itself is fine");
    }

    #[test]
    fn first_pkt_offset_escaping_the_block_is_refused() {
        let mut img = block_with(&[(&[0x33; 60], 60, 0)]);
        put32(&mut img, BLK_FIRST_PKT, BLOCK as u32);
        let mut out = Vec::new();
        let walk = walk_block(&img[..], 0, BLOCK, &mut out);
        assert!(walk.malformed);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn outgoing_frames_are_walked_with_their_pkttype() {
        // The pump filters PACKET_OUTGOING; the walker just reports it.
        let img = block_with(&[(&[0x44; 60], 60, PACKET_OUTGOING)]);
        let mut out = Vec::new();
        let walk = walk_block(&img[..], 0, BLOCK, &mut out);
        assert_eq!(walk.frames, 1);
        assert_eq!(out[0].pkttype, PACKET_OUTGOING);
    }

    #[test]
    fn block_admission_matches_the_sim_backend() {
        use crate::backend::{SimBackend, TesterIo};
        use crate::tester::FlowGen;
        use libvig::time::Time;
        use vig_packet::{Ip4, Proto};
        use vig_spec::NatConfig;

        let cfg = NatConfig {
            capacity: 64,
            expiry_ns: Time::from_secs(60).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1,
            ..NatConfig::paper_default()
        };
        let classifier = RssClassifier::for_nat(&cfg, 2);
        let gen = FlowGen::new(Proto::Udp);
        // Three frames of each of two flows: on 2-descriptor rings the
        // third frame of a flow finds its queue full.
        let frames: Vec<Vec<u8>> = [0, 0, 0, 1, 1, 1]
            .iter()
            .map(|&i| {
                let mut b = vec![0u8; MBUF_SIZE];
                let n = gen.write_frame(&gen.background(i), &mut b);
                b.truncate(n);
                b
            })
            .collect();
        let mut laid: Vec<(&[u8], u32, u8)> =
            frames.iter().map(|f| (&f[..], f.len() as u32, 0)).collect();
        laid[4].1 = 9000; // the kernel captured less than the wire frame
        laid.insert(2, (&frames[0][..], frames[0].len() as u32, PACKET_OUTGOING));
        let img = block_with(&laid);

        let mut ledger = PortLedger::new(classifier, 2);
        let mut counters = RingCounters::default();
        let mut rx_log = Some(Vec::new());
        let admitted = admit_block(
            &img[..],
            0..BLOCK,
            Direction::Internal,
            &mut Vec::new(),
            &mut counters,
            &mut ledger,
            &mut rx_log,
        );
        let mut sim = SimBackend::new(classifier, 2);
        for f in &frames {
            sim.stage(Direction::Internal, |b| {
                b[..f.len()].copy_from_slice(f);
                f.len()
            });
        }

        for dir in [Direction::Internal, Direction::External] {
            for q in 0..2 {
                assert_eq!(ledger.queue_stats(dir, q), sim.queue_stats(dir, q));
                let (mut wire_q, mut sim_q) = (Vec::new(), Vec::new());
                ledger.rx_burst(dir, q, 8, &mut wire_q);
                sim.rx_burst(dir, q, 8, &mut sim_q);
                let wire_frames: Vec<&[u8]> =
                    wire_q.iter().map(|&b| ledger.pool().frame(b)).collect();
                let sim_frames: Vec<&[u8]> = sim_q.iter().map(|&b| sim.pool().frame(b)).collect();
                assert_eq!(wire_frames, sim_frames, "port {dir:?} queue {q}");
            }
        }
        assert_eq!(ledger.pool().available(), sim.pool_available());
        let stats = sim.port_stats(Direction::Internal);
        assert_eq!(admitted as u64, stats.rx);
        assert_eq!(
            stats.rx + stats.rx_dropped,
            6,
            "the looped-back copy is not offered"
        );
        assert!(stats.rx_dropped > 0, "a full ring drops");
        assert_eq!(counters.truncated, 1);
        assert_eq!(counters.malformed_blocks, 0);
        let want: Vec<(Direction, Vec<u8>)> = frames
            .into_iter()
            .map(|f| (Direction::Internal, f))
            .collect();
        assert_eq!(rx_log, Some(want));
    }

    #[test]
    fn default_geometry_satisfies_kernel_and_mbuf_constraints() {
        let rc = MmapRingConfig::default();
        assert_eq!(rc.rx_block_size % 4096, 0, "block = page multiple");
        assert_eq!(rc.tx_block_size % 4096, 0);
        assert_eq!(rc.rx_block_size % rc.rx_frame_size, 0);
        assert_eq!(rc.tx_block_size % rc.tx_frame_size, 0);
        assert_eq!(rc.rx_frame_size % 16, 0, "tpacket alignment");
        assert!(rc.tx_frame_size as usize >= TX_DATA_OFF + MBUF_SIZE);
        assert_eq!(rc.tx_slots(), 64);
    }
}
