//! `FrameEnv`: runs the verified loop body over real packet bytes.
//!
//! This is the production instantiation of `vignat`'s [`NatEnv`]: header
//! fields are read straight off the frame (zero-filled where the frame
//! is too short — the loop body's length guards run before any semantic
//! use, a property the symbolic engine checks), and [`NatEnv::tx`]
//! applies the rewrite to the same buffer using the RFC 1624
//! incremental checksum updates from `vig-packet`.
//!
//! One `FrameEnv` serves exactly one loop iteration for one frame; it
//! borrows the flow manager and the buffer, so constructing it costs
//! nothing and the datapath stays allocation-free.

use crate::dpdk::{BufIdx, Mempool};
use libvig::map::MapKey;
use libvig::time::Time;
use vig_packet::checksum::Checksum;
use vig_packet::{Direction, FlowId};
use vignat::env::concrete::{ext_key, fid_key, view, FidMemo, ProbeScratch};
use vignat::env::{ExtParts, FidParts, FlowView, NatEnv, PktHandle, RxPacket, SlotId, TxHdr};
use vignat::{FlowManager, FlowTable};

/// What the loop body decided to do with the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    /// Forward the (rewritten, in place) frame out of this interface.
    Forward(Direction),
    /// Drop the frame.
    Drop,
}

/// Per-frame environment, generic over the flow table it drives
/// (unsharded [`FlowManager`] by default, `ShardedFlowManager` for the
/// RSS-partitioned NAT — the loop body above is the same either way).
/// See module docs.
pub struct FrameEnv<'a, T: FlowTable = FlowManager> {
    fm: &'a mut T,
    frame: &'a mut [u8],
    dir: Direction,
    now_ns: u64,
    delivered: bool,
    verdict: Option<FrameVerdict>,
    expired: usize,
    fid_memo: FidMemo,
}

/// Read a big-endian u16 at `off`, zero if out of bounds.
fn rd16(b: &[u8], off: usize) -> u16 {
    match b.get(off..off + 2) {
        Some(w) => u16::from_be_bytes([w[0], w[1]]),
        None => 0,
    }
}

/// Read a big-endian u32 at `off`, zero if out of bounds.
fn rd32(b: &[u8], off: usize) -> u32 {
    match b.get(off..off + 4) {
        Some(w) => u32::from_be_bytes([w[0], w[1], w[2], w[3]]),
        None => 0,
    }
}

/// Read a byte at `off`, zero if out of bounds.
fn rd8(b: &[u8], off: usize) -> u8 {
    b.get(off).copied().unwrap_or(0)
}

impl<'a, T: FlowTable> FrameEnv<'a, T> {
    /// Build the env for one frame arriving on `dir` at `now`.
    pub fn new(fm: &'a mut T, frame: &'a mut [u8], dir: Direction, now: Time) -> FrameEnv<'a, T> {
        FrameEnv {
            fm,
            frame,
            dir,
            now_ns: now.nanos(),
            delivered: false,
            verdict: None,
            expired: 0,
            fid_memo: FidMemo::default(),
        }
    }

    /// The decision, after the loop body ran.
    pub fn verdict(&self) -> Option<FrameVerdict> {
        self.verdict
    }

    /// Flows expired during this iteration.
    pub fn expired(&self) -> usize {
        self.expired
    }
}

/// Read a frame's header fields into an [`RxPacket`] (shared by the
/// per-frame and burst environments). Fields beyond the frame are
/// zero-filled; the loop body's length guards run before any semantic
/// use of them.
fn read_rx_fields<E>(f: &[u8], handle: usize, dir: Direction) -> RxPacket<E>
where
    E: NatEnv<B = bool, U8 = u8, U16 = u16, U32 = u32, U64 = u64> + ?Sized,
{
    RxPacket {
        handle: PktHandle(handle),
        dir,
        frame_len: f.len().min(usize::from(u16::MAX)) as u16,
        ethertype: rd16(f, 12),
        version_ihl: rd8(f, 14),
        total_len: rd16(f, 16),
        frag_field: rd16(f, 20),
        ttl: rd8(f, 22),
        proto: rd8(f, 23),
        src_ip: rd32(f, 26),
        dst_ip: rd32(f, 30),
        // L4 ports at 14 + IHL; zero-filled when absent.
        src_port: rd16(f, 14 + usize::from(rd8(f, 14) & 0x0f) * 4),
        dst_port: rd16(f, 14 + usize::from(rd8(f, 14) & 0x0f) * 4 + 2),
        // TCP flag byte (offset 13 of the TCP header); zero for
        // non-TCP frames per the RxPacket contract, and zero-filled
        // when the frame is short (the loop body's ShortL4 guard drops
        // such frames before the tracker ever sees the flags).
        tcp_flags: if rd8(f, 23) == vig_packet::ipv4::PROTO_TCP {
            rd8(f, 14 + usize::from(rd8(f, 14) & 0x0f) * 4 + 13)
        } else {
            0
        },
    }
}

/// The internal-direction flow id a frame *would* carry, read at the
/// same offsets as [`RxPacket`] field extraction (zero-filled beyond
/// the frame, TCP/UDP only) — what a NIC's RSS hash unit sees. The
/// parallel sharded driver uses this for dispatch; because the offsets
/// and zero-fill match the env's own field reads exactly, the dispatch
/// shard always agrees with the shard the loop body's lookup routes to.
/// `None` for frames whose protocol byte is neither TCP nor UDP (such
/// frames carry no flow and may be dispatched to any shard — every
/// shard drops them identically).
pub fn frame_flow_id(f: &[u8]) -> Option<FlowId> {
    let proto = vig_packet::Proto::from_number(rd8(f, 23))?;
    let l4 = 14 + usize::from(rd8(f, 14) & 0x0f) * 4;
    Some(FlowId {
        src_ip: vig_packet::Ip4(rd32(f, 26)),
        src_port: rd16(f, l4),
        dst_ip: vig_packet::Ip4(rd32(f, 30)),
        dst_port: rd16(f, l4 + 2),
        proto,
    })
}

/// A frame's L4 destination port at the env's offsets (zero-filled when
/// absent) — the field that routes *external* (return) traffic to the
/// shard owning that slice of the NAT's port range.
pub fn frame_l4_dst_port(f: &[u8]) -> u16 {
    let l4 = 14 + usize::from(rd8(f, 14) & 0x0f) * 4;
    rd16(f, l4 + 2)
}

/// A frame's IPv4 destination address at the env's offsets (zero-filled
/// when absent) — with a multi-address pool this selects which external
/// address's port range return traffic resolves against.
pub fn frame_dst_ip(f: &[u8]) -> vig_packet::Ip4 {
    vig_packet::Ip4(rd32(f, 30))
}

/// The RSS classification function a multi-queue NIC's hash unit
/// computes: frame bytes in, queue index out.
///
/// This is *the same function* the software drivers dispatch by —
/// [`crate::harness::ParallelShardedNat::dispatch`] delegates here, and
/// the sharded flow table's own routing
/// (`ShardedFlowManager::shard_of_hash` / `shard_of_port`) applies the
/// identical [`libvig::rss::shard_of`] reduction and port partition —
/// so hardware steering, software dispatch, and table lookup can never
/// disagree about where a flow lives (asserted by construction in
/// [`RssClassifier::for_table`], differentially in
/// `tests/queue_equivalence.rs`).
///
/// * **Internal traffic** routes by [`libvig::rss::shard_of`] over the
///   flow-key hash a NIC's RSS unit would compute ([`frame_flow_id`],
///   reading the same offsets with the same zero-fill as the env).
/// * **External (return) traffic** routes by the NAT endpoint-pool
///   partition: queue `q` owns the pool slots
///   `q·slots_per_queue ..` — a translated flow's external
///   `(address, port)` identifies its pool slot, hence its queue,
///   exactly. With the paper's single-address pool the destination
///   address is not consulted (the loop body's external match
///   canonicalizes it), so this degenerates to the pure port partition.
/// * Frames carrying no routable flow (non-TCP/UDP, endpoint outside
///   the pool) classify to queue 0; every queue drops them identically,
///   so the choice is unobservable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssClassifier {
    queues: usize,
    cfg: vig_spec::NatConfig,
    slots_per_queue: usize,
}

impl RssClassifier {
    /// Classifier for `queues` queues over the NAT's endpoint pool — the
    /// partition [`vignat::ShardedFlowManager`] would use with `queues`
    /// shards (`cfg.capacity / queues` pool slots per queue).
    pub fn for_nat(cfg: &vig_spec::NatConfig, queues: usize) -> RssClassifier {
        assert!(queues > 0, "need at least one queue");
        let slots_per_queue = cfg.capacity / queues;
        assert!(slots_per_queue > 0, "more queues than pool slots");
        RssClassifier {
            queues,
            cfg: *cfg,
            slots_per_queue,
        }
    }

    /// The classifier matching a sharded flow table's own routing: one
    /// queue per shard, same pool partition — hardware dispatch and
    /// table routing become one function by construction.
    pub fn for_table(table: &vignat::ShardedFlowManager) -> RssClassifier {
        RssClassifier {
            queues: table.shard_count(),
            cfg: table.global_cfg(),
            slots_per_queue: table.per_shard_capacity(),
        }
    }

    /// Number of queues this classifier steers across.
    pub fn queue_count(&self) -> usize {
        self.queues
    }

    /// The queue a frame arriving on `dir` steers to. See type docs.
    pub fn queue_of(&self, dir: Direction, frame: &[u8]) -> usize {
        match dir {
            Direction::Internal => frame_flow_id(frame)
                .map(|fid| libvig::rss::shard_of(fid.key_hash(), self.queues))
                .unwrap_or(0),
            Direction::External => self
                .queue_of_endpoint(frame_dst_ip(frame), frame_l4_dst_port(frame))
                .unwrap_or(0),
        }
    }

    /// Which queue owns the pool endpoint `(dst_ip, dst_port)`, if any.
    /// Mirrors the loop body's external match exactly: with a
    /// single-address pool `dst_ip` is canonicalized away (the paper's
    /// NAT never consults it), otherwise the pair resolves through
    /// [`vig_spec::NatConfig::slot_of_endpoint`] — the same mapping the
    /// sharded table routes by.
    pub fn queue_of_endpoint(&self, dst_ip: vig_packet::Ip4, dst_port: u16) -> Option<usize> {
        let ip = if self.cfg.is_single_address() {
            self.cfg.external_ip
        } else {
            dst_ip
        };
        self.cfg
            .slot_of_endpoint(ip, dst_port)
            .filter(|&slot| slot < self.slots_per_queue * self.queues)
            .map(|slot| slot / self.slots_per_queue)
    }

    /// Which queue owns external port `port` on the pool's first
    /// address — the single-address special case of
    /// [`RssClassifier::queue_of_endpoint`].
    pub fn queue_of_port(&self, port: u16) -> Option<usize> {
        self.queue_of_endpoint(self.cfg.external_ip, port)
    }
}

/// Apply a NAT rewrite to the frame in place: fixed-offset field
/// surgery with RFC 1624 incremental checksum maintenance — exactly the
/// C original's struct-overlay writes. The loop body's validation
/// ladder guarantees every offset touched here lies inside the frame
/// (frame >= 14 + IHL + 20/8); deliberately *no* typed-view re-parse,
/// whose stricter checks (e.g. TCP data offset) could reject a frame
/// the NAT can translate perfectly well.
fn apply_rewrite(frame: &mut [u8], src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) {
    let l4 = 14 + usize::from(rd8(frame, 14) & 0x0f) * 4;
    let proto = rd8(frame, 23);
    let old_src_ip = rd32(frame, 26);
    let old_dst_ip = rd32(frame, 30);

    // IPv4 addresses + header checksum (field at 14+10).
    frame[26..30].copy_from_slice(&src_ip.to_be_bytes());
    frame[30..34].copy_from_slice(&dst_ip.to_be_bytes());
    let ip_csum = Checksum::from_field(rd16(frame, 24))
        .update_u32(old_src_ip, src_ip)
        .update_u32(old_dst_ip, dst_ip)
        .to_field();
    frame[24..26].copy_from_slice(&ip_csum.to_be_bytes());

    // L4 ports.
    let old_src_port = rd16(frame, l4);
    let old_dst_port = rd16(frame, l4 + 2);
    frame[l4..l4 + 2].copy_from_slice(&src_port.to_be_bytes());
    frame[l4 + 2..l4 + 4].copy_from_slice(&dst_port.to_be_bytes());

    // L4 checksum: pseudo-header (both addresses) + both ports.
    let is_udp = proto == vig_packet::ipv4::PROTO_UDP;
    let csum_off = if is_udp { l4 + 6 } else { l4 + 16 };
    let old_csum = rd16(frame, csum_off);
    if !(is_udp && old_csum == 0) {
        let mut c = Checksum::from_field(old_csum)
            .update_u32(old_src_ip, src_ip)
            .update_u32(old_dst_ip, dst_ip)
            .update_u16(old_src_port, src_port)
            .update_u16(old_dst_port, dst_port)
            .to_field();
        if is_udp && c == 0 {
            c = 0xffff; // RFC 768: transmitted zero means "no checksum"
        }
        frame[csum_off..csum_off + 2].copy_from_slice(&c.to_be_bytes());
    }
}

impl<T: FlowTable> vignat::domain::Domain for FrameEnv<'_, T> {
    vignat::concrete_domain_items!();
}

impl<T: FlowTable> NatEnv for FrameEnv<'_, T> {
    fn now(&mut self) -> u64 {
        self.now_ns
    }

    fn expire_flows(&mut self, threshold: &u64) {
        self.expired += self.fm.expire(Time(*threshold));
    }

    fn receive(&mut self) -> Option<RxPacket<Self>> {
        if self.delivered {
            return None;
        }
        self.delivered = true;
        Some(read_rx_fields(self.frame, 0, self.dir))
    }

    fn branch(&mut self, cond: bool) -> bool {
        cond
    }

    fn lookup_internal(&mut self, fid: &FidParts<Self>) -> Option<FlowView<Self>> {
        let key = fid_key(fid);
        // Hash once per packet; a following insert_flow reuses it.
        let hash = self.fid_memo.hash_for_lookup(key);
        let (slot, flow) = self.fm.lookup_internal_hashed(&key, hash)?;
        Some(view(slot, flow))
    }

    fn lookup_external(&mut self, ek: &ExtParts<Self>) -> Option<FlowView<Self>> {
        let (slot, flow) = self.fm.lookup_external(&ext_key(ek))?;
        Some(view(slot, flow))
    }

    fn rejuvenate(&mut self, slot: SlotId, now: &u64, dir: Direction, tcp_flags: &u8) {
        self.fm.rejuvenate(slot.0, Time(*now), dir, *tcp_flags);
    }

    fn allocate_slot(&mut self, now: &u64) -> Option<(SlotId, u16, u32)> {
        // The memoized hash of the just-missed lookup routes the
        // allocation (shard selector on sharded tables).
        let slot = self
            .fm
            .allocate_slot_routed(self.fid_memo.hash_for_alloc(), Time(*now))?;
        let (ip, _) = self.fm.endpoint_of_slot(slot);
        Some((SlotId(slot), self.fm.port_offset_of_slot(slot), ip.raw()))
    }

    fn insert_flow(
        &mut self,
        slot: SlotId,
        fid: FidParts<Self>,
        ext_ip: u32,
        ext_port: u16,
        _now: &u64,
        tcp_flags: &u8,
    ) {
        let key = fid_key(&fid);
        // Reuse the hash memoized by the preceding lookup miss.
        let hash = self.fid_memo.hash_for_insert(&key);
        self.fm.insert_hashed(
            slot.0,
            key,
            vig_packet::Ip4(ext_ip),
            ext_port,
            hash,
            *tcp_flags,
        );
    }

    fn tx(&mut self, _pkt: PktHandle, out: Direction, hdr: TxHdr<Self>) {
        debug_assert!(self.verdict.is_none(), "double consume of frame");
        apply_rewrite(
            self.frame,
            hdr.src_ip,
            hdr.src_port,
            hdr.dst_ip,
            hdr.dst_port,
        );
        self.verdict = Some(FrameVerdict::Forward(out));
    }

    fn drop_pkt(&mut self, _pkt: PktHandle) {
        debug_assert!(self.verdict.is_none(), "double consume of frame");
        self.verdict = Some(FrameVerdict::Drop);
    }
}

/// Burst environment: runs [`vignat::nat_process_batch`] over a burst
/// of mempool-resident frames.
///
/// Where [`FrameEnv`] serves exactly one frame, `BurstEnv` serves one
/// RX burst (up to [`vignat::MAX_BURST`] buffers): `receive_burst`
/// yields the staged frames in ring order, `lookup_internal_batch` and
/// `lookup_external_batch` resolve the burst's flow probes through the
/// flow table's staged burst pipeline (`FlowTable::probe_*_batch`:
/// tag words and directory slots for internal keys, the value slots
/// their endpoints name for external ones, then every hit's chain cell,
/// tracker byte and list neighbours, each first-touched for the whole
/// burst before the next — results are exactly the per-query lookups',
/// as the equivalence suites assert), and `tx`/`drop_pkt` record one
/// verdict per buffer (the middlebox routes them afterwards). Like
/// `FrameEnv` it borrows everything, so constructing one per burst
/// costs nothing, and its scratch is reused across bursts.
pub struct BurstEnv<'a, T: FlowTable = FlowManager> {
    fm: &'a mut T,
    pool: &'a mut Mempool,
    bufs: &'a [BufIdx],
    dir: Direction,
    now_ns: u64,
    next_rx: usize,
    verdicts: Vec<Option<FrameVerdict>>,
    expired: usize,
    fid_memo: FidMemo,
    scratch: &'a mut BurstScratch,
}

/// Run staged buffers through the loop body over one shard's table,
/// run-to-completion in [`vignat::MAX_BURST`] chunks, appending one
/// verdict per buffer to `verdicts`; returns the flows expired on the
/// way. No buffers still runs one empty chunk — the expiry tick a
/// polling core performs every iteration, exactly as in the sequential
/// oracle (which expires every shard per burst). Shared by the pinned
/// runtime's workers and the in-line
/// [`crate::harness::ParallelShardedNat::process_on_shard`], so the two
/// cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub fn run_staged(
    fm: &mut FlowManager,
    pool: &mut Mempool,
    scratch: &mut BurstScratch,
    cfg: &vig_spec::NatConfig,
    dir: Direction,
    now: Time,
    bufs: &[BufIdx],
    verdicts: &mut Vec<FrameVerdict>,
) -> usize {
    let mut expired = 0;
    let chunks = bufs
        .chunks(vignat::MAX_BURST.max(1))
        .chain(std::iter::once(&[] as &[BufIdx]).filter(|_| bufs.is_empty()));
    for chunk in chunks {
        let mut env = BurstEnv::new(fm, pool, chunk, dir, now, scratch);
        let outcomes = vignat::nat_process_batch(&mut env, cfg);
        debug_assert_eq!(outcomes.len(), chunk.len(), "burst must drain its chunk");
        expired += env.expired();
        verdicts.extend(env.verdicts().iter().map(|v| v.expect("staged buffer")));
        env.finish();
    }
    expired
}

/// Reusable per-burst buffers (probe keys, hashes and results, the
/// verdict vector) of [`BurstEnv`]. Owned by the NF across bursts so
/// the steady-state burst path performs no heap allocation for its flow
/// probes — the design rule (§5.1.1, all memory preallocated) extended
/// to the fast path's scratch space.
#[derive(Debug, Default)]
pub struct BurstScratch {
    probe: ProbeScratch,
    verdicts_pool: Vec<Option<FrameVerdict>>,
}

impl<'a, T: FlowTable> BurstEnv<'a, T> {
    /// Build the env for one burst of staged buffers arriving on `dir`
    /// at `now`. `scratch` is reused across bursts.
    pub fn new(
        fm: &'a mut T,
        pool: &'a mut Mempool,
        bufs: &'a [BufIdx],
        dir: Direction,
        now: Time,
        scratch: &'a mut BurstScratch,
    ) -> BurstEnv<'a, T> {
        let mut verdicts = std::mem::take(&mut scratch.verdicts_pool);
        verdicts.clear();
        verdicts.resize(bufs.len(), None);
        BurstEnv {
            fm,
            pool,
            bufs,
            dir,
            now_ns: now.nanos(),
            next_rx: 0,
            verdicts,
            expired: 0,
            fid_memo: FidMemo::default(),
            scratch,
        }
    }

    /// Return the verdict buffer to the scratch pool for the next
    /// burst. Call after reading [`BurstEnv::verdicts`].
    pub fn finish(mut self) {
        self.scratch.verdicts_pool = std::mem::take(&mut self.verdicts);
    }

    /// Per-buffer verdicts, after the burst ran. Indexed like `bufs`;
    /// `None` only for buffers the loop body never received (cannot
    /// happen through [`vignat::nat_process_batch`], which drains the
    /// whole burst).
    pub fn verdicts(&self) -> &[Option<FrameVerdict>] {
        &self.verdicts
    }

    /// Flows expired during this burst.
    pub fn expired(&self) -> usize {
        self.expired
    }
}

impl<T: FlowTable> vignat::domain::Domain for BurstEnv<'_, T> {
    vignat::concrete_domain_items!();
}

impl<T: FlowTable> NatEnv for BurstEnv<'_, T> {
    fn now(&mut self) -> u64 {
        self.now_ns
    }

    fn expire_flows(&mut self, threshold: &u64) {
        self.expired += self.fm.expire(Time(*threshold));
    }

    fn receive(&mut self) -> Option<RxPacket<Self>> {
        if self.next_rx >= self.bufs.len() {
            return None;
        }
        let i = self.next_rx;
        self.next_rx += 1;
        Some(read_rx_fields(self.pool.frame(self.bufs[i]), i, self.dir))
    }

    fn branch(&mut self, cond: bool) -> bool {
        cond
    }

    fn lookup_internal(&mut self, fid: &FidParts<Self>) -> Option<FlowView<Self>> {
        let key = fid_key(fid);
        // Hash once per packet; a following insert_flow reuses it.
        let hash = self.fid_memo.hash_for_lookup(key);
        let (slot, flow) = self.fm.lookup_internal_hashed(&key, hash)?;
        Some(view(slot, flow))
    }

    fn lookup_internal_batch(
        &mut self,
        fids: &[Option<FidParts<Self>>],
        out: &mut [Option<FlowView<Self>>],
    ) {
        // On a sharded table this is where the burst splits into
        // per-shard sub-batches by the keys' hashes.
        self.scratch.probe.lookup_internal(self.fm, fids, out);
    }

    fn lookup_external_batch(
        &mut self,
        eks: &[Option<ExtParts<Self>>],
        out: &mut [Option<FlowView<Self>>],
    ) {
        self.scratch.probe.lookup_external(self.fm, eks, out);
    }

    fn lookup_external(&mut self, ek: &ExtParts<Self>) -> Option<FlowView<Self>> {
        let (slot, flow) = self.fm.lookup_external(&ext_key(ek))?;
        Some(view(slot, flow))
    }

    fn rejuvenate(&mut self, slot: SlotId, now: &u64, dir: Direction, tcp_flags: &u8) {
        self.fm.rejuvenate(slot.0, Time(*now), dir, *tcp_flags);
    }

    fn allocate_slot(&mut self, now: &u64) -> Option<(SlotId, u16, u32)> {
        // Routed by the memoized hash of the just-missed lookup.
        let slot = self
            .fm
            .allocate_slot_routed(self.fid_memo.hash_for_alloc(), Time(*now))?;
        let (ip, _) = self.fm.endpoint_of_slot(slot);
        Some((SlotId(slot), self.fm.port_offset_of_slot(slot), ip.raw()))
    }

    fn insert_flow(
        &mut self,
        slot: SlotId,
        fid: FidParts<Self>,
        ext_ip: u32,
        ext_port: u16,
        _now: &u64,
        tcp_flags: &u8,
    ) {
        let key = fid_key(&fid);
        // Reuse the hash memoized by the preceding lookup miss.
        let hash = self.fid_memo.hash_for_insert(&key);
        self.fm.insert_hashed(
            slot.0,
            key,
            vig_packet::Ip4(ext_ip),
            ext_port,
            hash,
            *tcp_flags,
        );
    }

    fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: TxHdr<Self>) {
        debug_assert!(
            self.verdicts[pkt.0].is_none(),
            "double consume of frame {}",
            pkt.0
        );
        let frame = self.pool.frame_mut(self.bufs[pkt.0]);
        apply_rewrite(frame, hdr.src_ip, hdr.src_port, hdr.dst_ip, hdr.dst_port);
        self.verdicts[pkt.0] = Some(FrameVerdict::Forward(out));
    }

    fn drop_pkt(&mut self, pkt: PktHandle) {
        debug_assert!(
            self.verdicts[pkt.0].is_none(),
            "double consume of frame {}",
            pkt.0
        );
        self.verdicts[pkt.0] = Some(FrameVerdict::Drop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::{builder::PacketBuilder, parse_l3l4, Ip4};
    use vig_spec::NatConfig;
    use vignat::nat_loop_iteration;

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 16,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 2000,
            ..NatConfig::paper_default()
        }
    }

    fn run(fm: &mut FlowManager, frame: &mut [u8], dir: Direction, t: Time) -> FrameVerdict {
        let c = cfg();
        let mut env = FrameEnv::new(fm, frame, dir, t);
        nat_loop_iteration(&mut env, &c);
        env.verdict().expect("one packet => one verdict")
    }

    #[test]
    fn end_to_end_translation_preserves_checksums_and_payload() {
        let mut fm = FlowManager::new(&cfg());
        let mut frame = PacketBuilder::tcp(
            Ip4::new(192, 168, 0, 7),
            Ip4::new(93, 184, 216, 34),
            40000,
            443,
        )
        .payload(b"GET / HTTP/1.1")
        .build();

        let v = run(&mut fm, &mut frame, Direction::Internal, Time::from_secs(1));
        assert_eq!(v, FrameVerdict::Forward(Direction::External));

        // The translated frame must still parse, with rewritten source.
        let (_, ff) = parse_l3l4(&frame).unwrap();
        assert_eq!(ff.src_ip, Ip4::new(10, 1, 0, 1));
        assert_eq!(ff.src_port, 2000, "first slot -> start_port");
        assert_eq!(ff.dst_ip, Ip4::new(93, 184, 216, 34));
        assert_eq!(ff.dst_port, 443);

        // IPv4 checksum still verifies after the incremental update.
        let ip = vig_packet::ipv4::Ipv4Packet::parse(&frame[14..]).unwrap();
        assert!(ip.verify_checksum());

        // TCP checksum verifies against the *new* pseudo-header.
        let l4 = &frame[34..];
        let mut copy = l4.to_vec();
        copy[16] = 0;
        copy[17] = 0;
        let want = vig_packet::checksum::l4_checksum(ff.src_ip.raw(), ff.dst_ip.raw(), 6, &copy);
        assert_eq!(
            vig_packet::tcp::TcpSegment::parse(l4).unwrap().checksum(),
            want,
            "TCP checksum must verify after NAT rewrite"
        );

        // Payload untouched (S.data = P.data).
        assert_eq!(&frame[34 + 20..], b"GET / HTTP/1.1");
    }

    #[test]
    fn return_path_restores_original_tuple() {
        let mut fm = FlowManager::new(&cfg());
        let mut out = PacketBuilder::udp(Ip4::new(192, 168, 0, 9), Ip4::new(8, 8, 8, 8), 5353, 53)
            .payload(b"query")
            .build();
        run(&mut fm, &mut out, Direction::Internal, Time::from_secs(1));
        let (_, outf) = parse_l3l4(&out).unwrap();

        // Craft the reply the remote host would send.
        let mut back = PacketBuilder::udp(
            Ip4::new(8, 8, 8, 8),
            Ip4::new(10, 1, 0, 1),
            53,
            outf.src_port,
        )
        .payload(b"answer")
        .build();
        let v = run(&mut fm, &mut back, Direction::External, Time::from_secs(2));
        assert_eq!(v, FrameVerdict::Forward(Direction::Internal));
        let (_, backf) = parse_l3l4(&back).unwrap();
        assert_eq!(backf.dst_ip, Ip4::new(192, 168, 0, 9), "restored host");
        assert_eq!(backf.dst_port, 5353, "restored port");
        assert_eq!(backf.src_ip, Ip4::new(8, 8, 8, 8));
        // UDP checksum verifies post-rewrite
        let l4 = &back[34..];
        let mut copy = l4.to_vec();
        copy[6] = 0;
        copy[7] = 0;
        let want =
            vig_packet::checksum::l4_checksum(backf.src_ip.raw(), backf.dst_ip.raw(), 17, &copy);
        assert_eq!(
            vig_packet::udp::UdpDatagram::parse(l4).unwrap().checksum(),
            want
        );
    }

    #[test]
    fn garbage_frames_are_dropped_not_crashed() {
        let mut fm = FlowManager::new(&cfg());
        // every prefix length of a valid packet, plus pure noise
        let valid =
            PacketBuilder::tcp(Ip4::new(192, 168, 0, 1), Ip4::new(1, 1, 1, 1), 1, 2).build();
        for cut in 0..valid.len() - 1 {
            let mut frame = valid[..cut].to_vec();
            let v = run(&mut fm, &mut frame, Direction::Internal, Time::from_secs(1));
            assert_eq!(v, FrameVerdict::Drop, "truncated frame at {cut} must drop");
        }
        let mut noise = vec![0xa5u8; 60];
        let v = run(&mut fm, &mut noise, Direction::External, Time::from_secs(1));
        assert_eq!(v, FrameVerdict::Drop);
    }

    #[test]
    fn unsolicited_external_frame_is_dropped() {
        let mut fm = FlowManager::new(&cfg());
        let mut frame =
            PacketBuilder::tcp(Ip4::new(6, 6, 6, 6), Ip4::new(10, 1, 0, 1), 80, 2000).build();
        let v = run(&mut fm, &mut frame, Direction::External, Time::from_secs(1));
        assert_eq!(v, FrameVerdict::Drop);
        assert!(fm.is_empty(), "external packets never create flows");
    }
}
