//! The effect interface of the stateless NAT code.
//!
//! [`NatEnv`] is everything the stateless loop can do to the outside
//! world: read the clock, receive, branch, query/update the flow table,
//! transmit, drop. In the paper's architecture this is the boundary at
//! which Vigor swaps the real libVig + DPDK for symbolic models (§5.2.1)
//! — so the *entire* behaviour of the NF is determined by the loop body
//! plus an implementation of this trait:
//!
//! * [`concrete::ConcreteEnv`] implements it over a
//!   [`crate::flow_manager::FlowTable`] — the one concrete environment.
//!   What varies is its [`concrete::PacketSide`]: header fields queued
//!   by a test ([`crate::simple_env::SimpleEnv`]), one frame, or one
//!   burst of mempool buffers (the `netsim` crate's `FrameEnv` /
//!   `BurstEnv`);
//! * `vig-validator` implements it over symbolic models, where
//!   [`NatEnv::branch`] forks execution and the flow operations return
//!   constrained fresh symbols.
//!
//! The trait extends [`Domain`]: an environment *is* a value domain plus
//! effects, which spares the loop body a borrow dance between the two.

use crate::domain::Domain;
use vig_packet::{Direction, Proto};

/// Opaque handle to an in-flight packet buffer. The loop body may copy
/// and compare it but can only consume it through [`NatEnv::tx`] or
/// [`NatEnv::drop_pkt`] — the paper's buffer-ownership discipline
/// (§5.2.4), with the leak check performed by the Validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktHandle(pub usize);

/// Opaque handle to an allocated flow slot. Concrete environments use
/// the dmap/dchain index; the symbolic environment invents fresh ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(pub usize);

/// A received packet, presented as domain-valued header fields.
///
/// This is the granularity of the C original, which overlays
/// `ether_hdr`/`ipv4_hdr`/`tcp_hdr` structs on the mbuf: field access
/// is assumed, *validity checking is not* — every validation branch
/// (EtherType, version, IHL, fragmenting, lengths, protocol) is taken by
/// the stateless code on these values. For frames too short to contain
/// a field, concrete environments supply zeroes; the loop body's
/// length guards run **before** any semantic use of such fields, and
/// under the symbolic engine the fields are unconstrained symbols, so
/// the verification covers the zero-fill behaviour and more.
#[derive(Debug, Clone)]
pub struct RxPacket<D: Domain + ?Sized> {
    /// Buffer ownership token.
    pub handle: PktHandle,
    /// Arrival interface (concrete: the NF knows which port fired).
    pub dir: Direction,
    /// Total frame length in bytes.
    pub frame_len: D::U16,
    /// Ethernet EtherType.
    pub ethertype: D::U16,
    /// Raw IPv4 first byte: version (high nibble) + IHL (low nibble).
    pub version_ihl: D::U8,
    /// IPv4 `total_len` field.
    pub total_len: D::U16,
    /// Raw IPv4 flags+fragment-offset field (bytes 6–7).
    pub frag_field: D::U16,
    /// IPv4 protocol number.
    pub proto: D::U8,
    /// IPv4 source address.
    pub src_ip: D::U32,
    /// IPv4 destination address.
    pub dst_ip: D::U32,
    /// L4 source port (zero-filled if the frame is short).
    pub src_port: D::U16,
    /// L4 destination port (zero-filled if the frame is short).
    pub dst_port: D::U16,
    /// TCP flags byte (zero-filled for non-TCP packets and frames too
    /// short to carry it). The loop body never branches on it — it is
    /// carried opaquely into the stateful half, whose TCP tracker
    /// selects the flow's timeout class from it.
    pub tcp_flags: D::U8,
}

/// The internal flow identifier, in domain values. The protocol is
/// concrete because the loop body has already branched on it.
#[derive(Debug, Clone)]
pub struct FidParts<D: Domain + ?Sized> {
    /// Internal host address.
    pub src_ip: D::U32,
    /// Internal host port.
    pub src_port: D::U16,
    /// Remote address.
    pub dst_ip: D::U32,
    /// Remote port.
    pub dst_port: D::U16,
    /// Session protocol (concrete per path).
    pub proto: Proto,
}

/// The external-side key, in domain values.
#[derive(Debug, Clone)]
pub struct ExtParts<D: Domain + ?Sized> {
    /// The NAT-allocated pool address (the return packet's destination
    /// ip, canonicalized by the loop body: the single configured
    /// address when the pool has one, the packet's destination
    /// address when it has several).
    pub ext_ip: D::U32,
    /// The NAT-allocated port (the return packet's destination port).
    pub ext_port: D::U16,
    /// Remote address.
    pub dst_ip: D::U32,
    /// Remote port.
    pub dst_port: D::U16,
    /// Session protocol (concrete per path).
    pub proto: Proto,
}

/// A flow-table match, as seen by the stateless code.
#[derive(Debug, Clone)]
pub struct FlowView<D: Domain + ?Sized> {
    /// The slot handle (for rejuvenation).
    pub slot: SlotId,
    /// The allocated external (pool) address.
    pub ext_ip: D::U32,
    /// The allocated external port.
    pub ext_port: D::U16,
    /// The internal endpoint address.
    pub int_ip: D::U32,
    /// The internal endpoint port.
    pub int_port: D::U16,
}

/// The rewritten 5-tuple handed to [`NatEnv::tx`]. The concrete
/// environment applies it to the packet bytes with incremental checksum
/// updates; the symbolic environment records it in the trace for the
/// P1 semantic check.
#[derive(Debug, Clone)]
pub struct TxHdr<D: Domain + ?Sized> {
    /// New source address.
    pub src_ip: D::U32,
    /// New source port.
    pub src_port: D::U16,
    /// New destination address.
    pub dst_ip: D::U32,
    /// New destination port.
    pub dst_port: D::U16,
}

/// The one *concrete* environment (machine-integer domain) and its
/// parts: [`concrete::ConcreteEnv`] — the table half every concrete
/// run of the loop body shares — over a [`concrete::PacketSide`], plus
/// key construction from domain-valued packet parts, flow views and
/// the per-packet `FlowId` hash memo.
pub mod concrete {
    use super::{ExtParts, FidParts, FlowView, NatEnv, PktHandle, RxPacket, SlotId, TxHdr};
    use crate::domain::{Concrete, Domain};
    use crate::flow_manager::FlowTable;
    use crate::loop_body::MAX_BURST;
    use libvig::map::MapKey;
    use libvig::time::Time;
    use vig_packet::{Direction, ExtKey, Flow, FlowFields, FlowId, Ip4, Proto};

    /// One received packet's header fields as machine integers — what a
    /// [`PacketSide`] hands the env, and what tests inject. Use
    /// [`RawRx::well_formed`] for valid packets; construct directly to
    /// exercise the drop paths.
    #[derive(Debug, Clone, Copy)]
    pub struct RawRx {
        /// Arrival interface.
        pub dir: Direction,
        /// Frame length in bytes.
        pub frame_len: u16,
        /// EtherType.
        pub ethertype: u16,
        /// IPv4 version+IHL byte.
        pub version_ihl: u8,
        /// IPv4 total length.
        pub total_len: u16,
        /// IPv4 flags+fragment-offset field.
        pub frag_field: u16,
        /// IPv4 protocol.
        pub proto: u8,
        /// Source address.
        pub src_ip: u32,
        /// Destination address.
        pub dst_ip: u32,
        /// L4 source port.
        pub src_port: u16,
        /// L4 destination port.
        pub dst_port: u16,
        /// TCP flag byte (ignored for non-TCP packets).
        pub tcp_flags: u8,
    }

    impl RawRx {
        /// A well-formed 64-byte TCP/UDP frame carrying `fields` (empty
        /// TCP flag byte; see [`RawRx::with_tcp_flags`]).
        pub fn well_formed(dir: Direction, fields: FlowFields) -> RawRx {
            let l4 = match fields.proto {
                Proto::Tcp => 20,
                Proto::Udp => 8,
            };
            RawRx {
                dir,
                frame_len: 64,
                ethertype: 0x0800,
                version_ihl: 0x45,
                total_len: 20 + l4,
                frag_field: 0x4000, // DF, not fragmented
                proto: fields.proto.number(),
                src_ip: fields.src_ip.raw(),
                dst_ip: fields.dst_ip.raw(),
                src_port: fields.src_port,
                dst_port: fields.dst_port,
                tcp_flags: 0,
            }
        }

        /// The same frame with a TCP flag byte.
        pub fn with_tcp_flags(self, tcp_flags: u8) -> RawRx {
            RawRx { tcp_flags, ..self }
        }

        /// The packet as the loop body receives it, in any
        /// machine-integer domain. The TCP flag byte is zero-filled for
        /// non-TCP packets, per the [`RxPacket`] contract.
        pub fn into_rx<D>(self, handle: PktHandle) -> RxPacket<D>
        where
            D: Domain<B = bool, U8 = u8, U16 = u16, U32 = u32, U64 = u64> + ?Sized,
        {
            RxPacket {
                handle,
                dir: self.dir,
                frame_len: self.frame_len,
                ethertype: self.ethertype,
                version_ihl: self.version_ihl,
                total_len: self.total_len,
                frag_field: self.frag_field,
                proto: self.proto,
                src_ip: self.src_ip,
                dst_ip: self.dst_ip,
                src_port: self.src_port,
                dst_port: self.dst_port,
                tcp_flags: if self.proto == vig_packet::ipv4::PROTO_TCP {
                    self.tcp_flags
                } else {
                    0
                },
            }
        }
    }

    /// Where a [`ConcreteEnv`]'s packets come from and go to — the only
    /// thing that differs between concrete runs of the loop body.
    /// Implemented three times: the field queue of
    /// [`crate::simple_env::SimpleEnv`] (header fields in, events out,
    /// buffer ownership checked at run time), and `netsim`'s one frame
    /// and one burst of mempool buffers (bytes in, in-place rewrites
    /// out).
    pub trait PacketSide {
        /// The next pending packet — its ownership handle and header
        /// fields — or `None` when nothing is pending.
        fn receive(&mut self) -> Option<(PktHandle, RawRx)>;

        /// Transmit `pkt` on `out` with the rewritten tuple. Consumes
        /// the buffer.
        fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: TxHdr<Concrete>);

        /// Drop `pkt`. Consumes the buffer.
        fn drop_pkt(&mut self, pkt: PktHandle);
    }

    /// The concrete [`NatEnv`]: the loop body's table half — a borrowed
    /// [`FlowTable`], the run's clock and expiry count and the
    /// per-packet hash memo — over a [`PacketSide`] `P`. One env serves
    /// one iteration or one burst; it borrows its state, so building one
    /// costs nothing, and its batched lookups keep their queries and
    /// results in arrays on the stack, so a burst allocates nothing.
    pub struct ConcreteEnv<'a, T, P> {
        table: &'a mut T,
        packets: P,
        now_ns: u64,
        expired: usize,
        memo: FidMemo,
    }

    impl<'a, T, P> ConcreteEnv<'a, T, P> {
        /// The env for the packets of `packets`, arriving at `now`.
        pub fn new(table: &'a mut T, packets: P, now: Time) -> Self {
            ConcreteEnv {
                table,
                packets,
                now_ns: now.nanos(),
                expired: 0,
                memo: FidMemo::default(),
            }
        }

        /// End the run, returning the flows it expired.
        pub fn finish(self) -> usize {
            self.expired
        }
    }

    impl<T, P> Domain for ConcreteEnv<'_, T, P> {
        crate::concrete_domain_items!();
    }

    impl<T, P> NatEnv for ConcreteEnv<'_, T, P>
    where
        T: FlowTable,
        P: PacketSide,
    {
        fn now(&mut self) -> u64 {
            self.now_ns
        }

        fn expire_flows(&mut self, threshold: &u64) {
            self.expired += self.table.expire(Time(*threshold));
        }

        fn receive(&mut self) -> Option<RxPacket<Self>> {
            let (handle, raw) = self.packets.receive()?;
            Some(raw.into_rx(handle))
        }

        fn branch(&mut self, cond: bool) -> bool {
            cond
        }

        fn lookup_internal(&mut self, fid: &FidParts<Self>) -> Option<FlowView<Self>> {
            let key = fid_key(fid);
            // Hash once per packet; a following insert_flow reuses it.
            let hash = self.memo.hash_for_lookup(key);
            let (slot, flow) = self.table.lookup_internal_hashed(&key, hash)?;
            Some(view(slot, &flow))
        }

        fn lookup_internal_batch(
            &mut self,
            fids: &[Option<FidParts<Self>>],
            out: &mut [Option<FlowView<Self>>],
        ) {
            // On a sharded table each query routes to its shard by this
            // hash, inside the table's one staged loop.
            for (fids, out) in fids.chunks(MAX_BURST).zip(out.chunks_mut(MAX_BURST)) {
                let mut queries = [None; MAX_BURST];
                for (q, fid) in queries.iter_mut().zip(fids) {
                    *q = fid.as_ref().map(|fid| {
                        let key = fid_key(fid);
                        (key, key.key_hash())
                    });
                }
                let mut found = [None; MAX_BURST];
                let n = fids.len();
                self.table
                    .probe_internal_batch(&queries[..n], &mut found[..n]);
                views_at_positions(fids, &found, out);
            }
        }

        fn lookup_external(&mut self, ek: &ExtParts<Self>) -> Option<FlowView<Self>> {
            let (slot, flow) = self.table.lookup_external(&ext_key(ek))?;
            Some(view(slot, &flow))
        }

        fn lookup_external_batch(
            &mut self,
            eks: &[Option<ExtParts<Self>>],
            out: &mut [Option<FlowView<Self>>],
        ) {
            for (eks, out) in eks.chunks(MAX_BURST).zip(out.chunks_mut(MAX_BURST)) {
                let mut queries = [None; MAX_BURST];
                for (q, ek) in queries.iter_mut().zip(eks) {
                    *q = ek.as_ref().map(ext_key);
                }
                let mut found = [None; MAX_BURST];
                let n = eks.len();
                self.table
                    .probe_external_batch(&queries[..n], &mut found[..n]);
                views_at_positions(eks, &found, out);
            }
        }

        fn rejuvenate(
            &mut self,
            slot: SlotId,
            now: &u64,
            dir: Direction,
            tcp_flags: &u8,
            proto: Proto,
        ) {
            self.table
                .rejuvenate_proto(slot.0, Time(*now), dir, *tcp_flags, proto);
        }

        fn allocate_slot(&mut self, now: &u64) -> Option<(SlotId, u16, u32)> {
            // The memoized hash of the just-missed lookup routes the
            // allocation (the shard selector on sharded tables).
            let slot = self
                .table
                .allocate_slot_routed(self.memo.hash_for_alloc(), Time(*now))?;
            let (ip, _) = self.table.endpoint_of_slot(slot);
            Some((SlotId(slot), self.table.port_offset_of_slot(slot), ip.raw()))
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
            // Reuse the hash memoized by the lookup miss that precedes
            // every insert on the same packet.
            let hash = self.memo.hash_for_insert(&key);
            self.table
                .insert_hashed(slot.0, key, Ip4(ext_ip), ext_port, hash, *tcp_flags);
        }

        fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: TxHdr<Self>) {
            let hdr = TxHdr {
                src_ip: hdr.src_ip,
                src_port: hdr.src_port,
                dst_ip: hdr.dst_ip,
                dst_port: hdr.dst_port,
            };
            self.packets.tx(pkt, out, hdr);
        }

        fn drop_pkt(&mut self, pkt: PktHandle) {
            self.packets.drop_pkt(pkt);
        }
    }

    /// The internal 5-tuple as a flow-table key.
    pub fn fid_key<D>(fid: &FidParts<D>) -> FlowId
    where
        D: Domain<B = bool, U8 = u8, U16 = u16, U32 = u32, U64 = u64> + ?Sized,
    {
        FlowId {
            src_ip: Ip4(fid.src_ip),
            src_port: fid.src_port,
            dst_ip: Ip4(fid.dst_ip),
            dst_port: fid.dst_port,
            proto: fid.proto,
        }
    }

    /// The external-side key as a flow-table key.
    pub fn ext_key<D>(ek: &ExtParts<D>) -> ExtKey
    where
        D: Domain<B = bool, U8 = u8, U16 = u16, U32 = u32, U64 = u64> + ?Sized,
    {
        ExtKey {
            ext_ip: Ip4(ek.ext_ip),
            ext_port: ek.ext_port,
            dst_ip: Ip4(ek.dst_ip),
            dst_port: ek.dst_port,
            proto: ek.proto,
        }
    }

    /// A matched flow as the loop body sees it.
    fn view<D>(slot: usize, flow: &Flow) -> FlowView<D>
    where
        D: Domain<B = bool, U8 = u8, U16 = u16, U32 = u32, U64 = u64> + ?Sized,
    {
        FlowView {
            slot: SlotId(slot),
            ext_ip: flow.ext_ip.raw(),
            ext_port: flow.ext_port,
            int_ip: flow.int_key.src_ip.raw(),
            int_port: flow.int_key.src_port,
        }
    }

    /// Write each probe result as a view at its query's position; leave
    /// positions that asked nothing alone (the `lookup_*_batch`
    /// contract).
    fn views_at_positions<Q, E>(
        queries: &[Option<Q>],
        found: &[Option<(usize, Flow)>],
        out: &mut [Option<FlowView<E>>],
    ) where
        E: Domain<B = bool, U8 = u8, U16 = u16, U32 = u32, U64 = u64> + ?Sized,
    {
        for ((q, r), o) in queries.iter().zip(found).zip(out) {
            if q.is_some() {
                *o = r.as_ref().map(|(slot, flow)| view(*slot, flow));
            }
        }
    }

    /// Per-packet `FlowId` hash memo: the lookup that precedes every
    /// insert hashes the key once; the insert reuses that hash. Falls
    /// back to rehashing if the memo doesn't match (an env driven in a
    /// nonstandard order), so it can slow down but never corrupt.
    #[derive(Debug, Default)]
    struct FidMemo(Option<(FlowId, u64)>);

    impl FidMemo {
        /// Hash `key` for a lookup, remembering it for the insert that
        /// may follow on the same packet.
        fn hash_for_lookup(&mut self, key: FlowId) -> u64 {
            let h = key.key_hash();
            self.0 = Some((key, h));
            h
        }

        /// Hash for the insert of `key`: the memoized value when it
        /// matches, a fresh hash otherwise.
        fn hash_for_insert(&mut self, key: &FlowId) -> u64 {
            match self.0 {
                Some((memo_key, memo_hash)) if memo_key == *key => memo_hash,
                _ => key.key_hash(),
            }
        }

        /// Hash for routing the slot allocation that follows a lookup
        /// miss: the memoized hash of the packet's flow id. This is how
        /// the memoized hash doubles as the shard selector for sharded
        /// flow tables ([`crate::flow_manager::FlowTable::allocate_slot_routed`]):
        /// the shard that owns the fresh slot — and therefore the port
        /// range the new flow's external port comes from — is a
        /// function of exactly this value, with no extra hash computed.
        ///
        /// Contract (guaranteed by the loop body, which only allocates
        /// at the sequence point of a just-missed lookup): a lookup of
        /// the flow id that will be inserted precedes every allocation.
        /// Panics if violated — silently routing by a wrong hash would
        /// strand the flow in a shard its lookups never probe.
        fn hash_for_alloc(&self) -> u64 {
            self.0
                .as_ref()
                .map(|&(_, h)| h)
                .expect("allocate_slot without a preceding flow lookup")
        }
    }
}

/// The NAT's effect interface. See module docs.
pub trait NatEnv: Domain {
    /// Current time in nanoseconds (monotonic).
    fn now(&mut self) -> Self::U64;

    /// Expire every flow with `last_active <= threshold` (Fig. 6 line 2,
    /// with `threshold = now - Texp` computed — and guarded — by the
    /// stateless code).
    fn expire_flows(&mut self, threshold: &Self::U64);

    /// Non-blocking receive. `None` when no packet is pending. The burst
    /// loop body ([`crate::loop_body::nat_process_batch_into`]) calls it
    /// until it returns `None` or the burst is full.
    fn receive(&mut self) -> Option<RxPacket<Self>>;

    /// Decide a branch. Concrete environments evaluate the condition;
    /// the symbolic engine forks execution here, recording the
    /// condition (or its negation) as a path constraint.
    fn branch(&mut self, cond: Self::B) -> bool;

    /// Look up a flow by internal 5-tuple.
    fn lookup_internal(&mut self, fid: &FidParts<Self>) -> Option<FlowView<Self>>;

    /// Resolve a burst of internal-key lookups. Queries and results
    /// are indexed by packet position: `out[i]` receives the result of
    /// `fids[i]` where that is `Some`, and is left alone where it is
    /// `None` (`out.len() == fids.len()`). Must be observationally
    /// identical to calling [`NatEnv::lookup_internal`] per query — the
    /// default does exactly that; concrete environments override it
    /// with the flow table's staged burst probe
    /// ([`crate::flow_manager::FlowTable::probe_internal_batch`]) so the
    /// burst's cache misses overlap instead of serializing.
    ///
    /// The burst loop body ([`crate::loop_body::nat_process_batch`])
    /// only *trusts* hits from this call: burst-mate packets can insert
    /// flows (turning a stale miss into a hit) but never remove one, so
    /// misses are re-checked at their sequence point.
    fn lookup_internal_batch(
        &mut self,
        fids: &[Option<FidParts<Self>>],
        out: &mut [Option<FlowView<Self>>],
    ) {
        for (fid, slot) in fids.iter().zip(out) {
            if let Some(fid) = fid {
                *slot = self.lookup_internal(fid);
            }
        }
    }

    /// Look up a flow by external key.
    fn lookup_external(&mut self, ek: &ExtParts<Self>) -> Option<FlowView<Self>>;

    /// [`NatEnv::lookup_internal_batch`] for external keys: same
    /// indexing, same hits-only trust rule, default delegating to
    /// [`NatEnv::lookup_external`] per query.
    fn lookup_external_batch(
        &mut self,
        eks: &[Option<ExtParts<Self>>],
        out: &mut [Option<FlowView<Self>>],
    ) {
        for (ek, slot) in eks.iter().zip(out) {
            if let Some(ek) = ek {
                *slot = self.lookup_external(ek);
            }
        }
    }

    /// Refresh a matched flow's timestamp (Fig. 6 lines 10–12).
    ///
    /// `dir` and `tcp_flags` feed the stateful half's TCP connection
    /// tracker (per-class lifetimes); the stateless code never branches
    /// on either — `dir` is concrete per path already, and the flags
    /// byte is carried opaquely. `proto` is the matched flow's protocol,
    /// concrete per path as `dir` is (the lookup key carried it): it
    /// tells the stateful half whether there is a tracker to step, so a
    /// UDP flow's record is not loaded to find out. The symbolic
    /// environment ignores all three, so the verified path shapes are
    /// unchanged.
    fn rejuvenate(
        &mut self,
        slot: SlotId,
        now: &Self::U64,
        dir: Direction,
        tcp_flags: &Self::U8,
        proto: Proto,
    );

    /// Reserve a flow slot, returning its id, the slot's **port
    /// offset** within its pool address (so the loop body's
    /// `ext_port = start_port + offset` arithmetic stays in stateless
    /// code; with the paper's single-address pool the offset *is* the
    /// slot index and the arithmetic is Fig. 6's verbatim), and the
    /// slot's pool address. `None` when the table is full.
    ///
    /// Contract: a successful allocation **must** be followed by
    /// [`NatEnv::insert_flow`] for the same slot on the same path —
    /// the Validator's leak check enforces this (P4).
    fn allocate_slot(&mut self, now: &Self::U64) -> Option<(SlotId, Self::U16, Self::U32)>;

    /// Populate a reserved slot with the new flow (Fig. 6 line 16).
    /// `tcp_flags` seeds the TCP tracker's initial state for TCP flows
    /// (opaque to the stateless code, ignored symbolically — see
    /// [`NatEnv::rejuvenate`]).
    fn insert_flow(
        &mut self,
        slot: SlotId,
        fid: FidParts<Self>,
        ext_ip: Self::U32,
        ext_port: Self::U16,
        now: &Self::U64,
        tcp_flags: &Self::U8,
    );

    /// Transmit the packet on `out` with rewritten headers. Consumes the
    /// buffer.
    fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: TxHdr<Self>);

    /// Drop the packet. Consumes the buffer.
    fn drop_pkt(&mut self, pkt: PktHandle);
}
