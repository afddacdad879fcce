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
//!
//! What crosses the interface is the spec's vocabulary, over the env's
//! bare domain ([`Domain::Values`]): a received [`Frame`], the
//! [`Tuple`]s that key the flow table and rewrite the header, and the
//! [`Mapping`] a lookup returns. `vig_spec::rfc3022::decide` is written
//! over the same three types, so the Validator's P1 hands the spec the
//! very frame and tuples the loop body produced.

use crate::domain::Domain;
use vig_packet::{Direction, Proto};
use vig_spec::rfc3022::{Endpoint, Frame, Mapping, Tuple};

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

/// What a flow lookup finds: the matched slot and its mapping, or
/// `None` on a miss.
pub type Found<D> = Option<(SlotId, Mapping<D>)>;

/// One packet position's query in a batched lookup
/// ([`NatEnv::lookup_batch`]): its key and the direction that names its
/// lookup, or `None` where the position asks nothing.
pub type Query<D> = Option<(Direction, Tuple<D>)>;

/// The one *concrete* environment (machine-integer domain) and its
/// parts: [`concrete::ConcreteEnv`] — the table half every concrete
/// run of the loop body shares — over a [`concrete::PacketSide`], plus
/// the per-packet `FlowId` hash memo.
pub mod concrete {
    use super::{Found, NatEnv, PktHandle, Query, SlotId};
    use crate::domain::{Concrete, Domain};
    use crate::flow_manager::{FlowTable, ProbeKey};
    use libvig::map::MapKey;
    use libvig::time::Time;
    use vig_packet::{Direction, Flow, FlowId, Ip4, Proto};
    use vig_spec::rfc3022::{Frame, Mapping, Tuple};

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
        fn receive(&mut self) -> Option<(PktHandle, Frame<Concrete>)>;

        /// Transmit `pkt` on `out` with the rewritten tuple. Consumes
        /// the buffer.
        fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: Tuple<Concrete>);

        /// Drop `pkt`. Consumes the buffer.
        fn drop_pkt(&mut self, pkt: PktHandle);
    }

    /// The concrete [`NatEnv`]: the loop body's table half — a borrowed
    /// [`FlowTable`], the run's clock and expiry count and the
    /// per-packet hash memo — over a [`PacketSide`] `P`. One env serves
    /// one iteration or one burst; it borrows its state, so building one
    /// costs nothing, and its batched lookup hands the loop body's query
    /// array to the table as it is, so a burst allocates nothing.
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
        #[inline]
        fn now(&mut self) -> u64 {
            self.now_ns
        }

        #[inline]
        fn expire_flows(&mut self, threshold: &u64) {
            self.expired += self.table.expire(Time(*threshold));
        }

        #[inline]
        fn receive(&mut self) -> Option<(PktHandle, Frame<Concrete>)> {
            let (handle, mut frame) = self.packets.receive()?;
            // The one place the concrete receive path zeroes the flag
            // byte of a non-TCP packet, as the spec's frame has it.
            if frame.proto != vig_packet::ipv4::PROTO_TCP {
                frame.tcp_flags = 0;
            }
            Some((handle, frame))
        }

        #[inline]
        fn branch(&mut self, cond: bool) -> bool {
            cond
        }

        #[inline]
        fn lookup_internal(&mut self, fid: &Tuple<Concrete>) -> Found<Concrete> {
            let key = fid.flow_id();
            // Hash once per packet; a following insert_flow reuses it.
            let hash = self.memo.hash_for_lookup(key);
            self.table.lookup_internal_hashed(&key, hash).map(hit)
        }

        #[inline]
        fn lookup_external(&mut self, ek: &Tuple<Concrete>) -> Found<Concrete> {
            self.table.lookup_external(&ek.ext_key()).map(hit)
        }

        #[inline]
        fn lookup_batch(&mut self, queries: &[Query<Concrete>], out: &mut [Found<Concrete>]) {
            // The table's one staged probe reads each key from `queries`
            // and writes each result at its position. On a sharded table
            // each internal key routes to its shard by this hash, inside
            // that one staged loop.
            let key = |i: usize| match &queries[i] {
                Some((Direction::Internal, fid)) => {
                    let key = fid.flow_id();
                    Some(ProbeKey::Internal(key, key.key_hash()))
                }
                Some((Direction::External, ek)) => Some(ProbeKey::External(ek.ext_key())),
                None => None,
            };
            self.table
                .probe_batch(queries.len(), key, |i, r| out[i] = r.map(hit));
        }

        #[inline]
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

        #[inline]
        fn allocate_slot(&mut self, now: &u64) -> Option<(SlotId, u16, u32)> {
            // The memoized hash of the just-missed lookup routes the
            // allocation (the shard selector on sharded tables).
            let slot = self
                .table
                .allocate_slot_routed(self.memo.hash_for_alloc(), Time(*now))?;
            let (ip, _) = self.table.endpoint_of_slot(slot);
            Some((SlotId(slot), self.table.port_offset_of_slot(slot), ip.raw()))
        }

        #[inline]
        fn insert_flow(
            &mut self,
            slot: SlotId,
            fid: Tuple<Concrete>,
            (ext_ip, ext_port): (u32, u16),
            _now: &u64,
            tcp_flags: &u8,
        ) {
            let key = fid.flow_id();
            // Reuse the hash memoized by the lookup miss that precedes
            // every insert on the same packet.
            let hash = self.memo.hash_for_insert(&key);
            self.table
                .insert_hashed(slot.0, key, Ip4(ext_ip), ext_port, hash, *tcp_flags);
        }

        #[inline]
        fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: Tuple<Concrete>) {
            self.packets.tx(pkt, out, hdr);
        }

        #[inline]
        fn drop_pkt(&mut self, pkt: PktHandle) {
            self.packets.drop_pkt(pkt);
        }
    }

    /// A matched flow as the loop body sees it: its slot and mapping.
    #[inline]
    fn hit((slot, flow): (usize, Flow)) -> (SlotId, Mapping<Concrete>) {
        let int = (flow.int_key.src_ip.raw(), flow.int_key.src_port);
        let ext = (flow.ext_ip.raw(), flow.ext_port);
        (SlotId(slot), Mapping { int, ext })
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
        #[inline]
        fn hash_for_lookup(&mut self, key: FlowId) -> u64 {
            let h = key.key_hash();
            self.0 = Some((key, h));
            h
        }

        /// Hash for the insert of `key`: the memoized value when it
        /// matches, a fresh hash otherwise.
        #[inline]
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
        #[inline]
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

    /// Non-blocking receive: the pending packet's ownership handle and
    /// header fields, `None` when no packet is pending. The burst loop
    /// body ([`crate::loop_body::nat_process_batch_into`]) calls it
    /// until it returns `None` or the burst is full.
    fn receive(&mut self) -> Option<(PktHandle, Frame<Self::Values>)>;

    /// Decide a branch. Concrete environments evaluate the condition;
    /// the symbolic engine forks execution here, recording the
    /// condition (or its negation) as a path constraint.
    fn branch(&mut self, cond: Self::B) -> bool;

    /// Look up a flow by internal flow id: its slot and mapping.
    fn lookup_internal(&mut self, fid: &Tuple<Self::Values>) -> Found<Self::Values>;

    /// Look up a flow by external key: its slot and mapping.
    fn lookup_external(&mut self, ek: &Tuple<Self::Values>) -> Found<Self::Values>;

    /// Resolve a burst's lookups by packet position: `queries[i]` is
    /// position `i`'s key and the direction that names its lookup —
    /// [`NatEnv::lookup_internal`] or [`NatEnv::lookup_external`] — or
    /// `None` where position `i` asks nothing; `out[i]` receives the
    /// result of query `i`, and is left alone where there is none
    /// (`out.len() == queries.len()`). Must be observationally identical
    /// to those per-query calls — the default makes exactly them; the
    /// concrete environment hands the queries, both directions at once,
    /// to the flow table's one staged burst probe
    /// ([`crate::flow_manager::FlowTable::probe_batch`]) so the burst's
    /// cache misses overlap instead of serializing, and a burst that
    /// asks one direction pays for that direction alone.
    ///
    /// The burst loop body ([`crate::loop_body::nat_process_batch_into`])
    /// calls it from two packets on and only *trusts* its hits: burst
    /// mates can insert flows (turning a stale miss into a hit) but never
    /// remove one, so misses are re-checked at their sequence point.
    fn lookup_batch(&mut self, queries: &[Query<Self::Values>], out: &mut [Found<Self::Values>]) {
        for (query, found) in queries.iter().zip(out) {
            match query {
                Some((Direction::Internal, fid)) => *found = self.lookup_internal(fid),
                Some((Direction::External, ek)) => *found = self.lookup_external(ek),
                None => {}
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

    /// Populate a reserved slot with the flow `fid` mapped to the
    /// external endpoint `ext` (Fig. 6 line 16). `tcp_flags` seeds the
    /// TCP tracker's initial state for TCP flows (opaque to the
    /// stateless code, ignored symbolically — see
    /// [`NatEnv::rejuvenate`]).
    fn insert_flow(
        &mut self,
        slot: SlotId,
        fid: Tuple<Self::Values>,
        ext: Endpoint<Self>,
        now: &Self::U64,
        tcp_flags: &Self::U8,
    );

    /// Transmit the packet on `out` with the rewritten header `hdr`.
    /// The concrete environment applies it to the packet bytes with
    /// incremental checksum updates; the symbolic environment records
    /// it in the trace for P1. Consumes the buffer.
    fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: Tuple<Self::Values>);

    /// Drop the packet. Consumes the buffer.
    fn drop_pkt(&mut self, pkt: PktHandle);
}
