//! The flow manager: VigNAT's stateful half, entirely in libVig
//! structures.
//!
//! State layout (the C VigNAT's, minus its second hash directory and
//! minus the stored copy of what the slot index already says):
//!
//! * a [`DoubleMap`] holding one 16-byte record per slot `0..capacity`
//!   — the internal 5-tuple and the TCP tracker, four records to a
//!   cache line, none straddling — with one hash directory, keyed by
//!   the internal 5-tuple;
//! * a [`DoubleChain`] allocating those same slot indices and keeping
//!   their last-activity order for expiry — the only timestamp-ordered
//!   structure there is;
//! * the invariant tying them: slot `i` is chain-allocated **iff** slot
//!   `i` is dmap-occupied, and the flow in slot `i` owns the pool
//!   endpoint `(ext_ip, ext_port) = endpoint(cfg, slot_base + i)`.
//!
//! That last equality is the trick that removes the need for a separate
//! endpoint allocator: endpoint uniqueness *is* slot uniqueness, which
//! the dchain contract guarantees. With the paper's single-address pool
//! it reads `ext_port == start_port + i`, VigNAT's literal invariant.
//! It is also where a flow's endpoint is kept: nowhere. The bijection
//! is the storage — [`FlowTable::endpoint_of_slot`] computes a slot's
//! endpoint (an add on a single-address pool), lookups hand out
//! [`Flow`] *views* built from
//! the record or the query plus that arithmetic, and the one place an
//! endpoint enters from outside, [`FlowTable::insert_hashed`],
//! `assert!`s it is the slot's (unreachable under P4; a stored copy
//! that disagreed with its slot used to sit unreachable in the table
//! instead).
//!
//! And it is the whole external lookup: a return packet's destination
//! endpoint, run backwards through the bijection
//! ([`NatConfig::slot_of_endpoint`], minus `slot_base`), *is* the slot
//! index, so [`FlowTable::lookup_external`] is three integer
//! operations and one comparison of the slot's remote endpoint and
//! protocol with the packet's — no hash, no probe. The key the
//! [`DoubleMap`] contract sees is `(slot, remote ip, remote port,
//! proto)`: the slot stands for the endpoint it is in bijection with,
//! so the key is unique and no packet can be handed to the wrong flow.
//! [`FlowTable::check_coherence`] asserts the full invariant; the
//! differential and property tests call it liberally.
//!
//! ## Expiry: one LRU list per timeout class
//!
//! On a homogeneous configuration (the paper's, and every config where
//! the TCP lifetimes inherit `expiry_ns`) the chain has **one list** and
//! expiry is the paper's Fig. 6 loop: free the head while
//! `last_active + Texp <= now`. O(1) per expired flow, because one
//! `Texp` and a monotone clock make last-activity order deadline order.
//!
//! With per-class TCP lifetimes configured (`!cfg.is_homogeneous()`)
//! the tracker state in a TCP flow's record ([`vig_spec::TcpState`];
//! UDP flows have none) also names the flow's current
//! [`vig_spec::TimeoutClass`], and the chain has **one list per class**
//! ([`DoubleChain::with_lists`]). Rejuvenation steps the tracker
//! ([`vig_spec::tcp::transition`]) and re-links the slot at the tail of
//! its (possibly new) class's list — refresh and class migration are
//! the same operation. Within one class the lifetime is constant, so
//! each list is still in deadline order and only the three heads can be
//! due: [`libvig::expirator::expire_items`] merges them, freeing due
//! slots in ascending `(deadline, class, within-class LRU)` order. That
//! order is part of the behaviour — it is the order slots return to the
//! free list, hence which slot and external port the next flows get.
//! On one list it is global LRU order, ties included; the two orders
//! differ on equal deadlines across classes, which is why a homogeneous
//! config gets one list rather than three with equal lifetimes.
//!
//! The only precondition is the monotone clock every driver already
//! guarantees (asserted here in debug builds). `tests/expiry_equivalence.rs`
//! holds the manager to a naive model of exactly this order.
//!
//! ## The burst pipeline
//!
//! What one rejuvenated hit touches on a table larger than cache, in
//! 64-byte lines: an internal UDP hit **4** — the directory line its
//! probe starts on, chain cell, the cells of the slot's two list
//! neighbours; the directory slot compared the whole key and the
//! endpoint is arithmetic, so the record is never loaded — an internal
//! TCP hit **5** (the record, for the tracker), a return hit **4**
//! (record, chain cell, two neighbours). One lookup at a time pays
//! those misses in series, level after dependent level.
//! [`FlowTable::probe_batch`] instead runs the burst in stages, each
//! issued for every query of a chunk, internal and return keys alike,
//! before the next begins, so the misses of one stage overlap:
//!
//! 1. every key, read once and routed, and its first line — an
//!    internal key's directory line its probe starts on
//!    ([`libvig::map::get_staged`]), a return key's candidate record
//!    (the slot its endpoint names: arithmetic);
//! 2. the key comparisons of both kinds;
//! 3. for every hit the chain cell, and for an internal TCP hit its
//!    record;
//! 4. for every hit the two neighbours the chain's unlink will write.
//!
//! The touches are prefetch instructions ([`libvig::prefetch`])
//! through the structures' `first_touch*` hints — they change no state,
//! so results stay exactly the per-query lookups', and they retire
//! without waiting for their lines, so a cold touch holds up nothing
//! behind it — and run on every table, however few flows it tracks.
//!
//! Queries and results stay at their packet positions: the pipeline
//! reads each position's key through the caller's closure, once, and
//! hands each result back through another, so the caller keeps its
//! queries in whatever shape it has them. Each query names the table
//! that owns it — this one, or on a sharded table the shard its hash or
//! endpoint routes to — so one staged loop serves every shard: nothing
//! is gathered, split or scattered, and a burst that mixes shards or
//! directions overlaps their misses as one table's would, while a
//! burst that asks one direction pays for that direction alone.

use libvig::dchain::DoubleChain;
use libvig::dmap::{DmapValue, DoubleMap};
use libvig::expirator;
use libvig::map::{get_staged, BATCH_CHUNK};
use libvig::time::Time;
use vig_packet::{Direction, ExtKey, Flow, FlowId, Ip4, Proto};
use vig_spec::tcp::{initial_state, transition};
use vig_spec::{NatConfig, TcpState, TimeoutClass};

/// The flow-table interface the concrete environments drive.
///
/// This is the seam at which the unsharded [`FlowManager`] and the
/// sharded [`crate::sharded::ShardedFlowManager`] are interchangeable:
/// the concrete env ([`crate::env::concrete::ConcreteEnv`], under
/// every packet side) is generic over a `FlowTable`, and the verified
/// loop body above it is oblivious — it sees only [`crate::env::NatEnv`]. Every internal-key
/// operation takes the caller's memoized key hash, both to skip
/// rehashing and because **the hash doubles as the
/// shard selector** for sharded implementations — which is why
/// [`FlowTable::allocate_slot_routed`] carries the flow hash: the shard
/// a fresh flow's slot (and therefore its external port) comes from is
/// a function of that hash, so allocation never crosses shards.
/// External keys are never hashed: their endpoint names shard and slot.
///
/// Slot indices returned by lookups and allocation are *global*: a
/// sharded table exposes `shard * per_shard_capacity + local_slot`, so
/// the VigNAT invariant `ext_port == start_port + slot` holds verbatim
/// for the whole table and the loop body's port arithmetic needs no
/// sharding awareness. One shard's [`FlowManager`], driven alone by a
/// per-core worker, numbers its slots locally, but its
/// [`FlowTable::port_offset_of_slot`] is still the pool's, which is all
/// that arithmetic reads.
pub trait FlowTable {
    /// Flows currently tracked.
    fn flow_count(&self) -> usize;

    /// Total slot capacity.
    fn table_capacity(&self) -> usize;

    /// Expire every flow with `last_active <= threshold`; returns how
    /// many were removed. Sharded implementations expire all shards; a
    /// per-core driver, with a clock per shard, calls its own shard's.
    fn expire(&mut self, threshold: Time) -> usize;

    /// Find a flow by internal 5-tuple; `hash == fid.key_hash()`. The
    /// [`Flow`] is a view, by value: `fid` plus the slot's endpoint.
    fn lookup_internal_hashed(&self, fid: &FlowId, hash: u64) -> Option<(usize, Flow)>;

    /// Resolve a burst of lookups by packet position, for positions
    /// `0..n`: `key(i)` is asked once per position and answers its
    /// [`ProbeKey`], or `None` where position `i` asks nothing;
    /// `found(i, result)` is called exactly once for each position that
    /// asks, and never for one that does not. Each result must equal
    /// the per-key lookup — [`FlowTable::lookup_internal_hashed`] or
    /// [`FlowTable::lookup_external`], duplicates and endpoints no shard
    /// owns included. Batching is a pure optimization: beyond the
    /// results, an implementation may only *prefetch* what the hits'
    /// rejuvenations will touch, so those misses overlap across the
    /// burst, across directions and shards too (module docs, "The burst
    /// pipeline").
    fn probe_batch(
        &self,
        n: usize,
        key: impl FnMut(usize) -> Option<ProbeKey>,
        found: impl FnMut(usize, Option<(usize, Flow)>),
    );

    /// Find a flow by external key: the flow in the slot that owns the
    /// key's pool endpoint, if its external key is `ek`. An endpoint
    /// outside the pool (or in no shard's partition) is a miss. The
    /// [`Flow`] is a view, by value: the slot's record plus its endpoint.
    fn lookup_external(&self, ek: &ExtKey) -> Option<(usize, Flow)>;

    /// Refresh the activity timestamp of an allocated (global) slot.
    /// `dir`/`tcp_flags` step the slot's TCP tracker (when it has one),
    /// which may migrate the flow between timeout classes; UDP slots
    /// ignore them (pass `tcp_flags == 0`). For callers that hold only
    /// a slot: the record says whether there is a tracker.
    fn rejuvenate(&mut self, slot: usize, now: Time, dir: Direction, tcp_flags: u8);

    /// [`FlowTable::rejuvenate`] by a caller that knows the flow's
    /// protocol (the loop body: it matched the packet's key, protocol
    /// included, on this iteration) — a UDP flow's record is then never
    /// loaded. `proto` must be the flow's.
    fn rejuvenate_proto(
        &mut self,
        slot: usize,
        now: Time,
        dir: Direction,
        tcp_flags: u8,
        proto: Proto,
    );

    /// Reserve a slot for a new flow whose internal key hashes to
    /// `fid_hash`, stamped `now`. Returns the *global* slot, or `None`
    /// when the routed shard is full (for the unsharded table: when the
    /// table is full — the hash is ignored).
    ///
    /// Contract (P4, as for [`crate::env::NatEnv::allocate_slot`]): the
    /// caller must follow up with [`FlowTable::insert_hashed`] for the
    /// same slot with a flow id hashing to `fid_hash`, on the same
    /// iteration.
    fn allocate_slot_routed(&mut self, fid_hash: u64, now: Time) -> Option<usize>;

    /// The pool endpoint owned by (global) slot `slot` — the
    /// `(ext_ip, ext_port)` a flow inserted there must carry. With a
    /// single-address pool this is `(external_ip, start_port + slot)`.
    fn endpoint_of_slot(&self, slot: usize) -> (Ip4, u16);

    /// (Global) slot `slot`'s port offset within its pool address — the
    /// `offset` the loop body feeds into `ext_port = start_port +
    /// offset` ([`crate::env::NatEnv::allocate_slot`]). Equals the slot
    /// index itself with a single-address pool.
    fn port_offset_of_slot(&self, slot: usize) -> u16;

    /// Populate a reserved slot; `fid_hash == fid.key_hash()`, and
    /// `(ext_ip, ext_port) == endpoint_of_slot(slot)` (globally) —
    /// asserted, in every build: the table stores no endpoint, so this
    /// is where a wrong one is caught. `tcp_flags` seeds the TCP
    /// tracker for TCP flows
    /// ([`vig_spec::tcp::initial_state`]); ignored for UDP.
    fn insert_hashed(
        &mut self,
        slot: usize,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        fid_hash: u64,
        tcp_flags: u8,
    );

    /// Assert the table's cross-structure coherence invariant
    /// (test/diagnostic use; O(capacity)).
    fn check_coherence(&self) -> Result<(), String>;
}

/// One packet position's key in a batched probe
/// ([`FlowTable::probe_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKey {
    /// An internal 5-tuple and its hash (`hash == fid.key_hash()`).
    Internal(FlowId, u64),
    /// A return packet's external key.
    External(ExtKey),
}

/// The pool endpoint `(ext_ip, ext_port)` that *global* slot `global`
/// of `cfg`'s pool owns: [`NatConfig::ext_ip_of_slot`] and
/// [`NatConfig::ext_port_of_slot`] without their divisions while the
/// pool is one address (the paper's setup, and the datapath's: this
/// runs per internal hit). The one slot → endpoint computation of this
/// crate; [`NatConfig::slot_of_endpoint`] inverts it.
#[inline]
pub(crate) fn endpoint(cfg: &NatConfig, global: usize) -> (Ip4, u16) {
    debug_assert!(global < cfg.capacity, "slot out of range");
    if cfg.is_single_address() {
        // `global < capacity <= ports_per_ip = 65536 - start_port`: the
        // sum fits the port.
        (cfg.external_ip, cfg.start_port + global as u16)
    } else {
        (cfg.ext_ip_of_slot(global), cfg.ext_port_of_slot(global))
    }
}

/// What the table stores per flow: the internal 5-tuple and, for a TCP
/// flow, its tracker — everything the slot index does not already say.
/// The external endpoint is [`endpoint`] of the slot (module docs).
///
/// 14 bytes of fields; aligned to 16 so four records fill a cache line
/// and none straddles two (`Option<FlowRecord>` stays 16 through the
/// `Proto` / `TcpState` niches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(16))]
struct FlowRecord {
    src_ip: Ip4,
    dst_ip: Ip4,
    src_port: u16,
    dst_port: u16,
    proto: Proto,
    /// `Some` iff `proto` is TCP ([`FlowTable::check_coherence`]), so
    /// it alone names the flow's timeout class.
    tracker: Option<TcpState>,
}

/// The record's B-key: its slot — standing for the pool endpoint the
/// slot is in bijection with — and the remote endpoint and protocol.
type ReturnKey = (usize, Ip4, u16, Proto);

/// `ek` as the B-key of the record that `slot` would have to hold.
#[inline]
fn return_key(slot: usize, ek: &ExtKey) -> ReturnKey {
    (slot, ek.dst_ip, ek.dst_port, ek.proto)
}

impl DmapValue for FlowRecord {
    type KeyA = FlowId;
    type KeyB = ReturnKey;

    #[inline]
    fn key_a(&self) -> FlowId {
        FlowId {
            src_ip: self.src_ip,
            src_port: self.src_port,
            dst_ip: self.dst_ip,
            dst_port: self.dst_port,
            proto: self.proto,
        }
    }

    #[inline]
    fn key_b(&self, index: usize) -> ReturnKey {
        (index, self.dst_ip, self.dst_port, self.proto)
    }
}

/// The NAT's flow table + expiry machinery. See module docs.
#[derive(Debug, Clone)]
pub struct FlowManager {
    table: DoubleMap<FlowRecord>,
    /// One LRU list on a homogeneous config, else one per
    /// [`TimeoutClass`], indexed by `TimeoutClass::index()` (module
    /// docs).
    chain: DoubleChain,
    /// The *global* pool configuration the endpoint mapping runs on.
    cfg: NatConfig,
    /// This table's first global slot (0 standalone; `s * per_shard`
    /// for shard `s` of a sharded table).
    slot_base: usize,
    capacity: usize,
    /// High-water mark of the clock values seen, for the monotonicity
    /// precondition (debug-asserted).
    #[cfg(debug_assertions)]
    clock_high: Time,
}

impl FlowManager {
    /// Preallocate for `cfg.capacity` flows. Panics if the configuration
    /// violates [`crate::loop_body::check_config`] — a start-up error,
    /// never a datapath one.
    pub fn new(cfg: &NatConfig) -> FlowManager {
        FlowManager::for_shard(cfg, cfg.capacity, 0)
    }

    /// A flow manager owning the `capacity` global slots starting at
    /// `slot_base` of `cfg`'s pool — the shard constructor
    /// ([`crate::sharded::ShardedFlowManager`] builds one per shard;
    /// standalone tables use `slot_base == 0` and the full capacity).
    pub fn for_shard(cfg: &NatConfig, capacity: usize, slot_base: usize) -> FlowManager {
        crate::loop_body::check_config(cfg).expect("invalid NAT configuration");
        assert!(
            slot_base + capacity <= cfg.capacity,
            "shard slots {slot_base}..{} exceed pool capacity {}",
            slot_base + capacity,
            cfg.capacity
        );
        let lists = if cfg.is_homogeneous() {
            1
        } else {
            TimeoutClass::ALL.len()
        };
        FlowManager {
            table: DoubleMap::new(capacity),
            chain: DoubleChain::with_lists(capacity, lists),
            cfg: *cfg,
            slot_base,
            capacity,
            #[cfg(debug_assertions)]
            clock_high: Time::ZERO,
        }
    }

    /// Discard every flow and rebuild this table empty, keeping its
    /// identity (config, slot range). The supervisor's recovery
    /// primitive: after a worker panic the shard's state is suspect —
    /// mid-batch, any subset of table/chain updates may have landed — so
    /// the restarted worker starts from the one state whose invariants
    /// are trivially re-established, the empty table. Equivalent to (and
    /// implemented as) constructing a fresh [`FlowManager::for_shard`]
    /// with the stored parameters.
    pub fn reset(&mut self) {
        *self = FlowManager::for_shard(&self.cfg, self.capacity, self.slot_base);
    }

    /// Debug-only: the clock precondition. Every driver feeds the table
    /// a monotone clock (the NAT has one clock); each chain list being
    /// in deadline order leans on it.
    #[inline]
    fn note_clock(&mut self, now: Time) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.clock_high <= now,
                "the flow table requires a monotone clock: {:?} after {:?}",
                now,
                self.clock_high
            );
            self.clock_high = now;
        }
        #[cfg(not(debug_assertions))]
        let _ = now;
    }

    /// The flow in (local) slot `slot` whose internal key is `int_key`,
    /// as lookups hand it out.
    #[inline]
    fn view(&self, slot: usize, int_key: FlowId) -> Flow {
        let (ext_ip, ext_port) = self.endpoint_of_slot(slot);
        Flow {
            int_key,
            ext_ip,
            ext_port,
        }
    }

    /// The flow in (local) slot `slot`, from its record.
    #[inline]
    fn flow_at(&self, slot: usize) -> Option<Flow> {
        self.table.get(slot).map(|r| self.view(slot, r.key_a()))
    }

    /// The chain list a slot whose tracker reads `st` lives on: its
    /// timeout class's. The table tracks a flow iff it is TCP
    /// ([`FlowTable::check_coherence`]), so `None` is a UDP flow.
    #[inline]
    fn list_of(&self, st: Option<TcpState>) -> usize {
        if self.chain.lists() == 1 {
            0
        } else {
            st.map_or(TimeoutClass::Udp, TcpState::class).index()
        }
    }

    /// The (local) slot that owns `ek`'s pool endpoint — the inverse of
    /// [`FlowTable::endpoint_of_slot`]. `None`, before any memory is
    /// touched, for an endpoint outside the pool or in a sibling shard's
    /// slot range.
    #[inline]
    fn slot_of_ext(&self, ek: &ExtKey) -> Option<usize> {
        let global = self.cfg.slot_of_endpoint(ek.ext_ip, ek.ext_port)?;
        let local = global.checked_sub(self.slot_base)?;
        (local < self.capacity).then_some(local)
    }

    /// Re-link `slot`, stamped `now`, at the tail of the list of the
    /// class its tracker `st` names.
    #[inline]
    fn relink(&mut self, slot: usize, st: Option<TcpState>, now: Time) {
        self.note_clock(now);
        let ok = self.chain.rejuvenate_on(slot, self.list_of(st), now);
        debug_assert!(ok, "rejuvenate of unallocated slot {slot}");
    }

    /// The TCP tracker state of an occupied slot (`None` for UDP
    /// flows). Diagnostic/test accessor.
    pub fn tcp_state_of(&self, slot: usize) -> Option<TcpState> {
        debug_assert!(self.chain.is_allocated(slot));
        self.table.get(slot).and_then(|r| r.tracker)
    }

    /// Probe length of an internal-key lookup in the flow directory —
    /// how many positions the directory probe walks for `fid`
    /// (hit or miss). Diagnostic for the occupancy benchmarks and the
    /// high-occupancy equivalence suite; the datapath never calls it.
    pub fn internal_probe_len(&self, fid: &FlowId) -> usize {
        self.table.probe_len_by_a(fid)
    }

    /// Iterate over live flows (slot, flow, last_active), oldest first
    /// (per-class lists merged by `(last_active, class)`); each flow a
    /// view of its record and its slot's endpoint. For tests and
    /// statistics; the datapath never scans.
    pub fn iter_lru(&self) -> impl Iterator<Item = (usize, Flow, Time)> + '_ {
        self.chain
            .iter_lru()
            .filter_map(move |(slot, t)| self.flow_at(slot).map(|f| (slot, f, t)))
    }
}

/// The table standalone, or one shard of a sharded table: its slots are
/// local, `0..capacity`, and own the pool endpoints from `slot_base` on.
impl FlowTable for FlowManager {
    #[inline]
    fn flow_count(&self) -> usize {
        self.table.size()
    }

    #[inline]
    fn table_capacity(&self) -> usize {
        self.capacity
    }

    /// `threshold` is what the loop body computes: `now -
    /// min_lifetime_ns()`. The manager reconstructs `now` and applies
    /// each list's own lifetime (module docs) — a flow is due iff
    /// `last_active + lifetime(class) <= now`, which on a homogeneous
    /// config is the paper's `last_active <= threshold`. (The addition
    /// saturates only for a threshold no clock can produce.)
    #[inline]
    fn expire(&mut self, threshold: Time) -> usize {
        let now = threshold.plus(self.cfg.min_lifetime_ns());
        let lifetimes = TimeoutClass::ALL.map(|c| self.cfg.lifetime_ns(c));
        let lifetimes = &lifetimes[..self.chain.lists()];
        expirator::expire_items(&mut self.chain, &mut self.table, lifetimes, now)
    }

    /// The directory slot compared the whole key, so the hit's view is
    /// `fid` and arithmetic: the record is not loaded.
    #[inline]
    fn lookup_internal_hashed(&self, fid: &FlowId, hash: u64) -> Option<(usize, Flow)> {
        let slot = self.table.get_by_a_with_hash(fid, hash)?;
        Some((slot, self.view(slot, *fid)))
    }

    #[inline]
    fn probe_batch(
        &self,
        n: usize,
        key: impl FnMut(usize) -> Option<ProbeKey>,
        found: impl FnMut(usize, Option<(usize, Flow)>),
    ) {
        probe_staged(n, key, found, |_| (self, 0), |_| Some((self, 0)));
    }

    /// Index the slot the key's endpoint names, compare the rest of the
    /// key with the record's (module docs).
    #[inline]
    fn lookup_external(&self, ek: &ExtKey) -> Option<(usize, Flow)> {
        let slot = self.slot_of_ext(ek)?;
        let slot = self.table.get_by_b_at(&return_key(slot, ek), slot)?;
        self.flow_at(slot).map(|f| (slot, f))
    }

    /// Steps the tracker in place in the record (a UDP flow's record has
    /// none: nothing to step). A state change can migrate the flow
    /// between timeout classes; either way the slot is re-linked,
    /// stamped `now`, at the tail of its class's list.
    ///
    /// Precondition (P4, validated by the Vigor pipeline): `slot` was
    /// returned by a lookup on this same iteration, hence allocated.
    #[inline]
    fn rejuvenate(&mut self, slot: usize, now: Time, dir: Direction, tcp_flags: u8) {
        let step = |r: &mut FlowRecord| {
            r.tracker = r.tracker.map(|st| transition(st, dir, tcp_flags));
            r.tracker
        };
        let st = self.table.update(slot, step).flatten();
        self.relink(slot, st, now);
    }

    /// A UDP flow has no tracker and one class, so its record is not
    /// loaded — the chain cell alone is touched.
    #[inline]
    fn rejuvenate_proto(
        &mut self,
        slot: usize,
        now: Time,
        dir: Direction,
        tcp_flags: u8,
        proto: Proto,
    ) {
        debug_assert!(
            self.table.get(slot).is_none_or(|r| r.proto == proto),
            "slot {slot} rejuvenated as {proto:?}"
        );
        match proto {
            Proto::Tcp => self.rejuvenate(slot, now, dir, tcp_flags),
            Proto::Udp => self.relink(slot, None, now),
        }
    }

    /// One port pool (or the shard the hash already chose): the hash
    /// plays no routing role here.
    #[inline]
    fn allocate_slot_routed(&mut self, _fid_hash: u64, now: Time) -> Option<usize> {
        self.note_clock(now);
        self.chain.allocate(now).ok()
    }

    #[inline]
    fn endpoint_of_slot(&self, slot: usize) -> (Ip4, u16) {
        debug_assert!(slot < self.capacity);
        endpoint(&self.cfg, self.slot_base + slot)
    }

    #[inline]
    fn port_offset_of_slot(&self, slot: usize) -> u16 {
        self.endpoint_of_slot(slot).1 - self.cfg.start_port
    }

    /// The lookup miss that precedes every insert already hashed the
    /// key; `fid_hash` reuses that work.
    ///
    /// Panics, in every build, if `(ext_ip, ext_port)` is not the slot's
    /// endpoint: the table keeps no copy of it, every later lookup hands
    /// out the slot's, so a caller translating through another would
    /// have its return traffic delivered to whichever flow owns that one.
    #[inline]
    fn insert_hashed(
        &mut self,
        slot: usize,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        fid_hash: u64,
        tcp_flags: u8,
    ) {
        assert!(
            slot < self.capacity && (ext_ip, ext_port) == self.endpoint_of_slot(slot),
            "slot/endpoint bijection violated: slot {slot} of {} does not own {ext_ip}:{ext_port}",
            self.capacity
        );
        let tracker = (fid.proto == Proto::Tcp).then(|| initial_state(tcp_flags));
        let record = FlowRecord {
            src_ip: fid.src_ip,
            dst_ip: fid.dst_ip,
            src_port: fid.src_port,
            dst_port: fid.dst_port,
            proto: fid.proto,
            tracker,
        };
        let ok = self.table.put_with_hash(slot, record, fid_hash);
        debug_assert!(ok.is_ok(), "insert into occupied slot {slot}");
        if self.chain.lists() > 1 {
            // `allocate_slot_routed` linked and stamped the slot on list
            // 0 (same iteration, P4); its class is only known now. Keeps
            // the stamp, so within a class slots order by insertion.
            let stamp = self
                .chain
                .timestamp_of(slot)
                .expect("insert into unallocated slot");
            self.chain.rejuvenate_on(slot, self.list_of(tracker), stamp);
        }
    }

    #[inline]
    fn check_coherence(&self) -> Result<(), String> {
        if self.table.size() != self.chain.size() {
            return Err(format!(
                "size mismatch: dmap {} vs dchain {}",
                self.table.size(),
                self.chain.size()
            ));
        }
        // The flow directory's probe invariants — expiry and slot
        // realloc go through erase/put, which maintain them.
        self.table.check_directory_coherence()?;
        // Every allocated slot is on the list of the class its tracker
        // names, and each list is in stamp (hence deadline) order.
        let mut linked = 0;
        for list in 0..self.chain.lists() {
            let mut prev = Time::ZERO;
            for (slot, stamp) in self.chain.iter_list(list) {
                let tracker = self.table.get(slot).and_then(|r| r.tracker);
                if self.list_of(tracker) != list {
                    return Err(format!(
                        "slot {slot}: on list {list} with tracker {tracker:?}"
                    ));
                }
                if stamp < prev {
                    return Err(format!(
                        "slot {slot}: list {list} out of order, {stamp:?} after {prev:?}"
                    ));
                }
                prev = stamp;
                linked += 1;
            }
        }
        if linked != self.chain.size() {
            return Err(format!(
                "chain lists link {linked} slots, dchain allocates {}",
                self.chain.size()
            ));
        }
        for slot in 0..self.capacity {
            let in_map = self.table.get(slot).is_some();
            let in_chain = self.chain.is_allocated(slot);
            if in_map != in_chain {
                return Err(format!("slot {slot}: dmap={in_map} dchain={in_chain}"));
            }
            if let Some(r) = self.table.get(slot) {
                // TCP tracker coherence: tracked iff TCP (which is what
                // lets the tracker alone name the class, above).
                if r.tracker.is_some() != (r.proto == Proto::Tcp) {
                    return Err(format!(
                        "slot {slot}: tracker {:?} for proto {:?}",
                        r.tracker, r.proto
                    ));
                }
                // The flow's endpoint is the pool's for this slot, by
                // the spec's own (dividing) mapping...
                let global = self.slot_base + slot;
                let pool = (
                    self.cfg.ext_ip_of_slot(global),
                    self.cfg.ext_port_of_slot(global),
                );
                if self.endpoint_of_slot(slot) != pool {
                    return Err(format!(
                        "slot {slot}: endpoint {:?} != pool endpoint {pool:?}",
                        self.endpoint_of_slot(slot)
                    ));
                }
                // ...and what the external lookup leans on, through the
                // datapath's own inverse: the flow's key indexes here.
                let indexed = self.slot_of_ext(&self.view(slot, r.key_a()).ext_key());
                if indexed != Some(slot) {
                    return Err(format!(
                        "slot {slot}: external key indexes slot {indexed:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A position of a chunk after stage 1: its key, routed.
#[derive(Clone, Copy)]
enum Staged<'t> {
    /// An internal key and its hash, the table it routes to and the
    /// global slot of that table's local slot 0.
    Internal(FlowId, u64, &'t FlowManager, usize),
    /// A return key and where its flow can only be: the table that owns
    /// its endpoint, the global slot of that table's local slot 0, and
    /// the local slot the endpoint names; `None` when it names no
    /// table's slot.
    External(ExtKey, Option<(&'t FlowManager, usize, usize)>),
}

/// A hit as stages 3–4 need it: its table, its (local) slot, and
/// whether its rejuvenation reads the record.
type Touch<'t> = Option<(&'t FlowManager, usize, bool)>;

/// The burst pipeline (module docs) — the one every table runs, over
/// one table or every shard of a sharded one, both directions at once.
/// Per chunk of [`BATCH_CHUNK`] positions: (1) each key, read once and
/// routed, and its first line — an internal key's directory start line
/// ([`libvig::map::get_staged`], in the directory of the shard it
/// routes to), a return key's candidate record (the slot its endpoint
/// names: arithmetic); (2) the key comparisons of both kinds; then
/// stages 3–4 for every hit. `internal(hash)` names the table an
/// internal key routes to and the global slot of that table's local
/// slot 0; `external(ek)` the same for the table that owns `ek`'s
/// endpoint, or `None` when no table does. `key` and `found` are
/// [`FlowTable::probe_batch`]'s.
#[inline]
pub(crate) fn probe_staged<'t>(
    n: usize,
    mut key: impl FnMut(usize) -> Option<ProbeKey>,
    mut found: impl FnMut(usize, Option<(usize, Flow)>),
    internal: impl Fn(u64) -> (&'t FlowManager, usize),
    external: impl Fn(&ExtKey) -> Option<(&'t FlowManager, usize)>,
) {
    for first in (0..n).step_by(BATCH_CHUNK) {
        let len = BATCH_CHUNK.min(n - first);
        let mut staged: [Option<Staged<'t>>; BATCH_CHUNK] = [None; BATCH_CHUNK];
        for (i, s) in staged[..len].iter_mut().enumerate() {
            *s = key(first + i).map(|k| match k {
                ProbeKey::Internal(fid, hash) => {
                    let (fm, base) = internal(hash);
                    Staged::Internal(fid, hash, fm, base)
                }
                ProbeKey::External(ek) => {
                    let at =
                        external(&ek).and_then(|(fm, base)| Some((fm, base, fm.slot_of_ext(&ek)?)));
                    if let Some((fm, _, slot)) = at {
                        // The comparison below reads it.
                        fm.table.first_touch(slot);
                    }
                    Staged::External(ek, at)
                }
            });
        }
        let mut touches: [Touch<'t>; BATCH_CHUNK] = [None; BATCH_CHUNK];
        // Internal keys: stage 1's start lines, then the comparisons.
        get_staged(
            len,
            |i| match &staged[i] {
                Some(Staged::Internal(fid, hash, fm, _)) => {
                    Some((fm.table.directory(), fid, *hash))
                }
                _ => None,
            },
            |i, slot| {
                let Some(Staged::Internal(fid, _, fm, base)) = staged[i] else {
                    unreachable!("results come only for internal keys")
                };
                // The directory slot compared the whole key: the view is
                // the query plus arithmetic.
                let hit = slot.map(|slot| (base + slot, fm.view(slot, fid)));
                found(first + i, hit);
                // Only a TCP hit's rejuvenation reads its record (the
                // tracker); a UDP hit is done with the directory.
                touches[i] = slot.map(|slot| (fm, slot, fid.proto == Proto::Tcp));
            },
        );
        // Return keys: the comparisons.
        for (i, s) in staged[..len].iter().enumerate() {
            let Some(Staged::External(ek, at)) = s else {
                continue;
            };
            let hit = at.and_then(|(fm, base, slot)| {
                let slot = fm.table.get_by_b_at(&return_key(slot, ek), slot)?;
                Some((fm, base, slot))
            });
            found(
                first + i,
                hit.and_then(|(fm, base, slot)| Some((base + slot, fm.flow_at(slot)?))),
            );
            touches[i] = hit.map(|(fm, _, slot)| (fm, slot, false));
        }
        touch_ahead(&touches[..len]);
    }
}

/// Stages 3–4 of a batched probe (module docs): each hit's chain cell,
/// and its record where its rejuvenation reads it, then the two
/// neighbours its unlink will write.
#[inline]
fn touch_ahead(touches: &[Touch<'_>]) {
    for &(fm, slot, record) in touches.iter().flatten() {
        if record {
            fm.table.first_touch(slot);
        }
        fm.chain.first_touch(slot);
    }
    for &(fm, slot, _) in touches.iter().flatten() {
        fm.chain.first_touch_neighbours(slot);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::env::concrete::{ConcreteEnv, PacketSide};
    use crate::env::{Found, NatEnv, PktHandle, SlotId};
    use crate::Concrete;
    use libvig::map::MapKey;
    use proptest::prelude::*;
    use vig_packet::{Ip4, Proto};
    use vig_spec::rfc3022::{Frame, Mapping, Tuple};

    /// Test conveniences over the table's operations.
    impl FlowManager {
        /// [`FlowTable::lookup_internal_hashed`], hashing `fid`.
        pub(crate) fn lookup_internal(&self, fid: &FlowId) -> Option<(usize, Flow)> {
            self.lookup_internal_hashed(fid, fid.key_hash())
        }

        /// Allocate and insert `fid`, stamped `now`, through the loop
        /// body's two steps, returning its slot and external port;
        /// `None` when the flow exists or the table is full.
        pub(crate) fn allocate(&mut self, fid: FlowId, now: Time) -> Option<(usize, u16)> {
            if self.lookup_internal(&fid).is_some() {
                return None;
            }
            let hash = fid.key_hash();
            let slot = self.allocate_slot_routed(hash, now)?;
            let (ip, port) = self.endpoint_of_slot(slot);
            self.insert_hashed(slot, fid, ip, port, hash, 0);
            Some((slot, port))
        }
    }

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 4,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    fn fid(h: u8, p: u16) -> FlowId {
        FlowId {
            src_ip: Ip4::new(192, 168, 0, h),
            src_port: p,
            dst_ip: Ip4::new(8, 8, 8, 8),
            dst_port: 53,
            proto: Proto::Udp,
        }
    }

    /// The module docs' layout claim: a record, stored, is 16 bytes on a
    /// 16-byte alignment, so in a live table every record sits in one
    /// quarter of a 64-byte line and none straddles two (the twin of
    /// libvig's `nat_sized_slots_are_a_quarter_line_and_never_straddle`).
    #[test]
    fn records_are_a_quarter_line_and_never_straddle() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<Option<FlowRecord>>(), 16);
        assert_eq!(align_of::<Option<FlowRecord>>(), 16);
        let mut fm = FlowManager::new(&NatConfig {
            capacity: 1000,
            ..cfg()
        });
        for i in 0..1000u16 {
            let f = [fid(0, i), tcp_fid(0, i)][usize::from(i % 2)];
            fm.allocate(f, Time::from_secs(1)).expect("room");
        }
        for slot in 0..1000 {
            let record = fm.table.get(slot).expect("every slot is live");
            let offset = std::ptr::from_ref(record) as usize % 64;
            assert!(
                offset.is_multiple_of(16),
                "record {slot} at line offset {offset}"
            );
        }
    }

    proptest! {
        // 27 pools × 15 slots; a case costs nanoseconds.
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// The division-free [`endpoint`] equals the spec's dividing
        /// `ext_ip_of_slot` / `ext_port_of_slot`, and `slot_of_endpoint`
        /// inverts it, over 1-, 2- and 17-address pools whose last
        /// address is barely, half or fully used (the pools of vig_spec's
        /// `slot_of_endpoint_needs_no_address_guard`), at the slots
        /// around every address boundary.
        #[test]
        fn endpoint_needs_no_division_on_one_address(
            (ips, start_port, last_fill) in (
                proptest::prop_oneof![Just(1usize), Just(2), Just(17)],
                proptest::prop_oneof![Just(1u16), Just(1024), Just(65_535)],
                0usize..3,
            ),
            (edge, back) in (0usize..5, 0usize..3),
        ) {
            let ports = 65_536 - usize::from(start_port);
            let last_used = [1, ports.div_ceil(2), ports][last_fill];
            let c = NatConfig {
                capacity: (ips - 1) * ports + last_used,
                start_port,
                ..cfg()
            };
            prop_assert_eq!(c.is_single_address(), ips == 1);
            let slot = [0, ports - 1, ports, c.capacity / 2, c.capacity - 1][edge]
                .min(c.capacity - 1)
                .saturating_sub(back);
            let (ip, port) = endpoint(&c, slot);
            prop_assert_eq!((ip, port), (c.ext_ip_of_slot(slot), c.ext_port_of_slot(slot)));
            prop_assert_eq!(c.slot_of_endpoint(ip, port), Some(slot));
        }
    }

    /// Every table's slot accessors are [`endpoint`] of the *global*
    /// slot: the whole pool, a shard of it (`slot_base > 0`) and sharded
    /// three ways, over [`oracle_cfgs`], against the spec's mapping.
    #[test]
    fn slot_accessors_are_the_pool_mapping_of_the_global_slot() {
        use crate::sharded::ShardedFlowManager;
        for c in oracle_cfgs() {
            let pool = |g: usize| (c.ext_ip_of_slot(g), c.ext_port_of_slot(g));
            let offset = |g: usize| (g % c.ports_per_ip()) as u16;
            let third = c.capacity / 3;
            let shard = FlowManager::for_shard(&c, third, 2 * third);
            let sharded = ShardedFlowManager::new(&c, 3);
            for local in 0..third {
                let g = 2 * third + local;
                assert_eq!(shard.endpoint_of_slot(local), pool(g));
                assert_eq!(shard.port_offset_of_slot(local), offset(g));
            }
            for g in 0..sharded.table_capacity() {
                assert_eq!(sharded.endpoint_of_slot(g), pool(g));
                assert_eq!(FlowTable::port_offset_of_slot(&sharded, g), offset(g));
            }
        }
    }

    #[test]
    fn allocate_assigns_bijective_ports() {
        let mut fm = FlowManager::new(&cfg());
        let mut ports = std::collections::HashSet::new();
        for h in 0..4 {
            let (slot, port) = fm.allocate(fid(h, 100), Time::from_secs(1)).unwrap();
            assert_eq!(port, 1000 + slot as u16);
            assert!(ports.insert(port));
        }
        assert_eq!(fm.flow_count(), fm.table_capacity());
        assert_eq!(fm.allocate(fid(9, 100), Time::from_secs(1)), None);
        fm.check_coherence().unwrap();
    }

    #[test]
    fn lookup_both_directions() {
        let mut fm = FlowManager::new(&cfg());
        let (slot, port) = fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        let (s2, f) = fm.lookup_internal(&fid(1, 100)).unwrap();
        assert_eq!(s2, slot);
        let ek = f.ext_key();
        assert_eq!(ek.ext_port, port);
        let (s3, _) = fm.lookup_external(&ek).unwrap();
        assert_eq!(s3, slot);
    }

    #[test]
    fn expiry_respects_rejuvenation() {
        let mut fm = FlowManager::new(&cfg());
        let (a, _) = fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        fm.allocate(fid(2, 100), Time::from_secs(2)).unwrap();
        fm.rejuvenate(a, Time::from_secs(5), Direction::Internal, 0);
        // threshold 2: only flow 2 (stamped 2s) dies; flow 1 was refreshed.
        assert_eq!(fm.expire(Time::from_secs(2)), 1);
        assert!(fm.lookup_internal(&fid(1, 100)).is_some());
        assert!(fm.lookup_internal(&fid(2, 100)).is_none());
        fm.check_coherence().unwrap();
    }

    #[test]
    fn expired_slot_reuses_same_port() {
        let mut fm = FlowManager::new(&cfg());
        let (slot, port) = fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        fm.expire(Time::from_secs(1));
        let (slot2, port2) = fm.allocate(fid(2, 200), Time::from_secs(2)).unwrap();
        assert_eq!(slot2, slot, "LIFO free list reuses the slot");
        assert_eq!(port2, port, "and therefore the port");
        fm.check_coherence().unwrap();
    }

    #[test]
    fn duplicate_allocate_is_rejected() {
        let mut fm = FlowManager::new(&cfg());
        fm.allocate(fid(1, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.allocate(fid(1, 100), Time::from_secs(2)), None);
        assert_eq!(fm.flow_count(), 1);
    }

    fn classed_cfg() -> NatConfig {
        NatConfig {
            capacity: 8,
            tcp_transitory_ns: Time::from_secs(2).nanos(),
            tcp_established_ns: Time::from_secs(30).nanos(),
            ..cfg()
        }
    }

    fn tcp_fid(h: u8, p: u16) -> FlowId {
        FlowId {
            proto: Proto::Tcp,
            ..fid(h, p)
        }
    }

    #[test]
    fn heterogeneous_config_gets_a_list_per_class() {
        assert_eq!(FlowManager::new(&classed_cfg()).chain.lists(), 3);
        // Homogeneous — TCP lifetimes unset, or spelled out equal — is
        // the paper's one-list chain.
        assert_eq!(FlowManager::new(&cfg()).chain.lists(), 1);
        let spelled_out = NatConfig {
            tcp_transitory_ns: cfg().expiry_ns,
            tcp_established_ns: cfg().expiry_ns,
            ..cfg()
        };
        assert_eq!(FlowManager::new(&spelled_out).chain.lists(), 1);
    }

    #[test]
    fn established_outlives_transitory_and_udp() {
        use vig_packet::tcp::flags;
        let c = classed_cfg();
        let mut fm = FlowManager::new(&c);
        // Half-open TCP (created by a SYN), established TCP (created by
        // a bare-ACK mid-stream pickup), and a UDP flow.
        let f1 = tcp_fid(1, 100);
        let half = fm
            .allocate_slot_routed(f1.key_hash(), Time::from_secs(1))
            .unwrap();
        let (ip, port) = fm.endpoint_of_slot(half);
        fm.insert_hashed(half, f1, ip, port, f1.key_hash(), flags::SYN);
        assert_eq!(fm.tcp_state_of(half), Some(TcpState::SynSent));
        let (est, _) = fm.allocate(tcp_fid(2, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.tcp_state_of(est), Some(TcpState::Established));
        let (udp, _) = fm.allocate(fid(3, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.tcp_state_of(udp), None);
        fm.check_coherence().unwrap();
        // The loop body's threshold at t is `t - min_lifetime` (2s).
        // t=4s: the half-open flow (2s lifetime, stamped 1s) is due.
        assert_eq!(fm.expire(Time::from_secs(2)), 1);
        assert!(fm.lookup_internal(&tcp_fid(1, 100)).is_none());
        // t=12s: the UDP flow (10s) dies, established survives.
        assert_eq!(fm.expire(Time::from_secs(10)), 1);
        assert!(fm.lookup_internal(&fid(3, 100)).is_none());
        assert!(fm.lookup_internal(&tcp_fid(2, 100)).is_some());
        // t=31s: the established flow (30s) finally dies.
        assert_eq!(fm.expire(Time::from_secs(29)), 1);
        assert!(fm.flow_count() == 0);
        fm.check_coherence().unwrap();
    }

    #[test]
    fn rst_demotes_established_to_transitory() {
        use vig_packet::tcp::flags;
        let mut fm = FlowManager::new(&classed_cfg());
        let (slot, _) = fm.allocate(tcp_fid(1, 100), Time::from_secs(1)).unwrap();
        assert_eq!(fm.tcp_state_of(slot), Some(TcpState::Established));
        fm.rejuvenate(slot, Time::from_secs(5), Direction::External, flags::RST);
        assert_eq!(fm.tcp_state_of(slot), Some(TcpState::Closed));
        fm.check_coherence().unwrap();
        // Now on the 2s transitory timer: dead by t=8s.
        assert_eq!(fm.expire(Time::from_secs(6)), 1);
        assert!(fm.flow_count() == 0);
    }

    /// Equal deadlines across classes expire in class order, not LRU
    /// order, and that order decides which slot (and port) the next
    /// flows get: the free list is LIFO.
    #[test]
    fn equal_deadlines_expire_in_class_order() {
        let mut fm = FlowManager::new(&classed_cfg());
        // Established TCP (30 s) at t=0 and UDP (10 s) at t=20 share the
        // deadline t=30; a transitory flow (2 s) at t=27 is due earlier.
        let (est, _) = fm.allocate(tcp_fid(1, 100), Time::ZERO).unwrap();
        let (udp, _) = fm.allocate(fid(2, 100), Time::from_secs(20)).unwrap();
        let f = tcp_fid(3, 100);
        let syn = fm
            .allocate_slot_routed(f.key_hash(), Time::from_secs(27))
            .unwrap();
        let (ip, port) = fm.endpoint_of_slot(syn);
        fm.insert_hashed(syn, f, ip, port, f.key_hash(), vig_packet::tcp::flags::SYN);
        fm.check_coherence().unwrap();
        // The loop body's threshold at t=30 (min lifetime 2 s).
        assert_eq!(fm.expire(Time::from_secs(28)), 3);
        // Freed transitory, UDP, established — reused in reverse.
        let reused: Vec<usize> = (10..13)
            .map(|h| fm.allocate(fid(h, 100), Time::from_secs(30)).unwrap().0)
            .collect();
        assert_eq!(reused, [est, udp, syn]);
        fm.check_coherence().unwrap();
    }

    /// A packet side with no packets: the probe tests drive lookups only.
    struct NoPackets;

    impl PacketSide for NoPackets {
        fn receive(&mut self) -> Option<(PktHandle, Frame<Concrete>)> {
            None
        }

        fn tx(&mut self, _: PktHandle, _: Direction, _: Tuple<Concrete>) {
            unreachable!("no packet was received");
        }

        fn drop_pkt(&mut self, _: PktHandle) {
            unreachable!("no packet was received");
        }
    }

    /// `t`'s batched probe, by position, against its per-key lookups —
    /// over `fids` alone, over `eks` alone, and over both as one mixed
    /// array (`fids[i]` at even positions, `eks[i]` at odd ones, a hole
    /// wherever that key is `None`): each asking position's result is
    /// the lookup's and comes in exactly one `found` call, and a hole
    /// gets no call and keeps the sentinel it held. Then the mixed array
    /// as one query array through [`ConcreteEnv`] over `t`: its one
    /// batched lookup equals, position by position, what the
    /// [`NatEnv::lookup_batch`] default asks (one `lookup_internal` or
    /// `lookup_external` per query), and keeps the sentinel at every
    /// hole. Returns the hits of each direction.
    pub(crate) fn assert_probes_equal_lookups<T: FlowTable>(
        t: &mut T,
        fids: &[Option<FlowId>],
        eks: &[Option<ExtKey>],
    ) -> (usize, usize) {
        let sentinel = Some((
            usize::MAX,
            Flow {
                int_key: fid(0, 0),
                ext_ip: Ip4(0),
                ext_port: 0,
            },
        ));
        let probe = |t: &T, keys: &[Option<ProbeKey>], what: &str| {
            let mut out = vec![sentinel; keys.len()];
            let mut calls = vec![0; keys.len()];
            t.probe_batch(
                keys.len(),
                |i| keys[i],
                |i, r| {
                    out[i] = r;
                    calls[i] += 1;
                },
            );
            for (i, (k, got)) in keys.iter().zip(&out).enumerate() {
                let want = match k {
                    Some(ProbeKey::Internal(f, hash)) => t.lookup_internal_hashed(f, *hash),
                    Some(ProbeKey::External(ek)) => t.lookup_external(ek),
                    None => sentinel,
                };
                assert_eq!(*got, want, "{what} position {i} ({k:?})");
                let asks = usize::from(k.is_some());
                assert_eq!(calls[i], asks, "{what} position {i}: found calls");
            }
            let hits = keys.iter().zip(&out);
            hits.filter(|(k, r)| k.is_some() && r.is_some()).count()
        };
        let internal = |f: &Option<FlowId>| f.map(|f| ProbeKey::Internal(f, f.key_hash()));
        let external = |ek: &Option<ExtKey>| ek.map(ProbeKey::External);
        let fid_keys: Vec<_> = fids.iter().map(internal).collect();
        let int_hits = probe(t, &fid_keys, "internal");
        let ek_keys: Vec<_> = eks.iter().map(external).collect();
        let ext_hits = probe(t, &ek_keys, "external");
        let mixed: Vec<_> = (fid_keys.iter().zip(ek_keys).enumerate())
            .map(|(i, (f, ek))| if i % 2 == 0 { *f } else { ek })
            .collect();
        probe(t, &mixed, "mixed");

        let tuple = |(ip, port): (Ip4, u16), (rip, rport): (Ip4, u16), proto| Tuple {
            src: (ip.raw(), port),
            dst: (rip.raw(), rport),
            proto,
        };
        let queries: Vec<_> = mixed
            .iter()
            .map(|k| match (*k)? {
                ProbeKey::Internal(f, _) => {
                    let q = tuple((f.src_ip, f.src_port), (f.dst_ip, f.dst_port), f.proto);
                    Some((Direction::Internal, q))
                }
                ProbeKey::External(ek) => {
                    let q = tuple((ek.ext_ip, ek.ext_port), (ek.dst_ip, ek.dst_port), ek.proto);
                    Some((Direction::External, q))
                }
            })
            .collect();
        let plain = |found: &Found<Concrete>| found.as_ref().map(|(s, m)| (s.0, m.int, m.ext));
        let hole = (
            SlotId(usize::MAX),
            Mapping {
                int: (0, 0),
                ext: (0, 0),
            },
        );
        let mut env = ConcreteEnv::new(t, NoPackets, Time::ZERO);
        let mut batched = vec![Some(hole.clone()); queries.len()];
        env.lookup_batch(&queries, &mut batched);
        for (i, (q, got)) in queries.iter().zip(&batched).enumerate() {
            let want = match q {
                Some((Direction::Internal, fid)) => env.lookup_internal(fid),
                Some((Direction::External, ek)) => env.lookup_external(ek),
                None => Some(hole.clone()),
            };
            assert_eq!(plain(got), plain(&want), "mixed position {i} ({q:?})");
        }
        (int_hits, ext_hits)
    }

    /// The batched probe, by position, on tables of thousands of flows —
    /// one table, and a table of two shards whose every burst mixes them
    /// — against the per-key lookups, over keys of one kind and both
    /// mixed, and, as one mixed-direction query array, through
    /// `ConcreteEnv`'s batched lookup
    /// ([`assert_probes_equal_lookups`]): hits, misses, duplicates,
    /// return keys for a free slot and outside the pool, `None` holes at
    /// scattered positions, 203 positions (seven chunks). Nothing
    /// observable changes — the table still equals the
    /// clone taken before, LRU order, stamps, trackers and coherence
    /// included — on one list and on a list per class.
    #[test]
    fn staged_probes_equal_lookups_and_change_nothing() {
        use crate::sharded::ShardedFlowManager;
        use vig_packet::tcp::flags;
        let key = |i: u32| FlowId {
            src_ip: Ip4(Ip4::new(192, 168, 0, 0).raw() + i),
            proto: if i.is_multiple_of(3) {
                Proto::Udp
            } else {
                Proto::Tcp
            },
            ..fid(0, 100)
        };
        /// `flows` flows through the loop body's calls, then a shuffled
        /// LRU order with TCP flows spread over classes.
        fn fill<T: FlowTable>(t: &mut T, flows: u32, key: impl Fn(u32) -> FlowId) {
            let mut now = Time::from_secs(1);
            for i in 0..flows {
                now = now.plus(1_000);
                let (f, h) = (key(i), key(i).key_hash());
                let slot = t.allocate_slot_routed(h, now).expect("below capacity");
                let (ip, port) = t.endpoint_of_slot(slot);
                t.insert_hashed(slot, f, ip, port, h, 0);
            }
            for i in (0..flows).step_by(7) {
                now = now.plus(1_000);
                let (slot, _) = t
                    .lookup_internal_hashed(&key(i), key(i).key_hash())
                    .unwrap();
                let fl = [flags::ACK, flags::FIN, flags::RST][i as usize % 3];
                t.rejuvenate(slot, now, Direction::External, fl);
            }
            t.check_coherence().unwrap();
        }
        /// Queries around the `flows` resident ones, with holes.
        fn queries<T: FlowTable>(
            t: &T,
            c: &NatConfig,
            flows: u32,
            key: impl Fn(u32) -> FlowId,
        ) -> (Vec<Option<FlowId>>, Vec<Option<ExtKey>>) {
            let hole = |i: usize| (i as u64).key_hash().is_multiple_of(5);
            let fids: Vec<FlowId> = (flows - 100..flows + 100)
                .chain([3, 3, flows - 1])
                .map(key)
                .collect();
            let eks = fids.iter().enumerate().map(|(i, f)| {
                match t.lookup_internal_hashed(f, f.key_hash()) {
                    Some((_, flow)) => flow.ext_key(),
                    None => ExtKey {
                        ext_ip: c.external_ip,
                        // The last slot (free), or the port below the pool.
                        ext_port: [c.start_port + c.capacity as u16 - 1, c.start_port - 1][i % 2],
                        dst_ip: f.dst_ip,
                        dst_port: f.dst_port,
                        proto: f.proto,
                    },
                }
            });
            let fids = fids
                .iter()
                .enumerate()
                .map(|(i, f)| (!hole(i)).then_some(*f));
            let eks = eks.enumerate().map(|(i, ek)| (!hole(i + 1)).then_some(ek));
            (fids.collect(), eks.collect())
        }
        for c in [cfg(), classed_cfg()] {
            let c1 = NatConfig {
                capacity: 4096,
                ..c
            };
            let mut fm = FlowManager::new(&c1);
            fill(&mut fm, 2400, key);
            let (fids, eks) = queries(&fm, &c1, 2400, key);
            let before = fm.clone();
            let (int_hits, ext_hits) = assert_probes_equal_lookups(&mut fm, &fids, &eks);
            assert!(
                int_hits > 60 && ext_hits > 60,
                "hits {int_hits} / {ext_hits}"
            );
            let lru = |fm: &FlowManager| -> Vec<(usize, Flow, Time)> { fm.iter_lru().collect() };
            assert_eq!(lru(&fm), lru(&before));
            let trackers = |fm: &FlowManager| -> Vec<Option<TcpState>> {
                fm.iter_lru().map(|(s, ..)| fm.tcp_state_of(s)).collect()
            };
            assert_eq!(trackers(&fm), trackers(&before));
            fm.check_coherence().unwrap();

            let c2 = NatConfig {
                capacity: 8192,
                ..c
            };
            let mut two = ShardedFlowManager::new(&c2, 2);
            fill(&mut two, 5000, key);
            let (fids, eks) = queries(&two, &c2, 5000, key);
            let shard_of = |f: &FlowId| two.shard_of_hash(f.key_hash());
            let shards: std::collections::HashSet<_> =
                fids.iter().flatten().map(shard_of).collect();
            assert_eq!(shards.len(), 2, "every burst mixes the shards");
            let before = two.clone();
            let (int_hits, ext_hits) = assert_probes_equal_lookups(&mut two, &fids, &eks);
            assert!(
                int_hits > 60 && ext_hits > 60,
                "hits {int_hits} / {ext_hits}"
            );
            assert_eq!(two.snapshot(), before.snapshot());
            for s in 0..2 {
                let trackers = |t: &ShardedFlowManager| -> Vec<Option<TcpState>> {
                    let fm = t.shard(s);
                    fm.iter_lru()
                        .map(|(slot, ..)| fm.tcp_state_of(slot))
                        .collect()
                };
                assert_eq!(trackers(&two), trackers(&before));
            }
            FlowTable::check_coherence(&two).unwrap();
        }
    }

    /// The pools of the external-lookup oracle test: one address; 17
    /// addresses of four ports each, the last half used; one address
    /// under EIM (remote fields canonically zero).
    fn oracle_cfgs() -> [NatConfig; 3] {
        let single = NatConfig {
            capacity: 60,
            ..cfg()
        };
        let pool17 = NatConfig {
            capacity: 16 * 4 + 2,
            start_port: 65_532,
            ..cfg()
        };
        assert_eq!(pool17.num_external_ips(), 17);
        let eim = NatConfig {
            eim: true,
            ..single
        };
        [single, pool17, eim]
    }

    /// Hold `t`'s external lookups, per key and batched, to a linear
    /// scan of its live flows (`live`: global slot and flow of each)
    /// after driving it with `ops` `(host, tcp, kind)` — arrivals,
    /// refreshes, expiries — through the calls the loop body makes.
    fn external_lookups_equal_a_linear_scan<T: FlowTable>(
        mut t: T,
        c: &NatConfig,
        live: impl Fn(&T) -> Vec<(usize, Flow)>,
        ops: &[(u8, u8, u8)],
    ) {
        let (remote_ip, remote_port) = if c.eim {
            (Ip4(0), 0)
        } else {
            (Ip4::new(8, 8, 8, 8), 53)
        };
        let mut ever = Vec::new();
        let mut now = Time::from_secs(1);
        for &(host, tcp, kind) in ops {
            now = now.plus(u64::from(kind) * 500_000_000);
            if kind == 5 {
                t.expire(now.minus(Time::from_secs(4).nanos()));
                continue;
            }
            let f = FlowId {
                dst_ip: remote_ip,
                dst_port: remote_port,
                proto: [Proto::Udp, Proto::Tcp][usize::from(tcp)],
                ..fid(host, 100)
            };
            let h = f.key_hash();
            match t.lookup_internal_hashed(&f, h).map(|(slot, _)| slot) {
                Some(slot) => t.rejuvenate(slot, now, Direction::External, 0x10),
                None => {
                    if let Some(slot) = t.allocate_slot_routed(h, now) {
                        let (ip, port) = t.endpoint_of_slot(slot);
                        t.insert_hashed(slot, f, ip, port, h, 0x02);
                        ever.push(t.lookup_internal_hashed(&f, h).unwrap().1.ext_key());
                    }
                }
            }
        }
        t.check_coherence().unwrap();

        // Every key a flow ever had — live, expired, or its slot since
        // reused — and its near misses: another remote, the other proto.
        let mut queries = Vec::new();
        for &ek in &ever {
            let other_proto = match ek.proto {
                Proto::Udp => Proto::Tcp,
                Proto::Tcp => Proto::Udp,
            };
            queries.extend([
                ek,
                ExtKey {
                    dst_port: ek.dst_port + 1,
                    ..ek
                },
                ExtKey {
                    proto: other_proto,
                    ..ek
                },
            ]);
        }
        // Every endpoint of the pool (free slots, a sibling shard's,
        // the remainder no shard owns) and the ones just outside it on
        // each side: the address below the first and past the last, the
        // port below `start_port`, the last address's ports past
        // `capacity`.
        let last = c.capacity - 1;
        let (last_ip, last_port) = (c.ext_ip_of_slot(last), c.ext_port_of_slot(last));
        let endpoints = (0..c.capacity)
            .map(|g| (c.ext_ip_of_slot(g), c.ext_port_of_slot(g)))
            .chain([
                (Ip4(c.external_ip.raw() - 1), c.start_port),
                (Ip4(last_ip.raw() + 1), c.start_port),
                (c.external_ip, c.start_port - 1),
                (last_ip, c.start_port - 1),
            ])
            .chain((last_port..=u16::MAX).skip(1).take(3).map(|p| (last_ip, p)));
        for (ext_ip, ext_port) in endpoints {
            for proto in [Proto::Udp, Proto::Tcp] {
                queries.push(ExtKey {
                    ext_ip,
                    ext_port,
                    dst_ip: remote_ip,
                    dst_port: remote_port,
                    proto,
                });
            }
        }

        let live = live(&t);
        let scan = |ek: &ExtKey| live.iter().copied().find(|(_, f)| f.ext_key() == *ek);
        let mut batch = vec![None; queries.len()];
        let key = |i: usize| Some(ProbeKey::External(queries[i]));
        t.probe_batch(queries.len(), key, |i, r| batch[i] = r);
        for (ek, batched) in queries.iter().zip(batch) {
            let want = scan(ek);
            assert_eq!(t.lookup_external(ek), want, "lookup_external({ek:?})");
            assert_eq!(batched, want, "probe_batch({ek:?})");
        }
        for (_, f) in &live {
            assert!(queries.contains(&f.ext_key()), "a live flow went unasked");
        }
    }

    proptest! {
        /// The oracle that is not the index: `lookup_external` and
        /// `probe_batch` of return keys equal a linear scan of the live flows
        /// for `ext_key() == ek` — on the whole pool, on a shard of it
        /// (`slot_base > 0`), and sharded 1, 2 and 3 ways (3 leaves
        /// remainder slots no shard owns), over [`oracle_cfgs`] — and
        /// `slot_of_ext` equals a linear scan of the forward mapping.
        /// Every other suite compares batch to per-key lookups, which
        /// share `slot_of_ext`; this one would see a wrong inverse.
        #[test]
        fn external_lookups_equal_a_linear_scan_of_the_flows(
            ops in proptest::collection::vec((0u8..48, 0u8..2, 0u8..6), 0..160),
        ) {
            use crate::sharded::ShardedFlowManager;
            let plain_live = |t: &FlowManager| t.iter_lru().map(|(s, f, _)| (s, f)).collect();
            let sharded_live = |t: &ShardedFlowManager| {
                t.snapshot().into_iter().flatten().map(|(s, f, _)| (s, f)).collect()
            };
            for c in oracle_cfgs() {
                let third = c.capacity / 3;
                for (capacity, slot_base) in [(c.capacity, 0), (third, third), (third, 2 * third)] {
                    let fm = FlowManager::for_shard(&c, capacity, slot_base);
                    for g in 0..c.capacity + 8 {
                        // Past the pool: the next endpoints in slot order.
                        let (ip, port) = (
                            Ip4(c.external_ip.raw() + (g / c.ports_per_ip()) as u32),
                            c.start_port + (g % c.ports_per_ip()) as u16,
                        );
                        let ek = ExtKey {
                            ext_ip: ip,
                            ext_port: port,
                            dst_ip: Ip4(0),
                            dst_port: 0,
                            proto: Proto::Udp,
                        };
                        let forward = (0..capacity)
                            .find(|&s| fm.endpoint_of_slot(s) == (ip, port));
                        prop_assert_eq!(fm.slot_of_ext(&ek), forward, "endpoint of global slot {}", g);
                    }
                    external_lookups_equal_a_linear_scan(fm, &c, plain_live, &ops);
                }
                for shards in 1..=3 {
                    let t = ShardedFlowManager::new(&c, shards);
                    external_lookups_equal_a_linear_scan(t, &c, sharded_live, &ops);
                }
            }
        }
    }

    proptest! {
        /// Coherence holds under arbitrary interleavings of allocate,
        /// rejuvenate (via lookup), and expiry.
        #[test]
        fn coherence_under_random_ops(
            ops in proptest::collection::vec((0u8..3, 0u8..6, 1u64..30), 0..120),
        ) {
            let mut fm = FlowManager::new(&cfg());
            let mut now = Time::ZERO;
            for (kind, host, dt) in ops {
                now = now.plus(dt * 1_000_000_000);
                match kind {
                    0 => {
                        if fm.lookup_internal(&fid(host, 100)).is_none() {
                            fm.allocate(fid(host, 100), now);
                        }
                    }
                    1 => {
                        if let Some((slot, _)) = fm.lookup_internal(&fid(host, 100)) {
                            fm.rejuvenate(slot, now, Direction::Internal, 0);
                        }
                    }
                    _ => {
                        let thr = now.minus(10_000_000_000);
                        fm.expire(thr);
                    }
                }
                prop_assert!(fm.check_coherence().is_ok());
            }
        }
    }

    /// A table of `capacity` flows on one address.
    pub(crate) fn cfg_of(capacity: usize) -> NatConfig {
        NatConfig { capacity, ..cfg() }
    }

    /// Flow `i` of a population of distinct UDP flows.
    pub(crate) fn nth_fid(i: u32) -> FlowId {
        FlowId {
            src_ip: Ip4(0x0a00_0000 | (i & 0xffff)),
            src_port: 10_000 + (i >> 16) as u16,
            dst_ip: Ip4::new(1, 1, 1, 1),
            dst_port: 80,
            proto: Proto::Udp,
        }
    }

    /// Drive a FlowManager through fill → expiry → realloc at 49% and
    /// 98% occupancy, holding the coherence invariant (which includes
    /// the directory's probe invariants) at every stage, and proving the
    /// batched probe contract — batch results equal element-wise hashed
    /// lookups — on a hit/miss query mix.
    #[test]
    fn flow_manager_expiry_realloc_keeps_directories_coherent() {
        const CAP: usize = 4096;
        for occupancy in [CAP * 49 / 100, CAP * 98 / 100] {
            let mut fm = FlowManager::new(&cfg_of(CAP));
            for i in 0..occupancy as u32 {
                fm.allocate(nth_fid(i), Time::from_secs(1))
                    .expect("below capacity");
            }
            fm.check_coherence().unwrap();

            // Rejuvenate a third so expiry leaves survivors interleaved
            // with holes, then expire the rest.
            for i in (0..occupancy as u32).step_by(3) {
                let (slot, _) = fm.lookup_internal(&nth_fid(i)).expect("resident");
                fm.rejuvenate(slot, Time::from_secs(5), Direction::Internal, 0);
            }
            let expired = fm.expire(Time::from_secs(2));
            assert!(expired > 0, "the unrejuvenated majority must expire");
            fm.check_coherence().unwrap();

            // Realloc into the freed slots with fresh flows.
            let mut fresh = 2_000_000u32;
            while fm.flow_count() < fm.table_capacity() {
                if fm.lookup_internal(&nth_fid(fresh)).is_none() {
                    fm.allocate(nth_fid(fresh), Time::from_secs(6))
                        .expect("slot free");
                }
                fresh += 1;
            }
            fm.check_coherence().unwrap();

            // Batched probe contract on a mix of survivors, expired keys,
            // and reallocated flows.
            let queries: Vec<FlowId> = (0..occupancy as u32)
                .step_by(2)
                .map(nth_fid)
                .chain((2_000_000..2_000_200).map(nth_fid))
                .collect();
            let hashes: Vec<u64> = queries.iter().map(MapKey::key_hash).collect();
            let mut batch = vec![None; queries.len()];
            fm.probe_batch(
                queries.len(),
                |i| Some(ProbeKey::Internal(queries[i], hashes[i])),
                |i, r| batch[i] = r,
            );
            for (i, q) in queries.iter().enumerate() {
                let seq = fm.lookup_internal_hashed(q, hashes[i]);
                assert_eq!(batch[i], seq, "batch query {i} diverged");
            }
        }
    }
}
