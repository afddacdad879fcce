//! The sharded flow table: N independent [`FlowManager`] shards behind
//! one [`FlowTable`] face, partitioned RSS-style by the flow-key hash.
//!
//! ## Partitioning scheme
//!
//! * **Internal traffic** routes by [`libvig::rss::shard_of`] over the
//!   `FlowId` hash — the same 64-bit hash the datapath already memoizes
//!   per packet for the directory probe, so shard selection costs one
//!   multiply-shift and **no extra hash**.
//! * **Pool endpoints are partitioned per shard**: shard `s` owns the
//!   contiguous global-slot range `s·per_shard .. (s+1)·per_shard` and
//!   with it that slice of the endpoint pool (for a single-address
//!   pool: ports `start_port + s·per_shard ..`), so allocation never
//!   crosses shards and endpoint uniqueness still follows from
//!   per-shard slot uniqueness (the dchain contract), exactly as in
//!   the unsharded VigNAT.
//! * **External (return) traffic** routes by that endpoint partition —
//!   a flow's external endpoint *identifies* its shard, and within the
//!   shard its slot: the partition is the lookup, not only the route
//!   ([`FlowTable::lookup_external`]). No external key is hashed (its
//!   hash would name the wrong shard for `(N-1)/N` of all flows).
//!
//! ## Global slots: the bijection survives sharding
//!
//! Shard `s`'s local slot `i` is exposed as **global slot**
//! `g = s·per_shard + i`, and each shard maps its slots through the
//! *global* endpoint pool at base offset `s·per_shard`
//! ([`FlowManager::for_shard`]), so every shard's flow carries exactly
//! `endpoint_of(g)` — the unsharded slot⇄endpoint bijection, verbatim.
//! With the paper's single-address pool that reads
//! `ext_port = start_port + g`, so the verified loop body's port
//! arithmetic needs no sharding awareness at all, and the P2 overflow
//! proof carries over unchanged (`offset < ports_per_ip` bounds every
//! slot's port on every shard).
//!
//! ## What sharding preserves, and what it trades
//!
//! Per-shard state is fully disjoint (shards share no structure), so
//! every per-flow invariant — slot⇄port bijection, dmap/dchain
//! coherence, LRU expiry order *within a shard* — holds per shard by
//! the existing contracts, and the N-shard NAT is packet-for-packet
//! equivalent to N independent 1-shard NATs each fed its dispatch
//! subsequence (`tests/shard_equivalence.rs` proves this
//! differentially; with N = 1 the reference is the unsharded NAT and
//! equivalence is byte-for-byte). The one observable trade is
//! fullness: a new flow drops when *its shard* is full, which can
//! happen before the global table fills (hash skew). The edge-case
//! tests pin this behaviour down; `docs/ARCHITECTURE.md` discusses the
//! sizing consequences.

use crate::flow_manager::{endpoint, probe_staged, FlowManager, FlowTable, ProbeKey};
use libvig::rss::shard_of;
use libvig::time::Time;
use vig_packet::{Direction, ExtKey, Flow, FlowId, Ip4, Proto};
use vig_spec::NatConfig;

/// N independent flow-table shards. See module docs.
#[derive(Debug, Clone)]
pub struct ShardedFlowManager {
    shards: Vec<FlowManager>,
    cfg: NatConfig,
    per_shard: usize,
}

impl ShardedFlowManager {
    /// Partition `cfg` into `shards` independent flow managers.
    ///
    /// Each shard gets `cfg.capacity / shards` slots (the remainder, if
    /// any, is dropped — the table's effective capacity is
    /// `per_shard · shards`) and the matching contiguous slice of the
    /// endpoint pool. Panics if `cfg` is invalid ([`check_config`]) or
    /// if `shards` is zero or exceeds the capacity.
    ///
    /// [`check_config`]: crate::loop_body::check_config
    pub fn new(cfg: &NatConfig, shards: usize) -> ShardedFlowManager {
        crate::loop_body::check_config(cfg).expect("invalid NAT configuration");
        assert!(shards > 0, "need at least one shard");
        let per_shard = cfg.capacity / shards;
        assert!(
            per_shard > 0,
            "{} shards over capacity {} leaves empty shards",
            shards,
            cfg.capacity
        );
        ShardedFlowManager {
            shards: (0..shards)
                .map(|s| FlowManager::for_shard(cfg, per_shard, s * per_shard))
                .collect(),
            cfg: *cfg,
            per_shard,
        }
    }

    /// The global pool configuration — what every worker's loop body
    /// runs with (shards return pool-global port offsets, so the loop's
    /// `start_port + offset` arithmetic uses the *global* start port).
    pub fn global_cfg(&self) -> NatConfig {
        self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Slots (and ports) per shard.
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard
    }

    /// The configuration a **standalone 1-shard NAT** serving shard
    /// `s`'s partition would use: the shard's slice of the capacity and
    /// port range, with expiry and external ip shared. The differential
    /// tests build their per-shard references from it.
    ///
    /// Only expressible while the whole pool lives on one address
    /// (`capacity <= ports_per_ip`, the paper's configuration) — a
    /// shard of a multi-address pool is not a contiguous port range of
    /// any single-address config. Panics otherwise; drive workers with
    /// [`ShardedFlowManager::global_cfg`] instead, which is valid at
    /// every scale.
    pub fn shard_cfg(&self, s: usize) -> NatConfig {
        assert_eq!(
            self.cfg.num_external_ips(),
            1,
            "per-shard standalone configs exist only for single-address pools"
        );
        NatConfig {
            capacity: self.per_shard,
            start_port: self.cfg.start_port + (s * self.per_shard) as u16,
            ..self.cfg
        }
    }

    /// Shard `s`'s flow manager (read-only).
    pub fn shard(&self, s: usize) -> &FlowManager {
        &self.shards[s]
    }

    /// All shards, mutably and disjointly — what a `std::thread` driver
    /// splits across worker threads (each shard is `Send` and shares
    /// nothing with its siblings).
    pub fn shards_mut(&mut self) -> &mut [FlowManager] {
        &mut self.shards
    }

    /// Which shard the internal key with hash `fid_hash` routes to.
    #[inline]
    pub fn shard_of_hash(&self, fid_hash: u64) -> usize {
        shard_of(fid_hash, self.shards.len())
    }

    /// Which shard owns the pool endpoint `(ip, port)`, if any shard
    /// does: the endpoint's global slot ([`NatConfig::slot_of_endpoint`])
    /// divided by the per-shard capacity — the shared definition the
    /// NIC classifier also uses. `ip` must already
    /// be canonicalized the way the loop body's external key is (the
    /// configured address for single-address pools).
    #[inline]
    pub fn shard_of_endpoint(&self, ip: Ip4, port: u16) -> Option<usize> {
        let slot = self.cfg.slot_of_endpoint(ip, port)?;
        // Remainder slots (capacity % shards) are dropped from the
        // sharded table; their endpoints belong to no shard.
        (slot < self.table_capacity()).then(|| slot / self.per_shard)
    }

    /// [`ShardedFlowManager::shard_of_endpoint`] for the paper's
    /// single-address pool, where the port alone identifies the shard.
    pub fn shard_of_port(&self, port: u16) -> Option<usize> {
        self.shard_of_endpoint(self.cfg.external_ip, port)
    }

    /// Global slot of shard `s`'s local `slot`.
    #[inline]
    fn global(&self, s: usize, slot: usize) -> usize {
        s * self.per_shard + slot
    }

    /// `(shard, local slot)` of a global slot.
    #[inline]
    fn local(&self, global: usize) -> (usize, usize) {
        debug_assert!(global < self.per_shard * self.shards.len());
        (global / self.per_shard, global % self.per_shard)
    }

    /// [`FlowTable::lookup_external`] as `benchmark/src/ladder.rs` calls
    /// it (the `flow_manager.lookup_ext_ns` rung); the hash is ignored.
    /// Kept only because a PR that claims a gain may not edit
    /// `benchmark/`: the next benchmark PR deletes it.
    #[doc(hidden)]
    pub fn lookup_external_hashed(&self, ek: &ExtKey, _hash: u64) -> Option<(usize, Flow)> {
        self.lookup_external(ek)
    }

    /// Probe length of an internal-key lookup, measured in the shard
    /// the key routes to (shard routing itself is one multiply-shift
    /// and traverses nothing). Diagnostic twin of
    /// [`FlowManager::internal_probe_len`]; the high-occupancy suite
    /// uses it to confirm per-shard directory pressure matches the
    /// unsharded table's at equal per-shard occupancy.
    pub fn internal_probe_len(&self, fid: &FlowId) -> usize {
        use libvig::map::MapKey;
        let s = self.shard_of_hash(fid.key_hash());
        self.shards[s].internal_probe_len(fid)
    }

    /// Snapshot of every shard's live flows in shard-local LRU order,
    /// with global slot ids — the observable state the differential
    /// tests compare.
    pub fn snapshot(&self) -> Vec<Vec<(usize, Flow, Time)>> {
        (0..self.shards.len())
            .map(|s| {
                self.shards[s]
                    .iter_lru()
                    .map(|(slot, f, t)| (self.global(s, slot), f, t))
                    .collect()
            })
            .collect()
    }
}

impl FlowTable for ShardedFlowManager {
    #[inline]
    fn flow_count(&self) -> usize {
        self.shards.iter().map(FlowTable::flow_count).sum()
    }

    #[inline]
    fn table_capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    #[inline]
    fn expire(&mut self, threshold: Time) -> usize {
        self.shards.iter_mut().map(|fm| fm.expire(threshold)).sum()
    }

    #[inline]
    fn lookup_internal_hashed(&self, fid: &FlowId, hash: u64) -> Option<(usize, Flow)> {
        let s = self.shard_of_hash(hash);
        let (slot, flow) = self.shards[s].lookup_internal_hashed(fid, hash)?;
        Some((self.global(s, slot), flow))
    }

    #[inline]
    fn probe_batch(
        &self,
        n: usize,
        key: impl FnMut(usize) -> Option<ProbeKey>,
        found: impl FnMut(usize, Option<(usize, Flow)>),
    ) {
        // Inside the one staged loop of every table, an internal key
        // routes by its memoized hash (the RSS dispatch step), a return
        // key by the endpoint partition (module docs); an endpoint no
        // shard owns stays a miss.
        probe_staged(
            n,
            key,
            found,
            |hash| {
                let s = self.shard_of_hash(hash);
                (&self.shards[s], self.global(s, 0))
            },
            |ek| {
                let s = self.shard_of_endpoint(ek.ext_ip, ek.ext_port)?;
                Some((&self.shards[s], self.global(s, 0)))
            },
        );
    }

    #[inline]
    fn lookup_external(&self, ek: &ExtKey) -> Option<(usize, Flow)> {
        // An endpoint no shard owns cannot belong to any flow, matching
        // the unsharded table's miss.
        let s = self.shard_of_endpoint(ek.ext_ip, ek.ext_port)?;
        let (slot, flow) = self.shards[s].lookup_external(ek)?;
        Some((self.global(s, slot), flow))
    }

    #[inline]
    fn rejuvenate(&mut self, slot: usize, now: Time, dir: Direction, tcp_flags: u8) {
        let (s, local) = self.local(slot);
        self.shards[s].rejuvenate(local, now, dir, tcp_flags);
    }

    #[inline]
    fn rejuvenate_proto(
        &mut self,
        slot: usize,
        now: Time,
        dir: Direction,
        tcp_flags: u8,
        proto: Proto,
    ) {
        let (s, local) = self.local(slot);
        self.shards[s].rejuvenate_proto(local, now, dir, tcp_flags, proto);
    }

    #[inline]
    fn allocate_slot_routed(&mut self, fid_hash: u64, now: Time) -> Option<usize> {
        let s = self.shard_of_hash(fid_hash);
        let slot = self.shards[s].allocate_slot_routed(fid_hash, now)?;
        Some(self.global(s, slot))
    }

    #[inline]
    fn endpoint_of_slot(&self, slot: usize) -> (Ip4, u16) {
        // Shards map their slots through the *global* pool, so this is
        // the global mapping regardless of which shard owns the slot.
        endpoint(&self.cfg, slot)
    }

    #[inline]
    fn port_offset_of_slot(&self, slot: usize) -> u16 {
        endpoint(&self.cfg, slot).1 - self.cfg.start_port
    }

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
        let (s, local) = self.local(slot);
        debug_assert_eq!(
            s,
            self.shard_of_hash(fid_hash),
            "insert into a slot of the wrong shard (allocate/insert hash mismatch)"
        );
        // The shard's own FlowManager asserts its local slot⇄endpoint
        // bijection, which composes to the global one (module docs).
        self.shards[s].insert_hashed(local, fid, ext_ip, ext_port, fid_hash, tcp_flags);
    }

    #[inline]
    fn check_coherence(&self) -> Result<(), String> {
        use libvig::map::MapKey;
        for (s, fm) in self.shards.iter().enumerate() {
            fm.check_coherence()
                .map_err(|e| format!("shard {s}: {e}"))?;
            // Routing invariant: every resident flow's internal key
            // hashes to the shard it lives in (otherwise lookups would
            // silently miss it forever).
            for (slot, flow, _) in fm.iter_lru() {
                let want = self.shard_of_hash(flow.int_key.key_hash());
                if want != s {
                    return Err(format!(
                        "flow in shard {s} slot {slot} routes to shard {want}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_manager::tests::assert_probes_equal_lookups;
    use libvig::map::MapKey;
    use vig_packet::{Ip4, Proto};

    fn cfg(capacity: usize) -> NatConfig {
        NatConfig {
            capacity,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    fn fid(host: u8, port: u16) -> FlowId {
        FlowId {
            src_ip: Ip4::new(192, 168, 0, host),
            src_port: port,
            dst_ip: Ip4::new(8, 8, 8, 8),
            dst_port: 53,
            proto: Proto::Udp,
        }
    }

    /// Drive the allocate→insert pair the way the loop body does.
    fn add_flow(t: &mut ShardedFlowManager, f: FlowId, now: Time) -> Option<(usize, u16)> {
        let hash = f.key_hash();
        assert!(t.lookup_internal_hashed(&f, hash).is_none());
        let slot = t.allocate_slot_routed(hash, now)?;
        let (ip, port) = t.endpoint_of_slot(slot);
        t.insert_hashed(slot, f, ip, port, hash, 0);
        Some((slot, port))
    }

    #[test]
    fn port_ranges_partition_cleanly() {
        let t = ShardedFlowManager::new(&cfg(8), 4);
        assert_eq!(t.per_shard_capacity(), 2);
        for s in 0..4 {
            let c = t.shard_cfg(s);
            assert_eq!(c.capacity, 2);
            assert_eq!(c.start_port, 1000 + 2 * s as u16);
        }
        assert_eq!(t.shard_of_port(999), None);
        assert_eq!(t.shard_of_port(1000), Some(0));
        assert_eq!(t.shard_of_port(1003), Some(1));
        assert_eq!(t.shard_of_port(1007), Some(3));
        assert_eq!(t.shard_of_port(1008), None);
    }

    #[test]
    fn global_slot_port_bijection_holds() {
        let mut t = ShardedFlowManager::new(&cfg(64), 4);
        for h in 0..40u8 {
            if let Some((slot, port)) = add_flow(&mut t, fid(h, 100), Time::from_secs(1)) {
                assert_eq!(port, 1000 + slot as u16, "global bijection");
                let s = slot / t.per_shard_capacity();
                assert_eq!(t.shard_of_port(port), Some(s), "port identifies the shard");
            }
        }
        t.check_coherence().unwrap();
    }

    #[test]
    fn both_directions_find_the_flow() {
        let mut t = ShardedFlowManager::new(&cfg(64), 4);
        let f = fid(7, 777);
        let (slot, port) = add_flow(&mut t, f, Time::from_secs(1)).unwrap();
        let h = f.key_hash();
        let (s2, flow) = t.lookup_internal_hashed(&f, h).unwrap();
        assert_eq!(s2, slot);
        let ek = flow.ext_key();
        assert_eq!(ek.ext_port, port);
        let (s3, _) = t.lookup_external(&ek).unwrap();
        assert_eq!(s3, slot);
    }

    #[test]
    fn batch_probe_equals_sequential_lookups() {
        let mut t = ShardedFlowManager::new(&cfg(64), 3);
        for h in 0..30u8 {
            add_flow(&mut t, fid(h, 100), Time::from_secs(1));
        }
        // Hits, misses, and duplicates, in interleaved shard order.
        let queries: Vec<FlowId> = (0..40u8).map(|h| fid(h % 35, 100)).collect();
        let hashes: Vec<u64> = queries.iter().map(MapKey::key_hash).collect();
        let mut batch = vec![None; queries.len()];
        t.probe_batch(
            queries.len(),
            |i| Some(ProbeKey::Internal(queries[i], hashes[i])),
            |i, r| batch[i] = r,
        );
        for (i, q) in queries.iter().enumerate() {
            let seq = t.lookup_internal_hashed(q, hashes[i]);
            assert_eq!(batch[i], seq, "query {i} diverged");
        }
    }

    #[test]
    fn one_shard_is_the_unsharded_table() {
        use crate::flow_manager::FlowManager;
        let c = cfg(16);
        let mut sharded = ShardedFlowManager::new(&c, 1);
        let mut plain = FlowManager::new(&c);
        for h in 0..20u8 {
            let f = fid(h, 100);
            let hash = f.key_hash();
            let a = add_flow(&mut sharded, f, Time::from_secs(1));
            let b = plain.allocate(f, Time::from_secs(1));
            assert_eq!(a, b, "identical slots and ports with one shard");
            assert_eq!(
                sharded.lookup_internal_hashed(&f, hash),
                plain.lookup_internal_hashed(&f, hash),
            );
        }
        sharded.check_coherence().unwrap();
    }

    #[test]
    fn per_shard_expiry_is_independent() {
        let mut t = ShardedFlowManager::new(&cfg(64), 2);
        // Place one flow in each shard (search the host space).
        let mut in_shard: [Option<FlowId>; 2] = [None, None];
        for h in 0..64u8 {
            let f = fid(h, 100);
            let s = t.shard_of_hash(f.key_hash());
            if in_shard[s].is_none() {
                in_shard[s] = Some(f);
                add_flow(&mut t, f, Time::from_secs(1));
            }
        }
        let [a, b] = in_shard.map(|f| f.expect("both shards populated"));
        // Only shard 0's clock passes the threshold: a per-core driver
        // expires its own shard through the table's `expire`.
        assert_eq!(t.shards_mut()[0].expire(Time::from_secs(5)), 1);
        assert!(t.lookup_internal_hashed(&a, a.key_hash()).is_none());
        assert!(t.lookup_internal_hashed(&b, b.key_hash()).is_some());
        t.check_coherence().unwrap();
    }

    #[test]
    fn shard_full_drops_even_when_siblings_are_empty() {
        let mut t = ShardedFlowManager::new(&cfg(8), 2); // 4 slots each
        let mut filled = 0;
        let mut rejected_in_full_shard = false;
        for h in 0..=255u8 {
            for p in [100u16, 200, 300] {
                let f = fid(h, p);
                let hash = f.key_hash();
                if t.shard_of_hash(hash) != 0 || t.lookup_internal_hashed(&f, hash).is_some() {
                    continue;
                }
                match t.allocate_slot_routed(hash, Time::from_secs(1)) {
                    Some(slot) => {
                        let (ip, port) = t.endpoint_of_slot(slot);
                        t.insert_hashed(slot, f, ip, port, hash, 0);
                        filled += 1;
                    }
                    None => {
                        rejected_in_full_shard = true;
                    }
                }
            }
        }
        assert_eq!(filled, 4, "shard 0 fills to its own capacity");
        assert!(rejected_in_full_shard, "then rejects, siblings empty");
        assert_eq!(t.shard(1).flow_count(), 0);
        assert_eq!(t.flow_count(), 4);
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn more_shards_than_capacity_is_rejected() {
        let _ = ShardedFlowManager::new(&cfg(4), 8);
    }

    proptest::proptest! {
        /// `probe_batch` equals its element-wise lookups position by
        /// position, with exactly one `found` call per asking position,
        /// on the unsharded and the sharded table, over keys of either
        /// kind alone and both mixed ([`assert_probes_equal_lookups`]) —
        /// live endpoints, dead ones, wrong remotes, duplicates,
        /// endpoints outside the pool and, with 3 shards over 64 slots,
        /// the remainder slot no shard owns; bursts up to three 32-query
        /// chunks long whose queries route to every shard in any order,
        /// with `None` holes at random positions left alone — and, being
        /// loads only, leaves every observable bit of either table as it
        /// was.
        #[test]
        fn batch_probes_equal_lookups_and_change_nothing(
            flows in proptest::collection::vec((0u8..48, 0u8..2, 0u8..3), 0..70),
            queries in proptest::collection::vec((0u16..70, 0u8..3, 0u8..2, 0u8..4), 1..100),
            shards in 1usize..4,
            classed in 0u8..2,
        ) {
            let c = NatConfig {
                tcp_transitory_ns: u64::from(classed) * Time::from_secs(3).nanos(),
                ..cfg(64)
            };
            let mut plain = FlowManager::new(&c);
            let mut sharded = ShardedFlowManager::new(&c, shards);
            let mut now = Time::from_secs(1);
            for (host, tcp, step) in flows {
                now = now.plus(u64::from(step));
                let f = FlowId {
                    proto: if tcp == 1 { Proto::Tcp } else { Proto::Udp },
                    ..fid(host, 100)
                };
                match plain.lookup_internal(&f) {
                    Some((slot, _)) => plain.rejuvenate(slot, now, Direction::Internal, 0),
                    None => { plain.allocate(f, now); }
                }
                let h = f.key_hash();
                match sharded.lookup_internal_hashed(&f, h).map(|(s, _)| s) {
                    Some(slot) => sharded.rejuvenate(slot, now, Direction::External, 0x10),
                    None => {
                        if let Some(slot) = sharded.allocate_slot_routed(h, now) {
                            let (ip, port) = sharded.endpoint_of_slot(slot);
                            sharded.insert_hashed(slot, f, ip, port, h, 0x02);
                        }
                    }
                }
            }
            // A hole (`None`) one time in four, at a different position
            // in each direction.
            let eks: Vec<Option<ExtKey>> = queries
                .iter()
                .map(|&(off, remote, tcp, hole)| (hole != 0).then_some(ExtKey {
                    ext_ip: c.external_ip,
                    // 1000..1063 is the pool; 999 and 1064.. are not.
                    ext_port: 999 + off,
                    dst_ip: Ip4::new(8, 8, 8, 8),
                    dst_port: [53, 53, 54][usize::from(remote)],
                    proto: if tcp == 1 { Proto::Tcp } else { Proto::Udp },
                }))
                .collect();
            let fids: Vec<Option<FlowId>> = queries
                .iter()
                .map(|&(off, _, tcp, hole)| (hole != 1).then_some(FlowId {
                    proto: if tcp == 1 { Proto::Tcp } else { Proto::Udp },
                    ..fid(off as u8, 100)
                }))
                .collect();

            let before: Vec<_> = plain.iter_lru().collect();
            assert_probes_equal_lookups(&mut plain, &fids, &eks);
            let after: Vec<_> = plain.iter_lru().collect();
            proptest::prop_assert_eq!(before, after);
            proptest::prop_assert!(plain.check_coherence().is_ok());

            let before = sharded.snapshot();
            assert_probes_equal_lookups(&mut sharded, &fids, &eks);
            proptest::prop_assert_eq!(before, sharded.snapshot());
            proptest::prop_assert!(sharded.check_coherence().is_ok());
        }
    }

    /// The sharded table at 98% per-shard occupancy: 1-shard equals the
    /// unsharded table byte-for-byte through fill/expiry/realloc, the
    /// 4-shard probe batch equals element-wise lookups, per-shard probe
    /// lengths stay observable, and coherence (tags included) holds.
    #[test]
    fn sharded_table_matches_unsharded_at_98pct() {
        use crate::flow_manager::tests::{cfg_of, nth_fid};
        let c = cfg_of(512);
        let mut one = ShardedFlowManager::new(&c, 1);
        let mut plain = FlowManager::new(&c);
        let target = 512 * 98 / 100;
        let mut i = 0u32;
        while plain.flow_count() < target {
            let f = nth_fid(i);
            let a = add_flow(&mut one, f, Time::from_secs(1));
            let b = plain.allocate(f, Time::from_secs(1));
            assert_eq!(a, b, "1-shard allocation diverged at flow {i}");
            i += 1;
        }
        // Expire everything in both, realloc, and compare lookups + probe
        // lengths across the whole key range.
        assert_eq!(
            FlowTable::expire(&mut one, Time::from_secs(1)),
            plain.expire(Time::from_secs(1))
        );
        for j in 0..i {
            let f = nth_fid(j + 3_000_000);
            let a = add_flow(&mut one, f, Time::from_secs(2));
            let b = plain.allocate(f, Time::from_secs(2));
            assert_eq!(a, b, "realloc diverged at flow {j}");
        }
        for j in 0..2 * i {
            let f = nth_fid(j + 3_000_000);
            let h = f.key_hash();
            assert_eq!(
                one.lookup_internal_hashed(&f, h),
                plain.lookup_internal_hashed(&f, h),
            );
            assert_eq!(one.internal_probe_len(&f), plain.internal_probe_len(&f));
        }
        one.check_coherence().unwrap();
        plain.check_coherence().unwrap();

        // 4-shard: fill each shard to ~90%, then the batched probe must
        // equal element-wise lookups over a hit/miss mix.
        const CAP: u32 = 4096;
        let mut four = ShardedFlowManager::new(&cfg_of(CAP as usize), 4);
        let mut n = 0u32;
        let want = four.table_capacity() * 90 / 100;
        let mut k = 0u32;
        while four.flow_count() < want && k < 4 * CAP {
            let f = nth_fid(k);
            let h = f.key_hash();
            if four.lookup_internal_hashed(&f, h).is_none()
                && add_flow(&mut four, f, Time::from_secs(1)).is_some()
            {
                n += 1;
            }
            k += 1;
        }
        assert!(n > 0);
        let queries: Vec<FlowId> = (0..k + 512).step_by(3).map(nth_fid).collect();
        let hashes: Vec<u64> = queries.iter().map(MapKey::key_hash).collect();
        let mut batch = vec![None; queries.len()];
        four.probe_batch(
            queries.len(),
            |i| Some(ProbeKey::Internal(queries[i], hashes[i])),
            |i, r| batch[i] = r,
        );
        for (qi, q) in queries.iter().enumerate() {
            let seq = four.lookup_internal_hashed(q, hashes[qi]);
            assert_eq!(batch[qi], seq, "4-shard batch query {qi} diverged");
        }
        four.check_coherence().unwrap();
    }
}
