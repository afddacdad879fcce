//! Differential proof that the tag-group SWAR directory probe is a
//! **pure optimization**: at every layer that owns or proxies the
//! flow-table directory — `Map`, `DoubleMap` (via `FlowManager`), the
//! sharded table — the tag-probed operations are byte-for-byte
//! equivalent to the scalar reference walk and the abstract model,
//! across insert/erase/expiry/realloc sequences, at both moderate
//! (49%) and near-full (98%) occupancy.
//!
//! The 98% cases are the ones the tag directory exists for (the miss
//! path degrades worst near fullness, paper Fig. 12's last point), and
//! CI runs this suite in a dedicated release job so the miss-heavy
//! path is exercised on every change, not just in benches.

use vignat_repro::libvig::map::{Map, MapKey};
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowManager, FlowTable, NatConfig, ShardedFlowManager};
use vignat_repro::packet::{FlowId, Ip4, Proto};

const CAP: usize = 4096;

fn cfg(capacity: usize) -> NatConfig {
    NatConfig {
        capacity,
        expiry_ns: Time::from_secs(10).nanos(),
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    }
}

fn fid(i: u32) -> FlowId {
    FlowId {
        src_ip: Ip4(0x0a00_0000 | (i & 0xffff)),
        src_port: 10_000 + (i >> 16) as u16,
        dst_ip: Ip4::new(1, 1, 1, 1),
        dst_port: 80,
        proto: Proto::Udp,
    }
}

/// Assert the tag-probed read path equals the scalar reference for a
/// query mix of hits, misses, and erased-then-reinserted keys.
fn assert_map_matches_scalar(m: &Map<u64>, queries: impl Iterator<Item = u64>) {
    for q in queries {
        let h = q.key_hash();
        assert_eq!(
            m.get_with_hash(&q, h),
            m.get_with_hash_scalar(&q, h),
            "get diverged for key {q}"
        );
        assert_eq!(
            m.probe_len(&q),
            m.probe_len_scalar(&q),
            "probe_len diverged for key {q}"
        );
    }
    m.check_tag_coherence().expect("tag directory incoherent");
}

/// The directory-layer differential at both target occupancies, through
/// fill → erase (backward shifts through the clusters) → refill
/// (inserts into the freed lanes) — the sequence that stresses the
/// free-lane stop the SWAR walk must share with the scalar walk.
#[test]
fn map_equals_scalar_reference_at_49_and_98_occupancy() {
    for occupancy in [CAP * 49 / 100, CAP * 98 / 100] {
        let mut m = Map::<u64>::new(CAP);
        for k in 0..occupancy as u64 {
            m.put(k, k as usize).unwrap();
        }
        // Hits, misses, and out-of-range misses.
        assert_map_matches_scalar(&m, (0..occupancy as u64 + 512).step_by(3));
        // Erase a scattered 10% — each erase shifts its cluster back —
        // then recheck misses that probe across the shifted clusters.
        for k in (0..occupancy as u64).step_by(10) {
            assert!(m.erase(&k).is_some());
        }
        assert_map_matches_scalar(&m, (0..occupancy as u64 + 512).step_by(7));
        // Refill the holes with fresh keys (realloc): probe paths now
        // mix shifted clusters, reused slots, and new tags.
        let mut fresh = 1_000_000u64;
        while m.size() < occupancy {
            if m.get(&fresh).is_none() {
                m.put(fresh, 0).unwrap();
            }
            fresh += 1;
        }
        assert_map_matches_scalar(
            &m,
            (0..occupancy as u64).step_by(5).chain(1_000_000..1_000_400),
        );
    }
}

/// While a table fills from empty to 98%, `probe_len` of a fixed query
/// set is monotone non-decreasing (under inserts alone no busy slot
/// frees, so the miss stop can only move outward), and at every
/// sampled occupancy the tag walk equals the scalar walk.
#[test]
fn probe_len_monotone_while_filling_to_98pct() {
    let mut m = Map::<u64>::new(CAP);
    let queries: Vec<u64> = (0..64).map(|i| i * 131).collect();
    let mut last = vec![0usize; queries.len()];
    for k in 0..(CAP * 98 / 100) as u64 {
        m.put(k, 0).unwrap();
        if k % 257 == 0 {
            for (q, prev) in queries.iter().zip(last.iter_mut()) {
                let now = m.probe_len(q);
                assert_eq!(now, m.probe_len_scalar(q));
                assert!(*prev <= now, "probe_len shrank while filling");
                *prev = now;
            }
        }
    }
}

/// Drive a FlowManager through fill → expiry → realloc at 49% and 98%
/// occupancy, holding the coherence invariant (which includes the
/// directory's tag projection) at every stage, and proving the
/// batched probe contract — batch results equal element-wise hashed
/// lookups — on a hit/miss query mix.
#[test]
fn flow_manager_expiry_realloc_keeps_directories_coherent() {
    for occupancy in [CAP * 49 / 100, CAP * 98 / 100] {
        let mut fm = FlowManager::new(&cfg(CAP));
        for i in 0..occupancy as u32 {
            fm.allocate(fid(i), Time::from_secs(1))
                .expect("below capacity");
        }
        fm.check_coherence().unwrap();

        // Rejuvenate a third so expiry leaves survivors interleaved
        // with holes, then expire the rest.
        for i in (0..occupancy as u32).step_by(3) {
            let (slot, _) = fm.lookup_internal(&fid(i)).expect("resident");
            fm.rejuvenate(slot, Time::from_secs(5));
        }
        let expired = fm.expire(Time::from_secs(2));
        assert!(expired > 0, "the unrejuvenated majority must expire");
        fm.check_coherence().unwrap();

        // Realloc into the freed slots with fresh flows.
        let mut fresh = 2_000_000u32;
        while !fm.is_full() {
            if fm.lookup_internal(&fid(fresh)).is_none() {
                fm.allocate(fid(fresh), Time::from_secs(6))
                    .expect("slot free");
            }
            fresh += 1;
        }
        fm.check_coherence().unwrap();

        // Batched probe contract on a mix of survivors, expired keys,
        // and reallocated flows.
        let queries: Vec<FlowId> = (0..occupancy as u32)
            .step_by(2)
            .map(fid)
            .chain((2_000_000..2_000_200).map(fid))
            .collect();
        let hashes: Vec<u64> = queries.iter().map(MapKey::key_hash).collect();
        let positioned: Vec<_> = queries
            .iter()
            .zip(&hashes)
            .map(|(q, &h)| Some((*q, h)))
            .collect();
        let mut batch = vec![None; queries.len()];
        fm.probe_internal_batch(&positioned, &mut batch);
        for (i, q) in queries.iter().enumerate() {
            let seq = fm.lookup_internal_hashed(q, hashes[i]);
            assert_eq!(batch[i], seq, "batch query {i} diverged");
        }
    }
}

/// The sharded table at 98% per-shard occupancy: 1-shard equals the
/// unsharded table byte-for-byte through fill/expiry/realloc, the
/// 4-shard probe batch equals element-wise lookups, per-shard probe
/// lengths stay observable, and coherence (tags included) holds.
#[test]
fn sharded_table_matches_unsharded_at_98pct() {
    let c = cfg(512);
    let mut one = ShardedFlowManager::new(&c, 1);
    let mut plain = FlowManager::new(&c);
    let target = 512 * 98 / 100;
    let mut i = 0u32;
    while plain.len() < target {
        let f = fid(i);
        let h = f.key_hash();
        let a = {
            assert!(one.lookup_internal_hashed(&f, h).is_none());
            one.allocate_slot_routed(h, Time::from_secs(1)).map(|slot| {
                let (ip, port) = one.endpoint_of_slot(slot);
                one.insert_hashed(slot, f, ip, port, h, 0);
                (slot, port)
            })
        };
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
        let f = fid(j + 3_000_000);
        let h = f.key_hash();
        let a = one
            .allocate_slot_routed(h, Time::from_secs(2))
            .inspect(|&slot| {
                let (ip, port) = one.endpoint_of_slot(slot);
                one.insert_hashed(slot, f, ip, port, h, 0);
            });
        let b = plain.allocate(f, Time::from_secs(2)).map(|(slot, _)| slot);
        assert_eq!(a, b, "realloc diverged at flow {j}");
    }
    for j in 0..2 * i {
        let f = fid(j + 3_000_000);
        let h = f.key_hash();
        assert_eq!(
            one.lookup_internal_hashed(&f, h),
            plain.lookup_internal_hashed(&f, h),
        );
        assert_eq!(one.internal_probe_len(&f), plain.internal_probe_len(&f));
    }
    one.check_coherence().unwrap();
    plain.check_coherence().unwrap();

    // 4-shard: fill each shard to ~98%, then the batched probe must
    // equal element-wise lookups over a hit/miss mix.
    let mut four = ShardedFlowManager::new(&cfg(CAP), 4);
    let mut n = 0u32;
    let want = four.table_capacity() * 90 / 100;
    let mut k = 0u32;
    while (four.flow_count()) < want && k < 4 * CAP as u32 {
        let f = fid(k);
        let h = f.key_hash();
        if four.lookup_internal_hashed(&f, h).is_none() {
            if let Some(slot) = four.allocate_slot_routed(h, Time::from_secs(1)) {
                let (ip, port) = four.endpoint_of_slot(slot);
                four.insert_hashed(slot, f, ip, port, h, 0);
                n += 1;
            }
        }
        k += 1;
    }
    assert!(n > 0);
    let queries: Vec<FlowId> = (0..k + 512).step_by(3).map(fid).collect();
    let hashes: Vec<u64> = queries.iter().map(MapKey::key_hash).collect();
    let positioned: Vec<_> = queries
        .iter()
        .zip(&hashes)
        .map(|(q, &h)| Some((*q, h)))
        .collect();
    let mut batch = vec![None; queries.len()];
    four.probe_internal_batch(&positioned, &mut batch);
    for (qi, q) in queries.iter().enumerate() {
        let seq = four.lookup_internal_hashed(q, hashes[qi]);
        assert_eq!(batch[qi], seq, "4-shard batch query {qi} diverged");
    }
    four.check_coherence().unwrap();
}
