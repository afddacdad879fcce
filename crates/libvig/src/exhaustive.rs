//! Bounded-exhaustive checking: the executable stand-in for the
//! VeriFast proof of P3.
//!
//! The VeriFast proof covers *all* states symbolically. We approximate
//! with the small-scope hypothesis: enumerate **every** operation
//! sequence up to a depth over small capacities and key spaces, running
//! the implementation in lockstep with its abstract model (the
//! `Checked*` wrappers panic on any divergence or contract violation).
//! Data-structure bugs overwhelmingly manifest in small scopes — e.g.
//! the open-addressing deletion bug the map's backward shift exists to
//! prevent shows up with 3 colliding keys and depth 5.
//!
//! The driver is generic so every structure reuses it; per-structure
//! tests live here (rather than per-module) because they are slow-ish
//! and deliberately grouped for `cargo test -p libvig exhaustive`.

/// Apply every sequence of operations from `universe` of length up to
/// `depth` (inclusive) to clones of `init`, via `apply`. Returns the
/// number of sequences executed (including the empty one).
///
/// `apply` is expected to assert its own invariants (the `Checked*`
/// wrappers do) and panic on violation.
pub fn check_all_sequences<S, O, F>(init: &S, universe: &[O], depth: usize, apply: &F) -> u64
where
    S: Clone,
    F: Fn(&mut S, &O),
{
    fn rec<S, O, F>(state: &S, universe: &[O], depth: usize, apply: &F) -> u64
    where
        S: Clone,
        F: Fn(&mut S, &O),
    {
        let mut count = 1; // the sequence ending here
        if depth == 0 {
            return count;
        }
        for op in universe {
            let mut next = state.clone();
            apply(&mut next, op);
            count += rec(&next, universe, depth - 1, apply);
        }
        count
    }
    rec(init, universe, depth, apply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dchain::CheckedChain;
    use crate::dmap::{CheckedDmap, DmapValue};
    use crate::map::{CheckedMap, MapKey};
    use crate::ring::CheckedRing;
    use crate::time::Time;

    /// Fully colliding key type: the worst case for probing logic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct CKey(u8);

    impl MapKey for CKey {
        fn key_hash(&self) -> u64 {
            0
        }
        fn to_bits(&self) -> u128 {
            u128::from(self.0)
        }
        fn from_bits(bits: u128) -> Self {
            CKey(bits as u8)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum MapOp {
        Put(u8),
        Get(u8),
        Erase(u8),
    }

    #[test]
    fn map_all_sequences_depth5_colliding_keys() {
        let universe: Vec<MapOp> = (0..3u8)
            .flat_map(|k| [MapOp::Put(k), MapOp::Get(k), MapOp::Erase(k)])
            .collect();
        let init = CheckedMap::<CKey>::new(2); // capacity below key count!
        let n = check_all_sequences(&init, &universe, 5, &|m, op| match *op {
            MapOp::Put(k) => {
                if m.get(&CKey(k)).is_none() {
                    let _ = m.put(CKey(k), usize::from(k));
                }
            }
            MapOp::Get(k) => {
                m.get(&CKey(k));
            }
            MapOp::Erase(k) => {
                if m.get(&CKey(k)).is_some() {
                    m.erase(&CKey(k));
                }
            }
        });
        // 9 ops, depth 5: 1 + 9 + 81 + ... + 9^5 sequences
        assert_eq!(n, (0..=5).map(|d| 9u64.pow(d)).sum::<u64>());
    }

    /// A key with an explicitly placed home (`home < capacity` is its
    /// hash) — the exhaustive analog of the adversarial proptest
    /// strategies in `map.rs`. `placed(0, 0)` packs to the all-zero key.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct PlacedKey {
        id: u8,
        home: u64,
    }

    impl MapKey for PlacedKey {
        fn key_hash(&self) -> u64 {
            self.home
        }
        fn to_bits(&self) -> u128 {
            (u128::from(self.home) << 8) | u128::from(self.id)
        }
        fn from_bits(bits: u128) -> Self {
            PlacedKey {
                id: bits as u8,
                home: (bits >> 8) as u64,
            }
        }
    }

    fn placed(id: u8, home: usize) -> PlacedKey {
        PlacedKey {
            id,
            home: home as u64,
        }
    }

    /// The trust rule of the burst loop
    /// (`vignat::loop_body::nat_process_batch_into`), as a lemma over
    /// one table state: a `put` of a fresh key into a free slot leaves
    /// every other key's lookup as it was, so a hit stays the same hit
    /// and a miss stays a miss unless its key is the one put. Between a
    /// burst's batched probe and the use of its answers the table only
    /// gains flows (expiry, the one remover, runs before the probe):
    /// a batched hit may be trusted, and a batched miss must re-probe
    /// at its sequence point. `get` reads a state; `put` stores
    /// `fresh` (absent from `state`) into it.
    fn assert_trust_rule<S: Clone, K: PartialEq>(
        state: &S,
        keys: &[K],
        fresh: &K,
        get: impl Fn(&S, &K) -> Option<usize>,
        put: impl FnOnce(&mut S),
    ) {
        assert_eq!(get(state, fresh), None, "lemma precondition: fresh key");
        let mut after = state.clone();
        put(&mut after);
        for k in keys {
            let (was, is) = (get(state, k), get(&after, k));
            if k == fresh {
                assert!(is.is_some(), "the put key must hit");
            } else {
                assert_eq!(was, is, "a put changed another key's lookup");
            }
        }
    }

    /// Every sequence of depth 5 over `keys` in a map of `cap` slots,
    /// every key looked up after each op, and the trust rule checked
    /// for each absent key a put would store.
    fn map_all_sequences_depth5(cap: usize, keys: &[PlacedKey]) -> u64 {
        let universe: Vec<MapOp> = (0..keys.len() as u8)
            .flat_map(|k| [MapOp::Put(k), MapOp::Get(k), MapOp::Erase(k)])
            .collect();
        let init = CheckedMap::<PlacedKey>::new(cap);
        check_all_sequences(&init, &universe, 5, &|m, op| {
            let key = |k: u8| keys[k as usize].clone();
            match *op {
                MapOp::Put(k) => {
                    if m.get(&key(k)).is_none() {
                        let _ = m.put(key(k), usize::from(k));
                    }
                }
                MapOp::Get(k) => {
                    m.get(&key(k));
                }
                MapOp::Erase(k) => {
                    if m.get(&key(k)).is_some() {
                        m.erase(&key(k));
                    }
                }
            }
            for (k, fresh) in keys.iter().enumerate() {
                let stored = keys.iter().filter(|k| m.get(k).is_some()).count();
                if m.get(fresh).is_none() && stored < cap {
                    assert_trust_rule(
                        m,
                        keys,
                        fresh,
                        |m, k| m.get(k),
                        |m| {
                            m.put(fresh.clone(), k).unwrap();
                        },
                    );
                }
            }
        })
    }

    #[test]
    fn map_all_sequences_depth5_capacities_1_to_9() {
        // Every capacity from one slot to a full line and a line of
        // one: the short last line, the wrap back to line 0, and
        // fullness (three keys in one or two slots). Two keys share the
        // last slot's home — the all-zero key is not one of them, so a
        // probe from the last line must walk past it after the wrap —
        // and the third sits at home 0.
        for cap in 1..=9 {
            let keys = [placed(1, cap - 1), placed(2, cap - 1), placed(0, 0)];
            assert_eq!(
                map_all_sequences_depth5(cap, &keys),
                (0..=5).map(|d| 9u64.pow(d)).sum::<u64>()
            );
        }
    }

    #[test]
    fn map_all_sequences_depth5_erase_shift_keeps_entries_at_their_start() {
        // Capacity 17: four full lines and a one-lane last line. Two
        // keys start at line 0 and two at lane 16, whose cluster wraps
        // into line 0, so an erase's backward shift meets both an
        // entry whose probe path crosses the hole (it moves back) and
        // one that sits at or after its own start past the hole (it
        // must stay): erasing k2 at lane 16 with k0 at lane 0 leaves
        // k0 where it is.
        const CAP: usize = 17;
        let keys = [placed(0, 0), placed(1, 0), placed(2, 16), placed(3, 16)];
        assert_eq!(
            map_all_sequences_depth5(CAP, &keys),
            (0..=5).map(|d| 12u64.pow(d)).sum::<u64>()
        );
    }

    #[derive(Debug, Clone, Copy)]
    enum ChainOp {
        Alloc,
        /// `(index, list)`.
        Rejuv(usize, usize),
        Expire(u64),
        Free(usize),
    }

    #[derive(Clone)]
    struct ChainState {
        chain: CheckedChain,
        now: Time,
    }

    #[test]
    fn dchain_all_sequences_depth5() {
        let universe = [
            ChainOp::Alloc,
            ChainOp::Rejuv(0, 0),
            ChainOp::Rejuv(1, 0),
            ChainOp::Expire(0),
            ChainOp::Expire(3),
            ChainOp::Free(0),
            ChainOp::Free(1),
        ];
        let init = ChainState {
            chain: CheckedChain::new(2),
            now: Time::ZERO,
        };
        let n = check_all_sequences(&init, &universe, 5, &|s, op| {
            s.now = s.now.plus(1);
            match *op {
                ChainOp::Alloc => {
                    let _ = s.chain.allocate(s.now);
                }
                ChainOp::Rejuv(i, l) => {
                    s.chain.rejuvenate_on(i, l, s.now);
                }
                ChainOp::Expire(back) => {
                    s.chain.expire_one(s.now.minus(back));
                }
                ChainOp::Free(i) => {
                    s.chain.free_index(i);
                }
            }
        });
        assert_eq!(n, (0..=5).map(|d| 7u64.pow(d)).sum::<u64>());
    }

    #[test]
    fn dchain_two_lists_all_sequences_depth5() {
        // Two indices over two lists: every interleaving of refresh,
        // migration in either direction, cross-list expiry and eager
        // free. Only `Alloc` advances the clock, so refreshes and
        // migrations also meet at equal stamps across lists.
        let universe = [
            ChainOp::Alloc,
            ChainOp::Rejuv(0, 0),
            ChainOp::Rejuv(0, 1),
            ChainOp::Rejuv(1, 0),
            ChainOp::Rejuv(1, 1),
            ChainOp::Expire(0),
            ChainOp::Expire(2),
            ChainOp::Free(0),
        ];
        let init = ChainState {
            chain: CheckedChain::with_lists(2, 2),
            now: Time::ZERO,
        };
        let n = check_all_sequences(&init, &universe, 5, &|s, op| match *op {
            ChainOp::Alloc => {
                s.now = s.now.plus(1);
                let _ = s.chain.allocate(s.now);
            }
            ChainOp::Rejuv(i, l) => {
                s.chain.rejuvenate_on(i, l, s.now);
            }
            ChainOp::Expire(back) => {
                s.chain.expire_one(s.now.minus(back));
            }
            ChainOp::Free(i) => {
                s.chain.free_index(i);
            }
        });
        assert_eq!(n, (0..=5).map(|d| 8u64.pow(d)).sum::<u64>());
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Two {
        a: u8,
        b: u8,
    }

    impl DmapValue for Two {
        type KeyA = CKey;
        type KeyB = CKey;

        fn key_a(&self) -> CKey {
            CKey(self.a)
        }
        fn key_b(&self, _index: usize) -> CKey {
            CKey(self.b)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum DmapOp {
        Put(usize, u8, u8),
        Erase(usize),
        Lookup(u8),
    }

    #[test]
    fn dmap_all_sequences_depth4() {
        // B-key `b` names slot `b % 2`; two B-keys per slot, so a slot
        // erased and reused under its other key is asked for both. The
        // A-keys are shared across slots (A-freshness can refuse a put).
        let at = |b: u8| usize::from(b % 2);
        let universe = [
            DmapOp::Put(0, 0, 0),
            DmapOp::Put(0, 2, 2),
            DmapOp::Put(1, 0, 1),
            DmapOp::Put(1, 2, 3),
            DmapOp::Erase(0),
            DmapOp::Erase(1),
            DmapOp::Lookup(0),
            DmapOp::Lookup(2),
        ];
        let keys = [CKey(0), CKey(2)];
        let puts: Vec<_> = universe
            .iter()
            .filter_map(|op| match *op {
                DmapOp::Put(i, a, b) => Some((i, a, b)),
                _ => None,
            })
            .collect();
        let init = CheckedDmap::<Two>::new(2);
        let n = check_all_sequences(&init, &universe, 4, &|d, op| {
            match *op {
                DmapOp::Put(i, a, b) => {
                    debug_assert_eq!(i, at(b));
                    // An empty slot means its B-keys are fresh.
                    if d.get(i).is_none() && d.get_by_a(&CKey(a)).is_none() {
                        d.put(i, Two { a, b }).unwrap();
                    }
                }
                DmapOp::Erase(i) => {
                    d.erase(i);
                }
                DmapOp::Lookup(k) => {
                    d.get_by_a(&CKey(k));
                    d.get_by_b_at(&CKey(k), at(k));
                    d.get_by_b_at(&CKey(k + 1), at(k + 1));
                }
            }
            // The trust rule for each fresh put the universe offers.
            for &(i, a, b) in &puts {
                if d.get(i).is_none() && d.get_by_a(&CKey(a)).is_none() {
                    let get = |d: &CheckedDmap<Two>, k: &CKey| d.get_by_a(k);
                    assert_trust_rule(d, &keys, &CKey(a), get, |d| {
                        d.put(i, Two { a, b }).unwrap();
                    });
                }
            }
        });
        assert_eq!(n, (0..=4).map(|d| 8u64.pow(d)).sum::<u64>());
    }

    #[test]
    fn ring_all_sequences_depth7() {
        // CheckedRing is not Clone, so enumerate over op *logs* and
        // replay each prefix against a fresh checked ring.
        #[derive(Clone)]
        struct Log(Vec<Option<u8>>);
        let universe = [Some(0u8), Some(1), None];
        let n = check_all_sequences(&Log(vec![]), &universe, 7, &|l, op| {
            l.0.push(*op);
            // replay the whole prefix against a fresh checked ring
            let mut r = CheckedRing::<u8>::new(2);
            for o in &l.0 {
                match o {
                    Some(v) => {
                        let _ = r.push_back(*v);
                    }
                    None => {
                        r.pop_front();
                    }
                }
            }
        });
        assert_eq!(n, (0..=7).map(|d| 3u64.pow(d)).sum::<u64>());
    }

    #[test]
    fn driver_counts_sequences() {
        // depth 2 over 2 ops: 1 + 2 + 4 = 7
        let n = check_all_sequences(&0u32, &[1u32, 2], 2, &|s, o| *s += o);
        assert_eq!(n, 7);
    }
}
