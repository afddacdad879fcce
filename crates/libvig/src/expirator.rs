//! The expirator (`expirator.c`): the glue that expires flows.
//!
//! `expire_items` frees every [`DoubleChain`] index whose last activity
//! plus its list's lifetime is at or before `now`, erasing the
//! corresponding [`DoubleMap`] slot. This implements line 2 of the
//! paper's Fig. 6 (`expire_flows(t)`: `G.timestamp + Texp <= t`), with
//! one `Texp` per chain list.
//!
//! It is O(1) per expired index with no timer structure beside the
//! chain: under a monotone clock and a constant lifetime per list, each
//! list's LRU order *is* its deadline order, so only list heads can be
//! due. With several lists the heads are merged by ascending
//! `(deadline, list)`; that order — `(deadline, list, within-list LRU)`
//! over all due indices — fixes the order indices return to the free
//! list, hence which slot (and external port) the next flows get. With
//! one list the merge is the paper's loop verbatim.
//!
//! Contract: afterwards, (a) every surviving index has
//! `timestamp + lifetime > now`, (b) chain and map agree on exactly
//! which indices are live, and (c) the number of removed items is
//! returned. The glue has its own contract because it spans two
//! structures — this is where a coherence bug (expiring from one
//! structure but not the other) would live, precisely the class of
//! stateful bug the paper says Dobrescu et al. could not catch.

use crate::dchain::DoubleChain;
use crate::dmap::{DmapValue, DoubleMap};
use crate::time::Time;

/// Expire every index on list `l` of `chain` whose
/// `timestamp + lifetimes[l] <= now`, erasing both the chain entry and
/// the map slot, in ascending `(deadline, list)` order (module docs).
/// Returns how many were expired. `lifetimes` holds one lifetime (ns)
/// per chain list.
pub fn expire_items<V: DmapValue + Clone>(
    chain: &mut DoubleChain,
    map: &mut DoubleMap<V>,
    lifetimes: &[u64],
    now: Time,
) -> usize {
    assert_eq!(lifetimes.len(), chain.lists(), "one lifetime per list");
    let mut count = 0;
    loop {
        let due = lifetimes
            .iter()
            .enumerate()
            .filter_map(|(list, &lifetime)| {
                let (index, stamp) = chain.oldest_on(list)?;
                // checked_add: a deadline past u64::MAX can never be due.
                let deadline = stamp.nanos().checked_add(lifetime)?;
                (deadline <= now.nanos()).then_some((deadline, index))
            })
            // The first minimum: equal deadlines break by list rank.
            .min_by_key(|&(deadline, _)| deadline);
        let Some((_, index)) = due else {
            return count;
        };
        let freed = chain.free_index(index);
        debug_assert!(freed, "list head {index} not allocated");
        let erased = map.erase(index);
        debug_assert!(
            erased.is_some(),
            "chain/map coherence: expired index {index} had no map slot"
        );
        count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Item {
        a: u64,
        b: u64,
    }

    impl DmapValue for Item {
        type KeyA = u64;
        type KeyB = u64;

        fn key_a(&self) -> u64 {
            self.a
        }
        fn key_b(&self, _index: usize) -> u64 {
            self.b
        }
    }

    /// B-keys name their slot, as VigNAT's do: `b = 1000 + index`.
    fn insert(chain: &mut DoubleChain, map: &mut DoubleMap<Item>, a: u64, t: Time) -> usize {
        let idx = chain.allocate(t).unwrap();
        let b = 1000 + idx as u64;
        map.put(idx, Item { a, b }).unwrap();
        assert_eq!(map.get_by_b_at(&b, idx), Some(idx));
        idx
    }

    /// The single lifetime of the one-list tests.
    const TEXP: u64 = Time::from_secs(10).nanos();

    /// One-list expiry at `threshold = now - TEXP`.
    fn expire_at(chain: &mut DoubleChain, map: &mut DoubleMap<Item>, threshold: Time) -> usize {
        expire_items(chain, map, &[TEXP], threshold.plus(TEXP))
    }

    #[test]
    fn expires_only_stale_items() {
        let mut chain = DoubleChain::new(8);
        let mut map: DoubleMap<Item> = DoubleMap::new(8);
        let dead = insert(&mut chain, &mut map, 1, Time::from_secs(1));
        insert(&mut chain, &mut map, 2, Time::from_secs(2));
        let live = insert(&mut chain, &mut map, 3, Time::from_secs(10));

        let n = expire_at(&mut chain, &mut map, Time::from_secs(5));
        assert_eq!(n, 2);
        assert_eq!(map.size(), 1);
        assert_eq!(chain.size(), 1);
        assert!(chain.is_allocated(live));
        assert_eq!(map.get_by_a(&3), Some(live));
        assert_eq!(map.get_by_a(&1), None);
        assert_eq!(map.get_by_b_at(&(1000 + live as u64), live), Some(live));
        assert_eq!(map.get_by_b_at(&(1000 + dead as u64), dead), None);
    }

    #[test]
    fn expire_nothing_when_all_fresh() {
        let mut chain = DoubleChain::new(4);
        let mut map: DoubleMap<Item> = DoubleMap::new(4);
        insert(&mut chain, &mut map, 1, Time::from_secs(100));
        assert_eq!(expire_at(&mut chain, &mut map, Time::from_secs(99)), 0);
        assert_eq!(map.size(), 1);
        // A deadline past the end of time is never due.
        let forever = [u64::MAX];
        assert_eq!(
            expire_items(&mut chain, &mut map, &forever, Time(u64::MAX)),
            0
        );
    }

    #[test]
    fn expired_slots_are_immediately_reusable() {
        let mut chain = DoubleChain::new(2);
        let mut map: DoubleMap<Item> = DoubleMap::new(2);
        insert(&mut chain, &mut map, 1, Time::from_secs(1));
        insert(&mut chain, &mut map, 2, Time::from_secs(1));
        assert!(chain.is_full());
        expire_at(&mut chain, &mut map, Time::from_secs(1));
        assert_eq!(map.size(), 0);
        // full capacity available again
        insert(&mut chain, &mut map, 10, Time::from_secs(2));
        insert(&mut chain, &mut map, 11, Time::from_secs(2));
        assert!(chain.is_full());
    }

    /// The naive reference for per-list expiry: live items as
    /// `(slot, list, stamp)` in arrival order and a LIFO free stack; due
    /// items leave in stable `(stamp + lifetime[list], list)` order.
    struct Naive {
        live: Vec<(usize, usize, u64)>,
        free: Vec<usize>,
    }

    impl Naive {
        fn new(cap: usize) -> Naive {
            Naive {
                live: Vec::new(),
                free: (0..cap).rev().collect(),
            }
        }

        fn arrive(&mut self, list: usize, stamp: u64) -> Option<usize> {
            let slot = self.free.pop()?;
            self.live.push((slot, list, stamp));
            Some(slot)
        }

        fn refresh(&mut self, slot: usize, list: usize, stamp: u64) {
            self.live.retain(|&(s, ..)| s != slot);
            self.live.push((slot, list, stamp));
        }

        fn expire(&mut self, lifetimes: &[u64], now: u64) -> usize {
            let deadline = |&(_, list, stamp): &(usize, usize, u64)| stamp + lifetimes[list];
            let mut due = self.live.clone();
            due.retain(|e| deadline(e) <= now);
            due.sort_by_key(|e| (deadline(e), e.1));
            self.live.retain(|e| deadline(e) > now);
            self.free.extend(due.iter().map(|&(slot, ..)| slot));
            due.len()
        }
    }

    proptest! {
        /// Post-state properties for arbitrary histories: survivors are
        /// exactly the items stamped after the threshold, and chain/map
        /// stay coherent.
        #[test]
        fn expiry_postcondition(
            stamps in proptest::collection::vec(0u64..50, 1..24),
            thr in 0u64..50,
        ) {
            let mut sorted = stamps;
            sorted.sort_unstable();
            let mut chain = DoubleChain::new(32);
            let mut map: DoubleMap<Item> = DoubleMap::new(32);
            for (i, s) in sorted.iter().enumerate() {
                insert(&mut chain, &mut map, i as u64, Time::from_secs(*s));
            }
            let expired = expire_at(&mut chain, &mut map, Time::from_secs(thr));
            let expected = sorted.iter().filter(|&&s| s <= thr).count();
            prop_assert_eq!(expired, expected);
            prop_assert_eq!(chain.size(), map.size());
            for (idx, t) in chain.iter_lru() {
                prop_assert!(t > Time::from_secs(thr));
                prop_assert!(map.get(idx).is_some(), "chain/map coherence");
            }
        }

        /// The classed twin, against the naive model: arbitrary list
        /// assignments, lifetime triples, refresh storms that migrate
        /// items between lists, and repeated expiry at a moving clock
        /// leave the same expired counts, the same survivors in the
        /// same per-list order, the same map contents — and the same
        /// *free-list order*, observed by draining both through fresh
        /// allocations (this is what pins slot and port reuse).
        #[test]
        fn expiry_postcondition_classed(
            arrivals in proptest::collection::vec((0u64..4, 0usize..3), 1..28),
            ops in proptest::collection::vec((0usize..28, 0usize..3, 0u64..12, any::<bool>()), 0..24),
            lifetimes in proptest::collection::vec(1u64..40, 3),
        ) {
            let cap = 32;
            let mut chain = DoubleChain::with_lists(cap, 3);
            let mut map: DoubleMap<Item> = DoubleMap::new(cap);
            let mut model = Naive::new(cap);
            let mut clock = 0u64;
            let mut next_key = 0u64;
            let mut arrive = |chain: &mut DoubleChain, map: &mut DoubleMap<Item>,
                              model: &mut Naive, list: usize, clock: u64| {
                let slot = model.arrive(list, clock);
                let got = chain.allocate(Time(clock)).ok();
                assert_eq!(got, slot, "allocation (free-list order) diverged");
                if let Some(slot) = slot {
                    assert!(chain.rejuvenate_on(slot, list, Time(clock)));
                    map.put(slot, Item { a: next_key, b: 1000 + slot as u64 }).unwrap();
                    next_key += 1;
                }
            };
            for (dt, list) in arrivals {
                clock += dt; // dt == 0: same-stamp bursts across lists
                arrive(&mut chain, &mut map, &mut model, list, clock);
            }
            for (pick, list, dt, expire) in ops {
                clock += dt;
                if chain.is_allocated(pick) {
                    prop_assert!(chain.rejuvenate_on(pick, list, Time(clock)));
                    model.refresh(pick, list, clock);
                } else {
                    arrive(&mut chain, &mut map, &mut model, list, clock);
                }
                if expire {
                    let n = expire_items(&mut chain, &mut map, &lifetimes, Time(clock));
                    prop_assert_eq!(n, model.expire(&lifetimes, clock));
                }
                for list in 0..3 {
                    let got: Vec<_> = chain.iter_list(list).map(|(s, t)| (s, list, t.nanos())).collect();
                    let want: Vec<_> = model.live.iter().copied().filter(|e| e.1 == list).collect();
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(map.size(), model.live.len());
                for &(slot, ..) in &model.live {
                    prop_assert!(map.get(slot).is_some(), "chain/map coherence");
                }
            }
            // Free-list order: drain both dry.
            while !model.free.is_empty() {
                arrive(&mut chain, &mut map, &mut model, 0, clock);
            }
            prop_assert!(chain.is_full());
        }
    }
}
