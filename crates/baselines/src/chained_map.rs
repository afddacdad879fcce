//! A separate-chaining hash table in the style of DPDK's `rte_hash`.
//!
//! The paper (§6) explains why VigNAT could not just reuse this design:
//! "it resolves hash conflicts through separate chaining — items that
//! hash to the same array position are added to the same linked list —
//! a behavior that is hard to specify in a formal contract." This module
//! *is* that design, implemented at the quality level of the DPDK
//! library it stands in for (the paper's Unverified NAT is *faster* than
//! the Verified one, so the chaining table must be a serious
//! implementation, not a strawman):
//!
//! * entries live in one preallocated **arena**; chains are `next`
//!   indices within it, so walking a chain is array hops, not pointer
//!   chasing through the allocator;
//! * the bucket array stores the head index plus a short **hash
//!   signature**, so most misses resolve without touching the arena at
//!   all (`rte_hash` uses the same trick);
//! * freed entries go on a free list and are reused.
//!
//! What makes it hard to verify formally — the unbounded linked-list
//! heap shape — is exactly what keeps its lookups flat at any load
//! factor: no open-addressing probe blowup near fullness, which is why
//! the Unverified NAT's Fig. 12 curve stays flat at the last point
//! while the Verified NAT's ticks up.

use libvig::map::MapKey;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    sig: u16,
    next: u32,
}

/// Separate-chaining hash map from `K` to `V`. See module docs.
#[derive(Debug, Clone)]
pub struct ChainedMap<K: MapKey, V> {
    heads: Vec<u32>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<u32>,
    mask: u64,
    len: usize,
}

impl<K: MapKey, V> ChainedMap<K, V> {
    /// Table sized for about `capacity_hint` entries (bucket count is
    /// the next power of two, like `rte_hash`); the arena grows on
    /// demand beyond the hint.
    pub fn with_capacity(capacity_hint: usize) -> Self {
        let buckets = capacity_hint.next_power_of_two().max(8);
        ChainedMap {
            heads: vec![NIL; buckets],
            slots: Vec::with_capacity(capacity_hint),
            free: Vec::new(),
            mask: (buckets - 1) as u64,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn index_of(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    #[inline]
    fn sig_of(hash: u64) -> u16 {
        (hash >> 48) as u16
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = key.key_hash();
        let sig = Self::sig_of(hash);
        let mut cur = self.heads[self.index_of(hash)];
        while cur != NIL {
            let slot = self.slots[cur as usize]
                .as_ref()
                .expect("chained slot is live");
            if slot.sig == sig && slot.key == *key {
                return Some(&slot.value);
            }
            cur = slot.next;
        }
        None
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = key.key_hash();
        let sig = Self::sig_of(hash);
        let bucket = self.index_of(hash);
        // Replace in place if present.
        let mut cur = self.heads[bucket];
        while cur != NIL {
            let slot = self.slots[cur as usize]
                .as_mut()
                .expect("chained slot is live");
            if slot.sig == sig && slot.key == key {
                return Some(core::mem::replace(&mut slot.value, value));
            }
            cur = slot.next;
        }
        // Allocate an arena slot and push at the chain head.
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[idx as usize] = Some(Slot {
            key,
            value,
            sig,
            next: self.heads[bucket],
        });
        self.heads[bucket] = idx;
        self.len += 1;
        None
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let hash = key.key_hash();
        let sig = Self::sig_of(hash);
        let bucket = self.index_of(hash);
        let mut prev = NIL;
        let mut cur = self.heads[bucket];
        while cur != NIL {
            let slot = self.slots[cur as usize]
                .as_ref()
                .expect("chained slot is live");
            if slot.sig == sig && slot.key == *key {
                let next = slot.next;
                if prev == NIL {
                    self.heads[bucket] = next;
                } else {
                    let p = self.slots[prev as usize]
                        .as_mut()
                        .expect("prev slot is live");
                    p.next = next;
                }
                let taken = self.slots[cur as usize].take().expect("slot was live");
                self.free.push(cur);
                self.len -= 1;
                return Some(taken.value);
            }
            prev = cur;
            cur = slot.next;
        }
        None
    }

    /// Average chain length over non-empty buckets (diagnostics for the
    /// microbenchmarks).
    pub fn avg_chain_len(&self) -> f64 {
        let mut chains = 0usize;
        let mut total = 0usize;
        for &head in &self.heads {
            if head == NIL {
                continue;
            }
            chains += 1;
            let mut cur = head;
            while cur != NIL {
                total += 1;
                cur = self.slots[cur as usize].as_ref().expect("live").next;
            }
        }
        if chains == 0 {
            0.0
        } else {
            total as f64 / chains as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove() {
        let mut m: ChainedMap<u64, u32> = ChainedMap::with_capacity(16);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.get(&1), Some(&10));
        assert_eq!(m.insert(1, 11), Some(10), "replace returns old");
        assert_eq!(m.get(&1), Some(&11));
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn survives_overload_beyond_bucket_count() {
        // Chaining has no capacity limit: 8x the buckets still works.
        let mut m: ChainedMap<u64, u64> = ChainedMap::with_capacity(8);
        for k in 0..64 {
            m.insert(k, k * 2);
        }
        for k in 0..64 {
            assert_eq!(m.get(&k), Some(&(k * 2)));
        }
        assert!(m.avg_chain_len() >= 1.0);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut m: ChainedMap<u64, u64> = ChainedMap::with_capacity(8);
        for k in 0..100 {
            m.insert(k, k);
            m.remove(&k);
        }
        assert!(m.slots.len() <= 2, "free list must recycle arena slots");
    }

    #[test]
    fn removal_from_middle_of_chain() {
        // Keys engineered into one bucket via a constant-hash key type.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct C(u32);
        impl MapKey for C {
            fn key_hash(&self) -> u64 {
                // same bucket AND same signature: worst case
                3
            }
            fn to_bits(&self) -> u128 {
                u128::from(self.0)
            }
            fn from_bits(bits: u128) -> Self {
                C(bits as u32)
            }
        }
        let mut m: ChainedMap<C, u32> = ChainedMap::with_capacity(8);
        for i in 0..5 {
            m.insert(C(i), i);
        }
        assert_eq!(m.remove(&C(2)), Some(2));
        for i in [0u32, 1, 3, 4] {
            assert_eq!(m.get(&C(i)), Some(&i), "chain intact after middle removal");
        }
        assert_eq!(m.remove(&C(0)), Some(0), "head removal");
        assert_eq!(m.get(&C(4)), Some(&4));
    }

    proptest! {
        /// Differential vs std::HashMap over random op sequences.
        #[test]
        fn matches_std_hashmap(ops in proptest::collection::vec((0u8..3, 0u64..32, any::<u32>()), 0..300)) {
            let mut ours: ChainedMap<u64, u32> = ChainedMap::with_capacity(8);
            let mut reference: HashMap<u64, u32> = HashMap::new();
            for (kind, k, v) in ops {
                match kind {
                    0 => { prop_assert_eq!(ours.insert(k, v), reference.insert(k, v)); }
                    1 => { prop_assert_eq!(ours.remove(&k), reference.remove(&k)); }
                    _ => { prop_assert_eq!(ours.get(&k), reference.get(&k)); }
                }
                prop_assert_eq!(ours.len(), reference.len());
            }
        }
    }
}
