//! The double-keyed map — libVig's flow table (`double-map.c`).
//!
//! A NAT must find the same flow record two ways: by the internal
//! 5-tuple for outbound packets and by the external key for return
//! packets. `DoubleMap` stores values in preallocated slots indexed
//! `0..capacity`. Both keys are **derived from the value** (via
//! [`DmapValue`]), never stored independently, so the two ways in
//! cannot disagree about which value a key belongs to.
//!
//! Slot indices come from outside — VigNAT allocates them from a
//! [`crate::dchain::DoubleChain`] so that slot lifetime is tied to flow
//! expiry; index `i` also encodes the allocated external port
//! (`port = start_port + i`), which is how the real VigNAT guarantees
//! port uniqueness without a separate allocator.
//!
//! That encoding is also why the map keeps **one** hash directory, not
//! libVig's two. The A-key (the internal 5-tuple) says nothing about
//! where its value lives, so a [`crate::map::Map`] resolves it. The
//! B-key (the external key) *names its slot*: the caller inverts
//! `port = start_port + i` and [`DoubleMap::get_by_b_at`] compares the
//! key with that slot's — no hash, no probe, no second `put`/`erase`.
//! It is also why [`DmapValue::key_b`] is told the slot: a value need
//! not store the part of its B-key that its slot index already says
//! (VigNAT's record stores no external endpoint at all).
//!
//! ## Contract summary
//!
//! With abstract state a partial map `slots: index -> value`
//! ([`AbstractDmap`]) where all stored values have pairwise-distinct
//! A-keys and pairwise-distinct B-keys:
//!
//! * `get_by_a(ka)` — ensures result is the unique `i` with
//!   `slots[i].key_a() == ka`, or `None`.
//! * `get_by_b_at(kb, i)` — requires that *if* some slot holds `kb`, it
//!   is slot `i` (the caller's placement rule); ensures the result is
//!   the unique `j` with `slots[j].key_b(j) == kb`, or `None`. Without
//!   the precondition it is still `Some(i)` only when slot `i` holds
//!   `kb`: never a wrong slot.
//! * `put(i, v)` — requires slot `i` empty, `v.key_a()` fresh among
//!   A-keys, `v.key_b(i)` fresh among B-keys; ensures `slots[i] = v`.
//! * `update(i, f)` — requires slot `i` occupied and `f` to leave both
//!   keys of its value as they were; ensures `slots[i] = f(slots[i])`
//!   and nothing else changes (no directory is touched).
//! * `erase(i)` — requires slot `i` occupied; ensures the slot is empty
//!   and its directory entry is gone; returns the old value.
//! * `get(i)` — pure query.

use crate::map::{AbstractMap, Map, MapKey};
use crate::Full;

/// A value storable in a [`DoubleMap`]: exposes its two keys.
///
/// The key-extraction functions must be pure: the same value (at the
/// same slot) always yields the same keys. (In the C original this is
/// the `vk1`/`vk2` ghost-map argument pair; in Rust it is enforced by
/// taking `&self`.)
pub trait DmapValue {
    /// First key type (VigNAT: the internal 5-tuple). Hashed: the
    /// directory resolves it.
    type KeyA: MapKey + core::fmt::Debug;
    /// Second key type (VigNAT: the external key). Only ever compared,
    /// at a slot the caller names ([`DoubleMap::get_by_b_at`]).
    type KeyB: Eq + Clone + core::fmt::Debug;

    /// Extract the first key.
    fn key_a(&self) -> Self::KeyA;
    /// The second key of this value stored in slot `index`. A value
    /// whose placement rule ties part of its B-key to its slot may
    /// leave that part to `index` instead of storing it; B-keys must
    /// still be pairwise distinct across the map.
    fn key_b(&self, index: usize) -> Self::KeyB;
}

/// Probe positions the key directory gets per 16 value slots: a full
/// table runs its directory at load 16/21 ≈ 0.76, a table held at 92 %
/// (natbench's `churn`) at 0.70.
///
/// The factor was chosen while the map kept libVig's probe-chain
/// counters, over which linear probing is cheap below load ≈ 0.75 and
/// steep above it. With a 17/16 directory (load 0.87 at 92 %
/// occupancy) a probe for a resident flow on `churn` walked 22.9
/// positions on average and 159 at the 99th percentile, and a table
/// filled to 100 % and churned left no free position uncrossed by a
/// probe chain, so every miss walked the whole directory. At 21/16 the
/// same probes walk 6.7 and 37 positions, the churned full table's
/// misses about 95, and `churn` forwards twice the packets per second
/// (1.13 → 2.30 Mpps, ten alternated pairs, measured while the table
/// still had two such directories).
///
/// The map now erases by backward shift, so a probe's length depends
/// on the live keys alone, not on the churn that placed them, and a
/// probe starts on the 4-slot line its home falls in. At 21/16 a
/// resident flow's probe on traced `churn` walks 3.33–3.36 positions
/// on average and 19 at the 99th percentile (seeds 1, 7 and 29;
/// 6.51–6.64 and 33–34 over the counters), and the churned full
/// table's misses 10.1 (98.9 over the counters). Whether 21/16 is
/// still the right factor at these lengths is a measurement of its
/// own; it has not been retuned.
///
/// Per value slot the directory costs 21/16 × 16-byte
/// [`crate::map::Map`] slot = 21.0 bytes. Spending part
/// of what the second directory's removal freed on a wider one — 32/16,
/// load 0.46 — measured flat with 32-byte slots: `churn` 2.521 → 2.541
/// Mpps (×1.01, ahead in 3 of 6 alternated pairs), `burst_us_p99` 57.9
/// → 51.7 (5/6), for 10.5 % more table heap (14.19 → 15.68 MB). Not
/// taken.
///
/// Tables of fewer than four slots get no headroom (the quotient
/// rounds down); the map is correct at load 1.0, only slow.
pub const DIRECTORY_SLOTS_PER_16: usize = 21;

/// The double-keyed map. See module docs.
#[derive(Debug, Clone)]
pub struct DoubleMap<V: DmapValue> {
    map_a: Map<V::KeyA>,
    slots: Vec<Option<V>>,
    size: usize,
}

impl<V: DmapValue + Clone> DoubleMap<V> {
    /// Preallocate `capacity` value slots and the A-key directory of
    /// `capacity * DIRECTORY_SLOTS_PER_16 / 16` probe positions (see
    /// [`DIRECTORY_SLOTS_PER_16`] for how the factor was chosen), in
    /// lines of four (see the `map` module docs): a directory probe
    /// compares four keys per line it reads.
    ///
    /// The directory keeps each slot index beside its key in
    /// [`crate::map::VALUE_BITS`] bits, so `capacity` may be at most
    /// `MAX_VALUE + 1` = 2^30 (the NAT caps it at 2^26).
    pub fn new(capacity: usize) -> DoubleMap<V> {
        assert!(capacity > 0, "dmap capacity must be non-zero");
        assert!(
            capacity - 1 <= crate::map::MAX_VALUE,
            "dmap capacity {capacity} has indices past the directory's value bits"
        );
        DoubleMap {
            map_a: Map::new(capacity * DIRECTORY_SLOTS_PER_16 / 16),
            slots: (0..capacity).map(|_| None).collect(),
            size: 0,
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slot count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Find the slot holding the value with A-key `ka`.
    pub fn get_by_a(&self, ka: &V::KeyA) -> Option<usize> {
        self.map_a.get(ka)
    }

    /// [`DoubleMap::get_by_a`] with a caller-computed hash
    /// (`hash == ka.key_hash()`), for hash memoization across a
    /// lookup→insert pair.
    pub fn get_by_a_with_hash(&self, ka: &V::KeyA, hash: u64) -> Option<usize> {
        self.map_a.get_with_hash(ka, hash)
    }

    /// Resolve B-key `kb` at the slot the caller's placement rule names
    /// for it: `Some(index)` iff slot `index` holds a value whose
    /// `key_b(index) == *kb`. The whole key is compared, and any `index` is
    /// accepted (out of range is a miss), so a wrong `index` can only
    /// miss — it never yields another value's slot.
    #[inline]
    pub fn get_by_b_at(&self, kb: &V::KeyB, index: usize) -> Option<usize> {
        (self.slots.get(index)?.as_ref()?.key_b(index) == *kb).then_some(index)
    }

    /// The A-key directory, read-only: what a burst probe stages
    /// ([`crate::map::get_staged`]) — across the directories of several
    /// double maps at once when a table is sharded. Its values are this
    /// map's slot indices; [`DoubleMap::get_by_a`] is one lookup in it.
    pub fn directory(&self) -> &Map<V::KeyA> {
        &self.map_a
    }

    /// Hint: prefetch value slot `index` ([`crate::prefetch`]) so a
    /// following [`DoubleMap::get`] or [`DoubleMap::get_by_b_at`] finds
    /// its line in cache. Changes nothing; any `index` is accepted (out
    /// of range prefetches nothing).
    #[inline]
    pub fn first_touch(&self, index: usize) {
        if let Some(slot) = self.slots.get(index) {
            crate::prefetch(slot);
        }
    }

    /// Read the value in slot `index`.
    pub fn get(&self, index: usize) -> Option<&V> {
        self.slots.get(index).and_then(|s| s.as_ref())
    }

    /// Change the value in slot `index` in place, returning what `f`
    /// returns (`None`, and `f` not called, for an empty or
    /// out-of-range slot). No directory is touched.
    ///
    /// Contract precondition (debug-asserted here, asserted by
    /// [`CheckedDmap`]): `f` leaves both keys as they were.
    #[inline]
    pub fn update<R>(&mut self, index: usize, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let value = self.slots.get_mut(index)?.as_mut()?;
        let keys = cfg!(debug_assertions).then(|| (value.key_a(), value.key_b(index)));
        let r = f(value);
        debug_assert!(
            keys.is_none_or(|keys| keys == (value.key_a(), value.key_b(index))),
            "dmap.update precondition: keys of slot {index} changed"
        );
        Some(r)
    }

    /// Store `value` in slot `index`.
    ///
    /// Contract preconditions (assumed here, asserted by
    /// [`CheckedDmap`]): the slot is empty and both keys are fresh.
    /// Returns [`Full`] if `index` is out of range or occupied, or the
    /// directory refuses the A-key — the defensive behaviour for the
    /// raw structure, which is left unchanged.
    pub fn put(&mut self, index: usize, value: V) -> Result<(), Full> {
        let ka_hash = value.key_a().key_hash();
        self.put_with_hash(index, value, ka_hash)
    }

    /// [`DoubleMap::put`] with a caller-computed A-key hash
    /// (`ka_hash == value.key_a().key_hash()`). VigNAT computes each
    /// `FlowId` hash once per packet: the miss that precedes an insert
    /// already hashed the A-key, and this entry point reuses it.
    pub fn put_with_hash(&mut self, index: usize, value: V, ka_hash: u64) -> Result<(), Full> {
        if index >= self.slots.len() || self.slots[index].is_some() {
            return Err(Full);
        }
        self.map_a.put_with_hash(value.key_a(), ka_hash, index)?;
        self.slots[index] = Some(value);
        self.size += 1;
        Ok(())
    }

    /// Empty slot `index`, removing its directory entry.
    ///
    /// Contract precondition: the slot is occupied. Returns `None` (no
    /// change) otherwise.
    pub fn erase(&mut self, index: usize) -> Option<V> {
        let value = self.slots.get_mut(index)?.take()?;
        self.map_a.erase(&value.key_a());
        self.size -= 1;
        Some(value)
    }

    /// Probe length of an A-key lookup in the directory (the number of
    /// probe positions the internal-key path traverses). Diagnostic
    /// twin of [`crate::map::Map::probe_len`], so the occupancy
    /// benchmarks and high-occupancy tests can observe directory
    /// pressure without reaching into the map.
    pub fn probe_len_by_a(&self, ka: &V::KeyA) -> usize {
        self.map_a.probe_len(ka)
    }

    /// Assert the directory's probe invariants
    /// ([`crate::map::Map::check_coherence`]).
    /// Test/diagnostic use; O(capacity).
    pub fn check_directory_coherence(&self) -> Result<(), String> {
        self.map_a
            .check_coherence()
            .map_err(|e| format!("directory: {e}"))
    }

    /// Iterate over `(index, value)` pairs. For contracts/tests only.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }
}

// ---------------------------------------------------------------------------
// Abstract model and contracts
// ---------------------------------------------------------------------------

/// Abstract double map: the slot partial-map plus the two derived
/// directories, kept as association lists. Analog of Vigor's `dmappingp`.
/// The B list has no counterpart in [`DoubleMap`]: it is the
/// *specification* of a B-key lookup, which [`CheckedDmap::get_by_b_at`]
/// holds the index-addressed implementation to.
#[derive(Debug, Clone)]
pub struct AbstractDmap<V: DmapValue + Clone> {
    slots: Vec<Option<V>>,
    dir_a: AbstractMap<V::KeyA>,
    dir_b: AbstractMap<V::KeyB>,
}

impl<V: DmapValue + Clone> AbstractDmap<V> {
    /// Empty model with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        AbstractDmap {
            slots: (0..capacity).map(|_| None).collect(),
            dir_a: AbstractMap::new(capacity),
            dir_b: AbstractMap::new(capacity),
        }
    }

    /// Lookup by A-key.
    pub fn get_by_a(&self, ka: &V::KeyA) -> Option<usize> {
        self.dir_a.get(ka)
    }

    /// Lookup by B-key.
    pub fn get_by_b(&self, kb: &V::KeyB) -> Option<usize> {
        self.dir_b.get(kb)
    }

    /// Slot read.
    pub fn get(&self, index: usize) -> Option<&V> {
        self.slots.get(index).and_then(|s| s.as_ref())
    }

    /// Occupied count.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Model `put` (preconditions already validated by caller).
    pub fn put(&mut self, index: usize, value: V) {
        self.dir_a.put(value.key_a(), index);
        self.dir_b.put(value.key_b(index), index);
        self.slots[index] = Some(value);
    }

    /// Model `erase`.
    pub fn erase(&mut self, index: usize) -> Option<V> {
        let v = self.slots.get_mut(index)?.take()?;
        self.dir_a.erase(&v.key_a());
        self.dir_b.erase(&v.key_b(index));
        Some(v)
    }

    /// Model `update` (preconditions already validated by caller: the
    /// directories, being keyed, do not move).
    pub fn update(&mut self, index: usize, value: V) {
        self.slots[index] = Some(value);
    }
}

/// Implementation + model in lockstep with contract assertions (P3).
#[derive(Debug, Clone)]
pub struct CheckedDmap<V: DmapValue + Clone + PartialEq + core::fmt::Debug> {
    imp: DoubleMap<V>,
    model: AbstractDmap<V>,
}

impl<V: DmapValue + Clone + PartialEq + core::fmt::Debug> CheckedDmap<V> {
    /// Preallocate, like [`DoubleMap::new`].
    pub fn new(capacity: usize) -> Self {
        CheckedDmap {
            imp: DoubleMap::new(capacity),
            model: AbstractDmap::new(capacity),
        }
    }

    /// Contract-checked `put`.
    pub fn put(&mut self, index: usize, value: V) -> Result<(), Full> {
        assert!(
            index < self.imp.capacity(),
            "dmap.put precondition: index in range"
        );
        assert!(
            self.model.get(index).is_none(),
            "dmap.put precondition: slot empty"
        );
        assert!(
            self.model.get_by_a(&value.key_a()).is_none(),
            "dmap.put precondition: A-key fresh"
        );
        assert!(
            self.model.get_by_b(&value.key_b(index)).is_none(),
            "dmap.put precondition: B-key fresh"
        );
        let r = self.imp.put(index, value.clone());
        assert!(r.is_ok(), "put with satisfied preconditions must succeed");
        self.model.put(index, value);
        self.check_equiv();
        r
    }

    /// Contract-checked `update`: the slot is occupied and `f` changes
    /// neither key, so both directories still describe the slots.
    pub fn update<R>(&mut self, index: usize, f: impl FnOnce(&mut V) -> R) -> R {
        let old = self
            .model
            .get(index)
            .expect("dmap.update precondition: slot occupied")
            .clone();
        let r = self
            .imp
            .update(index, f)
            .expect("update of an occupied slot must reach its value");
        let new = self
            .imp
            .get(index)
            .expect("update emptied the slot")
            .clone();
        assert!(
            old.key_a() == new.key_a(),
            "dmap.update precondition: A-key unchanged"
        );
        assert!(
            old.key_b(index) == new.key_b(index),
            "dmap.update precondition: B-key unchanged"
        );
        self.model.update(index, new);
        self.check_equiv();
        r
    }

    /// Contract-checked `erase`.
    pub fn erase(&mut self, index: usize) -> Option<V> {
        let got = self.imp.erase(index);
        let spec = self.model.erase(index);
        assert_eq!(got, spec, "dmap.erase diverged from model");
        self.check_equiv();
        got
    }

    /// Contract-checked A-key lookup.
    pub fn get_by_a(&self, ka: &V::KeyA) -> Option<usize> {
        let got = self.imp.get_by_a(ka);
        assert_eq!(got, self.model.get_by_a(ka), "get_by_a diverged");
        got
    }

    /// Contract-checked hashed A-key lookup (adds the memoized-hash
    /// precondition `hash == ka.key_hash()`).
    pub fn get_by_a_with_hash(&self, ka: &V::KeyA, hash: u64) -> Option<usize> {
        assert_eq!(
            hash,
            ka.key_hash(),
            "get_by_a_with_hash precondition: stale hash"
        );
        let got = self.imp.get_by_a_with_hash(ka, hash);
        assert_eq!(got, self.model.get_by_a(ka), "get_by_a_with_hash diverged");
        got
    }

    /// Contract-checked B-key lookup at the slot the caller names.
    ///
    /// Precondition (the caller's placement rule): if the model stores
    /// `kb` at all, it stores it at `index`. Given that, the result must
    /// equal the model's `get_by_b(kb)` — the unique slot holding the
    /// key — so index addressing refines the directory lookup it
    /// replaced.
    pub fn get_by_b_at(&self, kb: &V::KeyB, index: usize) -> Option<usize> {
        let spec = self.model.get_by_b(kb);
        assert!(
            spec.is_none_or(|at| at == index),
            "get_by_b_at precondition: {kb:?} is stored at {spec:?}, caller named slot {index}"
        );
        let got = self.imp.get_by_b_at(kb, index);
        assert_eq!(got, spec, "get_by_b_at diverged");
        got
    }

    /// Contract-checked batch lookup: must equal element-wise
    /// `get_by_a` against the model (batching is a pure optimization).
    pub fn lookup_batch(&self, keys: &[V::KeyA], hashes: &[u64]) -> Vec<Option<usize>> {
        for (k, &h) in keys.iter().zip(hashes) {
            assert_eq!(h, k.key_hash(), "lookup_batch precondition: stale hash");
        }
        let mut got = Vec::new();
        self.imp
            .directory()
            .get_batch_with_hash(keys, hashes, &mut got);
        assert_eq!(got.len(), keys.len(), "lookup_batch result count mismatch");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                got[i],
                self.model.get_by_a(k),
                "lookup_batch diverged from abstract model at query {i}"
            );
        }
        got
    }

    /// Contract-checked `put_with_hash` (the `put` contract plus the
    /// memoized-hash precondition on the A-key).
    pub fn put_with_hash(&mut self, index: usize, value: V, ka_hash: u64) -> Result<(), Full> {
        assert_eq!(
            ka_hash,
            value.key_a().key_hash(),
            "put_with_hash precondition: stale A-key hash"
        );
        self.put(index, value)
    }

    /// Contract-checked slot read.
    pub fn get(&self, index: usize) -> Option<&V> {
        let got = self.imp.get(index);
        assert_eq!(got, self.model.get(index), "get diverged");
        got
    }

    /// Access the underlying implementation.
    pub fn raw(&self) -> &DoubleMap<V> {
        &self.imp
    }

    /// Full refinement + coherence check: slots agree, every stored
    /// value is reachable by both keys (Vigor's `vk1`/`vk2` coherence —
    /// the A-key through the directory, the B-key at its own slot), and
    /// the directory's probe invariants hold.
    pub fn check_equiv(&self) {
        assert_eq!(self.imp.size(), self.model.len(), "size mismatch");
        self.imp
            .check_directory_coherence()
            .unwrap_or_else(|e| panic!("dmap directory incoherent: {e}"));
        for i in 0..self.imp.capacity() {
            assert_eq!(self.imp.get(i), self.model.get(i), "slot {i} mismatch");
            if let Some(v) = self.imp.get(i) {
                assert_eq!(
                    self.get_by_a(&v.key_a()),
                    Some(i),
                    "directory incoherent at {i}"
                );
                assert_eq!(
                    self.get_by_b_at(&v.key_b(i), i),
                    Some(i),
                    "B-key incoherent at {i}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A toy two-key value: `a` and `b` are the keys.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Pair {
        a: u64,
        b: u64,
        payload: u32,
    }

    impl DmapValue for Pair {
        type KeyA = u64;
        type KeyB = u64;

        fn key_a(&self) -> u64 {
            self.a
        }
        fn key_b(&self, _index: usize) -> u64 {
            self.b
        }
    }

    fn pair(a: u64, b: u64) -> Pair {
        Pair {
            a,
            b,
            payload: (a * 1000 + b) as u32,
        }
    }

    /// The tests' placement rule: B-key `b` names slot `b % capacity`
    /// (VigNAT's is `ext_port - start_port`).
    fn slot_of_b(b: u64, capacity: usize) -> usize {
        (b % capacity as u64) as usize
    }

    #[test]
    fn both_directions_find_the_same_slot() {
        let mut d = CheckedDmap::new(4);
        d.put(2, pair(10, 22)).unwrap();
        assert_eq!(d.get_by_a(&10), Some(2));
        assert_eq!(d.get_by_b_at(&22, 2), Some(2));
        assert_eq!(d.get(2), Some(&pair(10, 22)));
        assert_eq!(d.get_by_a(&22), None, "keys are per-direction");
        assert_eq!(d.get_by_b_at(&10, 2), None, "keys are per-direction");
        // Another key that names the same slot, a free slot, no slot.
        assert_eq!(d.get_by_b_at(&26, 2), None);
        assert_eq!(d.get_by_b_at(&23, 3), None);
        assert_eq!(d.get_by_b_at(&23, 99), None);
    }

    #[test]
    fn erase_clears_both_directories() {
        let mut d = CheckedDmap::new(4);
        d.put(0, pair(1, 4)).unwrap();
        assert_eq!(d.erase(0), Some(pair(1, 4)));
        assert_eq!(d.get_by_a(&1), None);
        assert_eq!(d.get_by_b_at(&4, 0), None);
        assert_eq!(d.get(0), None);
    }

    #[test]
    fn slot_reuse_after_erase() {
        let mut d = CheckedDmap::new(2);
        d.put(1, pair(1, 3)).unwrap();
        d.erase(1);
        d.put(1, pair(3, 5)).unwrap();
        assert_eq!(d.get_by_a(&3), Some(1));
        assert_eq!(d.get_by_a(&1), None);
        assert_eq!(d.get_by_b_at(&5, 1), Some(1));
        assert_eq!(d.get_by_b_at(&3, 1), None, "the slot's previous B-key");
    }

    #[test]
    fn update_changes_the_value_and_no_lookup() {
        let mut d = CheckedDmap::new(4);
        d.put(2, pair(10, 22)).unwrap();
        assert_eq!(
            d.update(2, |v| std::mem::replace(&mut v.payload, 7)),
            10_022
        );
        assert_eq!(d.get(2).map(|v| v.payload), Some(7));
        assert_eq!(d.get_by_a(&10), Some(2));
        assert_eq!(d.get_by_b_at(&22, 2), Some(2));
        // The raw structure reports an empty or out-of-range slot.
        let mut raw = d.raw().clone();
        assert_eq!(raw.update(1, |v| v.payload), None);
        assert_eq!(raw.update(99, |v| v.payload), None);
    }

    #[test]
    #[should_panic(expected = "dmap.update precondition")]
    fn update_that_changes_a_key_violates_contract() {
        let mut d = CheckedDmap::new(4);
        d.put(2, pair(10, 22)).unwrap();
        d.update(2, |v| v.b = 26);
    }

    /// The raw structure compares the whole key at whatever slot it is
    /// given, so a caller that names the wrong slot of a stored key only
    /// misses; the contract layer calls that caller out.
    #[test]
    #[should_panic(expected = "get_by_b_at precondition")]
    fn naming_the_wrong_slot_of_a_stored_key_violates_contract() {
        let mut d = CheckedDmap::new(4);
        d.put(2, pair(10, 22)).unwrap();
        assert_eq!(d.raw().get_by_b_at(&22, 1), None);
        let _ = d.get_by_b_at(&22, 1);
    }

    #[test]
    #[should_panic(expected = "slot empty")]
    fn double_put_same_slot_violates_contract() {
        let mut d = CheckedDmap::new(2);
        d.put(0, pair(1, 2)).unwrap();
        let _ = d.put(0, pair(3, 4));
    }

    #[test]
    #[should_panic(expected = "A-key fresh")]
    fn duplicate_a_key_violates_contract() {
        let mut d = CheckedDmap::new(2);
        d.put(0, pair(1, 2)).unwrap();
        let _ = d.put(1, pair(1, 9));
    }

    #[test]
    #[should_panic(expected = "past the directory's value bits")]
    fn capacity_past_the_directory_value_bits_is_rejected_at_construction() {
        // The assert fires before anything is allocated.
        let _ = DoubleMap::<Pair>::new(crate::map::MAX_VALUE + 2);
    }

    #[test]
    fn raw_put_occupied_slot_is_rejected() {
        let mut d: DoubleMap<Pair> = DoubleMap::new(2);
        d.put(0, pair(1, 2)).unwrap();
        assert_eq!(d.put(0, pair(3, 4)), Err(Full));
        assert_eq!(d.get_by_a(&1), Some(0), "failed put must not disturb state");
        assert_eq!(d.get_by_a(&3), None);
    }

    #[test]
    fn raw_erase_empty_slot_is_none() {
        let mut d: DoubleMap<Pair> = DoubleMap::new(2);
        assert_eq!(d.erase(0), None);
        assert_eq!(d.erase(99), None);
    }

    #[test]
    fn hashed_lookups_and_put_match_plain_ones() {
        use crate::map::MapKey;
        let mut d = CheckedDmap::new(8);
        for i in 0..6u64 {
            let v = pair(i, 100 + i);
            let h = v.key_a().key_hash();
            d.put_with_hash(slot_of_b(100 + i, 8), v, h).unwrap();
        }
        for i in 0..8u64 {
            assert_eq!(d.get_by_a_with_hash(&i, i.key_hash()), d.get_by_a(&i));
            let b = 100 + i;
            assert_eq!(d.get_by_b_at(&b, slot_of_b(b, 8)), d.get_by_a(&i));
        }
    }

    #[test]
    fn lookup_batch_equals_sequential() {
        use crate::map::MapKey;
        let mut d = CheckedDmap::new(8);
        for i in 0..5u64 {
            d.put(i as usize, pair(i * 2, 48 + i)).unwrap();
        }
        let queries: Vec<u64> = (0..12).collect();
        let hashes: Vec<u64> = queries.iter().map(|k| k.key_hash()).collect();
        let batch = d.lookup_batch(&queries, &hashes);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i], d.get_by_a(q), "query {i} diverged");
        }
        assert_eq!(batch.iter().flatten().count(), 5);
    }

    #[test]
    fn first_touch_changes_nothing_and_accepts_any_index() {
        let mut d: DoubleMap<Pair> = DoubleMap::new(4);
        d.put(1, pair(10, 21)).unwrap();
        d.put(3, pair(11, 23)).unwrap();
        let before: Vec<(usize, Pair)> = d.iter().map(|(i, v)| (i, v.clone())).collect();
        for i in [0, 1, 3, 4, 5, usize::MAX] {
            d.first_touch(i);
        }
        let after: Vec<(usize, Pair)> = d.iter().map(|(i, v)| (i, v.clone())).collect();
        assert_eq!(before, after);
        assert_eq!(d.get_by_a(&10), Some(1));
        assert_eq!(d.get_by_b_at(&23, 3), Some(3));
        d.check_directory_coherence().unwrap();
    }

    /// The directory load factor, observed: a NAT flow table filled to
    /// 100 % and then churned through four times its capacity, as
    /// expiry and new flows churn it, keeps miss probes bounded. The
    /// map's erase shifts each cluster back, so every miss stops at the
    /// first free position and the churned directory probes as one
    /// freshly built from its live flows would. Measured at
    /// `DIRECTORY_SLOTS_PER_16 = 21` (load 0.76) with this seed: mean
    /// 10.1 positions, maximum 127; the bounds are about twice that.
    /// While
    /// the map kept libVig's probe-chain counters, a free position
    /// stopped a miss only once no chain crossed it, and the same run
    /// read mean 98.9 and maximum 664 (at the 17/16 directory before
    /// that, load 0.94, every miss walked the whole directory, 34,814
    /// positions).
    ///
    /// The external-key directory this test also bounded (mean 89.2,
    /// maximum 920 on the same run) no longer exists: a B-key miss is
    /// one comparison at the slot the key names, whatever the churn.
    #[test]
    fn churned_full_flow_table_keeps_miss_probes_bounded() {
        use vig_packet::{ExtKey, Flow, FlowId, Ip4, Proto};
        const CAPACITY: usize = 32_767;
        // The n-th flow ever created: distinct A-keys by construction,
        // B-keys distinct among live flows because `ext_port` names
        // the slot.
        let flow = |n: u32, slot: usize| Flow {
            int_key: FlowId {
                src_ip: Ip4(0x0a00_0000 + n),
                src_port: (n.key_hash() >> 16) as u16,
                dst_ip: Ip4(0x0808_0000 + (n.key_hash() as u32 & 0xffff)),
                dst_port: 443,
                proto: if n.is_multiple_of(3) {
                    Proto::Udp
                } else {
                    Proto::Tcp
                },
            },
            ext_ip: Ip4::new(198, 51, 100, 1),
            ext_port: 1024 + slot as u16,
        };
        let mut table: DoubleMap<Flow> = DoubleMap::new(CAPACITY);
        let mut created = 0u32;
        for slot in 0..CAPACITY {
            table.put(slot, flow(created, slot)).unwrap();
            created += 1;
        }
        let mut seed = 0x5eed_u64;
        for _ in 0..4 * CAPACITY {
            seed = seed.key_hash();
            let slot = (seed % CAPACITY as u64) as usize;
            assert!(table.erase(slot).is_some());
            table.put(slot, flow(created, slot)).unwrap();
            created += 1;
        }
        assert_eq!(table.size(), CAPACITY);

        // Keys no flow ever had: sources outside 10/8, a pool address
        // the table never allocated from.
        let lens: Vec<usize> = (0..4096u32)
            .map(|n| {
                let foreign = flow(n, n as usize);
                let ka = FlowId {
                    src_ip: Ip4(0xac10_0000 + n),
                    ..foreign.int_key
                };
                let kb = ExtKey {
                    ext_ip: Ip4::new(203, 0, 113, 7),
                    ..foreign.ext_key()
                };
                assert_eq!(table.get_by_a(&ka), None);
                assert_eq!(table.get_by_b_at(&kb, n as usize), None);
                table.probe_len_by_a(&ka)
            })
            .collect();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        let max = lens.into_iter().max().unwrap();
        assert!(
            mean <= 20.5 && max <= 256,
            "directory: miss probe_len mean {mean:.1}, max {max}"
        );
        table.check_directory_coherence().unwrap();
    }

    proptest! {
        /// Random legal op sequences keep impl == model and both ways
        /// in coherent with the slots. B-keys are placed by
        /// [`slot_of_b`]: three of them name each slot, so a reused
        /// slot is asked for its previous tenants' keys too.
        #[test]
        fn random_ops_refine_model(
            ops in proptest::collection::vec((0u8..4, 0usize..4, 0u64..6, 0u64..12), 0..120),
        ) {
            let mut d = CheckedDmap::new(4);
            for (kind, idx, a, b) in ops {
                match kind {
                    0 => {
                        // legal put only, at the slot the B-key names
                        let at = slot_of_b(b, 4);
                        if d.get(at).is_none() && d.get_by_a(&a).is_none() {
                            d.put(at, pair(a, b)).unwrap();
                        }
                    }
                    1 => { d.erase(idx); }
                    2 => {
                        if d.get(idx).is_some() {
                            d.update(idx, |v| v.payload = v.payload.wrapping_add(b as u32));
                        }
                    }
                    _ => {
                        d.get_by_a(&a);
                        d.get_by_b_at(&b, slot_of_b(b, 4));
                        d.get(idx);
                    }
                }
            }
        }
    }
}
