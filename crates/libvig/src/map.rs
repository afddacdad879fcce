//! The verified open-addressing hash map.
//!
//! This is the algorithm of Vigor's `map.c`, the structure whose formal
//! contract the paper contrasts with DPDK's separate-chaining table (§6):
//! linear probing over preallocated arrays, without tombstones. libVig
//! keeps a probe-chain counter per slot so that a free slot stops a miss
//! only when no stored key's probe path crosses it; under churn those
//! counters make the probe length depend on the table's history. This
//! map deletes by **backward shift** instead (Knuth's Algorithm R):
//! `erase` moves every later entry of the cluster whose probe start does
//! not lie between the hole and the entry back into the hole, so no
//! probe path ever crosses a free slot. Every probe stops at the first
//! free slot, and the table after an erase is a table the erased key
//! never entered: which slots are busy, and how far each key sits from
//! its start, depend on the live keys alone. The price — and the effect
//! the paper's Fig. 12 shows at ~full occupancy — is that probe
//! sequences grow as the table fills.
//!
//! The map stores `usize` values ("indices" in Vigor parlance) because
//! libVig's composite structures ([`crate::dmap::DoubleMap`]) keep the
//! real values in a separate preallocated slot array and use a map
//! purely as a key → slot directory.
//!
//! ## Memory layout: whole cache lines
//!
//! The table is a **single allocation** of 64-byte-aligned lines, four
//! slots to a line: position `p` is lane `p % 4` of line `p / 4`, and a
//! capacity that is not a multiple of four leaves a short last line
//! whose padding lanes no probe reaches. A slot is one 16-byte word:
//! the key's exact bits ([`MapKey::to_bits`], at most [`KEY_BITS`] = 97
//! — a `FlowId` is two addresses, two ports and one TCP/UDP bit) above
//! a busy bit and a [`VALUE_BITS`] = 30-bit value.
//!
//! A probe starts on the line its home position `hash % capacity` falls
//! in — at the home rounded down to a multiple of four — so the first
//! line it reads holds four whole keys to compare, and at the flow
//! table's load it is usually the only line the probe reads. Nothing
//! lives beside the slots: the table stores no hash and no tag, so a
//! lookup's first load is its start line, and at 21/16 positions per
//! flow the flow table's directory costs 21.0 bytes per flow
//! ([`crate::dmap::DIRECTORY_SLOTS_PER_16`]).
//!
//! **Busy in the slot.** A free slot is the zero word, and every busy
//! slot has its busy bit set, so no key — the all-zero key included —
//! stores as a free word. A probe packs its query once, busy bit
//! included, and compares each slot with it as two machine words: a
//! free slot never matches, and the first free slot stops the probe.
//!
//! The scalar probe survives as `*_scalar` reference functions, built
//! only for this crate's tests: they walk one position at a time with
//! `(start + i) % capacity`, unpack each busy slot's key and compare
//! with `Eq`, and the differential suites (module tests,
//! `libvig::exhaustive`) keep the line walk's results and probe lengths
//! equal to theirs and to the abstract model's. [`Map::check_coherence`]
//! asserts what the stop rule rests on: no free slot lies on a stored
//! key's probe path.
//!
//! ## Batched lookups
//!
//! [`Map::get_with_hash`] / [`Map::put_with_hash`] accept a caller-
//! computed hash so composite structures can hash a key **once** and
//! reuse it across several probes (VigNAT: lookup miss → insert reuses
//! the same `FlowId` hash). [`Map::get_batch_with_hash`] resolves a
//! burst of keys in two stages, each issued for a whole chunk of keys
//! before the next begins: compute every probe start and prefetch its
//! start line; then compare on the warmed lines. The prefetches of the
//! first stage do not depend on each other, so their misses overlap in
//! the memory system instead of serializing one lookup at a time
//! (memory-level parallelism) — which is what makes the burst path's
//! flow-table cost sublinear in burst size on large tables, for new
//! flows as for established ones: a miss's start line is the line an
//! insert of the key then writes, unless the probe spills past it. The
//! hints are prefetch instructions ([`crate::prefetch`]), not loads:
//! they change no state, and a prefetch retires without waiting for its
//! line, where a load that misses holds up every instruction behind it.
//! The stages are [`get_staged`], which takes its queries by position
//! and lets each name its own map, so one pass over a burst serves
//! every shard of a partitioned table — the misses of different shards
//! overlap as those of one map do — and writes nothing but results.
//!
//! ## Contract summary (paper Fig. 8 analog)
//!
//! Writing `m` for the abstract association list [`AbstractMap`]:
//!
//! * `get(k)`  — requires nothing; ensures result = `m.get(k)` and `m`
//!   unchanged.
//! * `put(k,v)` — requires `m.get(k) == None`, `m.len() < cap` and
//!   `v <= MAX_VALUE` (`v < 2^30`); ensures post-state `m + [(k,v)]`.
//! * `erase(k)` — requires `m.get(k) != None`; ensures post-state
//!   `m - k` and result = old `m.get(k)`.
//! * `size()` — ensures result = `m.len()`.
//!
//! [`CheckedMap`] enforces exactly these, running the implementation and
//! the model in lockstep (refinement shadowing, property P3).

use crate::Full;
use core::marker::PhantomData;

/// Key requirements for the verified map: equality, a caller-supplied
/// hash and an exact packing. libVig keys carry their own hash function
/// (`map_key_hash` in the C code) instead of going through a generic
/// hasher framework, so probing behaviour is fully determined by the
/// key type. The map stores a key as its packed bits and compares keys
/// by them, so `a.to_bits() == b.to_bits()` must hold exactly when
/// `a == b`, and `from_bits(k.to_bits()) == k` ([`CheckedMap`] asserts
/// the round trip and the width on every key it stores).
pub trait MapKey: Eq + Clone {
    /// A well-distributed 64-bit hash of the key.
    fn key_hash(&self) -> u64;
    /// The key's exact bits, in the low [`KEY_BITS`] bits; the rest are
    /// zero.
    fn to_bits(&self) -> u128;
    /// The key whose [`MapKey::to_bits`] is `bits`.
    fn from_bits(bits: u128) -> Self;
}

impl MapKey for u64 {
    fn key_hash(&self) -> u64 {
        // SplitMix64: cheap and well distributed, good enough for tests
        // and for port-indexed keys.
        let mut z = self.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn to_bits(&self) -> u128 {
        u128::from(*self)
    }
    fn from_bits(bits: u128) -> u64 {
        bits as u64
    }
}

impl MapKey for u32 {
    fn key_hash(&self) -> u64 {
        (u64::from(*self)).key_hash()
    }
    fn to_bits(&self) -> u128 {
        u128::from(*self)
    }
    fn from_bits(bits: u128) -> u32 {
        bits as u32
    }
}

impl MapKey for u16 {
    fn key_hash(&self) -> u64 {
        (u64::from(*self)).key_hash()
    }
    fn to_bits(&self) -> u128 {
        u128::from(*self)
    }
    fn from_bits(bits: u128) -> u16 {
        bits as u16
    }
}

/// Bits a key may pack into ([`MapKey::to_bits`]): a `FlowId` or an
/// `ExtKey` is 32 + 32 + 16 + 16 + 1.
pub const KEY_BITS: u32 = 97;
/// Bits a slot keeps for its value: what a 128-bit slot has left beside
/// the key and the busy bit.
pub const VALUE_BITS: u32 = 128 - KEY_BITS - 1;
/// The largest value [`Map::put`] accepts, 2^30 − 1.
pub const MAX_VALUE: usize = (1 << VALUE_BITS) - 1;
/// The value's bits within a slot.
const VALUE_MASK: u128 = (1 << VALUE_BITS) - 1;
/// The busy bit, between the value and the key: set in every busy slot.
const BUSY: u128 = 1 << VALUE_BITS;
/// Where a slot keeps the key's bits.
const KEY_SHIFT: u32 = VALUE_BITS + 1;
/// Slots per 64-byte line.
const LANES: usize = 4;
/// Queries a staged probe issues each stage for at once (one RX burst):
/// [`get_staged`] takes at most this many.
pub const BATCH_CHUNK: usize = 32;

/// One probe position of the table: a key's bits above the busy bit
/// and the value, in one 16-byte word; the zero word when free (see the
/// module docs).
#[derive(Debug, Clone, Copy, Default)]
struct Slot(u128);

impl Slot {
    /// The busy slot holding the key `packed` was made from and `value`.
    #[inline(always)]
    fn new(packed: u128, value: usize) -> Slot {
        Slot(packed | (value as u128 & VALUE_MASK))
    }

    /// Whether the slot is free: the zero word.
    #[inline(always)]
    fn is_free(self) -> bool {
        self.0 == 0
    }

    /// The stored value.
    #[inline(always)]
    fn value(self) -> usize {
        (self.0 & VALUE_MASK) as usize
    }

    /// The stored key, unpacked.
    #[inline(always)]
    fn key<K: MapKey>(self) -> K {
        K::from_bits(self.0 >> KEY_SHIFT)
    }

    /// Whether the slot is busy with the key `packed` was made from: the
    /// two words compared, the value's bits masked off. A free slot never
    /// is: `packed` carries the busy bit.
    #[inline(always)]
    fn holds(self, packed: u128) -> bool {
        self.0 & !VALUE_MASK == packed
    }
}

/// `key`'s bits where a slot keeps them, above the busy bit, which is
/// set: a probe packs its query once and compares every slot with it.
#[inline(always)]
fn pack<K: MapKey>(key: &K) -> u128 {
    (key.to_bits() << KEY_SHIFT) | BUSY
}

/// Four slots on one 64-byte line: the unit a probe starts on and a
/// staged probe prefetches.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct Line([Slot; LANES]);

/// Where a probe stopped (see [`Map::probe`]). `dist` is the 0-based
/// probe distance — the scalar walk's `i` — so `dist + 1` slots were
/// inspected.
enum ProbeOutcome {
    /// The key was found in slot `idx`.
    Hit { idx: usize, dist: usize },
    /// A free slot proves the key absent: no stored key's probe path
    /// crosses one (`erase` shifts the cluster back).
    MissStop { dist: usize },
    /// The whole table was scanned without a stopping condition.
    Scanned,
}

/// The verified open-addressing map. See the module docs for the
/// algorithm, contract, and memory layout.
#[derive(Debug, Clone)]
pub struct Map<K: MapKey> {
    /// The slots, four to a line; lanes past `capacity` in the last line
    /// stay free and off every probe path.
    lines: Vec<Line>,
    size: usize,
    capacity: usize,
    /// The slots hold `K`s, packed.
    key: PhantomData<K>,
}

impl<K: MapKey> Map<K> {
    /// Preallocate a map for up to `capacity` entries. `capacity` must be
    /// non-zero (libVig asserts the same in `map_allocate`).
    pub fn new(capacity: usize) -> Map<K> {
        assert!(capacity > 0, "map capacity must be non-zero");
        Map {
            lines: vec![Line::default(); capacity.div_ceil(LANES)],
            size: 0,
            capacity,
            key: PhantomData,
        }
    }

    /// Slot `pos`.
    #[inline(always)]
    fn slot(&self, pos: usize) -> Slot {
        self.lines[pos / LANES].0[pos % LANES]
    }

    /// Slot `pos`, to write.
    #[inline(always)]
    fn slot_mut(&mut self, pos: usize) -> &mut Slot {
        &mut self.lines[pos / LANES].0[pos % LANES]
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored entries.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True when no more entries fit.
    pub fn is_full(&self) -> bool {
        self.size == self.capacity
    }

    /// First slot of `hash`'s probe sequence: the home slot
    /// (`hash % capacity`) rounded **down to its line**, so a probe's
    /// first line is whole, wherever its home falls in it. The start
    /// moves at most three slots back and stays in range.
    ///
    /// Every operation — the line walk, the `*_scalar` reference probes,
    /// insert's free-slot search and erase's backward shift — derives
    /// its probe sequence from this one function, so line walk ≡ scalar
    /// walk (asserted by `CheckedMap` and the differential suites) holds
    /// by construction.
    fn start_of(&self, hash: u64) -> usize {
        let home = (hash % self.capacity as u64) as usize;
        home - home % LANES
    }

    /// The probe position after `pos`, wrapping at the table end — the
    /// scalar walk's `(start + i) % capacity` without the division.
    #[inline(always)]
    fn next_pos(&self, pos: usize) -> usize {
        if pos + 1 == self.capacity {
            0
        } else {
            pos + 1
        }
    }

    /// Look up `key`, returning the stored value if present.
    ///
    /// Probes linearly from the hash slot and stops at the first free
    /// slot, which is what makes misses cheap at low occupancy and
    /// expensive near fullness.
    pub fn get(&self, key: &K) -> Option<usize> {
        self.get_with_hash(key, key.key_hash())
    }

    /// [`Map::get`] with a caller-computed hash.
    ///
    /// Contract precondition (checked by [`CheckedMap`], assumed here):
    /// `hash == key.key_hash()`. Callers that already hold the hash
    /// (hash memoization across a lookup→insert pair, or a batch pass)
    /// skip recomputing it.
    pub fn get_with_hash(&self, key: &K, hash: u64) -> Option<usize> {
        debug_assert_eq!(hash, key.key_hash(), "get_with_hash: stale hash");
        self.hit_value(self.probe(key, hash))
    }

    /// The value a probe that ended with `outcome` found.
    #[inline(always)]
    fn hit_value(&self, outcome: ProbeOutcome) -> Option<usize> {
        match outcome {
            ProbeOutcome::Hit { idx, .. } => Some(self.slot(idx).value()),
            _ => None,
        }
    }

    /// The scalar reference probe: [`Map::get_with_hash`] walked one
    /// position at a time with `(start + i) % capacity`: a free slot
    /// stops it, and a busy slot's key is unpacked and compared with
    /// `Eq`. The differential oracle for the line walk and its packed
    /// compare: the equivalence suites assert
    /// `get_with_hash == get_with_hash_scalar` on every state they
    /// construct.
    #[cfg(test)]
    fn get_with_hash_scalar(&self, key: &K, hash: u64) -> Option<usize> {
        debug_assert_eq!(hash, key.key_hash(), "get_with_hash_scalar: stale hash");
        let start = self.start_of(hash);
        for i in 0..self.capacity {
            let slot = self.slot((start + i) % self.capacity);
            if slot.is_free() {
                return None;
            }
            if slot.key::<K>() == *key {
                return Some(slot.value());
            }
        }
        None
    }

    /// Walk `key`'s probe sequence from `hash`'s start line, one line
    /// at a time, comparing each slot with the packed query: a slot
    /// holding the key is a hit, and the first free slot stops the walk
    /// as a miss. `dist` is the 0-based probe distance (the scalar
    /// loop's `i`) at the stopping position.
    #[inline]
    fn probe(&self, key: &K, hash: u64) -> ProbeOutcome {
        self.probe_at(key, hash, self.start_of(hash))
    }

    /// [`Map::probe`] from a start the caller already computed
    /// (`start == self.start_of(hash)`): the batch path computes the
    /// start in its first stage and pays its division once.
    ///
    /// The start is line-aligned and the walk wraps to position 0, so
    /// every line is walked from its first lane: the short last line is
    /// the only one clamped, and exactly `capacity` positions are
    /// walked in all.
    #[inline]
    fn probe_at(&self, key: &K, hash: u64, start: usize) -> ProbeOutcome {
        debug_assert_eq!(start, self.start_of(hash), "probe_at: stale start");
        let packed = pack(key);
        let mut base = start;
        let mut dist = 0;
        while dist < self.capacity {
            let lanes = LANES.min(self.capacity - base);
            for (lane, slot) in self.lines[base / LANES].0[..lanes].iter().enumerate() {
                if slot.holds(packed) {
                    return ProbeOutcome::Hit {
                        idx: base + lane,
                        dist: dist + lane,
                    };
                }
                if slot.is_free() {
                    return ProbeOutcome::MissStop { dist: dist + lane };
                }
            }
            dist += lanes;
            base = if base + lanes == self.capacity {
                0
            } else {
                base + lanes
            };
        }
        ProbeOutcome::Scanned
    }

    /// Resolve a burst of lookups, writing one result per query into
    /// `out` (appended in query order): [`get_staged`] over this one
    /// map, per chunk of [`BATCH_CHUNK`] keys. Results are exactly
    /// `get_with_hash` per query (the contract layer checks this).
    /// `hashes[i]` must equal `keys[i].key_hash()`.
    pub fn get_batch_with_hash(&self, keys: &[K], hashes: &[u64], out: &mut Vec<Option<usize>>) {
        assert_eq!(
            keys.len(),
            hashes.len(),
            "get_batch: keys/hashes length mismatch"
        );
        out.reserve(keys.len());
        for (keys, hashes) in keys.chunks(BATCH_CHUNK).zip(hashes.chunks(BATCH_CHUNK)) {
            get_staged(
                keys.len(),
                |i| Some((self, &keys[i], hashes[i])),
                |_, value| out.push(value),
            );
        }
    }

    /// Number of slots a lookup for `key` would inspect. Exposed for the
    /// occupancy microbenchmarks (DESIGN.md §7); not part of the libVig
    /// interface. Identical to the scalar reference walk's
    /// `probe_len_scalar` (asserted by the differential suites of this
    /// crate's tests).
    pub fn probe_len(&self, key: &K) -> usize {
        match self.probe(key, key.key_hash()) {
            ProbeOutcome::Hit { dist, .. } | ProbeOutcome::MissStop { dist } => dist + 1,
            ProbeOutcome::Scanned => self.capacity,
        }
    }

    /// Scalar reference for [`Map::probe_len`] (see
    /// `get_with_hash_scalar` for why the scalar walk is kept).
    #[cfg(test)]
    fn probe_len_scalar(&self, key: &K) -> usize {
        let start = self.start_of(key.key_hash());
        for i in 0..self.capacity {
            let slot = self.slot((start + i) % self.capacity);
            if slot.is_free() || slot.key::<K>() == *key {
                return i + 1;
            }
        }
        self.capacity
    }

    /// Tests only: the line walk's `get_with_hash` and `probe_len` of
    /// `key` equal the scalar reference walk's.
    #[cfg(test)]
    fn assert_matches_scalar(&self, key: &K)
    where
        K: core::fmt::Debug,
    {
        let h = key.key_hash();
        assert_eq!(
            self.get_with_hash(key, h),
            self.get_with_hash_scalar(key, h),
            "line walk diverged from the scalar reference for {key:?}"
        );
        assert_eq!(
            self.probe_len(key),
            self.probe_len_scalar(key),
            "probe_len diverged from the scalar reference for {key:?}"
        );
    }

    /// Insert `key -> value`.
    ///
    /// Contract precondition (checked by [`CheckedMap`], assumed here, as
    /// in the C code): `key` is not already present, and `value` is at
    /// most [`MAX_VALUE`] (it shares a slot with the key's 97 bits).
    /// Returns [`Full`] when the size is at capacity — fullness is
    /// interface behaviour, not a contract violation.
    pub fn put(&mut self, key: K, value: usize) -> Result<(), Full> {
        let hash = key.key_hash();
        self.put_with_hash(key, hash, value)
    }

    /// [`Map::put`] with a caller-computed hash (same contract, plus
    /// `hash == key.key_hash()`). The key takes the first free slot of
    /// its probe sequence, the slot where a probe for it would stop, and
    /// no other slot changes. A value above [`MAX_VALUE`] breaks the
    /// contract: it is stored modulo 2^30, and the key and busy bit stay
    /// intact.
    pub fn put_with_hash(&mut self, key: K, hash: u64, value: usize) -> Result<(), Full> {
        debug_assert_eq!(hash, key.key_hash(), "put_with_hash: stale hash");
        debug_assert!(
            value <= MAX_VALUE,
            "put_with_hash: value {value} > MAX_VALUE"
        );
        if self.size == self.capacity {
            return Err(Full);
        }
        // The key goes where a probe for it will stop; size < capacity
        // guarantees a free slot.
        let mut idx = self.start_of(hash);
        while !self.slot(idx).is_free() {
            idx = self.next_pos(idx);
        }
        *self.slot_mut(idx) = Slot::new(pack(&key), value);
        self.size += 1;
        Ok(())
    }

    /// Remove `key`, returning its value.
    ///
    /// Contract precondition: `key` is present. Returns `None` (and
    /// changes nothing) if it is not — the defensive behaviour keeps the
    /// raw structure total, and the contract layer flags the misuse.
    ///
    /// The freed slot is a hole in its cluster, and a probe stops at the
    /// first free slot, so the cluster shifts back (Knuth's Algorithm
    /// R): walking `j` forward to the first free slot, each entry whose
    /// probe start does not lie cyclically in `(hole, j]` — whose probe
    /// path crosses the hole — moves into the hole, and the hole moves
    /// to `j`. Each move brings an entry closer to its start, and the
    /// hole is free, so the walk ends. The slot stores no hash, so each
    /// entry walked past is unpacked and rehashed.
    pub fn erase(&mut self, key: &K) -> Option<usize> {
        let ProbeOutcome::Hit { idx, .. } = self.probe(key, key.key_hash()) else {
            return None;
        };
        let v = core::mem::take(self.slot_mut(idx)).value();
        self.size -= 1;
        let mut hole = idx;
        let mut j = self.next_pos(idx);
        while !self.slot(j).is_free() {
            let start = self.start_of(self.slot(j).key::<K>().key_hash());
            let stays = if hole <= j {
                hole < start && start <= j
            } else {
                hole < start || start <= j
            };
            if !stays {
                *self.slot_mut(hole) = core::mem::take(self.slot_mut(j));
                hole = j;
            }
            j = self.next_pos(j);
        }
        Some(v)
    }

    /// Assert the invariants the probe rests on: every busy slot has its
    /// busy bit set and its key — unpacked, the slot caches no hash —
    /// repacks to the bits the slot holds; the padding lanes past
    /// `capacity` in the last line are free; the busy slots number
    /// `size`; and no free slot lies between a stored key's probe start
    /// and its position (the linear-probing invariant a probe's stop
    /// rule rests on). Test/diagnostic use; O(capacity + total probe
    /// distance).
    pub fn check_coherence(&self) -> Result<(), String> {
        if self.lines.len() != self.capacity.div_ceil(LANES) {
            return Err(format!(
                "{} lines for capacity {}",
                self.lines.len(),
                self.capacity
            ));
        }
        let mut busy = 0;
        for idx in 0..self.capacity {
            let slot = self.slot(idx);
            if slot.is_free() {
                continue;
            }
            if slot.0 & BUSY == 0 {
                return Err(format!(
                    "slot {idx}: {:#x} is neither free nor busy",
                    slot.0
                ));
            }
            busy += 1;
            let key: K = slot.key();
            if !slot.holds(pack(&key)) {
                return Err(format!("slot {idx}: its key does not repack to its bits"));
            }
            let mut t = self.start_of(key.key_hash());
            while t != idx {
                if self.slot(t).is_free() {
                    return Err(format!(
                        "slot {idx}: free slot {t} lies on its key's probe path"
                    ));
                }
                t = self.next_pos(t);
            }
        }
        for pad in self.capacity..self.lines.len() * LANES {
            let slot = self.slot(pad);
            if !slot.is_free() {
                return Err(format!(
                    "padding lane {pad} past capacity holds {:#x}",
                    slot.0
                ));
            }
        }
        if busy != self.size {
            return Err(format!("{busy} busy slots for size {}", self.size));
        }
        Ok(())
    }

    /// Iterate over `(key, value)` pairs in slot order, each key
    /// unpacked from its slot. Not part of the libVig interface (the NF
    /// never scans the table); used by the contract layer and tests.
    pub fn iter(&self) -> impl Iterator<Item = (K, usize)> + '_ {
        (0..self.capacity)
            .map(|idx| self.slot(idx))
            .filter(|slot| !slot.is_free())
            .map(|slot| (slot.key(), slot.value()))
    }
}

/// The staged probe (module docs) of up to [`BATCH_CHUNK`] queries, each
/// of which may name a map of its own — the shards of a partitioned
/// table share one pass. `query(i)` is position `i`'s map, key and hash
/// (`hash == key.key_hash()`), or `None` where position `i` holds no
/// query; it is asked once per stage, so it must answer alike each time.
/// Stage 1 computes every probe start — once; the probe reuses it — and
/// prefetches its start line; stage 2 walks the probes from the warmed
/// lines, and `found(i, result)` receives each one in position order:
/// exactly that map's `get_with_hash`. [`Map::get_batch_with_hash`] is
/// the one-map case.
pub fn get_staged<'m, 'k, K: MapKey + 'm + 'k>(
    n: usize,
    query: impl Fn(usize) -> Option<(&'m Map<K>, &'k K, u64)>,
    mut found: impl FnMut(usize, Option<usize>),
) {
    assert!(
        n <= BATCH_CHUNK,
        "a staged probe takes {BATCH_CHUNK} queries, got {n}"
    );
    let mut starts = [0usize; BATCH_CHUNK];
    for (i, start) in starts[..n].iter_mut().enumerate() {
        if let Some((m, _, h)) = query(i) {
            *start = m.start_of(h);
            crate::prefetch(&m.lines[*start / LANES]);
        }
    }
    for (i, &start) in starts[..n].iter().enumerate() {
        if let Some((m, k, h)) = query(i) {
            debug_assert_eq!(h, k.key_hash(), "get_staged: stale hash");
            found(i, m.hit_value(m.probe_at(k, h, start)));
        }
    }
}

// ---------------------------------------------------------------------------
// Abstract model ("fixpoint" spec) and contracts
// ---------------------------------------------------------------------------

/// The abstract map: an association list, the direct analog of the
/// `mapp`/`mem`/`map_put_fp` fixpoints in Vigor's VeriFast spec. All
/// operations are obviously correct by inspection; the implementation is
/// verified *against* this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractMap<K: Eq + Clone> {
    entries: Vec<(K, usize)>,
    capacity: usize,
}

impl<K: Eq + Clone> AbstractMap<K> {
    /// Empty abstract map with the given capacity bound.
    pub fn new(capacity: usize) -> Self {
        AbstractMap {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Lookup by key.
    pub fn get(&self, key: &K) -> Option<usize> {
        self.entries.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Add an entry. Caller must have established `!contains(key)` and
    /// `len() < capacity` (the `put` contract precondition).
    pub fn put(&mut self, key: K, value: usize) {
        debug_assert!(!self.contains(&key));
        debug_assert!(self.entries.len() < self.capacity);
        self.entries.push((key, value));
    }

    /// Remove an entry, returning its value.
    pub fn erase(&mut self, key: &K) -> Option<usize> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.swap_remove(pos).1)
    }

    /// The entries as an unordered set (for equivalence checks).
    pub fn entries(&self) -> &[(K, usize)] {
        &self.entries
    }
}

/// The implementation and the abstract model in lockstep, asserting the
/// operation contracts on every call. This is the executable form of the
/// paper's P3 proof obligation for the map.
#[derive(Debug, Clone)]
pub struct CheckedMap<K: MapKey> {
    imp: Map<K>,
    model: AbstractMap<K>,
}

impl<K: MapKey + core::fmt::Debug> CheckedMap<K> {
    /// Preallocate, like [`Map::new`].
    pub fn new(capacity: usize) -> Self {
        CheckedMap {
            imp: Map::new(capacity),
            model: AbstractMap::new(capacity),
        }
    }

    /// Contract-checked `get`: checked against the abstract model and,
    /// in this crate's tests, the scalar reference probe (the line walk
    /// and its packed compare are pure probe optimizations, so hits and
    /// misses alike must agree byte for byte).
    pub fn get(&self, key: &K) -> Option<usize> {
        let got = self.imp.get(key);
        let spec = self.model.get(key);
        assert_eq!(got, spec, "map.get({key:?}) diverged from abstract model");
        #[cfg(test)]
        self.imp.assert_matches_scalar(key);
        got
    }

    /// Contract-checked `get_with_hash`: additionally asserts the
    /// memoized-hash precondition `hash == key.key_hash()`.
    pub fn get_with_hash(&self, key: &K, hash: u64) -> Option<usize> {
        assert_eq!(
            hash,
            key.key_hash(),
            "get_with_hash precondition: stale hash for {key:?}"
        );
        let got = self.imp.get_with_hash(key, hash);
        let spec = self.model.get(key);
        assert_eq!(
            got, spec,
            "map.get_with_hash({key:?}) diverged from abstract model"
        );
        got
    }

    /// Contract-checked batch lookup: the batch must equal element-wise
    /// `get` against the abstract model (batching is a pure optimization
    /// and may not change any result).
    pub fn get_batch_with_hash(&self, keys: &[K], hashes: &[u64]) -> Vec<Option<usize>> {
        for (k, &h) in keys.iter().zip(hashes) {
            assert_eq!(
                h,
                k.key_hash(),
                "get_batch precondition: stale hash for {k:?}"
            );
        }
        let mut got = Vec::new();
        self.imp.get_batch_with_hash(keys, hashes, &mut got);
        assert_eq!(got.len(), keys.len(), "batch result count mismatch");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                got[i],
                self.model.get(k),
                "map.get_batch_with_hash diverged from abstract model at query {i} ({k:?})"
            );
        }
        got
    }

    /// Contract-checked `put_with_hash` (the `put` contract plus the
    /// memoized-hash precondition).
    pub fn put_with_hash(&mut self, key: K, hash: u64, value: usize) -> Result<(), Full> {
        assert_eq!(
            hash,
            key.key_hash(),
            "put_with_hash precondition: stale hash for {key:?}"
        );
        self.put(key, value)
    }

    /// Contract-checked `put`. Panics on contract violation (duplicate
    /// key, a value above [`MAX_VALUE`], or a key type whose packing is
    /// not exact); propagates [`Full`].
    pub fn put(&mut self, key: K, value: usize) -> Result<(), Full> {
        let dup = self.model.contains(&key);
        assert!(
            !dup,
            "map.put precondition violated: key {key:?} already present"
        );
        assert!(
            value <= MAX_VALUE,
            "map.put precondition violated: value {value} does not fit {VALUE_BITS} bits"
        );
        let bits = key.to_bits();
        assert!(
            bits >> KEY_BITS == 0 && K::from_bits(bits) == key,
            "MapKey contract violated: {key:?} does not pack exactly into {KEY_BITS} bits"
        );
        let r = self.imp.put(key.clone(), value);
        match r {
            Ok(()) => {
                assert!(
                    self.model.len() < self.model.capacity(),
                    "impl accepted put into a full map"
                );
                self.model.put(key, value);
            }
            Err(Full) => {
                assert_eq!(
                    self.model.len(),
                    self.model.capacity(),
                    "impl reported Full below capacity"
                );
            }
        }
        self.check_equiv();
        r
    }

    /// Contract-checked `erase`.
    pub fn erase(&mut self, key: &K) -> Option<usize> {
        let spec_had = self.model.get(key);
        let got = self.imp.erase(key);
        let spec = self.model.erase(key);
        assert_eq!(got, spec, "map.erase({key:?}) diverged from abstract model");
        assert_eq!(got, spec_had);
        self.check_equiv();
        got
    }

    /// Contract-checked `size`.
    pub fn size(&self) -> usize {
        let s = self.imp.size();
        assert_eq!(s, self.model.len(), "map.size diverged from abstract model");
        s
    }

    /// Access the underlying implementation (read-only).
    pub fn raw(&self) -> &Map<K> {
        &self.imp
    }

    /// Full-state refinement check: the implementation's visible entries
    /// equal the abstract map's (as sets), the slots are coherent
    /// ([`Map::check_coherence`]), and (in this crate's tests) the line
    /// walk agrees with the scalar reference walk for every stored key.
    pub fn check_equiv(&self) {
        assert_eq!(self.imp.size(), self.model.len(), "size mismatch");
        self.imp
            .check_coherence()
            .unwrap_or_else(|e| panic!("map incoherent: {e}"));
        #[cfg(test)]
        for (k, _) in self.model.entries() {
            self.imp.assert_matches_scalar(k);
        }
        let mut imp_entries: Vec<(K, usize)> = self.imp.iter().collect();
        for (k, v) in self.model.entries() {
            let pos = imp_entries
                .iter()
                .position(|(ik, iv)| ik == k && iv == v)
                .unwrap_or_else(|| panic!("model entry missing from impl"));
            imp_entries.swap_remove(pos);
        }
        assert!(imp_entries.is_empty(), "impl has entries the model lacks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A key type whose hash collides in a controlled way, to stress
    /// long clusters. `group` determines the hash; `id` distinguishes
    /// keys within the group.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct CollidingKey {
        group: u8,
        id: u32,
    }

    impl MapKey for CollidingKey {
        fn key_hash(&self) -> u64 {
            u64::from(self.group) // all keys in a group collide perfectly
        }
        fn to_bits(&self) -> u128 {
            (u128::from(self.group) << 32) | u128::from(self.id)
        }
        fn from_bits(bits: u128) -> Self {
            CollidingKey {
                group: (bits >> 32) as u8,
                id: bits as u32,
            }
        }
    }

    /// The module docs' layout claim: the NAT's directory uses 16-byte
    /// slots, four to a 64-byte-aligned line, so in a live table every
    /// slot sits in one quarter of a line and none straddles two.
    #[test]
    fn nat_sized_slots_are_a_quarter_line_and_never_straddle() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<Slot>(), 16);
        assert_eq!((size_of::<Line>(), align_of::<Line>()), (64, 64));
        let m = Map::<vig_packet::FlowId>::new(1000);
        for i in 0..m.capacity() {
            let offset = std::ptr::from_ref(&m.lines[i / LANES].0[i % LANES]) as usize % 64;
            assert_eq!(offset, i % LANES * 16, "slot {i} at line offset {offset}");
        }
    }

    /// What a staged probe's one prefetch rests on: in a live NAT-sized
    /// directory (a 65,535-flow table's 21/16 positions), every start a
    /// probe can have is line-aligned, and the four lanes from it share
    /// one 64-byte line.
    #[test]
    fn every_probe_start_line_is_one_aligned_cache_line() {
        let m = Map::<vig_packet::FlowId>::new(65_535 * 21 / 16);
        let addr = |p: usize| std::ptr::from_ref(&m.lines[p / LANES].0[p % LANES]) as usize;
        let mut starts = 0;
        for home in 0..m.capacity() {
            let start = m.start_of(home as u64);
            assert!(
                start <= home && home - start < LANES,
                "home {home} starts at {start}"
            );
            if start != home {
                continue;
            }
            starts += 1;
            assert_eq!(addr(start) % 64, 0, "start {start} is not line-aligned");
            for p in start..(start + LANES).min(m.capacity()) {
                assert_eq!(
                    addr(p) / 64,
                    addr(start) / 64,
                    "lane {p} leaves start {start}'s line"
                );
            }
        }
        assert_eq!(starts, m.capacity().div_ceil(LANES));
    }

    /// The widest key and value a slot holds come back out intact: a
    /// key of all 97 bits set beside [`MAX_VALUE`], and beside 0.
    #[test]
    fn the_widest_key_and_value_share_a_slot() {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Wide(u128);
        impl MapKey for Wide {
            fn key_hash(&self) -> u64 {
                (self.0 as u64).key_hash()
            }
            fn to_bits(&self) -> u128 {
                self.0
            }
            fn from_bits(bits: u128) -> Self {
                Wide(bits)
            }
        }
        let all = (1u128 << KEY_BITS) - 1;
        let mut m = CheckedMap::<Wide>::new(4);
        m.put(Wide(all), MAX_VALUE).unwrap();
        m.put(Wide(all - 1), 0).unwrap();
        m.put(Wide(1 << (KEY_BITS - 1)), 7).unwrap();
        assert_eq!(m.get(&Wide(all)), Some(MAX_VALUE));
        assert_eq!(m.get(&Wide(all - 1)), Some(0));
        assert_eq!(m.get(&Wide(1 << (KEY_BITS - 1))), Some(7));
        assert_eq!(m.get(&Wide(1)), None);
        assert_eq!(m.erase(&Wide(all)), Some(MAX_VALUE));
    }

    /// The all-zero key beside value 0 and the widest key beside
    /// [`MAX_VALUE`] share one start line with a third key: each is
    /// stored, found and erased, neither slot reads as free — a probe
    /// for the key behind them walks past both, and a miss stops only
    /// at the first free lane — and the backward shift moves them like
    /// any other key.
    #[test]
    fn the_all_zero_and_widest_keys_are_never_read_as_free() {
        /// Every key's home is slot 0.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Edge(u128);
        impl MapKey for Edge {
            fn key_hash(&self) -> u64 {
                0
            }
            fn to_bits(&self) -> u128 {
                self.0
            }
            fn from_bits(bits: u128) -> Self {
                Edge(bits)
            }
        }
        let (zero, wide, behind) = (Edge(0), Edge((1 << KEY_BITS) - 1), Edge(5));
        assert_eq!(pack(&zero), BUSY);
        let mut m = CheckedMap::<Edge>::new(8);
        m.put(zero.clone(), 0).unwrap();
        m.put(wide.clone(), MAX_VALUE).unwrap();
        m.put(behind.clone(), 7).unwrap();
        assert_eq!(m.raw().slot(0).0, BUSY, "the all-zero key beside 0");
        assert_eq!(
            m.raw().slot(1).0,
            u128::MAX,
            "the widest key beside MAX_VALUE"
        );
        assert_eq!(m.get(&zero), Some(0));
        assert_eq!(m.get(&wide), Some(MAX_VALUE));
        assert_eq!(m.get(&behind), Some(7));
        assert_eq!(m.raw().probe_len(&behind), 3);
        assert_eq!(m.get(&Edge(1)), None);
        assert_eq!(
            m.raw().probe_len(&Edge(1)),
            4,
            "a miss stops at the first free lane"
        );
        assert_eq!(m.erase(&zero), Some(0));
        assert_eq!(
            m.raw().probe_len(&behind),
            2,
            "the shift moved the cluster back"
        );
        assert_eq!(m.erase(&wide), Some(MAX_VALUE));
        assert_eq!(m.raw().probe_len(&behind), 1);
        m.put(wide.clone(), MAX_VALUE).unwrap();
        m.put(zero.clone(), 0).unwrap();
        assert_eq!(m.get(&zero), Some(0));
        assert_eq!(m.erase(&behind), Some(7));
        assert_eq!(m.get(&zero), Some(0));
        assert_eq!(m.get(&wide), Some(MAX_VALUE));
    }

    #[test]
    #[should_panic(expected = "does not fit 30 bits")]
    fn a_value_past_30_bits_violates_contract() {
        let mut m = CheckedMap::<u64>::new(4);
        let _ = m.put(1, MAX_VALUE + 1);
    }

    #[test]
    fn put_get_erase_roundtrip() {
        let mut m = CheckedMap::<u64>::new(8);
        m.put(10, 100).unwrap();
        m.put(20, 200).unwrap();
        assert_eq!(m.get(&10), Some(100));
        assert_eq!(m.get(&20), Some(200));
        assert_eq!(m.get(&30), None);
        assert_eq!(m.erase(&10), Some(100));
        assert_eq!(m.get(&10), None);
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let mut m = CheckedMap::<u64>::new(4);
        for k in 0..4 {
            m.put(k, k as usize).unwrap();
        }
        assert_eq!(m.put(99, 9), Err(Full));
        assert_eq!(m.size(), 4);
        // every key still reachable at 100% occupancy
        for k in 0..4u64 {
            assert_eq!(m.get(&k), Some(k as usize));
        }
    }

    #[test]
    #[should_panic(expected = "precondition violated")]
    fn duplicate_put_violates_contract() {
        let mut m = CheckedMap::<u64>::new(4);
        m.put(1, 1).unwrap();
        let _ = m.put(1, 2);
    }

    #[test]
    fn erase_missing_is_noop_in_raw_map() {
        let mut m = Map::<u64>::new(4);
        m.put(1, 1).unwrap();
        assert_eq!(m.erase(&2), None);
        assert_eq!(m.size(), 1);
        assert_eq!(m.get(&1), Some(1));
    }

    #[test]
    fn colliding_keys_all_found() {
        let mut m = CheckedMap::<CollidingKey>::new(8);
        for id in 0..8 {
            m.put(CollidingKey { group: 3, id }, id as usize).unwrap();
        }
        for id in 0..8 {
            assert_eq!(m.get(&CollidingKey { group: 3, id }), Some(id as usize));
        }
    }

    #[test]
    fn erase_in_middle_of_chain_keeps_later_keys_reachable() {
        // The classic open-addressing deletion hazard the backward shift
        // solves: delete a key in the middle of a probe chain, then look
        // up a key stored beyond it.
        let mut m = CheckedMap::<CollidingKey>::new(8);
        let k = |id| CollidingKey { group: 5, id };
        for id in 0..5 {
            m.put(k(id), id as usize).unwrap();
        }
        assert_eq!(m.erase(&k(1)), Some(1)); // hole in the chain
        assert_eq!(
            m.get(&k(4)),
            Some(4),
            "key past the hole must stay reachable"
        );
        assert_eq!(m.get(&k(1)), None);
        // and a fresh insert reuses the hole without breaking anything
        m.put(k(40), 40).unwrap();
        for id in [0u32, 2, 3, 4, 40] {
            assert!(m.get(&k(id)).is_some());
        }
    }

    #[test]
    fn miss_probe_is_short_when_sparse_and_long_when_full() {
        // Quantifies the paper's Fig. 12 last-point effect.
        let mut m = Map::<u64>::new(1024);
        let probe_miss = |m: &Map<u64>| {
            // average probe length over many absent keys
            let total: usize = (1_000_000..1_000_256u64).map(|k| m.probe_len(&k)).sum();
            total as f64 / 256.0
        };
        for k in 0..512u64 {
            m.put(k, 0).unwrap(); // 50% occupancy
        }
        let half = probe_miss(&m);
        for k in 512..1016u64 {
            m.put(k, 0).unwrap(); // ~99% occupancy
        }
        let full = probe_miss(&m);
        assert!(
            full > 4.0 * half,
            "probe length must grow sharply near fullness (half={half}, full={full})"
        );
    }

    #[test]
    fn hashed_variants_match_plain_ones() {
        let mut m = CheckedMap::<u64>::new(16);
        for k in 0..10u64 {
            m.put_with_hash(k, k.key_hash(), k as usize).unwrap();
        }
        for k in 0..12u64 {
            assert_eq!(m.get_with_hash(&k, k.key_hash()), m.get(&k));
        }
    }

    #[test]
    #[should_panic(expected = "stale hash")]
    fn stale_hash_violates_contract() {
        let m = CheckedMap::<u64>::new(4);
        let _ = m.get_with_hash(&1, 2u64.key_hash());
    }

    #[test]
    fn batch_lookup_equals_sequential() {
        let mut m = CheckedMap::<u64>::new(64);
        for k in 0..40u64 {
            m.put(k, (k * 3) as usize).unwrap();
        }
        // mix of hits and misses, including duplicates
        let queries: Vec<u64> = (0..60u64).chain([5, 5, 39]).collect();
        let hashes: Vec<u64> = queries.iter().map(|k| k.key_hash()).collect();
        let batch = m.get_batch_with_hash(&queries, &hashes);
        for (i, k) in queries.iter().enumerate() {
            assert_eq!(batch[i], m.get(k));
        }
    }

    #[test]
    fn batch_lookup_with_collisions() {
        let mut m = CheckedMap::<CollidingKey>::new(16);
        let k = |id| CollidingKey { group: 2, id };
        for id in 0..8 {
            m.put(k(id), id as usize).unwrap();
        }
        m.erase(&k(3)); // hole in the chain
        let queries: Vec<CollidingKey> = (0..10).map(k).collect();
        let hashes: Vec<u64> = queries.iter().map(|q| q.key_hash()).collect();
        let batch = m.get_batch_with_hash(&queries, &hashes);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i], m.get(q), "query {i} diverged");
        }
    }

    #[test]
    fn wraparound_probing_works() {
        // Force a probe path that wraps past the end of the array: the
        // last slot of capacity 9 is a short line of one lane.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct TailKey(u32);
        impl MapKey for TailKey {
            fn key_hash(&self) -> u64 {
                8
            }
            fn to_bits(&self) -> u128 {
                u128::from(self.0)
            }
            fn from_bits(bits: u128) -> Self {
                TailKey(bits as u32)
            }
        }
        let mut m = CheckedMap::<TailKey>::new(9);
        for id in 0..4 {
            m.put(TailKey(id), id as usize).unwrap();
        }
        for id in 0..4 {
            assert_eq!(m.get(&TailKey(id)), Some(id as usize));
        }
        assert_eq!(m.erase(&TailKey(0)), Some(0));
        assert_eq!(m.get(&TailKey(3)), Some(3));
    }

    /// A key carrying an arbitrary precomputed hash, so tests and
    /// strategies can place homes adversarially — `hash` below the
    /// capacity is the home itself — while `id` keeps keys distinct.
    /// `AdvKey { id: 0, hash: 0 }` packs to the all-zero key.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct AdvKey {
        id: u32,
        hash: u64,
    }

    impl MapKey for AdvKey {
        fn key_hash(&self) -> u64 {
            self.hash
        }
        fn to_bits(&self) -> u128 {
            (u128::from(self.hash) << 32) | u128::from(self.id)
        }
        fn from_bits(bits: u128) -> Self {
            AdvKey {
                id: bits as u32,
                hash: (bits >> 32) as u64,
            }
        }
    }

    #[test]
    fn same_home_keys_fill_the_short_last_line_and_wrap() {
        // Capacity 10: lines of four, four and a short one of two. All
        // keys have home 9 (the short line's last lane) and start at 8,
        // so every probe past two keys wraps to line 0.
        let mut m = CheckedMap::<AdvKey>::new(10);
        let key = |id: u32| AdvKey { id, hash: 9 };
        for id in 0..10u32 {
            m.put(key(id), id as usize).unwrap();
        }
        for id in 0..10u32 {
            assert_eq!(m.get(&key(id)), Some(id as usize), "full-table hit {id}");
        }
        // Erase in the middle of the wrapped chain; later keys stay
        // reachable and the hole is reusable.
        assert_eq!(m.erase(&key(3)), Some(3));
        assert_eq!(m.get(&key(9)), Some(9));
        m.put(key(30), 30).unwrap();
        assert_eq!(m.get(&key(30)), Some(30));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Put(u8, usize),
        Get(u8),
        Erase(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), 0..=MAX_VALUE).prop_map(|(k, v)| Op::Put(k % 16, v)),
            any::<u8>().prop_map(|k| Op::Get(k % 16)),
            any::<u8>().prop_map(|k| Op::Erase(k % 16)),
        ]
    }

    proptest! {
        /// Random op sequences never diverge from the abstract model.
        /// (Contract-violating ops are filtered to their legal variants;
        /// values are drawn from the contract's domain, `0..=MAX_VALUE`.)
        #[test]
        fn random_ops_refine_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut m = CheckedMap::<u64>::new(8);
            for op in ops {
                match op {
                    Op::Put(k, v) => {
                        let k = u64::from(k);
                        if m.get(&k).is_none() {
                            let _ = m.put(k, v);
                        }
                    }
                    Op::Get(k) => { m.get(&u64::from(k)); }
                    Op::Erase(k) => {
                        let k = u64::from(k);
                        if m.get(&k).is_some() {
                            m.erase(&k);
                        }
                    }
                }
                m.check_equiv();
            }
        }

        /// probe_len(get-hit) is always within capacity and >= 1.
        #[test]
        fn probe_len_bounds(keys in proptest::collection::hash_set(any::<u64>(), 0..32)) {
            let mut m = Map::<u64>::new(64);
            for &k in &keys {
                m.put(k, 1).unwrap();
            }
            for &k in &keys {
                let p = m.probe_len(&k);
                prop_assert!((1..=64).contains(&p));
            }
        }

        /// Adversarial hash distributions — homes pinned to the line
        /// boundary and wraparound lanes, every capacity from 1 to 9
        /// (one line, a short last line, a last line of one lane) and
        /// two of whole lines, the all-zero key among the keys — never
        /// diverge from the abstract model or the scalar reference probe
        /// (both asserted inside [`CheckedMap`] on every op).
        #[test]
        fn adversarial_hash_distributions_refine_model(
            cap in prop_oneof![1usize..=9, Just(16), Just(24)],
            ops in proptest::collection::vec(
                (0u8..3, 0u8..4, 0u32..5),
                0..160,
            ),
        ) {
            let mut m = CheckedMap::<AdvKey>::new(cap);
            for (kind, h, id) in ops {
                // Homes pinned to the adversarial lanes: slot 0, the
                // last slot (wraparound), mid-table, and the last line's
                // first lane.
                let home = [0usize, cap - 1, cap / 2, (cap - 1) / LANES * LANES][h as usize];
                let key = AdvKey { id, hash: home as u64 };
                match kind {
                    0 => {
                        if m.get(&key).is_none() {
                            let _ = m.put(key, id as usize);
                        }
                    }
                    1 => { m.get(&key); }
                    _ => {
                        if m.get(&key).is_some() {
                            m.erase(&key);
                        }
                    }
                }
                m.check_equiv();
            }
        }

        /// The staged batch lookup equals per-key `get_with_hash` on a
        /// nearly full table (≥ 95 %) of heavily colliding keys whose
        /// capacity leaves a short last line, over more than one
        /// 32-key chunk (so the per-chunk `starts` scratch is reused),
        /// with present, absent and duplicate queries — and changes
        /// nothing: entries and slots are as before.
        #[test]
        fn staged_batch_equals_per_key_lookups_when_nearly_full(
            fill in proptest::collection::vec((0u8..12, 0u32..160), 120..200),
            erase in proptest::collection::vec(0usize..75, 0..3),
            queries in proptest::collection::vec((0u8..12, 0u32..192), 65..100),
        ) {
            let cap = 75; // eighteen full lines and one of three lanes
            let mk = |(s, id): (u8, u32)| AdvKey {
                id,
                // Few homes (the last lanes included): long, interleaved
                // probe chains that wrap.
                hash: ((s as usize * 7 + 68) % cap) as u64,
            };
            let mut m = Map::<AdvKey>::new(cap);
            let mut stored = Vec::new();
            for k in fill.into_iter().map(mk) {
                if m.get(&k).is_none() && m.put(k.clone(), k.id as usize).is_ok() {
                    stored.push(k);
                }
            }
            // Erases in the middle of the clusters: the shift moves
            // entries back across line boundaries and the wrap.
            for i in erase {
                if i < stored.len() && stored.len() > 72 {
                    m.erase(&stored.swap_remove(i));
                }
            }
            prop_assert!(m.size() * 100 >= cap * 95, "table only {} full", m.size());
            let queries: Vec<AdvKey> = queries.into_iter().map(mk).collect();
            let hashes: Vec<u64> = queries.iter().map(MapKey::key_hash).collect();
            let before: Vec<(AdvKey, usize)> = m.iter().collect();
            let mut batch = vec![Some(usize::MAX)]; // results are appended
            m.get_batch_with_hash(&queries, &hashes, &mut batch);
            prop_assert_eq!(batch.len(), 1 + queries.len());
            for (i, (q, &h)) in queries.iter().zip(&hashes).enumerate() {
                prop_assert_eq!(batch[1 + i], m.get_with_hash(q, h), "query {}", i);
                prop_assert_eq!(batch[1 + i], m.get_with_hash_scalar(q, h));
            }
            let after: Vec<(AdvKey, usize)> = m.iter().collect();
            prop_assert_eq!(before, after);
            prop_assert!(m.check_coherence().is_ok());
        }

        /// Under insert-only sequences a free slot only ever becomes
        /// busy, so the miss stop (the insert position) only moves
        /// outward and `probe_len` is monotone non-decreasing for every
        /// key — present or absent — as the table fills.
        #[test]
        fn probe_len_monotone_under_inserts(
            inserts in proptest::collection::hash_set((0u8..8, 0u32..16), 1..24),
            queries in proptest::collection::vec((0u8..8, 0u32..24), 1..12),
        ) {
            let cap = 17; // short last line of one lane
            let mut m = CheckedMap::<AdvKey>::new(cap);
            let mk = |(s, id): (u8, u32)| AdvKey {
                id,
                hash: ((s as usize * 3) % cap) as u64,
            };
            let queries: Vec<AdvKey> = queries.into_iter().map(mk).collect();
            let mut last: Vec<usize> = queries.iter().map(|q| m.raw().probe_len(q)).collect();
            for ins in inserts {
                let key = mk(ins);
                if m.get(&key).is_some() {
                    continue;
                }
                if m.put(key, 0).is_err() {
                    break;
                }
                for (q, prev) in queries.iter().zip(last.iter_mut()) {
                    let now = m.raw().probe_len(q);
                    prop_assert!(
                        now >= *prev,
                        "probe_len shrank from {prev} to {now} under insert-only ops"
                    );
                    *prev = now;
                }
            }
        }
    }

    /// Which slots are busy, and the probe lengths of the stored keys
    /// summed: what a history-free map fixes by its live keys alone.
    fn busy_slots_and_probe_sum(m: &Map<AdvKey>) -> (Vec<bool>, usize) {
        let busy = (0..m.capacity()).map(|p| !m.slot(p).is_free()).collect();
        (busy, m.iter().map(|(k, _)| m.probe_len(&k)).sum())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The map is history-free: after a run of puts and erases that
        /// holds the table between 85 % full and full, which slots are
        /// busy and the stored keys' summed probe lengths equal those of
        /// a fresh map built from the live keys alone, in shuffled
        /// order. Homes sit on the first slot, the last (wraparound),
        /// mid-table, the last line's first lane and anywhere.
        #[test]
        fn churned_map_equals_a_fresh_build_of_its_live_keys(
            cap in 97usize..400,
            seed in any::<u64>(),
            churn in 200usize..1500,
        ) {
            let mut rng = seed;
            let mut next = move || {
                rng = rng.key_hash();
                rng
            };
            let mut id = 0u32;
            let mut mk = |r: u64| {
                id += 1;
                let home = match (r >> 8) % 5 {
                    0 => 0,
                    1 => cap - 1,
                    2 => cap / 2,
                    3 => (cap - 1) / LANES * LANES,
                    _ => (r >> 16) as usize % cap,
                };
                AdvKey { id, hash: home as u64 }
            };
            let mut m = Map::<AdvKey>::new(cap);
            let mut live = Vec::new();
            for _ in 0..churn + cap * 85 / 100 {
                let r = next();
                if m.is_full() || (r % 2 == 0 && live.len() * 100 > cap * 85) {
                    let k: AdvKey = live.swap_remove((r >> 1) as usize % live.len());
                    prop_assert_eq!(m.erase(&k), Some(k.id as usize));
                } else {
                    let k = mk(r);
                    m.put(k.clone(), k.id as usize).unwrap();
                    live.push(k);
                }
            }
            prop_assert!(m.check_coherence().is_ok(), "{:?}", m.check_coherence());
            for i in (1..live.len()).rev() {
                live.swap(i, next() as usize % (i + 1));
            }
            let mut fresh = Map::<AdvKey>::new(cap);
            for k in &live {
                prop_assert_eq!(m.get(k), Some(k.id as usize));
                fresh.put(k.clone(), k.id as usize).unwrap();
            }
            prop_assert_eq!(busy_slots_and_probe_sum(&m), busy_slots_and_probe_sum(&fresh));
        }
    }

    /// Map capacity of the occupancy differentials below.
    const CAP: usize = 4096;

    /// The line walk equals the scalar reference for a query mix of
    /// hits, misses, and erased-then-reinserted keys.
    fn assert_map_matches_scalar(m: &Map<u64>, queries: impl Iterator<Item = u64>) {
        for q in queries {
            m.assert_matches_scalar(&q);
        }
        m.check_coherence().expect("map incoherent");
    }

    /// The directory-layer differential at 49 % and 98 % occupancy,
    /// through fill → erase (backward shifts through the clusters) →
    /// refill (inserts into the freed slots) — the sequence that
    /// stresses the free-slot stop the line walk must share with the
    /// scalar walk.
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
            // mix shifted clusters and reused slots.
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

    /// While a table fills from empty to 98%, `probe_len` of a fixed
    /// query set is monotone non-decreasing (under inserts alone no busy
    /// slot frees, so the miss stop can only move outward), and at every
    /// sampled occupancy the line walk equals the scalar walk.
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
}
