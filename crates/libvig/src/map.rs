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
//! ## Memory layout (cache-conscious)
//!
//! The table is a **single allocation** of `Slot`s: value and key for
//! one probe position live side by side, so one probe
//! step touches one slot instead of scattering across five parallel
//! arrays (the original layout paid up to five cache misses per step).
//! A slot is one 16-byte word, 16-aligned: the key's exact bits
//! ([`MapKey::to_bits`], at most [`KEY_BITS`] = 97 — a `FlowId` is two
//! addresses, two ports and one TCP/UDP bit) above a [`VALUE_BITS`] =
//! 31-bit value. Four slots fill a 64-byte line and none straddles
//! two. The slot stores **no hash**: the control directory's 7-bit tag
//! (below) already rejects 127 of 128 foreign keys before a slot is
//! loaded, key equality decides the rest, and the tag is recomputable
//! from the key ([`Map::check_tag_coherence`] unpacks it and does). A
//! probe packs its query once and compares a candidate slot as two
//! machine words. The slot has no "empty" state of its own: its control
//! byte (below) says whether it is busy, and nothing reads a free slot.
//! At 21/16 positions per flow the flow table's directory costs 22.3
//! bytes per flow ([`crate::dmap::DIRECTORY_SLOTS_PER_16`]).
//!
//! ## Tag-group directory (SWAR probing)
//!
//! Alongside (not inside) the slot array lives a compact **control
//! directory**: one `u64` word per group of eight consecutive slots,
//! each byte packing a busy bit (bit 7) and a 7-bit **tag** — the top
//! seven bits of the stored key's hash (bits the probe start
//! `hash % capacity` barely consumes). A probe step first scans a whole
//! group with SWAR bit tricks — XOR against the broadcast tag, detect
//! zero bytes, mask by busy bits — and only dereferences slots whose
//! control byte matches and that lie before the word's first free lane,
//! where the probe stops without loading anything. Up to eight "load
//! slot, compare" steps collapse into one u64 load; busy slots holding
//! *other* keys are skipped without touching their cache lines at all,
//! which is exactly the cost that dominated near-full-table misses
//! (paper Fig. 12, last point). The scheme is the portable-SWAR form of
//! Swiss-table metadata probing (the `hashbrown` design).
//!
//! The scalar probe survives as `*_scalar` reference functions, built
//! only for this crate's tests: the differential suites (module tests,
//! `libvig::exhaustive`) keep the tag-probed operations byte-for-byte
//! equivalent to both the scalar path — which unpacks each slot's key
//! and compares with `Eq` — and the abstract model, and
//! [`Map::check_tag_coherence`] asserts the control directory is
//! exactly the busy-bit/tag projection of the slots and that no free
//! slot lies on a stored key's probe path.
//!
//! ## Batched lookups
//!
//! [`Map::get_with_hash`] / [`Map::put_with_hash`] accept a caller-
//! computed hash so composite structures can hash a key **once** and
//! reuse it across several probes (VigNAT: lookup miss → insert reuses
//! the same `FlowId` hash). [`Map::get_batch_with_hash`] resolves a
//! burst of keys in stages, each issued for a whole chunk of keys before
//! the next begins: compute every probe start and first-touch its
//! control word; first-touch the one slot where each probe's work in
//! its start group ends — the slot a hit dereferences first, or the
//! free slot where a miss stops and an insert of the key would write;
//! then complete the probes on warm lines. Loads of one stage do not
//! depend on each other, so their misses overlap in the memory system
//! instead of serializing one lookup at a time (memory-level
//! parallelism) — which is what makes the burst path's flow-table cost
//! sublinear in burst size on large tables, for new flows as for
//! established ones: a store to a cold slot retires into the store
//! buffer, but still waits for its line and its page translation, and
//! the touch overlaps those waits across the burst. The first-touches
//! are prefetch instructions ([`crate::prefetch`]), not loads: they
//! change no state, and a prefetch retires without waiting for its line,
//! where a load that misses holds up every instruction behind it.
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
//!   `v <= MAX_VALUE` (`v < 2^31`); ensures post-state `m + [(k,v)]`.
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
/// Bits a slot keeps for its value: what a 128-bit slot has left.
pub const VALUE_BITS: u32 = 128 - KEY_BITS;
/// The largest value [`Map::put`] accepts, 2^31 − 1.
pub const MAX_VALUE: usize = (1 << VALUE_BITS) - 1;
/// The value's bits within a slot.
const VALUE_MASK: u128 = (1 << VALUE_BITS) - 1;

/// One probe position of the table: a key's bits above its value, in
/// one 16-byte word on a 16-byte alignment, so four slots fill a cache
/// line and none straddles two (see the module docs). Whether the slot
/// is busy is its control byte's to say; a free slot's word is zero
/// and nothing reads it.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(16))]
struct Slot(u128);

impl Slot {
    /// The slot holding `key`'s packed bits and `value`.
    #[inline(always)]
    fn new(packed: u128, value: usize) -> Slot {
        Slot(packed | (value as u128 & VALUE_MASK))
    }

    /// The stored value.
    #[inline(always)]
    fn value(self) -> usize {
        (self.0 & VALUE_MASK) as usize
    }

    /// The stored key, unpacked.
    #[inline(always)]
    fn key<K: MapKey>(self) -> K {
        K::from_bits(self.0 >> VALUE_BITS)
    }

    /// Whether the slot holds the key `packed` was made from: the two
    /// words compared, the value's bits masked off.
    #[inline(always)]
    fn holds(self, packed: u128) -> bool {
        self.0 & !VALUE_MASK == packed
    }
}

/// `key`'s bits where a slot keeps them, above the value: a probe packs
/// its query once and compares every candidate slot with it.
#[inline(always)]
fn pack<K: MapKey>(key: &K) -> u128 {
    key.to_bits() << VALUE_BITS
}

/// Slots per control word: eight one-byte lanes per `u64`.
const GROUP: usize = 8;
/// `0x01` broadcast to every lane (SWAR subtrahend).
const LANE_LSB: u64 = 0x0101_0101_0101_0101;
/// `0x80` broadcast to every lane: the per-lane busy bit, and where the
/// zero-byte detector leaves its result.
const LANE_MSB: u64 = 0x8080_8080_8080_8080;
/// Busy bit within one control byte.
const CTRL_BUSY: u8 = 0x80;
/// Queries a staged probe issues each stage for at once (one RX burst):
/// [`get_staged`] takes at most this many.
pub const BATCH_CHUNK: usize = 32;

/// The control byte a busy slot holding a key with hash `hash` carries:
/// busy bit | top seven hash bits. The probe start position consumes
/// `hash % capacity` (low-order entropy), so the tag draws on bits the
/// start barely touches — tag collisions between *different* hashes in
/// the same probe window are ~1/128.
#[inline(always)]
fn ctrl_byte(hash: u64) -> u8 {
    CTRL_BUSY | (hash >> 57) as u8
}

/// High-bit-per-lane mask selecting lanes `off..hi` of a group word
/// (`off < 8`, `hi <= 8`).
#[inline(always)]
fn lane_window(off: usize, hi: usize) -> u64 {
    debug_assert!(off < GROUP && hi <= GROUP);
    let above = !((1u64 << (off * 8)) - 1);
    let below = if hi == GROUP {
        u64::MAX
    } else {
        (1u64 << (hi * 8)) - 1
    };
    LANE_MSB & above & below
}

/// Lanes of `w` whose byte equals `byte`, as a high-bit-per-lane mask.
///
/// Classic SWAR zero-byte detection over `w ^ broadcast(byte)`. May
/// report a **false positive** on a lane differing from `byte` only in
/// its lowest bit when a lower lane matched (borrow propagation) — the
/// caller always confirms a candidate against the slot's key, so a
/// false positive costs one extra comparison, never wrongness.
#[inline(always)]
fn match_lanes(w: u64, byte: u8) -> u64 {
    let x = w ^ (u64::from(byte) * LANE_LSB);
    x.wrapping_sub(LANE_LSB) & !x & LANE_MSB
}

/// Lanes of `w` whose busy bit is clear (free slots), as a
/// high-bit-per-lane mask. Exact: every busy control byte has bit 7
/// set, every free byte is zero.
#[inline(always)]
fn free_lanes(w: u64) -> u64 {
    !w & LANE_MSB
}

/// High-bit-per-lane mask selecting the lanes below the lowest lane of
/// `frees` — every lane when `frees` is empty. A probe's candidates lie
/// there: nothing at or past a free lane is on its probe path.
#[inline(always)]
fn before_first(frees: u64) -> u64 {
    (frees & frees.wrapping_neg()).wrapping_sub(1) & LANE_MSB
}

/// Where a tag-probed walk stopped (see [`Map::probe`]). `dist` is the
/// 0-based probe distance — the scalar loop's `i` — so `dist + 1` slots
/// were inspected.
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
    slots: Vec<Slot>,
    /// Control directory: one word per eight slots, one byte per slot
    /// (busy bit | 7-bit tag; zero when free). Kept beside the slot
    /// array so a scan loads no slot; lanes past `capacity` in the last
    /// word stay zero and are masked out of every scan.
    tags: Vec<u64>,
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
            slots: vec![Slot::default(); capacity],
            tags: vec![0u64; capacity.div_ceil(GROUP)],
            size: 0,
            capacity,
            key: PhantomData,
        }
    }

    /// Write slot `idx`'s control byte.
    #[inline(always)]
    fn set_ctrl(&mut self, idx: usize, byte: u8) {
        let shift = (idx % GROUP) * 8;
        let w = &mut self.tags[idx / GROUP];
        *w = (*w & !(0xFFu64 << shift)) | (u64::from(byte) << shift);
    }

    /// Slot `idx`'s control byte.
    #[inline(always)]
    fn ctrl(&self, idx: usize) -> u8 {
        (self.tags[idx / GROUP] >> ((idx % GROUP) * 8)) as u8
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
    /// (`hash % capacity`) rounded **down to its 8-slot group
    /// boundary**, so every probe's first window is a full control
    /// word. An unaligned start makes the first SWAR window partial
    /// (`off > 0` lanes masked out), which wastes up to 7 of the 8
    /// lanes the first — and usually only — control-word load pays
    /// for; aligning moves the start at most `GROUP - 1` slots back,
    /// keeps it within capacity (the group base of an in-range slot is
    /// in range), and costs nothing at lookup time.
    ///
    /// Every operation — the SWAR scan, the `*_scalar` reference
    /// probes, insert's free-lane search and erase's backward shift —
    /// derives its probe sequence from this one function, so SWAR ≡
    /// scalar equivalence (asserted by `CheckedMap` and the
    /// differential suites) is preserved by construction.
    fn start_of(&self, hash: u64) -> usize {
        let home = (hash % self.capacity as u64) as usize;
        home - home % GROUP
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
        match self.probe(key, hash) {
            ProbeOutcome::Hit { idx, .. } => Some(self.slots[idx].value()),
            _ => None,
        }
    }

    /// The scalar reference probe: [`Map::get_with_hash`] walked the way
    /// the pre-tag-directory implementation walked it, one position per
    /// step: a free control byte stops it, and a busy slot's key is
    /// unpacked and compared with `Eq`. The differential oracle for the
    /// SWAR group scan and its packed compare: the equivalence suites
    /// assert `get_with_hash == get_with_hash_scalar` on every state
    /// they construct.
    #[cfg(test)]
    fn get_with_hash_scalar(&self, key: &K, hash: u64) -> Option<usize> {
        debug_assert_eq!(hash, key.key_hash(), "get_with_hash_scalar: stale hash");
        let start = self.start_of(hash);
        for i in 0..self.capacity {
            let idx = (start + i) % self.capacity;
            if self.ctrl(idx) == 0 {
                return None;
            }
            if self.slots[idx].key::<K>() == *key {
                return Some(self.slots[idx].value());
            }
        }
        None
    }

    /// Walk the probe sequence's group windows from slot `start`,
    /// calling `visit` once per window with `(group base, first lane,
    /// end lane, control word, probe distance of the first lane)`
    /// until it returns `Some` or the whole table has been covered —
    /// the **single owner** of the window clamp and wraparound
    /// arithmetic every SWAR operation rides on.
    ///
    /// Each window is clamped to the table end (short last group) and
    /// to the probe budget: the second visit of the start group after
    /// a wrap covers only the lanes before `start`, so exactly
    /// `capacity` lanes are visited overall, in scalar probe order.
    #[inline]
    fn scan_windows<R>(
        &self,
        start: usize,
        mut visit: impl FnMut(usize, usize, usize, u64, usize) -> Option<R>,
    ) -> Option<R> {
        let cap = self.capacity;
        let mut pos = start;
        let mut scanned = 0usize;
        while scanned < cap {
            let base = (pos / GROUP) * GROUP;
            let off = pos - base;
            let hi = GROUP.min(cap - base).min(off + (cap - scanned));
            if let Some(r) = visit(base, off, hi, self.tags[pos / GROUP], scanned) {
                return Some(r);
            }
            scanned += hi - off;
            pos = base + hi;
            if pos >= cap {
                pos = 0;
            }
        }
        None
    }

    /// The SWAR group walk every tag-probed operation shares: follow
    /// `key`'s probe sequence from `hash`'s start slot, scanning one
    /// control word per step. Lanes before the window's first free lane
    /// whose byte matches the broadcast tag are **candidates**
    /// (confirmed against the slot's key); the first free lane stops
    /// the walk without loading its slot. Busy lanes with a different
    /// tag are skipped without loading their slots either. `dist` is
    /// the 0-based probe distance (the scalar loop's `i`) at the
    /// stopping position.
    #[inline]
    fn probe(&self, key: &K, hash: u64) -> ProbeOutcome {
        self.probe_at(key, hash, self.start_of(hash))
    }

    /// [`Map::probe`] from a start the caller already computed
    /// (`start == self.start_of(hash)`): the batch path computes the
    /// start in its first stage and pays its division once.
    #[inline]
    fn probe_at(&self, key: &K, hash: u64, start: usize) -> ProbeOutcome {
        debug_assert_eq!(start, self.start_of(hash), "probe_at: stale start");
        let tag = ctrl_byte(hash);
        let packed = pack(key);
        self.scan_windows(start, |base, off, hi, w, scanned| {
            let window = lane_window(off, hi);
            let frees = free_lanes(w) & window;
            let mut candidates = match_lanes(w, tag) & window & before_first(frees);
            while candidates != 0 {
                let lane = (candidates.trailing_zeros() as usize) / 8;
                if self.slots[base + lane].holds(packed) {
                    return Some(ProbeOutcome::Hit {
                        idx: base + lane,
                        dist: scanned + (lane - off),
                    });
                }
                candidates &= candidates - 1;
            }
            (frees != 0).then(|| ProbeOutcome::MissStop {
                dist: scanned + (frees.trailing_zeros() as usize) / 8 - off,
            })
        })
        .unwrap_or(ProbeOutcome::Scanned)
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

    /// The lane stage 2 of a staged probe touches for `hash` from
    /// `start`: where the probe's work in the start group ends. That is
    /// the first lane carrying the hash's tag before the group's first
    /// free lane — the slot the probe dereferences first — and otherwise
    /// that first free lane, where a miss stops and which
    /// [`Map::put_with_hash`] fills if the key is then inserted. A start
    /// group with neither (every lane busy under other tags) gives
    /// `None`: the probe moves on to the next control word, which is
    /// adjacent.
    #[inline(always)]
    fn touch_lane(&self, start: usize, hash: u64) -> Option<usize> {
        let w = self.tags[start / GROUP];
        let window = lane_window(0, GROUP.min(self.capacity - start));
        let frees = free_lanes(w) & window;
        let candidates = match_lanes(w, ctrl_byte(hash)) & window & before_first(frees);
        let lanes = if candidates != 0 { candidates } else { frees };
        (lanes != 0).then(|| start + (lanes.trailing_zeros() as usize) / 8)
    }

    /// Prefetch the slot of [`Map::touch_lane`]; nothing when it is
    /// `None`. One line is the whole slot: a slot is line-aligned and
    /// never straddles (module docs) — for a hit, the slot the probe
    /// compares; for a miss, the slot an insert then writes, whose line
    /// and page translation would otherwise be waited for by the
    /// insert's store, one packet at a time.
    #[inline(always)]
    fn first_touch_slot(&self, start: usize, hash: u64) {
        if let Some(idx) = self.touch_lane(start, hash) {
            crate::prefetch(&self.slots[idx]);
        }
    }

    /// Number of slots a lookup for `key` would inspect. Exposed for the
    /// occupancy microbenchmarks (DESIGN.md §7); not part of the libVig
    /// interface. Tag filtering changes how many slots a probe *loads*,
    /// never how many positions it traverses, so this is identical to
    /// the scalar reference walk's `probe_len_scalar` (asserted by the
    /// differential suites of this crate's tests).
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
            let idx = (start + i) % self.capacity;
            if self.ctrl(idx) == 0 || self.slots[idx].key::<K>() == *key {
                return i + 1;
            }
        }
        self.capacity
    }

    /// Tests only: the tag-probed `get_with_hash` and `probe_len` of
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
            "SWAR probe diverged from the scalar reference for {key:?}"
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
    /// contract: it is stored modulo 2^31, and the key stays intact.
    pub fn put_with_hash(&mut self, key: K, hash: u64, value: usize) -> Result<(), Full> {
        debug_assert_eq!(hash, key.key_hash(), "put_with_hash: stale hash");
        debug_assert!(
            value <= MAX_VALUE,
            "put_with_hash: value {value} > MAX_VALUE"
        );
        if self.size == self.capacity {
            return Err(Full);
        }
        // SWAR scan for the first free slot on the probe path: the key
        // goes where a probe for it will stop.
        let found = self.scan_windows(self.start_of(hash), |base, off, hi, w, _| {
            let frees = free_lanes(w) & lane_window(off, hi);
            (frees != 0).then(|| base + (frees.trailing_zeros() as usize) / 8)
        });
        let Some(idx) = found else {
            // Unreachable: size < capacity guarantees a free slot.
            return Err(Full);
        };
        self.slots[idx] = Slot::new(pack(&key), value);
        self.set_ctrl(idx, ctrl_byte(hash));
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
    /// R): walking `j` forward to the first free lane, each entry whose
    /// probe start does not lie cyclically in `(hole, j]` — whose probe
    /// path crosses the hole — moves into the hole with its control
    /// byte, and the hole moves to `j`. Each move brings an entry closer
    /// to its start, and the hole is free, so the walk ends. The slot
    /// stores no hash, so each entry walked past is unpacked and
    /// rehashed.
    pub fn erase(&mut self, key: &K) -> Option<usize> {
        let ProbeOutcome::Hit { idx, .. } = self.probe(key, key.key_hash()) else {
            return None;
        };
        let v = self.slots[idx].value();
        self.slots[idx] = Slot::default();
        self.set_ctrl(idx, 0);
        self.size -= 1;
        let mut hole = idx;
        let mut j = self.next_pos(idx);
        while self.ctrl(j) != 0 {
            let start = self.start_of(self.slots[j].key::<K>().key_hash());
            let stays = if hole <= j {
                hole < start && start <= j
            } else {
                hole < start || start <= j
            };
            if !stays {
                self.set_ctrl(hole, self.ctrl(j));
                self.set_ctrl(j, 0);
                self.slots.swap(hole, j);
                hole = j;
            }
            j = self.next_pos(j);
        }
        Some(v)
    }

    /// Assert the control directory is exactly the busy-bit/tag
    /// projection of the slot array: every control byte is zero (free)
    /// or has its busy bit set, every busy slot's byte is
    /// `0x80 | top7(key.key_hash())` — recomputed from the stored key,
    /// unpacked, the slot caches no hash — and the key repacks to the
    /// bits the slot holds, and the padding lanes past `capacity` in
    /// the last word are zero (they must never register as free *or*
    /// candidate in a scan of the short last group). Also asserts the
    /// linear-probing invariant a probe's stop rule rests on: no free
    /// slot lies between a stored key's probe start and its position.
    /// Test/diagnostic use; O(capacity + total probe distance).
    pub fn check_tag_coherence(&self) -> Result<(), String> {
        if self.tags.len() != self.capacity.div_ceil(GROUP) {
            return Err(format!(
                "control directory has {} words for capacity {}",
                self.tags.len(),
                self.capacity
            ));
        }
        let mut busy = 0;
        for idx in 0..self.capacity {
            let byte = self.ctrl(idx);
            if byte == 0 {
                continue;
            }
            if byte & CTRL_BUSY == 0 {
                return Err(format!(
                    "slot {idx}: control byte {byte:#04x} is neither free nor busy"
                ));
            }
            busy += 1;
            let key: K = self.slots[idx].key();
            if !self.slots[idx].holds(pack(&key)) {
                return Err(format!("slot {idx}: its key does not repack to its bits"));
            }
            let want = ctrl_byte(key.key_hash());
            if byte != want {
                return Err(format!(
                    "slot {idx}: control byte {byte:#04x} != expected {want:#04x}"
                ));
            }
            let mut t = self.start_of(key.key_hash());
            while t != idx {
                if self.ctrl(t) == 0 {
                    return Err(format!(
                        "slot {idx}: free slot {t} lies on its key's probe path"
                    ));
                }
                t = self.next_pos(t);
            }
        }
        for pad in self.capacity..self.tags.len() * GROUP {
            let byte = self.ctrl(pad);
            if byte != 0 {
                return Err(format!(
                    "padding lane {pad} past capacity has control byte {byte:#04x}"
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
            .filter(|&idx| self.ctrl(idx) != 0)
            .map(|idx| (self.slots[idx].key(), self.slots[idx].value()))
    }
}

/// The staged probe (module docs) of up to [`BATCH_CHUNK`] queries, each
/// of which may name a map of its own — the shards of a partitioned
/// table share one pass. `query(i)` is position `i`'s map, key and hash
/// (`hash == key.key_hash()`), or `None` where position `i` holds no
/// query; it is asked once per stage, so it must answer alike each time.
/// Stage 1 computes every probe start — once; the probe reuses it — and
/// prefetches its control word; stage 2 prefetches the slot of
/// `Map::touch_lane` — the one a hit dereferences first, or the one a
/// miss's insert fills; then the probes complete on the warmed
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
            crate::prefetch(&m.tags[*start / GROUP]);
        }
    }
    for (i, &start) in starts[..n].iter().enumerate() {
        if let Some((m, _, h)) = query(i) {
            m.first_touch_slot(start, h);
        }
    }
    for (i, &start) in starts[..n].iter().enumerate() {
        if let Some((m, k, h)) = query(i) {
            debug_assert_eq!(h, k.key_hash(), "get_staged: stale hash");
            found(
                i,
                match m.probe_at(k, h, start) {
                    ProbeOutcome::Hit { idx, .. } => Some(m.slots[idx].value()),
                    _ => None,
                },
            );
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
    /// in this crate's tests, the scalar reference probe (the tag-group
    /// scan is a pure probe optimization, so hits and misses alike must
    /// agree byte for byte).
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
    /// equal the abstract map's (as sets), the control directory is
    /// coherent with the slots, and (in this crate's tests) the
    /// tag-probed read path agrees with the scalar reference walk for
    /// every stored key.
    pub fn check_equiv(&self) {
        assert_eq!(self.imp.size(), self.model.len(), "size mismatch");
        self.imp
            .check_tag_coherence()
            .unwrap_or_else(|e| panic!("tag directory incoherent: {e}"));
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
    /// slots on a 16-byte alignment, so in a live table every slot sits
    /// in one quarter of a 64-byte line and none straddles two.
    #[test]
    fn nat_sized_slots_are_a_quarter_line_and_never_straddle() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<Slot>(), 16);
        assert_eq!(align_of::<Slot>(), 16);
        let m = Map::<vig_packet::FlowId>::new(1000);
        for (i, slot) in m.slots.iter().enumerate() {
            let offset = std::ptr::from_ref(slot) as usize % 64;
            assert_eq!(offset % 16, 0, "slot {i} at line offset {offset}");
        }
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

    #[test]
    #[should_panic(expected = "does not fit 31 bits")]
    fn a_value_past_31_bits_violates_contract() {
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
        // Force a probe path that wraps past the end of the array.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct TailKey(u32);
        impl MapKey for TailKey {
            fn key_hash(&self) -> u64 {
                7 // last slot of capacity 8
            }
            fn to_bits(&self) -> u128 {
                u128::from(self.0)
            }
            fn from_bits(bits: u128) -> Self {
                TailKey(bits as u32)
            }
        }
        let mut m = CheckedMap::<TailKey>::new(8);
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
    /// strategies can place probe starts and tags adversarially while
    /// `id` keeps keys distinct (tag collisions between distinct keys,
    /// the case the SWAR candidate-confirmation step exists for).
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

    /// A hash whose home slot is exactly `start` (`hash % cap`; the
    /// probe itself begins at that slot's group base) and whose
    /// control tag is exactly `tag`: bit 56 is set so the small
    /// mod-`cap` adjustment can never borrow into the tag bits.
    fn adv_hash(tag: u8, start: usize, cap: usize) -> u64 {
        assert!(start < cap);
        let base = (u64::from(tag & 0x7F) << 57) | (1u64 << 56);
        base - base % cap as u64 + start as u64
    }

    #[test]
    fn distinct_tags_same_start_cross_group_boundary() {
        // Capacity 10: two control words, the second a short group of
        // two lanes. All keys start at slot 8 (inside the short group)
        // with pairwise-distinct tags, so every probe must scan the
        // short group, wrap into group 0, and skip busy non-matching
        // lanes by tag alone.
        let mut m = CheckedMap::<AdvKey>::new(10);
        let key = |id: u32| AdvKey {
            id,
            hash: adv_hash(id as u8, 8, 10),
        };
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

    #[test]
    fn extreme_tags_zero_and_127_probe_correctly() {
        // Tag 0x00 gives control byte 0x80 (busy bit only) and tag 0x7F
        // gives 0xFF — the two byte values most likely to trip SWAR
        // borrow/carry edge cases.
        let mut m = CheckedMap::<AdvKey>::new(16);
        for (i, tag) in [0u8, 127, 0, 127, 1, 126].into_iter().enumerate() {
            m.put(
                AdvKey {
                    id: i as u32,
                    hash: adv_hash(tag, 5, 16),
                },
                i,
            )
            .unwrap();
        }
        for i in 0..6u32 {
            let tag = [0u8, 127, 0, 127, 1, 126][i as usize];
            assert_eq!(
                m.get(&AdvKey {
                    id: i,
                    hash: adv_hash(tag, 5, 16),
                }),
                Some(i as usize)
            );
        }
        assert_eq!(
            m.get(&AdvKey {
                id: 99,
                hash: adv_hash(64, 5, 16),
            }),
            None
        );
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

        /// Adversarial hash distributions — every key in one tag group,
        /// tags colliding across distinct keys, probe starts pinned to
        /// the group-boundary / wraparound lanes, capacities that leave
        /// a short last group — never diverge from the abstract model
        /// or the scalar reference probe (both asserted inside
        /// [`CheckedMap`] on every op).
        #[test]
        fn adversarial_hash_distributions_refine_model(
            cap in prop_oneof![Just(9usize), Just(10), Just(16), Just(24)],
            ops in proptest::collection::vec(
                (0u8..3, 0u8..4, 0u8..4, 0u32..5),
                0..160,
            ),
        ) {
            let mut m = CheckedMap::<AdvKey>::new(cap);
            for (kind, t, s, id) in ops {
                // Heavily colliding tag pool (two choices of 0) and
                // starts pinned to the adversarial lanes: slot 0, the
                // last slot (wraparound), mid-table, and the last
                // group's first lane.
                let tag = [0u8, 0, 1, 127][t as usize];
                let start = [0usize, cap - 1, cap / 2, (cap / 8) * 8][s as usize].min(cap - 1);
                let key = AdvKey { id, hash: adv_hash(tag, start, cap) };
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
        /// capacity leaves a short last group, over more than one
        /// 32-key chunk (so the per-chunk `starts` scratch is reused),
        /// with present, absent and duplicate queries — and changes
        /// nothing: entries and control directory are as before.
        #[test]
        fn staged_batch_equals_per_key_lookups_when_nearly_full(
            fill in proptest::collection::vec((0u8..4, 0u8..12, 0u32..40), 120..200),
            erase in proptest::collection::vec(0usize..75, 0..3),
            queries in proptest::collection::vec((0u8..4, 0u8..12, 0u32..48), 65..100),
        ) {
            let cap = 75; // nine full groups and one of three lanes
            let mk = |(t, s, id): (u8, u8, u32)| AdvKey {
                id,
                // Few tags, few starts (the last lanes included): long,
                // interleaved probe chains that wrap.
                hash: adv_hash([0, 0, 1, 127][t as usize], (s as usize * 7 + 68) % cap, cap),
            };
            let mut m = Map::<AdvKey>::new(cap);
            let mut stored = Vec::new();
            for k in fill.into_iter().map(mk) {
                if m.get(&k).is_none() && m.put(k.clone(), k.id as usize).is_ok() {
                    stored.push(k);
                }
            }
            // Erases in the middle of the clusters: the shift moves
            // entries back across group boundaries and the wrap.
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
            prop_assert!(m.check_tag_coherence().is_ok());
        }

        /// Under insert-only sequences a free slot only ever becomes
        /// busy, so the miss stop (the insert position) only moves
        /// outward and `probe_len` is monotone non-decreasing for every
        /// key — present or absent — as the table fills.
        #[test]
        fn probe_len_monotone_under_inserts(
            inserts in proptest::collection::hash_set((0u8..2, 0u8..8, 0u32..8), 1..24),
            queries in proptest::collection::vec((0u8..2, 0u8..8, 0u32..12), 1..12),
        ) {
            let cap = 17; // short last group of one lane
            let mut m = CheckedMap::<AdvKey>::new(cap);
            let mk = |(t, s, id): (u8, u8, u32)| AdvKey {
                id,
                hash: adv_hash([0, 127][t as usize], (s as usize * 3) % cap, cap),
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

    /// The control directory's busy lanes, and the probe lengths of
    /// the stored keys summed: what a history-free map fixes by its live
    /// keys alone.
    fn busy_lanes_and_probe_sum(m: &Map<AdvKey>) -> (Vec<u64>, usize) {
        let busy = m.tags.iter().map(|w| w & LANE_MSB).collect();
        (busy, m.iter().map(|(k, _)| m.probe_len(&k)).sum())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The map is history-free: after a run of puts and erases that
        /// holds the table between 85 % full and full, which lanes are
        /// busy and the stored keys' summed probe lengths equal those of
        /// a fresh map built from the live keys alone, in shuffled
        /// order. Keys collide in tag and start, and starts sit on the
        /// first lane, the last (wraparound), mid-table, the last
        /// group's first lane and anywhere.
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
                let start = match (r >> 8) % 5 {
                    0 => 0,
                    1 => cap - 1,
                    2 => cap / 2,
                    3 => (cap - 1) / GROUP * GROUP,
                    _ => (r >> 16) as usize % cap,
                };
                AdvKey { id, hash: adv_hash([0, 0, 1, 127][(r % 4) as usize], start, cap) }
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
            prop_assert!(m.check_tag_coherence().is_ok(), "{:?}", m.check_tag_coherence());
            for i in (1..live.len()).rev() {
                live.swap(i, next() as usize % (i + 1));
            }
            let mut fresh = Map::<AdvKey>::new(cap);
            for k in &live {
                prop_assert_eq!(m.get(k), Some(k.id as usize));
                fresh.put(k.clone(), k.id as usize).unwrap();
            }
            prop_assert_eq!(busy_lanes_and_probe_sum(&m), busy_lanes_and_probe_sum(&fresh));
        }

        /// Stage 2 of the staged probe touches the lane where the probe
        /// ends in its start group. For an absent key that is the lane
        /// `put_with_hash` then fills, or a lane before it carrying the
        /// key's tag (the slot the probe compares first); it touches
        /// nothing only when the insert lands past the start group. For
        /// a present key matched in its start group it is the key's own
        /// lane, or the first lane before it carrying the same tag. Odd
        /// capacities give a short last group and wraparound; loads run
        /// from empty to 95 % full, after erasures.
        #[test]
        fn stage_two_touches_the_lane_the_probe_ends_at(
            half in 4usize..100,
            load in 0usize..=95,
            seed in any::<u64>(),
        ) {
            let cap = 2 * half + 1;
            let mut rng = seed;
            let mut next = move || {
                rng = rng.key_hash();
                rng
            };
            let mut id = 0u32;
            let mut mk = |r: u64| {
                id += 1;
                let start = match (r >> 8) % 4 {
                    0 => cap - 1,
                    1 => (cap - 1) / GROUP * GROUP,
                    _ => (r >> 16) as usize % cap,
                };
                AdvKey { id, hash: adv_hash([0, 0, 1, 127][(r % 4) as usize], start, cap) }
            };
            let target = cap * load / 100;
            let mut m = Map::<AdvKey>::new(cap);
            let mut live = Vec::new();
            while live.len() < target + target / 4 && !m.is_full() {
                let k = mk(next());
                m.put(k.clone(), k.id as usize).unwrap();
                live.push(k);
            }
            while live.len() > target {
                let k = live.swap_remove(next() as usize % live.len());
                m.erase(&k);
            }
            let dist = |start: usize, idx: usize| (idx + cap - start) % cap;
            let tagged = |idx: usize, h: u64| m.ctrl(idx) == ctrl_byte(h);
            for k in &live {
                let ProbeOutcome::Hit { idx, .. } = m.probe(k, k.hash) else {
                    unreachable!("a live key is found");
                };
                let start = m.start_of(k.hash);
                let lane = m.touch_lane(start, k.hash);
                if dist(start, idx) < GROUP.min(cap - start) {
                    let first = (start..=idx).find(|&l| tagged(l, k.hash));
                    prop_assert_eq!(lane, first, "present key at {}", idx);
                } else if let Some(l) = lane {
                    prop_assert!(tagged(l, k.hash) && dist(start, l) < dist(start, idx));
                }
            }
            for _ in 0..16 {
                let q = mk(next());
                let start = m.start_of(q.hash);
                let lane = m.touch_lane(start, q.hash);
                let mut after = m.clone();
                after.put(q.clone(), 0).unwrap();
                let ProbeOutcome::Hit { idx: filled, .. } = after.probe(&q, q.hash) else {
                    unreachable!("an inserted key is found");
                };
                match lane {
                    Some(l) => prop_assert!(
                        l == filled
                            || (tagged(l, q.hash) && dist(start, l) < dist(start, filled)),
                        "absent key touches {} but fills {}", l, filled
                    ),
                    None => prop_assert!(
                        dist(start, filled) >= GROUP.min(cap - start),
                        "absent key touches nothing but fills {} in its start group", filled
                    ),
                }
            }
        }
    }

    /// Map capacity of the occupancy differentials below.
    const CAP: usize = 4096;

    /// The tag-probed read path equals the scalar reference for a query
    /// mix of hits, misses, and erased-then-reinserted keys.
    fn assert_map_matches_scalar(m: &Map<u64>, queries: impl Iterator<Item = u64>) {
        for q in queries {
            m.assert_matches_scalar(&q);
        }
        m.check_tag_coherence().expect("tag directory incoherent");
    }

    /// The directory-layer differential at 49 % and 98 % occupancy,
    /// through fill → erase (backward shifts through the clusters) →
    /// refill (inserts into the freed lanes) — the sequence that
    /// stresses the free-lane stop the SWAR walk must share with the
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

    /// While a table fills from empty to 98%, `probe_len` of a fixed
    /// query set is monotone non-decreasing (under inserts alone no busy
    /// slot frees, so the miss stop can only move outward), and at every
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
}
