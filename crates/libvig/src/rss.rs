//! RSS-style shard routing: the hash→shard reduction NIC receive-side
//! scaling performs in hardware, reproduced for partitioning libVig
//! flow tables across cores.
//!
//! A sharded flow table keeps N completely independent sub-tables
//! ("shards") and routes every key to exactly one of them by a function
//! of the key's hash. Because libVig keys already carry a
//! well-distributed 64-bit hash ([`crate::map::MapKey::key_hash`]) that
//! the datapath memoizes per packet, the shard selector can reuse that
//! same hash — routing costs one multiply-shift, no extra hash.
//!
//! Two pieces live here:
//!
//! * [`shard_of`] — the reduction itself. It consumes the *upper* 32
//!   bits of the hash, deliberately disjoint from the low bits the
//!   open-addressing directory consumes (`hash % capacity` in
//!   [`crate::map::Map`]), so shard choice and in-shard probe position
//!   stay uncorrelated even for adversarially aligned keys.
//! * [`BatchSplit`] — a reusable gather/scatter scratch that partitions
//!   one batched probe ([`crate::dmap::DoubleMap::lookup_batch`]) into
//!   per-shard sub-batches and maps results back to query order. All
//!   buffers are retained across calls, so a steady-state burst path
//!   performs no allocation here (§5.1.1's preallocation rule extended
//!   to the sharded fast path).

/// Map a key hash to a shard index in `0..shards`.
///
/// Multiply-shift range reduction over the hash's upper 32 bits:
/// `(hi32(hash) * shards) >> 32`. For a uniformly distributed hash the
/// result is uniform over `0..shards` for *any* shard count (no
/// power-of-two requirement), and it never touches the low bits the
/// in-shard directory probe uses.
///
/// `shards` must be non-zero (callers size it at construction; a zero
/// here is a configuration bug, caught by the sharded table's
/// constructor).
#[inline(always)]
pub fn shard_of(hash: u64, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard_of with zero shards");
    (((hash >> 32) * shards as u64) >> 32) as usize
}

/// Map an external (return-traffic) port to the shard owning that
/// slice of the NAT's port range: shard `s` owns ports
/// `start_port + s·ports_per_shard .. start_port + (s+1)·ports_per_shard`.
/// `None` when the port lies outside the partitioned range (below
/// `start_port`, or past the last full slice — capacity remainders are
/// dropped by the sharded table, so they route nowhere).
///
/// This is the *one* definition of the port partition: the sharded
/// flow table's routing, the multi-queue NIC model's RSS classifier,
/// and the core queue-fed driver all call it, so hardware steering,
/// software dispatch, and table lookup agree by construction.
#[inline(always)]
pub fn shard_of_port(
    port: u16,
    start_port: u16,
    ports_per_shard: usize,
    shards: usize,
) -> Option<usize> {
    debug_assert!(ports_per_shard > 0, "shard_of_port with empty slices");
    let off = usize::from(port.checked_sub(start_port)?);
    let s = off / ports_per_shard;
    (s < shards).then_some(s)
}

/// One shard's slice of a split batch: the gathered keys (and, for a
/// hash-routed split, their hashes), plus each query's position in the
/// original batch.
#[derive(Debug, Clone)]
struct SubBatch<K> {
    keys: Vec<K>,
    hashes: Vec<u64>,
    origins: Vec<u32>,
}

impl<K> Default for SubBatch<K> {
    fn default() -> SubBatch<K> {
        SubBatch {
            keys: Vec::new(),
            hashes: Vec::new(),
            origins: Vec::new(),
        }
    }
}

/// Reusable gather/scatter scratch for routing one batched lookup
/// across shards. See the module docs.
///
/// Usage per burst: [`BatchSplit::split`] (or [`BatchSplit::split_by`])
/// once, then for each shard run its probe over [`BatchSplit::keys`]
/// (and [`BatchSplit::hashes`]) and write each result back at
/// [`BatchSplit::origins`]`[j]` of the caller's query-ordered output.
#[derive(Debug, Clone)]
pub struct BatchSplit<K> {
    subs: Vec<SubBatch<K>>,
}

impl<K: Clone> BatchSplit<K> {
    /// Scratch for `shards` sub-batches.
    pub fn new(shards: usize) -> BatchSplit<K> {
        assert!(shards > 0, "BatchSplit needs at least one shard");
        BatchSplit {
            subs: (0..shards).map(|_| SubBatch::default()).collect(),
        }
    }

    /// Number of shards this scratch routes to.
    pub fn shards(&self) -> usize {
        self.subs.len()
    }

    /// Partition `(keys, hashes)` into per-shard sub-batches by
    /// [`shard_of`] on each hash. `hashes[i]` must be `keys[i]`'s hash
    /// (the same memoized-hash precondition every `*_with_hash`
    /// operation carries). Previous contents are cleared; buffers are
    /// reused.
    pub fn split(&mut self, keys: &[K], hashes: &[u64]) {
        assert_eq!(keys.len(), hashes.len(), "split: keys/hashes mismatch");
        self.clear_for(keys.len());
        let n = self.subs.len();
        for (i, (k, &h)) in keys.iter().zip(hashes).enumerate() {
            let sub = &mut self.subs[shard_of(h, n)];
            sub.keys.push(k.clone());
            sub.hashes.push(h);
            sub.origins.push(i as u32);
        }
    }

    /// Partition `keys` by the caller's routing function, called once
    /// per query: `route(key)` names the query's shard, or `None` for a
    /// query no shard owns (it joins no sub-batch, so its slot of the
    /// caller's output keeps the "not found" it started with). Return
    /// traffic routes this way, by the endpoint partition, unhashed:
    /// [`BatchSplit::hashes`] is empty afterwards.
    pub fn split_by(&mut self, keys: &[K], route: impl Fn(&K) -> Option<usize>) {
        self.clear_for(keys.len());
        for (i, k) in keys.iter().enumerate() {
            let Some(s) = route(k) else { continue };
            let sub = &mut self.subs[s];
            sub.keys.push(k.clone());
            sub.origins.push(i as u32);
        }
    }

    /// Empty every sub-batch ahead of a split of `queries` queries.
    fn clear_for(&mut self, queries: usize) {
        assert!(
            queries <= u32::MAX as usize,
            "batch too large for u32 origins"
        );
        for sub in &mut self.subs {
            sub.keys.clear();
            sub.hashes.clear();
            sub.origins.clear();
        }
    }

    /// The keys routed to shard `s` by the last [`BatchSplit::split`].
    pub fn keys(&self, s: usize) -> &[K] {
        &self.subs[s].keys
    }

    /// The hashes routed to shard `s` by the last [`BatchSplit::split`],
    /// parallel to [`BatchSplit::keys`].
    pub fn hashes(&self, s: usize) -> &[u64] {
        &self.subs[s].hashes
    }

    /// Original batch positions of shard `s`'s queries, parallel to
    /// [`BatchSplit::keys`]: query `j` of shard `s` came from position
    /// `origins(s)[j]` of the split input.
    pub fn origins(&self, s: usize) -> &[u32] {
        &self.subs[s].origins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapKey;

    #[test]
    fn shard_of_is_in_range_and_deterministic() {
        for shards in 1..=7usize {
            for k in 0..4_000u64 {
                let h = k.key_hash();
                let s = shard_of(h, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(h, shards), "pure function of the hash");
            }
        }
    }

    #[test]
    fn shard_of_distributes_roughly_uniformly() {
        let shards = 4;
        let mut counts = [0usize; 4];
        let n = 40_000u64;
        for k in 0..n {
            counts[shard_of(k.key_hash(), shards)] += 1;
        }
        let expect = n as usize / shards;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > expect * 9 / 10 && c < expect * 11 / 10,
                "shard {s} got {c} of {n} keys, expected ~{expect}"
            );
        }
    }

    #[test]
    fn shard_of_port_partitions_the_range() {
        // 4 shards of 2 ports each, starting at 1000.
        assert_eq!(shard_of_port(999, 1000, 2, 4), None);
        assert_eq!(shard_of_port(1000, 1000, 2, 4), Some(0));
        assert_eq!(shard_of_port(1003, 1000, 2, 4), Some(1));
        assert_eq!(shard_of_port(1007, 1000, 2, 4), Some(3));
        assert_eq!(shard_of_port(1008, 1000, 2, 4), None);
        assert_eq!(shard_of_port(0, 1000, 2, 4), None, "underflow is a miss");
    }

    #[test]
    fn shard_of_one_shard_is_always_zero() {
        for k in 0..1000u64 {
            assert_eq!(shard_of(k.key_hash(), 1), 0);
        }
    }

    #[test]
    fn split_partitions_and_scatter_reconstructs() {
        let shards = 3;
        let keys: Vec<u64> = (0..257).collect();
        let hashes: Vec<u64> = keys.iter().map(|k| k.key_hash()).collect();
        let mut split = BatchSplit::new(shards);
        split.split(&keys, &hashes);

        // Every query lands in exactly one shard, at the shard its hash
        // routes to, and scattering by origins reconstructs the batch.
        let mut reconstructed = vec![None; keys.len()];
        let mut total = 0;
        for s in 0..shards {
            assert_eq!(split.keys(s).len(), split.hashes(s).len());
            assert_eq!(split.keys(s).len(), split.origins(s).len());
            total += split.keys(s).len();
            for (j, &orig) in split.origins(s).iter().enumerate() {
                assert_eq!(shard_of(split.hashes(s)[j], shards), s);
                assert!(reconstructed[orig as usize].is_none(), "duplicate origin");
                reconstructed[orig as usize] = Some(split.keys(s)[j]);
            }
        }
        assert_eq!(total, keys.len());
        let got: Vec<u64> = reconstructed.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn split_by_routes_once_per_key_and_skips_unowned() {
        let keys: Vec<u64> = (0..40).collect();
        let calls = std::cell::Cell::new(0);
        let mut split = BatchSplit::new(3);
        split.split_by(&keys, |&k| {
            calls.set(calls.get() + 1);
            (k % 4 != 3).then_some((k % 4) as usize)
        });
        assert_eq!(calls.get(), keys.len());
        for s in 0..3 {
            assert_eq!(split.keys(s).len(), 10);
            assert!(split.hashes(s).is_empty(), "routed without hashing");
            for (j, &orig) in split.origins(s).iter().enumerate() {
                assert_eq!(split.keys(s)[j], keys[orig as usize]);
                assert_eq!(keys[orig as usize] % 4, s as u64);
            }
        }
    }

    #[test]
    fn split_reuses_buffers_across_calls() {
        let keys: Vec<u64> = (0..64).collect();
        let hashes: Vec<u64> = keys.iter().map(|k| k.key_hash()).collect();
        let mut split = BatchSplit::new(2);
        split.split(&keys, &hashes);
        let first: usize = (0..2).map(|s| split.keys(s).len()).sum();
        assert_eq!(first, 64);
        // A smaller second batch must fully replace the first.
        split.split(&keys[..8], &hashes[..8]);
        let second: usize = (0..2).map(|s| split.keys(s).len()).sum();
        assert_eq!(second, 8);
    }
}
