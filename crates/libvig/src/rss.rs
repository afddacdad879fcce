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
//! [`shard_of`] is the reduction itself. It consumes the *upper* 32
//! bits of the hash, deliberately disjoint from the low bits the
//! open-addressing directory consumes (`hash % capacity` in
//! [`crate::map::Map`]), so shard choice and in-shard probe position
//! stay uncorrelated even for adversarially aligned keys.
//!
//! A burst is not split into per-shard sub-batches: the staged probe
//! ([`crate::map::get_staged`]) takes the burst's queries where they
//! sit, each naming its own shard's map, so routing a query is one
//! `shard_of` per stage and nothing is gathered, copied or scattered.

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
}
