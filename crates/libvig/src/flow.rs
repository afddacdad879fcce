//! The network-flow abstraction (`flow.h`): key hashing. (The NAT's
//! stored record and its `DmapValue` instance live in `vignat`, beside
//! the TCP tracker the record carries; the instance for
//! [`vig_packet::Flow`] below exists for this crate's own suites only.)
//!
//! libVig keys carry their own hash functions (`map_key_hash` in the C
//! code). The `FlowId` hash below mixes all five tuple fields through a
//! SplitMix64-style finalizer — cheap, and uniform enough that the flow
//! table's probe chains stay short at the occupancies the paper
//! evaluates (Fig. 12 shows latency flat in table occupancy, which
//! requires exactly this property).

use crate::map::MapKey;
use vig_packet::{ExtKey, FlowId};

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl MapKey for FlowId {
    fn key_hash(&self) -> u64 {
        let a = (u64::from(self.src_ip.raw()) << 32) | u64::from(self.dst_ip.raw());
        let b = (u64::from(self.src_port) << 32)
            | (u64::from(self.dst_port) << 16)
            | u64::from(self.proto.number());
        mix(mix(a) ^ b)
    }
}

/// No table hashes an external key (its endpoint names its slot). Kept
/// only because `benchmark/src/ladder.rs` (`flow_manager.lookup_ext_ns`)
/// and `tests/shard_edge_cases.rs` still hash one, and a PR that claims
/// a gain may not edit `benchmark/`: the next benchmark PR deletes it.
impl MapKey for ExtKey {
    fn key_hash(&self) -> u64 {
        let a = (u64::from(self.dst_ip.raw()) << 16) | u64::from(self.ext_port);
        let b = (u64::from(self.ext_ip.raw()) << 24)
            | (u64::from(self.dst_port) << 8)
            | u64::from(self.proto.number());
        mix(mix(a) ^ b)
    }
}

/// A whole [`vig_packet::Flow`] as a flow-table value, endpoint stored:
/// what the load-factor test of `dmap` and the tests below fill their
/// tables with. The NAT stores a smaller record.
#[cfg(test)]
impl crate::dmap::DmapValue for vig_packet::Flow {
    type KeyA = FlowId;
    type KeyB = ExtKey;

    fn key_a(&self) -> FlowId {
        self.int_key
    }

    fn key_b(&self, _index: usize) -> ExtKey {
        self.ext_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmap::DoubleMap;
    use proptest::prelude::*;
    use vig_packet::{Flow, Ip4, Proto};

    fn fid(host: u8, port: u16) -> FlowId {
        FlowId {
            src_ip: Ip4::new(192, 168, 0, host),
            src_port: port,
            dst_ip: Ip4::new(1, 2, 3, 4),
            dst_port: 80,
            proto: Proto::Tcp,
        }
    }

    #[test]
    fn flow_table_double_lookup() {
        // VigNAT's placement: the external port names the slot.
        const START_PORT: u16 = 60_000;
        let mut table: DoubleMap<Flow> = DoubleMap::new(16);
        let flow = Flow {
            int_key: fid(10, 4242),
            ext_ip: Ip4::new(10, 1, 0, 1),
            ext_port: START_PORT + 3,
        };
        table.put(3, flow).unwrap();
        assert_eq!(table.get_by_a(&fid(10, 4242)), Some(3));
        let ek = flow.ext_key();
        let slot = usize::from(ek.ext_port - START_PORT);
        assert_eq!(table.get_by_b_at(&ek, slot), Some(3));
        assert_eq!(table.get(3).unwrap().ext_port, 60003);
        // Same endpoint, another remote: the whole key is compared.
        let other = ExtKey { dst_port: 81, ..ek };
        assert_eq!(table.get_by_b_at(&other, slot), None);
    }

    #[test]
    fn distinct_tuples_have_distinct_hashes_mostly() {
        // Not a formal property (collisions are legal), but a smoke test
        // that the mixer actually differentiates nearby tuples.
        use std::collections::HashSet;
        let mut hashes = HashSet::new();
        for host in 0..32u8 {
            for port in 1000..1032u16 {
                hashes.insert(fid(host, port).key_hash());
            }
        }
        assert!(
            hashes.len() > 1000,
            "hash must separate nearby tuples: {}",
            hashes.len()
        );
    }

    proptest! {
        /// Hash is a pure function of the key.
        #[test]
        fn hash_is_deterministic(host in any::<u8>(), port in any::<u16>()) {
            let k = fid(host, port);
            prop_assert_eq!(k.key_hash(), fid(host, port).key_hash());
        }

        /// The derived external key commutes with storage: inserting a
        /// flow at the slot its external port names and looking it up
        /// by its ext_key there always finds it.
        #[test]
        fn ext_key_lookup_total(host in any::<u8>(), port in any::<u16>(), ext in any::<u16>()) {
            let mut table: DoubleMap<Flow> = DoubleMap::new(4);
            let flow = Flow { int_key: fid(host, port), ext_ip: Ip4::new(10, 1, 0, 1), ext_port: ext };
            let slot = usize::from(ext % 4);
            table.put(slot, flow).unwrap();
            prop_assert_eq!(table.get_by_b_at(&flow.ext_key(), slot), Some(slot));
        }
    }
}
