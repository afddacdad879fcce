//! The network-flow abstraction (`flow.h`): key hashing and packing.
//! (The NAT's stored record and its `DmapValue` instance live in
//! `vignat`, beside the TCP tracker the record carries; the instance for
//! [`vig_packet::Flow`] below exists for this crate's own suites only.)
//!
//! libVig keys carry their own hash functions (`map_key_hash` in the C
//! code). The `FlowId` hash below mixes all five tuple fields through a
//! SplitMix64-style finalizer — cheap, and uniform enough that the flow
//! table's probe chains stay short at the occupancies the paper
//! evaluates (Fig. 12 shows latency flat in table occupancy, which
//! requires exactly this property).
//!
//! Both keys pack exactly into the map's 97 key bits
//! ([`crate::map::KEY_BITS`]): two addresses, two ports and one bit for
//! the protocol, which is TCP or UDP.

use crate::map::MapKey;
use vig_packet::{ExtKey, FlowId, Ip4, Proto};

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Two addresses, two ports and a protocol, packed exactly:
/// `ip_a:32 | ip_b:32 | port_a:16 | port_b:16 | udp:1`, 97 bits.
fn pack(ip_a: Ip4, ip_b: Ip4, port_a: u16, port_b: u16, proto: Proto) -> u128 {
    (u128::from(ip_a.raw()) << 65)
        | (u128::from(ip_b.raw()) << 33)
        | (u128::from(port_a) << 17)
        | (u128::from(port_b) << 1)
        | u128::from(proto == Proto::Udp)
}

/// The fields [`pack`] packed, in its order.
fn unpack(bits: u128) -> (Ip4, Ip4, u16, u16, Proto) {
    (
        Ip4((bits >> 65) as u32),
        Ip4((bits >> 33) as u32),
        (bits >> 17) as u16,
        (bits >> 1) as u16,
        if bits & 1 == 1 {
            Proto::Udp
        } else {
            Proto::Tcp
        },
    )
}

impl MapKey for FlowId {
    fn key_hash(&self) -> u64 {
        let a = (u64::from(self.src_ip.raw()) << 32) | u64::from(self.dst_ip.raw());
        let b = (u64::from(self.src_port) << 32)
            | (u64::from(self.dst_port) << 16)
            | u64::from(self.proto.number());
        mix(mix(a) ^ b)
    }
    fn to_bits(&self) -> u128 {
        pack(
            self.src_ip,
            self.dst_ip,
            self.src_port,
            self.dst_port,
            self.proto,
        )
    }
    fn from_bits(bits: u128) -> FlowId {
        let (src_ip, dst_ip, src_port, dst_port, proto) = unpack(bits);
        FlowId {
            src_ip,
            src_port,
            dst_ip,
            dst_port,
            proto,
        }
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
    fn to_bits(&self) -> u128 {
        pack(
            self.ext_ip,
            self.dst_ip,
            self.ext_port,
            self.dst_port,
            self.proto,
        )
    }
    fn from_bits(bits: u128) -> ExtKey {
        let (ext_ip, dst_ip, ext_port, dst_port, proto) = unpack(bits);
        ExtKey {
            ext_ip,
            ext_port,
            dst_ip,
            dst_port,
            proto,
        }
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

    /// Five fields from raw draws: the two keys' shared shape.
    type Fields = (u32, u32, u16, u16, bool);

    fn flow_id((a, b, p, q, udp): Fields) -> FlowId {
        FlowId {
            src_ip: Ip4(a),
            src_port: p,
            dst_ip: Ip4(b),
            dst_port: q,
            proto: if udp { Proto::Udp } else { Proto::Tcp },
        }
    }

    fn ext_key((a, b, p, q, udp): Fields) -> ExtKey {
        ExtKey {
            ext_ip: Ip4(a),
            ext_port: p,
            dst_ip: Ip4(b),
            dst_port: q,
            proto: if udp { Proto::Udp } else { Proto::Tcp },
        }
    }

    /// `b`: `a` with field `which` (0–4; 5 keeps them equal) replaced
    /// by `with`'s, so pairs differ in exactly one field or not at all.
    fn neighbour(a: Fields, with: Fields, which: u8) -> Fields {
        let mut b = a;
        match which {
            0 => b.0 = with.0,
            1 => b.1 = with.1,
            2 => b.2 = with.2,
            3 => b.3 = with.3,
            4 => b.4 = with.4,
            _ => {}
        }
        b
    }

    fn fields() -> impl Strategy<Value = Fields> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<bool>(),
        )
    }

    /// Packing is a bijection onto its image: the key round-trips, two
    /// keys share bits exactly when they are equal, and nothing lands in
    /// the top 31 bits a slot keeps for its value.
    fn assert_exact_packing<K: MapKey + core::fmt::Debug>(a: &K, b: &K) {
        assert_eq!(&K::from_bits(a.to_bits()), a);
        assert_eq!(
            a.to_bits() >> crate::map::KEY_BITS,
            0,
            "{a:?} is wider than a slot's key"
        );
        assert_eq!(a == b, a.to_bits() == b.to_bits(), "{a:?} vs {b:?}");
    }

    proptest! {
        #[test]
        fn flow_keys_pack_exactly_into_97_bits(
            a in fields(),
            with in fields(),
            which in 0u8..6,
        ) {
            let b = neighbour(a, with, which);
            assert_exact_packing(&flow_id(a), &flow_id(b));
            assert_exact_packing(&ext_key(a), &ext_key(b));
            assert_exact_packing(&flow_id(a), &flow_id(with));
            assert_exact_packing(&ext_key(a), &ext_key(with));
        }

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
