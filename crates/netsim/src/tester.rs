//! The MoonGen analog: deterministic workload generation.
//!
//! The paper's Tester generates two flow classes (§6):
//!
//! * **background flows** — 10 to 64,000 of them, kept alive for the
//!   whole experiment, controlling flow-table occupancy;
//! * **probe flows** — 1,000 flows at 0.47 pps that expire between their
//!   packets, so each probe packet exercises the NAT's worst-case path
//!   (miss → expire → allocate → insert).
//!
//! [`FlowGen`] produces the same flow universes deterministically: flow
//! `i` of a class always has the same 5-tuple, so experiments are
//! reproducible and the return path can be synthesized. Frames are
//! written into caller buffers (64-byte minimum frames, like the
//! evaluation's) with valid checksums.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vig_packet::{builder::PacketBuilder, Direction, FlowFields, Ip4, Proto};

/// The paper's frame size: 64-byte minimum Ethernet frames.
pub const FRAME_LEN: usize = 64;

/// Deterministic flow-universe generator. Flows of different classes
/// never collide (distinct source prefixes).
#[derive(Debug, Clone)]
pub struct FlowGen {
    remote_ip: Ip4,
    remote_port: u16,
    proto: Proto,
}

impl FlowGen {
    /// Flows towards one remote service (the paper's traffic shape:
    /// many clients, one sink).
    pub fn new(proto: Proto) -> FlowGen {
        FlowGen {
            remote_ip: Ip4::new(1, 1, 1, 1),
            remote_port: 80,
            proto,
        }
    }

    /// The `i`-th background flow (distinct internal source per `i`;
    /// supports i up to 2^24).
    pub fn background(&self, i: u32) -> FlowFields {
        debug_assert!(i < (1 << 24));
        FlowFields {
            src_ip: Ip4(0x0a00_0000 | i), // 10.x.y.z
            src_port: 10_000 + (i % 40_000) as u16,
            dst_ip: self.remote_ip,
            dst_port: self.remote_port,
            proto: self.proto,
        }
    }

    /// The `j`-th probe flow (disjoint source prefix from backgrounds).
    pub fn probe(&self, j: u32) -> FlowFields {
        debug_assert!(j < (1 << 24));
        FlowFields {
            src_ip: Ip4(0x0b00_0000 | j), // 11.x.y.z
            src_port: 10_000 + (j % 40_000) as u16,
            dst_ip: self.remote_ip,
            dst_port: self.remote_port,
            proto: self.proto,
        }
    }

    /// The reply the remote endpoint sends to a translated flow: swap
    /// endpoints, address the NAT's external ip and allocated port.
    pub fn return_for(&self, external_ip: Ip4, ext_port: u16) -> FlowFields {
        FlowFields {
            src_ip: self.remote_ip,
            src_port: self.remote_port,
            dst_ip: external_ip,
            dst_port: ext_port,
            proto: self.proto,
        }
    }

    /// Write a 64-byte frame for `fields` into `buf`; returns its length.
    pub fn write_frame(&self, fields: &FlowFields, buf: &mut [u8]) -> usize {
        let b = match fields.proto {
            Proto::Tcp => PacketBuilder::tcp(
                fields.src_ip,
                fields.dst_ip,
                fields.src_port,
                fields.dst_port,
            ),
            Proto::Udp => PacketBuilder::udp(
                fields.src_ip,
                fields.dst_ip,
                fields.src_port,
                fields.dst_port,
            ),
        }
        .pad_to(FRAME_LEN);
        b.build_into(buf).expect("frame buffer must hold 64 bytes")
    }
}

/// A shuffled traversal order over `n` indices (used to randomize
/// refresh order so the flow table sees no artificial locality).
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    v.shuffle(&mut rng);
    v
}

/// Which arrival interface a flow-fields value belongs to in the
/// standard testbed wiring (internal sources are 10/11.x, the remote is
/// the external side).
pub fn direction_of(fields: &FlowFields) -> Direction {
    if fields.src_ip.raw() >> 24 == 0x0a || fields.src_ip.raw() >> 24 == 0x0b {
        Direction::Internal
    } else {
        Direction::External
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vig_packet::parse_l3l4;

    #[test]
    fn background_flows_are_distinct() {
        let g = FlowGen::new(Proto::Udp);
        let mut seen = HashSet::new();
        for i in 0..10_000 {
            assert!(
                seen.insert(g.background(i)),
                "duplicate background flow {i}"
            );
        }
    }

    #[test]
    fn probe_and_background_universes_are_disjoint() {
        let g = FlowGen::new(Proto::Udp);
        let bg: HashSet<_> = (0..1000).map(|i| g.background(i)).collect();
        for j in 0..1000 {
            assert!(!bg.contains(&g.probe(j)));
        }
    }

    #[test]
    fn frames_are_64_bytes_and_parse() {
        let g = FlowGen::new(Proto::Tcp);
        let mut buf = [0u8; 2048];
        let n = g.write_frame(&g.background(7), &mut buf);
        assert_eq!(n, FRAME_LEN);
        let (_, ff) = parse_l3l4(&buf[..n]).unwrap();
        assert_eq!(ff, g.background(7));
    }

    #[test]
    fn return_path_addresses_the_nat() {
        let g = FlowGen::new(Proto::Udp);
        let ext_ip = Ip4::new(10, 1, 0, 1);
        let r = g.return_for(ext_ip, 4242);
        assert_eq!(r.dst_ip, ext_ip);
        assert_eq!(r.dst_port, 4242);
        assert_eq!(direction_of(&r), Direction::External);
        assert_eq!(direction_of(&g.background(1)), Direction::Internal);
        assert_eq!(direction_of(&g.probe(1)), Direction::Internal);
    }

    #[test]
    fn mixed_universe_is_deterministic_and_near_the_ratio() {
        // What is left of the TCP-mix knob's test: the two
        // single-protocol constructors, the only values ever in use.
        assert_eq!(FlowGen::new(Proto::Tcp).background(3).proto, Proto::Tcp);
        assert_eq!(FlowGen::new(Proto::Udp).background(3).proto, Proto::Udp);
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let a = shuffled_indices(100, 42);
        let b = shuffled_indices(100, 42);
        assert_eq!(a, b, "same seed, same order");
        let c = shuffled_indices(100, 43);
        assert_ne!(a, c, "different seed, different order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
