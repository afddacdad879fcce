//! Sharded/unsharded differential tests, in the style of
//! `tests/batch_equivalence.rs`: the N-shard NAT must be
//! packet-for-packet equivalent to its references on adversarial
//! traffic.
//!
//! Three equivalences, which together give the sharding correctness
//! argument:
//!
//! 1. **1 shard ≡ unsharded**, byte-for-byte: with one shard the
//!    partition is trivial (full port range, `shard_of ≡ 0`), so every
//!    output frame, drop reason, slot, port and LRU timestamp must be
//!    identical to the plain [`FlowManager`]-backed NAT.
//! 2. **N shards ≡ N independent 1-shard NATs**, byte-for-byte: each
//!    shard behaves exactly like a standalone NAT configured with that
//!    shard's capacity/port slice and fed its dispatch subsequence —
//!    per-shard state disjointness means partitioning changes *where*
//!    state lives, never *what* the NAT does. Combined with (1), the
//!    N-shard NAT is packet-for-packet the composition of N unsharded
//!    NATs.
//! 3. **parallel ≡ sequential**: the `std::thread` driver
//!    ([`ParallelShardedNat`]) produces bit-identical frames, verdicts
//!    and state to the single-threaded sharded NAT — threads add
//!    concurrency, not observable behaviour (shards share nothing).
//!
//! Plus the semantic anchor: the sharded NAT's decisions satisfy the
//! executable RFC 3022 spec, so the per-flow NAT invariants survive
//! partitioning unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vignat_repro::libvig::map::MapKey;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowManager, FlowTable, NatConfig, ShardedFlowManager};
use vignat_repro::packet::{
    builder::PacketBuilder, Direction, Flow, FlowFields, FlowId, Ip4, Proto,
};
use vignat_repro::sim::dpdk::Mempool;
use vignat_repro::sim::harness::ParallelShardedNat;
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb, Verdict, VigNatMb};

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 64,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 4096,
        ..NatConfig::paper_default()
    }
}

/// One randomized frame of adversarial traffic (mirrors
/// `batch_equivalence::gen_frame`): mostly valid internal flows from a
/// small pool (repeats, new flows, per-shard TableFull), return traffic
/// to live and dead ports in and out of the NAT range, bit flips,
/// truncations, and raw noise.
fn gen_frame(rng: &mut StdRng) -> (Direction, Vec<u8>) {
    let class = rng.gen_range(0..10u8);
    match class {
        0..=4 => {
            let host = rng.gen_range(1..=48u8);
            let port = 1024 + u16::from(rng.gen_range(0..4u8));
            let frame = if rng.gen_bool(0.5) {
                PacketBuilder::udp(Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1), port, 53).build()
            } else {
                PacketBuilder::tcp(Ip4::new(10, 0, 0, host), Ip4::new(1, 1, 1, 1), port, 80).build()
            };
            (Direction::Internal, frame)
        }
        5..=6 => {
            let ext_port = 4090 + u16::from(rng.gen_range(0..80u8)); // straddles the range
            let frame =
                PacketBuilder::udp(Ip4::new(1, 1, 1, 1), Ip4::new(203, 0, 113, 1), 53, ext_port)
                    .build();
            (Direction::External, frame)
        }
        7 => {
            let mut frame =
                PacketBuilder::tcp(Ip4::new(10, 0, 0, 1), Ip4::new(1, 1, 1, 1), 1024, 80).build();
            for _ in 0..rng.gen_range(1..=4) {
                let byte = rng.gen_range(0..frame.len());
                frame[byte] ^= 1u8 << rng.gen_range(0..8);
            }
            let dir = if rng.gen_bool(0.5) {
                Direction::Internal
            } else {
                Direction::External
            };
            (dir, frame)
        }
        8 => {
            let frame =
                PacketBuilder::udp(Ip4::new(10, 0, 0, 2), Ip4::new(1, 1, 1, 1), 1025, 53).build();
            let cut = rng.gen_range(0..frame.len());
            (Direction::Internal, frame[..cut].to_vec())
        }
        _ => {
            let len = rng.gen_range(0..120usize);
            let frame: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            let dir = if rng.gen_bool(0.5) {
                Direction::Internal
            } else {
                Direction::External
            };
            (dir, frame)
        }
    }
}

/// Observable state of a plain flow manager.
fn fm_state(fm: &FlowManager) -> Vec<(usize, Flow, Time)> {
    fm.check_coherence().expect("unsharded coherence");
    fm.iter_lru().collect()
}

/// Observable state of a sharded flow manager: per-shard LRU snapshots
/// with global slot ids, coherence (including the routing invariant)
/// asserted.
fn sharded_state(t: &ShardedFlowManager) -> Vec<Vec<(usize, Flow, Time)>> {
    FlowTable::check_coherence(t).expect("sharded coherence");
    t.snapshot()
}

#[test]
fn one_shard_is_byte_identical_to_unsharded() {
    let mut rng = StdRng::seed_from_u64(0x5A4D1);
    let c = cfg();
    let mut plain = VigNatMb::new(c);
    let mut sharded = ShardedVigNatMb::sharded(c, 1);

    let mut now = Time::from_secs(1);
    for round in 0..600 {
        now = now.plus(rng.gen_range(1_000_000..800_000_000));
        let (dir, frame) = gen_frame(&mut rng);
        let mut f_plain = frame.clone();
        let mut f_sharded = frame;
        let v_plain = plain.process(dir, &mut f_plain, now);
        let v_sharded = sharded.process(dir, &mut f_sharded, now);
        assert_eq!(v_plain, v_sharded, "verdict diverged in round {round}");
        assert_eq!(f_plain, f_sharded, "frame bytes diverged in round {round}");
        assert_eq!(plain.occupancy(), sharded.occupancy());
        assert_eq!(plain.expired_total(), sharded.expired_total());
    }
    // Full-state equality: with one shard, global slots are the local
    // slots and the port range is the whole range.
    let s = sharded_state(sharded.flow_manager());
    assert_eq!(s.len(), 1);
    assert_eq!(fm_state(plain.flow_manager()), s[0]);
    assert!(plain.occupancy() > 0, "the run must have built flow state");
}

/// Dispatch rule shared by the N-independent-NATs reference: the exact
/// rule the sharded table routes by (flow-key hash for internal, port
/// partition for external, shard 0 for junk).
fn dispatch_of(table: &ShardedFlowManager, dir: Direction, frame: &[u8]) -> usize {
    // This suite's own reader (the frames may be junk, so not
    // `parse_l3l4`): big-endian fields, zero where the frame ends.
    let field = |off: usize, len: usize| {
        let bytes = frame.get(off..off + len).unwrap_or(&[]);
        bytes.iter().fold(0u32, |v, &b| v << 8 | u32::from(b))
    };
    let Some(proto) = Proto::from_number(field(23, 1) as u8) else {
        return 0;
    };
    let l4 = 14 + (field(14, 1) as usize & 0x0f) * 4;
    let fid = FlowId {
        src_ip: Ip4(field(26, 4)),
        src_port: field(l4, 2) as u16,
        dst_ip: Ip4(field(30, 4)),
        dst_port: field(l4 + 2, 2) as u16,
        proto,
    };
    match dir {
        Direction::Internal => table.shard_of_hash(fid.key_hash()),
        Direction::External => table.shard_of_port(fid.dst_port).unwrap_or(0),
    }
}

#[test]
fn n_shards_equal_n_independent_one_shard_nats() {
    for shards in [2usize, 4] {
        let mut rng = StdRng::seed_from_u64(0x0BA7 + shards as u64);
        let c = cfg();
        let mut sharded = ShardedVigNatMb::sharded(c, shards);
        // The reference: one standalone unsharded NAT per shard, each
        // configured with exactly that shard's capacity and port slice.
        let routing = ShardedFlowManager::new(&c, shards);
        let mut refs: Vec<VigNatMb> = (0..shards)
            .map(|s| VigNatMb::new(routing.shard_cfg(s)))
            .collect();

        let mut now = Time::from_secs(1);
        for round in 0..600 {
            now = now.plus(rng.gen_range(1_000_000..800_000_000));
            let (dir, frame) = gen_frame(&mut rng);
            let s = dispatch_of(&routing, dir, &frame);
            let mut f_sharded = frame.clone();
            let mut f_ref = frame;
            let v_sharded = sharded.process(dir, &mut f_sharded, now);
            // The reference shard expires on its own clock — but only
            // when it actually receives a packet, exactly like a real
            // per-core run-to-completion loop. The sharded NAT expires
            // *all* shards each packet; flows are only ever observed
            // through their own shard's packets, so the difference is
            // unobservable — which is precisely what this test proves.
            let v_ref = refs[s].process(dir, &mut f_ref, now);
            assert_eq!(
                v_sharded, v_ref,
                "verdict diverged in round {round} (shard {s} of {shards})"
            );
            assert_eq!(f_sharded, f_ref, "bytes diverged in round {round}");
        }
        // Final state: the sharded NAT expires *every* shard on every
        // packet, while a reference shard only expires when it receives
        // one — so a reference may still hold stale (dead) flows. That
        // difference is unobservable through packets (expiry always
        // runs before lookup), which the byte-equality above already
        // proved; to compare resident state, flush everyone's expiry
        // clock to the same instant with one out-of-range return
        // packet (drops on every NAT, mutates nothing but expiry).
        now = now.plus(1_000_000);
        let flush =
            PacketBuilder::udp(Ip4::new(9, 9, 9, 9), Ip4::new(203, 0, 113, 1), 1, 9).build();
        let mut f = flush.clone();
        assert_eq!(
            sharded.process(Direction::External, &mut f, now),
            Verdict::Drop
        );
        let sh_state = sharded_state(sharded.flow_manager());
        let per = routing.per_shard_capacity();
        for (s, r) in refs.iter_mut().enumerate() {
            let mut f = flush.clone();
            assert_eq!(r.process(Direction::External, &mut f, now), Verdict::Drop);
            // Reference slots are shard-local; globalize for comparison.
            let ref_state: Vec<(usize, Flow, Time)> = fm_state(r.flow_manager())
                .into_iter()
                .map(|(slot, flow, t)| (s * per + slot, flow, t))
                .collect();
            assert_eq!(
                sh_state[s], ref_state,
                "shard {s} of {shards} diverged from its standalone reference"
            );
        }
        assert!(
            sharded.occupancy() > 0,
            "the run must have built flow state"
        );
    }
}

#[test]
fn parallel_driver_equals_sequential_sharded() {
    let shards = 2;
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(0xD15A);
    let mut seq = ShardedVigNatMb::sharded(c, shards);
    let mut par = ParallelShardedNat::new(c, shards, 64);
    let mut pool = Mempool::new(64);

    let mut now = Time::from_secs(1);
    for round in 0..250 {
        now = now.plus(rng.gen_range(1_000_000..800_000_000));
        let burst_len = rng.gen_range(1..=32usize);
        let dir = if rng.gen_bool(0.8) {
            Direction::Internal
        } else {
            Direction::External
        };
        let frames: Vec<Vec<u8>> = (0..burst_len)
            .map(|_| {
                let (_, f) = gen_frame(&mut rng);
                f
            })
            .collect();

        // Sequential sharded reference through the batched middlebox path.
        let bufs: Vec<_> = frames
            .iter()
            .map(|f| {
                let b = pool.get().expect("pool sized for a burst");
                pool.write_frame(b, f);
                b
            })
            .collect();
        let v_seq = seq.process_burst(dir, &mut pool, &bufs, now);

        // Parallel driver on its own copy of the same burst.
        let mut par_frames = frames.clone();
        let v_par = par.process_burst_parallel(dir, &mut par_frames, now);

        assert_eq!(v_seq, v_par, "verdicts diverged in round {round}");
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(
                pool.frame(*b),
                &par_frames[i][..],
                "frame bytes diverged in round {round}, packet {i}"
            );
            pool.put(*b);
        }
        assert_eq!(
            sharded_state(seq.flow_manager()),
            sharded_state(par.table()),
            "flow-table state diverged in round {round}"
        );
        assert_eq!(seq.expired_total(), par.expired_total());
    }
    assert!(par.occupancy() > 0, "the run must have built flow state");
}

#[test]
fn sharded_nat_satisfies_rfc3022_spec() {
    use vignat_repro::nat::SimpleEnv;
    use vignat_repro::spec::{PacketInput, SpecChecker};

    // Ample capacity so no shard fills (per-shard fullness is a
    // documented deviation from the global-capacity spec; it is pinned
    // down in tests/shard_edge_cases.rs instead).
    let c = NatConfig {
        capacity: 256,
        expiry_ns: Time::from_secs(10).nanos(),
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    };
    let mut env = SimpleEnv::sharded(c, 4);
    let mut spec = SpecChecker::new(c);
    let mut rng = StdRng::seed_from_u64(0x3022);
    let mut now = Time::from_secs(1);
    for _ in 0..1500 {
        now = now.plus(rng.gen_range(1_000_000..3_000_000_000));
        let proto = if rng.gen_bool(0.5) {
            Proto::Tcp
        } else {
            Proto::Udp
        };
        let (dir, fields) = if rng.gen_bool(0.6) {
            (
                Direction::Internal,
                FlowFields {
                    src_ip: Ip4::new(192, 168, 0, rng.gen_range(1..32u8)),
                    dst_ip: Ip4::new(1, 1, 1, 1),
                    src_port: 5000,
                    dst_port: 80,
                    proto,
                },
            )
        } else {
            (
                Direction::External,
                FlowFields {
                    src_ip: Ip4::new(1, 1, 1, 1),
                    dst_ip: Ip4::new(10, 1, 0, 1),
                    src_port: 80,
                    dst_port: rng.gen_range(995..1300u16),
                    proto,
                },
            )
        };
        let output = env.step(dir, fields, now);
        let input = PacketInput {
            dir,
            fields,
            tcp_flags: 0,
        };
        spec.observe(&input, now, &output)
            .unwrap_or_else(|v| panic!("RFC 3022 violation at step {}: {v}", spec.steps()));
        assert!(FlowTable::check_coherence(env.flow_manager()).is_ok());
    }
    assert!(env.flow_manager().flow_count() > 0);
}
