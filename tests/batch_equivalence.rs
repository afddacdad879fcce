//! Batch/sequential differential test: `nat_process_batch` must be
//! observationally identical to N sequential bursts of one made at the
//! same instant — byte-identical output frames,
//! identical drop reasons, identical flow-table state (including LRU
//! order, hence identical future expiry behaviour).
//!
//! Traffic is randomized and adversarial, in the style of
//! `tests/adversarial_inputs.rs`: valid new flows, repeats of the same
//! flow within one burst (the insert→hit sequence-point case), valid
//! and junk return traffic (UDP, and TCP segments carrying SYN+ACK /
//! FIN / RST so slots migrate between class lists), destinations inside
//! and outside the endpoint pool, random-byte frames, bit-flipped
//! frames, truncations, and time jumps that trigger expiry between
//! bursts.
//!
//! The same generator runs over every table the burst pipeline has a
//! path for: the unsharded `FlowManager` and `ShardedFlowManager` with 2
//! and 3 shards, under homogeneous and per-class lifetimes, a
//! 17-address pool, and EIM + hairpinning. The frame-level driver feeds
//! one direction per burst (the run-to-completion model); the
//! field-level driver over `SimpleEnv` mixes directions inside a burst,
//! which is where an external packet can follow, in the same burst, the
//! internal packet that creates its flow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vignat_repro::libvig::map::MapKey;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::loop_body::{DropReason, IterationOutcome};
use vignat_repro::nat::simple_env::{EnvEvent, RawRx};
use vignat_repro::nat::{
    nat_process_batch, FlowManager, FlowTable, NatConfig, ShardedFlowManager, SimpleEnv, MAX_BURST,
};
use vignat_repro::packet::tcp::flags;
use vignat_repro::packet::{
    builder::PacketBuilder, parse_l3l4, Direction, Flow, FlowFields, FlowId, Ip4, Proto,
};
use vignat_repro::sim::dpdk::Mempool;
use vignat_repro::sim::frame_env::{BurstEnv, BurstScratch, FrameEnv};

const REMOTE: Ip4 = Ip4::new(1, 1, 1, 1);

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 64,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 4096,
        ..NatConfig::paper_default()
    }
}

/// Per-class lifetimes: TCP slots move between three lists as the
/// return segments' flags step their trackers.
fn classed_cfg() -> NatConfig {
    NatConfig {
        tcp_transitory_ns: Time::from_millis(700).nanos(),
        tcp_established_ns: Time::from_secs(5).nanos(),
        ..cfg()
    }
}

/// 68 slots at four ports per address: a 17-address pool.
fn pool17_cfg() -> NatConfig {
    let c = NatConfig {
        capacity: 68,
        start_port: 65_532,
        ..classed_cfg()
    };
    assert_eq!(c.num_external_ips(), 17);
    c
}

/// A table that outgrows a core's private cache (past 2,048 flows per
/// shard, at four touched lines per hit, is past 512 KiB): lifetimes
/// long enough that the run's flows pile up, so the batched probes'
/// stages 3–4 run over thousands of live slots, not the 64-slot
/// tables' few.
fn large_cfg(capacity: usize) -> NatConfig {
    NatConfig {
        capacity,
        expiry_ns: Time::from_secs(1_000).nanos(),
        tcp_established_ns: Time::from_secs(3_000).nanos(),
        ..classed_cfg()
    }
}

/// Endpoint-independent mapping with hairpinning (single address).
fn hairpin_cfg() -> NatConfig {
    NatConfig {
        eim: true,
        hairpinning: true,
        ..classed_cfg()
    }
}

/// A flow table the scenarios can build and snapshot.
trait Table: FlowTable + Sized {
    fn build(cfg: &NatConfig, shards: usize) -> Self;
    /// Everything observable about the table, per shard: slot, flow and
    /// stamp in LRU order — after asserting coherence.
    fn state(&self) -> Vec<Vec<(usize, Flow, Time)>>;
}

impl Table for FlowManager {
    fn build(cfg: &NatConfig, shards: usize) -> Self {
        assert_eq!(shards, 1, "the unsharded table is one shard");
        FlowManager::new(cfg)
    }

    fn state(&self) -> Vec<Vec<(usize, Flow, Time)>> {
        self.check_coherence()
            .expect("flow manager must stay coherent");
        vec![self.iter_lru().collect()]
    }
}

impl Table for ShardedFlowManager {
    fn build(cfg: &NatConfig, shards: usize) -> Self {
        ShardedFlowManager::new(cfg, shards)
    }

    fn state(&self) -> Vec<Vec<(usize, Flow, Time)>> {
        FlowTable::check_coherence(self).expect("sharded table must stay coherent");
        self.snapshot()
    }
}

/// One well-formed packet, as header fields.
#[derive(Debug, Clone, Copy)]
struct Pkt {
    dir: Direction,
    fields: FlowFields,
    tcp_flags: u8,
}

impl Pkt {
    fn frame(&self) -> Vec<u8> {
        let f = self.fields;
        match f.proto {
            Proto::Udp => PacketBuilder::udp(f.src_ip, f.dst_ip, f.src_port, f.dst_port).build(),
            Proto::Tcp => PacketBuilder::tcp(f.src_ip, f.dst_ip, f.src_port, f.dst_port)
                .tcp_flags(self.tcp_flags)
                .build(),
        }
    }
}

fn gen_proto_and_flags(rng: &mut StdRng) -> (Proto, u8, u16) {
    if rng.gen_bool(0.5) {
        (Proto::Udp, 0, 53)
    } else {
        let fl = [
            flags::ACK,
            flags::SYN,
            flags::SYN | flags::ACK,
            flags::FIN | flags::ACK,
            flags::RST,
        ][rng.gen_range(0..5usize)];
        (Proto::Tcp, fl, 80)
    }
}

/// One well-formed packet of `cfg`'s traffic: mostly internal traffic
/// from a small host/port pool (so flow state builds up, repeats land
/// inside one burst, and the table fills), return traffic aimed at pool
/// endpoints that may or may not be live, at endpoints just outside the
/// pool, and internal traffic aimed at the NAT's own pool (the hairpin
/// leg where the configuration enables it).
fn gen_pkt(rng: &mut StdRng, cfg: &NatConfig) -> Pkt {
    let (proto, tcp_flags, remote_port) = gen_proto_and_flags(rng);
    // A pool endpoint, or — one time in six — a destination the pool
    // does not own: the port below `start_port` on the first address,
    // or an address past the last.
    let pool_endpoint = |rng: &mut StdRng| match rng.gen_range(0..6u8) {
        0 if rng.gen_bool(0.5) => (cfg.external_ip, cfg.start_port - 1),
        0 => (
            Ip4(cfg.external_ip.raw() + cfg.num_external_ips() as u32),
            cfg.start_port,
        ),
        _ => {
            let slot = rng.gen_range(0..cfg.capacity);
            (cfg.ext_ip_of_slot(slot), cfg.ext_port_of_slot(slot))
        }
    };
    // Three hosts per eight slots (24 for the 64-slot tables), four
    // ports each, two protocols: enough distinct flows to fill the table.
    let internal_src = |rng: &mut StdRng| {
        let host = rng.gen_range(1..=cfg.capacity as u32 * 3 / 8);
        (
            Ip4(Ip4::new(10, 0, 0, 0).raw() + host),
            1024 + u16::from(rng.gen_range(0..4u8)),
        )
    };
    match rng.gen_range(0..10u8) {
        0..=5 => {
            let (src_ip, src_port) = internal_src(rng);
            Pkt {
                dir: Direction::Internal,
                fields: FlowFields {
                    src_ip,
                    src_port,
                    dst_ip: REMOTE,
                    dst_port: remote_port,
                    proto,
                },
                tcp_flags,
            }
        }
        6..=8 => {
            let (dst_ip, dst_port) = pool_endpoint(rng);
            Pkt {
                dir: Direction::External,
                fields: FlowFields {
                    src_ip: REMOTE,
                    src_port: remote_port,
                    dst_ip,
                    dst_port,
                    proto,
                },
                tcp_flags,
            }
        }
        _ => {
            let (src_ip, src_port) = internal_src(rng);
            let (dst_ip, dst_port) = pool_endpoint(rng);
            Pkt {
                dir: Direction::Internal,
                fields: FlowFields {
                    src_ip,
                    src_port,
                    dst_ip,
                    dst_port,
                    proto,
                },
                tcp_flags,
            }
        }
    }
}

/// One randomized frame of adversarial traffic. Mirrors the generators
/// in `tests/adversarial_inputs.rs`: mostly valid traffic (so flow
/// state actually builds up), spiced with junk.
fn gen_frame(rng: &mut StdRng, cfg: &NatConfig) -> Vec<u8> {
    match rng.gen_range(0..10u8) {
        0..=6 => gen_pkt(rng, cfg).frame(),
        // Bit-flipped valid frame: exercises the validation ladder.
        7 => {
            let mut frame = gen_pkt(rng, cfg).frame();
            for _ in 0..rng.gen_range(1..=4) {
                let byte = rng.gen_range(0..frame.len());
                frame[byte] ^= 1u8 << rng.gen_range(0..8);
            }
            frame
        }
        // Truncation of a valid frame at an arbitrary boundary.
        8 => {
            let frame = gen_pkt(rng, cfg).frame();
            let cut = rng.gen_range(0..frame.len());
            frame[..cut].to_vec()
        }
        // Pure random bytes.
        _ => {
            let len = rng.gen_range(0..120usize);
            (0..len).map(|_| rng.gen::<u8>()).collect()
        }
    }
}

/// Frame-level driver: `rounds` single-direction bursts through `FrameEnv`
/// one frame at a time and through `BurstEnv` in one call, over two
/// tables built alike. Outcomes (with drop reasons), frame bytes and
/// table state must match after every burst.
///
/// Returns the most flows the table held after any burst.
fn frames_batch_equals_sequential<T: Table>(
    c: NatConfig,
    shards: usize,
    seed: u64,
    rounds: usize,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fm_seq = T::build(&c, shards);
    let mut fm_bat = T::build(&c, shards);
    let mut pool = Mempool::new(MAX_BURST * 2);
    let mut scratch = BurstScratch;
    let (mut forwarded, mut to_internal, mut peak_flows) = (0usize, 0usize, 0usize);

    let mut now = Time::from_secs(1);
    for round in 0..rounds {
        // Time jumps: some bursts arrive after everything expired.
        now = now.plus(rng.gen_range(1_000_000..800_000_000));
        let burst_len = rng.gen_range(1..=MAX_BURST);
        let dir = if rng.gen_bool(0.7) {
            Direction::Internal
        } else {
            Direction::External
        };
        // One burst arrives on one interface (the run-to-completion
        // model); frames within it are randomized independently.
        let frames: Vec<Vec<u8>> = (0..burst_len).map(|_| gen_frame(&mut rng, &c)).collect();

        // Sequential reference: one FrameEnv per frame, same instant,
        // each a burst of one.
        let mut seq_outcomes: Vec<IterationOutcome> = Vec::with_capacity(burst_len);
        let mut seq_frames: Vec<Vec<u8>> = Vec::with_capacity(burst_len);
        for f in &frames {
            let mut frame = f.clone();
            let mut env = FrameEnv::new(&mut fm_seq, &mut frame, dir, now);
            seq_outcomes.extend(nat_process_batch(&mut env, &c));
            seq_frames.push(frame);
        }

        // Batched: stage the same frames in the mempool, one call.
        let bufs: Vec<_> = frames
            .iter()
            .map(|f| {
                let b = pool.get().expect("pool sized for a burst");
                pool.write_frame(b, f);
                b
            })
            .collect();
        let bat_outcomes = {
            let mut env = BurstEnv::new(&mut fm_bat, &mut pool, &bufs, dir, now, &mut scratch);
            let outcomes = nat_process_batch(&mut env, &c);
            env.finish();
            outcomes
        };

        // Outcomes (including drop *reasons*) must match 1:1.
        assert_eq!(
            seq_outcomes, bat_outcomes,
            "outcome mismatch in round {round} (burst of {burst_len} on {dir:?})"
        );
        // Output frames must be byte-identical (rewrites and checksums).
        for (i, b) in bufs.iter().enumerate() {
            assert_eq!(
                seq_frames[i],
                pool.frame(*b),
                "frame bytes diverged in round {round}, packet {i}"
            );
            pool.put(*b);
        }
        // Flow-table state — occupancy, slot assignment, ports, LRU
        // order and timestamps — must be identical.
        assert_eq!(
            fm_seq.state(),
            fm_bat.state(),
            "flow-table state diverged in round {round}"
        );
        for o in &bat_outcomes {
            forwarded += usize::from(matches!(o, IterationOutcome::Forwarded(_)));
            to_internal += usize::from(*o == IterationOutcome::Forwarded(Direction::Internal));
        }
        peak_flows = peak_flows.max(fm_bat.flow_count());
    }

    // The run must actually have exercised both batched directions.
    assert!(forwarded > 400, "only {forwarded} packets forwarded");
    assert!(
        to_internal > 20,
        "only {to_internal} return packets matched"
    );
    peak_flows
}

/// Field-level driver: bursts that mix directions, through `SimpleEnv`
/// one packet at a time and one burst at a time. Outcomes, rewritten
/// tuples and table state must match after every burst. In the middle
/// of every burst an internal packet opens a brand-new flow and the
/// next packet is the return traffic addressed to the endpoint that
/// flow was just given: on the batched side the flow does not exist
/// when the burst is probed, so this is a batched external miss that
/// must re-probe at its sequence point and hit.
fn mixed_bursts_equal_sequential<T: Table>(
    mut seq: SimpleEnv<T>,
    mut bat: SimpleEnv<T>,
    c: NatConfig,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = Time::from_secs(1);
    let mut same_burst_returns = 0usize;
    let rx = |p: &Pkt| RawRx::well_formed(p.dir, p.fields).with_tcp_flags(p.tcp_flags);
    for round in 0..300u32 {
        now = now.plus(rng.gen_range(1_000_000..800_000_000));
        seq.set_time(now);
        bat.set_time(now);
        let seq_base = seq.events().len();
        let mut burst: Vec<Pkt> = Vec::new();
        let mut seq_outcomes: Vec<IterationOutcome> = Vec::new();
        let mut run_seq = |seq: &mut SimpleEnv<T>, p: Pkt| {
            seq.inject(rx(&p));
            burst.push(p);
            seq_outcomes.push(seq.run_one().expect("the packet just injected"));
        };

        // The sequential side runs first, packet by packet, so the
        // return packet can be addressed to the endpoint the opener got.
        for _ in 0..rng.gen_range(0..MAX_BURST / 2 - 1) {
            run_seq(&mut seq, gen_pkt(&mut rng, &c));
        }
        let opener_at = seq.events().len();
        run_seq(
            &mut seq,
            Pkt {
                dir: Direction::Internal,
                fields: FlowFields {
                    src_ip: Ip4(Ip4::new(172, 16, 0, 0).raw() + round),
                    src_port: 7000,
                    dst_ip: REMOTE,
                    dst_port: 53,
                    proto: Proto::Udp,
                },
                tcp_flags: 0,
            },
        );
        if let EnvEvent::Sent {
            src_ip, src_port, ..
        } = seq.events()[opener_at]
        {
            same_burst_returns += 1;
            run_seq(
                &mut seq,
                Pkt {
                    dir: Direction::External,
                    fields: FlowFields {
                        src_ip: REMOTE,
                        src_port: 53,
                        dst_ip: Ip4(src_ip),
                        dst_port: src_port,
                        proto: Proto::Udp,
                    },
                    tcp_flags: 0,
                },
            );
        }
        for _ in 0..rng.gen_range(0..MAX_BURST / 2 - 1) {
            run_seq(&mut seq, gen_pkt(&mut rng, &c));
        }
        if let EnvEvent::Sent { .. } = seq.events()[opener_at] {
            assert_eq!(
                seq_outcomes[opener_at - seq_base + 1],
                IterationOutcome::Forwarded(Direction::Internal),
                "round {round}: return traffic to the flow just opened"
            );
        }

        let bat_base = bat.events().len();
        for p in &burst {
            bat.inject(rx(p));
        }
        let bat_outcomes = bat.run_burst();

        assert_eq!(
            seq_outcomes, bat_outcomes,
            "outcome mismatch in round {round}"
        );
        assert_eq!(
            seq.events()[seq_base..],
            bat.events()[bat_base..],
            "rewritten tuples diverged in round {round}"
        );
        assert_eq!(
            seq.flow_manager().state(),
            bat.flow_manager().state(),
            "flow-table state diverged in round {round}"
        );
    }
    assert!(
        same_burst_returns > 100,
        "only {same_burst_returns} bursts had room to open their flow"
    );
}

#[test]
fn batch_equals_sequential_on_adversarial_traffic() {
    frames_batch_equals_sequential::<FlowManager>(cfg(), 1, 0xBA7C4, 400);
}

#[test]
fn batch_equals_sequential_with_per_class_lifetimes() {
    frames_batch_equals_sequential::<FlowManager>(classed_cfg(), 1, 0xC1A55, 400);
}

#[test]
fn batch_equals_sequential_on_sharded_tables() {
    frames_batch_equals_sequential::<ShardedFlowManager>(classed_cfg(), 2, 0x5A4D2, 400);
    // 64 slots over 3 shards: slot 63's endpoint belongs to no shard.
    frames_batch_equals_sequential::<ShardedFlowManager>(cfg(), 3, 0x5A4D3, 400);
}

#[test]
fn batch_equals_sequential_on_a_17_address_pool() {
    frames_batch_equals_sequential::<FlowManager>(pool17_cfg(), 1, 0x17A, 400);
    frames_batch_equals_sequential::<ShardedFlowManager>(pool17_cfg(), 2, 0x17B, 400);
}

#[test]
fn batch_equals_sequential_with_eim_and_hairpinning() {
    frames_batch_equals_sequential::<FlowManager>(hairpin_cfg(), 1, 0xE14, 400);
    frames_batch_equals_sequential::<ShardedFlowManager>(hairpin_cfg(), 2, 0xE15, 400);
}

#[test]
fn batch_equals_sequential_past_the_cache_resident_budget() {
    // Past 2,048 flows per table (or shard); 2,601 and 5,925 at these
    // seeds.
    let peak = frames_batch_equals_sequential::<FlowManager>(large_cfg(4096), 1, 0x1A46E, 560);
    assert!(peak > 2400, "table peaked at {peak} flows");
    let peak =
        frames_batch_equals_sequential::<ShardedFlowManager>(large_cfg(8192), 2, 0x1A46F, 1300);
    assert!(peak > 5200, "sharded table peaked at {peak} flows");
}

#[test]
fn mixed_direction_bursts_equal_sequential() {
    for (i, c) in [cfg(), classed_cfg(), pool17_cfg(), hairpin_cfg()]
        .into_iter()
        .enumerate()
    {
        let seed = 0x313D + i as u64;
        mixed_bursts_equal_sequential(SimpleEnv::new(c), SimpleEnv::new(c), c, seed);
        for shards in [2, 3] {
            mixed_bursts_equal_sequential(
                SimpleEnv::sharded(c, shards),
                SimpleEnv::sharded(c, shards),
                c,
                seed ^ (shards as u64) << 20,
            );
        }
    }
}

#[test]
fn batch_handles_full_table_same_as_sequential() {
    // Deterministic worst case: more new flows in one burst than the
    // table has room for — the TableFull drops must land on exactly the
    // same packets in both modes.
    let c = NatConfig {
        capacity: 4,
        ..cfg()
    };
    let mut fm_seq = FlowManager::new(&c);
    let mut fm_bat = FlowManager::new(&c);
    let mut pool = Mempool::new(MAX_BURST);
    let mut scratch = BurstScratch;
    let now = Time::from_secs(1);

    let frames: Vec<Vec<u8>> = (0..8u8)
        .map(|i| {
            PacketBuilder::udp(Ip4::new(10, 0, 0, i + 1), Ip4::new(1, 1, 1, 1), 1000, 53).build()
        })
        .collect();

    let mut seq_outcomes = Vec::new();
    for f in &frames {
        let mut frame = f.clone();
        let mut env = FrameEnv::new(&mut fm_seq, &mut frame, Direction::Internal, now);
        seq_outcomes.extend(nat_process_batch(&mut env, &c));
    }

    let bufs: Vec<_> = frames
        .iter()
        .map(|f| {
            let b = pool.get().unwrap();
            pool.write_frame(b, f);
            b
        })
        .collect();
    let mut env = BurstEnv::new(
        &mut fm_bat,
        &mut pool,
        &bufs,
        Direction::Internal,
        now,
        &mut scratch,
    );
    let bat_outcomes = nat_process_batch(&mut env, &c);
    env.finish();

    assert_eq!(seq_outcomes, bat_outcomes);
    assert_eq!(fm_seq.state(), fm_bat.state());
    assert_eq!(
        bat_outcomes
            .iter()
            .filter(|o| **o == IterationOutcome::Dropped(DropReason::TableFull))
            .count(),
        4,
        "exactly the overflow packets drop"
    );
}

/// Bursts whose frames alternate between the two shards of a table
/// packet by packet — internal hits, new flows and repeats; return
/// traffic to live flows, to live endpoints from the wrong remote, and
/// to endpoints outside the pool — against the sequential oracle, on a
/// table small enough to stay cache-resident and on one past 2,048
/// flows per shard (see `large_cfg`). A probe that
/// resolved each shard's queries in a pass of its own would still have
/// to write every result at its own packet's position; this is where
/// an ordering mistake between the shards would show.
#[test]
fn bursts_alternating_shards_equal_sequential() {
    for (c, resident) in [(classed_cfg(), 20u32), (large_cfg(8192), 2400)] {
        let mut fm_seq = ShardedFlowManager::new(&c, 2);
        let mut fm_bat = ShardedFlowManager::new(&c, 2);
        let mut pool = Mempool::new(MAX_BURST);
        let mut rng = StdRng::seed_from_u64(0xA17E + u64::from(resident));
        let shard_of = |f: &FlowFields| {
            let fid = FlowId {
                src_ip: f.src_ip,
                src_port: f.src_port,
                dst_ip: f.dst_ip,
                dst_port: f.dst_port,
                proto: f.proto,
            };
            fm_seq.shard_of_hash(fid.key_hash())
        };
        let flow = |i: u32| {
            let (proto, port) = [(Proto::Udp, 53), (Proto::Tcp, 80)][i as usize % 2];
            FlowFields {
                src_ip: Ip4(Ip4::new(10, 0, 0, 0).raw() + i),
                src_port: 2000,
                dst_ip: REMOTE,
                dst_port: port,
                proto,
            }
        };
        // Flow indices of each shard, in index order; `resident` of each
        // are opened first, the rest are new when first seen.
        let mut by_shard: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * resident + 2_000 {
            by_shard[shard_of(&flow(i))].push(i);
        }
        // The external port each resident flow was given.
        let mut ext_port = std::collections::HashMap::new();
        let mut now = Time::from_secs(1);

        let mut run = |fm_seq: &mut ShardedFlowManager,
                       fm_bat: &mut ShardedFlowManager,
                       dir: Direction,
                       now: Time,
                       pkts: &[Pkt]|
         -> Vec<Vec<u8>> {
            let frames: Vec<Vec<u8>> = pkts.iter().map(Pkt::frame).collect();
            let mut seq_outcomes = Vec::new();
            let mut seq_frames = Vec::new();
            for f in &frames {
                let mut frame = f.clone();
                let mut env = FrameEnv::new(fm_seq, &mut frame, dir, now);
                seq_outcomes.extend(nat_process_batch(&mut env, &c));
                seq_frames.push(frame);
            }
            let bufs: Vec<_> = frames
                .iter()
                .map(|f| {
                    let b = pool.get().expect("pool sized for a burst");
                    pool.write_frame(b, f);
                    b
                })
                .collect();
            let mut env = BurstEnv::new(fm_bat, &mut pool, &bufs, dir, now, &mut BurstScratch);
            let bat_outcomes = nat_process_batch(&mut env, &c);
            env.finish();
            assert_eq!(seq_outcomes, bat_outcomes, "outcomes");
            for (i, b) in bufs.into_iter().enumerate() {
                assert_eq!(seq_frames[i], pool.frame(b), "frame {i}");
                pool.put(b);
            }
            assert_eq!(fm_seq.state(), fm_bat.state(), "table state");
            seq_frames
        };

        let internal = |f: FlowFields| Pkt {
            dir: Direction::Internal,
            fields: f,
            tcp_flags: if f.proto == Proto::Tcp { flags::ACK } else { 0 },
        };
        // Fill: `resident` flows per shard, in bursts that alternate.
        for pair in (0..resident as usize)
            .collect::<Vec<_>>()
            .chunks(MAX_BURST / 2)
        {
            let pkts: Vec<Pkt> = pair
                .iter()
                .flat_map(|&k| [by_shard[0][k], by_shard[1][k]])
                .map(|i| internal(flow(i)))
                .collect();
            now = now.plus(1_000);
            let out = run(&mut fm_seq, &mut fm_bat, Direction::Internal, now, &pkts);
            for (p, f) in pkts.iter().zip(&out) {
                let (_, translated) = parse_l3l4(f).expect("forwarded");
                ext_port.insert((p.fields.src_ip, p.fields.proto), translated.src_port);
            }
        }
        for round in 0..200u32 {
            now = now.plus(rng.gen_range(1_000..5_000_000));
            // Live flows (hits), flows not yet seen (misses that open a
            // flow, some repeated later in the same burst), alternating.
            let pick = |rng: &mut StdRng, s: usize| {
                let pool = &by_shard[s];
                if rng.gen_bool(0.8) {
                    pool[rng.gen_range(0..resident as usize)]
                } else {
                    pool[rng.gen_range(resident as usize..pool.len())]
                }
            };
            let dir = if round % 3 == 2 {
                Direction::External
            } else {
                Direction::Internal
            };
            let len = rng.gen_range(2..=MAX_BURST);
            let pkts: Vec<Pkt> = (0..len)
                .map(|k| {
                    let f = flow(pick(&mut rng, k % 2));
                    match dir {
                        Direction::Internal => internal(f),
                        Direction::External => {
                            let port = ext_port.get(&(f.src_ip, f.proto)).copied();
                            let (src_port, dst_port) = match (rng.gen_range(0..6u8), port) {
                                (0, _) | (_, None) => (f.dst_port, c.start_port - 1),
                                (1, Some(p)) => (f.dst_port + 1, p),
                                (_, Some(p)) => (f.dst_port, p),
                            };
                            Pkt {
                                dir,
                                fields: FlowFields {
                                    src_ip: REMOTE,
                                    src_port,
                                    dst_ip: c.external_ip,
                                    dst_port,
                                    proto: f.proto,
                                },
                                tcp_flags: if f.proto == Proto::Tcp { flags::ACK } else { 0 },
                            }
                        }
                    }
                })
                .collect();
            run(&mut fm_seq, &mut fm_bat, dir, now, &pkts);
        }
        if resident > 2048 {
            assert!(
                (0..2).all(|s| fm_bat.shard(s).flow_count() > 2048),
                "both shards past 2,048 flows"
            );
        }
    }
}
