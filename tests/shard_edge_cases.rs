//! Shard-dispatch edge cases the equivalence suite's random traffic
//! might only graze:
//!
//! * a flow whose internal and external keys hash to **different**
//!   shards (the common case — the two hashes are independent) and one
//!   where they coincide: return traffic must find both, because
//!   external routing goes by the port partition, never the hash;
//! * **port exhaustion within a single shard**: the shard's slice of
//!   the port range runs dry and new flows routed there drop
//!   (TableFull) while sibling shards still allocate — the documented
//!   fullness trade of partitioning;
//! * **expiry racing a cross-burst re-lookup** under independent
//!   per-shard clocks: one shard's clock runs past `Texp` and its flow
//!   is collected and its port reused, while a sibling whose clock
//!   lags keeps serving its flow — and a batched *hit* hint from an
//!   earlier burst is never trusted across the expiry (the probe pass
//!   runs after the expiry scan in every burst).

use vignat_repro::libvig::map::MapKey;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::loop_body::{DropReason, IterationOutcome};
use vignat_repro::nat::simple_env::RawRx;
use vignat_repro::nat::{FlowTable, NatConfig, ShardedFlowManager, SimpleEnv};
use vignat_repro::packet::{parse_l3l4, Direction, FlowFields, FlowId, Ip4, Proto};
use vignat_repro::sim::harness::ParallelShardedNat;
use vignat_repro::sim::middlebox::Verdict;
use vignat_repro::sim::tester::FlowGen;

const SHARDS: usize = 2;

fn cfg(capacity: usize) -> NatConfig {
    NatConfig {
        capacity,
        expiry_ns: Time::from_secs(10).nanos(),
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    }
}

fn fields(host: u8, sport: u16) -> FlowFields {
    FlowFields {
        src_ip: Ip4::new(192, 168, 0, host),
        dst_ip: Ip4::new(1, 1, 1, 1),
        src_port: sport,
        dst_port: 80,
        proto: Proto::Udp,
    }
}

fn fid_of(f: FlowFields) -> FlowId {
    FlowId {
        src_ip: f.src_ip,
        src_port: f.src_port,
        dst_ip: f.dst_ip,
        dst_port: f.dst_port,
        proto: f.proto,
    }
}

/// Search the host/port space for a flow that routes to `shard`.
fn flow_in_shard(table: &ShardedFlowManager, shard: usize, skip: usize) -> FlowFields {
    let mut found = 0;
    for host in 1..=255u8 {
        for sport in 5000..5200u16 {
            let f = fields(host, sport);
            if table.shard_of_hash(fid_of(f).key_hash()) == shard {
                if found == skip {
                    return f;
                }
                found += 1;
            }
        }
    }
    panic!("no flow found for shard {shard}");
}

#[test]
fn return_traffic_routes_by_port_partition_not_by_ext_hash() {
    let c = cfg(64);
    let mut env = SimpleEnv::sharded(c, SHARDS);
    let mut saw_same_shard = false;
    let mut saw_cross_shard = false;

    for i in 0..40 {
        // One flow per iteration, alternating shards.
        let f = flow_in_shard(env.flow_manager(), i % SHARDS, i / SHARDS);
        let out = env.step(Direction::Internal, f, Time::from_secs(1 + i as u64));
        let vignat_repro::spec::Output::Forward { fields: fwd, .. } = out else {
            panic!("fresh internal flow must forward");
        };
        let ext_port = fwd.src_port;

        // Where would the *external* key hash — and where does the
        // port actually route? These disagree for roughly half of all
        // flows; the flow must be found either way.
        let table = env.flow_manager();
        let fid_shard = table.shard_of_hash(fid_of(f).key_hash());
        assert_eq!(table.shard_of_port(ext_port), Some(fid_shard));
        let (_, flow) = table
            .lookup_internal_hashed(&fid_of(f), fid_of(f).key_hash())
            .expect("flow resident");
        let ext_hash_shard = table.shard_of_hash(flow.ext_key().key_hash());
        if ext_hash_shard == fid_shard {
            saw_same_shard = true;
        } else {
            saw_cross_shard = true;
        }

        // The return packet must be reverse-translated regardless.
        let back = FlowFields {
            src_ip: Ip4::new(1, 1, 1, 1),
            dst_ip: c.external_ip,
            src_port: 80,
            dst_port: ext_port,
            proto: Proto::Udp,
        };
        let out = env.step(Direction::External, back, Time::from_secs(2 + i as u64));
        let vignat_repro::spec::Output::Forward { fields: rev, .. } = out else {
            panic!("return traffic for a live flow must forward (flow {i})");
        };
        assert_eq!(rev.dst_ip, f.src_ip, "restored internal host");
        assert_eq!(rev.dst_port, f.src_port, "restored internal port");
    }
    assert!(
        saw_same_shard && saw_cross_shard,
        "the sweep must exercise both hash-coincidence cases \
         (same={saw_same_shard}, cross={saw_cross_shard})"
    );
}

#[test]
fn port_exhaustion_in_one_shard_leaves_siblings_allocating() {
    // 8 slots over 2 shards: 4 ports per shard (1000..1004, 1004..1008).
    let c = cfg(8);
    let mut env = SimpleEnv::sharded(c, SHARDS);
    let per = env.flow_manager().per_shard_capacity();
    assert_eq!(per, 4);

    // Fill shard 0 to its own capacity.
    let mut shard0_ports = Vec::new();
    for i in 0..per {
        let f = flow_in_shard(env.flow_manager(), 0, i);
        let out = env.step(Direction::Internal, f, Time::from_secs(1));
        let vignat_repro::spec::Output::Forward { fields: fwd, .. } = out else {
            panic!("shard 0 must allocate up to its capacity");
        };
        shard0_ports.push(fwd.src_port);
    }
    // Every allocated port lies in shard 0's slice of the range.
    for &p in &shard0_ports {
        assert!(
            (1000..1000 + per as u16).contains(&p),
            "port {p} escaped shard 0's partition"
        );
    }

    // The next shard-0 flow drops TableFull — while the global table is
    // only half occupied.
    let overflow = flow_in_shard(env.flow_manager(), 0, per);
    env.set_time(Time::from_secs(2));
    env.inject(RawRx::well_formed(Direction::Internal, overflow));
    assert_eq!(
        env.run_one(),
        Some(IterationOutcome::Dropped(DropReason::TableFull)),
        "a full shard drops new flows routed to it"
    );
    assert_eq!(env.flow_manager().flow_count(), per, "siblings untouched");

    // A shard-1 flow still allocates, from shard 1's port slice.
    let sibling = flow_in_shard(env.flow_manager(), 1, 0);
    let out = env.step(Direction::Internal, sibling, Time::from_secs(3));
    let vignat_repro::spec::Output::Forward { fields: fwd, .. } = out else {
        panic!("sibling shard must still allocate");
    };
    assert!(
        (1000 + per as u16..1000 + 2 * per as u16).contains(&fwd.src_port),
        "sibling allocation comes from shard 1's port slice"
    );
    assert!(FlowTable::check_coherence(env.flow_manager()).is_ok());
}

#[test]
fn expiry_races_cross_burst_relookup_under_skewed_shard_clocks() {
    let c = cfg(64);
    let mut nat = ParallelShardedNat::new(c, SHARDS, 64);
    let gen = FlowGen::new(Proto::Udp);
    let routing = ShardedFlowManager::new(&c, SHARDS);

    // One flow per shard, found by dispatch.
    let pick = |shard: usize| -> FlowFields {
        let mut buf = [0u8; 2048];
        for i in 0..4096u32 {
            let f = gen.background(i);
            let n = gen.write_frame(&f, &mut buf);
            let (_, on_wire) = parse_l3l4(&buf[..n]).unwrap();
            if routing.shard_of_hash(fid_of(on_wire).key_hash()) == shard {
                return f;
            }
        }
        panic!("no flow for shard {shard}");
    };
    let fa = pick(0);
    let fb = pick(1);
    let mut buf = [0u8; 2048];
    let frame_of = |f: &FlowFields, buf: &mut [u8]| {
        let n = gen.write_frame(f, buf);
        buf[..n].to_vec()
    };

    // Burst 1 (t = 1 s): both flows inserted, one per shard.
    let mut frames = vec![frame_of(&fa, &mut buf), frame_of(&fb, &mut buf)];
    let (v, _) = nat.with_runtime(false, |s| {
        s.process_burst(Direction::Internal, &mut frames, Time::from_secs(1))
    });
    assert_eq!(v, vec![Verdict::Forward(Direction::External); 2]);
    let (_, fa_out) = parse_l3l4(&frames[0]).unwrap();
    let (_, fb_out) = parse_l3l4(&frames[1]).unwrap();
    assert_eq!(nat.occupancy(), 2);

    // Shard 0's core races ahead: its clock passes Texp, so the
    // cross-burst re-lookup of flow A first expires A, then re-inserts
    // it as a *fresh* flow — reusing the same slot, hence the same
    // external port (the LIFO free list), all within one burst.
    let mut frames = vec![frame_of(&fa, &mut buf)];
    let v = nat.process_on_shard(0, Direction::Internal, &mut frames, Time::from_secs(12));
    assert_eq!(v, vec![Verdict::Forward(Direction::External)]);
    assert_eq!(nat.expired_total(), 1, "A expired before its re-lookup");
    let (_, fa_again) = parse_l3l4(&frames[0]).unwrap();
    assert_eq!(
        fa_again.src_port, fa_out.src_port,
        "the freed slot (and port) is reused by the re-inserted flow"
    );

    // Shard 1's core lags at t = 5 s: its flow B is still resident and
    // its return traffic still translates — per-shard expiry clocks
    // are independent.
    let back_b = gen.return_for(c.external_ip, fb_out.src_port);
    let mut frames = vec![frame_of(&back_b, &mut buf)];
    let v = nat.process_on_shard(1, Direction::External, &mut frames, Time::from_secs(5));
    assert_eq!(
        v,
        vec![Verdict::Forward(Direction::Internal)],
        "the lagging shard's flow survives its sibling's expiry sweep"
    );
    let (_, back_fields) = parse_l3l4(&frames[0]).unwrap();
    assert_eq!(back_fields.dst_ip, fb.src_ip);
    assert_eq!(back_fields.dst_port, fb.src_port);

    // Once shard 1's own clock passes B's deadline, the race resolves
    // the other way: B's return traffic dies at its own sequence point.
    let mut frames = vec![frame_of(&back_b, &mut buf)];
    let v = nat.process_on_shard(1, Direction::External, &mut frames, Time::from_secs(16));
    assert_eq!(v, vec![Verdict::Drop], "B expired on shard 1's own clock");
    assert_eq!(nat.expired_total(), 2);
    assert!(FlowTable::check_coherence(nat.table()).is_ok());
}
