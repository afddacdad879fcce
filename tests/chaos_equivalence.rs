//! Chaos equivalence: the verified NAT's observable behavior under
//! injected faults, in three strengths.
//!
//! 1. **Loss-free fault schedules are invisible.** Stalls and transient
//!    pump errors delay delivery but lose nothing; driving the same
//!    traffic through a faulted and a fault-free backend must produce
//!    byte-identical per-queue TX sequences, identical NAT state
//!    (stamps and LRU order included), and identical forward/drop
//!    totals. This is the strongest statement the paper's seam allows:
//!    the verified semantics do not depend on *when* the NIC delivers,
//!    only on per-queue FIFO order — which these faults preserve.
//! 2. **Lossy fault schedules degrade accountably.** Drops,
//!    truncation, corruption, duplication, reordering, and TX overruns
//!    may lose frames, but (a) the NAT never panics and its state
//!    invariants hold (`check_coherence`), (b) every staged frame is
//!    attributed to exactly one counter — the conservation equation
//!    closes — and (c) no ports leak: once the clock passes the expiry
//!    horizon, occupancy returns to zero.
//! 3. **Worker kills degrade per-shard.** A worker panic mid-burst
//!    surfaces as a `WorkerDown` report (never a deadlock), the shard
//!    restarts empty, and the *surviving* shard's output stays
//!    byte-identical to a sequential oracle throughout — the oracle
//!    mirrors only the supervisor's documented recovery (skip the lost
//!    job, reset the shard).
//!
//! Everything is seeded and deterministic: the fault layer's SplitMix64
//! stream makes each schedule reproducible byte-for-byte.

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig, ShardedFlowManager};
use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, Flow, Ip4};
use vignat_repro::sim::backend::{
    CorruptKind, FaultIo, FaultPlan, PacketIo, SimBackend, TesterIo, TruncateKind,
};
use vignat_repro::sim::dpdk::Mempool;
use vignat_repro::sim::eventloop::{BackendDriver, DrainStats};
use vignat_repro::sim::harness::ParallelShardedNat;
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb, Verdict};
use vignat_repro::sim::tester::FlowGen;
use vignat_repro::sim::RssClassifier;

const QUEUES: usize = 2;
const SHARDS: usize = 2; // == QUEUES: each shard feeds from one queue,
                         // so per-queue FIFO order fixes per-shard order

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 256,
        expiry_ns: Time::from_secs(60).nanos(),
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    }
}

/// Full observable NAT state: (shard, slot, flow, stamp) in LRU order.
fn nat_state(nf: &ShardedVigNatMb) -> Vec<(usize, usize, Flow, Time)> {
    let fm = nf.flow_manager();
    let mut out = Vec::new();
    for s in 0..fm.shard_count() {
        for (slot, flow, stamp) in fm.shard(s).iter_lru() {
            out.push((s, slot, flow, stamp));
        }
    }
    out
}

/// Per-shard LRU snapshots with coherence asserted.
fn sharded_state(t: &ShardedFlowManager) -> Vec<Vec<(usize, Flow, Time)>> {
    FlowTable::check_coherence(t).expect("sharded coherence");
    t.snapshot()
}

fn fold(acc: &mut (u64, u64, u64), s: &DrainStats) {
    acc.0 += s.forwarded;
    acc.1 += s.dropped;
    acc.2 += s.tx_dropped;
}

/// Reaped TX frames regrouped per (dir, queue) — cross-queue
/// interleaving is timing (faults legitimately change it); per-queue
/// sequences are semantics (loss-free faults must not).
fn reap_per_queue<B: TesterIo>(io: &mut B) -> Vec<Vec<Vec<u8>>> {
    let mut out = vec![Vec::new(); 2 * QUEUES];
    for (d, dir) in [Direction::Internal, Direction::External]
        .into_iter()
        .enumerate()
    {
        for (q, frame) in io.reap(dir) {
            out[d * QUEUES + q].push(frame);
        }
    }
    out
}

/// Three waves of traffic: fresh flows, replies + repeats, repeat
/// flood. `learned` feeds wave 1 the wave-0 translations.
fn wave_frames(gen: &FlowGen, wave: usize, learned: &[Vec<u8>]) -> Vec<(Direction, Vec<u8>)> {
    let mut frames = Vec::new();
    match wave {
        0 => {
            for i in 0..40u32 {
                let f = gen.background(i);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::Internal, buf));
            }
        }
        1 => {
            for t in learned {
                let (_, ff) = parse_l3l4(t).expect("translated frame parses");
                let f = gen.return_for(ff.src_ip, ff.src_port);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::External, buf));
            }
            for i in 0..12u32 {
                let f = gen.background(i);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::Internal, buf));
            }
        }
        _ => {
            for k in 0..120u32 {
                let f = gen.background(k % 6);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::Internal, buf));
            }
        }
    }
    frames
}

/// Service rounds per wave on the faulted side: enough that every
/// stall window scheduled inside the wave expires and every pump fault
/// retries (the schedule below keeps windows well inside this span).
const ROUNDS_PER_WAVE: u64 = 64;

#[test]
fn loss_free_fault_schedule_is_byte_identical_to_no_fault_oracle() {
    let c = cfg();
    let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);

    // Stalls and pump errors only: frames are delayed, never lost or
    // mutated. Windows are scheduled inside each wave's round span.
    // Waves run ROUNDS_PER_WAVE service rounds each, so wave w covers
    // rounds [64w+1, 64(w+1)]: schedule each stall inside the wave
    // whose traffic it should delay (wave 1 carries the return flows).
    let plan = FaultPlan::seeded(0x10ad_f4ee)
        .pump_error_1_in(4)
        .stall(Direction::Internal, 0, 3, 6)
        .stall(Direction::Internal, 1, 70, 5)
        .stall(Direction::External, 0, 68, 4)
        .stall(Direction::External, 1, 80, 3)
        .stall(Direction::Internal, 0, 135, 6);
    assert!(!plan.is_identity());

    let mut chaos_nf = ShardedVigNatMb::sharded(c, SHARDS);
    let mut chaos_drv = BackendDriver::new(FaultIo::new(
        SimBackend::new(RssClassifier::for_nat(&c, QUEUES), 4096),
        plan,
    ));
    let mut oracle_nf = ShardedVigNatMb::sharded(c, SHARDS);
    let mut oracle_drv =
        BackendDriver::new(SimBackend::new(RssClassifier::for_nat(&c, QUEUES), 4096));

    let mut chaos_tot = (0u64, 0u64, 0u64);
    let mut oracle_tot = (0u64, 0u64, 0u64);
    let mut learned: Vec<Vec<u8>> = Vec::new();
    for wave in 0..3 {
        let now = Time::from_secs(1 + wave as u64);
        for (dir, bytes) in wave_frames(&gen, wave, &learned) {
            let a = chaos_drv.io_mut().stage(dir, |b| {
                b[..bytes.len()].copy_from_slice(&bytes);
                bytes.len()
            });
            let b = oracle_drv.io_mut().stage(dir, |b| {
                b[..bytes.len()].copy_from_slice(&bytes);
                bytes.len()
            });
            assert!(a.is_some() && b.is_some(), "rings sized for the schedule");
        }
        // The faulted side needs repeated rounds at the *same* clock so
        // stalled queues catch up within the wave; the oracle drains in
        // one call. Same `now` everywhere = identical stamps.
        for _ in 0..ROUNDS_PER_WAVE {
            fold(&mut chaos_tot, &chaos_drv.service_once(&mut chaos_nf, now));
        }
        fold(&mut oracle_tot, &oracle_drv.drain(&mut oracle_nf, now));

        let chaos_tx = reap_per_queue(chaos_drv.io_mut());
        let oracle_tx = reap_per_queue(oracle_drv.io_mut());
        assert_eq!(
            chaos_tx, oracle_tx,
            "wave {wave}: per-queue TX bytes diverged under a loss-free schedule"
        );
        if wave == 0 {
            learned = oracle_tx[QUEUES..].concat(); // external-port TX
        }
    }

    assert_eq!(chaos_tot, oracle_tot, "forward/drop totals diverged");
    assert_eq!(chaos_tot.2, 0, "loss-free schedule must not TX-drop");
    assert_eq!(nat_state(&chaos_nf), nat_state(&oracle_nf));
    assert_eq!(chaos_nf.expired_total(), oracle_nf.expired_total());
    FlowTable::check_coherence(chaos_nf.flow_manager()).expect("coherence under faults");

    // The schedule really ran, and only its loss-free faults fired.
    let fs = chaos_drv.io().fault_stats();
    assert!(fs.stalled_rounds > 0, "stall windows must have been active");
    assert!(fs.pump_faults > 0, "pump errors must have fired");
    assert_eq!(fs.rx_injected_drops, 0);
    assert_eq!(fs.rx_truncated, 0);
    assert_eq!(fs.rx_corrupted, 0);
    assert_eq!(fs.rx_duplicated, 0);
    assert_eq!(fs.rx_reordered, 0);
    assert_eq!(fs.tx_rejections, 0);
}

#[test]
fn lossy_fault_schedule_keeps_invariants_and_attributes_every_frame() {
    let c = cfg();
    let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);

    let plan = FaultPlan::seeded(0xbad_cafe)
        .drop_1_in(5)
        .truncate_1_in(7, TruncateKind::ShortL4)
        .corrupt_1_in(6, CorruptKind::BadIhl)
        .duplicate_1_in(9)
        .reorder_1_in(4)
        .pump_error_1_in(6)
        .tx_reject_1_in(11, 8) // overrun longer than the retry budget
        .stall(Direction::Internal, 0, 10, 8);

    let mut nf = ShardedVigNatMb::sharded(c, SHARDS);
    let mut drv = BackendDriver::new(FaultIo::new(
        SimBackend::new(RssClassifier::for_nat(&c, QUEUES), 4096),
        plan,
    ));

    let mut tot = (0u64, 0u64, 0u64);
    let mut staged = 0u64;
    let mut learned: Vec<Vec<u8>> = Vec::new();
    for wave in 0..3 {
        let now = Time::from_secs(1 + wave as u64);
        for (dir, bytes) in wave_frames(&gen, wave, &learned) {
            if drv
                .io_mut()
                .stage(dir, |b| {
                    b[..bytes.len()].copy_from_slice(&bytes);
                    bytes.len()
                })
                .is_some()
            {
                staged += 1;
            }
        }
        for _ in 0..ROUNDS_PER_WAVE {
            fold(&mut tot, &drv.service_once(&mut nf, now));
        }
        let tx = reap_per_queue(drv.io_mut());
        if wave == 0 {
            learned = tx[QUEUES..].concat();
            assert!(
                !learned.is_empty(),
                "some wave-0 flows must survive the faults"
            );
        }
    }

    // Conservation: every staged frame is attributed exactly once.
    // Staged frames either entered a per-queue FIFO (rx) or overflowed
    // it (rx_dropped); FIFO frames either reached the NAT, or were
    // injected-dropped at rx_burst; duplicates add NAT arrivals on top.
    // NAT arrivals forward (tx'd or TX-dropped) or drop.
    let (forwarded, nat_dropped, tx_dropped) = tot;
    let fs = drv.io().fault_stats();
    let mut rx = 0u64;
    let mut rx_fifo_dropped = 0u64;
    for dir in [Direction::Internal, Direction::External] {
        for q in 0..QUEUES {
            let s = drv.io().queue_stats(dir, q);
            rx += s.rx;
            rx_fifo_dropped += s.rx_dropped;
        }
    }
    assert_eq!(staged, rx + rx_fifo_dropped, "staging ledger");
    assert_eq!(
        forwarded + nat_dropped + tx_dropped,
        rx - fs.rx_injected_drops + fs.rx_duplicated,
        "conservation equation must close: {fs:?}"
    );
    // The schedule's lossy faults all actually fired.
    assert!(fs.rx_injected_drops > 0);
    assert!(fs.rx_truncated > 0);
    assert!(fs.rx_corrupted > 0);
    assert!(fs.rx_duplicated > 0);
    assert!(fs.rx_reordered > 0);
    assert!(fs.tx_rejections > 0);
    assert!(
        tx_dropped > 0,
        "the long TX overrun must exhaust the retry budget"
    );
    assert!(
        nat_dropped > 0,
        "truncated/corrupted frames must reach the NAT and drop"
    );

    // State invariants hold under every fault above.
    FlowTable::check_coherence(nf.flow_manager()).expect("coherence under lossy faults");
    let resident = nf.occupancy();
    assert!(resident > 0, "some flows must have been admitted");

    // No leaked ports: past the expiry horizon every mapping dies. Each
    // delivered frame ticks expiry on its shard, so keep offering one
    // frame per queue until both shards have drained (faults may eat
    // individual probes — the loop just offers more).
    let late = Time::from_secs(200);
    let mut tries = 0;
    while nf.occupancy() > 0 {
        assert!(tries < 500, "flows leaked past the expiry horizon");
        // Return-direction probes into each shard's port range: the
        // expiry pass runs first and clears every overdue flow on that
        // shard, then the (now-dead) lookup misses and the probe drops
        // — a pure expiry tick, admitting nothing. One probe per shard;
        // faults may eat individual probes, the loop just offers more.
        let per_shard = c.capacity as u16 / SHARDS as u16;
        for s in 0..SHARDS as u16 {
            let probe = PacketBuilder::udp(
                Ip4::new(9, 9, 9, 9),
                c.external_ip,
                1,
                c.start_port + s * per_shard,
            )
            .build();
            let _ = drv.io_mut().stage(Direction::External, |b| {
                b[..probe.len()].copy_from_slice(&probe);
                probe.len()
            });
        }
        drv.service_once(&mut nf, late);
        tries += 1;
    }
    FlowTable::check_coherence(nf.flow_manager()).expect("coherence after full expiry");
}

#[test]
fn worker_kill_reports_down_restarts_and_keeps_survivor_parity() {
    let c = NatConfig {
        capacity: 64,
        expiry_ns: Time::from_secs(60).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 4096,
        ..NatConfig::paper_default()
    };
    const KILL_ROUND: usize = 5;
    let mut seq = ShardedVigNatMb::sharded(c, SHARDS);
    let mut par = ParallelShardedNat::new(c, SHARDS, 256);
    let cls = par.classifier();
    let mut pool = Mempool::new(256);

    let ((), report) = par.with_runtime(false, |session| {
        let mut now = Time::from_secs(1);
        for round in 0..10 {
            now = now.plus(1_000_000);
            let frames: Vec<Vec<u8>> = (0..12u16)
                .map(|i| {
                    PacketBuilder::udp(
                        Ip4::new(10, 0, 0, 2 + (i % 5) as u8),
                        Ip4::new(1, 1, 1, 1),
                        1000 + round as u16 * 16 + i,
                        53,
                    )
                    .build()
                })
                .collect();
            let dir = Direction::Internal;
            if round == KILL_ROUND {
                // Note: the injected panic prints the worker thread's
                // panic message to stderr — expected noise here.
                assert!(session.kill_worker(0));
            }
            let mut par_frames = frames.clone();
            let v_par = session.process_burst(dir, &mut par_frames, now);

            if round == KILL_ROUND {
                // The supervisor dropped shard 0's job; the oracle
                // mirrors the documented recovery exactly: process only
                // the surviving shard's frames, then reset shard 0.
                let keep: Vec<usize> = (0..frames.len())
                    .filter(|&i| cls.queue_of(dir, &frames[i]) == 1)
                    .collect();
                assert!(!keep.is_empty() && keep.len() < frames.len());
                let bufs: Vec<_> = keep
                    .iter()
                    .map(|&i| {
                        let b = pool.get().expect("pool sized for a burst");
                        pool.write_frame(b, &frames[i]);
                        b
                    })
                    .collect();
                let v_seq = seq.process_burst(dir, &mut pool, &bufs, now);
                for (k, &i) in keep.iter().enumerate() {
                    assert_eq!(v_par[i], v_seq[k], "survivor verdict diverged");
                    assert_eq!(
                        pool.frame(bufs[k]),
                        &par_frames[i][..],
                        "survivor bytes diverged in the killed round"
                    );
                }
                for b in bufs {
                    pool.put(b);
                }
                for i in 0..frames.len() {
                    if !keep.contains(&i) {
                        assert_eq!(v_par[i], Verdict::Drop, "lost frames report Drop");
                        assert_eq!(par_frames[i], frames[i], "lost frames come back unmodified");
                    }
                }
                let downs = session.down_events();
                assert_eq!(downs.len(), 1);
                assert_eq!(downs[0].shard, 0);
                assert!(downs[0].restarted, "panic recovery restarts the worker");
                assert_eq!(downs[0].frames_lost, frames.len() - keep.len());
                assert_eq!(
                    session.supervisor().frames_lost,
                    (frames.len() - keep.len()) as u64
                );
                assert!(session.shard_alive(0));
                seq.flow_manager_mut().shards_mut()[0].reset();
            } else {
                let bufs: Vec<_> = frames
                    .iter()
                    .map(|f| {
                        let b = pool.get().expect("pool sized for a burst");
                        pool.write_frame(b, f);
                        b
                    })
                    .collect();
                let v_seq = seq.process_burst(dir, &mut pool, &bufs, now);
                assert_eq!(v_par, v_seq, "verdicts diverged in round {round}");
                for (i, b) in bufs.into_iter().enumerate() {
                    assert_eq!(
                        pool.frame(b),
                        &par_frames[i][..],
                        "bytes diverged in round {round} packet {i}"
                    );
                    pool.put(b);
                }
            }
        }
    });
    assert_eq!(report.chaos.worker_downs, 1);
    assert_eq!(report.chaos.hard_deaths, 0);
    // After the mirrored reset, both sides rebuilt shard 0 identically:
    // full state parity, shard 0 included.
    assert_eq!(
        sharded_state(seq.flow_manager()),
        sharded_state(par.table())
    );
}
