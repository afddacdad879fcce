//! Backend conformance: every [`PacketIo`] implementation must be an
//! indistinguishable home for the verified NAT.
//!
//! Two differential layers:
//!
//! 1. **`SimBackend` keeps the [`PacketIo`] contract** — the
//!    [`BackendDriver`] over the simulated backend, fed an adversarial
//!    schedule (fresh flows, replies, garbage, a flood that overflows
//!    queues), forwards exactly the bytes the sequential per-frame
//!    `Middlebox::process` oracle produces for the admitted frames, and
//!    every per-queue counter (rx, rx drops, tx, tx bytes) reads what
//!    the contract says it must — under 2-descriptor rings and under
//!    40-descriptor rings, deeper than a visit's `MAX_BURST` frames, too.
//!    (`tests/queue_equivalence.rs` is the
//!    per-flow, tagged-payload version of the same proof.) The fault
//!    layer's identity theorem rides the same schedule.
//! 2. **Wire ≡ sim on a recorded trace** (`#[ignore]`, needs
//!    `CAP_NET_ADMIN`/`CAP_NET_RAW` — CI's `wire` job), for the
//!    mmap-ring `MmapBackend` bare and under `FaultIo` with the empty
//!    schedule: real frames cross a veth pair into the `AF_PACKET`
//!    backend while the backend records its arrival trace; the trace
//!    is then replayed through `SimBackend`, and tx order, per-queue
//!    stats (rx, drops, tx, tx bytes), and NAT state must match
//!    exactly. On this path the kernel is the tester — whatever it
//!    delivered (including any noise) is replayed verbatim, so parity
//!    is unconditional.
//!
//! The privileged module also pins down the mmap ring's edges: the
//! partial-block retire timeout, overrun behaviour (kernel drops are
//! counted, state never corrupts), and leak-free teardown. Its tests
//! run one at a time (`LIVE`): the leak test counts the whole
//! process's fds and mappings, which a parallel test opening sockets
//! or spawning `ip` would move.
//!
//! The suite always writes its tx traces to
//! `target/os-backend-trace/` so the CI job can upload them as
//! artifacts when a run fails.

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{FlowTable, NatConfig};
use vignat_repro::packet::{parse_l3l4, Direction, Flow, Ip4};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::{BackendDriver, TxRecord};
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb, Verdict};
use vignat_repro::sim::tester::FlowGen;
use vignat_repro::sim::RssClassifier;

fn cfg(capacity: usize) -> NatConfig {
    NatConfig {
        capacity,
        expiry_ns: Time::from_secs(60).nanos(),
        external_ip: Ip4::new(10, 1, 0, 1),
        start_port: 1000,
        ..NatConfig::paper_default()
    }
}

/// The NAT's full observable state: (shard, slot, flow, stamp) for
/// every resident flow, in LRU order — what "same NAT state" means in
/// every parity assertion here.
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

/// Per-queue stats of both ports, as comparable
/// `(rx, rx_dropped, tx, tx_bytes)` tuples.
fn all_queue_stats<B: PacketIo>(io: &B) -> Vec<(u64, u64, u64, u64)> {
    let mut out = Vec::new();
    for dir in [Direction::Internal, Direction::External] {
        for q in 0..io.queue_count() {
            let s = io.queue_stats(dir, q);
            out.push((s.rx, s.rx_dropped, s.tx, s.tx_bytes));
        }
    }
    out
}

/// One schedule round: frames (with their port) offered to both sides.
type RoundFrames = Vec<(Direction, Vec<u8>)>;

/// Build a mixed adversarial schedule: new flows, repeats, replies to
/// round-1 translations, garbage, and a flood aimed at one queue.
/// Replies are crafted from `learned` (the translated frames the first
/// round produced — identical on both sides by the time they are
/// needed).
fn mixed_round(gen: &FlowGen, round: usize, learned: &[Vec<u8>]) -> RoundFrames {
    let mut frames: RoundFrames = Vec::new();
    match round {
        0 => {
            // 40 fresh flows.
            for i in 0..40u32 {
                let f = gen.background(i);
                let mut buf = vec![0u8; 128];
                let n = gen.write_frame(&f, &mut buf);
                buf.truncate(n);
                frames.push((Direction::Internal, buf));
            }
        }
        1 => {
            // Replies to everything learned, plus repeats and garbage.
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
            frames.push((Direction::Internal, vec![0xa5u8; 60]));
            frames.push((Direction::External, vec![0x5au8; 24]));
        }
        _ => {
            // Flood: many packets of few flows — some queue overflows.
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

/// Drive the driver over `SimBackend` through the adversarial schedule
/// and hold it, round by round, to the sequential oracle — per-frame
/// `Middlebox::process` over the admitted frames in staging order —
/// and to the per-queue ledger the [`PacketIo`] contract implies: a
/// frame is admitted while its RSS queue's ring has room and counted
/// as an RX drop on that queue otherwise; a forwarded frame is counted,
/// with its bytes, on the egress port's TX queue of the carrying
/// queue's index. With `queues == shards` and nothing expiring, what a
/// flow's packets become does not depend on how the scheduler
/// interleaves queues, so the forwarded bytes must agree exactly (as
/// multisets: the flood repeats frames).
fn run_against_oracle(queues: usize, ring: usize) {
    let c = cfg(256);
    let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
    let classifier = RssClassifier::for_nat(&c, queues);

    let mut oracle_nf = ShardedVigNatMb::sharded(c, queues);
    let mut nf = ShardedVigNatMb::sharded(c, queues);
    let mut drv = BackendDriver::new(SimBackend::new(classifier, ring));

    // (rx, rx_dropped, tx, tx_bytes) per port (internal first) × queue,
    // in `all_queue_stats` order.
    let mut ledger = vec![(0u64, 0u64, 0u64, 0u64); 2 * queues];
    let slot = |dir: Direction, q: usize| match dir {
        Direction::Internal => q,
        Direction::External => queues + q,
    };

    let mut learned: Vec<Vec<u8>> = Vec::new();
    for round in 0..3 {
        let frames = mixed_round(&gen, round, &learned);
        let now = Time::from_secs(1 + round as u64);

        // Every round starts with empty rings (the last drain emptied
        // them), so a queue admits its first `ring` frames.
        let mut depth = vec![0usize; 2 * queues];
        let mut want: Vec<(Direction, Vec<u8>)> = Vec::new();
        let mut nf_drops = 0u64;
        for (dir, bytes) in &frames {
            let q = classifier.queue_of(*dir, bytes);
            let admitted = drv.io_mut().stage(*dir, |b| {
                b[..bytes.len()].copy_from_slice(bytes);
                bytes.len()
            });
            let room = depth[slot(*dir, q)] < ring;
            assert_eq!(admitted, room.then_some(q), "admission in round {round}");
            if !room {
                ledger[slot(*dir, q)].1 += 1;
                continue;
            }
            depth[slot(*dir, q)] += 1;
            ledger[slot(*dir, q)].0 += 1;
            let mut f = bytes.clone();
            match oracle_nf.process(*dir, &mut f, now) {
                Verdict::Forward(out) => {
                    ledger[slot(out, q)].2 += 1;
                    ledger[slot(out, q)].3 += f.len() as u64;
                    want.push((out, f));
                }
                Verdict::Drop => nf_drops += 1,
            }
        }
        if round == 2 {
            assert!(
                ledger.iter().any(|l| l.1 > 0),
                "flood round must actually overflow a queue"
            );
        }

        let ds = drv.drain(&mut nf, now);
        assert_eq!(
            (ds.forwarded, ds.dropped, ds.tx_dropped),
            (want.len() as u64, nf_drops, 0),
            "drain totals diverged in round {round}"
        );
        let mut got: Vec<(Direction, Vec<u8>)> = Vec::new();
        for dir in [Direction::External, Direction::Internal] {
            let tx = drv.io_mut().reap(dir);
            if round == 0 && dir == Direction::External {
                learned = tx.iter().map(|(_, f)| f.clone()).collect();
            }
            got.extend(tx.into_iter().map(|(_, f)| (dir, f)));
        }
        let key = |(d, f): &(Direction, Vec<u8>)| (*d == Direction::External, f.clone());
        want.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(want, got, "forwarded bytes diverged in round {round}");

        assert_eq!(
            ledger,
            all_queue_stats(drv.io()),
            "per-queue accounting diverged in round {round}"
        );
        assert_eq!(oracle_nf.occupancy(), nf.occupancy());
        assert_eq!(oracle_nf.expired_total(), nf.expired_total());
        assert_eq!(
            drv.io().pool_available(),
            drv.io().pool().capacity(),
            "buffers leaked in round {round}"
        );
    }
    nf.flow_manager().check_coherence().unwrap();
}

/// The fault layer's identity theorem on the sim backend: `FaultIo`
/// with the empty schedule is byte-for-byte the inner backend — same
/// admissions, TX sequences, per-queue stats, NAT state, pool levels,
/// and untouched fault counters — across the same adversarial schedule
/// the oracle suite uses (overflow round included).
fn run_faultio_identity(queues: usize, shards: usize, ring: usize) {
    use vignat_repro::sim::backend::{FaultIo, FaultPlan, FaultStats};
    let c = cfg(256);
    let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);

    let mut plain_nf = ShardedVigNatMb::sharded(c, shards);
    let mut plain = BackendDriver::new(SimBackend::new(RssClassifier::for_nat(&c, queues), ring));
    let mut nf = ShardedVigNatMb::sharded(c, shards);
    let mut drv = BackendDriver::new(FaultIo::new(
        SimBackend::new(RssClassifier::for_nat(&c, queues), ring),
        FaultPlan::none(),
    ));

    let mut learned: Vec<Vec<u8>> = Vec::new();
    for round in 0..3 {
        let frames = mixed_round(&gen, round, &learned);
        let now = Time::from_secs(1 + round as u64);
        for (dir, bytes) in &frames {
            let a = plain.io_mut().stage(*dir, |b| {
                b[..bytes.len()].copy_from_slice(bytes);
                bytes.len()
            });
            let b = drv.io_mut().stage(*dir, |b| {
                b[..bytes.len()].copy_from_slice(bytes);
                bytes.len()
            });
            assert_eq!(a, b, "admission diverged in round {round}");
        }
        let ps = plain.drain(&mut plain_nf, now);
        let fs = drv.drain(&mut nf, now);
        assert_eq!(
            (ps.forwarded, ps.dropped, ps.tx_dropped, ps.bursts, ps.polls),
            (fs.forwarded, fs.dropped, fs.tx_dropped, fs.bursts, fs.polls),
            "drain stats diverged in round {round}"
        );
        for dir in [Direction::External, Direction::Internal] {
            let pt = plain.io_mut().reap(dir);
            let ft = drv.io_mut().reap(dir);
            assert_eq!(pt, ft, "tx sequence diverged in round {round} on {dir:?}");
            if round == 0 && dir == Direction::External {
                learned = pt.iter().map(|(_, f)| f.clone()).collect();
            }
        }
        assert_eq!(
            all_queue_stats(plain.io()),
            all_queue_stats(drv.io()),
            "per-queue accounting diverged in round {round}"
        );
        assert_eq!(nat_state(&plain_nf), nat_state(&nf));
        assert_eq!(
            plain.io().pool_available(),
            drv.io().inner().pool_available()
        );
    }
    assert_eq!(drv.io().fault_stats(), FaultStats::default());
    nf.flow_manager().check_coherence().unwrap();
}

#[test]
fn faultio_empty_schedule_is_identity_on_sim_backend() {
    run_faultio_identity(4, 2, 8);
}

#[test]
fn faultio_identity_holds_under_queue_overflow() {
    run_faultio_identity(2, 2, 2);
}

#[test]
fn drop_accounting_parity_under_queue_overflow() {
    // 2-descriptor rings: nearly everything overflows; the backend
    // must agree with the ledger on every per-queue drop counter anyway.
    run_against_oracle(2, 2);
}

#[test]
fn weighted_budgets_preserve_equivalence() {
    // Visit budgets smaller than a queue's depth change when each queue
    // is served, never what its frames become: 40-descriptor rings take
    // two MAX_BURST visits when full, and the flood round still
    // overflows one (120 frames over two queues put at least 60 in one).
    run_against_oracle(2, 40);
}

// ---------------------------------------------------------------------
// Wire-backend conformance (privileged; CI's wire job).
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod os {
    use super::*;
    use std::io::Write;
    use vignat_repro::sim::backend::os::mmap::{MmapBackend, MmapRingConfig};
    use vignat_repro::sim::backend::os::{OsTestRig, VethPair, WireBackend};

    /// Held for the whole body of every live test: they share the
    /// process's fd table and address space, which the leak test
    /// counts.
    static LIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Take [`LIVE`]; a test that panicked while holding it leaves
    /// nothing behind that the next one depends on.
    fn live() -> std::sync::MutexGuard<'static, ()> {
        LIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Frames the backend took from the kernel past the
    /// own-transmission filter: each one was admitted or dropped on a
    /// queue, so it shows up as `rx` or `rx_dropped`.
    fn rx_seen(io: &impl PacketIo) -> u64 {
        [Direction::Internal, Direction::External]
            .into_iter()
            .map(|dir| {
                let s = io.port_stats(dir);
                s.rx + s.rx_dropped
            })
            .sum()
    }

    /// Where the CI job picks up failure artifacts.
    fn trace_dir() -> std::path::PathBuf {
        let d = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/os-backend-trace");
        let _ = std::fs::create_dir_all(&d);
        d
    }

    fn dump_trace(name: &str, records: &[TxRecord]) {
        if let Ok(mut f) = std::fs::File::create(trace_dir().join(name)) {
            for r in records {
                let _ = writeln!(f, "{:?} q{} {:02x?}", r.out, r.queue, r.frame);
            }
        }
    }

    fn dump_rx(name: &str, rounds: &[(Time, RoundFrames)]) {
        if let Ok(mut f) = std::fs::File::create(trace_dir().join(name)) {
            for (now, arrivals) in rounds {
                let _ = writeln!(f, "-- round at {now:?} --");
                for (dir, bytes) in arrivals {
                    let _ = writeln!(f, "{dir:?} {bytes:02x?}");
                }
            }
        }
    }

    /// Create the two veth pairs a wire test needs, or `None` (skip)
    /// when the capability is missing. `prefix` ≤ 9 chars keeps the
    /// interface names under IFNAMSIZ.
    fn wire(prefix: &str) -> Option<(VethPair, VethPair)> {
        let int_veth = match VethPair::create(&format!("{prefix}-int0"), &format!("{prefix}-int1"))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("SKIP ({prefix}): {e}");
                return None;
            }
        };
        let ext_veth = match VethPair::create(&format!("{prefix}-ext0"), &format!("{prefix}-ext1"))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("SKIP ({prefix}): {e}");
                return None;
            }
        };
        Some((int_veth, ext_veth))
    }

    /// Same packet trace in → same NAT state, tx order, per-queue
    /// stats, and drop counters out, across the wire/sim boundary —
    /// generic over the wire backend, so the bare mmap-ring backend and
    /// the same backend under `FaultIo` prove the identical property.
    /// The wire side
    /// records what the kernel actually delivered; the sim side
    /// replays that recording, so the comparison is exact by
    /// construction.
    fn recorded_trace_parity<B, F>(label: &str, prefix: &str, open: F)
    where
        B: WireBackend,
        F: FnOnce(&VethPair, &VethPair, RssClassifier, usize) -> std::io::Result<OsTestRig<B>>,
    {
        const QUEUES: usize = 2;
        const SHARDS: usize = 2;
        const RING: usize = 64;
        let c = cfg(256);

        let Some((int_veth, ext_veth)) = wire(prefix) else {
            return;
        };
        let rig = match open(
            &int_veth,
            &ext_veth,
            RssClassifier::for_nat(&c, QUEUES),
            RING,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("SKIP {label}: {e}");
                return;
            }
        };

        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
        let mut os_nf = ShardedVigNatMb::sharded(c, SHARDS);
        let mut os_drv = BackendDriver::new(rig);
        os_drv.set_tx_log(true);
        os_drv.io_mut().backend_mut().set_rx_log(true);

        // Drive rounds across the real wire, keeping each round's
        // kernel-delivered arrivals (the recorded trace to replay).
        let mut os_rounds: Vec<(Time, RoundFrames)> = Vec::new();
        let mut os_tx: Vec<TxRecord> = Vec::new();
        let mut learned: Vec<Vec<u8>> = Vec::new();
        for round in 0..3 {
            let frames = mixed_round(&gen, round, &learned);
            let now = Time::from_secs(1 + round as u64);
            let mut sent = 0usize;
            for (dir, bytes) in &frames {
                if os_drv
                    .io_mut()
                    .stage(*dir, |b| {
                        b[..bytes.len()].copy_from_slice(bytes);
                        bytes.len()
                    })
                    .is_some()
                {
                    sent += 1;
                }
            }
            assert_eq!(sent, frames.len(), "wire injection failed in round {round}");

            // Wait until the kernel has delivered everything we sent
            // (plus whatever noise it adds — replayed either way).
            // Frames dropped at a full RX FIFO still count as seen:
            // the recorded trace replays the drop identically in sim.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let seen_before = rx_seen(os_drv.io().backend());
            loop {
                os_drv.io_mut().pump_rx();
                let seen = (rx_seen(os_drv.io().backend()) - seen_before) as usize;
                if seen >= sent {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "round {round}: kernel delivered {seen}/{sent} frames within deadline"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }

            let stats = os_drv.drain(&mut os_nf, now);
            let _ = stats;
            // Collect what actually crossed the wire back to the tester.
            let expected_tx = os_drv.take_tx_log().into_iter().collect::<Vec<_>>();
            os_drv.set_tx_log(true); // re-arm (take_tx_log drains)
            let ext_expect = expected_tx
                .iter()
                .filter(|r| r.out == Direction::External)
                .count();
            let int_expect = expected_tx.len() - ext_expect;
            let wire_ext = os_drv.io_mut().reap_wait(
                Direction::External,
                ext_expect,
                std::time::Duration::from_secs(5),
            );
            let wire_int = os_drv.io_mut().reap_wait(
                Direction::Internal,
                int_expect,
                std::time::Duration::from_secs(5),
            );
            // Every frame the driver forwarded arrived on the tester's
            // side of the wire, bytes intact (kernel delivery order may
            // interleave queues: compare as multisets).
            let mut sent_ext: Vec<Vec<u8>> = expected_tx
                .iter()
                .filter(|r| r.out == Direction::External)
                .map(|r| r.frame.clone())
                .collect();
            let mut got_ext: Vec<Vec<u8>> = wire_ext.into_iter().map(|(_, f)| f).collect();
            sent_ext.sort();
            got_ext.sort();
            assert_eq!(sent_ext, got_ext, "round {round}: external wire bytes");
            let mut sent_int: Vec<Vec<u8>> = expected_tx
                .iter()
                .filter(|r| r.out == Direction::Internal)
                .map(|r| r.frame.clone())
                .collect();
            let mut got_int: Vec<Vec<u8>> = wire_int.into_iter().map(|(_, f)| f).collect();
            sent_int.sort();
            got_int.sort();
            assert_eq!(sent_int, got_int, "round {round}: internal wire bytes");

            if round == 0 {
                learned = sent_ext;
            }
            os_rounds.push((now, os_drv.io_mut().backend_mut().take_rx_log()));
            os_tx.extend(expected_tx);
            // Keep the artifacts current after every round, so the CI
            // job's on-failure upload has them even when a later
            // round's assert (or the delivery deadline) fails first.
            dump_trace(&format!("{label}_tx_trace.txt"), &os_tx);
            dump_rx(&format!("{label}_rx_trace.txt"), &os_rounds);
        }
        // A last flush lets a ring transport confirm its final
        // completions before stats are compared.
        os_drv.io_mut().flush_tx();

        // Replay the recorded arrival trace through the sim backend.
        let mut sim_nf = ShardedVigNatMb::sharded(c, SHARDS);
        let mut sim_drv =
            BackendDriver::new(SimBackend::new(RssClassifier::for_nat(&c, QUEUES), RING));
        sim_drv.set_tx_log(true);
        let mut sim_dropped = 0u64;
        for (now, arrivals) in &os_rounds {
            for (dir, bytes) in arrivals {
                // `None` = admission drop (full FIFO) — the parity
                // event the OS side counted too, not a failure.
                let _ = sim_drv.io_mut().stage(*dir, |b| {
                    b[..bytes.len()].copy_from_slice(bytes);
                    bytes.len()
                });
            }
            let s = sim_drv.drain(&mut sim_nf, *now);
            sim_dropped += s.dropped;
            for dir in [Direction::External, Direction::Internal] {
                let _ = sim_drv.io_mut().reap(dir);
            }
        }

        // Parity: tx trace (order, queues, bytes), NAT state, and the
        // complete per-queue ledger — rx, rx drops, and the
        // flush-attributed tx/tx_bytes against sim's enqueue-attributed
        // ones (equal because every wire send succeeded; see below).
        let sim_tx = sim_drv.take_tx_log();
        dump_trace(&format!("{label}_tx_trace.txt"), &os_tx);
        dump_trace(&format!("{label}_sim_tx_trace.txt"), &sim_tx);
        assert_eq!(
            os_tx, sim_tx,
            "{label}: tx traces diverged (see target/os-backend-trace/)"
        );
        assert_eq!(
            nat_state(&os_nf),
            nat_state(&sim_nf),
            "{label}: NAT state diverged"
        );
        assert_eq!(
            all_queue_stats(os_drv.io()),
            all_queue_stats(sim_drv.io()),
            "{label}: per-queue rx/drop/tx/tx_bytes accounting diverged"
        );
        // NF-level drops: garbage frames the NAT refused.
        assert_eq!(os_nf.occupancy(), sim_nf.occupancy());
        assert!(sim_dropped > 0, "schedule contains garbage the NAT drops");
        assert_eq!(
            os_drv.io().backend().tx_errors(),
            0,
            "{label}: wire sends must succeed"
        );
        assert_eq!(
            os_drv.io().backend().rx_errors(),
            0,
            "{label}: no receive errors on a live veth"
        );
        assert_eq!(
            os_drv.io_mut().backend_mut().kernel_drops(),
            0,
            "{label}: this workload never overruns the kernel side"
        );
    }

    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW (veth + AF_PACKET mmap rings); run via CI wire or sudo"]
    fn mmap_backend_matches_sim_on_recorded_trace() {
        let _live = live();
        recorded_trace_parity("mmap", "vgmmp", OsTestRig::open);
    }

    /// The fault layer's identity theorem on the wire backend:
    /// `FaultIo(FaultPlan::none())` wrapped around a live
    /// `MmapBackend` passes the same recorded-trace parity proof the
    /// bare backend does, so an empty schedule changes nothing on a
    /// real kernel packet path either.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW (veth + AF_PACKET mmap rings); run via CI wire or sudo"]
    fn faultio_identity_holds_on_mmap_backend() {
        use vignat_repro::sim::backend::{FaultIo, FaultPlan};
        let _live = live();
        recorded_trace_parity("fault-mmap", "vgfmm", |i, e, cl, ring| {
            let inner = MmapBackend::open(&i.a, &e.a, cl, ring, MmapRingConfig::default())?;
            OsTestRig::with_backend(FaultIo::new(inner, FaultPlan::none()), i, e)
        });
    }

    /// A partially filled RX block must reach user space within the
    /// retire timeout — frames must never wait for a block to fill.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW; run via CI wire or sudo"]
    fn mmap_partial_block_retires_within_timeout() {
        let _live = live();
        let c = cfg(64);
        let Some((int_veth, ext_veth)) = wire("vgret") else {
            return;
        };
        let mut rig = match OsTestRig::open(&int_veth, &ext_veth, RssClassifier::for_nat(&c, 2), 64)
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("SKIP mmap_partial_block_retires_within_timeout: {e}");
                return;
            }
        };
        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
        // 3 small frames: a 32 KiB block is nowhere near full.
        for i in 0..3u32 {
            let f = gen.background(i);
            assert!(rig
                .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                .is_some());
        }
        // The retire timeout is 1 ms; give the kernel a generous
        // window, then one pump must surface all three frames.
        let ready = rig
            .backend()
            .wait_rx(Direction::Internal, 1000)
            .expect("poll works");
        assert!(ready, "retire timeout hands over the partial block");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while rx_seen(rig.backend()) < 3 {
            rig.pump_rx();
            assert!(
                std::time::Instant::now() < deadline,
                "3 frames must arrive via block retire, got {}",
                rx_seen(rig.backend())
            );
        }
        let rx_total: u64 = (0..2)
            .map(|q| rig.queue_stats(Direction::Internal, q).rx)
            .sum();
        assert_eq!(rx_total, 3, "all three admitted from the partial block");
    }

    /// Overrunning the RX ring loses frames *in the kernel* — counted
    /// via `PACKET_STATISTICS` — and must never corrupt backend state:
    /// after the flood, the rig still forwards cleanly.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW; run via CI wire or sudo"]
    fn mmap_ring_overrun_counts_kernel_drops_without_corruption() {
        let _live = live();
        let c = cfg(256);
        let Some((int_veth, ext_veth)) = wire("vgovr") else {
            return;
        };
        let classifier = RssClassifier::for_nat(&c, 2);
        // A deliberately tiny RX ring: two 4 KiB blocks per port.
        let rc = MmapRingConfig {
            rx_block_size: 4096,
            rx_block_count: 2,
            rx_frame_size: 2048,
            retire_ms: 1,
            ..MmapRingConfig::default()
        };
        let backend = match MmapBackend::open(&int_veth.a, &ext_veth.a, classifier, 64, rc) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("SKIP mmap_ring_overrun_counts_kernel_drops_without_corruption: {e}");
                return;
            }
        };
        let mut rig =
            OsTestRig::with_backend(backend, &int_veth, &ext_veth).expect("peer sockets open");
        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);

        // Flood without pumping: the kernel fills both blocks, then
        // must drop the excess outside the ring.
        let mut staged = 0u64;
        for k in 0..4096u32 {
            let f = gen.background(k % 8);
            if rig
                .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                .is_some()
            {
                staged += 1;
            }
        }
        assert!(staged > 1000, "flood must actually inject ({staged})");
        std::thread::sleep(std::time::Duration::from_millis(20));
        rig.pump_rx();
        let drops = rig.backend_mut().kernel_drops();
        let seen = rx_seen(rig.backend());
        assert!(
            drops > 0,
            "a 2-block ring cannot absorb {staged} frames (seen {seen}, kernel drops {drops})"
        );

        // State intact: the NAT still forwards a fresh flow end to end.
        let mut nf = ShardedVigNatMb::sharded(c, 2);
        let mut drv = BackendDriver::new(rig);
        drv.drain(&mut nf, Time::from_secs(1)); // clear the flood
        let f = gen.background(9999);
        assert!(drv
            .io_mut()
            .stage(Direction::Internal, |b| gen.write_frame(&f, b))
            .is_some());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut got = Vec::new();
        while got.is_empty() {
            drv.drain(&mut nf, Time::from_secs(2));
            got = drv.io_mut().reap_wait(
                Direction::External,
                1,
                std::time::Duration::from_millis(100),
            );
            assert!(
                std::time::Instant::now() < deadline,
                "post-overrun frame must still be translated and forwarded"
            );
        }
        let (_, ff) = parse_l3l4(&got[0].1).expect("translated frame parses");
        assert_eq!(ff.src_ip, c.external_ip, "NAT rewrite survived the overrun");
        assert_eq!(drv.io().backend().tx_errors(), 0);
    }

    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .map(|d| d.count())
            .unwrap_or(0)
    }

    fn mapping_count() -> usize {
        std::fs::read_to_string("/proc/self/maps")
            .map(|m| m.lines().count())
            .unwrap_or(0)
    }

    /// Ring teardown is leak-free: repeatedly opening and dropping a
    /// full mmap rig (4 sockets + 4 ring mappings per cycle, traffic
    /// included) leaves the fd table and the address space flat.
    #[test]
    #[ignore = "needs CAP_NET_ADMIN/CAP_NET_RAW; run via CI wire or sudo"]
    fn mmap_teardown_releases_rings_and_sockets() {
        let _live = live();
        let c = cfg(64);
        let Some((int_veth, ext_veth)) = wire("vglk") else {
            return;
        };
        let classifier = RssClassifier::for_nat(&c, 2);
        let gen = FlowGen::new(vignat_repro::packet::Proto::Udp);
        let cycle = |drive: bool| {
            let mut rig =
                OsTestRig::open(&int_veth, &ext_veth, classifier, 64).expect("mmap rig opens");
            if drive {
                let mut nf = ShardedVigNatMb::sharded(c, 2);
                let mut drv = BackendDriver::new(rig);
                let f = gen.background(1);
                assert!(drv
                    .io_mut()
                    .stage(Direction::Internal, |b| gen.write_frame(&f, b))
                    .is_some());
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while rx_seen(drv.io().backend()) < 1 {
                    drv.drain(&mut nf, Time::from_secs(1));
                    assert!(std::time::Instant::now() < deadline);
                }
                drv.drain(&mut nf, Time::from_secs(1));
                drv.io_mut().flush_tx();
                rig = drv.into_io();
                assert_eq!(rig.backend().tx_inflight(), 0, "quiescent flush reaps all");
            }
            drop(rig);
        };
        // Warm up allocator arenas and lazy runtime state first, so
        // the measured window only sees the rig's own resources.
        cycle(true);
        let fds_before = open_fds();
        let maps_before = mapping_count();
        for i in 0..5 {
            cycle(i % 2 == 0);
        }
        let fds_after = open_fds();
        let maps_after = mapping_count();
        assert_eq!(
            fds_before, fds_after,
            "socket fds leaked across open/drop cycles"
        );
        // One leaked cycle would add 4 ring mappings; allow a line or
        // two of allocator jitter but nothing ring-shaped.
        assert!(
            maps_after <= maps_before + 2,
            "ring mappings leaked: {maps_before} -> {maps_after}"
        );
    }
}
