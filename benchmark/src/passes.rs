//! The two kinds of run: the untraced end-to-end measurement, and the
//! traced pass with the ladder behind it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use netsim::backend::SimBackend;
use netsim::middlebox::{ShardedVigNatMb, Verdict};
use vig_packet::tcp::flags;
use vig_packet::{Direction, Proto};
use vignat::{FlowTable, ShardedFlowManager};

use crate::dut::{check_burst, Dut, RtDut, SimDut, TimedTotals};
use crate::gen::{
    flow_endpoint, tagged_frame, Item, ItemKind, Tester, REMOTE_IP, REMOTE_PORT, WINDOW, WINDOW_INT,
};
use crate::host::Host;
use crate::ladder::{self, Ctx, Rungs};
use crate::stats::{lower_quartile_over_segments, median, median_over_segments, Segment};
use crate::trace::{self, Recorder, SharedRecorder, TracedIo, TracedMb};
use crate::workload::{
    final_checks, setup_sim, with_runtime_run, Kind, Run, SetupInfo, SimRun, SEGMENTS, SIM_SHARDS,
    WARM_WINDOWS,
};

/// One workload's end-to-end result.
#[derive(Debug, Clone)]
pub struct E2e {
    /// The workload.
    pub kind: Kind,
    /// Its measured segments.
    pub segments: Vec<Segment>,
    /// Every set-up of the run (the metric is the median of their
    /// times; the heap is the same for each).
    pub setups: Vec<SetupInfo>,
    /// Packets offered, set-up included.
    pub attempted: u64,
    /// Packets that failed a check.
    pub failed: u64,
    /// Failed end-of-workload checks (leak, ring drop, conservation).
    pub problems: Vec<String>,
    /// `runtime` only: workers whose pin stuck, of workers.
    pub pinned_workers: Option<(usize, usize)>,
}

impl E2e {
    /// The five end-to-end metrics, in `BENCHMARK.json` order; times
    /// and rates at the reference core speed.
    pub fn metrics(&self) -> [f64; 5] {
        let setups = self.setups.iter();
        [
            median_over_segments(&self.segments, |s| s.mpps / s.to_ref),
            median_over_segments(&self.segments, |s| s.p50_us * s.to_ref),
            lower_quartile_over_segments(&self.segments, |s| s.p99_us * s.to_ref),
            median(&mut setups.map(SetupInfo::secs_at_ref).collect::<Vec<_>>()),
            self.setups
                .last()
                .map_or(0.0, |s| s.heap_bytes as f64 / 1e6),
        ]
    }

    /// The three timing metrics exactly as the clock read them.
    pub fn as_measured(&self) -> [f64; 4] {
        [
            median_over_segments(&self.segments, |s| s.mpps),
            median_over_segments(&self.segments, |s| s.p50_us),
            lower_quartile_over_segments(&self.segments, |s| s.p99_us),
            median(&mut self.setups.iter().map(|s| s.secs).collect::<Vec<_>>()),
        ]
    }

    /// No packet failed and every end-of-workload check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Wall time the repeated set-ups of one workload may take, and the
/// bounds on how many there are.
const SETUP_BUDGET_S: f64 = 4.0;
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 51;

fn setup_repeats(first_secs: f64) -> usize {
    ((SETUP_BUDGET_S / first_secs.max(1e-6)).ceil() as usize).clamp(SETUP_MIN, SETUP_MAX)
}

/// Set a sim workload up several times (each on a fresh DUT, the
/// previous one dropped first); keep the last.
fn setup_sim_repeated(kind: Kind, seed: u64) -> (SimRun, Vec<SetupInfo>) {
    let (mut run, first) = setup_sim(kind, seed);
    let mut setups = vec![first];
    for _ in 1..setup_repeats(first.secs) {
        drop(run);
        let (again, info) = setup_sim(kind, seed);
        run = again;
        setups.push(info);
    }
    (run, setups)
}

fn measure_all(
    sims: &mut [(SimRun, Vec<SetupInfo>)],
    mut rt: Option<&mut Run<RtDut<'_, '_>>>,
    seconds: f64,
) {
    let budget = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    for (run, ..) in sims.iter_mut() {
        run.warm(WARM_WINDOWS);
    }
    if let Some(rt) = rt.as_deref_mut() {
        rt.warm(WARM_WINDOWS);
    }
    // Segments of the selected workloads interleave round-robin, so a
    // slow phase of the host lands on all of them, not on one.
    for _ in 0..SEGMENTS {
        for (run, ..) in sims.iter_mut() {
            run.segment(budget);
        }
        if let Some(rt) = rt.as_deref_mut() {
            rt.segment(budget);
        }
    }
}

/// Measure `kinds` end to end: `seconds` of wall time each, in
/// [`SEGMENTS`] interleaved segments, tracing off.
pub fn end_to_end(host: &Host, kinds: &[Kind], seed: u64, seconds: f64) -> Vec<E2e> {
    host.pin_main();
    let mut sims: Vec<(SimRun, Vec<SetupInfo>)> = kinds
        .iter()
        .filter(|&&k| k != Kind::Runtime)
        .map(|&k| setup_sim_repeated(k, seed))
        .collect();
    let mut runtime = None;
    if kinds.contains(&Kind::Runtime) {
        let (first, _) = with_runtime_run(seed, |_, info: SetupInfo| info);
        let mut setups = vec![first];
        for _ in 2..setup_repeats(first.secs) {
            setups.push(with_runtime_run(seed, |_, info: SetupInfo| info).0);
        }
        let (e2e, _after) = with_runtime_run(seed, |run, info| {
            setups.push(info);
            measure_all(&mut sims, Some(run), seconds);
            let sup = run.dut.session().supervisor();
            let pin = run.dut.session().pin_report();
            let mut problems = Vec::new();
            if sup != Default::default() {
                problems.push(format!("runtime supervisor saw faults: {sup:?}"));
            }
            E2e {
                kind: Kind::Runtime,
                segments: run.segments.clone(),
                setups: std::mem::take(&mut setups),
                attempted: run.tester.attempted,
                failed: run.tester.failed,
                problems,
                pinned_workers: Some((pin.pinned, pin.workers)),
            }
        });
        runtime = Some(e2e);
    } else {
        measure_all(&mut sims, None, seconds);
    }
    let mut done: Vec<E2e> = sims
        .into_iter()
        .map(|(run, setups)| E2e {
            kind: run.kind,
            problems: final_checks(&run),
            segments: run.segments,
            setups,
            attempted: run.tester.attempted,
            failed: run.tester.failed,
            pinned_workers: None,
        })
        .collect();
    done.extend(runtime);
    done.sort_by_key(|e| kinds.iter().position(|&k| k == e.kind));
    done
}

/// One workload's traced result.
#[derive(Debug)]
pub struct Traced {
    /// The workload.
    pub kind: Kind,
    /// `(per-layer metric, value)` for every metric that applies to
    /// this workload; the report fills the rest with 0.
    pub values: Vec<(&'static str, f64)>,
    /// `(timing, samples behind it)`.
    pub samples: Vec<(&'static str, usize)>,
    /// Windows per pass (untraced, and again traced).
    pub windows: usize,
    /// Packets offered, set-up included.
    pub attempted: u64,
    /// Packets that failed a check.
    pub failed: u64,
    /// Failed end-of-workload checks.
    pub problems: Vec<String>,
    /// Where the trace file went.
    pub trace_file: String,
}

impl Traced {
    /// No packet failed and every end-of-workload check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Windows per pass (untraced, then traced) per second of `--seconds`:
/// fixed by the arguments, never by the clock, so every count the pass
/// produces repeats exactly for a given seed.
fn pass_windows(kind: Kind, seconds: f64) -> usize {
    let per_second = if kind == Kind::Runtime {
        600.0
    } else {
        1_500.0
    };
    ((seconds * per_second) as usize).max(16 * TRACE_CHUNKS) / TRACE_CHUNKS * TRACE_CHUNKS
}

/// Raw spans are kept for about this many windows per trace file.
const KEPT_WINDOWS: u32 = 256;

fn med(v: &[f32]) -> f64 {
    median(&mut v.iter().map(|&x| f64::from(x)).collect::<Vec<_>>())
}

fn per_kpkt(count: u64, packets: u64) -> f64 {
    count as f64 * 1e3 / packets.max(1) as f64
}

fn write_trace(out_dir: &str, kind: Kind, seed: u64, rec: &Recorder, timer_ns: f64) -> String {
    let path = format!("{out_dir}/trace-{}.json", kind.name());
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(kind.name(), seed, timer_ns)));
    match written {
        Ok(()) => path,
        Err(e) => format!("(not written: {path}: {e})"),
    }
}

/// The rungs every workload runs, on `fm` holding the workload's flows.
fn common_rungs(ctx: &mut Ctx<'_>, fm: &mut ShardedFlowManager, out: &mut Rungs) {
    ladder::frame_rungs(ctx, out);
    ladder::frame_env_rung(ctx, fm, out);
    ladder::loop_body_rung(ctx, out);
    ladder::libvig_rungs(ctx, out);
    ladder::table_rungs(ctx, fm, out);
}

type TracedRun = Run<SimDut<TracedIo<SimBackend>, TracedMb<ShardedVigNatMb>>>;

/// The same DUT, tester and schedule, now behind the span wrappers.
fn wrap(run: SimRun, rec: &SharedRecorder) -> TracedRun {
    let Run {
        kind,
        dut,
        tester,
        sched,
        now,
        ..
    } = run;
    let (io, nf) = dut.into_parts();
    let dut = SimDut::new(
        TracedIo::new(io, rec.clone()),
        TracedMb::new(nf, rec.clone()),
        Some(rec.clone()),
    );
    Run::new(kind, dut, tester, sched, now)
}

/// And out from behind them again.
fn unwrap(run: TracedRun) -> SimRun {
    let Run {
        kind,
        dut,
        tester,
        sched,
        now,
        ..
    } = run;
    let (io, nf) = dut.into_parts();
    let dut = SimDut::new(io.into_inner(), nf.into_inner(), None);
    Run::new(kind, dut, tester, sched, now)
}

/// Untraced and traced windows alternate in this many chunks each, so
/// that a slow phase of the host cannot fall on one kind only.
const TRACE_CHUNKS: usize = 8;

/// The traced pass of a sim workload and the ladder behind it.
fn traced_sim(host: &Host, kind: Kind, seed: u64, seconds: f64, out_dir: &str) -> Traced {
    host.pin_main();
    let windows = pass_windows(kind, seconds);
    let (mut run, _) = setup_sim(kind, seed);
    run.warm(WARM_WINDOWS);
    let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new(
        (windows as u32 / KEPT_WINDOWS).max(1),
    )));
    let mut expired = 0;
    let (mut untraced_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let mut totals = TimedTotals::default();
    let mut problems = Vec::new();
    let mut rx_dropped = 0;
    for _ in 0..TRACE_CHUNKS {
        untraced_p50.push(run.fixed_pass(windows / TRACE_CHUNKS).p50_us);
        let expired_before = run.dut.nf.expired_total();
        let mut wrapped = wrap(run, &rec);
        traced_p50.push(wrapped.fixed_pass(windows / TRACE_CHUNKS).p50_us);
        totals.add(wrapped.dut.totals());
        problems = final_checks(&wrapped);
        rx_dropped = crate::workload::rx_dropped(wrapped.dut.drv.io());
        run = unwrap(wrapped);
        expired += run.dut.nf.expired_total() - expired_before;
    }
    if totals.tx_dropped != 0 {
        problems.push(format!("{} frames dropped at a TX ring", totals.tx_dropped));
    }
    let (untraced_p50, traced_p50) = (median(&mut untraced_p50), median(&mut traced_p50));

    let Run {
        mut dut,
        mut tester,
        sched,
        now,
        ..
    } = run;
    let mut rungs = Rungs::default();
    let mut ctx = Ctx {
        cfg: kind.cfg(),
        shards: SIM_SHARDS,
        order: sched.resident_order(),
        tester: &mut tester,
        budget: Duration::from_secs_f64(seconds * 0.012),
        now,
    };
    ladder::sim_rungs(&mut ctx, &mut dut, &mut rungs);
    common_rungs(&mut ctx, dut.nf.flow_manager_mut(), &mut rungs);
    let spsc = ladder::spsc_words_per_us(host.other_cpu());

    let timer_ns = trace::timer_cost_ns();
    let rec = rec.borrow();
    let pk = totals.packets;
    let tx_calls_per_pkt = rec.tx_put_calls as f64 / pk.max(1) as f64;
    let tx_put = rungs.get("backend.tx_put_ns_pkt") * tx_calls_per_pkt;
    let poll = rungs.get("backend.poll_ns_window");
    let rx_burst = med(&rec.total_ns_pkt[trace::RX_BURST as usize]);
    let mb = med(&rec.total_ns_pkt[trace::MB_BURST as usize]);
    // The root span's self time still holds the calls too small to
    // span; the ladder's price for them comes off.
    let ev_self = (med(&rec.root_self_ns_pkt) - tx_put - poll / WINDOW as f64).max(0.0);
    let window_ns_pkt = traced_p50 * 1e3 / WINDOW as f64;
    let mut values = vec![
        ("eventloop.self_ns_pkt", ev_self),
        (
            "eventloop.pkts_per_burst",
            pk as f64 / totals.bursts.max(1) as f64,
        ),
        (
            "eventloop.polls_per_window",
            totals.polls as f64 / totals.windows.max(1) as f64,
        ),
        (
            "eventloop.allocs_per_kpkt",
            per_kpkt(totals.allocs - rec.mb_allocs, pk),
        ),
        ("backend.rx_burst_ns_pkt", rx_burst),
        ("backend.rx_dropped", rx_dropped as f64),
        ("backend.tx_dropped", totals.tx_dropped as f64),
        ("middlebox.process_burst_ns_pkt", mb),
        (
            "middlebox.self_ns_pkt",
            (mb - rungs.get("frame_env.batch_ns_pkt")).max(0.0),
        ),
        ("middlebox.allocs_per_kpkt", per_kpkt(rec.mb_allocs, pk)),
        ("flow_manager.expired_per_kpkt", per_kpkt(expired, pk)),
        ("libvig.spsc_words_per_us", spsc),
        (
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        ),
        ("trace.timer_ns", timer_ns),
        (
            "trace.closure_pct",
            (ev_self + tx_put + poll / WINDOW as f64 + rx_burst + mb) * 100.0 / window_ns_pkt,
        ),
    ];
    for (name, v) in &rungs.values {
        // Per call on the ladder, per packet in the report.
        let v = if *name == "backend.tx_put_ns_pkt" {
            tx_put
        } else {
            *v
        };
        values.push((name, v));
    }
    Traced {
        kind,
        values,
        samples: rungs.samples,
        windows,
        attempted: tester.attempted,
        failed: tester.failed,
        problems,
        trace_file: write_trace(out_dir, kind, seed, &rec, timer_ns),
    }
}

/// A full-size (1518-byte) frame of `flow`, internal or reply side.
fn big_frame(t: &Tester, flow: u32, reply: bool) -> Vec<u8> {
    let (src, dst) = if reply {
        let ext = t.learned(flow).expect("resident flow is mapped");
        ((REMOTE_IP, REMOTE_PORT), ext)
    } else {
        (flow_endpoint(flow), (REMOTE_IP, REMOTE_PORT))
    };
    tagged_frame(t.proto(flow), src, dst, flow, 1518).build()
}

/// One window's items and frames from `order` at `*cur`, 64-byte or
/// full-size.
fn rt_window(
    t: &Tester,
    order: &[u32],
    cur: &mut usize,
    big: bool,
) -> ([Vec<Item>; 2], [Vec<Vec<u8>>; 2]) {
    let mut items: [Vec<Item>; 2] = Default::default();
    let mut frames: [Vec<Vec<u8>>; 2] = Default::default();
    for k in 0..WINDOW {
        let flow = order[(*cur + k) % order.len()];
        let side = usize::from(k >= WINDOW_INT);
        let item = Item {
            flow,
            kind: if side == 0 {
                ItemKind::Int
            } else {
                ItemKind::Ret
            },
            flags: flags::ACK,
        };
        frames[side].push(if big {
            big_frame(t, flow, side == 1)
        } else if side == 0 {
            t.int_frame(flow).to_vec()
        } else {
            t.ext_frame(flow).to_vec()
        });
        items[side].push(item);
    }
    *cur = (*cur + WINDOW) % order.len();
    (items, frames)
}

/// Median ns per packet of `burst` (one call per port) over windows of
/// resident flows, outputs checked. `burst` is the runtime session's
/// `process_burst` or the same table's in-line `process_on_shard`.
fn rt_rung(
    t: &mut Tester,
    order: &[u32],
    big: bool,
    budget: Duration,
    mut burst: impl FnMut(Direction, &mut [Vec<u8>]) -> Vec<Verdict>,
) -> (f64, usize) {
    let t0 = Instant::now();
    let mut cur = 0;
    let mut per_pkt = Vec::new();
    while per_pkt.len() < 5 || t0.elapsed() < budget {
        let (items, mut frames) = rt_window(t, order, &mut cur, big);
        let w0 = Instant::now();
        let v_int = burst(Direction::Internal, &mut frames[0]);
        let v_ext = burst(Direction::External, &mut frames[1]);
        per_pkt.push(w0.elapsed().as_nanos() as f64 / WINDOW as f64);
        t.attempted += WINDOW as u64;
        let bad = check_burst(t, &items[0], &frames[0], &v_int)
            + check_burst(t, &items[1], &frames[1], &v_ext);
        t.failed += bad;
    }
    (median(&mut per_pkt), per_pkt.len())
}

/// The traced pass of the `runtime` workload and the ladder behind it.
fn traced_runtime(host: &Host, seed: u64, seconds: f64, out_dir: &str) -> Traced {
    host.pin_main();
    let kind = Kind::Runtime;
    let windows = pass_windows(kind, seconds);
    let budget = Duration::from_secs_f64(seconds * 0.012);
    let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new(
        (windows as u32 / KEPT_WINDOWS).max(1),
    )));
    let mut samples = Vec::new();
    let ((untraced_p50, traced_p50, totals, big_rt, sup, pin), mut after) =
        with_runtime_run(seed, |run, _| {
            run.warm(WARM_WINDOWS);
            let (mut untraced_p50, mut traced_p50) = (Vec::new(), Vec::new());
            let mut totals = TimedTotals::default();
            for _ in 0..TRACE_CHUNKS {
                untraced_p50.push(run.fixed_pass(windows / TRACE_CHUNKS).p50_us);
                run.dut.reset_totals();
                run.dut.rec = Some(rec.clone());
                traced_p50.push(run.fixed_pass(windows / TRACE_CHUNKS).p50_us);
                run.dut.rec = None;
                totals.add(run.dut.totals());
            }
            let order = run.sched.resident_order();
            let now = run.now;
            let Run { dut, tester, .. } = run;
            let big_rt = rt_rung(tester, &order, true, budget * 4, |dir, frames| {
                dut.session().process_burst(dir, frames, now)
            });
            let sess = dut.session();
            (
                median(&mut untraced_p50),
                median(&mut traced_p50),
                totals,
                big_rt,
                sess.supervisor(),
                sess.pin_report(),
            )
        });
    samples.push(("runtime.tax_ns_pkt_1518B", big_rt.1));

    // The same table, the same windows, in line on this thread.
    let order = after.sched.resident_order();
    let now = after.now;
    let mut inline = |big, t: &mut Tester| {
        rt_rung(t, &order, big, budget * 4, |dir, frames| {
            after.nat.process_on_shard(0, dir, frames, now)
        })
    };
    let inline_small = inline(false, &mut after.tester);
    let inline_big = inline(true, &mut after.tester);
    samples.push(("runtime.inline_ns_pkt", inline_small.1));
    let mut problems = Vec::new();
    if after.report.chaos != Default::default() {
        problems.push(format!(
            "runtime supervisor saw faults: {:?}",
            after.report.chaos
        ));
    }
    let spsc = ladder::spsc_words_per_us(host.other_cpu());

    // The layers below the runtime, on a replica of its one-shard table
    // opened in the same order (hence with the same ports).
    let cfg = kind.cfg();
    let mut fm = ShardedFlowManager::new(&cfg, 1);
    let mut ctx = Ctx {
        cfg,
        shards: 1,
        order,
        tester: &mut after.tester,
        budget,
        now,
    };
    for flow in 0..ctx.tester.flows() as u32 {
        let fid = ctx.tester.fid(flow);
        let h = libvig::map::MapKey::key_hash(&fid);
        let slot = fm
            .allocate_slot_routed(h, now)
            .expect("table holds the resident flows");
        let (ext_ip, ext_port) = fm.endpoint_of_slot(slot);
        assert_eq!(
            ctx.tester.learned(flow),
            Some((ext_ip, ext_port)),
            "replica ports"
        );
        let fl = if fid.proto == Proto::Tcp {
            flags::ACK
        } else {
            0
        };
        fm.insert_hashed(slot, fid, ext_ip, ext_port, h, fl);
    }
    let mut rungs = Rungs::default();
    common_rungs(&mut ctx, &mut fm, &mut rungs);

    let timer_ns = trace::timer_cost_ns();
    let rec = rec.borrow();
    let rt = med(&rec.total_ns_pkt[trace::RT_BURST as usize]);
    let window_ns_pkt = traced_p50 * 1e3 / WINDOW as f64;
    let mut values = vec![
        ("runtime.process_burst_ns_pkt", rt),
        ("runtime.inline_ns_pkt", inline_small.0),
        ("runtime.tax_ns_pkt", rt - inline_small.0),
        ("runtime.tax_ns_pkt_1518B", big_rt.0 - inline_big.0),
        (
            "runtime.allocs_per_kpkt",
            per_kpkt(totals.allocs, totals.packets),
        ),
        (
            "runtime.alloc_bytes_per_pkt",
            totals.alloc_bytes as f64 / totals.packets.max(1) as f64,
        ),
        ("runtime.pool_denied", sup.pool_denied as f64),
        ("runtime.backpressure_drops", sup.backpressure_drops as f64),
        ("runtime.pinned_workers", pin.pinned as f64),
        ("libvig.spsc_words_per_us", spsc),
        (
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        ),
        ("trace.timer_ns", timer_ns),
        (
            "trace.closure_pct",
            (med(&rec.root_self_ns_pkt) + rt) * 100.0 / window_ns_pkt,
        ),
    ];
    values.extend(rungs.values.iter().copied());
    samples.extend(rungs.samples);
    Traced {
        kind,
        values,
        samples,
        windows,
        attempted: after.tester.attempted,
        failed: after.tester.failed,
        problems,
        trace_file: write_trace(out_dir, kind, seed, &rec, timer_ns),
    }
}

/// Run `kind`'s untraced and traced passes (same seed, a fixed number
/// of windows each) and the ladder, and write its trace file.
pub fn traced(host: &Host, kind: Kind, seed: u64, seconds: f64, out_dir: &str) -> Traced {
    match kind {
        Kind::Runtime => traced_runtime(host, seed, seconds, out_dir),
        _ => traced_sim(host, kind, seed, seconds, out_dir),
    }
}
