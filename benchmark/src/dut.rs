//! The two ways a window reaches the NAT: through the event loop over
//! the sim backend, or through the pinned runtime's session.
//!
//! Either way one window is: the tester stages it (untimed), one DUT
//! call handles it (timed), the tester reaps and checks every output
//! frame (untimed).

use std::time::Instant;

use libvig::time::Time;
use netsim::backend::TesterIo;
use netsim::eventloop::BackendDriver;
use netsim::harness::NatRuntimeSession;
use netsim::middlebox::{Middlebox, Verdict};
use vig_packet::Direction;

use crate::alloc;
use crate::gen::{stage_plan, Item, ItemKind, Tester};
use crate::trace::{self, SharedRecorder};

/// Totals over the timed calls of a DUT.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimedTotals {
    /// Packets carried by timed windows.
    pub packets: u64,
    /// Timed windows.
    pub windows: u64,
    /// Allocation calls made inside timed calls (all threads).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Queue-event bursts the event loop processed.
    pub bursts: u64,
    /// Poll rounds the event loop took.
    pub polls: u64,
    /// Frames the event loop dropped at a full TX ring.
    pub tx_dropped: u64,
}

impl TimedTotals {
    /// Accumulate another DUT's (or pass's) totals.
    pub fn add(&mut self, o: TimedTotals) {
        self.packets += o.packets;
        self.windows += o.windows;
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.bursts += o.bursts;
        self.polls += o.polls;
        self.tx_dropped += o.tx_dropped;
    }
}

/// Something that can take one window.
pub trait Dut {
    /// Stage `plan`, run the timed call at virtual time `now`, reap and
    /// check. Returns the timed nanoseconds.
    fn window(&mut self, t: &mut Tester, plan: &[Item], now: Time) -> u64;

    /// Totals since construction (or the last [`Dut::reset_totals`]).
    fn totals(&self) -> TimedTotals;

    /// Zero the totals.
    fn reset_totals(&mut self);
}

/// The NAT behind the event loop: `BackendDriver::drain` is the timed
/// call.
pub struct SimDut<B: TesterIo, M: Middlebox> {
    /// The event loop and, inside it, the backend.
    pub drv: BackendDriver<B>,
    /// The middlebox.
    pub nf: M,
    rec: Option<SharedRecorder>,
    totals: TimedTotals,
}

impl<B: TesterIo, M: Middlebox> SimDut<B, M> {
    /// Event loop over `io`, serving `nf`; spans go to `rec` if given
    /// (the caller wraps `io`/`nf` for the child spans).
    pub fn new(io: B, nf: M, rec: Option<SharedRecorder>) -> SimDut<B, M> {
        SimDut {
            drv: BackendDriver::new(io),
            nf,
            rec,
            totals: TimedTotals::default(),
        }
    }

    /// Take the DUT apart again.
    pub fn into_parts(self) -> (B, M) {
        (self.drv.into_io(), self.nf)
    }
}

impl<B: TesterIo, M: Middlebox> Dut for SimDut<B, M> {
    fn window(&mut self, t: &mut Tester, plan: &[Item], now: Time) -> u64 {
        let refused = stage_plan(self.drv.io_mut(), t, plan);
        t.begin_window(plan);
        let a0 = alloc::snapshot();
        let (stats, ns) = match &self.rec {
            Some(rec) => {
                let root = rec.borrow_mut().enter(trace::WINDOW);
                let stats = self.drv.drain(&mut self.nf, now);
                let mut rec = rec.borrow_mut();
                let ns = rec.exit(root);
                rec.end_window(plan.len());
                (stats, ns)
            }
            None => {
                let t0 = Instant::now();
                let stats = self.drv.drain(&mut self.nf, now);
                (stats, t0.elapsed().as_nanos() as u64)
            }
        };
        let a1 = alloc::snapshot();
        let mut reaped = 0u64;
        for out in [Direction::External, Direction::Internal] {
            for (_q, frame) in self.drv.io_mut().reap(out) {
                t.observe(out, &frame);
                reaped += 1;
            }
        }
        t.end_window(refused);
        t.conservation_ok &= stats.forwarded + stats.dropped + stats.tx_dropped + refused
            == plan.len() as u64
            && reaped == stats.forwarded;
        let tot = &mut self.totals;
        tot.packets += plan.len() as u64;
        tot.windows += 1;
        tot.allocs += a1.allocs - a0.allocs;
        tot.alloc_bytes += a1.bytes - a0.bytes;
        tot.bursts += stats.bursts;
        tot.polls += stats.polls;
        tot.tx_dropped += stats.tx_dropped;
        ns
    }

    fn totals(&self) -> TimedTotals {
        self.totals
    }

    fn reset_totals(&mut self) {
        self.totals = TimedTotals::default();
    }
}

/// The NAT behind the pinned runtime: the two `process_burst` calls of
/// a window (internal frames, then external) are the timed region.
pub struct RtDut<'a, 'b> {
    sess: &'a mut NatRuntimeSession<'b>,
    /// Frame buffers per port, reused across windows.
    frames: [Vec<Vec<u8>>; 2],
    items: [Vec<Item>; 2],
    /// Spans go here when set.
    pub rec: Option<SharedRecorder>,
    totals: TimedTotals,
}

impl<'a, 'b> RtDut<'a, 'b> {
    /// DUT over a live session.
    pub fn new(sess: &'a mut NatRuntimeSession<'b>) -> RtDut<'a, 'b> {
        RtDut {
            sess,
            frames: Default::default(),
            items: Default::default(),
            rec: None,
            totals: TimedTotals::default(),
        }
    }

    /// The session (pin report, supervisor counters).
    pub fn session(&mut self) -> &mut NatRuntimeSession<'b> {
        self.sess
    }

    fn burst(&mut self, side: usize, dir: Direction, now: Time) -> Vec<Verdict> {
        match &self.rec {
            Some(rec) => {
                let id = rec.borrow_mut().enter(trace::RT_BURST);
                let v = self.sess.process_burst(dir, &mut self.frames[side], now);
                rec.borrow_mut().exit(id);
                v
            }
            None => self.sess.process_burst(dir, &mut self.frames[side], now),
        }
    }
}

/// Check a runtime burst's verdicts and rewritten frames position by
/// position against `items`. Returns the number of wrong packets.
pub fn check_burst(
    t: &mut Tester,
    items: &[Item],
    frames: &[Vec<u8>],
    verdicts: &[Verdict],
) -> u64 {
    let mut bad = (items.len() != verdicts.len()) as u64;
    for ((it, frame), v) in items.iter().zip(frames).zip(verdicts) {
        let ok = match (it.kind, v) {
            (ItemKind::Int, Verdict::Forward(Direction::External)) => {
                t.verify(Direction::External, frame) == (Some(it.flow), true)
            }
            (ItemKind::Ret, Verdict::Forward(Direction::Internal)) => {
                t.verify(Direction::Internal, frame) == (Some(it.flow), true)
            }
            (ItemKind::Scan, Verdict::Drop) => true,
            _ => false,
        };
        bad += u64::from(!ok);
    }
    bad
}

impl Dut for RtDut<'_, '_> {
    fn window(&mut self, t: &mut Tester, plan: &[Item], now: Time) -> u64 {
        // Stage: split by port, copy frames into the reused buffers.
        for side in 0..2 {
            self.items[side].clear();
        }
        for it in plan {
            self.items[usize::from(it.dir() == Direction::External)].push(*it);
        }
        let mut scratch = [0u8; netsim::dpdk::MBUF_SIZE];
        for side in 0..2 {
            let n = self.items[side].len();
            self.frames[side].resize_with(n, Vec::new);
            for (it, f) in self.items[side].iter().zip(&mut self.frames[side]) {
                let len = t.write_item(it, &mut scratch);
                f.clear();
                f.extend_from_slice(&scratch[..len]);
            }
        }
        t.attempted += plan.len() as u64;
        let a0 = alloc::snapshot();
        let root = self
            .rec
            .as_ref()
            .map(|r| r.borrow_mut().enter(trace::WINDOW));
        let t0 = Instant::now();
        let v_int = self.burst(0, Direction::Internal, now);
        let v_ext = self.burst(1, Direction::External, now);
        let mut ns = t0.elapsed().as_nanos() as u64;
        if let (Some(rec), Some(root)) = (&self.rec, root) {
            let mut rec = rec.borrow_mut();
            ns = rec.exit(root);
            rec.end_window(plan.len());
        }
        let a1 = alloc::snapshot();
        let bad = check_burst(t, &self.items[0], &self.frames[0], &v_int)
            + check_burst(t, &self.items[1], &self.frames[1], &v_ext);
        t.failed += bad;
        let tot = &mut self.totals;
        tot.packets += plan.len() as u64;
        tot.windows += 1;
        tot.allocs += a1.allocs - a0.allocs;
        tot.alloc_bytes += a1.bytes - a0.bytes;
        ns
    }

    fn totals(&self) -> TimedTotals {
        self.totals
    }

    fn reset_totals(&mut self) {
        self.totals = TimedTotals::default();
    }
}
