//! Spans, recorded by benchmark-side wrappers around the real objects.
//!
//! The traced pass wraps the backend ([`TracedIo`]) and the middlebox
//! ([`TracedMb`]) so that every call the event loop makes into a lower
//! layer opens a span; the DUT call itself is the window's root span.
//! A layer's *self* time is its span minus the part its children cover
//! ([`self_times`]). Spans stay in memory: each window is folded into
//! per-layer samples as it closes, and one window in
//! [`Recorder::keep_every`] keeps its raw spans for the trace file.
//!
//! Only calls that do enough work to be worth two clock reads get a
//! span (`rx_burst`, `process_burst`); `tx_put`, `rx_len`, `pump_rx`
//! and `flush_tx` cost a few nanoseconds each, so the ladder prices
//! them in a tight loop instead (the wrapper counts the `tx_put`s, whose
//! number depends on the traffic; the others are two polls and a flush
//! per window).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use libvig::time::Time;
use netsim::backend::{PacketIo, TesterIo};
use netsim::dpdk::{BufIdx, Mempool, PortStats};
use netsim::middlebox::{Middlebox, Verdict};
use vig_packet::Direction;

use crate::alloc;

/// Span names, indexed by [`Span::name`].
pub const NAMES: [&str; 4] = [
    "window",
    "backend.rx_burst",
    "middlebox.process_burst",
    "runtime.process_burst",
];
/// The root span of a window: the timed DUT call.
pub const WINDOW: u8 = 0;
/// `PacketIo::rx_burst`.
pub const RX_BURST: u8 = 1;
/// `Middlebox::process_burst`.
pub const MB_BURST: u8 = 2;
/// `NatRuntimeSession::process_burst`.
pub const RT_BURST: u8 = 3;

/// "No parent" marker in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: u8,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The window (request) this span belongs to.
    pub window: u32,
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover. Children are clipped to the
/// parent, so a child that (through clock skew) pokes outside cannot
/// drive the parent negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let covered = s.end.min(p.end).saturating_sub(s.start.max(p.start));
        let slot = &mut own[s.parent as usize];
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// The in-memory span store. See module docs.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Spans of the window being recorded.
    cur: Vec<Span>,
    open: Vec<u32>,
    window: u32,
    /// Keep the raw spans of every `keep_every`-th window.
    pub keep_every: u32,
    kept: Vec<Span>,
    /// Per window: total ns per span name, divided by the window's
    /// packets (`[name][window]`).
    pub total_ns_pkt: [Vec<f32>; NAMES.len()],
    /// Per window: self ns of the root span per packet.
    pub root_self_ns_pkt: Vec<f32>,
    /// `tx_put` calls: counted, not timed (see module docs).
    pub tx_put_calls: u64,
    /// Allocations made inside `Middlebox::process_burst`.
    pub mb_allocs: u64,
}

impl Recorder {
    /// Empty recorder keeping every `keep_every`-th window's raw spans.
    pub fn new(keep_every: u32) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            cur: Vec::with_capacity(64),
            open: Vec::with_capacity(8),
            window: 0,
            keep_every: keep_every.max(1),
            kept: Vec::new(),
            total_ns_pkt: Default::default(),
            root_self_ns_pkt: Vec::new(),
            tx_put_calls: 0,
            mb_allocs: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: u8) -> u32 {
        let id = self.cur.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.cur.push(Span {
            name,
            start,
            end: start,
            parent,
            window: self.window,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (must be the innermost open one); returns its
    /// duration in ns.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let s = &mut self.cur[id as usize];
        s.end = end;
        end - s.start
    }

    /// Fold the finished window (all spans closed) into the per-layer
    /// samples; `packets` is what the window carried.
    pub fn end_window(&mut self, packets: usize) {
        debug_assert!(self.open.is_empty(), "window closed with open spans");
        let own = self_times(&self.cur);
        let mut total = [0u64; NAMES.len()];
        let mut root_self = 0u64;
        for (s, o) in self.cur.iter().zip(&own) {
            total[s.name as usize] += s.end - s.start;
            if s.name == WINDOW {
                root_self += o;
            }
        }
        let per = |ns: u64| ns as f32 / packets.max(1) as f32;
        for (samples, ns) in self.total_ns_pkt.iter_mut().zip(total) {
            samples.push(per(ns));
        }
        self.root_self_ns_pkt.push(per(root_self));
        if self.window.is_multiple_of(self.keep_every) {
            let base = self.kept.len() as u32;
            self.kept.extend(self.cur.iter().map(|s| Span {
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..*s
            }));
        }
        self.cur.clear();
        self.window += 1;
    }

    /// The trace file: the kept spans with name, start, end, parent
    /// (index into this array, −1 for a root) and window id.
    pub fn to_json(&self, workload: &str, seed: u64, timer_ns: f64) -> String {
        let mut out = String::with_capacity(64 + self.kept.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"windows_traced\":{},\"keep_every\":{},\"timer_ns\":{timer_ns:.1},\"unit\":\"ns since trace start\",\"spans\":[",
            self.window, self.keep_every
        );
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"window\":{}}}",
                if i == 0 { "" } else { "," },
                NAMES[s.name as usize],
                s.start,
                s.end,
                s.window
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Median cost of one clock read as the recorder performs it: what
/// every span carries on top of the work it brackets.
pub fn timer_cost_ns() -> f64 {
    let rec = Recorder::new(1);
    let mut d: Vec<f64> = (0..2001)
        .map(|_| {
            let a = rec.now();
            (rec.now() - a) as f64
        })
        .collect();
    crate::stats::median(&mut d)
}

/// The recorder as the wrappers share it (one thread, so `Rc`).
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// [`PacketIo`]/[`TesterIo`] wrapper: spans around `rx_burst`, counts
/// of the calls too small to time. Everything else passes through.
pub struct TracedIo<B> {
    inner: B,
    rec: SharedRecorder,
}

impl<B> TracedIo<B> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: B, rec: SharedRecorder) -> TracedIo<B> {
        TracedIo { inner, rec }
    }

    /// Unwrap.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: PacketIo> PacketIo for TracedIo<B> {
    fn queue_count(&self) -> usize {
        self.inner.queue_count()
    }

    fn pool(&self) -> &Mempool {
        self.inner.pool()
    }

    fn pool_mut(&mut self) -> &mut Mempool {
        self.inner.pool_mut()
    }

    fn pump_rx(&mut self) -> usize {
        self.inner.pump_rx()
    }

    fn rx_len(&self, dir: Direction, q: usize) -> usize {
        self.inner.rx_len(dir, q)
    }

    fn rx_burst(&mut self, dir: Direction, q: usize, max: usize, out: &mut Vec<BufIdx>) -> usize {
        let id = self.rec.borrow_mut().enter(RX_BURST);
        let n = self.inner.rx_burst(dir, q, max, out);
        self.rec.borrow_mut().exit(id);
        n
    }

    fn tx_put(&mut self, dir: Direction, q: usize, buf: BufIdx) -> bool {
        self.rec.borrow_mut().tx_put_calls += 1;
        self.inner.tx_put(dir, q, buf)
    }

    fn flush_tx(&mut self) -> usize {
        self.inner.flush_tx()
    }

    fn queue_stats(&self, dir: Direction, q: usize) -> PortStats {
        self.inner.queue_stats(dir, q)
    }
}

impl<B: TesterIo> TesterIo for TracedIo<B> {
    fn stage(
        &mut self,
        dir: Direction,
        fields_writer: impl FnOnce(&mut [u8]) -> usize,
    ) -> Option<usize> {
        self.inner.stage(dir, fields_writer)
    }

    fn reap(&mut self, dir: Direction) -> Vec<(usize, Vec<u8>)> {
        self.inner.reap(dir)
    }
}

/// [`Middlebox`] wrapper: a span around `process_burst`, plus the
/// allocations made inside it.
pub struct TracedMb<M> {
    inner: M,
    rec: SharedRecorder,
}

impl<M> TracedMb<M> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: M, rec: SharedRecorder) -> TracedMb<M> {
        TracedMb { inner, rec }
    }

    /// Unwrap.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Middlebox> Middlebox for TracedMb<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict {
        self.inner.process(dir, frame, now)
    }

    fn process_burst(
        &mut self,
        dir: Direction,
        pool: &mut Mempool,
        bufs: &[BufIdx],
        now: Time,
    ) -> Vec<Verdict> {
        let id = self.rec.borrow_mut().enter(MB_BURST);
        let a0 = alloc::snapshot().allocs;
        let v = self.inner.process_burst(dir, pool, bufs, now);
        let allocs = alloc::snapshot().allocs - a0;
        let mut rec = self.rec.borrow_mut();
        rec.exit(id);
        rec.mb_allocs += allocs;
        v
    }

    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u8, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            window: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // root [0,100) ⊃ a [10,40) ⊃ c [20,30); root ⊃ b [50,90).
        let spans = [
            span(WINDOW, 0, 100, NO_PARENT),
            span(MB_BURST, 10, 40, 0),
            span(RX_BURST, 20, 30, 1),
            span(MB_BURST, 50, 90, 0),
        ];
        // Grandchildren come off their parent only, never twice.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root interval.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span(WINDOW, 10, 20, NO_PARENT), span(RX_BURST, 5, 30, 0)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn recorder_folds_windows_and_keeps_a_sample() {
        let mut r = Recorder::new(2);
        for _ in 0..4 {
            let root = r.enter(WINDOW);
            let c = r.enter(RX_BURST);
            r.exit(c);
            let c = r.enter(MB_BURST);
            r.exit(c);
            r.exit(root);
            r.end_window(64);
        }
        assert_eq!(r.root_self_ns_pkt.len(), 4);
        // Windows 0 and 2 kept, three spans each; parents re-based.
        assert_eq!(r.kept.len(), 6);
        assert_eq!(r.kept[3].parent, NO_PARENT);
        assert_eq!(r.kept[4].parent, 3);
        assert_eq!(r.kept[4].window, 2);
        // Per window, the layers account for the whole root span.
        for w in 0..4 {
            let sum = r.root_self_ns_pkt[w]
                + r.total_ns_pkt[RX_BURST as usize][w]
                + r.total_ns_pkt[MB_BURST as usize][w];
            assert!((sum - r.total_ns_pkt[WINDOW as usize][w]).abs() < 0.5);
        }
        let json = r.to_json("t", 1, 25.0);
        assert_eq!(json.matches("\"name\":").count(), 6);
        assert!(json.contains("\"parent\":-1") && json.contains("\"parent\":3"));
    }
}
