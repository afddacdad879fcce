//! Estimators: medians, percentiles with the "ten samples beyond" rule,
//! and the seeded generator every input derives from.

/// SplitMix64: the only randomness source in the benchmark. The same
/// seed gives the same stream, hence the same frames in the same order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed` mixed with a per-use `stream` tag, so two
    /// uses of one seed (flow order, protocols, …) stay independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A fixed piece of pure ALU work (four dependent multiply/rotate
/// chains, no memory traffic), timed: how fast the core is running
/// right now. The shared hosts this runs on switch between two speeds
/// about 1.28× apart and dwell seconds in each; a probe beside every
/// segment lets a reader tell which state a segment was measured in.
pub fn alu_probe_us() -> f64 {
    let t0 = std::time::Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..500_000u64 {
        a = a.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ i;
        b = b.wrapping_add(a >> 3).wrapping_mul(5);
        c = (c ^ b).rotate_left(7).wrapping_add(i);
        d = d.wrapping_mul(3).wrapping_add(c & 0xff);
    }
    std::hint::black_box(a ^ b ^ c ^ d);
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// The probe reading taken as the reference core speed: the base-clock
/// state of the sandbox this was sized on. Elsewhere it shifts every
/// reported time by one constant factor, which no comparison on one
/// machine sees.
pub const PROBE_REF_US: f64 = 900.0;

/// The factor that brings a time measured while the probe read
/// `probe_us` to the reference core speed, for work of which the share
/// `core_bound` scales with the core clock (README, "The host").
pub fn to_reference_speed(probe_us: f64, core_bound: f64) -> f64 {
    (PROBE_REF_US / probe_us).powf(core_bound)
}

/// Median of `v` (sorts it). Even lengths average the middle pair.
/// Panics on an empty slice: every caller measures at least once.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of sorted `v`, lowered if
/// necessary until at least [`MIN_BEYOND`] samples lie beyond it; with
/// ten samples or fewer that degenerates to the minimum. Returns the
/// value and whether `p` itself was supported.
pub fn percentile_supported(sorted: &[u32], p: f64) -> (u32, bool) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    // Multiply first: 99 × 2000 / 100 is exact, 0.99 × 2000 is not.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    let highest = n.saturating_sub(MIN_BEYOND + 1);
    (sorted[idx.min(highest)], idx <= highest)
}

/// What one segment of one workload measured, as measured.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Timed windows in the segment.
    pub windows: usize,
    /// Correctly handled packets per timed second, in millions.
    pub mpps: f64,
    /// Median timed window, µs.
    pub p50_us: f64,
    /// 99th-percentile timed window, µs.
    pub p99_us: f64,
    /// Whether the 99th percentile had ten samples beyond it.
    pub p99_supported: bool,
    /// Mean of the [`alu_probe_us`] readings right before and right
    /// after the segment.
    pub probe_us: f64,
    /// [`to_reference_speed`] for this segment: multiply a time by it,
    /// divide a rate by it.
    pub to_ref: f64,
}

impl Segment {
    /// Summarise a segment from its per-window timed nanoseconds and
    /// the number of packets that were handled correctly.
    pub fn from_windows(
        window_ns: &mut [u32],
        good_packets: u64,
        probe_us: f64,
        core_bound: f64,
    ) -> Segment {
        window_ns.sort_unstable();
        let total_ns: u64 = window_ns.iter().map(|&n| u64::from(n)).sum();
        let (p50, _) = percentile_supported(window_ns, 50.0);
        let (p99, p99_supported) = percentile_supported(window_ns, 99.0);
        Segment {
            windows: window_ns.len(),
            mpps: good_packets as f64 * 1e3 / total_ns.max(1) as f64,
            p50_us: f64::from(p50) / 1e3,
            p99_us: f64::from(p99) / 1e3,
            p99_supported,
            probe_us,
            to_ref: to_reference_speed(probe_us, core_bound),
        }
    }
}

/// The reported value of a throughput or median metric: the median
/// over segments.
pub fn median_over_segments(segs: &[Segment], f: impl Fn(&Segment) -> f64) -> f64 {
    median(&mut segs.iter().map(f).collect::<Vec<_>>())
}

/// The reported value of a tail metric: the lower quartile over
/// segments (nearest rank). A tail is what a noisy neighbour inflates
/// first; on the shared hosts this runs on, whole segments see their
/// 99th percentile pushed up by a third for seconds at a time, and the
/// median over segments follows whenever half of a run is hit. The
/// lower quartile reads the tail the code itself produces as long as a
/// quarter of the run was quiet.
pub fn lower_quartile_over_segments(segs: &[Segment], f: impl Fn(&Segment) -> f64) -> f64 {
    let mut v: Vec<f64> = segs.iter().map(f).collect();
    assert!(!v.is_empty(), "quartile of no segments");
    v.sort_by(f64::total_cmp);
    v[(v.len().div_ceil(4)).max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(8, 1), |r, _| Some(r.next_u64()))
            .collect();
        let d: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 2000 samples 1..=2000: p99 is rank 1980, with 20 beyond.
        let v: Vec<u32> = (1..=2000).collect();
        assert_eq!(percentile_supported(&v, 99.0), (1980, true));
        assert_eq!(percentile_supported(&v, 50.0), (1000, true));
        // 500 samples: p99 is rank 495 with only 5 beyond, so the
        // report falls back to rank 490 (ten beyond) and says so.
        let v: Vec<u32> = (1..=500).collect();
        assert_eq!(percentile_supported(&v, 99.0), (490, false));
        // Exactly at the edge: 1000 samples leave ten beyond rank 990.
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_supported(&v, 99.0), (990, true));
        // Too few samples for any tail: the minimum, flagged.
        let v: Vec<u32> = (1..=8).collect();
        assert_eq!(percentile_supported(&v, 99.0), (1, false));
    }

    #[test]
    fn segment_statistics_and_what_is_reported_over_them() {
        let mut w: Vec<u32> = vec![1000; 2000];
        let s = Segment::from_windows(&mut w, 2000 * 64, PROBE_REF_US / 4.0, 0.5);
        assert_eq!(
            s.to_ref, 2.0,
            "a core four times as fast, half of the work core-bound"
        );
        assert_eq!(s.windows, 2000);
        assert!((s.mpps - 64.0).abs() < 1e-9, "64 packets per µs");
        assert_eq!((s.p50_us, s.p99_us, s.p99_supported), (1.0, 1.0, true));
        let segs: Vec<Segment> = [5.0, 1.0, 9.0, 3.0, 7.0]
            .iter()
            .map(|&m| Segment { mpps: m, ..s })
            .collect();
        assert_eq!(median_over_segments(&segs, |s| s.mpps), 5.0);
        // Nearest rank: ceil(5 / 4) = 2nd of five, 5th of twenty.
        assert_eq!(lower_quartile_over_segments(&segs, |s| s.mpps), 3.0);
        let twenty: Vec<Segment> = (1..=20)
            .map(|m| Segment {
                mpps: f64::from(m),
                ..s
            })
            .collect();
        assert_eq!(lower_quartile_over_segments(&twenty, |s| s.mpps), 5.0);
    }
}
