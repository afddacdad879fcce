//! The uniform middlebox interface the harness measures, plus the
//! VigNAT and no-op instances.
//!
//! [`Middlebox::process`] is "one frame in, verdict out, rewrite in
//! place" — the DPDK run-to-completion model. The harness wraps every
//! call in the same mempool/ring transaction, so the *differences*
//! between NFs come entirely from what happens inside `process`, which
//! is exactly how the paper's Fig. 12/14 isolate NAT-specific cost on
//! top of a shared DPDK baseline.

use crate::dpdk::{BufIdx, Mempool};
use crate::frame_env::{BurstEnv, BurstScratch, FrameEnv};
use libvig::time::Time;
use vig_packet::Direction;
use vig_spec::NatConfig;
use vignat::{
    nat_process_batch_into, FlowManager, FlowTable, IterationOutcome, ShardedFlowManager, MAX_BURST,
};

/// What a middlebox did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Frame (rewritten in place) leaves on this interface.
    Forward(Direction),
    /// Frame is dropped.
    Drop,
}

impl Verdict {
    /// What the loop body's outcome for a received packet means for
    /// its frame.
    #[inline]
    fn of(outcome: IterationOutcome) -> Verdict {
        match outcome {
            IterationOutcome::Forwarded(d) => Verdict::Forward(d),
            IterationOutcome::Dropped(_) => Verdict::Drop,
        }
    }
}

/// Run staged buffers through the loop body over `fm`,
/// run-to-completion in [`MAX_BURST`] chunks in ring order, pushing
/// one verdict per buffer onto `verdicts` as the loop body decides it;
/// returns the flows expired on the way. Allocates nothing while
/// `verdicts` has room. The one chunk runner: [`VigNatMb::process_burst`], the
/// pinned runtime's workers and
/// [`crate::runtime::ParallelShardedNat::process_on_shard`] all call
/// it. No buffers still runs one empty chunk — the expiry tick a
/// polling core performs every iteration; a caller for which an empty
/// burst is no arrival instant (the middlebox) does not call.
pub fn run_staged<T: FlowTable>(
    fm: &mut T,
    pool: &mut Mempool,
    cfg: &NatConfig,
    dir: Direction,
    now: Time,
    bufs: &[BufIdx],
    verdicts: &mut Vec<Verdict>,
) -> usize {
    let mut expired = 0;
    let mut rest = bufs;
    loop {
        let (chunk, tail) = rest.split_at(rest.len().min(MAX_BURST));
        let before = verdicts.len();
        let mut env = BurstEnv::new(fm, pool, chunk, dir, now, &mut BurstScratch);
        nat_process_batch_into(&mut env, cfg, |o| verdicts.push(Verdict::of(o)));
        expired += env.finish();
        debug_assert_eq!(
            verdicts.len() - before,
            chunk.len(),
            "burst must drain its chunk"
        );
        rest = tail;
        if rest.is_empty() {
            return expired;
        }
    }
}

/// A middlebox under test. See module docs.
pub trait Middlebox {
    /// Display name (used in bench tables).
    fn name(&self) -> &'static str;

    /// Process one frame arriving on `dir` at virtual time `now`,
    /// rewriting it in place.
    fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict;

    /// Process a burst of mempool-resident frames arriving on `dir` at
    /// one instant, returning one verdict per buffer in order.
    ///
    /// Must be observationally identical to calling
    /// [`Middlebox::process`] per frame at the same `now` — the default
    /// does exactly that, so every NF supports bursts. NFs with a
    /// genuine fast path (VigNAT) override it to amortize per-packet
    /// overhead: one expiry scan per burst, batched flow-table probes.
    fn process_burst(
        &mut self,
        dir: Direction,
        pool: &mut Mempool,
        bufs: &[BufIdx],
        now: Time,
    ) -> Vec<Verdict> {
        bufs.iter()
            .map(|&b| self.process(dir, pool.frame_mut(b), now))
            .collect()
    }

    /// Current flow-table occupancy, if the NF keeps one (for the
    /// occupancy experiments).
    fn occupancy(&self) -> usize {
        0
    }
}

/// The paper's "No-op forwarding" baseline: receives on one port,
/// forwards out the other, no header inspection beyond what DPDK does.
#[derive(Debug, Default)]
pub struct NoopForwarder {
    processed: u64,
}

impl NoopForwarder {
    /// A fresh forwarder.
    pub fn new() -> NoopForwarder {
        NoopForwarder::default()
    }
}

impl Middlebox for NoopForwarder {
    fn name(&self) -> &'static str {
        "No-op"
    }

    fn process(&mut self, dir: Direction, frame: &mut [u8], _now: Time) -> Verdict {
        // Touch the frame the way a real forwarder's descriptor handling
        // does (read the first cacheline), then forward.
        let _ethertype = frame.get(12).copied().unwrap_or(0);
        self.processed += 1;
        Verdict::Forward(dir.flip())
    }
}

/// The Verified NAT: the real `vignat` loop body over [`FrameEnv`] /
/// [`BurstEnv`],
/// generic in the flow table it keeps — the unsharded [`FlowManager`]
/// by default, or the RSS-partitioned [`ShardedFlowManager`] (see
/// [`ShardedVigNatMb`]). Either way the loop body is the identical
/// monomorphization source; only the state layout changes.
pub struct VigNatMb<T: FlowTable = FlowManager> {
    cfg: NatConfig,
    fm: T,
    name: &'static str,
    expired_total: u64,
}

/// The Verified NAT over an N-shard flow table, processed
/// run-to-completion on one core — the single-threaded reference the
/// `std::thread` driver ([`crate::harness::ParallelShardedNat`]) is
/// differentially tested against.
pub type ShardedVigNatMb = VigNatMb<ShardedFlowManager>;

impl VigNatMb {
    /// Build with the given configuration (panics on invalid config,
    /// like `FlowManager::new`).
    pub fn new(cfg: NatConfig) -> VigNatMb {
        VigNatMb::with_table(FlowManager::new(&cfg), cfg, "Verified NAT")
    }
}

impl ShardedVigNatMb {
    /// Build an N-shard Verified NAT (panics on invalid config or
    /// shard count, like `ShardedFlowManager::new`).
    pub fn sharded(cfg: NatConfig, shards: usize) -> ShardedVigNatMb {
        VigNatMb::with_table(
            ShardedFlowManager::new(&cfg, shards),
            cfg,
            "Verified NAT (sharded)",
        )
    }
}

impl<T: FlowTable> VigNatMb<T> {
    fn with_table(fm: T, cfg: NatConfig, name: &'static str) -> VigNatMb<T> {
        VigNatMb {
            fm,
            cfg,
            name,
            expired_total: 0,
        }
    }

    /// The flow table (tests/statistics).
    pub fn flow_manager(&self) -> &T {
        &self.fm
    }

    /// The flow table, mutably — the chaos suites use this to mirror a
    /// supervised shard reset onto the sequential oracle.
    pub fn flow_manager_mut(&mut self) -> &mut T {
        &mut self.fm
    }

    /// Total flows expired over the run.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }
}

impl<T: FlowTable> Middlebox for VigNatMb<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// A burst of one: [`FrameEnv`] yields its frame to the first
    /// `receive`, so the sink runs exactly once.
    fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict {
        let mut env = FrameEnv::new(&mut self.fm, frame, dir, now);
        let mut verdict = Verdict::Drop;
        nat_process_batch_into(&mut env, &self.cfg, |o| verdict = Verdict::of(o));
        self.expired_total += env.finish() as u64;
        verdict
    }

    fn occupancy(&self) -> usize {
        self.fm.flow_count()
    }

    fn process_burst(
        &mut self,
        dir: Direction,
        pool: &mut Mempool,
        bufs: &[BufIdx],
        now: Time,
    ) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(bufs.len());
        // An empty burst is not an arrival instant: no expiry tick.
        if !bufs.is_empty() {
            self.expired_total +=
                run_staged(&mut self.fm, pool, &self.cfg, dir, now, bufs, &mut verdicts) as u64;
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::{builder::PacketBuilder, parse_l3l4, Ip4};

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 8,
            expiry_ns: Time::from_secs(2).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 4000,
            ..NatConfig::paper_default()
        }
    }

    #[test]
    fn noop_forwards_everything_unchanged() {
        let mut nf = NoopForwarder::new();
        let orig = PacketBuilder::udp(Ip4::new(1, 1, 1, 1), Ip4::new(2, 2, 2, 2), 1, 9).build();
        let mut frame = orig.clone();
        let v = nf.process(Direction::Internal, &mut frame, Time::ZERO);
        assert_eq!(v, Verdict::Forward(Direction::External));
        assert_eq!(frame, orig, "no-op must not modify the frame");
        let v = nf.process(Direction::External, &mut frame, Time::ZERO);
        assert_eq!(v, Verdict::Forward(Direction::Internal));
    }

    #[test]
    fn burst_path_matches_frame_at_a_time_path() {
        use crate::dpdk::Mempool;
        // Two identical NATs, same traffic: one processes buffers via
        // process_burst, the other frame at a time. Verdicts, frame
        // bytes, and occupancy must match exactly.
        let mut batched = VigNatMb::new(cfg());
        let mut sequential = VigNatMb::new(cfg());
        let mut pool = Mempool::new(64);

        let frames: Vec<Vec<u8>> = (0..40u8)
            .map(|i| {
                // mix: new flows, repeats (i % 8), TCP/UDP
                let host = i % 8;
                if i % 2 == 0 {
                    PacketBuilder::udp(
                        Ip4::new(192, 168, 0, host),
                        Ip4::new(5, 5, 5, 5),
                        1000 + u16::from(host),
                        53,
                    )
                    .build()
                } else {
                    PacketBuilder::tcp(
                        Ip4::new(192, 168, 1, host),
                        Ip4::new(6, 6, 6, 6),
                        2000 + u16::from(host),
                        443,
                    )
                    .build()
                }
            })
            .collect();

        let now = Time::from_secs(1);
        // Batched: stage everything in the pool, one process_burst call.
        let bufs: Vec<_> = frames
            .iter()
            .map(|f| {
                let b = pool.get().unwrap();
                pool.write_frame(b, f);
                b
            })
            .collect();
        let burst_verdicts = batched.process_burst(Direction::Internal, &mut pool, &bufs, now);

        // Sequential reference on copies of the same frames.
        for (i, f) in frames.iter().enumerate() {
            let mut frame = f.clone();
            let v = sequential.process(Direction::Internal, &mut frame, now);
            assert_eq!(v, burst_verdicts[i], "verdict diverged at frame {i}");
            assert_eq!(
                frame,
                pool.frame(bufs[i]),
                "rewritten bytes diverged at frame {i}"
            );
        }
        assert_eq!(batched.occupancy(), sequential.occupancy());
        assert_eq!(batched.expired_total(), sequential.expired_total());
        batched.flow_manager().check_coherence().unwrap();
    }

    #[test]
    fn vignat_middlebox_translates_and_expires() {
        let mut nf = VigNatMb::new(cfg());
        let mut f1 =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 1), Ip4::new(5, 5, 5, 5), 1111, 53).build();
        assert_eq!(
            nf.process(Direction::Internal, &mut f1, Time::from_secs(1)),
            Verdict::Forward(Direction::External)
        );
        assert_eq!(nf.occupancy(), 1);
        let (_, ff) = parse_l3l4(&f1).unwrap();
        assert_eq!(ff.src_ip, Ip4::new(10, 1, 0, 1));

        // After Texp the flow is gone; the next packet expires it.
        let mut f2 =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 2), Ip4::new(5, 5, 5, 5), 2222, 53).build();
        nf.process(Direction::Internal, &mut f2, Time::from_secs(4));
        assert_eq!(nf.expired_total(), 1);
        assert_eq!(nf.occupancy(), 1, "old flow expired, new one inserted");
    }
}
