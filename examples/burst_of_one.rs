//! What a burst of one costs against a frame: the per-frame entry
//! (`nat_loop_iteration`, what `Middlebox::process` runs) and the burst
//! entry (`nat_process_batch_into`, what every driver ships) on the
//! same established UDP flows, one frame at a time through `FrameEnv`.
//!
//! ```sh
//! cargo run --release --example burst_of_one
//! ```
//!
//! 1,000 flows are opened, then every pass sends each flow's frame once
//! more (all hits) and takes the mean time per frame. The two
//! entries alternate pass by pass, 300 passes each, and the minimum pass
//! of each is printed: the least-disturbed run of the same work. It
//! runs over the unsharded `FlowManager` and over a one-shard
//! `ShardedFlowManager`, so the sharded table's routing shows beside it.
//! The last column is the burst of one over the frame; the folding of
//! the single-packet entry into the burst entry wants it near 1.

use std::hint::black_box;
use std::time::Instant;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{
    nat_loop_iteration, nat_process_batch_into, FlowManager, FlowTable, IterationOutcome,
    NatConfig, ShardedFlowManager,
};
use vignat_repro::packet::{builder::PacketBuilder, Direction, Ip4};
use vignat_repro::sim::frame_env::FrameEnv;

const FLOWS: u16 = 1_000;
const PASSES: usize = 300;

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 4_096,
        expiry_ns: Time::from_secs(1_000).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1_024,
        ..NatConfig::paper_default()
    }
}

/// How one frame goes through the NAT.
#[derive(Clone, Copy)]
enum Entry {
    Frame,
    BurstOfOne,
}

/// Push `frame` (a copy of it: the NAT rewrites in place) through
/// `entry` at `now`.
fn run<T: FlowTable>(t: &mut T, entry: Entry, frame: &[u8], buf: &mut [u8], now: Time) {
    let buf = &mut buf[..frame.len()];
    buf.copy_from_slice(frame);
    let mut env = FrameEnv::new(t, buf, Direction::Internal, now);
    let cfg = cfg();
    let outcome = match entry {
        Entry::Frame => nat_loop_iteration(&mut env, &cfg),
        Entry::BurstOfOne => {
            let mut outcome = IterationOutcome::NoPacket;
            nat_process_batch_into(&mut env, &cfg, |o| outcome = o);
            outcome
        }
    };
    debug_assert_eq!(outcome, IterationOutcome::Forwarded(Direction::External));
    black_box(outcome);
}

/// Mean ns per frame of one pass over every flow.
fn pass<T: FlowTable>(t: &mut T, entry: Entry, frames: &[Vec<u8>], buf: &mut [u8]) -> f64 {
    let now = Time::from_secs(2);
    let start = Instant::now();
    for frame in frames {
        run(t, entry, frame, buf, now);
    }
    start.elapsed().as_nanos() as f64 / frames.len() as f64
}

/// The minimum pass of each entry, alternated pass by pass.
fn measure<T: FlowTable>(name: &str, mut t: T, frames: &[Vec<u8>]) {
    let mut buf = [0u8; 2048];
    for frame in frames {
        run(&mut t, Entry::Frame, frame, &mut buf, Time::from_secs(1));
    }
    assert_eq!(t.flow_count(), frames.len(), "every frame opened a flow");
    let (mut frame_ns, mut burst_ns) = (f64::MAX, f64::MAX);
    for _ in 0..PASSES {
        frame_ns = frame_ns.min(pass(&mut t, Entry::Frame, frames, &mut buf));
        burst_ns = burst_ns.min(pass(&mut t, Entry::BurstOfOne, frames, &mut buf));
    }
    assert_eq!(t.flow_count(), frames.len(), "every later frame was a hit");
    println!(
        "{name:<22} {frame_ns:>9.1} {burst_ns:>15.1} {:>7.2}",
        burst_ns / frame_ns
    );
}

fn main() {
    let frames: Vec<Vec<u8>> = (0..FLOWS)
        .map(|i| {
            let src = Ip4::new(192, 168, (i >> 8) as u8, i as u8);
            PacketBuilder::udp(src, Ip4::new(8, 8, 8, 8), 10_000 + i, 53).build()
        })
        .collect();
    println!("{FLOWS} all-hit UDP flows, min of {PASSES} alternated passes, ns per frame");
    println!(
        "{:<22} {:>9} {:>15} {:>7}",
        "table", "frame", "burst of one", "ratio"
    );
    measure("FlowManager", FlowManager::new(&cfg()), &frames);
    measure(
        "ShardedFlowManager/1",
        ShardedFlowManager::new(&cfg(), 1),
        &frames,
    );
}
