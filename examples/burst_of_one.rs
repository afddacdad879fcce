//! What one frame costs through the loop body's one entry
//! (`nat_process_batch_into` at a burst of one, what
//! `Middlebox::process` runs) on established UDP flows, one frame at a
//! time through `FrameEnv`.
//!
//! ```sh
//! cargo run --release --example burst_of_one
//! ```
//!
//! 1,000 flows are opened, then every pass sends each flow's frame once
//! more (all hits) and takes the mean time per frame. Of 300 passes the
//! minimum is printed: the least-disturbed run of the same work. It
//! runs over the unsharded `FlowManager` and over a one-shard
//! `ShardedFlowManager`, so the sharded table's routing shows beside it.

use std::hint::black_box;
use std::time::Instant;
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::{
    nat_process_batch_into, FlowManager, FlowTable, IterationOutcome, NatConfig, ShardedFlowManager,
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

/// Push `frame` (a copy of it: the NAT rewrites in place) through a
/// burst of one at `now`.
fn run<T: FlowTable>(t: &mut T, frame: &[u8], buf: &mut [u8], now: Time) {
    let buf = &mut buf[..frame.len()];
    buf.copy_from_slice(frame);
    let mut env = FrameEnv::new(t, buf, Direction::Internal, now);
    let mut outcome = None;
    nat_process_batch_into(&mut env, &cfg(), |o| outcome = Some(o));
    debug_assert_eq!(
        outcome,
        Some(IterationOutcome::Forwarded(Direction::External))
    );
    black_box(outcome);
}

/// Mean ns per frame of one pass over every flow.
fn pass<T: FlowTable>(t: &mut T, frames: &[Vec<u8>], buf: &mut [u8]) -> f64 {
    let now = Time::from_secs(2);
    let start = Instant::now();
    for frame in frames {
        run(t, frame, buf, now);
    }
    start.elapsed().as_nanos() as f64 / frames.len() as f64
}

/// The minimum pass.
fn measure<T: FlowTable>(name: &str, mut t: T, frames: &[Vec<u8>]) {
    let mut buf = [0u8; 2048];
    for frame in frames {
        run(&mut t, frame, &mut buf, Time::from_secs(1));
    }
    assert_eq!(t.flow_count(), frames.len(), "every frame opened a flow");
    let frame_ns = (0..PASSES)
        .map(|_| pass(&mut t, frames, &mut buf))
        .fold(f64::MAX, f64::min);
    assert_eq!(t.flow_count(), frames.len(), "every later frame was a hit");
    println!("{name:<22} {frame_ns:>9.1}");
}

fn main() {
    let frames: Vec<Vec<u8>> = (0..FLOWS)
        .map(|i| {
            let src = Ip4::new(192, 168, (i >> 8) as u8, i as u8);
            PacketBuilder::udp(src, Ip4::new(8, 8, 8, 8), 10_000 + i, 53).build()
        })
        .collect();
    println!("{FLOWS} all-hit UDP flows, min of {PASSES} passes, ns per frame");
    println!("{:<22} {:>9}", "table", "frame");
    measure("FlowManager", FlowManager::new(&cfg()), &frames);
    measure(
        "ShardedFlowManager/1",
        ShardedFlowManager::new(&cfg(), 1),
        &frames,
    );
}
