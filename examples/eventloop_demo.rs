//! The event-driven multi-queue driver, end to end: RSS-classify a
//! workload across the Q RX queues of a simulated port, drain it with
//! `BackendDriver` through an S-shard verified NAT, and report
//! per-queue statistics and the mean per-packet time of the drains.
//!
//! ```sh
//! cargo run --release --example eventloop_demo -- 4 2   # queues shards
//! ```
//!
//! This is also the release-mode CI smoke for the event-driven path
//! (4 queues × 2 shards).

use vignat_repro::libvig::time::Time;
use vignat_repro::nat::NatConfig;
use vignat_repro::packet::{Direction, Ip4, Proto};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::BackendDriver;
use vignat_repro::sim::frame_env::RssClassifier;
use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb};
use vignat_repro::sim::tester::FlowGen;

fn main() {
    let mut args = std::env::args().skip(1);
    let queues: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let shards: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let cfg = NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(60).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    };
    println!("event-driven driver: {queues} RX queues -> {shards}-shard verified NAT");

    // A visible drain: 10k flows staged through the classifier, one
    // event-driven drain per round, per-queue accounting afterwards.
    let mut nf = ShardedVigNatMb::sharded(cfg, shards);
    let classifier = RssClassifier::for_nat(&cfg, queues);
    let mut drv = BackendDriver::new(SimBackend::new(classifier, 4096));
    let gen = FlowGen::new(Proto::Udp);
    let flows = 10_000u32;
    // Stage in ring-sized rounds (a tester can always outrun Q rings);
    // one event-driven drain per round, stats accumulated.
    let round = (queues * 2_048) as u32;
    let mut forwarded = 0u64;
    let mut dropped = 0u64;
    let mut bursts = 0u64;
    let mut polls = 0u64;
    let mut elapsed_ns = 0u64;
    let mut now = Time::from_secs(1);
    for start in (0..flows).step_by(round as usize) {
        for i in start..flows.min(start + round) {
            let f = gen.background(i);
            let staged = drv
                .io_mut()
                .stage(Direction::Internal, |b| gen.write_frame(&f, b));
            assert!(staged.is_some(), "rings sized for one round");
        }
        now = now.plus(1_000);
        let stats = drv.drain(&mut nf, now);
        forwarded += stats.forwarded;
        dropped += stats.dropped;
        bursts += stats.bursts;
        polls += stats.polls;
        elapsed_ns += stats.elapsed_ns;
        let _ = drv.io_mut().reap(Direction::External);
    }
    println!(
        "drained {} frames in {bursts} bursts over {polls} polls ({forwarded} forwarded, {dropped} dropped)",
        forwarded + dropped,
    );
    for q in 0..queues {
        let s = drv.io().queue_stats(Direction::Internal, q);
        println!(
            "  internal rx queue {q}: rx {} dropped {} (share {:.1}%)",
            s.rx,
            s.rx_dropped,
            100.0 * s.rx as f64 / flows as f64
        );
    }
    assert_eq!(nf.occupancy(), flows as usize);
    assert_eq!(forwarded, u64::from(flows));

    println!(
        "mean per-packet time of the drains (every frame opens a flow): {:.1} ns",
        elapsed_ns as f64 / (forwarded + dropped) as f64
    );
    println!("ok");
}
