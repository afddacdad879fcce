//! Live NAT: the verified loop body translating *real* traffic through
//! Linux `AF_PACKET` rings (`MmapBackend`: a `TPACKET_V3` RX ring and a
//! `TPACKET_V2` TX ring per port) — the paper's deployment shape
//! (verified NF over a trusted packet engine), with the kernel standing
//! in for DPDK.
//!
//! ```text
//! cargo run --release --example live_nat -- <int_if> <ext_if> \
//!     [queues] [shards] [seconds]
//! ```
//!
//! The README's "Running the live NAT" section walks through the
//! two-network-namespace topology (client ns ↔ NAT ↔ server ns over
//! two veth pairs) and the one sysctl the demo needs. The NAT binds
//! the two interfaces, classifies arrivals with the same RSS function
//! the sharded table routes by, drains queue events through the
//! verified batch loop, and rewrites/forwards frames in place.
//!
//! One demo-only liberty: forwarded frames get a broadcast
//! destination MAC (see [`L2Broadcast`]) so namespace peers accept
//! them without ARP or static neighbor setup. A production backend
//! would resolve next hops; the NAT itself never touches L2 either
//! way.

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("live_nat needs Linux (AF_PACKET rings)");
    std::process::exit(1);
}

#[cfg(target_os = "linux")]
fn main() {
    linux::main()
}

#[cfg(target_os = "linux")]
mod linux {
    use vignat_repro::libvig::time::Time;
    use vignat_repro::nat::NatConfig;
    use vignat_repro::packet::{Direction, Ip4};
    use vignat_repro::sim::backend::os::mmap::{MmapBackend, MmapRingConfig};
    use vignat_repro::sim::backend::PacketIo;
    use vignat_repro::sim::dpdk::{BufIdx, Mempool};
    use vignat_repro::sim::eventloop::BackendDriver;
    use vignat_repro::sim::middlebox::{Middlebox, ShardedVigNatMb, Verdict};
    use vignat_repro::sim::RssClassifier;

    /// Demo driver shim: after the verified NAT decides, do what a
    /// NIC's TX path would do for frames headed back into the kernel —
    ///
    /// * stamp a broadcast destination MAC, so the receiving
    ///   namespace's IP stack accepts frames without neighbor setup;
    /// * *complete* the IPv4 and L4 checksums. Kernels transmit over
    ///   veth with TX checksum offload: the UDP/TCP checksum field
    ///   holds only a pseudo-header partial sum, which the NAT's
    ///   RFC 1624 incremental update faithfully preserves as partial.
    ///   A hardware NIC's checksum-offload engine finishes the sum on
    ///   the way out; this shim is that engine.
    ///
    /// The wrapped NF (and its verification story) is untouched — both
    /// steps are the glue a real driver's TX path owns.
    struct L2Broadcast<M>(M);

    fn stamp(frame: &mut [u8]) {
        if frame.len() >= 6 {
            frame[..6].fill(0xff);
        }
        finish_checksums(frame);
    }

    /// Recompute the IPv4 header checksum and the full L4 checksum in
    /// place (TCP/UDP over IPv4 only; anything else is left alone).
    fn finish_checksums(frame: &mut [u8]) {
        use vignat_repro::packet::checksum;
        if frame.len() < 34 || frame[12] != 0x08 || frame[13] != 0x00 {
            return;
        }
        let ihl = usize::from(frame[14] & 0x0f) * 4;
        let l3 = 14;
        let l4 = l3 + ihl;
        if frame.len() < l4 {
            return;
        }
        // IPv4 header checksum.
        frame[l3 + 10] = 0;
        frame[l3 + 11] = 0;
        let ip_csum = checksum::checksum(&frame[l3..l4]);
        frame[l3 + 10..l3 + 12].copy_from_slice(&ip_csum.to_be_bytes());
        // L4 checksum over pseudo-header + segment.
        let proto = frame[l3 + 9];
        let src = u32::from_be_bytes(frame[l3 + 12..l3 + 16].try_into().unwrap());
        let dst = u32::from_be_bytes(frame[l3 + 16..l3 + 20].try_into().unwrap());
        let total_len = usize::from(u16::from_be_bytes(
            frame[l3 + 2..l3 + 4].try_into().unwrap(),
        ));
        let l4_end = (l3 + total_len).min(frame.len());
        let csum_off = match proto {
            17 if l4 + 8 <= l4_end => l4 + 6,  // UDP
            6 if l4 + 20 <= l4_end => l4 + 16, // TCP
            _ => return,
        };
        frame[csum_off] = 0;
        frame[csum_off + 1] = 0;
        let mut c = checksum::l4_checksum(src, dst, proto, &frame[l4..l4_end]);
        if proto == 17 && c == 0 {
            c = 0xffff; // RFC 768: zero means "no checksum"
        }
        frame[csum_off..csum_off + 2].copy_from_slice(&c.to_be_bytes());
    }

    impl<M: Middlebox> Middlebox for L2Broadcast<M> {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict {
            let v = self.0.process(dir, frame, now);
            if matches!(v, Verdict::Forward(_)) {
                stamp(frame);
            }
            v
        }

        fn process_burst(
            &mut self,
            dir: Direction,
            pool: &mut Mempool,
            bufs: &[BufIdx],
            now: Time,
        ) -> Vec<Verdict> {
            let verdicts = self.0.process_burst(dir, pool, bufs, now);
            for (&buf, v) in bufs.iter().zip(&verdicts) {
                if matches!(v, Verdict::Forward(_)) {
                    stamp(pool.frame_mut(buf));
                }
            }
            verdicts
        }

        fn occupancy(&self) -> usize {
            self.0.occupancy()
        }
    }

    /// Print why the arguments were refused and the usage line, then
    /// exit 2.
    fn usage(why: &str) -> ! {
        eprintln!(
            "live_nat: {why}\n\
             usage: live_nat <int_if> <ext_if> [queues] [shards] [seconds]\n\
             (see README 'Running the live NAT' for the netns setup)"
        );
        std::process::exit(2);
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        if args.len() < 3 {
            usage("two interfaces are required");
        }
        let int_if = &args[1];
        let ext_if = &args[2];
        let arg = |i: usize, default: usize| match args.get(i) {
            None => default,
            Some(s) => s
                .parse()
                .unwrap_or_else(|_| usage(&format!("{s:?} is not a number"))),
        };
        let queues = arg(3, 2);
        let shards = arg(4, 2);
        let seconds = arg(5, 0); // 0 = run until killed

        let cfg = NatConfig {
            capacity: 4096,
            expiry_ns: Time::from_secs(60).nanos(),
            external_ip: Ip4::new(10, 99, 1, 1),
            start_port: 10_000,
            ..NatConfig::paper_default()
        };
        // Checked before any socket opens: the classifier and the
        // sharded table both split the `capacity` pool slots.
        for (name, n) in [("queues", queues), ("shards", shards)] {
            if !(1..=cfg.capacity).contains(&n) {
                usage(&format!("{name} must be 1..={}, got {n}", cfg.capacity));
            }
        }
        let io = match MmapBackend::open(
            int_if,
            ext_if,
            RssClassifier::for_nat(&cfg, queues),
            512,
            MmapRingConfig::default(),
        ) {
            Ok(io) => io,
            Err(e) => {
                eprintln!("opening {int_if}/{ext_if}: {e} (need CAP_NET_RAW; run as root)");
                std::process::exit(1);
            }
        };
        let mut nf = L2Broadcast(ShardedVigNatMb::sharded(cfg, shards));
        let mut drv = BackendDriver::new(io);

        eprintln!(
            "live NAT up: {int_if} (internal) <-> {ext_if} (external), \
             external ip {}, ports {}+, {queues} queues x {shards} shards",
            cfg.external_ip, cfg.start_port
        );

        let start = std::time::Instant::now();
        let origin = Time::from_secs(1);
        let mut last_report = std::time::Instant::now();
        let (mut fwd, mut drop) = (0u64, 0u64);
        loop {
            let now = origin.plus(start.elapsed().as_nanos() as u64);
            let stats = drv.service_once(&mut nf, now);
            fwd += stats.forwarded;
            drop += stats.dropped;
            if stats.bursts == 0 {
                // Idle: sleep the driver's current backoff, like a
                // power-aware poll-mode driver.
                std::thread::sleep(std::time::Duration::from_nanos(drv.current_backoff_ns()));
            }
            if last_report.elapsed() >= std::time::Duration::from_secs(5) {
                let int_s = drv.io().port_stats(Direction::Internal);
                let ext_s = drv.io().port_stats(Direction::External);
                eprintln!(
                    "forwarded {fwd} dropped {drop} flows {} | int rx {} drop {} tx {} | \
                     ext rx {} drop {} tx {}",
                    nf.occupancy(),
                    int_s.rx,
                    int_s.rx_dropped,
                    int_s.tx,
                    ext_s.rx,
                    ext_s.rx_dropped,
                    ext_s.tx,
                );
                last_report = std::time::Instant::now();
            }
            if seconds > 0 && start.elapsed() >= std::time::Duration::from_secs(seconds as u64) {
                eprintln!(
                    "done: forwarded {fwd} dropped {drop} flows {}",
                    nf.occupancy()
                );
                return;
            }
        }
    }
}
