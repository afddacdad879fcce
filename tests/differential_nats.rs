//! Workspace-level differential test: every NAT implementation in the
//! repo (Verified, Unverified, NetFilter-analog) is run over the same
//! randomized frame workload through the full testbed path (staged on
//! a 1-queue simulated port, drained by the one `BackendDriver`,
//! reaped), and every observable decision is checked against the
//! executable RFC 3022 specification. Byte-level properties (checksum validity, payload
//! preservation — the spec's `S.data = P.data`) are checked on the
//! actual output frames.
//!
//! The TCP-aware configurations run the same machinery with per-class
//! lifetimes (RFC 5382 transitory vs established timers): random TCP
//! flag mixes — handshakes, mid-stream RSTs, SYN+FIN oddities,
//! simultaneous closes — must drive the verified NAT and the
//! NetFilter analog through *identical* tracker transitions, proven
//! both against the spec (every decision) and against each other
//! (verdict + occupancy lockstep, which pins the per-class expiry
//! schedules to be equal).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vignat_repro::baselines::{NetfilterNat, UnverifiedNat};
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::NatConfig;
use vignat_repro::packet::tcp::flags;
use vignat_repro::packet::{builder::PacketBuilder, parse_l3l4, Direction, FlowFields, Ip4, Proto};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::BackendDriver;
use vignat_repro::sim::frame_env::RssClassifier;
use vignat_repro::sim::middlebox::{Middlebox, NoopForwarder, Verdict, VigNatMb};
use vignat_repro::spec::{Output, PacketInput, SpecChecker};

const EXT_IP: Ip4 = Ip4::new(203, 0, 113, 1);

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 32,
        expiry_ns: Time::from_secs(5).nanos(),
        external_ip: EXT_IP,
        start_port: 60_000,
        ..NatConfig::paper_default()
    }
}

/// The TCP-aware configuration: short transitory, long established,
/// UDP in between — every class boundary is exercised by the random
/// 1 ms..2 s time steps.
fn tcp_cfg() -> NatConfig {
    NatConfig {
        tcp_transitory_ns: Time::from_secs(1).nanos(),
        tcp_established_ns: Time::from_secs(30).nanos(),
        ..cfg()
    }
}

const PAYLOAD: &[u8] = b"payload-under-test";

/// The paper's testbed: one RX/TX ring pair per port behind the driver.
fn testbed(c: &NatConfig) -> BackendDriver<SimBackend> {
    BackendDriver::new(SimBackend::new(RssClassifier::for_nat(c, 1), 64))
}

/// One random packet: internal traffic from a small pool of hosts and
/// ports, or external traffic at a port that may or may not be mapped.
/// TCP segments carry random flag mixes (any subset of
/// FIN|SYN|RST|ACK — including adversarial combinations like SYN+FIN).
fn random_packet(rng: &mut StdRng) -> PacketInput {
    let proto = if rng.gen_bool(0.5) {
        Proto::Tcp
    } else {
        Proto::Udp
    };
    let tcp_flags = if proto == Proto::Tcp {
        rng.gen::<u8>() & (flags::FIN | flags::SYN | flags::RST | flags::ACK)
    } else {
        0
    };
    let (dir, fields) = if rng.gen_bool(0.6) {
        (
            Direction::Internal,
            FlowFields {
                src_ip: Ip4::new(192, 168, 0, rng.gen_range(1..6)),
                src_port: 40_000 + rng.gen_range(0..4u16),
                dst_ip: Ip4::new(9, 9, 9, 9),
                dst_port: 53,
                proto,
            },
        )
    } else {
        (
            Direction::External,
            FlowFields {
                src_ip: Ip4::new(9, 9, 9, 9),
                src_port: 53,
                dst_ip: EXT_IP,
                dst_port: 60_000 + rng.gen_range(0..40u16),
                proto,
            },
        )
    };
    PacketInput {
        dir,
        fields,
        tcp_flags,
    }
}

/// Write `p`'s frame (carrying [`PAYLOAD`]) into `buf`.
fn write_packet(p: &PacketInput, buf: &mut [u8]) -> usize {
    let f = &p.fields;
    let b = match f.proto {
        Proto::Tcp => {
            PacketBuilder::tcp(f.src_ip, f.dst_ip, f.src_port, f.dst_port).tcp_flags(p.tcp_flags)
        }
        Proto::Udp => PacketBuilder::udp(f.src_ip, f.dst_ip, f.src_port, f.dst_port),
    };
    b.payload(PAYLOAD).build_into(buf).unwrap()
}

/// Drive `nf` with `steps` randomized packets, one per drain, checking
/// every decision against the spec and every forwarded frame at byte
/// level. Under a per-class `c` the random flag mixes walk the whole
/// tracker state space.
fn differential_run(nf: &mut dyn Middlebox, steps: usize, seed: u64, c: NatConfig) {
    let mut tb = testbed(&c);
    let mut spec = SpecChecker::new(c);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = Time::from_secs(1);

    for step in 0..steps {
        now = now.plus(rng.gen_range(1_000_000..2_000_000_000));
        let input = random_packet(&mut rng);
        let staged = tb
            .io_mut()
            .stage(input.dir, |buf| write_packet(&input, buf));
        assert!(staged.is_some(), "an empty ring admits one frame");
        let stats = tb.drain(nf, now);
        assert_eq!(stats.forwarded + stats.dropped, 1);
        // The one frame, if it left, with the port it left on.
        let out_frame = [Direction::Internal, Direction::External]
            .into_iter()
            .flat_map(|d| tb.io_mut().reap(d).into_iter().map(move |(_, f)| (f, d)))
            .next();
        assert_eq!(out_frame.is_some(), stats.forwarded == 1);

        let output = match out_frame {
            None => Output::Drop,
            Some((frame, out_dir)) => {
                let (off, ff) = parse_l3l4(&frame)
                    .unwrap_or_else(|e| panic!("{}: forwarded frame must parse ({e})", nf.name()));
                // Byte-level: IPv4 checksum verifies.
                assert!(
                    vignat_repro::packet::header::ipv4_checksum_ok(&frame),
                    "{}: bad IPv4 checksum at step {step}",
                    nf.name()
                );
                // Byte-level: payload untouched (S.data = P.data).
                let l4_hdr = match ff.proto {
                    Proto::Tcp => 20,
                    Proto::Udp => 8,
                };
                assert_eq!(
                    &frame[off.l4 + l4_hdr..off.l4 + l4_hdr + PAYLOAD.len()],
                    PAYLOAD,
                    "{}: payload altered at step {step}",
                    nf.name()
                );
                Output::Forward {
                    iface: out_dir,
                    fields: ff,
                }
            }
        };
        if let Err(v) = spec.observe(&input, now, &output) {
            panic!("{}: RFC 3022 violation at step {step}: {v}", nf.name());
        }
    }
    assert!(spec.steps() as usize == steps);
    assert_eq!(tb.io().pool_available(), tb.io().pool().capacity());
}

/// The driver adds nothing and loses nothing: for each of the four NFs
/// of the paper's evaluation, random bursts staged on the 1-queue
/// testbed and drained by `BackendDriver` yield the same verdicts and
/// the same bytes, in the same order, as a twin instance fed the same
/// frames one `Middlebox::process` call at a time — and every buffer
/// is back in the pool afterwards. Each burst arrives on one port (the
/// two ports are two rings, and no NIC orders frames across rings).
#[test]
fn driver_matches_per_frame_process_for_all_four_nfs() {
    fn check<M: Middlebox>(mk: impl Fn() -> M) {
        let (mut driven, mut oracle) = (mk(), mk());
        let mut tb = testbed(&cfg());
        tb.set_tx_log(true);
        let mut rng = StdRng::seed_from_u64(0xd21e);
        let mut now = Time::from_secs(1);
        let mut buf = [0u8; 128];
        for burst in 0..60 {
            now = now.plus(rng.gen_range(1_000_000..2_000_000_000));
            let mut want: Vec<(Direction, Vec<u8>)> = Vec::new();
            let count = rng.gen_range(1..=48usize);
            let dir = if rng.gen_bool(0.5) {
                Direction::Internal
            } else {
                Direction::External
            };
            for _ in 0..count {
                let p = std::iter::repeat_with(|| random_packet(&mut rng))
                    .find(|p| p.dir == dir)
                    .expect("both directions are drawn");
                assert!(tb.io_mut().stage(p.dir, |b| write_packet(&p, b)).is_some());
                let n = write_packet(&p, &mut buf);
                if let Verdict::Forward(out) = oracle.process(p.dir, &mut buf[..n], now) {
                    want.push((out, buf[..n].to_vec()));
                }
            }
            let stats = tb.drain(&mut driven, now);
            let name = driven.name();
            assert_eq!(
                (stats.forwarded, stats.dropped),
                (want.len() as u64, (count - want.len()) as u64),
                "{name}: verdicts diverged in burst {burst}"
            );
            // One RX ring: frames leave in arrival order.
            let got: Vec<(Direction, Vec<u8>)> = tb
                .take_tx_log()
                .into_iter()
                .map(|r| (r.out, r.frame))
                .collect();
            assert!(got == want, "{name}: bytes diverged in burst {burst}");
            for d in [Direction::Internal, Direction::External] {
                let _ = tb.io_mut().reap(d);
            }
            assert_eq!(driven.occupancy(), oracle.occupancy());
        }
        assert_eq!(tb.io().pool_available(), tb.io().pool().capacity());
    }
    check(NoopForwarder::new);
    check(|| UnverifiedNat::new(cfg()));
    check(|| NetfilterNat::new(cfg()));
    check(|| VigNatMb::new(cfg()));
}

#[test]
fn verified_nat_meets_the_spec_on_random_workloads() {
    for seed in 0..4 {
        let mut nf = VigNatMb::new(cfg());
        differential_run(&mut nf, 500, seed, cfg());
    }
}

#[test]
fn unverified_nat_meets_the_spec_on_random_workloads() {
    for seed in 0..4 {
        let mut nf = UnverifiedNat::new(cfg());
        differential_run(&mut nf, 500, seed, cfg());
    }
}

#[test]
fn netfilter_nat_meets_the_spec_on_random_workloads() {
    for seed in 0..4 {
        let mut nf = NetfilterNat::new(cfg());
        differential_run(&mut nf, 500, seed, cfg());
    }
}

/// The tentpole differential: the verified NAT under per-class TCP
/// lifetimes, checked decision-by-decision against the spec over mixed
/// TCP/UDP schedules with random flag combinations.
#[test]
fn verified_nat_meets_the_spec_with_tcp_lifetimes() {
    for seed in 0..4 {
        let mut nf = VigNatMb::new(tcp_cfg());
        differential_run(&mut nf, 500, 0x7c9 + seed, tcp_cfg());
    }
}

/// The extended NetFilter analog models the same per-class timers, so
/// the same spec run must hold for it too.
#[test]
fn netfilter_nat_meets_the_spec_with_tcp_lifetimes() {
    for seed in 0..4 {
        let mut nf = NetfilterNat::new(tcp_cfg());
        differential_run(&mut nf, 500, 0x43f + seed, tcp_cfg());
    }
}

/// Verified ≡ NetFilter under per-class TCP lifetimes: internal-only
/// traffic (so port-selection differences can't skew external hits)
/// with random flag mixes, verdicts and occupancy compared in
/// lockstep after every packet. Occupancy equality is the sharp claim:
/// it holds only if both NATs put every connection in the same timeout
/// class at every instant — i.e. their TCP trackers and per-class
/// expiry schedules are identical.
#[test]
fn verified_and_netfilter_agree_under_tcp_lifetimes() {
    let mut rng = StdRng::seed_from_u64(0x7cb1);
    let mut vig = VigNatMb::new(tcp_cfg());
    let mut netf = NetfilterNat::new(tcp_cfg());
    let mut now = Time::from_secs(1);

    for step in 0..1_500 {
        now = now.plus(rng.gen_range(1_000_000..2_500_000_000));
        let host = rng.gen_range(1..48u8);
        let port = 30_000 + rng.gen_range(0..2u16);
        let proto = if rng.gen_bool(0.7) {
            Proto::Tcp
        } else {
            Proto::Udp
        };
        let fl = rng.gen::<u8>() & (flags::FIN | flags::SYN | flags::RST | flags::ACK);

        let decide = |nf: &mut dyn Middlebox| -> bool {
            let src = Ip4::new(10, 0, 0, host);
            let dst = Ip4::new(9, 9, 9, 9);
            let mut frame = match proto {
                Proto::Tcp => PacketBuilder::tcp(src, dst, port, 443)
                    .tcp_flags(fl)
                    .build(),
                Proto::Udp => PacketBuilder::udp(src, dst, port, 53).build(),
            };
            matches!(
                nf.process(Direction::Internal, &mut frame, now),
                Verdict::Forward(_)
            )
        };

        let f1 = decide(&mut vig);
        let f2 = decide(&mut netf);
        assert_eq!(f1, f2, "verified vs netfilter diverged at step {step}");
        assert_eq!(
            vig.occupancy(),
            netf.occupancy(),
            "per-class expiry schedules diverged at step {step}"
        );
    }
}

/// Directed TCP races, each NAT driven through its own mapping and the
/// pair compared through occupancy: a mid-stream RST must demote an
/// established connection to the transitory timer, and a simultaneous
/// close (FIN from both sides in the same instant) must do the same —
/// in both the verified NAT and the NetFilter analog.
#[test]
fn tcp_races_rst_and_simultaneous_close() {
    for race_rst in [true, false] {
        let run = |nf: &mut dyn Middlebox| -> (usize, usize, usize) {
            let lan = Ip4::new(10, 0, 0, 1);
            let wan = Ip4::new(9, 9, 9, 9);
            let t = Time::from_secs(1);
            // Full handshake -> Established (30 s timer).
            let mut syn = PacketBuilder::tcp(lan, wan, 40_000, 443)
                .tcp_flags(flags::SYN)
                .build();
            assert!(matches!(
                nf.process(Direction::Internal, &mut syn, t),
                Verdict::Forward(_)
            ));
            let (_, of) = parse_l3l4(&syn).unwrap();
            let mut synack = PacketBuilder::tcp(wan, EXT_IP, 443, of.src_port)
                .tcp_flags(flags::SYN | flags::ACK)
                .build();
            assert!(matches!(
                nf.process(Direction::External, &mut synack, t),
                Verdict::Forward(_)
            ));
            let mut ack = PacketBuilder::tcp(lan, wan, 40_000, 443)
                .tcp_flags(flags::ACK)
                .build();
            nf.process(Direction::Internal, &mut ack, t);
            let established = nf.occupancy();

            // The race at t+2: RST from inside, or FINs crossing.
            let t2 = t.plus(Time::from_secs(2).nanos());
            if race_rst {
                let mut rst = PacketBuilder::tcp(lan, wan, 40_000, 443)
                    .tcp_flags(flags::RST)
                    .build();
                nf.process(Direction::Internal, &mut rst, t2);
            } else {
                let mut fin_in = PacketBuilder::tcp(lan, wan, 40_000, 443)
                    .tcp_flags(flags::FIN | flags::ACK)
                    .build();
                nf.process(Direction::Internal, &mut fin_in, t2);
                let mut fin_out = PacketBuilder::tcp(wan, EXT_IP, 443, of.src_port)
                    .tcp_flags(flags::FIN | flags::ACK)
                    .build();
                nf.process(Direction::External, &mut fin_out, t2);
            }

            // t+4: past the transitory timer (1 s), far inside the
            // established one (30 s). A UDP tick triggers expiry.
            let t3 = t.plus(Time::from_secs(4).nanos());
            let mut tick = PacketBuilder::udp(Ip4::new(10, 0, 0, 9), wan, 100, 53).build();
            nf.process(Direction::Internal, &mut tick, t3);
            let after_race = nf.occupancy();

            // Control: without the race the mapping would still be
            // alive at t+4 — prove it by opening a fresh connection and
            // replaying the schedule's tail in a second NAT is overkill;
            // instead just assert below that the raced mapping is gone
            // while the tick's own mapping is present.
            (established, after_race, 1)
        };

        let vig = run(&mut VigNatMb::new(tcp_cfg()));
        let netf = run(&mut NetfilterNat::new(tcp_cfg()));
        assert_eq!(vig.0, 1, "handshake built one mapping");
        assert_eq!(
            vig.1, 1,
            "raced connection dead at transitory pace; only the tick's mapping lives (rst={race_rst})"
        );
        assert_eq!(vig, netf, "verified vs netfilter diverged (rst={race_rst})");
    }
}

/// The three NATs agree on *whether* each internal packet is forwarded
/// (they may pick different external ports, which the spec allows; but
/// admit/drop is fully determined by the RFC given identical capacity
/// and expiry). A divergence here would mean two implementations read
/// the RFC differently.
#[test]
fn all_nats_agree_on_forwarding_decisions() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut vig = VigNatMb::new(cfg());
    let mut unv = UnverifiedNat::new(cfg());
    let mut netf = NetfilterNat::new(cfg());
    let mut now = Time::from_secs(1);

    for step in 0..600 {
        now = now.plus(rng.gen_range(1_000_000..3_000_000_000));
        let host = rng.gen_range(1..40u8);
        let port = 30_000 + rng.gen_range(0..3u16);

        let decide = |nf: &mut dyn Middlebox| -> bool {
            let mut frame =
                PacketBuilder::udp(Ip4::new(10, 0, 0, host), Ip4::new(9, 9, 9, 9), port, 53)
                    .build();
            matches!(
                nf.process(Direction::Internal, &mut frame, now),
                Verdict::Forward(_)
            )
        };

        let f1 = decide(&mut vig);
        let f2 = decide(&mut unv);
        let f3 = decide(&mut netf);
        assert_eq!(f1, f2, "verified vs unverified diverged at step {step}");
        assert_eq!(f1, f3, "verified vs netfilter diverged at step {step}");
        assert_eq!(
            vig.occupancy(),
            unv.occupancy(),
            "occupancy diverged at step {step}"
        );
        assert_eq!(
            vig.occupancy(),
            netf.occupancy(),
            "occupancy diverged at step {step}"
        );
    }
}
