//! A realistic TCP session through the full stack, step by step, for
//! each NAT implementation: handshake out, reply in, data both ways,
//! idle expiry, late packet bounced. This is the "does it actually NAT"
//! test a network operator would run before deploying.

use vignat_repro::baselines::{NetfilterNat, UnverifiedNat};
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::NatConfig;
use vignat_repro::packet::tcp::flags;
use vignat_repro::packet::{builder::PacketBuilder, header, parse_l3l4, Direction, Ip4};
use vignat_repro::sim::middlebox::{Middlebox, Verdict, VigNatMb};

const EXT_IP: Ip4 = Ip4::new(198, 51, 100, 1);
const CLIENT: Ip4 = Ip4::new(192, 168, 7, 42);
const SERVER: Ip4 = Ip4::new(93, 184, 216, 34);
const CLIENT_PORT: u16 = 51_200;

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 128,
        expiry_ns: Time::from_secs(10).nanos(),
        external_ip: EXT_IP,
        start_port: 10_000,
        ..NatConfig::paper_default()
    }
}

fn session_against(nf: &mut dyn Middlebox) {
    // 1. SYN out.
    let mut syn = PacketBuilder::tcp(CLIENT, SERVER, CLIENT_PORT, 443)
        .tcp_flags(flags::SYN)
        .tcp_seq(1000)
        .build();
    assert_eq!(
        nf.process(Direction::Internal, &mut syn, Time::from_secs(1)),
        Verdict::Forward(Direction::External),
        "{}: SYN must be translated",
        nf.name()
    );
    let (_, out) = parse_l3l4(&syn).unwrap();
    assert_eq!(out.src_ip, EXT_IP);
    assert_eq!(out.dst_ip, SERVER);
    assert_eq!(out.dst_port, 443);
    let ext_port = out.src_port;
    // TCP specifics preserved:
    let (flag_byte, seq) = (
        header::rd8(&syn, 34 + header::TCP_FLAGS),
        header::rd32(&syn, 34 + header::TCP_SEQ),
    );
    assert_eq!(flag_byte & flags::SYN, flags::SYN, "SYN flag preserved");
    assert_eq!(seq, 1000, "sequence number untouched");

    // 2. SYN-ACK back.
    let mut synack = PacketBuilder::tcp(SERVER, EXT_IP, 443, ext_port)
        .tcp_flags(flags::SYN | flags::ACK)
        .build();
    assert_eq!(
        nf.process(Direction::External, &mut synack, Time::from_secs(1)),
        Verdict::Forward(Direction::Internal),
        "{}: SYN-ACK must come back",
        nf.name()
    );
    let (_, back) = parse_l3l4(&synack).unwrap();
    assert_eq!(back.dst_ip, CLIENT);
    assert_eq!(back.dst_port, CLIENT_PORT);
    assert_eq!(back.src_ip, SERVER, "server address untouched on return");

    // 3. Data both directions over the following seconds (flow must be
    // refreshed each time and never expire while active).
    for t in 2..8u64 {
        let mut data = PacketBuilder::tcp(CLIENT, SERVER, CLIENT_PORT, 443)
            .tcp_flags(flags::ACK)
            .payload(b"GET / HTTP/1.1\r\n")
            .build();
        assert_eq!(
            nf.process(Direction::Internal, &mut data, Time::from_secs(t)),
            Verdict::Forward(Direction::External),
            "{}: data at t={t}",
            nf.name()
        );
        let (_, d) = parse_l3l4(&data).unwrap();
        assert_eq!(
            d.src_port,
            ext_port,
            "{}: mapping must be stable",
            nf.name()
        );

        let mut resp = PacketBuilder::tcp(SERVER, EXT_IP, 443, ext_port)
            .tcp_flags(flags::ACK)
            .payload(b"200 OK")
            .build();
        assert_eq!(
            nf.process(Direction::External, &mut resp, Time::from_secs(t)),
            Verdict::Forward(Direction::Internal),
            "{}: response at t={t}",
            nf.name()
        );
    }
    assert_eq!(nf.occupancy(), 1, "{}: one session, one flow", nf.name());

    // 4. Idle past Texp (last activity t=7, expiry 10s → dead at 17).
    let mut late = PacketBuilder::tcp(SERVER, EXT_IP, 443, ext_port)
        .tcp_flags(flags::ACK)
        .build();
    assert_eq!(
        nf.process(Direction::External, &mut late, Time::from_secs(18)),
        Verdict::Drop,
        "{}: late packet after expiry must be dropped",
        nf.name()
    );
    assert_eq!(nf.occupancy(), 0, "{}: flow expired", nf.name());

    // 5. The client reconnects; it gets a (possibly different) mapping
    // and everything works again.
    let mut syn2 = PacketBuilder::tcp(CLIENT, SERVER, CLIENT_PORT, 443)
        .tcp_flags(flags::SYN)
        .build();
    assert_eq!(
        nf.process(Direction::Internal, &mut syn2, Time::from_secs(19)),
        Verdict::Forward(Direction::External),
        "{}: reconnect after expiry",
        nf.name()
    );
    assert_eq!(nf.occupancy(), 1);
}

#[test]
fn verified_nat_full_session() {
    session_against(&mut VigNatMb::new(cfg()));
}

#[test]
fn unverified_nat_full_session() {
    session_against(&mut UnverifiedNat::new(cfg()));
}

#[test]
fn netfilter_nat_full_session() {
    session_against(&mut NetfilterNat::new(cfg()));
}

/// Two clients behind the NAT talk to the same server port at the same
/// time; the NAT must keep them apart in both directions.
#[test]
fn concurrent_sessions_stay_separate() {
    let mut nf = VigNatMb::new(cfg());
    let c2: Ip4 = Ip4::new(192, 168, 7, 43);

    let mut a = PacketBuilder::tcp(CLIENT, SERVER, 50_000, 443).build();
    let mut b = PacketBuilder::tcp(c2, SERVER, 50_000, 443).build();
    nf.process(Direction::Internal, &mut a, Time::from_secs(1));
    nf.process(Direction::Internal, &mut b, Time::from_secs(1));
    let (_, fa) = parse_l3l4(&a).unwrap();
    let (_, fb) = parse_l3l4(&b).unwrap();
    assert_ne!(fa.src_port, fb.src_port, "two sessions, two external ports");

    // Replies to each port reach the right client.
    let mut ra = PacketBuilder::tcp(SERVER, EXT_IP, 443, fa.src_port).build();
    let mut rb = PacketBuilder::tcp(SERVER, EXT_IP, 443, fb.src_port).build();
    nf.process(Direction::External, &mut ra, Time::from_secs(2));
    nf.process(Direction::External, &mut rb, Time::from_secs(2));
    let (_, ba) = parse_l3l4(&ra).unwrap();
    let (_, bb) = parse_l3l4(&rb).unwrap();
    assert_eq!(ba.dst_ip, CLIENT);
    assert_eq!(bb.dst_ip, c2);
}
