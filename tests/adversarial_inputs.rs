//! Adversarial-input robustness: the paper's motivation cites CVEs
//! where crafted packets crash or hang production NATs (Cisco, Juniper,
//! Windows Server, NetFilter). The verified NAT's crash-freedom proof
//! (P2) covers all inputs; these tests hammer all three NATs with the
//! kinds of inputs those CVEs used — random bytes, bit-flipped headers,
//! boundary-valued fields — and require (a) no panic, (b) every
//! forwarded output still parses with valid checksums, (c) flow-state
//! coherence afterwards.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vignat_repro::baselines::{NetfilterNat, UnverifiedNat};
use vignat_repro::libvig::time::Time;
use vignat_repro::nat::NatConfig;
use vignat_repro::packet::{
    builder::PacketBuilder, header, parse_l3l4, Direction, FlowId, Ip4, Layer, ParseError, Proto,
};
use vignat_repro::sim::backend::{PacketIo, SimBackend, TesterIo};
use vignat_repro::sim::eventloop::BackendDriver;
use vignat_repro::sim::frame_env::{read_rx_fields, RssClassifier};
use vignat_repro::sim::harness::ParallelShardedNat;
use vignat_repro::sim::middlebox::{Middlebox, Verdict, VigNatMb};
use vignat_repro::spec::rfc3022::accepts;
use vignat_repro::spec::Concrete;

fn cfg() -> NatConfig {
    NatConfig {
        capacity: 64,
        expiry_ns: Time::from_secs(2).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 4096,
        ..NatConfig::paper_default()
    }
}

fn nats() -> Vec<Box<dyn Middlebox>> {
    vec![
        Box::new(VigNatMb::new(cfg())),
        Box::new(UnverifiedNat::new(cfg())),
        Box::new(NetfilterNat::new(cfg())),
    ]
}

/// Was the frame's IPv4 header checksum valid before processing?
/// (The NATs use RFC 1624 incremental updates, which *preserve*
/// checksum validity — and, faithfully, preserve invalidity: like
/// VigNAT they assume NIC hardware already dropped bad-checksum frames,
/// so the invariant to test is "valid in ⇒ valid out".)
fn input_checksum_valid(frame: &[u8]) -> bool {
    frame.len() >= 34 && header::ipv4_checksum_ok(frame)
}

/// Output contract under adversarial input: a forwarded frame must
/// parse *at least as well* as its input did. A NAT is not an L4
/// validator — a frame with a garbage TCP data offset is still
/// translated (exactly what the C VigNAT's fixed-offset struct writes
/// do) — so full parseability is only required when the input had it,
/// and checksum validity only when the input checksum was valid
/// (hardware offload drops the rest before the NF in the real system).
fn check_output_if_forwarded(
    name: &str,
    verdict: Verdict,
    frame: &[u8],
    input_parsed: bool,
    input_valid: bool,
) {
    if let Verdict::Forward(_) = verdict {
        if input_parsed {
            let _ = parse_l3l4(frame)
                .unwrap_or_else(|e| panic!("{name}: parseable input forwarded as junk: {e}"));
        }
        if input_valid {
            assert!(
                header::ipv4_checksum_ok(frame),
                "{name}: checksum-valid input forwarded with bad IP checksum"
            );
        }
    }
}

#[test]
fn random_byte_frames_never_crash_any_nat() {
    let mut rng = StdRng::seed_from_u64(0xBAD);
    for mut nf in nats() {
        let mut now = Time::from_secs(1);
        for i in 0..3_000 {
            now = now.plus(1_000_000);
            let len = rng.gen_range(0..200);
            let mut frame: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let dir = if i % 2 == 0 {
                Direction::Internal
            } else {
                Direction::External
            };
            let parsed = parse_l3l4(&frame).is_ok();
            let valid = input_checksum_valid(&frame);
            let v = nf.process(dir, &mut frame, now);
            check_output_if_forwarded(nf.name(), v, &frame, parsed, valid);
        }
    }
}

#[test]
fn bit_flipped_valid_frames_never_crash_any_nat() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    let base = PacketBuilder::tcp(Ip4::new(192, 168, 0, 1), Ip4::new(1, 1, 1, 1), 1234, 80)
        .payload(b"x")
        .build();
    for mut nf in nats() {
        let mut now = Time::from_secs(1);
        for _ in 0..3_000 {
            now = now.plus(1_000_000);
            let mut frame = base.clone();
            // flip 1..4 random bits anywhere in the frame
            for _ in 0..rng.gen_range(1..=4) {
                let byte = rng.gen_range(0..frame.len());
                frame[byte] ^= 1u8 << rng.gen_range(0..8);
            }
            let dir = if rng.gen_bool(0.5) {
                Direction::Internal
            } else {
                Direction::External
            };
            let parsed = parse_l3l4(&frame).is_ok();
            let valid = input_checksum_valid(&frame);
            let v = nf.process(dir, &mut frame, now);
            check_output_if_forwarded(nf.name(), v, &frame, parsed, valid);
        }
    }
}

#[test]
fn boundary_valued_headers_are_handled() {
    // Fields at their extremes: lengths, ports 0/65535, IHL corners,
    // fragment-bit soup. Built raw so the builder cannot "fix" them.
    let mut cases: Vec<Vec<u8>> = Vec::new();
    let base =
        PacketBuilder::udp(Ip4::new(192, 168, 0, 9), Ip4::new(1, 1, 1, 1), 0, 65_535).build();
    cases.push(base.clone()); // port 0 / 65535 is legal on the wire
    for (off, val) in [
        (14usize, 0x4fu8), // IHL = 15 (60 bytes) in a short frame
        (14, 0x40),        // IHL = 0
        (16, 0xff),        // total_len huge (hi byte)
        (20, 0xff),        // fragment-field soup
        (22, 0x00),        // TTL 0
        (23, 0xff),        // protocol 255
    ] {
        let mut f = base.clone();
        f[off] = val;
        cases.push(f);
    }
    // Truncations at every interesting boundary.
    for cut in [0usize, 1, 13, 14, 15, 33, 34, 41, 42, 54] {
        cases.push(base[..cut.min(base.len())].to_vec());
    }
    for mut nf in nats() {
        let mut now = Time::from_secs(1);
        for (i, case) in cases.iter().enumerate() {
            now = now.plus(1_000_000);
            let mut frame = case.clone();
            let parsed = parse_l3l4(&frame).is_ok();
            let valid = input_checksum_valid(&frame);
            let v = nf.process(Direction::Internal, &mut frame, now);
            check_output_if_forwarded(nf.name(), v, &frame, parsed, valid);
            let mut frame = case.clone();
            let v = nf.process(Direction::External, &mut frame, now);
            check_output_if_forwarded(nf.name(), v, &frame, parsed, valid);
            let _ = i;
        }
    }
}

/// A UDP datagram whose `total_len` (24) ends 4 bytes into its UDP
/// header, padded to a 64-byte frame: the 8 bytes at the L4 offset are
/// mostly Ethernet padding. The parser reports the UDP header
/// truncated, and every NAT drops the frame and keeps no state — the
/// verified datapath as `ShortL4`, the way Linux's `ip_rcv` trims the
/// padding before anything reads the L4 header.
#[test]
fn an_l4_header_in_ethernet_padding_is_dropped_by_every_nat() {
    let mut frame = PacketBuilder::udp(Ip4::new(192, 168, 0, 1), Ip4::new(1, 1, 1, 1), 1000, 53)
        .pad_to(64)
        .build();
    header::wr16(&mut frame, header::IP_TOTAL_LEN, 24);
    header::fill_ipv4_checksum(&mut frame);
    assert_eq!(
        parse_l3l4(&frame),
        Err(ParseError::Truncated {
            layer: Layer::Udp,
            have: 4,
            need: 8
        })
    );
    for mut nf in nats() {
        let mut f = frame.clone();
        assert_eq!(
            nf.process(Direction::Internal, &mut f, Time::from_secs(1)),
            Verdict::Drop,
            "{}: an L4 header in the padding must drop",
            nf.name()
        );
        assert_eq!(
            nf.occupancy(),
            0,
            "{}: no state for a dropped frame",
            nf.name()
        );
    }
}

/// A frame longer than 64 KiB counts as 65,535 bytes, for the parser
/// as for the datapath's 16-bit `frame_len`: on a 65,600-byte UDP frame
/// a `total_len` of 65,530 lies past the 65,521 bytes of IPv4 room, so
/// the parser rejects it and every NAT drops it; at 65,521 every NAT
/// forwards it.
#[test]
fn a_frame_past_64_kib_has_one_accept_set() {
    let build = |total: u16| {
        let mut f = PacketBuilder::udp(Ip4::new(192, 168, 0, 1), Ip4::new(1, 1, 1, 1), 1000, 53)
            .pad_to(65_600)
            .build();
        header::wr16(&mut f, header::IP_TOTAL_LEN, total);
        header::fill_ipv4_checksum(&mut f);
        f
    };
    let past = build(65_530);
    assert_eq!(
        parse_l3l4(&past),
        Err(ParseError::BadLength { layer: Layer::Ipv4 })
    );
    let fits = build(65_521);
    assert!(parse_l3l4(&fits).is_ok());
    for mut nf in nats() {
        let mut f = past.clone();
        assert_eq!(
            nf.process(Direction::Internal, &mut f, Time::from_secs(1)),
            Verdict::Drop,
            "{}: total_len past the clamped frame must drop",
            nf.name()
        );
        assert_eq!(nf.occupancy(), 0, "{}: no state for a drop", nf.name());
        let mut f = fits.clone();
        assert_eq!(
            nf.process(Direction::Internal, &mut f, Time::from_secs(1)),
            Verdict::Forward(Direction::External),
            "{}: total_len inside the clamped frame forwards",
            nf.name()
        );
    }
}

/// A byte string for the accept-set property: pure noise, or a valid
/// TCP or UDP frame (padded or not) with up to four bytes at offsets
/// 12..64 overwritten and then one of: nothing more, `total_len` set
/// small, the IHL nibble set, the TCP data offset or UDP length set,
/// or a cut.
fn adversarial_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        (
            0u8..6,
            any::<bool>(),
            0usize..24,
            prop_oneof![Just(0usize), Just(64), 0usize..96],
        ),
        proptest::collection::vec((12usize..64, any::<u8>()), 0..4),
        (any::<u16>(), 0u16..96, 0u8..16),
        0usize..128,
        proptest::collection::vec(any::<u8>(), 0..=96),
    )
        .prop_map(
            |((kind, tcp, payload, pad), pokes, (port, short, nibble), cut, noise)| {
                if kind == 0 {
                    return noise;
                }
                let (src, dst) = (Ip4::new(192, 168, 0, 1), Ip4::new(1, 1, 1, 1));
                let builder = if tcp {
                    PacketBuilder::tcp(src, dst, port, 80)
                } else {
                    PacketBuilder::udp(src, dst, port, 53)
                };
                let mut f = builder
                    .payload(&noise[..payload.min(noise.len())])
                    .pad_to(pad)
                    .build();
                for (at, v) in pokes {
                    if let Some(b) = f.get_mut(at) {
                        *b = v;
                    }
                }
                let l4 = header::l4_offset(&f);
                match kind {
                    2 => header::wr16(&mut f, header::IP_TOTAL_LEN, short),
                    3 => f[header::IP_VERSION_IHL] = 0x40 | nibble,
                    4 if l4 + 13 < f.len() => {
                        f[l4 + header::TCP_DATA_OFFSET] = nibble << 4;
                        header::wr16(&mut f, l4 + header::UDP_LEN, short);
                    }
                    5 => f.truncate(cut),
                    _ => {}
                }
                f
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]
    /// The verified datapath and `parse_l3l4` accept the same frames
    /// (ROADMAP item 8's first step, pinned). On a fresh table,
    /// `VigNatMb::process` forwards an internal frame exactly when the
    /// parser accepts it, and then the flow it creates carries the
    /// parser's 5-tuple. The two deliberate exceptions are the output
    /// contract's: a TCP data offset outside 20 ..= the L4 room, or a
    /// UDP length outside 8 ..= the L4 room, which the parser rejects
    /// and the NAT — not an L4 validator — translates. The spec's
    /// accept premise (`vig_spec::accepts`, over the fields the datapath
    /// reads) forwards exactly the same frames, with no exception.
    #[test]
    fn the_datapath_forwards_exactly_what_parse_l3l4_accepts(frame in adversarial_frame()) {
        let parsed = parse_l3l4(&frame);
        let mut nat = VigNatMb::new(cfg());
        let mut out = frame.clone();
        let verdict = nat.process(Direction::Internal, &mut out, Time::from_secs(1));
        let fields = read_rx_fields(&frame, Direction::Internal);
        let spec_accepts = accepts::<Concrete, _>(&mut Concrete, &fields);
        prop_assert_eq!(
            verdict == Verdict::Forward(Direction::External),
            matches!(spec_accepts, Ok(Some(_))),
            "spec {:?}, datapath {:?} on {:02x?}",
            spec_accepts,
            verdict,
            frame
        );
        let exception = matches!(
            parsed,
            Err(ParseError::BadLength { layer: Layer::Tcp | Layer::Udp })
        );
        prop_assert_eq!(
            verdict == Verdict::Forward(Direction::External),
            parsed.is_ok() || exception,
            "parser {:?}, datapath {:?} on {:02x?}",
            parsed,
            verdict,
            frame
        );
        if let Ok((_, ff)) = parsed {
            let (_, flow, _) = nat.flow_manager().iter_lru().next().expect("one flow");
            let read = FlowId {
                src_ip: ff.src_ip,
                src_port: ff.src_port,
                dst_ip: ff.dst_ip,
                dst_port: ff.dst_port,
                proto: ff.proto,
            };
            prop_assert_eq!(flow.int_key, read);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// No reachable panic on the two burst drivers (ROADMAP item 8):
    /// adversarial frames on either port, then a reply to each frame the
    /// NAT sends out (so the return path hits too), through
    /// `BackendDriver` over `SimBackend` (one frame per drain) and
    /// through a 2-shard pinned runtime (one burst per run of same-port
    /// frames). Neither panics, every mempool buffer is back in its pool
    /// afterwards, and each frame gets the verdict and bytes the
    /// per-frame `ShardedVigNatMb::process` oracle gives it.
    #[test]
    fn the_burst_drivers_equal_the_per_frame_oracle_on_adversarial_frames(
        frames in proptest::collection::vec((any::<bool>(), adversarial_frame()), 1..48),
    ) {
        let now = Time::from_secs(1);
        let mut inputs: Vec<(Direction, Vec<u8>)> = frames
            .into_iter()
            .map(|(internal, f)| (if internal { Direction::Internal } else { Direction::External }, f))
            .collect();
        let mut oracle = VigNatMb::sharded(cfg(), 2);
        let mut want = Vec::new();
        for k in 0.. {
            let Some((dir, mut frame)) = inputs.get(k).cloned() else { break };
            let verdict = oracle.process(dir, &mut frame, now);
            if let (Verdict::Forward(Direction::External), Ok((_, ff))) = (verdict, parse_l3l4(&frame)) {
                if dir == Direction::Internal {
                    let (src, dst) = (ff.dst_ip, ff.src_ip);
                    let reply = match ff.proto {
                        Proto::Tcp => PacketBuilder::tcp(src, dst, ff.dst_port, ff.src_port),
                        Proto::Udp => PacketBuilder::udp(src, dst, ff.dst_port, ff.src_port),
                    };
                    inputs.push((Direction::External, reply.build()));
                }
            }
            want.push((verdict, frame));
        }

        let mut nf = VigNatMb::sharded(cfg(), 2);
        let classifier = RssClassifier::for_table(nf.flow_manager());
        let mut drv = BackendDriver::new(SimBackend::new(classifier, 64));
        for ((dir, frame), (verdict, bytes)) in inputs.iter().zip(&want) {
            let staged = drv.io_mut().stage(*dir, |buf| {
                buf[..frame.len()].copy_from_slice(frame);
                frame.len()
            });
            prop_assert!(staged.is_some());
            drv.drain(&mut nf, now);
            let mut sent = Vec::new();
            for out in [Direction::Internal, Direction::External] {
                for (_, f) in drv.io_mut().reap(out) {
                    sent.push((Verdict::Forward(out), f));
                }
            }
            let expected = match verdict {
                Verdict::Forward(_) => vec![(*verdict, bytes.clone())],
                Verdict::Drop => Vec::new(),
            };
            prop_assert_eq!(sent, expected);
        }
        prop_assert_eq!(drv.io().pool_available(), drv.io().pool().capacity());

        let mut runtime = ParallelShardedNat::new(cfg(), 2, inputs.len());
        let (got, _) = runtime.with_runtime(false, |session| {
            let mut got = Vec::new();
            for run in inputs.chunk_by(|a, b| a.0 == b.0) {
                let mut burst: Vec<Vec<u8>> = run.iter().map(|(_, f)| f.clone()).collect();
                let verdicts = session.process_burst(run[0].0, &mut burst, now);
                got.extend(verdicts.into_iter().zip(burst));
            }
            got
        });
        prop_assert_eq!(got, want);
        prop_assert!(runtime.pools_full());
    }
}

/// Corrupted-frame corpus generated by the fault layer's header
/// profiles turned up to rate 1: bad IHL nibbles, garbage IP versions,
/// and truncations inside the L4 header — the exact malformed-header
/// shapes the motivating CVEs used. The corpus is produced by damaging
/// *well-formed* staged traffic inside a `FaultIo`-wrapped backend (the
/// same seam the chaos suites use), so it is deterministic and
/// regenerates identically on every run. Contract: every corpus frame
/// fails the parser, every NAT drops it with the bytes unmodified, and
/// the verified NAT's flow state is bit-identical before and after the
/// barrage.
#[test]
fn fault_layer_corruption_corpus_is_rejected_without_state_mutation() {
    use vignat_repro::sim::backend::{
        CorruptKind, FaultIo, FaultPlan, PacketIo, SimBackend, TesterIo, TruncateKind,
    };
    use vignat_repro::sim::RssClassifier;

    let c = cfg();
    let profiles: Vec<(&str, FaultPlan)> = vec![
        (
            "bad-ihl",
            FaultPlan::seeded(0x1).corrupt_1_in(1, CorruptKind::BadIhl),
        ),
        (
            "bad-version",
            FaultPlan::seeded(0x2).corrupt_1_in(1, CorruptKind::BadVersion),
        ),
        (
            "short-l4",
            FaultPlan::seeded(0x3).truncate_1_in(1, TruncateKind::ShortL4),
        ),
    ];
    for (name, plan) in profiles {
        // Generate the corpus: stage valid UDP/TCP frames, let the
        // fault layer damage every one on its way out of the RX FIFOs.
        let mut io = FaultIo::new(SimBackend::new(RssClassifier::for_nat(&c, 2), 256), plan);
        let mut staged = 0usize;
        for i in 0..48u32 {
            let frame = if i % 2 == 0 {
                PacketBuilder::udp(
                    Ip4::new(10, 0, 0, 1 + (i % 7) as u8),
                    Ip4::new(1, 1, 1, 1),
                    2000 + i as u16,
                    53,
                )
                .build()
            } else {
                PacketBuilder::tcp(
                    Ip4::new(10, 0, 1, 1 + (i % 5) as u8),
                    Ip4::new(8, 8, 8, 8),
                    3000 + i as u16,
                    443,
                )
                .payload(b"abc")
                .build()
            };
            if io
                .stage(Direction::Internal, |b| {
                    b[..frame.len()].copy_from_slice(&frame);
                    frame.len()
                })
                .is_some()
            {
                staged += 1;
            }
        }
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        let mut bufs = Vec::new();
        for q in 0..2 {
            bufs.clear();
            io.rx_burst(Direction::Internal, q, 256, &mut bufs);
            for &b in &bufs {
                corpus.push(io.pool().frame(b).to_vec());
            }
        }
        assert_eq!(corpus.len(), staged, "{name}: corpus is complete");
        let fs = io.fault_stats();
        assert_eq!(
            (fs.rx_corrupted + fs.rx_truncated) as usize,
            staged,
            "{name}: rate-1 profile must damage every frame"
        );

        // (a) The parser rejects every corpus frame — no indexing with
        // a bad IHL, no reads past a truncated L4 header.
        for f in &corpus {
            assert!(
                parse_l3l4(f).is_err(),
                "{name}: corrupted frame still parses: {f:02x?}"
            );
        }

        // (b) All three NATs drop every frame, bytes untouched.
        for mut nf in nats() {
            let mut now = Time::from_secs(1);
            for f in &corpus {
                now = now.plus(1_000_000);
                let mut frame = f.clone();
                let v = nf.process(Direction::Internal, &mut frame, now);
                assert_eq!(
                    v,
                    Verdict::Drop,
                    "{}: corrupted frame not dropped",
                    nf.name()
                );
                assert_eq!(&frame, f, "{}: dropped frame was mutated", nf.name());
            }
        }

        // (c) A warmed verified NAT keeps bit-identical flow state
        // (slots, flows, stamps, LRU order) across the whole barrage.
        let mut vig = VigNatMb::new(cfg());
        let mut now = Time::from_secs(1);
        for i in 0..8u16 {
            let mut f =
                PacketBuilder::udp(Ip4::new(192, 168, 0, 2), Ip4::new(1, 1, 1, 1), 1000 + i, 53)
                    .build();
            now = now.plus(1_000);
            vig.process(Direction::Internal, &mut f, now);
        }
        let state_before: Vec<_> = vig.flow_manager().iter_lru().collect();
        assert_eq!(state_before.len(), 8, "{name}: warm-up admitted 8 flows");
        for f in &corpus {
            let mut frame = f.clone();
            now = now.plus(1_000);
            vig.process(Direction::Internal, &mut frame, now);
            let mut frame = f.clone();
            vig.process(Direction::External, &mut frame, now);
        }
        let state_after: Vec<_> = vig.flow_manager().iter_lru().collect();
        assert_eq!(
            state_before, state_after,
            "{name}: corrupted frames mutated NAT state"
        );
        vig.flow_manager().check_coherence().unwrap();
    }
}

/// Per-class lifetimes for the TCP-segment attacks: short transitory,
/// long established — the split a flood tries to confuse.
fn tcp_cfg() -> NatConfig {
    NatConfig {
        tcp_transitory_ns: Time::from_secs(1).nanos(),
        tcp_established_ns: Time::from_secs(60).nanos(),
        ..cfg()
    }
}

/// Every TCP flag byte — all 256 values, including out-of-window
/// nonsense for whatever state a connection is in (SYN on established,
/// ACK on closed, SYN+FIN, CWR/ECE/URG/PSH noise bits) — fired at the
/// tracker from both directions. The state machine is total: no flag
/// soup may panic, corrupt the flow table, or push occupancy past
/// capacity.
#[test]
fn tcp_flag_soup_keeps_flow_state_coherent() {
    let mut vig = VigNatMb::new(tcp_cfg());
    let mut netf = NetfilterNat::new(tcp_cfg());
    let mut rng = StdRng::seed_from_u64(0x50_0F);
    let mut now = Time::from_secs(1);
    for step in 0..6_000u32 {
        now = now.plus(rng.gen_range(1_000_000..400_000_000));
        let fl: u8 = rng.gen(); // the full byte, noise bits included
        let (dir, mut frame) = if rng.gen_bool(0.6) {
            let host = rng.gen_range(1..24u8);
            (
                Direction::Internal,
                PacketBuilder::tcp(Ip4::new(10, 3, 0, host), Ip4::new(1, 1, 1, 1), 7000, 443)
                    .tcp_flags(fl)
                    .build(),
            )
        } else {
            let port = 4096 + rng.gen_range(0..80u16); // straddles the range
            (
                Direction::External,
                PacketBuilder::tcp(Ip4::new(1, 1, 1, 1), Ip4::new(203, 0, 113, 1), 443, port)
                    .tcp_flags(fl)
                    .build(),
            )
        };
        let mut copy = frame.clone();
        vig.process(dir, &mut frame, now);
        netf.process(dir, &mut copy, now);
        assert!(vig.occupancy() <= 64, "occupancy blew capacity at {step}");
        if step % 500 == 0 {
            vig.flow_manager().check_coherence().unwrap_or_else(|e| {
                panic!("flag soup broke coherence at step {step}: {e}");
            });
        }
    }
    vig.flow_manager().check_coherence().unwrap();
}

/// An RST flood against established mappings: the flood demotes the
/// connections to the transitory timer (that is correct RFC 5382
/// behaviour, not corruption) but must not crash, must not create
/// state, must not break the port bijection, and must still let the
/// mappings translate until the transitory timer fires.
#[test]
fn rst_flood_against_established_mappings() {
    let mut vig = VigNatMb::new(tcp_cfg());
    let lan = |h: u8| Ip4::new(10, 4, 0, h);
    let wan = Ip4::new(1, 1, 1, 1);
    let t = Time::from_secs(1);

    // Establish 8 connections with full handshakes.
    let mut mapped = Vec::new();
    for h in 1..=8u8 {
        let mut syn = PacketBuilder::tcp(lan(h), wan, 40_000, 443)
            .tcp_flags(vignat_repro::packet::tcp::flags::SYN)
            .build();
        assert!(matches!(
            vig.process(Direction::Internal, &mut syn, t),
            Verdict::Forward(_)
        ));
        let (_, of) = parse_l3l4(&syn).unwrap();
        let mut synack = PacketBuilder::tcp(wan, Ip4::new(203, 0, 113, 1), 443, of.src_port)
            .tcp_flags(
                vignat_repro::packet::tcp::flags::SYN | vignat_repro::packet::tcp::flags::ACK,
            )
            .build();
        vig.process(Direction::External, &mut synack, t);
        let mut ack = PacketBuilder::tcp(lan(h), wan, 40_000, 443)
            .tcp_flags(vignat_repro::packet::tcp::flags::ACK)
            .build();
        vig.process(Direction::Internal, &mut ack, t);
        mapped.push(of.src_port);
    }
    assert_eq!(vig.occupancy(), 8);

    // Flood: 5,000 RSTs from spoofed external sources at mapped and
    // unmapped ports, a few microseconds apart.
    let mut rng = StdRng::seed_from_u64(0xF100D);
    let mut now = t.plus(1_000);
    for _ in 0..5_000 {
        now = now.plus(rng.gen_range(1_000..100_000)); // ≪ transitory
        let port = if rng.gen_bool(0.5) {
            mapped[rng.gen_range(0..mapped.len())]
        } else {
            4096 + rng.gen_range(0..80u16)
        };
        let src = Ip4::new(rng.gen_range(1..200u8), 2, 3, 4);
        let mut rst = PacketBuilder::tcp(src, Ip4::new(203, 0, 113, 1), 443, port)
            .tcp_flags(vignat_repro::packet::tcp::flags::RST)
            .build();
        vig.process(Direction::External, &mut rst, now);
    }
    vig.flow_manager().check_coherence().unwrap();
    assert_eq!(
        vig.occupancy(),
        8,
        "a flood must not create or drop mappings while the timers run"
    );

    // The spoofed flood cannot demote: mapping keys include the remote
    // endpoint (no EIM here), so every spoofed-source RST missed. Two
    // seconds on — past transitory, inside established — all 8 still
    // stand and still translate.
    let later = now.plus(Time::from_secs(2).nanos());
    let mut tick = PacketBuilder::udp(lan(99), wan, 100, 53).build();
    vig.process(Direction::Internal, &mut tick, later);
    assert_eq!(
        vig.occupancy(),
        9,
        "spoofed RSTs must not demote established mappings"
    );
    let mut data = PacketBuilder::tcp(lan(1), wan, 40_000, 443)
        .tcp_flags(vignat_repro::packet::tcp::flags::ACK)
        .build();
    assert!(matches!(
        vig.process(Direction::Internal, &mut data, later),
        Verdict::Forward(_)
    ));

    // Genuine RSTs (from the connections' true remote) do demote —
    // and then the transitory timer, not the established one, decides.
    for &p in &mapped {
        let mut rst = PacketBuilder::tcp(wan, Ip4::new(203, 0, 113, 1), 443, p)
            .tcp_flags(vignat_repro::packet::tcp::flags::RST)
            .build();
        vig.process(Direction::External, &mut rst, later);
    }
    vig.flow_manager().check_coherence().unwrap();
    let end = later.plus(Time::from_secs(2).nanos());
    let mut tick2 = PacketBuilder::udp(lan(98), wan, 100, 53).build();
    vig.process(Direction::Internal, &mut tick2, end);
    assert_eq!(
        vig.occupancy(),
        1,
        "RST-demoted mappings must expire at the transitory pace"
    );
    vig.flow_manager().check_coherence().unwrap();
}

/// SYN+FIN churn (the classic scrubber-confusing combination): each
/// segment opens a transitory mapping; cycling thousands through a
/// 64-slot table exercises allocate/expire under the shortest class
/// without ever breaking coherence or capacity.
#[test]
fn syn_fin_churn_cycles_cleanly_through_the_table() {
    let mut vig = VigNatMb::new(tcp_cfg());
    let mut rng = StdRng::seed_from_u64(0x51F1);
    let mut now = Time::from_secs(1);
    for step in 0..8_000u32 {
        now = now.plus(rng.gen_range(5_000_000..300_000_000));
        let host = rng.gen_range(1..=200u8);
        let port = rng.gen_range(1024..2048u16);
        let mut frame =
            PacketBuilder::tcp(Ip4::new(10, 5, 0, host), Ip4::new(1, 1, 1, 1), port, 25)
                .tcp_flags(
                    vignat_repro::packet::tcp::flags::SYN | vignat_repro::packet::tcp::flags::FIN,
                )
                .build();
        vig.process(Direction::Internal, &mut frame, now);
        assert!(vig.occupancy() <= 64, "capacity breached at step {step}");
        if step % 1_000 == 0 {
            vig.flow_manager().check_coherence().unwrap_or_else(|e| {
                panic!("SYN+FIN churn broke coherence at step {step}: {e}");
            });
        }
    }
    assert!(
        vig.expired_total() > 1_000,
        "the churn must have cycled the short transitory class"
    );
    vig.flow_manager().check_coherence().unwrap();
}

#[test]
fn sustained_churn_with_expiry_keeps_state_coherent() {
    // Hours of simulated time, thousands of flows cycling through a
    // 64-entry table — the slow-leak scenario. The verified NAT's flow
    // manager must stay coherent (dmap == dchain, port bijection) the
    // whole way; occupancy may never exceed capacity.
    let mut nf = VigNatMb::new(cfg());
    let mut rng = StdRng::seed_from_u64(7);
    let mut now = Time::from_secs(1);
    for step in 0..20_000u32 {
        now = now.plus(rng.gen_range(10_000_000..500_000_000)); // 10-500 ms
        let host = rng.gen_range(1..=200u8);
        let port = rng.gen_range(1024..2048u16);
        let mut frame =
            PacketBuilder::udp(Ip4::new(10, 9, 0, host), Ip4::new(1, 1, 1, 1), port, 53).build();
        nf.process(Direction::Internal, &mut frame, now);
        assert!(
            nf.occupancy() <= 64,
            "occupancy above capacity at step {step}"
        );
        if step % 1_000 == 0 {
            nf.flow_manager().check_coherence().unwrap_or_else(|e| {
                panic!("coherence broken at step {step}: {e}");
            });
        }
    }
    assert!(
        nf.expired_total() > 1_000,
        "churn must have exercised expiry heavily"
    );
    nf.flow_manager().check_coherence().unwrap();
}
