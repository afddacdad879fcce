//! The concrete env over plain vectors — the test harness the
//! differential suite runs the real loop body in.
//!
//! No devices, no buffers: packets are injected as header fields,
//! outputs are recorded as field-level events. This keeps the
//! differential tests (loop body + [`FlowManager`] vs. the RFC 3022
//! [`vig_spec::SpecChecker`]) free of simulator noise — they compare
//! *decisions*, which is exactly what the spec constrains. Byte-level
//! behaviour (checksum updates, payload preservation) is covered by the
//! netsim end-to-end tests.
//!
//! Its packet side also enforces the buffer-ownership discipline at runtime:
//! every received handle must be consumed by exactly one `tx`/`drop_pkt`
//! before the iteration ends, mirroring the Validator's leak check.

use crate::domain::Concrete;
use crate::env::concrete::{ConcreteEnv, PacketSide};
use crate::env::PktHandle;
use crate::flow_manager::{FlowManager, FlowTable};
use crate::loop_body::{nat_loop_iteration, nat_process_batch, IterationOutcome};
use crate::sharded::ShardedFlowManager;
use libvig::time::Time;
use std::collections::VecDeque;
use vig_packet::{Direction, FlowFields};
use vig_spec::rfc3022::{Frame, Tuple};
use vig_spec::NatConfig;

/// One received packet's header fields as machine integers: what a test
/// injects. Use [`Frame::well_formed`] for valid packets; construct
/// directly to exercise the drop paths.
pub type RawRx = Frame<Concrete>;

/// What the env observed the NF do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvEvent {
    /// Packet transmitted on `out` with the rewritten tuple.
    Sent {
        /// Egress interface.
        out: Direction,
        /// Rewritten source ip.
        src_ip: u32,
        /// Rewritten source port.
        src_port: u16,
        /// Rewritten destination ip.
        dst_ip: u32,
        /// Rewritten destination port.
        dst_port: u16,
    },
    /// Packet dropped.
    Dropped,
}

/// The vector-backed test environment, generic over the flow-table
/// implementation it drives (unsharded [`FlowManager`] by default,
/// [`ShardedFlowManager`] via [`SimpleEnv::sharded`]). It owns the
/// table, the clock and the field queue, and lends them to a
/// [`ConcreteEnv`] for each run. See module docs.
pub struct SimpleEnv<T: FlowTable = FlowManager> {
    cfg: NatConfig,
    fm: T,
    now: Time,
    packets: FieldQueue,
    expired_total: usize,
}

/// The field-level [`PacketSide`]: injected header fields in, events
/// out, and the run-time buffer-ownership check in between.
#[derive(Default)]
struct FieldQueue {
    pending: VecDeque<RawRx>,
    events: Vec<EnvEvent>,
    next_handle: usize,
    in_flight: Vec<usize>,
}

impl FieldQueue {
    /// Take `pkt` out of flight; `what` names the consumer on failure.
    fn consume(&mut self, pkt: PktHandle, what: &str) {
        let pos = self
            .in_flight
            .iter()
            .position(|&h| h == pkt.0)
            .unwrap_or_else(|| {
                panic!("{what} of a handle not in flight (double consume or invented)")
            });
        self.in_flight.swap_remove(pos);
    }
}

impl PacketSide for &mut FieldQueue {
    fn receive(&mut self) -> Option<(PktHandle, RawRx)> {
        let raw = self.pending.pop_front()?;
        let handle = PktHandle(self.next_handle);
        self.next_handle += 1;
        self.in_flight.push(handle.0);
        Some((handle, raw))
    }

    fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: Tuple<Concrete>) {
        self.consume(pkt, "tx");
        let ((src_ip, src_port), (dst_ip, dst_port)) = (hdr.src, hdr.dst);
        self.events.push(EnvEvent::Sent {
            out,
            src_ip,
            src_port,
            dst_ip,
            dst_port,
        });
    }

    fn drop_pkt(&mut self, pkt: PktHandle) {
        self.consume(pkt, "drop");
        self.events.push(EnvEvent::Dropped);
    }
}

impl SimpleEnv {
    /// Fresh env with an empty (unsharded) flow table.
    pub fn new(cfg: NatConfig) -> SimpleEnv {
        SimpleEnv::with_table(FlowManager::new(&cfg), cfg)
    }
}

impl SimpleEnv<ShardedFlowManager> {
    /// Fresh env over an N-shard flow table — the same loop body, the
    /// same decisions vocabulary, RSS-partitioned state underneath.
    pub fn sharded(cfg: NatConfig, shards: usize) -> Self {
        SimpleEnv::with_table(ShardedFlowManager::new(&cfg, shards), cfg)
    }
}

impl<T: FlowTable> SimpleEnv<T> {
    fn with_table(fm: T, cfg: NatConfig) -> SimpleEnv<T> {
        SimpleEnv {
            fm,
            cfg,
            now: Time::ZERO,
            packets: FieldQueue::default(),
            expired_total: 0,
        }
    }

    /// The flow table (for assertions).
    pub fn flow_manager(&self) -> &T {
        &self.fm
    }

    /// Total flows expired so far.
    pub fn expired_total(&self) -> usize {
        self.expired_total
    }

    /// All recorded events.
    pub fn events(&self) -> &[EnvEvent] {
        &self.packets.events
    }

    /// Set the clock (must be monotone across calls).
    pub fn set_time(&mut self, t: Time) {
        debug_assert!(t >= self.now, "SimpleEnv clock must be monotone");
        self.now = t;
    }

    /// Queue a packet for the next iteration.
    pub fn inject(&mut self, raw: RawRx) {
        self.packets.pending.push_back(raw);
    }

    /// Run `body` — the *real* stateless code — against a
    /// [`ConcreteEnv`] over this env's table and field queue,
    /// enforcing the buffer-ownership discipline.
    fn run<R>(
        &mut self,
        body: impl FnOnce(&mut ConcreteEnv<'_, T, &mut FieldQueue>, &NatConfig) -> R,
    ) -> R {
        let mut env = ConcreteEnv::new(&mut self.fm, &mut self.packets, self.now);
        let out = body(&mut env, &self.cfg);
        self.expired_total += env.finish();
        assert!(
            self.packets.in_flight.is_empty(),
            "buffer leak: handles {:?} neither sent nor dropped",
            self.packets.in_flight
        );
        out
    }

    /// Run one loop iteration ([`nat_loop_iteration`]).
    pub fn run_one(&mut self) -> IterationOutcome {
        self.run(|env, cfg| nat_loop_iteration(env, cfg))
    }

    /// Run one *burst* ([`nat_process_batch`]): up to
    /// [`crate::loop_body::MAX_BURST`] pending packets in one call.
    pub fn run_burst(&mut self) -> Vec<IterationOutcome> {
        self.run(|env, cfg| nat_process_batch(env, cfg))
    }

    /// Convenience for differential testing: inject a well-formed packet
    /// at time `t`, run one iteration, and return the NF's decision in
    /// the spec's vocabulary.
    pub fn step(&mut self, dir: Direction, fields: FlowFields, t: Time) -> vig_spec::Output {
        self.step_flags(dir, fields, 0, t)
    }

    /// [`SimpleEnv::step`] with a TCP flag byte (the connection-tracker
    /// input; ignored on UDP packets).
    pub fn step_flags(
        &mut self,
        dir: Direction,
        fields: FlowFields,
        tcp_flags: u8,
        t: Time,
    ) -> vig_spec::Output {
        self.set_time(t);
        self.inject(RawRx::well_formed(dir, fields).with_tcp_flags(tcp_flags));
        let before = self.events().len();
        let outcome = self.run_one();
        assert_eq!(
            self.events().len(),
            before + 1,
            "exactly one event per packet"
        );
        match (outcome, self.events()[before]) {
            (
                IterationOutcome::Forwarded(_),
                EnvEvent::Sent {
                    out,
                    src_ip,
                    src_port,
                    dst_ip,
                    dst_port,
                },
            ) => vig_spec::Output::Forward {
                iface: out,
                fields: FlowFields {
                    src_ip: vig_packet::Ip4(src_ip),
                    dst_ip: vig_packet::Ip4(dst_ip),
                    src_port,
                    dst_port,
                    proto: fields.proto,
                },
            },
            (IterationOutcome::Dropped(_), EnvEvent::Dropped) => vig_spec::Output::Drop,
            (o, e) => panic!("outcome {o:?} inconsistent with event {e:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_body::DropReason;
    use proptest::prelude::*;
    use vig_packet::{Ip4, Proto};
    use vig_spec::{PacketInput, SpecChecker};

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 4,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    fn fields(h: u8, sport: u16, proto: Proto) -> FlowFields {
        FlowFields {
            src_ip: Ip4::new(192, 168, 0, h),
            dst_ip: Ip4::new(1, 1, 1, 1),
            src_port: sport,
            dst_port: 80,
            proto,
        }
    }

    #[test]
    fn no_packet_iteration() {
        let mut env = SimpleEnv::new(cfg());
        assert_eq!(env.run_one(), IterationOutcome::NoPacket);
    }

    #[test]
    fn new_flow_is_translated_and_return_traffic_flows_back() {
        let mut env = SimpleEnv::new(cfg());
        let out = env.step(
            Direction::Internal,
            fields(2, 5000, Proto::Tcp),
            Time::from_secs(1),
        );
        let vig_spec::Output::Forward { iface, fields: f } = out else {
            panic!("expected forward")
        };
        assert_eq!(iface, Direction::External);
        assert_eq!(f.src_ip, Ip4::new(10, 1, 0, 1));
        assert_eq!(f.dst_ip, Ip4::new(1, 1, 1, 1));
        let ext_port = f.src_port;
        assert!((1000..1004).contains(&ext_port));

        // return packet
        let back = FlowFields {
            src_ip: Ip4::new(1, 1, 1, 1),
            dst_ip: Ip4::new(10, 1, 0, 1),
            src_port: 80,
            dst_port: ext_port,
            proto: Proto::Tcp,
        };
        let out = env.step(Direction::External, back, Time::from_secs(2));
        let vig_spec::Output::Forward { iface, fields: f } = out else {
            panic!("expected reverse forward")
        };
        assert_eq!(iface, Direction::Internal);
        assert_eq!(f.dst_ip, Ip4::new(192, 168, 0, 2));
        assert_eq!(f.dst_port, 5000);
        assert_eq!(f.src_ip, Ip4::new(1, 1, 1, 1));
    }

    #[test]
    fn malformed_packets_hit_each_drop_path() {
        let wf = RawRx::well_formed(Direction::Internal, fields(2, 5000, Proto::Udp));
        let cases: Vec<(RawRx, DropReason)> = vec![
            (
                RawRx {
                    frame_len: 10,
                    ..wf
                },
                DropReason::ShortL2,
            ),
            (
                RawRx {
                    ethertype: 0x86dd,
                    ..wf
                },
                DropReason::NotIpv4,
            ),
            (
                RawRx {
                    frame_len: 20,
                    ..wf
                },
                DropReason::ShortL3,
            ),
            (
                RawRx {
                    version_ihl: 0x65,
                    ..wf
                },
                DropReason::BadVersion,
            ),
            (
                RawRx {
                    version_ihl: 0x44,
                    ..wf
                },
                DropReason::BadIhl,
            ),
            (
                RawRx {
                    total_len: 64,
                    ..wf
                },
                DropReason::BadTotalLen,
            ),
            (
                RawRx {
                    frag_field: 0x2000,
                    ..wf
                },
                DropReason::Fragment,
            ),
            (
                RawRx {
                    frag_field: 0x0001,
                    ..wf
                },
                DropReason::Fragment,
            ),
            (RawRx { proto: 1, ..wf }, DropReason::BadProto),
            (
                RawRx {
                    total_len: 20 + 7,
                    ..wf
                },
                DropReason::ShortL4,
            ),
            // IHL (24) larger than total_len (20): header overrun
            (
                RawRx {
                    version_ihl: 0x46,
                    total_len: 20,
                    ..wf
                },
                DropReason::HeaderOverrun,
            ),
        ];
        for (raw, want) in cases {
            let mut env = SimpleEnv::new(cfg());
            env.set_time(Time::from_secs(1));
            env.inject(raw);
            assert_eq!(
                env.run_one(),
                IterationOutcome::Dropped(want),
                "case {want:?} mis-dropped for {raw:?}"
            );
        }
    }

    #[test]
    fn table_full_drops_new_flows() {
        let mut env = SimpleEnv::new(cfg());
        for h in 0..4 {
            env.step(
                Direction::Internal,
                fields(h, 100, Proto::Udp),
                Time::from_secs(1),
            );
        }
        env.set_time(Time::from_secs(2));
        env.inject(RawRx::well_formed(
            Direction::Internal,
            fields(9, 100, Proto::Udp),
        ));
        assert_eq!(
            env.run_one(),
            IterationOutcome::Dropped(DropReason::TableFull)
        );
    }

    #[test]
    fn expiry_runs_before_lookup() {
        let mut env = SimpleEnv::new(cfg());
        env.step(
            Direction::Internal,
            fields(1, 100, Proto::Udp),
            Time::from_secs(1),
        );
        assert_eq!(env.flow_manager().len(), 1);
        // At t=11 the flow (stamped 1, Texp=10) is dead; its return
        // packet must be dropped by this very iteration.
        let back = FlowFields {
            src_ip: Ip4::new(1, 1, 1, 1),
            dst_ip: Ip4::new(10, 1, 0, 1),
            src_port: 80,
            dst_port: 1000,
            proto: Proto::Udp,
        };
        let out = env.step(Direction::External, back, Time::from_secs(11));
        assert_eq!(out, vig_spec::Output::Drop);
        assert_eq!(env.flow_manager().len(), 0);
        assert_eq!(env.expired_total(), 1);
    }

    #[test]
    fn burst_matches_sequential_iterations() {
        // Same traffic, same instant: one nat_process_batch call vs N
        // nat_loop_iteration calls must produce identical outcomes,
        // events, and flow-table state. Includes a duplicate flow in
        // the burst (second packet must hit the flow the first one
        // inserted) and junk return traffic.
        let traffic: Vec<(Direction, FlowFields)> = vec![
            (Direction::Internal, fields(1, 100, Proto::Udp)),
            (Direction::Internal, fields(2, 200, Proto::Tcp)),
            (Direction::Internal, fields(1, 100, Proto::Udp)), // repeat
            (
                Direction::External,
                FlowFields {
                    src_ip: Ip4::new(9, 9, 9, 9),
                    dst_ip: Ip4::new(10, 1, 0, 1),
                    src_port: 1,
                    dst_port: 1001,
                    proto: Proto::Udp,
                },
            ),
        ];
        let mut seq = SimpleEnv::new(cfg());
        let mut bat = SimpleEnv::new(cfg());
        let t = Time::from_secs(3);
        seq.set_time(t);
        bat.set_time(t);
        let mut raws: Vec<RawRx> = traffic
            .iter()
            .map(|(dir, f)| RawRx::well_formed(*dir, *f))
            .collect();
        // A malformed frame *between* forwarded ones: its drop event
        // must land at its own sequence point, not be hoisted ahead of
        // earlier packets' tx (the event order below checks this).
        raws.insert(
            1,
            RawRx {
                ethertype: 0x86dd,
                ..RawRx::well_formed(Direction::Internal, fields(9, 900, Proto::Udp))
            },
        );
        for raw in &raws {
            seq.inject(*raw);
            bat.inject(*raw);
        }
        let traffic = raws;
        let seq_out: Vec<_> = traffic.iter().map(|_| seq.run_one()).collect();
        let bat_out = bat.run_burst();
        assert_eq!(seq_out, bat_out);
        assert_eq!(seq.events(), bat.events());
        assert_eq!(seq.flow_manager().len(), bat.flow_manager().len());
        let a: Vec<_> = seq.flow_manager().iter_lru().collect();
        let b: Vec<_> = bat.flow_manager().iter_lru().collect();
        assert_eq!(a, b, "LRU order must match sequential execution");
        bat.flow_manager().check_coherence().unwrap();
    }

    #[test]
    fn empty_burst_is_noop() {
        let mut env = SimpleEnv::new(cfg());
        assert!(env.run_burst().is_empty());
    }

    /// Drive one randomized schedule through the real loop body and the
    /// RFC 3022 spec in lockstep — the shared body of the differential
    /// properties below.
    fn run_differential(
        c: NatConfig,
        steps: Vec<(u8, u8, u16, bool, u8, u64)>,
    ) -> Result<(), TestCaseError> {
        let mut env = SimpleEnv::new(c);
        let mut spec = SpecChecker::new(c);
        let mut now = Time::from_secs(1);
        for (kind, host, ext_port, tcp, raw_flags, dt) in steps {
            now = now.plus(dt * 1_500_000_000);
            let proto = if tcp { Proto::Tcp } else { Proto::Udp };
            // FIN/SYN/RST/ACK bits only; anything else is noise the
            // tracker ignores anyway.
            let tcp_flags = if tcp { raw_flags & 0x17 } else { 0 };
            let (dir, f) = match kind {
                // internal traffic from a small host pool (drives
                // repeats and new flows)
                0 | 1 => (Direction::Internal, fields(host, 100, proto)),
                // return traffic to a port that may or may not be live
                2 => (
                    Direction::External,
                    FlowFields {
                        src_ip: Ip4::new(1, 1, 1, 1),
                        dst_ip: Ip4::new(10, 1, 0, 1),
                        src_port: 80,
                        dst_port: ext_port,
                        proto,
                    },
                ),
                // junk external traffic from a different remote
                _ => (
                    Direction::External,
                    FlowFields {
                        src_ip: Ip4::new(7, 7, 7, 7),
                        dst_ip: Ip4::new(10, 1, 0, 1),
                        src_port: 9999,
                        dst_port: ext_port,
                        proto,
                    },
                ),
            };
            let output = env.step_flags(dir, f, tcp_flags, now);
            let input = PacketInput {
                dir,
                fields: f,
                tcp_flags,
            };
            spec.observe(&input, now, &output).map_err(|v| {
                TestCaseError::fail(format!("spec violation at step {}: {v}", spec.steps()))
            })?;
            prop_assert!(env.flow_manager().check_coherence().is_ok());
        }
        Ok(())
    }

    // The workhorse: the real loop body + real libVig vs. the RFC 3022
    // spec, on randomized workloads mixing new flows, repeats, valid
    // and junk return traffic, TCP flag storms, and time jumps that
    // trigger expiry.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn differential_vs_rfc3022_spec(
            steps in proptest::collection::vec(
                (0u8..4, 0u8..6, 1000u16..1012, any::<bool>(), any::<u8>(), 0u64..8),
                1..300,
            ),
        ) {
            run_differential(cfg(), steps)?;
        }

        /// The same relation on a per-class config: the TCP tracker
        /// picks the lifetime (transitory 3s, established 30s, UDP
        /// 10s), so flag sequences now change *which* packets expire.
        #[test]
        fn differential_vs_spec_with_tcp_lifetimes(
            steps in proptest::collection::vec(
                (0u8..4, 0u8..6, 1000u16..1012, any::<bool>(), any::<u8>(), 0u64..8),
                1..300,
            ),
        ) {
            let c = NatConfig {
                tcp_transitory_ns: Time::from_secs(3).nanos(),
                tcp_established_ns: Time::from_secs(30).nanos(),
                ..cfg()
            };
            run_differential(c, steps)?;
        }

        /// And with EIM + hairpinning on: remote-independent mappings,
        /// pool-addressed internal packets looping back inside.
        #[test]
        fn differential_vs_spec_with_eim_hairpinning(
            steps in proptest::collection::vec(
                (0u8..5, 0u8..6, 1000u16..1012, any::<bool>(), any::<u8>(), 0u64..8),
                1..300,
            ),
        ) {
            let c = NatConfig {
                eim: true,
                hairpinning: true,
                tcp_transitory_ns: Time::from_secs(3).nanos(),
                tcp_established_ns: Time::from_secs(30).nanos(),
                ..cfg()
            };
            let mut env = SimpleEnv::new(c);
            let mut spec = SpecChecker::new(c);
            let mut now = Time::from_secs(1);
            for (kind, host, ext_port, tcp, raw_flags, dt) in steps {
                now = now.plus(dt * 1_500_000_000);
                let proto = if tcp { Proto::Tcp } else { Proto::Udp };
                let tcp_flags = if tcp { raw_flags & 0x17 } else { 0 };
                let (dir, f) = match kind {
                    0 | 1 => (Direction::Internal, fields(host, 100, proto)),
                    // hairpin attempt: an internal host aims at a pool
                    // endpoint (live or dangling)
                    2 => (
                        Direction::Internal,
                        FlowFields {
                            src_ip: Ip4::new(192, 168, 0, host),
                            dst_ip: Ip4::new(10, 1, 0, 1),
                            src_port: 100,
                            dst_port: ext_port,
                            proto,
                        },
                    ),
                    3 => (
                        Direction::External,
                        FlowFields {
                            src_ip: Ip4::new(1, 1, 1, 1),
                            dst_ip: Ip4::new(10, 1, 0, 1),
                            src_port: 80,
                            dst_port: ext_port,
                            proto,
                        },
                    ),
                    _ => (
                        Direction::External,
                        FlowFields {
                            src_ip: Ip4::new(7, 7, 7, 7),
                            dst_ip: Ip4::new(10, 1, 0, 1),
                            src_port: 9999,
                            dst_port: ext_port,
                            proto,
                        },
                    ),
                };
                let output = env.step_flags(dir, f, tcp_flags, now);
                let input = PacketInput { dir, fields: f, tcp_flags };
                spec.observe(&input, now, &output).map_err(|v| {
                    TestCaseError::fail(format!("spec violation at step {}: {v}", spec.steps()))
                })?;
                prop_assert!(env.flow_manager().check_coherence().is_ok());
            }
        }
    }
}
