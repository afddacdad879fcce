//! A minimal concrete [`NatEnv`] over plain vectors — the test harness
//! the differential suite runs the real loop body in.
//!
//! No devices, no buffers: packets are injected as header fields,
//! outputs are recorded as field-level events. This keeps the
//! differential tests (loop body + [`FlowManager`] vs. the RFC 3022
//! [`vig_spec::SpecChecker`]) free of simulator noise — they compare
//! *decisions*, which is exactly what the spec constrains. Byte-level
//! behaviour (checksum updates, payload preservation) is covered by the
//! netsim end-to-end tests.
//!
//! The env also enforces the buffer-ownership discipline at runtime:
//! every received handle must be consumed by exactly one `tx`/`drop_pkt`
//! before the iteration ends, mirroring the Validator's leak check.

use crate::env::concrete::{ext_key, fid_key, view, FidMemo, ProbeScratch};
use crate::env::{ExtParts, FidParts, FlowView, NatEnv, PktHandle, RxPacket, SlotId, TxHdr};
use crate::flow_manager::{FlowManager, FlowTable};
use crate::loop_body::{nat_loop_iteration, nat_process_batch, IterationOutcome};
use crate::sharded::ShardedFlowManager;
use libvig::time::Time;
use std::collections::VecDeque;
use vig_packet::{Direction, FlowFields};
use vig_spec::NatConfig;

/// Raw header fields for an injected packet. Use [`RawRx::well_formed`]
/// for valid packets; construct directly to exercise the drop paths.
#[derive(Debug, Clone, Copy)]
pub struct RawRx {
    /// Arrival interface.
    pub dir: Direction,
    /// Frame length in bytes.
    pub frame_len: u16,
    /// EtherType.
    pub ethertype: u16,
    /// IPv4 version+IHL byte.
    pub version_ihl: u8,
    /// IPv4 total length.
    pub total_len: u16,
    /// IPv4 flags+fragment-offset field.
    pub frag_field: u16,
    /// IPv4 TTL.
    pub ttl: u8,
    /// IPv4 protocol.
    pub proto: u8,
    /// Source address.
    pub src_ip: u32,
    /// Destination address.
    pub dst_ip: u32,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
    /// TCP flag byte (ignored for non-TCP packets).
    pub tcp_flags: u8,
}

impl RawRx {
    /// A well-formed 64-byte TCP/UDP frame carrying `fields` (empty
    /// TCP flag byte; see [`RawRx::with_tcp_flags`]).
    pub fn well_formed(dir: Direction, fields: FlowFields) -> RawRx {
        let l4 = match fields.proto {
            vig_packet::Proto::Tcp => 20,
            vig_packet::Proto::Udp => 8,
        };
        RawRx {
            dir,
            frame_len: 64,
            ethertype: 0x0800,
            version_ihl: 0x45,
            total_len: 20 + l4,
            frag_field: 0x4000, // DF, not fragmented
            ttl: 64,
            proto: fields.proto.number(),
            src_ip: fields.src_ip.raw(),
            dst_ip: fields.dst_ip.raw(),
            src_port: fields.src_port,
            dst_port: fields.dst_port,
            tcp_flags: 0,
        }
    }

    /// The same frame with a TCP flag byte.
    pub fn with_tcp_flags(self, tcp_flags: u8) -> RawRx {
        RawRx { tcp_flags, ..self }
    }
}

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
/// [`ShardedFlowManager`] via [`SimpleEnv::sharded`]). See module docs.
pub struct SimpleEnv<T: FlowTable = FlowManager> {
    cfg: NatConfig,
    fm: T,
    now_ns: u64,
    pending: VecDeque<RawRx>,
    events: Vec<EnvEvent>,
    next_handle: usize,
    in_flight: Vec<usize>,
    expired_total: usize,
    /// Per-packet `FlowId` hash memo (each `FlowId` is hashed once).
    fid_memo: FidMemo,
    /// Reused buffers of the batched probes.
    probe_scratch: ProbeScratch,
}

impl<T: FlowTable> crate::domain::Domain for SimpleEnv<T> {
    crate::concrete_domain_items!();
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
            now_ns: 0,
            pending: VecDeque::new(),
            events: Vec::new(),
            next_handle: 0,
            in_flight: Vec::new(),
            expired_total: 0,
            fid_memo: FidMemo::default(),
            probe_scratch: ProbeScratch::default(),
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
        &self.events
    }

    /// Set the clock (must be monotone across calls).
    pub fn set_time(&mut self, t: Time) {
        debug_assert!(t.nanos() >= self.now_ns, "SimpleEnv clock must be monotone");
        self.now_ns = t.nanos();
    }

    /// Queue a packet for the next iteration.
    pub fn inject(&mut self, raw: RawRx) {
        self.pending.push_back(raw);
    }

    /// Run one loop iteration of the *real* stateless code against this
    /// env, enforcing the buffer-ownership discipline.
    pub fn run_one(&mut self) -> IterationOutcome {
        let cfg = self.cfg;
        let out = nat_loop_iteration(self, &cfg);
        assert!(
            self.in_flight.is_empty(),
            "buffer leak: handles {:?} neither sent nor dropped",
            self.in_flight
        );
        out
    }

    /// Run one *burst* of the real stateless code
    /// ([`nat_process_batch`]): up to
    /// [`crate::loop_body::MAX_BURST`] pending packets in one call,
    /// with the same buffer-ownership enforcement.
    pub fn run_burst(&mut self) -> Vec<IterationOutcome> {
        let cfg = self.cfg;
        let out = nat_process_batch(self, &cfg);
        assert!(
            self.in_flight.is_empty(),
            "buffer leak: handles {:?} neither sent nor dropped",
            self.in_flight
        );
        out
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
        let before = self.events.len();
        let outcome = self.run_one();
        assert_eq!(
            self.events.len(),
            before + 1,
            "exactly one event per packet"
        );
        match (outcome, self.events[before]) {
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

impl<T: FlowTable> NatEnv for SimpleEnv<T> {
    fn now(&mut self) -> u64 {
        self.now_ns
    }

    fn expire_flows(&mut self, threshold: &u64) {
        self.expired_total += self.fm.expire(Time(*threshold));
    }

    fn receive(&mut self) -> Option<RxPacket<Self>> {
        let raw = self.pending.pop_front()?;
        let handle = PktHandle(self.next_handle);
        self.next_handle += 1;
        self.in_flight.push(handle.0);
        Some(RxPacket {
            handle,
            dir: raw.dir,
            frame_len: raw.frame_len,
            ethertype: raw.ethertype,
            version_ihl: raw.version_ihl,
            total_len: raw.total_len,
            frag_field: raw.frag_field,
            ttl: raw.ttl,
            proto: raw.proto,
            src_ip: raw.src_ip,
            dst_ip: raw.dst_ip,
            src_port: raw.src_port,
            dst_port: raw.dst_port,
            // Zero-filled for non-TCP frames, per the RxPacket contract.
            tcp_flags: if raw.proto == 6 { raw.tcp_flags } else { 0 },
        })
    }

    fn branch(&mut self, cond: bool) -> bool {
        cond
    }

    fn lookup_internal(&mut self, fid: &FidParts<Self>) -> Option<FlowView<Self>> {
        let key = fid_key(fid);
        // Hash once per packet; a following insert_flow reuses it.
        let hash = self.fid_memo.hash_for_lookup(key);
        let (slot, flow) = self.fm.lookup_internal_hashed(&key, hash)?;
        Some(view(slot, flow))
    }

    fn lookup_internal_batch(
        &mut self,
        fids: &[Option<FidParts<Self>>],
        out: &mut [Option<FlowView<Self>>],
    ) {
        self.probe_scratch.lookup_internal(&mut self.fm, fids, out);
    }

    fn lookup_external(&mut self, ek: &ExtParts<Self>) -> Option<FlowView<Self>> {
        let (slot, flow) = self.fm.lookup_external(&ext_key(ek))?;
        Some(view(slot, flow))
    }

    fn lookup_external_batch(
        &mut self,
        eks: &[Option<ExtParts<Self>>],
        out: &mut [Option<FlowView<Self>>],
    ) {
        self.probe_scratch.lookup_external(&mut self.fm, eks, out);
    }

    fn rejuvenate(&mut self, slot: SlotId, now: &u64, dir: Direction, tcp_flags: &u8) {
        self.fm.rejuvenate(slot.0, Time(*now), dir, *tcp_flags);
    }

    fn allocate_slot(&mut self, now: &u64) -> Option<(SlotId, u16, u32)> {
        // The memoized hash of the just-missed lookup routes the
        // allocation (the shard selector for sharded tables).
        let slot = self
            .fm
            .allocate_slot_routed(self.fid_memo.hash_for_alloc(), Time(*now))?;
        let (ip, port) = self.fm.endpoint_of_slot(slot);
        Some((SlotId(slot), port - self.cfg.start_port, ip.raw()))
    }

    fn insert_flow(
        &mut self,
        slot: SlotId,
        fid: FidParts<Self>,
        ext_ip: u32,
        ext_port: u16,
        _now: &u64,
        tcp_flags: &u8,
    ) {
        let key = fid_key(&fid);
        // Reuse the hash memoized by the lookup miss that precedes
        // every insert on the same packet.
        let hash = self.fid_memo.hash_for_insert(&key);
        self.fm.insert_hashed(
            slot.0,
            key,
            vig_packet::Ip4(ext_ip),
            ext_port,
            hash,
            *tcp_flags,
        );
    }

    fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: TxHdr<Self>) {
        let pos = self
            .in_flight
            .iter()
            .position(|&h| h == pkt.0)
            .expect("tx of a handle not in flight (double send or invented)");
        self.in_flight.swap_remove(pos);
        self.events.push(EnvEvent::Sent {
            out,
            src_ip: hdr.src_ip,
            src_port: hdr.src_port,
            dst_ip: hdr.dst_ip,
            dst_port: hdr.dst_port,
        });
    }

    fn drop_pkt(&mut self, pkt: PktHandle) {
        let pos = self
            .in_flight
            .iter()
            .position(|&h| h == pkt.0)
            .expect("drop of a handle not in flight");
        self.in_flight.swap_remove(pos);
        self.events.push(EnvEvent::Dropped);
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
        let a: Vec<_> = seq
            .flow_manager()
            .iter_lru()
            .map(|(s, f, t)| (s, *f, t))
            .collect();
        let b: Vec<_> = bat
            .flow_manager()
            .iter_lru()
            .map(|(s, f, t)| (s, *f, t))
            .collect();
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
