//! The RFC 3022 decision step (paper Fig. 6), written once.
//!
//! For a packet `P` arriving at time `t`, Fig. 6 is `expire_flows(t)`
//! and then, if `P` is accepted, `update_flow(P, t); forward(P)`, where
//! `forward` rewrites and emits one packet on the opposite interface or
//! drops `P`. [`decide`] is that step over a value [`Domain`]: it
//! expires, tests the accept premise ([`accepts`]: a malformed frame
//! reaches the spec, which drops it), looks the mapping up, refreshes or
//! inserts it, takes the hairpin leg, and returns the [`Required`]
//! verdict and rewrite. It asks the state everything through a
//! [`SpecState`], which has two instances:
//!
//! * [`AbstractNat`] over [`Concrete`]: [`step_allows`] and
//!   [`SpecChecker`] are `decide` plus a comparison with the observed
//!   [`Output`], which the differential, chaos and shard suites use;
//! * one symbolic trace of the real loop body, in the Validator's P1:
//!   the trace's calls answer the queries, the path decides the branches.
//!
//! The one nondeterministic choice, the endpoint of a new mapping
//! ([`SpecState::free_endpoint`]), is read off the observation and
//! constrained: free, non-zero, inside the pool.
//!
//! ## Faithfulness notes
//!
//! * With a single-address pool (the paper's configuration), external
//!   packets are matched purely by `(ext_port, remote ip, remote port,
//!   proto)` — Fig. 6 does not test the packet's destination address
//!   against `EXT_IP` (on the paper's testbed, L2 delivery guarantees
//!   it). With a multi-address pool (a beyond-the-paper extension for
//!   >64k flows) the destination address selects the pool address.
//! * `S.data = P.data` (payload untouched) is a byte-level property the
//!   field-level relation cannot see; the differential tester checks it
//!   on concrete packets.

use crate::domain::{Concrete, Domain};
use crate::state::{AbstractNat, InsertError, NatConfig};
use libvig::time::Time;
use vig_packet::{Direction, ExtKey, FlowFields, FlowId, Ip4, Proto};

/// A received frame's header fields over a domain: what the NF reads
/// before it decides anything (the loop body's `RxPacket` without its
/// buffer handle).
#[derive(Debug, Clone)]
pub struct Frame<D: Domain + ?Sized> {
    /// Arrival interface.
    pub dir: Direction,
    /// Frame length in bytes.
    pub frame_len: D::U16,
    /// Ethernet EtherType.
    pub ethertype: D::U16,
    /// IPv4 version (high nibble) and IHL (low nibble).
    pub version_ihl: D::U8,
    /// IPv4 total length.
    pub total_len: D::U16,
    /// IPv4 flags and fragment offset.
    pub frag_field: D::U16,
    /// IPv4 protocol number.
    pub proto: D::U8,
    /// Source address.
    pub src_ip: D::U32,
    /// Destination address.
    pub dst_ip: D::U32,
    /// L4 source port.
    pub src_port: D::U16,
    /// L4 destination port.
    pub dst_port: D::U16,
    /// TCP flag byte (0 for UDP).
    pub tcp_flags: D::U8,
}

/// An `(address, port)` endpoint over a domain.
pub type Endpoint<D> = (<D as Domain>::U32, <D as Domain>::U16);

/// A 5-tuple over a domain: a rewritten header, or a mapping key — an
/// internal key runs from the internal endpoint, an external key from
/// the allocated one, both to the remote endpoint (zeros under RFC 4787
/// endpoint-independent mapping).
pub struct Tuple<D: Domain + ?Sized> {
    /// Source (or internal / allocated) endpoint.
    pub src: Endpoint<D>,
    /// Destination (or remote) endpoint.
    pub dst: Endpoint<D>,
    /// Protocol.
    pub proto: Proto,
}

/// One live mapping, as a lookup returns it.
pub struct Mapping<D: Domain + ?Sized> {
    /// The internal host's endpoint.
    pub int: Endpoint<D>,
    /// The allocated external endpoint.
    pub ext: Endpoint<D>,
}

/// What RFC 3022 requires of a packet: emit one packet with header
/// `hdr` on interface `iface` (`Some((iface, hdr))`), or drop it.
pub type Required<D> = Option<(Direction, Tuple<D>)>;

/// How [`decide`] computes and branches: a domain, and which way a
/// condition goes ([`Concrete`] knows; a symbolic instance asks a solver).
pub trait Decider<D: Domain> {
    /// A [`SpecViolation`] against an observation, a P1 failure on a trace.
    type Error;
    /// The domain the step computes in.
    fn domain(&mut self) -> &mut D;
    /// Which way `cond` goes.
    fn branch(&mut self, cond: D::B) -> Result<bool, Self::Error>;
}

impl Decider<Concrete> for Concrete {
    type Error = core::convert::Infallible;
    fn domain(&mut self) -> &mut Concrete {
        self
    }
    fn branch(&mut self, cond: bool) -> Result<bool, Self::Error> {
        Ok(cond)
    }
}

/// The queries [`decide`] makes of the NAT state it steps.
pub trait SpecState<D: Domain>: Decider<D> {
    /// Fig. 6 line 2: remove every flow whose lifetime ran out by `now`.
    fn expire(&mut self, now: &D::U64) -> Result<(), Self::Error>;
    /// The mapping whose key on the `dir` side is `key`: an internal
    /// flow id, or an external key.
    fn lookup(&mut self, dir: Direction, key: &Tuple<D>)
        -> Result<Option<Mapping<D>>, Self::Error>;
    /// Is the flow table full (`size(flow_table) == CAP`)?
    fn is_full(&mut self) -> Result<bool, Self::Error>;
    /// The endpoint the NF gave `fid`'s new mapping, which must be free:
    /// no live mapping holds it.
    fn free_endpoint(&mut self, fid: &Tuple<D>) -> Result<Endpoint<D>, Self::Error>;
    /// Fig. 6 line 16: map `fid` to `at` for a segment with `tcp_flags`.
    fn insert(
        &mut self,
        fid: &Tuple<D>,
        at: &Endpoint<D>,
        now: &D::U64,
        tcp_flags: &D::U8,
    ) -> Result<(), Self::Error>;
    /// Fig. 6 lines 10–12: refresh `fid`'s mapping, stepping its TCP
    /// tracker with a segment from `dir`.
    fn refresh(
        &mut self,
        fid: &Tuple<D>,
        now: &D::U64,
        dir: Direction,
        tcp_flags: &D::U8,
    ) -> Result<(), Self::Error>;
}

/// Fig. 6 line 2, `expire_flows(t)`, behind its `Texp <= t` guard
/// (`Texp` the shortest lifetime: before it nothing can have expired).
pub fn expire_flows<D: Domain, S: SpecState<D>>(
    cfg: &NatConfig,
    s: &mut S,
    now: &D::U64,
) -> Result<(), S::Error> {
    let d = s.domain();
    let texp = d.c_u64(cfg.min_lifetime_ns());
    let due = d.le_u64(&texp, now);
    if s.branch(due)? {
        s.expire(now)?;
    }
    Ok(())
}

/// Fig. 6's premise, "P is accepted": an unfragmented IPv4 TCP or UDP
/// datagram whose IPv4 and L4 headers fit inside the frame. Returns the
/// accepted frame's protocol. Each subtraction sits behind the branch
/// that keeps it from wrapping.
pub fn accepts<D: Domain, S: Decider<D>>(
    s: &mut S,
    f: &Frame<D>,
) -> Result<Option<Proto>, S::Error> {
    let d = s.domain();
    let eth_len = d.c_u16(14);
    let has_l2 = d.le_u16(&eth_len, &f.frame_len);
    if !s.branch(has_l2)? {
        return Ok(None);
    }
    let d = s.domain();
    let min_frame = d.c_u16(14 + 20);
    let mut ok = d.le_u16(&min_frame, &f.frame_len);
    let ipv4 = d.c_u16(0x0800);
    let version = d.shr_u8(&f.version_ihl, 4);
    let four = d.c_u8(4);
    let ihl_nibble = d.and_u8(&f.version_ihl, 0x0f);
    let ihl8 = d.shl_u8(&ihl_nibble, 2);
    let ihl = d.u8_to_u16(&ihl8);
    let twenty = d.c_u16(20);
    let room = d.sub_u16(&f.frame_len, &eth_len);
    let frag = d.and_u16(&f.frag_field, 0x3fff);
    let zero = d.c_u16(0);
    let (tcp_no, udp_no) = (d.c_u8(6), d.c_u8(17));
    let is_tcp = d.eq_u8(&f.proto, &tcp_no);
    let is_udp = d.eq_u8(&f.proto, &udp_no);
    for p in [
        d.eq_u16(&f.ethertype, &ipv4),
        d.eq_u8(&version, &four),
        d.le_u16(&twenty, &ihl),
        d.le_u16(&f.total_len, &room),
        d.eq_u16(&frag, &zero),
        d.or(&is_tcp, &is_udp),
    ] {
        ok = d.and(&ok, &p);
    }
    if !s.branch(ok)? {
        return Ok(None);
    }
    let hdr_fits = s.domain().le_u16(&ihl, &f.total_len);
    if !s.branch(hdr_fits)? {
        return Ok(None);
    }
    let proto = if s.branch(is_tcp)? {
        Proto::Tcp
    } else {
        Proto::Udp
    };
    let d = s.domain();
    let l4_room = d.sub_u16(&f.total_len, &ihl);
    let l4_len = d.c_u16(match proto {
        Proto::Tcp => 20,
        Proto::Udp => 8,
    });
    let l4_fits = d.le_u16(&l4_len, &l4_room);
    Ok(s.branch(l4_fits)?.then_some(proto))
}

/// The Fig. 6 step: what the NAT must do with `pkt`, arriving at `now`
/// in the state `s` answers for. See module docs.
pub fn decide<D: Domain, S: SpecState<D>>(
    cfg: &NatConfig,
    s: &mut S,
    pkt: &Frame<D>,
    now: &D::U64,
) -> Result<Required<D>, S::Error> {
    expire_flows(cfg, s, now)?;
    let Some(proto) = accepts(s, pkt)? else {
        return Ok(None);
    };
    let src = (pkt.src_ip.clone(), pkt.src_port.clone());
    let dst = (pkt.dst_ip.clone(), pkt.dst_port.clone());
    // The remote endpoint a mapping is keyed by: zeros under EIM.
    let d = s.domain();
    let mut remote = |(ip, port): &Endpoint<D>| {
        if cfg.eim {
            (d.c_u32(0), d.c_u16(0))
        } else {
            (ip.clone(), port.clone())
        }
    };
    match pkt.dir {
        Direction::Internal => {
            let fid = Tuple {
                dst: remote(&dst),
                src,
                proto,
            };
            if cfg.hairpinning {
                let to_pool = to_pool(cfg, s.domain(), pkt);
                if s.branch(to_pool)? {
                    return hairpin(cfg, s, pkt, &fid, now);
                }
            }
            let sender = sender_endpoint(s, pkt, &fid, now)?;
            Ok(sender.map(|src| (Direction::External, Tuple { src, dst, proto })))
        }
        Direction::External => {
            let remote = remote(&src);
            let ek = Tuple {
                src: (ext_address(cfg, s.domain(), &pkt.dst_ip), dst.1),
                dst: remote,
                proto,
            };
            // Fig. 6 l.13-19: external packets never create mappings.
            let Some(m) = s.lookup(Direction::External, &ek)? else {
                return Ok(None);
            };
            let fid = Tuple {
                src: m.int.clone(),
                dst: ek.dst,
                proto,
            };
            s.refresh(&fid, now, Direction::External, &pkt.tcp_flags)?;
            let hdr = Tuple {
                src,
                dst: m.int,
                proto,
            };
            Ok(Some((Direction::Internal, hdr)))
        }
    }
}

/// The pool address a return packet's mapping lives on: `EXT_IP` with one
/// address (Fig. 6 never reads the destination), else the destination.
fn ext_address<D: Domain>(cfg: &NatConfig, d: &mut D, dst_ip: &D::U32) -> D::U32 {
    if cfg.num_external_ips() == 1 {
        d.c_u32(cfg.external_ip.raw())
    } else {
        dst_ip.clone()
    }
}

/// Is the packet addressed to a pool endpoint: `EXT_IP` (hairpinning
/// requires one address) and a port in `start_port .. start_port + CAP`?
fn to_pool<D: Domain>(cfg: &NatConfig, d: &mut D, pkt: &Frame<D>) -> D::B {
    let ext_ip = d.c_u32(cfg.external_ip.raw());
    let on_ip = d.eq_u32(&pkt.dst_ip, &ext_ip);
    let start = d.c_u16(cfg.start_port);
    let above = d.le_u16(&start, &pkt.dst_port);
    let mut inside = d.and(&on_ip, &above);
    let end = usize::from(cfg.start_port) + cfg.capacity;
    if end <= usize::from(u16::MAX) {
        let end = d.c_u16(end as u16);
        let below = d.lt_u16(&pkt.dst_port, &end);
        inside = d.and(&inside, &below);
    }
    inside
}

/// Fig. 6 `update_flow` for an internal sender: its mapping's external
/// endpoint, refreshed, or a new one at the NF's endpoint while the
/// table has room; `None` when it is full (Fig. 6 l.39: drop).
fn sender_endpoint<D: Domain, S: SpecState<D>>(
    s: &mut S,
    pkt: &Frame<D>,
    fid: &Tuple<D>,
    now: &D::U64,
) -> Result<Option<Endpoint<D>>, S::Error> {
    if let Some(m) = s.lookup(Direction::Internal, fid)? {
        s.refresh(fid, now, Direction::Internal, &pkt.tcp_flags)?;
        return Ok(Some(m.ext));
    }
    if s.is_full()? {
        return Ok(None);
    }
    let at = s.free_endpoint(fid)?;
    s.insert(fid, &at, now, &pkt.tcp_flags)?;
    Ok(Some(at))
}

/// The RFC 4787 hairpin leg (REQ-9) for an internal packet addressed to
/// a pool endpoint: find the target's mapping (keyed under EIM, which
/// hairpinning requires), resolve the sender's as for an outbound
/// packet, and forward back inside from the sender's external endpoint
/// to the target's internal one. Only the sender's mapping is refreshed.
fn hairpin<D: Domain, S: SpecState<D>>(
    cfg: &NatConfig,
    s: &mut S,
    pkt: &Frame<D>,
    fid: &Tuple<D>,
    now: &D::U64,
) -> Result<Required<D>, S::Error> {
    let d = s.domain();
    let target_key = Tuple {
        src: (ext_address(cfg, d, &pkt.dst_ip), pkt.dst_port.clone()),
        dst: (d.c_u32(0), d.c_u16(0)),
        proto: fid.proto,
    };
    let Some(target) = s.lookup(Direction::External, &target_key)? else {
        return Ok(None);
    };
    let sender = sender_endpoint(s, pkt, fid, now)?;
    let (dst, proto) = (target.int, fid.proto);
    Ok(sender.map(|src| (Direction::Internal, Tuple { src, dst, proto })))
}

/// A packet presented to the NAT as a 5-tuple, with its arrival
/// interface and TCP flag byte: the spec sees the well-formed frame
/// [`PacketInput::frame`] that carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketInput {
    /// Arrival interface.
    pub dir: Direction,
    /// The packet's 5-tuple as read off the wire.
    pub fields: FlowFields,
    /// The TCP flag byte (0 for UDP packets; an empty flag set never
    /// steps the tracker, so the two encodings coincide).
    pub tcp_flags: u8,
}

impl PacketInput {
    /// The accepted frame carrying this packet: IPv4 without options,
    /// unfragmented, with exactly the L4 header.
    pub fn frame(&self) -> Frame<Concrete> {
        let l4_len = match self.fields.proto {
            Proto::Tcp => 20,
            Proto::Udp => 8,
        };
        Frame {
            dir: self.dir,
            frame_len: 14 + 20 + l4_len,
            ethertype: 0x0800,
            version_ihl: 0x45,
            total_len: 20 + l4_len,
            frag_field: 0,
            proto: self.fields.proto.number(),
            src_ip: self.fields.src_ip.raw(),
            dst_ip: self.fields.dst_ip.raw(),
            src_port: self.fields.src_port,
            dst_port: self.fields.dst_port,
            tcp_flags: self.tcp_flags,
        }
    }
}

/// What the NF did with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Emitted one packet with these fields on this interface.
    Forward {
        /// Egress interface.
        iface: Direction,
        /// The emitted packet's 5-tuple.
        fields: FlowFields,
    },
    /// Dropped the packet; nothing was emitted.
    Drop,
}

/// A divergence between observed NF behaviour and the RFC 3022 step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecViolation {
    /// The spec requires forwarding (a mapping matched, or a fresh
    /// internal flow fit in the table) but the NF dropped.
    ShouldForward {
        /// The mapping to create, or the rewrite the spec requires.
        fid: FlowId,
    },
    /// The spec requires a drop (no match and not insertable) but the NF
    /// forwarded.
    ShouldDrop,
    /// Forwarded on the wrong interface.
    WrongInterface {
        /// Interface the spec requires.
        expected: Direction,
        /// Interface the NF used.
        got: Direction,
    },
    /// A rewritten field differs from what Fig. 6 prescribes.
    FieldMismatch {
        /// Which field (for diagnostics).
        field: &'static str,
        /// Expected value (numeric form).
        expected: u64,
        /// Observed value.
        got: u64,
    },
    /// A freshly allocated external port violates its constraints
    /// (zero, or already in use by another flow).
    BadPortAllocation {
        /// The offending port.
        port: u16,
        /// Why it is rejected.
        reason: &'static str,
    },
    /// A freshly allocated external endpoint lies outside the NAT's
    /// configured address pool.
    BadEndpointAllocation {
        /// The offending address (raw u32 form).
        ip: u32,
        /// The offending port.
        port: u16,
    },
    /// Internal bookkeeping failure — indicates a bug in the spec
    /// client, not the NF (e.g. feeding packets out of time order).
    StateError(&'static str),
}

impl core::fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecViolation::ShouldForward { fid } => {
                write!(f, "spec requires forwarding flow {fid}, NF dropped")
            }
            SpecViolation::ShouldDrop => write!(f, "spec requires a drop, NF forwarded"),
            SpecViolation::WrongInterface { expected, got } => {
                write!(f, "forwarded on {got:?}, spec requires {expected:?}")
            }
            SpecViolation::FieldMismatch {
                field,
                expected,
                got,
            } => {
                write!(f, "field {field}: expected {expected:#x}, got {got:#x}")
            }
            SpecViolation::BadPortAllocation { port, reason } => {
                write!(f, "bad external port {port}: {reason}")
            }
            SpecViolation::BadEndpointAllocation { ip, port } => {
                write!(
                    f,
                    "external endpoint {}:{port} outside the configured pool",
                    vig_packet::Ip4(*ip)
                )
            }
            SpecViolation::StateError(m) => write!(f, "spec-state error: {m}"),
        }
    }
}

impl std::error::Error for SpecViolation {}

/// The concrete [`SpecState`]: [`AbstractNat`] answers every query, and
/// the observed output supplies the one free choice — the endpoint of a
/// new mapping.
struct Observed<'a> {
    nat: &'a mut AbstractNat,
    output: &'a Output,
    domain: Concrete,
}

fn flow_id(t: &Tuple<Concrete>) -> FlowId {
    let ((src_ip, src_port), (dst_ip, dst_port)) = (t.src, t.dst);
    FlowId {
        src_ip: Ip4(src_ip),
        src_port,
        dst_ip: Ip4(dst_ip),
        dst_port,
        proto: t.proto,
    }
}

impl Decider<Concrete> for Observed<'_> {
    type Error = SpecViolation;
    fn domain(&mut self) -> &mut Concrete {
        &mut self.domain
    }
    fn branch(&mut self, cond: bool) -> Result<bool, SpecViolation> {
        Ok(cond)
    }
}

impl SpecState<Concrete> for Observed<'_> {
    fn expire(&mut self, now: &u64) -> Result<(), SpecViolation> {
        self.nat.expire_flows(Time(*now));
        Ok(())
    }

    fn lookup(
        &mut self,
        dir: Direction,
        key: &Tuple<Concrete>,
    ) -> Result<Option<Mapping<Concrete>>, SpecViolation> {
        let k = flow_id(key);
        let flow = match dir {
            Direction::Internal => self.nat.lookup_internal(&k),
            Direction::External => self.nat.lookup_external(&ExtKey {
                ext_ip: k.src_ip,
                ext_port: k.src_port,
                dst_ip: k.dst_ip,
                dst_port: k.dst_port,
                proto: k.proto,
            }),
        };
        Ok(flow.map(|f| Mapping {
            int: (f.fid.src_ip.raw(), f.fid.src_port),
            ext: (f.ext_ip.raw(), f.ext_port),
        }))
    }

    fn is_full(&mut self) -> Result<bool, SpecViolation> {
        Ok(self.nat.is_full())
    }

    fn free_endpoint(&mut self, fid: &Tuple<Concrete>) -> Result<(u32, u16), SpecViolation> {
        let Output::Forward { fields, .. } = self.output else {
            return Err(SpecViolation::ShouldForward { fid: flow_id(fid) });
        };
        let (ip, port) = (fields.src_ip, fields.src_port);
        if self.nat.endpoint_in_use(ip, port) {
            return Err(insert_violation(InsertError::EndpointInUse(ip, port)));
        }
        Ok((ip.raw(), port))
    }

    fn insert(
        &mut self,
        fid: &Tuple<Concrete>,
        &(ip, port): &(u32, u16),
        now: &u64,
        tcp_flags: &u8,
    ) -> Result<(), SpecViolation> {
        self.nat
            .insert_with_flags(flow_id(fid), Ip4(ip), port, Time(*now), *tcp_flags)
            .map_err(insert_violation)
    }

    fn refresh(
        &mut self,
        fid: &Tuple<Concrete>,
        now: &u64,
        dir: Direction,
        tcp_flags: &u8,
    ) -> Result<(), SpecViolation> {
        let fid = flow_id(fid);
        if self.nat.refresh_with(&fid, Time(*now), dir, *tcp_flags) {
            return Ok(());
        }
        Err(SpecViolation::StateError("refresh of matched flow failed"))
    }
}

/// Why the NF's endpoint for a new mapping breaks the spec.
fn insert_violation(e: InsertError) -> SpecViolation {
    match e {
        InsertError::PortZero => SpecViolation::BadPortAllocation {
            port: 0,
            reason: "port zero",
        },
        InsertError::EndpointInUse(_, port) => SpecViolation::BadPortAllocation {
            port,
            reason: "endpoint already allocated to another flow",
        },
        InsertError::EndpointOutsidePool(ip, port) => {
            SpecViolation::BadEndpointAllocation { ip: ip.raw(), port }
        }
        InsertError::TableFull => SpecViolation::StateError("insert into full table"),
        InsertError::DuplicateFlowId => SpecViolation::StateError("duplicate fid on insert"),
    }
}

/// One step of the relation, in place: run [`decide`] on `nat` and
/// compare its verdict with `observed`.
fn step(
    nat: &mut AbstractNat,
    input: &PacketInput,
    now: Time,
    observed: &Output,
) -> Result<(), SpecViolation> {
    let cfg = *nat.config();
    let mut state = Observed {
        nat,
        output: observed,
        domain: Concrete,
    };
    let required = decide(&cfg, &mut state, &input.frame(), &now.nanos())?;
    let (iface, hdr, got, fields) = match (required, observed) {
        (None, Output::Drop) => return Ok(()),
        (None, Output::Forward { .. }) => return Err(SpecViolation::ShouldDrop),
        (Some((_, hdr)), Output::Drop) => {
            return Err(SpecViolation::ShouldForward { fid: flow_id(&hdr) });
        }
        (Some((iface, hdr)), Output::Forward { iface: got, fields }) => (iface, hdr, *got, fields),
    };
    if iface != got {
        return Err(SpecViolation::WrongInterface {
            expected: iface,
            got,
        });
    }
    let want = flow_id(&hdr);
    let ip = |a: Ip4| u64::from(a.raw());
    for (field, expected, got) in [
        ("src_ip", ip(want.src_ip), ip(fields.src_ip)),
        ("dst_ip", ip(want.dst_ip), ip(fields.dst_ip)),
        ("src_port", want.src_port.into(), fields.src_port.into()),
        ("dst_port", want.dst_port.into(), fields.dst_port.into()),
        (
            "proto",
            want.proto.number().into(),
            fields.proto.number().into(),
        ),
    ] {
        if expected != got {
            return Err(SpecViolation::FieldMismatch {
                field,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// The Fig. 6 relation: does `observed` conform to RFC 3022 for packet
/// `input` arriving at `now` in state `pre`? On success, returns the
/// implied post-state.
pub fn step_allows(
    pre: &AbstractNat,
    input: &PacketInput,
    now: Time,
    observed: &Output,
) -> Result<AbstractNat, SpecViolation> {
    let mut post = pre.clone();
    step(&mut post, input, now, observed)?;
    Ok(post)
}

/// Trace-level spec checking: steps the abstract state one packet at a
/// time, in place. The first violation is sticky (subsequent calls keep
/// returning it, and the state is not stepped again) so a long
/// differential run reports the earliest divergence.
#[derive(Debug, Clone)]
pub struct SpecChecker {
    state: AbstractNat,
    last_time: Time,
    steps: u64,
    violation: Option<(u64, SpecViolation)>,
}

impl SpecChecker {
    /// Start checking from an empty NAT.
    pub fn new(config: NatConfig) -> SpecChecker {
        SpecChecker {
            state: AbstractNat::new(config),
            last_time: Time::ZERO,
            steps: 0,
            violation: None,
        }
    }

    /// The abstract state the spec believes the NAT is in.
    pub fn state(&self) -> &AbstractNat {
        &self.state
    }

    /// Packets checked so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The first violation, if any, with the 0-based step it occurred at.
    pub fn violation(&self) -> Option<&(u64, SpecViolation)> {
        self.violation.as_ref()
    }

    /// Check one observed step. Time must be non-decreasing across calls.
    pub fn observe(
        &mut self,
        input: &PacketInput,
        now: Time,
        output: &Output,
    ) -> Result<(), SpecViolation> {
        if let Some((_, v)) = &self.violation {
            return Err(v.clone());
        }
        let checked = if now < self.last_time {
            Err(SpecViolation::StateError("time went backwards in trace"))
        } else {
            self.last_time = now;
            step(&mut self.state, input, now, output)
        };
        match checked {
            Ok(()) => {
                self.steps += 1;
                Ok(())
            }
            Err(v) => {
                self.violation = Some((self.steps, v.clone()));
                Err(v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NatConfig;
    use vig_packet::{Ip4, Proto};

    const EXT_IP: Ip4 = Ip4::new(10, 1, 0, 1);

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 2,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: EXT_IP,
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    fn internal_pkt(host: u8, sport: u16) -> PacketInput {
        PacketInput {
            dir: Direction::Internal,
            fields: FlowFields {
                src_ip: Ip4::new(192, 168, 0, host),
                dst_ip: Ip4::new(1, 1, 1, 1),
                src_port: sport,
                dst_port: 80,
                proto: Proto::Tcp,
            },
            tcp_flags: 0,
        }
    }

    fn return_pkt(ext_port: u16) -> PacketInput {
        PacketInput {
            dir: Direction::External,
            fields: FlowFields {
                src_ip: Ip4::new(1, 1, 1, 1),
                dst_ip: EXT_IP,
                src_port: 80,
                dst_port: ext_port,
                proto: Proto::Tcp,
            },
            tcp_flags: 0,
        }
    }

    fn fwd_ext(src_port: u16, input: &PacketInput) -> Output {
        Output::Forward {
            iface: Direction::External,
            fields: FlowFields {
                src_ip: EXT_IP,
                src_port,
                dst_ip: input.fields.dst_ip,
                dst_port: input.fields.dst_port,
                proto: input.fields.proto,
            },
        }
    }

    #[test]
    fn new_internal_flow_is_translated() {
        let pre = AbstractNat::new(cfg());
        let input = internal_pkt(5, 4000);
        let post = step_allows(&pre, &input, Time::from_secs(1), &fwd_ext(1000, &input)).unwrap();
        assert_eq!(post.len(), 1);
        assert_eq!(post.flows()[0].ext_port, 1000);
    }

    #[test]
    fn dropping_a_translatable_packet_violates() {
        let pre = AbstractNat::new(cfg());
        let input = internal_pkt(5, 4000);
        let err = step_allows(&pre, &input, Time::from_secs(1), &Output::Drop).unwrap_err();
        assert!(matches!(err, SpecViolation::ShouldForward { .. }));
    }

    #[test]
    fn repeated_packet_must_reuse_port() {
        let pre = AbstractNat::new(cfg());
        let input = internal_pkt(5, 4000);
        let mid = step_allows(&pre, &input, Time::from_secs(1), &fwd_ext(1000, &input)).unwrap();
        // same flow again: must use the same port, any other is a violation
        assert!(step_allows(&mid, &input, Time::from_secs(2), &fwd_ext(1000, &input)).is_ok());
        let err =
            step_allows(&mid, &input, Time::from_secs(2), &fwd_ext(1001, &input)).unwrap_err();
        assert!(matches!(
            err,
            SpecViolation::FieldMismatch {
                field: "src_port",
                ..
            }
        ));
    }

    #[test]
    fn port_reuse_across_flows_violates() {
        let pre = AbstractNat::new(cfg());
        let a = internal_pkt(5, 4000);
        let mid = step_allows(&pre, &a, Time::from_secs(1), &fwd_ext(1000, &a)).unwrap();
        let b = internal_pkt(6, 4000);
        let err = step_allows(&mid, &b, Time::from_secs(2), &fwd_ext(1000, &b)).unwrap_err();
        assert!(matches!(
            err,
            SpecViolation::BadPortAllocation { port: 1000, .. }
        ));
    }

    #[test]
    fn return_traffic_is_reverse_translated() {
        let pre = AbstractNat::new(cfg());
        let out = internal_pkt(5, 4000);
        let mid = step_allows(&pre, &out, Time::from_secs(1), &fwd_ext(1000, &out)).unwrap();
        let back = return_pkt(1000);
        let expected = Output::Forward {
            iface: Direction::Internal,
            fields: FlowFields {
                src_ip: Ip4::new(1, 1, 1, 1),
                src_port: 80,
                dst_ip: Ip4::new(192, 168, 0, 5),
                dst_port: 4000,
                proto: Proto::Tcp,
            },
        };
        step_allows(&mid, &back, Time::from_secs(2), &expected).unwrap();
    }

    #[test]
    fn unsolicited_external_packet_must_drop() {
        let pre = AbstractNat::new(cfg());
        let back = return_pkt(1000);
        assert!(step_allows(&pre, &back, Time::from_secs(1), &Output::Drop).is_ok());
        let err = step_allows(
            &pre,
            &back,
            Time::from_secs(1),
            &Output::Forward {
                iface: Direction::Internal,
                fields: back.fields,
            },
        )
        .unwrap_err();
        assert_eq!(err, SpecViolation::ShouldDrop);
    }

    #[test]
    fn full_table_drops_new_flows_but_serves_old() {
        let pre = AbstractNat::new(cfg());
        let a = internal_pkt(1, 1);
        let b = internal_pkt(2, 2);
        let s1 = step_allows(&pre, &a, Time::from_secs(1), &fwd_ext(1000, &a)).unwrap();
        let s2 = step_allows(&s1, &b, Time::from_secs(1), &fwd_ext(1001, &b)).unwrap();
        assert!(s2.is_full());
        let c = internal_pkt(3, 3);
        assert!(step_allows(&s2, &c, Time::from_secs(2), &Output::Drop).is_ok());
        // old flow still translates
        assert!(step_allows(&s2, &a, Time::from_secs(2), &fwd_ext(1000, &a)).is_ok());
    }

    #[test]
    fn expiry_frees_capacity_and_kills_translation() {
        let pre = AbstractNat::new(cfg());
        let a = internal_pkt(1, 1);
        let s1 = step_allows(&pre, &a, Time::from_secs(1), &fwd_ext(1000, &a)).unwrap();
        // at t=11s the flow (stamped 1s, Texp=10s) is dead: its return
        // packet must now be dropped...
        let back = return_pkt(1000);
        assert!(step_allows(&s1, &back, Time::from_secs(11), &Output::Drop).is_ok());
        // ...and the same internal packet is a *new* flow, free to get a
        // new port.
        let s2 = step_allows(&s1, &a, Time::from_secs(11), &fwd_ext(1007, &a)).unwrap();
        assert_eq!(s2.flows()[0].ext_port, 1007);
    }

    #[test]
    fn wrong_interface_is_flagged() {
        let pre = AbstractNat::new(cfg());
        let input = internal_pkt(5, 4000);
        let out = Output::Forward {
            iface: Direction::Internal, // should be External
            fields: fwd_fields(&input),
        };
        fn fwd_fields(i: &PacketInput) -> FlowFields {
            FlowFields {
                src_ip: EXT_IP,
                src_port: 1000,
                dst_ip: i.fields.dst_ip,
                dst_port: i.fields.dst_port,
                proto: i.fields.proto,
            }
        }
        let err = step_allows(&pre, &input, Time::from_secs(1), &out).unwrap_err();
        assert!(matches!(err, SpecViolation::WrongInterface { .. }));
    }

    #[test]
    fn checker_reports_first_violation_and_sticks() {
        let mut chk = SpecChecker::new(cfg());
        let a = internal_pkt(1, 1);
        chk.observe(&a, Time::from_secs(1), &fwd_ext(1000, &a))
            .unwrap();
        assert!(chk.observe(&a, Time::from_secs(2), &Output::Drop).is_err());
        let (step, _) = chk.violation().unwrap().clone();
        assert_eq!(step, 1);
        // sticky
        assert!(chk
            .observe(&a, Time::from_secs(3), &fwd_ext(1000, &a))
            .is_err());
    }

    #[test]
    fn checker_rejects_time_reversal() {
        let mut chk = SpecChecker::new(cfg());
        let a = internal_pkt(1, 1);
        chk.observe(&a, Time::from_secs(5), &fwd_ext(1000, &a))
            .unwrap();
        let err = chk
            .observe(&a, Time::from_secs(4), &fwd_ext(1000, &a))
            .unwrap_err();
        assert!(matches!(err, SpecViolation::StateError(_)));
    }

    #[test]
    fn tcp_lifetimes_follow_the_tracker_through_the_relation() {
        // Transitory 2s, established 30s, UDP 10s.
        let c = NatConfig {
            tcp_transitory_ns: Time::from_secs(2).nanos(),
            tcp_established_ns: Time::from_secs(30).nanos(),
            ..cfg()
        };
        use vig_packet::tcp::flags;
        let pre = AbstractNat::new(c);
        let mut syn = internal_pkt(5, 4000);
        syn.tcp_flags = flags::SYN;
        let s = step_allows(&pre, &syn, Time::from_secs(1), &fwd_ext(1000, &syn)).unwrap();
        // Half-open: dies on the transitory timer. The SYN-ACK at 2s
        // must still translate (stamped 1s, dead only at 3s)...
        let mut synack = return_pkt(1000);
        synack.tcp_flags = flags::SYN | flags::ACK;
        let back_fields = FlowFields {
            src_ip: Ip4::new(1, 1, 1, 1),
            src_port: 80,
            dst_ip: Ip4::new(192, 168, 0, 5),
            dst_port: 4000,
            proto: Proto::Tcp,
        };
        let fwd_back = Output::Forward {
            iface: Direction::Internal,
            fields: back_fields,
        };
        let s = step_allows(&s, &synack, Time::from_secs(2), &fwd_back).unwrap();
        // ...and the handshake ACK establishes: the flow now survives
        // far past the transitory horizon.
        let mut ack = internal_pkt(5, 4000);
        ack.tcp_flags = flags::ACK;
        let s = step_allows(&s, &ack, Time::from_secs(3), &fwd_ext(1000, &ack)).unwrap();
        assert_eq!(
            s.flows()[0].tcp_state,
            Some(crate::tcp::TcpState::Established)
        );
        // At 20s (17s idle > 2s transitory) the established flow still
        // translates; a half-open one would be long dead.
        assert!(step_allows(&s, &ack, Time::from_secs(20), &fwd_ext(1000, &ack)).is_ok());
        // An RST demotes it; 2s later it no longer translates and the
        // same 5-tuple is a fresh flow.
        let mut rst = internal_pkt(5, 4000);
        rst.tcp_flags = flags::RST;
        let s = step_allows(&s, &rst, Time::from_secs(21), &fwd_ext(1000, &rst)).unwrap();
        let s2 = step_allows(&s, &ack, Time::from_secs(23), &fwd_ext(1009, &ack)).unwrap();
        assert_eq!(s2.flows()[0].ext_port, 1009);
    }

    #[test]
    fn eim_maps_by_internal_endpoint_alone() {
        let c = NatConfig { eim: true, ..cfg() };
        let pre = AbstractNat::new(c);
        // Host 5:4000 talks to 1.1.1.1:80...
        let a = internal_pkt(5, 4000);
        let s = step_allows(&pre, &a, Time::from_secs(1), &fwd_ext(1000, &a)).unwrap();
        assert_eq!(s.len(), 1);
        // ...then to a different remote: SAME mapping, same port — and
        // a different port is a FieldMismatch, not a fresh allocation.
        let mut b = internal_pkt(5, 4000);
        b.fields.dst_ip = Ip4::new(2, 2, 2, 2);
        b.fields.dst_port = 443;
        let s = step_allows(&s, &b, Time::from_secs(2), &fwd_ext(1000, &b)).unwrap();
        assert_eq!(s.len(), 1, "EIM: one mapping per internal endpoint");
        assert!(matches!(
            step_allows(&s, &b, Time::from_secs(2), &fwd_ext(1001, &b)).unwrap_err(),
            SpecViolation::FieldMismatch {
                field: "src_port",
                ..
            }
        ));
        // Full-cone: an unsolicited remote the host never contacted
        // reaches it through the mapping.
        let stranger = PacketInput {
            dir: Direction::External,
            fields: FlowFields {
                src_ip: Ip4::new(9, 9, 9, 9),
                src_port: 1234,
                dst_ip: EXT_IP,
                dst_port: 1000,
                proto: Proto::Tcp,
            },
            tcp_flags: 0,
        };
        let deliver = Output::Forward {
            iface: Direction::Internal,
            fields: FlowFields {
                src_ip: Ip4::new(9, 9, 9, 9),
                src_port: 1234,
                dst_ip: Ip4::new(192, 168, 0, 5),
                dst_port: 4000,
                proto: Proto::Tcp,
            },
        };
        step_allows(&s, &stranger, Time::from_secs(3), &deliver).unwrap();
    }

    #[test]
    fn without_eim_distinct_remotes_are_distinct_flows() {
        let pre = AbstractNat::new(cfg());
        let a = internal_pkt(5, 4000);
        let s = step_allows(&pre, &a, Time::from_secs(1), &fwd_ext(1000, &a)).unwrap();
        let mut b = internal_pkt(5, 4000);
        b.fields.dst_ip = Ip4::new(2, 2, 2, 2);
        let s = step_allows(&s, &b, Time::from_secs(2), &fwd_ext(1001, &b)).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hairpin_reaches_the_mapped_internal_host() {
        let c = NatConfig {
            capacity: 3,
            eim: true,
            hairpinning: true,
            ..cfg()
        };
        let pre = AbstractNat::new(c);
        // Host 7 opens a mapping (the hairpin target).
        let a = internal_pkt(7, 4000);
        let s = step_allows(&pre, &a, Time::from_secs(1), &fwd_ext(1000, &a)).unwrap();
        // Host 5 sends to the pool endpoint EXT_IP:1000. The NAT must
        // allocate host 5 a mapping (NF picks 1001) and deliver back
        // inside: src = host 5's external endpoint, dst = host 7.
        let hairpin = PacketInput {
            dir: Direction::Internal,
            fields: FlowFields {
                src_ip: Ip4::new(192, 168, 0, 5),
                src_port: 5000,
                dst_ip: EXT_IP,
                dst_port: 1000,
                proto: Proto::Tcp,
            },
            tcp_flags: 0,
        };
        let delivered = Output::Forward {
            iface: Direction::Internal,
            fields: FlowFields {
                src_ip: EXT_IP,
                src_port: 1001,
                dst_ip: Ip4::new(192, 168, 0, 7),
                dst_port: 4000,
                proto: Proto::Tcp,
            },
        };
        let s = step_allows(&s, &hairpin, Time::from_secs(2), &delivered).unwrap();
        assert_eq!(s.len(), 2, "hairpin created the sender's mapping");
        // Dropping a resolvable hairpin packet violates the spec.
        assert!(matches!(
            step_allows(&s, &hairpin, Time::from_secs(3), &Output::Drop).unwrap_err(),
            SpecViolation::ShouldForward { .. }
        ));
        // A pool endpoint nobody owns is unroutable: must drop.
        // (Port 1002 is inside the 3-slot pool but unallocated; a port
        // outside the pool entirely would take the normal outbound
        // path instead.)
        let dangling = PacketInput {
            fields: FlowFields {
                dst_port: 1002,
                ..hairpin.fields
            },
            ..hairpin
        };
        assert!(step_allows(&s, &dangling, Time::from_secs(3), &Output::Drop).is_ok());
        let err = step_allows(&s, &dangling, Time::from_secs(3), &delivered).unwrap_err();
        assert_eq!(err, SpecViolation::ShouldDrop);
    }

    #[test]
    fn udp_and_tcp_flows_are_distinct() {
        let pre = AbstractNat::new(cfg());
        let mut tcp = internal_pkt(1, 1);
        let s1 = step_allows(&pre, &tcp, Time::from_secs(1), &fwd_ext(1000, &tcp)).unwrap();
        tcp.fields.proto = Proto::Udp;
        let udp = tcp;
        // same 4-tuple, different proto: a distinct flow needing a port
        let s2 = step_allows(&s1, &udp, Time::from_secs(1), &fwd_ext(1001, &udp)).unwrap();
        assert_eq!(s2.len(), 2);
    }
}
