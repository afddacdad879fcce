//! The Linux NetFilter NAT analog (paper §6, NF "c").
//!
//! The paper's third comparison point is the kernel's NAT: NetFilter
//! with masquerade rules, which lands at 0.6 Mpps against the DPDK NATs'
//! ~2 Mpps. The slowdown is structural, not incidental, and this analog
//! reproduces its structural sources as *real executed code*:
//!
//! * **skb handling** — the kernel allocates an skb and copies the frame
//!   out of the DMA ring (DPDK NFs process in place). We allocate and
//!   copy per packet, then copy back.
//! * **generic conntrack** — connection lookup by 5-tuple through
//!   `std::collections::HashMap` with SipHash (the kernel's jhash +
//!   generic tuple machinery vs. the NATs' specialized tables), with
//!   **two** tuple entries per connection (original + reply direction),
//!   as conntrack keeps.
//! * **rule-list walk** — an iptables-style chain is evaluated per
//!   packet that needs a NAT decision; we walk a representative chain of
//!   non-matching rules before the masquerade rule matches.
//! * **timer bookkeeping** — conntrack re-arms a timeout on every packet;
//!   we maintain a `BTreeMap` timer tree with remove+insert per packet.
//!   The re-armed duration is **per-class**, as the kernel's
//!   `nf_conntrack_tcp_timeout_*` sysctls make it: each TCP connection
//!   carries a state-machine state (`vig_spec::tcp`), every segment
//!   steps it *before* the timer is re-armed, and the deadline is
//!   `now + lifetime(class(state))` — established connections get the
//!   long timeout, half-open/closing ones the short transitory timeout,
//!   UDP its own. With a homogeneous config all classes collapse to
//!   `Texp` and the pre-TCP behaviour is preserved bit for bit.
//! * **router duties** — a packet whose TTL would expire (≤ 1) is
//!   dropped where `ip_forward` drops it: after conntrack has seen it
//!   (an established connection's timer is re-armed) and before
//!   POSTROUTING would confirm a new connection, so none is created.
//!   Every forwarded packet has its TTL decremented with a checksum
//!   fixup (a NAT box in the kernel is a router; DPDK NATs in the
//!   paper do not route).
//!
//! The frame is parsed with `vig_packet::parse_l3l4` and rewritten with
//! `vig_packet::header::{rewrite, decrement_ttl}`, the codec the
//! verified datapath writes through too.
//!
//! Masquerade port selection follows the kernel: keep the original
//! source port when free, otherwise scan the configured range. The
//! observable behaviour still satisfies RFC 3022 (the differential
//! tests check this NAT against the same spec as VigNAT).

use libvig::time::Time;
use netsim::middlebox::{Middlebox, Verdict};
use std::collections::{BTreeMap, HashMap, HashSet};
use vig_packet::{header, parse_l3l4, Direction, FlowId, Proto};
use vig_spec::tcp::{class_of, initial_state, transition, TcpState};
use vig_spec::NatConfig;

/// A normalized conntrack tuple (as-seen packet 5-tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Tuple {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    proto: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hand {
    Orig,
    Reply,
}

#[derive(Debug, Clone)]
struct Conn {
    fid: FlowId,
    ext_port: u16,
    deadline: u64,
    /// TCP tracker state (`None` for non-TCP connections); selects the
    /// timeout class the next re-arm uses.
    tcp: Option<TcpState>,
}

/// An iptables-style rule: match fields, then a target. Only the last
/// rule (masquerade) matters semantically; the others model chain-walk
/// cost and never match the evaluation traffic.
#[derive(Debug, Clone)]
struct Rule {
    match_proto: Option<u8>,
    match_dst_port: Option<u16>,
    match_src_prefix: Option<(u32, u32)>, // (value, mask)
    is_masquerade: bool,
}

impl Rule {
    fn matches(&self, t: &Tuple) -> bool {
        if let Some(p) = self.match_proto {
            if p != t.proto {
                return false;
            }
        }
        if let Some(dp) = self.match_dst_port {
            if dp != t.dst_port {
                return false;
            }
        }
        if let Some((v, m)) = self.match_src_prefix {
            if t.src_ip & m != v {
                return false;
            }
        }
        true
    }
}

/// A FIB entry: destination prefix, mask, egress ifindex.
#[derive(Debug, Clone, Copy)]
struct FibRoute {
    prefix: u32,
    mask: u32,
    ifindex: u8,
}

/// The NetFilter-analog NAT. See module docs.
pub struct NetfilterNat {
    cfg: NatConfig,
    conns: HashMap<Tuple, (usize, Hand)>,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    timers: BTreeMap<(u64, usize), ()>,
    used_ports: HashSet<u16>,
    next_port_hint: u16,
    rules: Vec<Rule>,
    /// filter-table FORWARD chain, walked for every forwarded packet
    /// (the kernel evaluates it even for ESTABLISHED traffic).
    forward_chain: Vec<Rule>,
    /// Routing table, longest-prefix matched per packet (the kernel's
    /// fib_lookup on the forwarding path).
    fib: Vec<FibRoute>,
    skb: Vec<u8>,
    expired_total: u64,
    len: usize,
}

impl NetfilterNat {
    /// Build with the shared configuration surface. The conntrack size
    /// and timeout come from `cfg` so all NATs play by identical rules.
    pub fn new(cfg: NatConfig) -> NetfilterNat {
        vignat::loop_body::check_config(&cfg).expect("invalid NAT configuration");
        // A representative filter/nat chain: several specific rules that
        // the evaluation traffic never matches, then MASQUERADE.
        let rules = vec![
            Rule {
                match_proto: Some(6),
                match_dst_port: Some(22),
                match_src_prefix: None,
                is_masquerade: false,
            },
            Rule {
                match_proto: Some(6),
                match_dst_port: Some(25),
                match_src_prefix: None,
                is_masquerade: false,
            },
            Rule {
                match_proto: Some(17),
                match_dst_port: Some(69),
                match_src_prefix: None,
                is_masquerade: false,
            },
            Rule {
                match_proto: None,
                match_dst_port: None,
                match_src_prefix: Some((0xc0a8_6400, 0xffff_ff00)), // 192.168.100.0/24
                is_masquerade: false,
            },
            Rule {
                match_proto: Some(6),
                match_dst_port: Some(445),
                match_src_prefix: None,
                is_masquerade: false,
            },
            Rule {
                match_proto: None,
                match_dst_port: None,
                match_src_prefix: None,
                is_masquerade: true,
            },
        ];
        // filter FORWARD chain: conntrack-state shortcuts aside, the
        // kernel walks this for every forwarded packet. Representative
        // small-router chain: a few drops that never match, then ACCEPT.
        let forward_chain = vec![
            Rule {
                match_proto: Some(6),
                match_dst_port: Some(23),
                match_src_prefix: None,
                is_masquerade: false,
            },
            Rule {
                match_proto: Some(17),
                match_dst_port: Some(161),
                match_src_prefix: None,
                is_masquerade: false,
            },
            Rule {
                match_proto: None,
                match_dst_port: None,
                match_src_prefix: Some((0xe000_0000, 0xf000_0000)), // multicast
                is_masquerade: false,
            },
            Rule {
                match_proto: None,
                match_dst_port: None,
                match_src_prefix: None,
                is_masquerade: true, // stands in for ACCEPT
            },
        ];
        // A small-office routing table: connected nets, a few static
        // routes, default route last (matched by longest prefix).
        let mut fib = Vec::new();
        for i in 0..12u32 {
            fib.push(FibRoute {
                prefix: 0x0a00_0000 | (i << 16), // 10.i.0.0/16
                mask: 0xffff_0000,
                ifindex: (i % 4) as u8,
            });
        }
        fib.push(FibRoute {
            prefix: 0xc0a8_0000,
            mask: 0xffff_0000,
            ifindex: 1,
        }); // 192.168/16
        fib.push(FibRoute {
            prefix: 0,
            mask: 0,
            ifindex: 2,
        }); // default
        NetfilterNat {
            conns: HashMap::new(),
            slab: (0..cfg.capacity).map(|_| None).collect(),
            free: (0..cfg.capacity).rev().collect(),
            timers: BTreeMap::new(),
            used_ports: HashSet::new(),
            next_port_hint: cfg.start_port,
            rules,
            forward_chain,
            fib,
            skb: Vec::new(),
            expired_total: 0,
            len: 0,
            cfg,
        }
    }

    /// Longest-prefix-match route lookup (linear scan, as small-router
    /// tries degenerate to). Returns the egress ifindex.
    fn fib_lookup(&self, dst: u32) -> u8 {
        let mut best_len: i32 = -1;
        let mut best_if = 0u8;
        for r in &self.fib {
            if dst & r.mask == r.prefix && (r.mask.count_ones() as i32) > best_len {
                best_len = r.mask.count_ones() as i32;
                best_if = r.ifindex;
            }
        }
        best_if
    }

    /// Walk the filter FORWARD chain; `true` = accepted.
    fn forward_allowed(&self, t: &Tuple) -> bool {
        for rule in &self.forward_chain {
            if rule.matches(t) {
                return rule.is_masquerade; // ACCEPT sentinel
            }
        }
        false
    }

    /// Live connection count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the conntrack table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total expired connections.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    fn orig_tuple(fid: &FlowId) -> Tuple {
        Tuple {
            src_ip: fid.src_ip.raw(),
            dst_ip: fid.dst_ip.raw(),
            src_port: fid.src_port,
            dst_port: fid.dst_port,
            proto: fid.proto.number(),
        }
    }

    fn reply_tuple(&self, fid: &FlowId, ext_port: u16) -> Tuple {
        Tuple {
            src_ip: fid.dst_ip.raw(),
            dst_ip: self.cfg.external_ip.raw(),
            src_port: fid.dst_port,
            dst_port: ext_port,
            proto: fid.proto.number(),
        }
    }

    fn expire(&mut self, now: Time) {
        while let Some((&(deadline, idx), ())) = self.timers.iter().next() {
            if deadline > now.nanos() {
                break;
            }
            self.timers.remove(&(deadline, idx));
            let conn = self.slab[idx].take().expect("timer points at live conn");
            self.conns.remove(&Self::orig_tuple(&conn.fid));
            self.conns
                .remove(&self.reply_tuple(&conn.fid, conn.ext_port));
            self.used_ports.remove(&conn.ext_port);
            self.free.push(idx);
            self.len -= 1;
            self.expired_total += 1;
        }
    }

    /// Step the TCP tracker for a segment seen from `dir` carrying
    /// `tcp_flags`, then re-arm the timer with the (possibly new)
    /// class's lifetime — conntrack's per-state timeout re-arm.
    fn rearm(&mut self, idx: usize, now: Time, dir: Direction, tcp_flags: u8) {
        let old = self.slab[idx].as_ref().unwrap().deadline;
        self.timers.remove(&(old, idx));
        let conn = self.slab[idx].as_mut().unwrap();
        if let Some(st) = conn.tcp {
            conn.tcp = Some(transition(st, dir, tcp_flags));
        }
        let lifetime = self.cfg.lifetime_ns(class_of(conn.fid.proto, conn.tcp));
        let new = now.nanos().saturating_add(lifetime);
        self.slab[idx].as_mut().unwrap().deadline = new;
        self.timers.insert((new, idx), ());
    }

    fn pick_port(&mut self, preferred: u16) -> Option<u16> {
        let in_range = |p: u16| {
            p >= self.cfg.start_port
                && (p as usize) < self.cfg.start_port as usize + self.cfg.capacity
        };
        // Kernel behaviour: keep the original source port when possible.
        if preferred != 0 && !self.used_ports.contains(&preferred) {
            return Some(preferred);
        }
        // Otherwise scan the range from a rotating hint.
        let span = self.cfg.capacity as u32;
        let mut p = self.next_port_hint;
        for _ in 0..span {
            if !in_range(p) {
                p = self.cfg.start_port;
            }
            if !self.used_ports.contains(&p) {
                self.next_port_hint = if in_range(p + 1) {
                    p + 1
                } else {
                    self.cfg.start_port
                };
                return Some(p);
            }
            p = p.wrapping_add(1);
        }
        None
    }

    fn new_conn(&mut self, fid: FlowId, now: Time, tcp_flags: u8) -> Option<u16> {
        let idx = self.free.pop()?;
        let Some(port) = self.pick_port(fid.src_port) else {
            self.free.push(idx);
            return None;
        };
        self.used_ports.insert(port);
        let tcp = (fid.proto == Proto::Tcp).then(|| initial_state(tcp_flags));
        let deadline = now
            .nanos()
            .saturating_add(self.cfg.lifetime_ns(class_of(fid.proto, tcp)));
        self.slab[idx] = Some(Conn {
            fid,
            ext_port: port,
            deadline,
            tcp,
        });
        self.timers.insert((deadline, idx), ());
        self.conns.insert(Self::orig_tuple(&fid), (idx, Hand::Orig));
        self.conns
            .insert(self.reply_tuple(&fid, port), (idx, Hand::Reply));
        self.len += 1;
        Some(port)
    }
}

impl Middlebox for NetfilterNat {
    fn name(&self) -> &'static str {
        "Linux NAT"
    }

    fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict {
        // --- kernel path: allocate an skb and copy the frame in -------
        let mut skb = core::mem::take(&mut self.skb);
        skb.clear();
        skb.extend_from_slice(frame);

        self.expire(now);

        let verdict = (|skb: &mut Vec<u8>, this: &mut Self| -> Verdict {
            let Ok((off, ff)) = parse_l3l4(skb) else {
                return Verdict::Drop;
            };
            // The TCP flag byte steers conntrack's per-state timeout.
            let tcp_flags = if ff.proto == Proto::Tcp {
                skb[off.l4 + header::TCP_FLAGS]
            } else {
                0
            };
            let tuple = Tuple {
                src_ip: ff.src_ip.raw(),
                dst_ip: ff.dst_ip.raw(),
                src_port: ff.src_port,
                dst_port: ff.dst_port,
                proto: ff.proto.number(),
            };
            // Routing decision + filter FORWARD chain: the kernel pays
            // both for every forwarded packet, ESTABLISHED or NEW.
            let ifindex = std::hint::black_box(this.fib_lookup(tuple.dst_ip));
            let _ = ifindex;
            if !this.forward_allowed(&tuple) {
                return Verdict::Drop;
            }
            // A TTL that would expire drops where ip_forward drops it:
            // after conntrack has seen the packet (an established
            // connection is re-armed below), before POSTROUTING would
            // confirm a new one.
            let ttl_expires = header::rd8(skb, header::IP_TTL) <= 1;
            // conntrack lookup (established connections bypass the NAT chain)
            let hit = this.conns.get(&tuple).copied();
            let ((src_ip, src_port), (dst_ip, dst_port), out) = match (dir, hit) {
                (Direction::Internal, Some((idx, Hand::Orig))) => {
                    this.rearm(idx, now, Direction::Internal, tcp_flags);
                    let port = this.slab[idx].as_ref().unwrap().ext_port;
                    (
                        (this.cfg.external_ip, port),
                        (ff.dst_ip, ff.dst_port),
                        Direction::External,
                    )
                }
                (Direction::External, Some((idx, Hand::Reply))) => {
                    this.rearm(idx, now, Direction::External, tcp_flags);
                    let c = this.slab[idx].as_ref().unwrap();
                    (
                        (ff.src_ip, ff.src_port),
                        (c.fid.src_ip, c.fid.src_port),
                        Direction::Internal,
                    )
                }
                (Direction::Internal, None) => {
                    // NEW connection: walk the NAT chain.
                    let mut masq = false;
                    for rule in &this.rules {
                        if rule.matches(&tuple) {
                            masq = rule.is_masquerade;
                            break;
                        }
                    }
                    if !masq || ttl_expires {
                        return Verdict::Drop;
                    }
                    let fid = FlowId {
                        src_ip: ff.src_ip,
                        src_port: ff.src_port,
                        dst_ip: ff.dst_ip,
                        dst_port: ff.dst_port,
                        proto: ff.proto,
                    };
                    let Some(port) = this.new_conn(fid, now, tcp_flags) else {
                        return Verdict::Drop; // conntrack table full
                    };
                    (
                        (this.cfg.external_ip, port),
                        (ff.dst_ip, ff.dst_port),
                        Direction::External,
                    )
                }
                // Unsolicited from outside, or a tuple matched from the
                // wrong direction (e.g. a spoofed packet replaying the
                // orig tuple from outside): drop.
                _ => return Verdict::Drop,
            };
            if ttl_expires {
                return Verdict::Drop;
            }
            header::rewrite(skb, src_ip.raw(), src_port, dst_ip.raw(), dst_port);
            header::decrement_ttl(skb);
            Verdict::Forward(out)
        })(&mut skb, self);

        // --- kernel path: copy the skb back out ------------------------
        if matches!(verdict, Verdict::Forward(_)) {
            frame[..skb.len()].copy_from_slice(&skb);
        }
        self.skb = skb;
        verdict
    }

    fn occupancy(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::builder::PacketBuilder;
    use vig_packet::Ip4;

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 8,
            expiry_ns: Time::from_secs(2).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 3000,
            ..NatConfig::paper_default()
        }
    }

    #[test]
    fn masquerade_keeps_original_port_when_free() {
        let mut nat = NetfilterNat::new(cfg());
        let mut f =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 1), Ip4::new(9, 9, 9, 9), 5555, 53).build();
        assert_eq!(
            nat.process(Direction::Internal, &mut f, Time::from_secs(1)),
            Verdict::Forward(Direction::External)
        );
        let (_, out) = parse_l3l4(&f).unwrap();
        assert_eq!(
            out.src_port, 5555,
            "kernel masquerade keeps the source port"
        );
        assert_eq!(out.src_ip, Ip4::new(10, 1, 0, 1));
    }

    #[test]
    fn port_conflict_falls_back_to_range() {
        let mut nat = NetfilterNat::new(cfg());
        let mut a =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 1), Ip4::new(9, 9, 9, 9), 5555, 53).build();
        nat.process(Direction::Internal, &mut a, Time::from_secs(1));
        // second host, same source port: must get a different port
        let mut b =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 2), Ip4::new(9, 9, 9, 9), 5555, 53).build();
        nat.process(Direction::Internal, &mut b, Time::from_secs(1));
        let (_, outb) = parse_l3l4(&b).unwrap();
        assert_ne!(outb.src_port, 5555);
        assert!((3000..3008).contains(&outb.src_port));
    }

    #[test]
    fn reply_path_and_ttl() {
        let mut nat = NetfilterNat::new(cfg());
        let mut out = PacketBuilder::tcp(Ip4::new(192, 168, 0, 1), Ip4::new(9, 9, 9, 9), 4000, 80)
            .ttl(64)
            .build();
        nat.process(Direction::Internal, &mut out, Time::from_secs(1));
        assert_eq!(
            header::rd8(&out, header::IP_TTL),
            63,
            "router decrements TTL"
        );
        assert!(header::ipv4_checksum_ok(&out));
        let (_, of) = parse_l3l4(&out).unwrap();

        let mut back =
            PacketBuilder::tcp(Ip4::new(9, 9, 9, 9), Ip4::new(10, 1, 0, 1), 80, of.src_port)
                .build();
        assert_eq!(
            nat.process(Direction::External, &mut back, Time::from_secs(1)),
            Verdict::Forward(Direction::Internal)
        );
        let (_, bf) = parse_l3l4(&back).unwrap();
        assert_eq!(bf.dst_ip, Ip4::new(192, 168, 0, 1));
        assert_eq!(bf.dst_port, 4000);
    }

    #[test]
    fn unsolicited_external_dropped_and_table_full_drops() {
        let mut nat = NetfilterNat::new(cfg());
        let mut stray =
            PacketBuilder::udp(Ip4::new(9, 9, 9, 9), Ip4::new(10, 1, 0, 1), 53, 3000).build();
        assert_eq!(
            nat.process(Direction::External, &mut stray, Time::from_secs(1)),
            Verdict::Drop
        );

        for h in 0..8u8 {
            let mut f =
                PacketBuilder::udp(Ip4::new(192, 168, 1, h), Ip4::new(9, 9, 9, 9), 100, 53).build();
            assert_eq!(
                nat.process(Direction::Internal, &mut f, Time::from_secs(1)),
                Verdict::Forward(Direction::External)
            );
        }
        let mut f9 =
            PacketBuilder::udp(Ip4::new(192, 168, 2, 1), Ip4::new(9, 9, 9, 9), 100, 53).build();
        assert_eq!(
            nat.process(Direction::Internal, &mut f9, Time::from_secs(1)),
            Verdict::Drop,
            "conntrack table full"
        );
    }

    #[test]
    fn tcp_lifetimes_per_state() {
        use vig_packet::tcp::flags;
        let c = NatConfig {
            tcp_transitory_ns: Time::from_secs(2).nanos(),
            tcp_established_ns: Time::from_secs(60).nanos(),
            ..cfg()
        };
        let mut nat = NetfilterNat::new(c);
        let lan = |h: u8| Ip4::new(192, 168, 0, h);
        let wan = Ip4::new(9, 9, 9, 9);

        // Conn A: half-open (SYN only) — transitory, dies at t+2.
        let mut syn = PacketBuilder::tcp(lan(1), wan, 4000, 80)
            .tcp_flags(flags::SYN)
            .build();
        nat.process(Direction::Internal, &mut syn, Time::from_secs(1));

        // Conn B: full handshake — established, lives until t+60.
        let mut syn2 = PacketBuilder::tcp(lan(2), wan, 4000, 80)
            .tcp_flags(flags::SYN)
            .build();
        nat.process(Direction::Internal, &mut syn2, Time::from_secs(1));
        let (_, of) = parse_l3l4(&syn2).unwrap();
        let mut synack = PacketBuilder::tcp(wan, Ip4::new(10, 1, 0, 1), 80, of.src_port)
            .tcp_flags(flags::SYN | flags::ACK)
            .build();
        nat.process(Direction::External, &mut synack, Time::from_secs(1));
        let mut ack = PacketBuilder::tcp(lan(2), wan, 4000, 80)
            .tcp_flags(flags::ACK)
            .build();
        nat.process(Direction::Internal, &mut ack, Time::from_secs(1));
        assert_eq!(nat.len(), 2);

        // t=5: past transitory, inside established. Only A dies.
        let mut tick = PacketBuilder::udp(lan(9), wan, 100, 53).build();
        nat.process(Direction::Internal, &mut tick, Time::from_secs(5));
        assert_eq!(
            nat.expired_total(),
            1,
            "half-open dies at the transitory timeout; established survives"
        );

        // Mid-stream RST demotes B to transitory: dead two seconds on.
        let mut rst = PacketBuilder::tcp(lan(2), wan, 4000, 80)
            .tcp_flags(flags::RST)
            .build();
        nat.process(Direction::Internal, &mut rst, Time::from_secs(5));
        let mut tick2 = PacketBuilder::udp(lan(10), wan, 100, 53).build();
        nat.process(Direction::Internal, &mut tick2, Time::from_secs(9));
        // B (rst'd, deadline 7) and the t=5 UDP tick (deadline 7) died.
        assert_eq!(nat.expired_total(), 3, "RST cuts the established timer");
    }

    /// `ip_forward` drops a TTL that would expire (≤ 1) before
    /// POSTROUTING confirms a connection: a new flow is never created,
    /// and an established one is re-armed, then the packet dropped.
    #[test]
    fn expiring_ttl_drops_without_creating_a_connection() {
        let mut nat = NetfilterNat::new(cfg());
        let lan = Ip4::new(192, 168, 0, 1);
        let wan = Ip4::new(9, 9, 9, 9);
        for ttl in [0, 1] {
            let mut f = PacketBuilder::udp(lan, wan, 5555, 53).ttl(ttl).build();
            assert_eq!(
                nat.process(Direction::Internal, &mut f, Time::from_secs(1)),
                Verdict::Drop,
                "TTL {ttl} must not be forwarded"
            );
            assert_eq!(nat.occupancy(), 0, "TTL {ttl} must not create a connection");
        }

        let mut f = PacketBuilder::udp(lan, wan, 5555, 53).build();
        assert_eq!(
            nat.process(Direction::Internal, &mut f, Time::from_secs(1)),
            Verdict::Forward(Direction::External)
        );
        let mut out = PacketBuilder::udp(lan, wan, 5555, 53).ttl(1).build();
        let sent = out.clone();
        assert_eq!(
            nat.process(Direction::Internal, &mut out, Time::from_secs(2)),
            Verdict::Drop
        );
        assert_eq!(out, sent, "a dropped frame is not rewritten");
        let mut back = PacketBuilder::udp(wan, Ip4::new(10, 1, 0, 1), 53, 5555)
            .ttl(1)
            .build();
        assert_eq!(
            nat.process(Direction::External, &mut back, Time::from_secs(2)),
            Verdict::Drop
        );
        assert_eq!(nat.occupancy(), 1, "the established connection stays");
        // Created at t=1 with a 2 s timeout, re-armed at t=2: still
        // alive at t=3.5.
        let mut tick = PacketBuilder::udp(Ip4::new(192, 168, 0, 2), wan, 1, 53).build();
        nat.process(Direction::Internal, &mut tick, Time::from_millis(3_500));
        assert_eq!(
            nat.expired_total(),
            0,
            "the dropped packets re-armed the timer"
        );
    }

    #[test]
    fn expiry_frees_conns_and_ports() {
        let mut nat = NetfilterNat::new(cfg());
        let mut f =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 1), Ip4::new(9, 9, 9, 9), 5555, 53).build();
        nat.process(Direction::Internal, &mut f, Time::from_secs(1));
        assert_eq!(nat.len(), 1);
        // trigger expiry with another packet after Texp
        let mut g =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 2), Ip4::new(9, 9, 9, 9), 5555, 53).build();
        nat.process(Direction::Internal, &mut g, Time::from_secs(4));
        assert_eq!(nat.expired_total(), 1);
        assert_eq!(nat.len(), 1);
        let (_, gf) = parse_l3l4(&g).unwrap();
        assert_eq!(gf.src_port, 5555, "port freed by expiry is reusable");
    }
}
