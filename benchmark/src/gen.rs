//! The tester: seeded traffic, per-workload schedules, and the output
//! oracle.
//!
//! Every frame is 64 bytes and carries its flow index as a 4-byte tag
//! in the L4 payload, which the NAT never touches; the oracle reads the
//! tag off each reaped frame to find the expectation it must meet. The
//! DUT sees only generated frames — seed, schedule and expectations
//! stay on this side.

use netsim::backend::TesterIo;
use netsim::tester::shuffled_indices;
use vig_packet::checksum::{self, Checksum};
use vig_packet::tcp::flags;
use vig_packet::{parse_l3l4, Direction, FlowId, Ip4, PacketBuilder, Proto};
use vig_spec::NatConfig;

use crate::stats::Rng;

/// Frame size: the paper's minimum-size frames (FCS not counted, as
/// everywhere in this repository).
pub const FRAME_LEN: usize = 64;
/// Frames in flight per window.
pub const WINDOW: usize = 64;
/// Internal→external frames per window; the rest arrive externally.
pub const WINDOW_INT: usize = 48;
/// Virtual nanoseconds per staged packet (the committed churn bench's
/// constant: 4 Mpps offered in virtual time).
pub const DT_NS: u64 = 250;

/// The one remote service every flow talks to.
pub const REMOTE_IP: Ip4 = Ip4::new(1, 1, 1, 1);
/// Its port.
pub const REMOTE_PORT: u16 = 80;
/// Source of the unsolicited external frames (never a flow's remote,
/// so no mapping can match them whatever port they probe).
pub const SCANNER_IP: Ip4 = Ip4::new(198, 51, 100, 7);
/// Tag carried by scanner frames: no flow has this index.
pub const SCAN_TAG: u32 = u32::MAX;

/// One prebuilt frame.
pub type Frame = [u8; FRAME_LEN];

/// What a window item is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// Internal→external frame of `flow`; must be forwarded translated.
    Int,
    /// External→internal reply to `flow`; must be forwarded restored.
    Ret,
    /// Unsolicited external frame; must be dropped. `flow` holds the
    /// probed port (low 16 bits) and the protocol (bit 16 set = TCP).
    Scan,
}

/// One frame of a window plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Flow index (or scan parameters, see [`ItemKind::Scan`]).
    pub flow: u32,
    /// Role.
    pub kind: ItemKind,
    /// TCP flag byte (ignored on UDP flows).
    pub flags: u8,
}

impl Item {
    /// The port the frame arrives on.
    pub fn dir(&self) -> Direction {
        match self.kind {
            ItemKind::Int => Direction::Internal,
            ItemKind::Ret | ItemKind::Scan => Direction::External,
        }
    }

    fn int(flow: u32, flags: u8) -> Item {
        Item {
            flow,
            kind: ItemKind::Int,
            flags,
        }
    }

    fn ret(flow: u32, flags: u8) -> Item {
        Item {
            flow,
            kind: ItemKind::Ret,
            flags,
        }
    }
}

/// The internal endpoint of flow `i` (distinct per flow, i < 2^24).
pub fn flow_endpoint(i: u32) -> (Ip4, u16) {
    debug_assert!(i < (1 << 24));
    (Ip4(0x0a00_0000 | i), 10_000 + (i % 40_000) as u16)
}

/// A frame of `len` bytes from `src` to `dst` carrying `tag` as its
/// L4 payload (the rest is padding behind the IP datagram).
pub fn tagged_frame(
    proto: Proto,
    src: (Ip4, u16),
    dst: (Ip4, u16),
    tag: u32,
    len: usize,
) -> PacketBuilder {
    let b = match proto {
        Proto::Tcp => PacketBuilder::tcp(src.0, dst.0, src.1, dst.1),
        Proto::Udp => PacketBuilder::udp(src.0, dst.0, src.1, dst.1),
    };
    b.payload(&tag.to_be_bytes()).pad_to(len)
}

fn build(proto: Proto, src: (Ip4, u16), dst: (Ip4, u16), tag: u32, out: &mut [u8]) -> usize {
    tagged_frame(proto, src, dst, tag, FRAME_LEN)
        .build_into(out)
        .expect("buffer holds a 64-byte frame")
}

/// Replace the flag byte of a 20-byte-IP-header TCP frame, keeping the
/// TCP checksum valid (RFC 1624 on the one changed word).
fn set_tcp_flags(frame: &mut [u8], new_flags: u8) {
    const WORD: usize = 34 + 12; // data offset + flags
    const CSUM: usize = 34 + 16;
    let old = u16::from_be_bytes([frame[WORD], frame[WORD + 1]]);
    let new = (old & 0xff00) | u16::from(new_flags);
    let csum = Checksum::from_field(u16::from_be_bytes([frame[CSUM], frame[CSUM + 1]]))
        .update_u16(old, new)
        .to_field();
    frame[WORD..WORD + 2].copy_from_slice(&new.to_be_bytes());
    frame[CSUM..CSUM + 2].copy_from_slice(&csum.to_be_bytes());
}

/// Unmatched elements between two multisets (sorts both): expected
/// frames that never came out plus frames that came out unexpected.
pub fn multiset_diff(a: &mut [u32], b: &mut [u32]) -> u64 {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                diff += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                diff += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Frame store plus oracle. See module docs.
pub struct Tester {
    cfg: NatConfig,
    int_frames: Vec<Frame>,
    /// Reply frames, valid once the flow's mapping is learned.
    ext_frames: Vec<Frame>,
    /// Learned external endpoint per flow: `ip << 16 | port`, 0 while
    /// unknown (no pool address is 0.0.0.0).
    learned: Vec<u64>,
    /// Expected / observed output tags per output port
    /// (`[external, internal]`), for the window in flight.
    want: [Vec<u32>; 2],
    seen: [Vec<u32>; 2],
    /// Packets offered to the DUT.
    pub attempted: u64,
    /// Packets refused at `stage`, given the wrong verdict, or
    /// forwarded with wrong bytes.
    pub failed: u64,
    /// `staged = forwarded + dropped` held on every window so far.
    pub conservation_ok: bool,
}

fn out_index(out: Direction) -> usize {
    match out {
        Direction::External => 0,
        Direction::Internal => 1,
    }
}

impl Tester {
    /// Prebuild the internal frames of `flows` flows; protocol per flow
    /// is a seeded coin (half TCP with ACK set, half UDP).
    pub fn new(cfg: NatConfig, flows: usize, seed: u64) -> Tester {
        let mut rng = Rng::new(seed, 1);
        let int_frames = (0..flows as u32)
            .map(|i| {
                let proto = if rng.next_u64() & 1 == 0 {
                    Proto::Tcp
                } else {
                    Proto::Udp
                };
                let mut f = [0u8; FRAME_LEN];
                build(proto, flow_endpoint(i), (REMOTE_IP, REMOTE_PORT), i, &mut f);
                f
            })
            .collect();
        Tester {
            cfg,
            int_frames,
            ext_frames: vec![[0u8; FRAME_LEN]; flows],
            learned: vec![0; flows],
            want: [Vec::with_capacity(WINDOW), Vec::with_capacity(WINDOW)],
            seen: [Vec::with_capacity(WINDOW), Vec::with_capacity(WINDOW)],
            attempted: 0,
            failed: 0,
            conservation_ok: true,
        }
    }

    /// Number of flows in the universe.
    pub fn flows(&self) -> usize {
        self.int_frames.len()
    }

    /// Flow `i`'s protocol.
    pub fn proto(&self, flow: u32) -> Proto {
        if self.int_frames[flow as usize][23] == Proto::Tcp.number() {
            Proto::Tcp
        } else {
            Proto::Udp
        }
    }

    /// Flow `i`'s internal-side key, as the flow table stores it.
    pub fn fid(&self, flow: u32) -> FlowId {
        let (src_ip, src_port) = flow_endpoint(flow);
        FlowId {
            src_ip,
            src_port,
            dst_ip: REMOTE_IP,
            dst_port: REMOTE_PORT,
            proto: self.proto(flow),
        }
    }

    /// The prebuilt internal frame of `flow`.
    pub fn int_frame(&self, flow: u32) -> &Frame {
        &self.int_frames[flow as usize]
    }

    /// The reply frame of `flow` (meaningful once learned).
    pub fn ext_frame(&self, flow: u32) -> &Frame {
        &self.ext_frames[flow as usize]
    }

    /// The external endpoint learned for `flow`, if any.
    pub fn learned(&self, flow: u32) -> Option<(Ip4, u16)> {
        match self.learned[flow as usize] {
            0 => None,
            ep => Some((Ip4((ep >> 16) as u32), ep as u16)),
        }
    }

    /// Forget `flow`'s mapping: it is about to be opened afresh.
    pub fn forget(&mut self, flow: u32) {
        self.learned[flow as usize] = 0;
    }

    /// Overwrite `flow`'s learned mapping (tests corrupt expectations
    /// through this to prove the oracle notices).
    #[cfg(test)]
    pub fn set_learned(&mut self, flow: u32, ip: Ip4, port: u16) {
        self.learned[flow as usize] = u64::from(ip.raw()) << 16 | u64::from(port);
    }

    /// Write `item`'s frame into `buf`; returns its length. Only
    /// copies (plus a flag-byte patch on TCP), except for scanner
    /// frames, which are built on the spot from the item's port.
    pub fn write_item(&self, item: &Item, buf: &mut [u8]) -> usize {
        let frame = match item.kind {
            ItemKind::Int => self.int_frame(item.flow),
            ItemKind::Ret => {
                debug_assert!(self.learned(item.flow).is_some(), "reply before mapping");
                self.ext_frame(item.flow)
            }
            ItemKind::Scan => {
                let proto = if item.flow >> 16 != 0 {
                    Proto::Tcp
                } else {
                    Proto::Udp
                };
                let dst = (self.cfg.external_ip, item.flow as u16);
                return build(proto, (SCANNER_IP, 4444), dst, SCAN_TAG, buf);
            }
        };
        buf[..FRAME_LEN].copy_from_slice(frame);
        if frame[23] == Proto::Tcp.number() && item.flags != flags::ACK {
            set_tcp_flags(&mut buf[..FRAME_LEN], item.flags);
        }
        FRAME_LEN
    }

    /// Check one frame the DUT sent out of port `out`. Returns the
    /// frame's tag (if readable) and whether everything about the frame
    /// is right: it parses, both checksums verify, and its addresses
    /// are the translation (or restoration) of the tagged flow — for a
    /// flow's first packet, *any* endpoint of the pool, which is then
    /// remembered and demanded from every later packet.
    pub fn verify(&mut self, out: Direction, f: &[u8]) -> (Option<u32>, bool) {
        let Ok((off, ff)) = parse_l3l4(f) else {
            return (None, false);
        };
        let hdr = match ff.proto {
            Proto::Tcp => vig_packet::TCP_MIN_HEADER_LEN,
            Proto::Udp => vig_packet::UDP_HEADER_LEN,
        };
        let l4_end = off.l3 + usize::from(u16::from_be_bytes([f[16], f[17]]));
        let tag_at = off.l4 + hdr;
        if l4_end > f.len() || tag_at + 4 > l4_end {
            return (None, false);
        }
        let tag = u32::from_be_bytes([f[tag_at], f[tag_at + 1], f[tag_at + 2], f[tag_at + 3]]);
        if tag as usize >= self.flows() {
            return (Some(tag), false); // a scanner frame got through
        }
        let l4 = &f[off.l4..l4_end];
        let pseudo = checksum::pseudo_header_sum(
            ff.src_ip.raw(),
            ff.dst_ip.raw(),
            ff.proto.number(),
            l4.len() as u16,
        );
        let sums_ok = checksum::checksum(&f[off.l3..off.l4]) == 0
            && !checksum::fold(checksum::sum_words(l4, pseudo)) == 0;
        let addr_ok = match out {
            Direction::External => {
                let ep = u64::from(ff.src_ip.raw()) << 16 | u64::from(ff.src_port);
                let known = self.learned[tag as usize];
                let map_ok = if known != 0 {
                    known == ep
                } else if self.cfg.pool_contains(ff.src_ip, ff.src_port) {
                    self.learned[tag as usize] = ep;
                    build(
                        ff.proto,
                        (REMOTE_IP, REMOTE_PORT),
                        (ff.src_ip, ff.src_port),
                        tag,
                        &mut self.ext_frames[tag as usize],
                    );
                    true
                } else {
                    false
                };
                map_ok && (ff.dst_ip, ff.dst_port) == (REMOTE_IP, REMOTE_PORT)
            }
            Direction::Internal => {
                (ff.dst_ip, ff.dst_port) == flow_endpoint(tag)
                    && (ff.src_ip, ff.src_port) == (REMOTE_IP, REMOTE_PORT)
            }
        };
        (Some(tag), sums_ok && addr_ok && ff.proto == self.proto(tag))
    }

    /// Record what `plan` must produce and count it as attempted.
    pub fn begin_window(&mut self, plan: &[Item]) {
        for w in self.want.iter_mut().chain(self.seen.iter_mut()) {
            w.clear();
        }
        for it in plan {
            match it.kind {
                ItemKind::Int => self.want[0].push(it.flow),
                ItemKind::Ret => self.want[1].push(it.flow),
                ItemKind::Scan => {}
            }
        }
        self.attempted += plan.len() as u64;
    }

    /// One frame came out of port `out`: verify it and note its tag.
    pub fn observe(&mut self, out: Direction, frame: &[u8]) {
        let (tag, ok) = self.verify(out, frame);
        match tag {
            Some(tag) => {
                self.seen[out_index(out)].push(tag);
                // A frame that fails to identify itself is counted once,
                // as the expected frame that never showed up.
                self.failed += u64::from(!ok);
            }
            None => debug_assert!(!ok),
        }
    }

    /// Close the window: every expected frame came out exactly once,
    /// nothing else did, and `refused` frames never got in.
    pub fn end_window(&mut self, refused: u64) {
        let [want_ext, want_int] = &mut self.want;
        let [seen_ext, seen_int] = &mut self.seen;
        self.failed +=
            refused + multiset_diff(want_ext, seen_ext) + multiset_diff(want_int, seen_int);
    }
}

/// Stage `plan` into a backend; returns how many frames it refused.
pub fn stage_plan<B: TesterIo>(io: &mut B, t: &Tester, plan: &[Item]) -> u64 {
    plan.iter()
        .filter(|it| io.stage(it.dir(), |b| t.write_item(it, b)).is_none())
        .count() as u64
}

/// Flows the churn schedule keeps alive by refreshes (tuned so that,
/// with the lingering retired flows, the 65,535-slot table sits at
/// 92–93 %; see the README's sizing note).
pub const CHURN_ACTIVE: usize = 48_600;
/// Flow universe the churn schedule recycles through: a retired flow
/// returns only after ~213k other flows opened (427 ms of virtual
/// time, far beyond every lifetime), so a re-opened flow is a new one
/// to the NAT.
pub const CHURN_UNIVERSE: usize = 1 << 18;
/// New flows (and retirements) per window: 1 packet in 8.
pub const CHURN_NEW: usize = 8;
/// Refresh touches per window, of which [`CHURN_RET`] are replies.
pub const CHURN_TOUCH: usize = 44;
/// Replies per window.
pub const CHURN_RET: usize = 12;
/// Scanner frames per window: 1 packet in 16.
pub const CHURN_SCAN: usize = 4;

#[derive(Debug, Clone, Copy)]
struct RingEntry {
    flow: u32,
    synack_sent: bool,
}

/// The steady-state churn schedule: a ring of live flows, oldest
/// retired as new ones open, the rest refreshed round-robin.
#[derive(Debug)]
pub struct Churn {
    ring: Vec<RingEntry>,
    active: usize,
    head: usize,
    cur: usize,
    universe: Vec<u32>,
    next_new: usize,
    rng: Rng,
}

impl Churn {
    fn new(active: usize, universe: usize, seed: u64) -> Churn {
        assert!(active >= WINDOW && universe >= 4 * active);
        Churn {
            ring: Vec::with_capacity(active),
            active,
            head: 0,
            cur: 0,
            universe: shuffled_indices(universe, seed),
            next_new: 0,
            rng: Rng::new(seed, 3),
        }
    }

    fn open(&mut self, t: &mut Tester) -> u32 {
        let f = self.universe[self.next_new % self.universe.len()];
        self.next_new += 1;
        t.forget(f);
        f
    }

    fn window(&mut self, t: &mut Tester, plan: &mut Vec<Item>) {
        if self.ring.len() < self.active {
            // Fill: one window of fresh flows (SYN on the TCP ones).
            for _ in 0..WINDOW.min(self.active - self.ring.len()) {
                let flow = self.open(t);
                self.ring.push(RingEntry {
                    flow,
                    synack_sent: false,
                });
                plan.push(Item::int(flow, flags::SYN));
            }
            return;
        }
        for _ in 0..CHURN_NEW {
            // Retire the oldest: a seeded FIN or RST moves a TCP flow
            // to the transitory wheel; a UDP flow just sends its last
            // datagram. Its ring slot goes to a fresh flow.
            let last_flags = if self.rng.next_u64() & 1 == 0 {
                flags::FIN | flags::ACK
            } else {
                flags::RST
            };
            plan.push(Item::int(self.ring[self.head].flow, last_flags));
            let flow = self.open(t);
            self.ring[self.head] = RingEntry {
                flow,
                synack_sent: false,
            };
            plan.push(Item::int(flow, flags::SYN));
            self.head = (self.head + 1) % self.active;
        }
        let mut replies = 0;
        for _ in 0..CHURN_TOUCH {
            let e = &mut self.ring[self.cur];
            self.cur = (self.cur + 1) % self.active;
            // A flow opened in this very window has no mapping yet and
            // can only be touched from inside.
            if replies < CHURN_RET && t.learned(e.flow).is_some() {
                replies += 1;
                let f = if e.synack_sent {
                    flags::ACK
                } else {
                    flags::SYN | flags::ACK
                };
                e.synack_sent = true;
                plan.push(Item::ret(e.flow, f));
            } else {
                plan.push(Item::int(e.flow, flags::ACK));
            }
        }
        for _ in 0..CHURN_SCAN {
            let port = 1 + self.rng.below(65_535) as u32;
            let tcp = (self.rng.next_u64() & 1) as u32;
            plan.push(Item {
                flow: tcp << 16 | port,
                kind: ItemKind::Scan,
                flags: flags::SYN,
            });
        }
    }
}

/// Which flows each window carries. One per workload.
#[derive(Debug)]
pub enum Schedule {
    /// `order` walked cyclically: 48 internal frames from one cursor,
    /// 16 replies from a second one half a lap ahead.
    Cyclic {
        /// The flow order (identity for `hits-resident`, a seeded
        /// permutation for `hits-large`).
        order: Vec<u32>,
        /// Next internal flow.
        int_cur: usize,
        /// Next replied-to flow.
        ret_cur: usize,
        /// Flows populated so far (set-up walks `order` once).
        populated: usize,
    },
    /// See [`Churn`].
    Churn(Churn),
}

impl Schedule {
    /// `flows` resident flows in index order.
    pub fn round_robin(flows: usize) -> Schedule {
        Schedule::cyclic((0..flows as u32).collect())
    }

    /// `flows` resident flows in a seeded uniform-random order.
    pub fn permuted(flows: usize, seed: u64) -> Schedule {
        Schedule::cyclic(shuffled_indices(flows, seed))
    }

    fn cyclic(order: Vec<u32>) -> Schedule {
        assert!(order.len() >= WINDOW);
        Schedule::Cyclic {
            ret_cur: order.len() / 2,
            order,
            int_cur: 0,
            populated: 0,
        }
    }

    /// The churn schedule at its benchmark size.
    pub fn churn(seed: u64) -> Schedule {
        Schedule::Churn(Churn::new(CHURN_ACTIVE, CHURN_UNIVERSE, seed))
    }

    /// A churn schedule of another size (tests).
    #[cfg(test)]
    pub fn churn_sized(active: usize, universe: usize, seed: u64) -> Schedule {
        Schedule::Churn(Churn::new(active, universe, seed))
    }

    /// Flows the tester must hold frames for.
    pub fn universe(&self) -> usize {
        match self {
            Schedule::Cyclic { order, .. } => order.len(),
            Schedule::Churn(c) => c.universe.len(),
        }
    }

    /// Whether set-up still has flows to open.
    pub fn populating(&self) -> bool {
        match self {
            Schedule::Cyclic {
                order, populated, ..
            } => *populated < order.len(),
            Schedule::Churn(c) => c.ring.len() < c.active,
        }
    }

    /// Fill `plan` with the next window. While [`Schedule::populating`]
    /// that is a window of first packets (internal only); afterwards
    /// the workload's steady-state mix.
    pub fn next_window(&mut self, t: &mut Tester, plan: &mut Vec<Item>) {
        plan.clear();
        match self {
            Schedule::Cyclic {
                order,
                int_cur,
                ret_cur,
                populated,
            } => {
                if *populated < order.len() {
                    let end = (*populated + WINDOW).min(order.len());
                    plan.extend((*populated..end).map(|i| Item::int(i as u32, flags::ACK)));
                    *populated = end;
                    return;
                }
                for _ in 0..WINDOW_INT {
                    plan.push(Item::int(order[*int_cur], flags::ACK));
                    *int_cur = (*int_cur + 1) % order.len();
                }
                for _ in WINDOW_INT..WINDOW {
                    plan.push(Item::ret(order[*ret_cur], flags::ACK));
                    *ret_cur = (*ret_cur + 1) % order.len();
                }
            }
            Schedule::Churn(c) => c.window(t, plan),
        }
    }

    /// The flows resident right now, in the order the schedule will
    /// visit them (what the ladder replays against the lower layers).
    pub fn resident_order(&self) -> Vec<u32> {
        match self {
            Schedule::Cyclic { order, int_cur, .. } => {
                let mut v = order[*int_cur..].to_vec();
                v.extend_from_slice(&order[..*int_cur]);
                v
            }
            Schedule::Churn(c) => (0..c.ring.len())
                .map(|k| c.ring[(c.cur + k) % c.ring.len()].flow)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NatConfig {
        crate::workload::Kind::HitsResident.cfg()
    }

    #[test]
    fn frames_are_valid_64_byte_packets_with_their_tag() {
        let t = Tester::new(cfg(), 100, 9);
        let mut protos = [0usize; 2];
        for i in 0..100u32 {
            let f = t.int_frame(i);
            let (off, ff) = parse_l3l4(f).expect("parses");
            assert_eq!((ff.src_ip, ff.src_port), flow_endpoint(i));
            assert_eq!((ff.dst_ip, ff.dst_port), (REMOTE_IP, REMOTE_PORT));
            protos[usize::from(ff.proto == Proto::Tcp)] += 1;
            let hdr = if ff.proto == Proto::Tcp { 20 } else { 8 };
            assert_eq!(f[off.l4 + hdr..off.l4 + hdr + 4], i.to_be_bytes());
        }
        assert!(
            protos[0] > 25 && protos[1] > 25,
            "roughly half each: {protos:?}"
        );
    }

    #[test]
    fn flag_patch_keeps_the_tcp_checksum_valid() {
        let t = Tester::new(cfg(), 64, 1);
        let tcp = (0..64).find(|&i| t.proto(i) == Proto::Tcp).unwrap();
        for fl in [flags::SYN, flags::FIN | flags::ACK, flags::RST] {
            let mut buf = [0u8; 2048];
            let n = t.write_item(&Item::int(tcp, fl), &mut buf);
            let f = &buf[..n];
            assert_eq!(f[47], fl);
            let (off, ff) = parse_l3l4(f).unwrap();
            let l4 = &f[off.l4..14 + usize::from(u16::from_be_bytes([f[16], f[17]]))];
            let pseudo =
                checksum::pseudo_header_sum(ff.src_ip.raw(), ff.dst_ip.raw(), 6, l4.len() as u16);
            assert_eq!(!checksum::fold(checksum::sum_words(l4, pseudo)), 0);
        }
    }

    #[test]
    fn same_seed_same_frames_and_order_other_seed_differs() {
        let stream = |seed: u64| {
            let mut t = Tester::new(cfg(), 4096, seed);
            let mut s = Schedule::permuted(4096, seed);
            let mut plan = Vec::new();
            let mut bytes = Vec::new();
            let mut buf = [0u8; 2048];
            // Give every flow a mapping so replies can be written.
            for i in 0..4096u32 {
                t.set_learned(i, Ip4::new(203, 0, 113, 1), 1 + i as u16);
            }
            for _ in 0..200 {
                s.next_window(&mut t, &mut plan);
                for it in &plan {
                    if it.kind == ItemKind::Int {
                        let n = t.write_item(it, &mut buf);
                        bytes.extend_from_slice(&buf[..n]);
                    }
                }
            }
            bytes
        };
        let (a, b, c) = (stream(11), stream(11), stream(12));
        assert_eq!(a, b, "same seed: byte-identical frame stream");
        assert_ne!(a, c, "different seed: different order");
    }

    #[test]
    fn multiset_diff_counts_missing_and_unexpected() {
        assert_eq!(multiset_diff(&mut [3, 1, 2], &mut [2, 3, 1]), 0);
        assert_eq!(multiset_diff(&mut [1, 2, 3], &mut [1, 3]), 1);
        assert_eq!(multiset_diff(&mut [1, 1], &mut [1]), 1);
        assert_eq!(multiset_diff(&mut [1], &mut [2]), 2);
        assert_eq!(multiset_diff(&mut [], &mut [7, 7]), 2);
    }

    #[test]
    fn churn_window_has_the_documented_mix() {
        let mut s = Schedule::churn_sized(640, 4096, 5);
        let mut t = Tester::new(cfg(), s.universe(), 5);
        let mut plan = Vec::new();
        while s.populating() {
            s.next_window(&mut t, &mut plan);
            assert!(plan
                .iter()
                .all(|i| i.kind == ItemKind::Int && i.flags == flags::SYN));
            for it in &plan {
                t.set_learned(it.flow, Ip4::new(203, 0, 113, 1), 1 + it.flow as u16);
            }
        }
        s.next_window(&mut t, &mut plan);
        let count = |k| plan.iter().filter(|i| i.kind == k).count();
        assert_eq!(plan.len(), WINDOW);
        assert_eq!(count(ItemKind::Int), WINDOW_INT);
        assert_eq!(count(ItemKind::Ret), CHURN_RET);
        assert_eq!(count(ItemKind::Scan), CHURN_SCAN);
        let syns = plan
            .iter()
            .filter(|i| i.kind == ItemKind::Int && i.flags == flags::SYN);
        assert_eq!(syns.count(), CHURN_NEW);
    }
}
