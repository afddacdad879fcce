//! The concrete env over real packet bytes, and the RSS classifier.
//!
//! `vignat`'s [`ConcreteEnv`] owns the table half of every concrete run
//! of the loop body; this module supplies the two [`PacketSide`]s of
//! the datapath — one frame ([`FrameEnv`]) and one burst of mempool
//! buffers ([`BurstEnv`]). Both read and write frames through
//! `vig_packet::header`, the workspace's one header codec: header
//! fields are read straight off the frame by `read_rx_fields`
//! (zero-filled where the frame is too short — the loop body's length
//! guards run before any semantic use, a property the symbolic engine
//! checks), and `tx` hands the loop body's rewrite to
//! `header::rewrite`, the same writer the baseline NATs use. The
//! validation ladder guarantees every offset the writer touches lies
//! inside the frame (frame >= 14 + IHL + 20/8); the writer never reads
//! the TCP data offset or UDP length, so it cannot refuse a frame the
//! NAT translates. Both sides borrow everything, so constructing an env
//! costs nothing; with the loop body's fixed-size burst arrays, which
//! the env's batched lookup hands to the flow table's staged probes as
//! they are, a burst through `BurstEnv` allocates nothing
//! (`tests/alloc_free_burst.rs` counts).
//!
//! [`RssClassifier`] reads a frame through the same reader and steers
//! it by the key the loop body will look up, built by the loop body's
//! own key functions.

use crate::dpdk::{BufIdx, Mempool};
use libvig::map::MapKey;
use libvig::time::Time;
use vig_packet::header::{self, rd16, rd32, rd8};
use vig_packet::{Direction, Proto};
use vig_spec::rfc3022::{Frame, Tuple};
use vignat::domain::Concrete;
use vignat::env::concrete::{ConcreteEnv, PacketSide};
use vignat::env::PktHandle;
use vignat::loop_body::{external_key, internal_fid};
use vignat::FlowTable;

/// Read a frame's header fields through the codec — the one place
/// the datapath reads header bytes (both packet sides and the
/// classifier call it). Fields beyond the frame are zero-filled; the
/// loop body's length guards run before any semantic use of them.
#[inline]
pub fn read_rx_fields(f: &[u8], dir: Direction) -> Frame<Concrete> {
    let l4 = header::l4_offset(f);
    Frame {
        dir,
        frame_len: f.len().min(usize::from(u16::MAX)) as u16,
        ethertype: rd16(f, header::ETHERTYPE),
        version_ihl: rd8(f, header::IP_VERSION_IHL),
        total_len: rd16(f, header::IP_TOTAL_LEN),
        frag_field: rd16(f, header::IP_FRAG),
        proto: rd8(f, header::IP_PROTO),
        src_ip: rd32(f, header::IP_SRC),
        dst_ip: rd32(f, header::IP_DST),
        src_port: rd16(f, l4 + header::L4_SRC_PORT),
        dst_port: rd16(f, l4 + header::L4_DST_PORT),
        // `ConcreteEnv::receive` zeroes it for non-TCP frames, and the
        // loop body's ShortL4 guard drops a frame too short to carry it
        // before the tracker sees it.
        tcp_flags: rd8(f, l4 + header::TCP_FLAGS),
    }
}

/// Write the loop body's rewritten header into a frame through the codec.
#[inline]
fn rewrite(frame: &mut [u8], hdr: &Tuple<Concrete>) {
    let ((src_ip, src_port), (dst_ip, dst_port)) = (hdr.src, hdr.dst);
    header::rewrite(frame, src_ip, src_port, dst_ip, dst_port);
}

/// One frame as a [`PacketSide`]: `receive` yields it once, `tx`
/// rewrites it in place. [`FrameEnv::new`] pairs it with a table — the
/// env that serves one burst of one, for one frame.
pub struct FrameEnv<'a> {
    frame: &'a mut [u8],
    dir: Direction,
    delivered: bool,
}

impl<'a> FrameEnv<'a> {
    /// Build the env for one frame arriving on `dir` at `now`, over any
    /// flow table (the unsharded `FlowManager` or `ShardedFlowManager`
    /// — the loop body above is the same either way).
    #[allow(clippy::new_ret_no_self)]
    pub fn new<T: FlowTable>(
        fm: &'a mut T,
        frame: &'a mut [u8],
        dir: Direction,
        now: Time,
    ) -> ConcreteEnv<'a, T, FrameEnv<'a>> {
        let side = FrameEnv {
            frame,
            dir,
            delivered: false,
        };
        ConcreteEnv::new(fm, side, now)
    }
}

impl PacketSide for FrameEnv<'_> {
    #[inline]
    fn receive(&mut self) -> Option<(PktHandle, Frame<Concrete>)> {
        if std::mem::replace(&mut self.delivered, true) {
            return None;
        }
        Some((PktHandle(0), read_rx_fields(self.frame, self.dir)))
    }

    #[inline]
    fn tx(&mut self, _pkt: PktHandle, _out: Direction, hdr: Tuple<Concrete>) {
        rewrite(self.frame, &hdr);
    }

    #[inline]
    fn drop_pkt(&mut self, _pkt: PktHandle) {}
}

/// One RX burst of mempool-resident frames (up to [`vignat::MAX_BURST`]
/// buffers) as a [`PacketSide`]: `receive` yields the staged frames in
/// ring order, handles index `bufs`, `tx` rewrites the buffer in place.
/// What became of each buffer is the [`vignat::IterationOutcome`] the
/// loop body returns for it; the caller routes buffers by that.
/// [`BurstEnv::new`] pairs it with a table — the env
/// [`vignat::nat_process_batch_into`] runs over, whose `lookup_batch`
/// resolves the burst's flow probes through the flow table's staged
/// burst pipeline ([`FlowTable::probe_batch`]).
pub struct BurstEnv<'a> {
    pool: &'a mut Mempool,
    bufs: &'a [BufIdx],
    dir: Direction,
    next_rx: usize,
}

/// Nothing: the burst path keeps its probe buffers on the stack, so
/// [`BurstEnv::new`] ignores the one it is passed. Kept only because a
/// PR that claims a gain may not edit `benchmark/`, whose ladder passes
/// one: the next benchmark PR deletes it and the parameter.
#[derive(Debug, Default, Clone, Copy)]
pub struct BurstScratch;

impl<'a> BurstEnv<'a> {
    /// Build the env for one burst of staged buffers arriving on `dir`
    /// at `now` (`_scratch`: see [`BurstScratch`]).
    #[allow(clippy::new_ret_no_self)]
    pub fn new<T: FlowTable>(
        fm: &'a mut T,
        pool: &'a mut Mempool,
        bufs: &'a [BufIdx],
        dir: Direction,
        now: Time,
        _scratch: &mut BurstScratch,
    ) -> ConcreteEnv<'a, T, BurstEnv<'a>> {
        let side = BurstEnv {
            pool,
            bufs,
            dir,
            next_rx: 0,
        };
        ConcreteEnv::new(fm, side, now)
    }
}

impl PacketSide for BurstEnv<'_> {
    #[inline]
    fn receive(&mut self) -> Option<(PktHandle, Frame<Concrete>)> {
        let i = self.next_rx;
        let &buf = self.bufs.get(i)?;
        self.next_rx += 1;
        Some((PktHandle(i), read_rx_fields(self.pool.frame(buf), self.dir)))
    }

    #[inline]
    fn tx(&mut self, pkt: PktHandle, _out: Direction, hdr: Tuple<Concrete>) {
        rewrite(self.pool.frame_mut(self.bufs[pkt.0]), &hdr);
    }

    #[inline]
    fn drop_pkt(&mut self, _pkt: PktHandle) {}
}

/// The RSS classification function a multi-queue NIC's hash unit
/// computes: frame bytes in, queue index out.
///
/// The queue a frame steers to is the shard of the key the loop body
/// will look up, *because it is computed by the loop body's key
/// functions*: [`RssClassifier::queue_of`] reads the frame with the
/// env's own reader, builds the query with
/// [`vignat::loop_body::internal_fid`] /
/// [`vignat::loop_body::external_key`], and reduces it the way the
/// sharded table routes (`ShardedFlowManager::shard_of_hash` /
/// `shard_of_port`). Whatever key construction canonicalizes —
/// the remote endpoint under `cfg.eim`, the pool address of a
/// single-address pool — therefore steers dispatch by construction.
///
/// * **Internal traffic** routes by [`libvig::rss::shard_of`] over the
///   hash of the internal flow id.
/// * **External (return) traffic** routes by the NAT endpoint-pool
///   partition: queue `q` owns the pool slots
///   `q·slots_per_queue ..` — a translated flow's external
///   `(address, port)` identifies its pool slot, hence its queue,
///   exactly.
/// * Frames carrying no routable flow (non-TCP/UDP, endpoint outside
///   the pool) classify to queue 0; every queue drops them identically,
///   so the choice is unobservable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssClassifier {
    queues: usize,
    cfg: vig_spec::NatConfig,
    slots_per_queue: usize,
}

impl RssClassifier {
    /// Classifier for `queues` queues over the NAT's endpoint pool — the
    /// partition [`vignat::ShardedFlowManager`] would use with `queues`
    /// shards (`cfg.capacity / queues` pool slots per queue).
    pub fn for_nat(cfg: &vig_spec::NatConfig, queues: usize) -> RssClassifier {
        assert!(queues > 0, "need at least one queue");
        let slots_per_queue = cfg.capacity / queues;
        assert!(slots_per_queue > 0, "more queues than pool slots");
        RssClassifier {
            queues,
            cfg: *cfg,
            slots_per_queue,
        }
    }

    /// The classifier matching a sharded flow table's own routing: one
    /// queue per shard, same pool partition.
    pub fn for_table(table: &vignat::ShardedFlowManager) -> RssClassifier {
        RssClassifier {
            queues: table.shard_count(),
            cfg: table.global_cfg(),
            slots_per_queue: table.per_shard_capacity(),
        }
    }

    /// Number of queues this classifier steers across.
    pub fn queue_count(&self) -> usize {
        self.queues
    }

    /// The queue a frame arriving on `dir` steers to. See type docs. With
    /// one queue every frame steers to it, and the frame is not read.
    pub fn queue_of(&self, dir: Direction, frame: &[u8]) -> usize {
        if self.queues == 1 {
            return 0;
        }
        let pkt = read_rx_fields(frame, dir);
        let Some(proto) = Proto::from_number(pkt.proto) else {
            return 0;
        };
        match dir {
            Direction::Internal => {
                let fid = internal_fid(&mut Concrete, &self.cfg, &pkt, proto).flow_id();
                libvig::rss::shard_of(fid.key_hash(), self.queues)
            }
            Direction::External => {
                let ek = external_key(&mut Concrete, &self.cfg, &pkt, proto).ext_key();
                self.cfg
                    .slot_of_endpoint(ek.ext_ip, ek.ext_port)
                    .map(|slot| slot / self.slots_per_queue)
                    .filter(|&queue| queue < self.queues)
                    .unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::{builder::PacketBuilder, parse_l3l4, Ip4};
    use vig_spec::NatConfig;
    use vignat::{nat_process_batch, FlowManager, IterationOutcome};

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 16,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 2000,
            ..NatConfig::paper_default()
        }
    }

    /// One frame through the loop body: a burst of one.
    fn run(fm: &mut FlowManager, frame: &mut [u8], dir: Direction, t: Time) -> IterationOutcome {
        let mut env = FrameEnv::new(fm, frame, dir, t);
        let outcomes = nat_process_batch(&mut env, &cfg());
        assert_eq!(outcomes.len(), 1, "the frame was received once");
        outcomes[0]
    }

    /// A one-queue classifier steers every frame to queue 0 in both
    /// directions: valid, truncated, empty and garbage frames alike.
    #[test]
    fn one_queue_steers_every_frame_to_queue_zero() {
        let rss = RssClassifier::for_nat(&cfg(), 1);
        let tcp =
            PacketBuilder::tcp(Ip4::new(192, 168, 0, 7), Ip4::new(1, 2, 3, 4), 40000, 443).build();
        let udp = PacketBuilder::udp(Ip4::new(8, 8, 8, 8), Ip4::new(10, 1, 0, 1), 53, 2005).build();
        let garbage: Vec<u8> = (0..97u8).map(|b| b.wrapping_mul(151)).collect();
        let frames: [&[u8]; 6] = [&tcp, &udp, &tcp[..20], &udp[..1], &[], &garbage];
        for frame in frames {
            for dir in [Direction::Internal, Direction::External] {
                assert_eq!(
                    rss.queue_of(dir, frame),
                    0,
                    "{dir:?} frame of {}",
                    frame.len()
                );
            }
        }
    }

    #[test]
    fn end_to_end_translation_preserves_checksums_and_payload() {
        let mut fm = FlowManager::new(&cfg());
        let mut frame = PacketBuilder::tcp(
            Ip4::new(192, 168, 0, 7),
            Ip4::new(93, 184, 216, 34),
            40000,
            443,
        )
        .payload(b"GET / HTTP/1.1")
        .build();

        let v = run(&mut fm, &mut frame, Direction::Internal, Time::from_secs(1));
        assert_eq!(v, IterationOutcome::Forwarded(Direction::External));

        // The translated frame must still parse, with rewritten source.
        let (_, ff) = parse_l3l4(&frame).unwrap();
        assert_eq!(ff.src_ip, Ip4::new(10, 1, 0, 1));
        assert_eq!(ff.src_port, 2000, "first slot -> start_port");
        assert_eq!(ff.dst_ip, Ip4::new(93, 184, 216, 34));
        assert_eq!(ff.dst_port, 443);

        // IPv4 checksum still verifies after the incremental update.
        assert!(header::ipv4_checksum_ok(&frame));

        // TCP checksum verifies against the *new* pseudo-header.
        let l4 = &frame[34..];
        let mut copy = l4.to_vec();
        copy[16] = 0;
        copy[17] = 0;
        let want = vig_packet::checksum::l4_checksum(ff.src_ip.raw(), ff.dst_ip.raw(), 6, &copy);
        assert_eq!(
            rd16(&frame, 34 + header::TCP_CHECKSUM),
            want,
            "TCP checksum must verify after NAT rewrite"
        );

        // Payload untouched (S.data = P.data).
        assert_eq!(&frame[34 + 20..], b"GET / HTTP/1.1");
    }

    #[test]
    fn return_path_restores_original_tuple() {
        let mut fm = FlowManager::new(&cfg());
        let mut out = PacketBuilder::udp(Ip4::new(192, 168, 0, 9), Ip4::new(8, 8, 8, 8), 5353, 53)
            .payload(b"query")
            .build();
        run(&mut fm, &mut out, Direction::Internal, Time::from_secs(1));
        let (_, outf) = parse_l3l4(&out).unwrap();

        // Craft the reply the remote host would send.
        let mut back = PacketBuilder::udp(
            Ip4::new(8, 8, 8, 8),
            Ip4::new(10, 1, 0, 1),
            53,
            outf.src_port,
        )
        .payload(b"answer")
        .build();
        let v = run(&mut fm, &mut back, Direction::External, Time::from_secs(2));
        assert_eq!(v, IterationOutcome::Forwarded(Direction::Internal));
        let (_, backf) = parse_l3l4(&back).unwrap();
        assert_eq!(backf.dst_ip, Ip4::new(192, 168, 0, 9), "restored host");
        assert_eq!(backf.dst_port, 5353, "restored port");
        assert_eq!(backf.src_ip, Ip4::new(8, 8, 8, 8));
        // UDP checksum verifies post-rewrite
        let l4 = &back[34..];
        let mut copy = l4.to_vec();
        copy[6] = 0;
        copy[7] = 0;
        let want =
            vig_packet::checksum::l4_checksum(backf.src_ip.raw(), backf.dst_ip.raw(), 17, &copy);
        assert_eq!(rd16(&back, 34 + header::UDP_CHECKSUM), want);
    }

    #[test]
    fn garbage_frames_are_dropped_not_crashed() {
        let mut fm = FlowManager::new(&cfg());
        // every prefix length of a valid packet, plus pure noise
        let valid =
            PacketBuilder::tcp(Ip4::new(192, 168, 0, 1), Ip4::new(1, 1, 1, 1), 1, 2).build();
        for cut in 0..valid.len() - 1 {
            let mut frame = valid[..cut].to_vec();
            let v = run(&mut fm, &mut frame, Direction::Internal, Time::from_secs(1));
            assert!(
                matches!(v, IterationOutcome::Dropped(_)),
                "truncated frame at {cut} must drop"
            );
        }
        let mut noise = vec![0xa5u8; 60];
        let v = run(&mut fm, &mut noise, Direction::External, Time::from_secs(1));
        assert!(matches!(v, IterationOutcome::Dropped(_)));
    }

    #[test]
    fn unsolicited_external_frame_is_dropped() {
        let mut fm = FlowManager::new(&cfg());
        let mut frame =
            PacketBuilder::tcp(Ip4::new(6, 6, 6, 6), Ip4::new(10, 1, 0, 1), 80, 2000).build();
        let v = run(&mut fm, &mut frame, Direction::External, Time::from_secs(1));
        assert!(matches!(v, IterationOutcome::Dropped(_)));
        assert_eq!(fm.flow_count(), 0, "external packets never create flows");
    }
}
