//! The Unverified NAT (paper §6, NF "b").
//!
//! Same RFC 3022 semantics as VigNAT, same flow capacity, but written
//! the way "an experienced software developer with little verification
//! expertise" writes a DPDK NF:
//!
//! * flow state in a **separate-chaining** hash table
//!   ([`crate::chained_map::ChainedMap`]) — the DPDK `rte_hash` design
//!   the paper's authors could not formally specify;
//! * a slab of entries with an intrusive LRU list for expiry;
//! * an ad-hoc free-list port allocator (no slot⇄port bijection trick);
//! * parsing with `vig_packet::parse_l3l4` and rewriting with
//!   `vig_packet::header::rewrite`, the codec the verified datapath
//!   writes through too (the way a normal dev reuses DPDK's header
//!   structs), so the two NATs share one frame path and differ only
//!   in their NAT logic;
//! * dynamic allocation wherever convenient.
//!
//! It is deliberately *not* built from the verified loop body or libVig
//! — the whole point is to have an independent implementation to
//! compare against, both for performance (Fig. 12–14) and in the
//! differential tests (both NATs must satisfy the same spec).

use libvig::time::Time;
use netsim::middlebox::{Middlebox, Verdict};
use vig_packet::{header, parse_l3l4, Direction, ExtKey, FlowId, Ip4};
use vig_spec::NatConfig;

use crate::chained_map::ChainedMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Entry {
    fid: FlowId,
    ext_port: u16,
    last: Time,
    prev: usize,
    next: usize,
}

/// The unverified DPDK-style NAT. See module docs.
pub struct UnverifiedNat {
    cfg: NatConfig,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    by_int: ChainedMap<FlowId, usize>,
    by_ext: ChainedMap<ExtKey, usize>,
    // ad-hoc port pool
    free_ports: Vec<u16>,
    port_used: Vec<bool>,
    // LRU list, oldest at head
    head: usize,
    tail: usize,
    len: usize,
    expired_total: u64,
}

impl UnverifiedNat {
    /// Build with the same configuration surface as VigNAT.
    pub fn new(cfg: NatConfig) -> UnverifiedNat {
        vignat::loop_body::check_config(&cfg).expect("invalid NAT configuration");
        UnverifiedNat {
            slab: (0..cfg.capacity).map(|_| None).collect(),
            free: (0..cfg.capacity).rev().collect(),
            by_int: ChainedMap::with_capacity(cfg.capacity),
            by_ext: ChainedMap::with_capacity(cfg.capacity),
            free_ports: (0..cfg.capacity as u16)
                .rev()
                .map(|o| cfg.start_port + o)
                .collect(),
            port_used: vec![false; cfg.capacity],
            head: NIL,
            tail: NIL,
            len: 0,
            cfg,
            expired_total: 0,
        }
    }

    /// Live flow count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total expired flows.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    fn lru_unlink(&mut self, idx: usize) {
        let (p, n) = {
            let e = self.slab[idx].as_ref().expect("linked entry exists");
            (e.prev, e.next)
        };
        if p != NIL {
            self.slab[p].as_mut().unwrap().next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slab[n].as_mut().unwrap().prev = p;
        } else {
            self.tail = p;
        }
    }

    fn lru_append(&mut self, idx: usize) {
        {
            let e = self.slab[idx].as_mut().unwrap();
            e.prev = self.tail;
            e.next = NIL;
        }
        if self.tail != NIL {
            self.slab[self.tail].as_mut().unwrap().next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn expire(&mut self, now: Time) {
        while self.head != NIL {
            let idx = self.head;
            let (last, fid, ext_port) = {
                let e = self.slab[idx].as_ref().unwrap();
                (e.last, e.fid, e.ext_port)
            };
            if last.nanos().saturating_add(self.cfg.expiry_ns) > now.nanos() {
                break;
            }
            self.lru_unlink(idx);
            self.by_int.remove(&fid);
            self.by_ext
                .remove(&ext_key_of(&fid, self.cfg.external_ip, ext_port));
            self.release_port(ext_port);
            self.slab[idx] = None;
            self.free.push(idx);
            self.len -= 1;
            self.expired_total += 1;
        }
    }

    fn touch(&mut self, idx: usize, now: Time) {
        self.lru_unlink(idx);
        self.slab[idx].as_mut().unwrap().last = now;
        self.lru_append(idx);
    }

    fn take_port(&mut self) -> Option<u16> {
        let p = self.free_ports.pop()?;
        self.port_used[(p - self.cfg.start_port) as usize] = true;
        Some(p)
    }

    fn release_port(&mut self, p: u16) {
        let off = (p - self.cfg.start_port) as usize;
        debug_assert!(self.port_used[off], "releasing a free port");
        self.port_used[off] = false;
        self.free_ports.push(p);
    }

    fn create_flow(&mut self, fid: FlowId, now: Time) -> Option<u16> {
        let idx = self.free.pop()?;
        let Some(port) = self.take_port() else {
            self.free.push(idx);
            return None;
        };
        self.slab[idx] = Some(Entry {
            fid,
            ext_port: port,
            last: now,
            prev: NIL,
            next: NIL,
        });
        self.lru_append(idx);
        self.by_int.insert(fid, idx);
        self.by_ext
            .insert(ext_key_of(&fid, self.cfg.external_ip, port), idx);
        self.len += 1;
        Some(port)
    }
}

fn ext_key_of(fid: &FlowId, ext_ip: Ip4, ext_port: u16) -> ExtKey {
    ExtKey {
        ext_ip,
        ext_port,
        dst_ip: fid.dst_ip,
        dst_port: fid.dst_port,
        proto: fid.proto,
    }
}

impl Middlebox for UnverifiedNat {
    fn name(&self) -> &'static str {
        "Unverified NAT"
    }

    fn process(&mut self, dir: Direction, frame: &mut [u8], now: Time) -> Verdict {
        self.expire(now);
        let Ok((_off, ff)) = parse_l3l4(frame) else {
            return Verdict::Drop;
        };
        match dir {
            Direction::Internal => {
                let fid = FlowId {
                    src_ip: ff.src_ip,
                    src_port: ff.src_port,
                    dst_ip: ff.dst_ip,
                    dst_port: ff.dst_port,
                    proto: ff.proto,
                };
                let port = if let Some(&idx) = self.by_int.get(&fid) {
                    let port = self.slab[idx].as_ref().unwrap().ext_port;
                    self.touch(idx, now);
                    port
                } else {
                    match self.create_flow(fid, now) {
                        Some(p) => p,
                        None => return Verdict::Drop,
                    }
                };
                let ext_ip = self.cfg.external_ip.raw();
                header::rewrite(frame, ext_ip, port, ff.dst_ip.raw(), ff.dst_port);
                Verdict::Forward(Direction::External)
            }
            Direction::External => {
                let ek = ExtKey {
                    // Single-address baseline: like the verified loop
                    // body, return traffic matches without consulting
                    // the destination address.
                    ext_ip: self.cfg.external_ip,
                    ext_port: ff.dst_port,
                    dst_ip: ff.src_ip,
                    dst_port: ff.src_port,
                    proto: ff.proto,
                };
                let Some(&idx) = self.by_ext.get(&ek) else {
                    return Verdict::Drop;
                };
                let (int_ip, int_port) = {
                    let e = self.slab[idx].as_ref().unwrap();
                    (e.fid.src_ip, e.fid.src_port)
                };
                self.touch(idx, now);
                header::rewrite(frame, ff.src_ip.raw(), ff.src_port, int_ip.raw(), int_port);
                Verdict::Forward(Direction::Internal)
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vig_packet::builder::PacketBuilder;

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
    fn translates_and_reverses() {
        let mut nat = UnverifiedNat::new(cfg());
        let mut out =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 3), Ip4::new(9, 9, 9, 9), 1234, 53).build();
        assert_eq!(
            nat.process(Direction::Internal, &mut out, Time::from_secs(1)),
            Verdict::Forward(Direction::External)
        );
        let (_, f) = parse_l3l4(&out).unwrap();
        assert_eq!(f.src_ip, Ip4::new(10, 1, 0, 1));
        let ext_port = f.src_port;
        assert!((3000..3008).contains(&ext_port));

        let mut back =
            PacketBuilder::udp(Ip4::new(9, 9, 9, 9), Ip4::new(10, 1, 0, 1), 53, ext_port).build();
        assert_eq!(
            nat.process(Direction::External, &mut back, Time::from_secs(1)),
            Verdict::Forward(Direction::Internal)
        );
        let (_, b) = parse_l3l4(&back).unwrap();
        assert_eq!(b.dst_ip, Ip4::new(192, 168, 0, 3));
        assert_eq!(b.dst_port, 1234);
    }

    #[test]
    fn capacity_and_expiry() {
        let mut nat = UnverifiedNat::new(cfg());
        for h in 0..8u8 {
            let mut f =
                PacketBuilder::udp(Ip4::new(192, 168, 1, h), Ip4::new(9, 9, 9, 9), 1, 2).build();
            assert_eq!(
                nat.process(Direction::Internal, &mut f, Time::from_secs(1)),
                Verdict::Forward(Direction::External)
            );
        }
        assert_eq!(nat.occupancy(), 8);
        // full: new flow dropped
        let mut f9 =
            PacketBuilder::udp(Ip4::new(192, 168, 2, 1), Ip4::new(9, 9, 9, 9), 1, 2).build();
        assert_eq!(
            nat.process(Direction::Internal, &mut f9, Time::from_secs(1)),
            Verdict::Drop
        );
        // after expiry all 8 go and the new one fits
        let mut f9b =
            PacketBuilder::udp(Ip4::new(192, 168, 2, 1), Ip4::new(9, 9, 9, 9), 1, 2).build();
        assert_eq!(
            nat.process(Direction::Internal, &mut f9b, Time::from_secs(4)),
            Verdict::Forward(Direction::External)
        );
        assert_eq!(nat.expired_total(), 8);
        assert_eq!(nat.occupancy(), 1);
    }

    #[test]
    fn ports_are_recycled() {
        let mut nat = UnverifiedNat::new(cfg());
        let mut f =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 1), Ip4::new(9, 9, 9, 9), 1, 2).build();
        nat.process(Direction::Internal, &mut f, Time::from_secs(1));
        let (_, out1) = parse_l3l4(&f).unwrap();
        // expire, then a different flow can get the same port back
        let mut g =
            PacketBuilder::udp(Ip4::new(192, 168, 0, 2), Ip4::new(9, 9, 9, 9), 3, 4).build();
        nat.process(Direction::Internal, &mut g, Time::from_secs(4));
        let (_, out2) = parse_l3l4(&g).unwrap();
        assert_eq!(out1.src_port, out2.src_port, "LIFO port pool recycles");
    }

    #[test]
    fn malformed_frames_drop() {
        let mut nat = UnverifiedNat::new(cfg());
        let mut junk = vec![0u8; 10];
        assert_eq!(
            nat.process(Direction::Internal, &mut junk, Time::from_secs(1)),
            Verdict::Drop
        );
        let mut short = vec![0u8; 40];
        assert_eq!(
            nat.process(Direction::External, &mut short, Time::from_secs(1)),
            Verdict::Drop
        );
    }
}
