//! Packet builders for tests, examples and the traffic generator.
//!
//! Two entry points:
//!
//! * [`PacketBuilder::build`] allocates a fresh `Vec<u8>` — convenient in
//!   tests;
//! * [`PacketBuilder::build_into`] writes into a caller-provided buffer —
//!   what the MoonGen-analog traffic generator uses so the hot loop stays
//!   allocation-free (mempool buffers only).
//!
//! All emitted packets carry correct IPv4 and L4 checksums unless
//! explicitly disabled, so they survive any verification the device model
//! or the NAT performs.

use crate::checksum::l4_checksum;
use crate::ethernet::{EtherType, MacAddr, ETHERNET_HEADER_LEN};
use crate::flow::Proto;
use crate::header::{self as h, wr16, wr32};
use crate::ipv4::{Ip4, IPV4_MIN_HEADER_LEN};
use crate::tcp::TCP_MIN_HEADER_LEN;
use crate::udp::UDP_HEADER_LEN;

/// Fluent builder for Ethernet/IPv4/{TCP,UDP} frames.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_ip: Ip4,
    dst_ip: Ip4,
    src_port: u16,
    dst_port: u16,
    proto: Proto,
    ttl: u8,
    ident: u16,
    tcp_flags: u8,
    tcp_seq: u32,
    payload: Vec<u8>,
    udp_checksum: bool,
    pad_to: usize,
}

impl PacketBuilder {
    /// Start a TCP packet.
    pub fn tcp(src_ip: Ip4, dst_ip: Ip4, src_port: u16, dst_port: u16) -> Self {
        Self::new(Proto::Tcp, src_ip, dst_ip, src_port, dst_port)
    }

    /// Start a UDP packet.
    pub fn udp(src_ip: Ip4, dst_ip: Ip4, src_port: u16, dst_port: u16) -> Self {
        Self::new(Proto::Udp, src_ip, dst_ip, src_port, dst_port)
    }

    fn new(proto: Proto, src_ip: Ip4, dst_ip: Ip4, src_port: u16, dst_port: u16) -> Self {
        PacketBuilder {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
            ttl: 64,
            ident: 0,
            tcp_flags: crate::tcp::flags::ACK,
            tcp_seq: 0,
            payload: Vec::new(),
            udp_checksum: true,
            pad_to: 0,
        }
    }

    /// Set the IPv4 TTL (default 64).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Set the IPv4 identification field.
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Set TCP flags (default ACK).
    pub fn tcp_flags(mut self, flags: u8) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// Set the TCP sequence number.
    pub fn tcp_seq(mut self, seq: u32) -> Self {
        self.tcp_seq = seq;
        self
    }

    /// Attach a payload.
    pub fn payload(mut self, p: &[u8]) -> Self {
        self.payload = p.to_vec();
        self
    }

    /// Omit the UDP checksum (transmit 0), legal for UDP over IPv4.
    pub fn no_udp_checksum(mut self) -> Self {
        self.udp_checksum = false;
        self
    }

    /// Pad the final frame with zeros up to `len` bytes (e.g. the 64-byte
    /// minimum Ethernet frame used throughout the paper's evaluation).
    /// Padding sits after the IP datagram and is not covered by checksums.
    pub fn pad_to(mut self, len: usize) -> Self {
        self.pad_to = len;
        self
    }

    /// Total frame length this builder will produce.
    pub fn frame_len(&self) -> usize {
        let l4 = match self.proto {
            Proto::Tcp => TCP_MIN_HEADER_LEN,
            Proto::Udp => UDP_HEADER_LEN,
        };
        (ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN + l4 + self.payload.len()).max(self.pad_to)
    }

    /// Build into a fresh vector.
    pub fn build(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.frame_len()];
        let n = self.build_into(&mut buf).expect("sized buffer fits");
        debug_assert_eq!(n, buf.len());
        buf
    }

    /// Build into `buf`, returning the frame length, or `None` if the
    /// buffer is too small. No allocation.
    pub fn build_into(&self, buf: &mut [u8]) -> Option<usize> {
        let total = self.frame_len();
        if buf.len() < total {
            return None;
        }
        let buf = &mut buf[..total];
        buf.fill(0);

        buf[h::ETH_DST..h::ETH_DST + 6].copy_from_slice(&MacAddr::local(2).0);
        buf[h::ETH_SRC..h::ETH_SRC + 6].copy_from_slice(&MacAddr::local(1).0);
        wr16(buf, h::ETHERTYPE, EtherType::IPV4.0);

        let l4_hdr = match self.proto {
            Proto::Tcp => TCP_MIN_HEADER_LEN,
            Proto::Udp => UDP_HEADER_LEN,
        };
        let l4_len = l4_hdr + self.payload.len();
        // IPv4: version 4, IHL 5, DF, no options.
        buf[h::IP_VERSION_IHL] = 0x45;
        wr16(buf, h::IP_TOTAL_LEN, (IPV4_MIN_HEADER_LEN + l4_len) as u16);
        wr16(buf, h::IP_IDENT, self.ident);
        wr16(buf, h::IP_FRAG, 0x4000);
        buf[h::IP_TTL] = self.ttl;
        buf[h::IP_PROTO] = self.proto.number();
        wr32(buf, h::IP_SRC, self.src_ip.raw());
        wr32(buf, h::IP_DST, self.dst_ip.raw());
        h::fill_ipv4_checksum(buf);

        let l4 = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN;
        wr16(buf, l4 + h::L4_SRC_PORT, self.src_port);
        wr16(buf, l4 + h::L4_DST_PORT, self.dst_port);
        let csum_at = match self.proto {
            Proto::Tcp => {
                wr32(buf, l4 + h::TCP_SEQ, self.tcp_seq);
                buf[l4 + h::TCP_DATA_OFFSET] = 0x50; // data offset 5
                buf[l4 + h::TCP_FLAGS] = self.tcp_flags;
                wr16(buf, l4 + h::TCP_WINDOW, 4096);
                l4 + h::TCP_CHECKSUM
            }
            Proto::Udp => {
                wr16(buf, l4 + h::UDP_LEN, l4_len as u16);
                l4 + h::UDP_CHECKSUM
            }
        };
        buf[l4 + l4_hdr..l4 + l4_len].copy_from_slice(&self.payload);
        if self.proto == Proto::Tcp || self.udp_checksum {
            let c = l4_checksum(
                self.src_ip.raw(),
                self.dst_ip.raw(),
                self.proto.number(),
                &buf[l4..l4 + l4_len],
            );
            wr16(buf, csum_at, c);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_l3l4;

    #[test]
    fn build_into_matches_build() {
        let b = PacketBuilder::tcp(Ip4::new(10, 0, 0, 1), Ip4::new(2, 2, 2, 2), 1, 2)
            .payload(b"xyz")
            .ttl(17)
            .ident(0xbeef);
        let v = b.build();
        let mut arr = [0u8; 256];
        let n = b.build_into(&mut arr).unwrap();
        assert_eq!(&arr[..n], &v[..]);
    }

    #[test]
    fn build_into_too_small_fails() {
        let b = PacketBuilder::udp(Ip4::new(1, 1, 1, 1), Ip4::new(2, 2, 2, 2), 1, 2);
        let mut tiny = [0u8; 10];
        assert!(b.build_into(&mut tiny).is_none());
    }

    #[test]
    fn pad_to_min_frame() {
        let f = PacketBuilder::udp(Ip4::new(1, 1, 1, 1), Ip4::new(2, 2, 2, 2), 7, 8)
            .pad_to(64)
            .build();
        assert_eq!(f.len(), 64);
        // still parses; padding beyond total_len ignored
        let (_, ff) = parse_l3l4(&f).unwrap();
        assert_eq!(ff.src_port, 7);
    }

    #[test]
    fn ipv4_checksum_valid() {
        let f = PacketBuilder::tcp(Ip4::new(9, 9, 9, 9), Ip4::new(8, 8, 8, 8), 5, 6).build();
        assert!(h::ipv4_checksum_ok(&f));
    }
}
