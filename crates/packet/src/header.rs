//! The one header codec: where each field of an Ethernet II / IPv4 /
//! {TCP, UDP} frame sits, and the only code that reads or rewrites
//! those fields.
//!
//! Fields sit at fixed offsets, as in the C original's struct overlays.
//! L2 and L3 offsets count from the start of the frame; L4 offsets
//! count from [`l4_offset`] (14 + IHL·4). IPv4 options are never
//! parsed: the IHL only moves the L4 header.
//!
//! * [`rd8`], [`rd16`] and [`rd32`] read big-endian fields and return
//!   zero past the end of the frame, so a read never panics. Callers
//!   check lengths before they use a field: the verified loop body's
//!   validation ladder on the datapath, [`crate::parse_l3l4`]
//!   everywhere else.
//! * [`rewrite`] is the one writer of a frame's 5-tuple. The NAT's
//!   datapath and both baseline NATs call it. It keeps both checksums
//!   valid with RFC 1624 incremental updates and keeps RFC 768's rule
//!   that a UDP checksum of 0 means "none".
//! * [`decrement_ttl`], [`fill_ipv4_checksum`] and [`ipv4_checksum_ok`]
//!   serve the router analog, the builder and the tests.
//!
//! The writers index the frame directly: they run only on frames whose
//! headers a validator has already found inside the frame, and a frame
//! too short for them is a caller bug that panics.

use crate::checksum::{self, Checksum};
use crate::ethernet::ETHERNET_HEADER_LEN;
use crate::ipv4::{IPV4_MIN_HEADER_LEN, PROTO_UDP};

/// Destination MAC (6 bytes).
pub const ETH_DST: usize = 0;
/// Source MAC (6 bytes).
pub const ETH_SRC: usize = 6;
/// EtherType.
pub const ETHERTYPE: usize = 12;
/// IPv4 version (high nibble) and IHL in 32-bit words (low nibble).
pub const IP_VERSION_IHL: usize = 14;
/// IPv4 `total_len`: header plus payload bytes.
pub const IP_TOTAL_LEN: usize = 16;
/// IPv4 identification.
pub const IP_IDENT: usize = 18;
/// IPv4 flags (DF `0x4000`, MF `0x2000`) and fragment offset.
pub const IP_FRAG: usize = 20;
/// IPv4 TTL; the protocol byte shares its 16-bit checksum word.
pub const IP_TTL: usize = 22;
/// IPv4 protocol number.
pub const IP_PROTO: usize = 23;
/// IPv4 header checksum.
pub const IP_CHECKSUM: usize = 24;
/// IPv4 source address.
pub const IP_SRC: usize = 26;
/// IPv4 destination address.
pub const IP_DST: usize = 30;

/// L4 source port (TCP and UDP), from [`l4_offset`].
pub const L4_SRC_PORT: usize = 0;
/// L4 destination port (TCP and UDP), from [`l4_offset`].
pub const L4_DST_PORT: usize = 2;
/// UDP `length`: header plus payload bytes.
pub const UDP_LEN: usize = 4;
/// UDP checksum (0 = none).
pub const UDP_CHECKSUM: usize = 6;
/// TCP sequence number.
pub const TCP_SEQ: usize = 4;
/// TCP data offset in 32-bit words (high nibble).
pub const TCP_DATA_OFFSET: usize = 12;
/// TCP flags byte.
pub const TCP_FLAGS: usize = 13;
/// TCP window.
pub const TCP_WINDOW: usize = 14;
/// TCP checksum.
pub const TCP_CHECKSUM: usize = 16;

/// The byte at `off`, zero past the end of the frame.
#[inline]
pub fn rd8(f: &[u8], off: usize) -> u8 {
    f.get(off).copied().unwrap_or(0)
}

/// The big-endian u16 at `off`, zero if it does not fit in the frame.
#[inline]
pub fn rd16(f: &[u8], off: usize) -> u16 {
    match f.get(off..off + 2) {
        Some(w) => u16::from_be_bytes([w[0], w[1]]),
        None => 0,
    }
}

/// The big-endian u32 at `off`, zero if it does not fit in the frame.
#[inline]
pub fn rd32(f: &[u8], off: usize) -> u32 {
    match f.get(off..off + 4) {
        Some(w) => u32::from_be_bytes([w[0], w[1], w[2], w[3]]),
        None => 0,
    }
}

/// Store a big-endian u16 at `off`.
#[inline]
pub fn wr16(f: &mut [u8], off: usize, v: u16) {
    f[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// Store a big-endian u32 at `off`.
#[inline]
pub fn wr32(f: &mut [u8], off: usize, v: u32) {
    f[off..off + 4].copy_from_slice(&v.to_be_bytes());
}

/// Where the L4 header starts: after the Ethernet header and the IPv4
/// header the IHL names.
#[inline]
pub fn l4_offset(f: &[u8]) -> usize {
    ETHERNET_HEADER_LEN + usize::from(rd8(f, IP_VERSION_IHL) & 0x0f) * 4
}

/// Rewrite a frame's addresses and ports in place, with RFC 1624
/// incremental updates of the IPv4 checksum and of the L4 checksum
/// (whose pseudo-header covers both addresses). A UDP checksum of 0
/// stays 0, and a computed 0 is sent as `0xffff` (RFC 768).
///
/// The frame must hold the IPv4 header and the L4 header through its
/// checksum field. The TCP data offset and the UDP length are never
/// read, so a frame the NAT may translate is never refused here.
#[inline]
pub fn rewrite(frame: &mut [u8], src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) {
    let l4 = l4_offset(frame);
    let old_src_ip = rd32(frame, IP_SRC);
    let old_dst_ip = rd32(frame, IP_DST);

    wr32(frame, IP_SRC, src_ip);
    wr32(frame, IP_DST, dst_ip);
    let ip_csum = Checksum::from_field(rd16(frame, IP_CHECKSUM))
        .update_u32(old_src_ip, src_ip)
        .update_u32(old_dst_ip, dst_ip)
        .to_field();
    wr16(frame, IP_CHECKSUM, ip_csum);

    let old_src_port = rd16(frame, l4 + L4_SRC_PORT);
    let old_dst_port = rd16(frame, l4 + L4_DST_PORT);
    wr16(frame, l4 + L4_SRC_PORT, src_port);
    wr16(frame, l4 + L4_DST_PORT, dst_port);

    let is_udp = rd8(frame, IP_PROTO) == PROTO_UDP;
    let csum_at = l4 + if is_udp { UDP_CHECKSUM } else { TCP_CHECKSUM };
    let old_csum = rd16(frame, csum_at);
    if is_udp && old_csum == 0 {
        return;
    }
    let mut c = Checksum::from_field(old_csum)
        .update_u32(old_src_ip, src_ip)
        .update_u32(old_dst_ip, dst_ip)
        .update_u16(old_src_port, src_port)
        .update_u16(old_dst_port, dst_port)
        .to_field();
    if is_udp && c == 0 {
        c = 0xffff;
    }
    wr16(frame, csum_at, c);
}

/// Decrement the TTL by one (stopping at 0), updating the IPv4
/// checksum incrementally. A router does this; the NAT itself does not.
pub fn decrement_ttl(frame: &mut [u8]) {
    let old = rd16(frame, IP_TTL);
    frame[IP_TTL] = frame[IP_TTL].saturating_sub(1);
    let c = Checksum::from_field(rd16(frame, IP_CHECKSUM))
        .update_u16(old, rd16(frame, IP_TTL))
        .to_field();
    wr16(frame, IP_CHECKSUM, c);
}

/// Compute the IPv4 header checksum from scratch and store it.
pub fn fill_ipv4_checksum(frame: &mut [u8]) {
    wr16(frame, IP_CHECKSUM, 0);
    let c = checksum::checksum(&frame[ETHERNET_HEADER_LEN..l4_offset(frame)]);
    wr16(frame, IP_CHECKSUM, c);
}

/// True when the IPv4 header the IHL names (at least 20 bytes) lies in
/// the frame and its checksum verifies.
pub fn ipv4_checksum_ok(frame: &[u8]) -> bool {
    let end = l4_offset(frame);
    end >= ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN
        && frame
            .get(ETHERNET_HEADER_LEN..end)
            .is_some_and(|hdr| checksum::checksum(hdr) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::PROTO_TCP;
    use proptest::prelude::*;

    /// The ones-complement sum of `bytes` as 16-bit big-endian words
    /// (an odd last byte padded with zero), folded after every word:
    /// written from RFC 1071 alone, so it checks [`crate::checksum`]
    /// rather than sharing its code.
    fn ones_sum(bytes: &[u8]) -> u16 {
        let mut sum = 0u32;
        for pair in bytes.chunks(2) {
            sum += (u32::from(pair[0]) << 8) | u32::from(pair.get(1).copied().unwrap_or(0));
            sum = (sum & 0xffff) + (sum >> 16);
        }
        sum as u16
    }

    /// The IPv4 header checksum recomputed over the header with its
    /// checksum field zeroed.
    fn oracle_ip(frame: &[u8]) -> u16 {
        let mut hdr = frame[ETHERNET_HEADER_LEN..l4_offset(frame)].to_vec();
        hdr[IP_CHECKSUM - ETHERNET_HEADER_LEN..][..2].fill(0);
        !ones_sum(&hdr)
    }

    /// The L4 checksum recomputed over the pseudo-header and the
    /// segment (`total_len − IHL` bytes) with its checksum field
    /// zeroed; for UDP a computed 0 is sent as `0xffff`.
    fn oracle_l4(frame: &[u8]) -> u16 {
        let l4 = l4_offset(frame);
        let end = ETHERNET_HEADER_LEN + usize::from(rd16(frame, IP_TOTAL_LEN));
        let proto = rd8(frame, IP_PROTO);
        let at = if proto == PROTO_UDP {
            UDP_CHECKSUM
        } else {
            TCP_CHECKSUM
        };
        let mut bytes = frame[IP_SRC..IP_DST + 4].to_vec();
        bytes.extend_from_slice(&[0, proto]);
        bytes.extend_from_slice(&((end - l4) as u16).to_be_bytes());
        bytes.extend_from_slice(&frame[l4..end]);
        let seg_at = 12 + at;
        bytes[seg_at..seg_at + 2].fill(0);
        match !ones_sum(&bytes) {
            0 if proto == PROTO_UDP => 0xffff,
            c => c,
        }
    }

    /// One generated frame: IPv4 options from IHL 5–15, TCP (with
    /// options from data offset 5–15) or UDP, the UDP checksum present
    /// or 0, a random payload and random Ethernet padding after
    /// `total_len`.
    #[derive(Debug)]
    struct Shape {
        tcp: bool,
        ihl_words: usize,
        tcp_words: usize,
        udp_checksum: bool,
        fill: Vec<u8>,
        payload_len: usize,
        pad: usize,
    }

    fn shape() -> impl Strategy<Value = Shape> {
        (
            (any::<bool>(), 5usize..=15, 5usize..=15, any::<bool>()),
            collection::vec(any::<u8>(), 160..=160),
            (0usize..=40, 0usize..=8),
        )
            .prop_map(
                |((tcp, ihl_words, tcp_words, udp_checksum), fill, (payload_len, pad))| Shape {
                    tcp,
                    ihl_words,
                    tcp_words,
                    udp_checksum,
                    fill,
                    payload_len,
                    pad,
                },
            )
    }

    /// Lay the shape out over its random bytes and install correct
    /// checksums with the oracle.
    fn build(s: &Shape) -> Vec<u8> {
        let ihl = s.ihl_words * 4;
        let l4_hdr = if s.tcp { s.tcp_words * 4 } else { 8 };
        let total = ihl + l4_hdr + s.payload_len;
        let mut f: Vec<u8> = s
            .fill
            .iter()
            .copied()
            .cycle()
            .take(14 + total + s.pad)
            .collect();
        wr16(&mut f, ETHERTYPE, 0x0800);
        f[IP_VERSION_IHL] = 0x40 | s.ihl_words as u8;
        wr16(&mut f, IP_TOTAL_LEN, total as u16);
        f[IP_PROTO] = if s.tcp { PROTO_TCP } else { PROTO_UDP };
        let l4 = l4_offset(&f);
        if s.tcp {
            f[l4 + TCP_DATA_OFFSET] = ((s.tcp_words as u8) << 4) | (f[l4 + TCP_DATA_OFFSET] & 0x0f);
        } else {
            wr16(&mut f, l4 + UDP_LEN, l4_hdr as u16 + s.payload_len as u16);
        }
        let ip = oracle_ip(&f);
        wr16(&mut f, IP_CHECKSUM, ip);
        let at = l4 + if s.tcp { TCP_CHECKSUM } else { UDP_CHECKSUM };
        let l4_csum = if s.tcp || s.udp_checksum {
            oracle_l4(&f)
        } else {
            0
        };
        wr16(&mut f, at, l4_csum);
        f
    }

    /// A destination port that makes the rewritten UDP checksum
    /// compute to 0: the ones-complement negation of the sum of
    /// everything else, which is the checksum the frame carries with
    /// that port at 0.
    fn port_for_zero_udp_checksum(frame: &[u8], src_ip: u32, src_port: u16, dst_ip: u32) -> u16 {
        let mut f = frame.to_vec();
        let l4 = l4_offset(&f);
        wr32(&mut f, IP_SRC, src_ip);
        wr32(&mut f, IP_DST, dst_ip);
        wr16(&mut f, l4 + L4_SRC_PORT, src_port);
        wr16(&mut f, l4 + L4_DST_PORT, 0);
        oracle_l4(&f)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_096))]
        /// [`rewrite`] against a from-scratch oracle: on frames with IP
        /// options, TCP or UDP, the UDP checksum present or absent, the
        /// input checksums verify; after a rewrite to random endpoints
        /// both checksums equal a full recomputation, a UDP checksum
        /// of 0 stays 0 and a computed 0 is sent as `0xffff`; and no
        /// byte changes outside the four fields and the two checksums.
        /// [`decrement_ttl`] is held to the same oracle afterwards.
        #[test]
        fn rewrite_equals_a_full_recomputation(
            s in shape(),
            (src_ip, dst_ip) in (any::<u32>(), any::<u32>()),
            (src_port, dst_port) in (any::<u16>(), any::<u16>()),
            force_zero in 0u8..4,
        ) {
            let frame = build(&s);
            let l4 = l4_offset(&frame);
            let csum_at = l4 + if s.tcp { TCP_CHECKSUM } else { UDP_CHECKSUM };
            prop_assert!(ipv4_checksum_ok(&frame));
            prop_assert_eq!(ones_sum(&frame[ETHERNET_HEADER_LEN..l4]), 0xffff);
            if s.tcp || s.udp_checksum {
                prop_assert_eq!(rd16(&frame, csum_at), oracle_l4(&frame));
            }

            let zero_udp = !s.tcp && s.udp_checksum && force_zero == 0;
            let dst_port = if zero_udp {
                port_for_zero_udp_checksum(&frame, src_ip, src_port, dst_ip)
            } else {
                dst_port
            };
            let mut out = frame.clone();
            rewrite(&mut out, src_ip, src_port, dst_ip, dst_port);

            prop_assert_eq!(rd32(&out, IP_SRC), src_ip);
            prop_assert_eq!(rd32(&out, IP_DST), dst_ip);
            prop_assert_eq!(rd16(&out, l4 + L4_SRC_PORT), src_port);
            prop_assert_eq!(rd16(&out, l4 + L4_DST_PORT), dst_port);
            prop_assert_eq!(rd16(&out, IP_CHECKSUM), oracle_ip(&out));
            prop_assert!(ipv4_checksum_ok(&out));
            match (s.tcp, s.udp_checksum) {
                (false, false) => prop_assert_eq!(rd16(&out, csum_at), 0, "absent stays absent"),
                _ => prop_assert_eq!(rd16(&out, csum_at), oracle_l4(&out)),
            }
            if zero_udp {
                prop_assert_eq!(rd16(&out, csum_at), 0xffff, "a computed 0 is sent as 0xffff");
            }
            let rewritten = |i: usize| {
                (IP_CHECKSUM..IP_DST + 4).contains(&i)
                    || (l4..l4 + 4).contains(&i)
                    || (csum_at..csum_at + 2).contains(&i)
            };
            for (i, (a, b)) in frame.iter().zip(&out).enumerate() {
                prop_assert!(a == b || rewritten(i), "byte {} changed", i);
            }

            let ttl = out[IP_TTL];
            decrement_ttl(&mut out);
            prop_assert_eq!(out[IP_TTL], ttl.saturating_sub(1));
            prop_assert_eq!(rd16(&out, IP_CHECKSUM), oracle_ip(&out));
        }
    }

    #[test]
    fn readers_zero_fill_past_the_end() {
        let f = [0x12u8, 0x34, 0x56];
        assert_eq!(rd8(&f, 2), 0x56);
        assert_eq!(rd8(&f, 3), 0);
        assert_eq!(rd16(&f, 1), 0x3456);
        assert_eq!(rd16(&f, 2), 0);
        assert_eq!(rd32(&f, 0), 0);
        assert_eq!(l4_offset(&f), ETHERNET_HEADER_LEN);
        assert!(!ipv4_checksum_ok(&f));
    }
}
