//! Packet formats for the VigNAT reproduction.
//!
//! This crate provides the wire-format substrate the NAT operates on:
//!
//! * the one fixed-offset **header codec** ([`header`]): where each
//!   Ethernet II / IPv4 / {TCP, UDP} field sits, zero-filling readers,
//!   and the one writer of a frame's 5-tuple — the verified datapath,
//!   [`parse_l3l4`], the builder and both baseline NATs all read and
//!   rewrite frames through it;
//! * the **internet checksum** ([`checksum`]), including the RFC 1624
//!   incremental-update rules a NAT relies on when it rewrites addresses
//!   and ports without touching the payload;
//! * **flow identifiers** ([`flow::FlowId`]) — the 5-tuple plus receiving
//!   interface that RFC 3022 keys its translation table on;
//! * small **builders** for synthesizing valid packets in tests, examples
//!   and the traffic generator.
//!
//! Everything is `#![forbid(unsafe_code)]` and panic-free on untrusted
//! input: parsing returns [`ParseError`] instead of slicing out of bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod header;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use builder::PacketBuilder;
pub use ethernet::{EtherType, MacAddr, ETHERNET_HEADER_LEN};
pub use flow::{Direction, ExtKey, Flow, FlowId, Proto};
pub use ipv4::{Ip4, IPV4_MIN_HEADER_LEN};
pub use tcp::TCP_MIN_HEADER_LEN;
pub use udp::UDP_HEADER_LEN;

/// Errors returned when parsing a packet from raw bytes.
///
/// The NAT's stateless code treats every variant as "drop the packet";
/// none of them abort processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the fixed part of the header.
    Truncated {
        /// Header that failed to parse.
        layer: Layer,
        /// Bytes that were available.
        have: usize,
        /// Bytes that were required.
        need: usize,
    },
    /// A length field inside the header is inconsistent with the buffer.
    BadLength {
        /// Header whose length field is inconsistent.
        layer: Layer,
    },
    /// The EtherType is not IPv4 (the only L3 protocol the NAT handles).
    NotIpv4,
    /// The IPv4 version field is not 4.
    BadVersion,
    /// The IP protocol is neither TCP nor UDP (RFC 3022 NAT translates
    /// only TCP/UDP sessions; everything else is dropped).
    UnsupportedProto(u8),
    /// The packet is an IPv4 fragment (MF set or a non-zero offset);
    /// the port fields of a non-first fragment are not present, so the
    /// flow cannot be identified.
    Fragment,
}

/// Protocol layer names used in [`ParseError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Ethernet II framing.
    Ethernet,
    /// IPv4 header.
    Ipv4,
    /// TCP header.
    Tcp,
    /// UDP header.
    Udp,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Truncated { layer, have, need } => {
                write!(
                    f,
                    "{layer:?} header truncated: have {have} bytes, need {need}"
                )
            }
            ParseError::BadLength { layer } => write!(f, "{layer:?} length field inconsistent"),
            ParseError::NotIpv4 => write!(f, "EtherType is not IPv4"),
            ParseError::BadVersion => write!(f, "IP version is not 4"),
            ParseError::UnsupportedProto(p) => write!(f, "unsupported IP protocol {p}"),
            ParseError::Fragment => write!(f, "non-first IPv4 fragment"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Where the headers of a parsed TCP/UDP-over-IPv4-over-Ethernet
/// frame start within its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderOffsets {
    /// Offset of the IPv4 header (== Ethernet header length).
    pub l3: usize,
    /// Offset of the TCP/UDP header.
    pub l4: usize,
}

/// Parse and validate an Ethernet/IPv4/{TCP,UDP} frame, returning the
/// header offsets and the flow 5-tuple fields.
///
/// Checks performed, in order, each failure its own [`ParseError`]:
///
/// 1. frame long enough for the Ethernet header;
/// 2. EtherType is IPv4;
/// 3. frame long enough for a minimal IPv4 header, IP version 4, the
///    IHL at least 20 bytes and at most `total_len`, and `total_len`
///    inside the frame, whose length counts at most 65,535 bytes (the
///    datapath's 16-bit `frame_len` clamp, so both accept one set);
/// 4. not a fragment (MF set or a non-zero offset);
/// 5. protocol is TCP or UDP;
/// 6. the L4 room (`total_len` − IHL: the datagram after the IPv4
///    header, never the Ethernet padding past it) holds the L4 header,
///    and the TCP data offset or UDP length lies between the minimal
///    header and that room.
///
/// The IPv4 header checksum is *not* verified here (DPDK NICs verify it in
/// hardware; VigNAT assumes it). [`header::ipv4_checksum_ok`] is
/// available for callers that want the software check.
pub fn parse_l3l4(frame: &[u8]) -> Result<(HeaderOffsets, FlowFields), ParseError> {
    use header::{rd16, rd32, rd8};
    if frame.len() < ETHERNET_HEADER_LEN {
        return Err(ParseError::Truncated {
            layer: Layer::Ethernet,
            have: frame.len(),
            need: ETHERNET_HEADER_LEN,
        });
    }
    if rd16(frame, header::ETHERTYPE) != EtherType::IPV4.0 {
        return Err(ParseError::NotIpv4);
    }
    let ip_have = frame.len().min(usize::from(u16::MAX)) - ETHERNET_HEADER_LEN;
    if ip_have < IPV4_MIN_HEADER_LEN {
        return Err(ParseError::Truncated {
            layer: Layer::Ipv4,
            have: ip_have,
            need: IPV4_MIN_HEADER_LEN,
        });
    }
    if rd8(frame, header::IP_VERSION_IHL) >> 4 != 4 {
        return Err(ParseError::BadVersion);
    }
    let l4 = header::l4_offset(frame);
    let ihl = l4 - ETHERNET_HEADER_LEN;
    let total = usize::from(rd16(frame, header::IP_TOTAL_LEN));
    if ihl < IPV4_MIN_HEADER_LEN || ihl > total || total > ip_have {
        return Err(ParseError::BadLength { layer: Layer::Ipv4 });
    }
    if rd16(frame, header::IP_FRAG) & 0x3fff != 0 {
        return Err(ParseError::Fragment);
    }
    let proto = rd8(frame, header::IP_PROTO);
    let proto = Proto::from_number(proto).ok_or(ParseError::UnsupportedProto(proto))?;
    let (layer, need, len) = match proto {
        Proto::Tcp => (
            Layer::Tcp,
            TCP_MIN_HEADER_LEN,
            usize::from(rd8(frame, l4 + header::TCP_DATA_OFFSET) >> 4) * 4,
        ),
        Proto::Udp => (
            Layer::Udp,
            UDP_HEADER_LEN,
            usize::from(rd16(frame, l4 + header::UDP_LEN)),
        ),
    };
    // The L4 room ends at `total_len`: Ethernet padding past the
    // datagram is not part of it.
    let have = total - ihl;
    if have < need {
        return Err(ParseError::Truncated { layer, have, need });
    }
    if len < need || len > have {
        return Err(ParseError::BadLength { layer });
    }
    Ok((
        HeaderOffsets {
            l3: ETHERNET_HEADER_LEN,
            l4,
        },
        FlowFields {
            src_ip: Ip4(rd32(frame, header::IP_SRC)),
            dst_ip: Ip4(rd32(frame, header::IP_DST)),
            src_port: rd16(frame, l4 + header::L4_SRC_PORT),
            dst_port: rd16(frame, l4 + header::L4_DST_PORT),
            proto,
        },
    ))
}

/// The five fields of the classic 5-tuple, as parsed off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowFields {
    /// IPv4 source address.
    pub src_ip: Ip4,
    /// IPv4 destination address.
    pub dst_ip: Ip4,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
    /// L4 protocol.
    pub proto: Proto,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::header::rd16;

    fn sample() -> Vec<u8> {
        PacketBuilder::udp(Ip4::new(10, 0, 0, 1), Ip4::new(93, 184, 216, 34), 5555, 80)
            .payload(b"hello")
            .build()
    }

    #[test]
    fn parse_roundtrip() {
        let frame = sample();
        let (off, ff) = parse_l3l4(&frame).expect("valid frame parses");
        assert_eq!(off.l3, ETHERNET_HEADER_LEN);
        assert_eq!(off.l4, ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN);
        assert_eq!(ff.src_ip, Ip4::new(10, 0, 0, 1));
        assert_eq!(ff.dst_ip, Ip4::new(93, 184, 216, 34));
        assert_eq!(ff.src_port, 5555);
        assert_eq!(ff.dst_port, 80);
        assert_eq!(ff.proto, Proto::Udp);
    }

    #[test]
    fn truncated_ethernet_rejected() {
        let frame = sample();
        for cut in 0..ETHERNET_HEADER_LEN {
            assert!(parse_l3l4(&frame[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn truncated_l4_rejected() {
        let frame = sample();
        let l4_end = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN + UDP_HEADER_LEN;
        for cut in ETHERNET_HEADER_LEN..l4_end {
            assert!(parse_l3l4(&frame[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Exactly the L4 boundary parses (UDP length field still covers
        // payload, but header-only access is validated).
        let mut exact = frame[..l4_end].to_vec();
        // Fix up IPv4 total_len + UDP length to make the truncation
        // self-consistent.
        let l4 = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN;
        header::wr16(
            &mut exact,
            header::IP_TOTAL_LEN,
            (IPV4_MIN_HEADER_LEN + UDP_HEADER_LEN) as u16,
        );
        header::fill_ipv4_checksum(&mut exact);
        header::wr16(&mut exact, l4 + header::UDP_LEN, UDP_HEADER_LEN as u16);
        header::wr16(&mut exact, l4 + header::UDP_CHECKSUM, 0); // optional for UDP/IPv4
        parse_l3l4(&exact).expect("header-only UDP frame parses");
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut frame = sample();
        frame[12] = 0x86; // EtherType -> 0x86dd (IPv6)
        frame[13] = 0xdd;
        assert_eq!(parse_l3l4(&frame), Err(ParseError::NotIpv4));
    }

    #[test]
    fn unsupported_proto_rejected() {
        let mut frame = sample();
        frame[ETHERNET_HEADER_LEN + 9] = 1; // ICMP
                                            // (checksum now stale; parse_l3l4 does not verify it, per DPDK offload)
        assert_eq!(parse_l3l4(&frame), Err(ParseError::UnsupportedProto(1)));
    }

    #[test]
    fn fragment_rejected() {
        let mut frame = sample();
        // fragment offset = 1 (8-byte units)
        frame[ETHERNET_HEADER_LEN + 6] = 0x00;
        frame[ETHERNET_HEADER_LEN + 7] = 0x01;
        assert_eq!(parse_l3l4(&frame), Err(ParseError::Fragment));
    }

    #[test]
    fn more_fragments_rejected() {
        let mut frame = sample();
        frame[ETHERNET_HEADER_LEN + 6] = 0x20; // MF flag
        assert_eq!(parse_l3l4(&frame), Err(ParseError::Fragment));
    }

    /// A UDP datagram whose `total_len` (24) leaves 4 bytes after the
    /// IPv4 header, padded to a 64-byte frame: the 8 bytes at the L4
    /// offset are mostly Ethernet padding, not a UDP header.
    #[test]
    fn l4_header_in_ethernet_padding_is_truncated() {
        let mut frame = sample();
        frame.resize(64, 0);
        header::wr16(&mut frame, header::IP_TOTAL_LEN, 24);
        header::fill_ipv4_checksum(&mut frame);
        assert_eq!(
            parse_l3l4(&frame),
            Err(ParseError::Truncated {
                layer: Layer::Udp,
                have: 4,
                need: UDP_HEADER_LEN
            })
        );
    }

    /// IPv4 options move the L4 header: the ports are read after the
    /// IHL's 60 bytes, and the L4 room is `total_len` − IHL.
    #[test]
    fn options_move_the_l4_header() {
        let plain = sample();
        let mut frame = plain[..34].to_vec();
        frame[header::IP_VERSION_IHL] = 0x4f;
        frame.extend_from_slice(&[1; 40]); // options
        frame.extend_from_slice(&plain[34..]);
        let total = rd16(&plain, header::IP_TOTAL_LEN) + 40;
        header::wr16(&mut frame, header::IP_TOTAL_LEN, total);
        let (off, ff) = parse_l3l4(&frame).expect("a frame with options parses");
        assert_eq!(off.l4, ETHERNET_HEADER_LEN + 60);
        assert_eq!((ff.src_port, ff.dst_port), (5555, 80));
        header::wr16(&mut frame, header::IP_TOTAL_LEN, 60 + 7);
        assert_eq!(
            parse_l3l4(&frame),
            Err(ParseError::Truncated {
                layer: Layer::Udp,
                have: 7,
                need: UDP_HEADER_LEN
            })
        );
    }
}
