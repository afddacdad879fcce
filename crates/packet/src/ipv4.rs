//! IPv4 addresses and header constants.
//!
//! Field layout per RFC 791; the fields are read and written through
//! [`crate::header`]. Options are tolerated (IHL > 5) but never
//! generated; the NAT forwards them untouched.

/// Minimum IPv4 header length (IHL = 5, no options).
pub const IPV4_MIN_HEADER_LEN: usize = 20;

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// An IPv4 address stored as four octets.
///
/// We use our own newtype rather than `std::net::Ipv4Addr` so the
/// verification layers can treat addresses as plain 32-bit values and so
/// conversions to/from wire format stay explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ip4(pub u32);

impl Ip4 {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ip4 {
        Ip4(u32::from_be_bytes([a, b, c, d]))
    }

    /// Raw 32-bit value (host order; big-endian byte image of the quad).
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl core::fmt::Display for Ip4 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl From<[u8; 4]> for Ip4 {
    fn from(o: [u8; 4]) -> Self {
        Ip4(u32::from_be_bytes(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::header::{self, rd16, rd32, rd8};
    use crate::{parse_l3l4, ParseError};

    fn frame() -> Vec<u8> {
        PacketBuilder::tcp(Ip4::new(192, 168, 1, 7), Ip4::new(8, 8, 8, 8), 40000, 443)
            .payload(&[1, 2, 3])
            .build()
    }

    /// Rewrite only the addresses, keeping both ports.
    fn rewrite_ips(f: &mut [u8], src: Ip4, dst: Ip4) {
        let l4 = header::l4_offset(f);
        let (sp, dp) = (rd16(f, l4), rd16(f, l4 + 2));
        header::rewrite(f, src.raw(), sp, dst.raw(), dp);
    }

    #[test]
    fn fields_parse() {
        let f = frame();
        let ihl = header::l4_offset(&f) - crate::ETHERNET_HEADER_LEN;
        let total = usize::from(rd16(&f, header::IP_TOTAL_LEN));
        assert_eq!(ihl, 20);
        assert_eq!(rd8(&f, header::IP_PROTO), PROTO_TCP);
        assert_eq!(Ip4(rd32(&f, header::IP_SRC)), Ip4::new(192, 168, 1, 7));
        assert_eq!(Ip4(rd32(&f, header::IP_DST)), Ip4::new(8, 8, 8, 8));
        assert!(header::ipv4_checksum_ok(&f));
        assert_eq!(total, 20 + 20 + 3);
        assert_eq!(total - ihl, 23); // TCP header + payload
    }

    #[test]
    fn bad_version_rejected() {
        let mut f = frame();
        f[header::IP_VERSION_IHL] = 0x65; // version 6
        assert_eq!(parse_l3l4(&f).unwrap_err(), ParseError::BadVersion);
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut f = frame();
        f[header::IP_VERSION_IHL] = 0x44; // IHL = 4 -> 16 bytes, below minimum
        assert!(parse_l3l4(&f).is_err());
    }

    #[test]
    fn total_len_beyond_buffer_rejected() {
        let mut f = frame();
        header::wr16(&mut f, header::IP_TOTAL_LEN, 0xffff);
        assert!(parse_l3l4(&f).is_err());
    }

    #[test]
    fn rewrite_src_preserves_checksum_validity() {
        let mut f = frame();
        rewrite_ips(&mut f, Ip4::new(1, 2, 3, 4), Ip4::new(8, 8, 8, 8));
        assert_eq!(Ip4(rd32(&f, header::IP_SRC)), Ip4::new(1, 2, 3, 4));
        assert!(
            header::ipv4_checksum_ok(&f),
            "incremental update must keep checksum valid"
        );
    }

    #[test]
    fn rewrite_dst_preserves_checksum_validity() {
        let mut f = frame();
        rewrite_ips(
            &mut f,
            Ip4::new(192, 168, 1, 7),
            Ip4::new(172, 16, 254, 254),
        );
        assert_eq!(Ip4(rd32(&f, header::IP_DST)), Ip4::new(172, 16, 254, 254));
        assert!(header::ipv4_checksum_ok(&f));
    }

    #[test]
    fn ttl_decrement_preserves_checksum_validity() {
        let mut f = frame();
        header::decrement_ttl(&mut f);
        assert_eq!(rd8(&f, header::IP_TTL), 63);
        assert!(header::ipv4_checksum_ok(&f));
    }

    #[test]
    fn display() {
        assert_eq!(Ip4::new(10, 1, 2, 3).to_string(), "10.1.2.3");
    }
}
