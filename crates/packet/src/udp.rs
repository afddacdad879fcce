//! UDP header constants; the fields are read and written through
//! [`crate::header`].

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::checksum::l4_checksum;
    use crate::header::{self, rd16, UDP_CHECKSUM, UDP_LEN};
    use crate::ipv4::{Ip4, PROTO_UDP};
    use crate::{parse_l3l4, Layer, ParseError, ETHERNET_HEADER_LEN, IPV4_MIN_HEADER_LEN};

    const SRC: Ip4 = Ip4::new(10, 0, 0, 9);
    const DST: Ip4 = Ip4::new(4, 4, 4, 4);
    const L4: usize = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN;

    fn udp_frame() -> Vec<u8> {
        PacketBuilder::udp(SRC, DST, 1234, 53)
            .payload(b"dns?")
            .build()
    }

    fn l4_verifies(frame: &[u8]) -> bool {
        let mut copy = frame[L4..].to_vec();
        copy[6] = 0;
        copy[7] = 0;
        l4_checksum(SRC.raw(), DST.raw(), PROTO_UDP, &copy) == rd16(frame, L4 + UDP_CHECKSUM)
    }

    #[test]
    fn builder_produces_valid_checksum() {
        assert!(l4_verifies(&udp_frame()));
    }

    #[test]
    fn rewrite_ports_keeps_checksum_valid() {
        let mut f = udp_frame();
        header::rewrite(&mut f, SRC.raw(), 40001, DST.raw(), 5353);
        assert!(l4_verifies(&f));
        let (_, ff) = parse_l3l4(&f).unwrap();
        assert_eq!(ff.src_port, 40001);
        assert_eq!(ff.dst_port, 5353);
    }

    #[test]
    fn zero_checksum_stays_zero_on_rewrite() {
        let mut f = PacketBuilder::udp(SRC, DST, 1234, 53)
            .payload(b"dns?")
            .no_udp_checksum()
            .build();
        header::rewrite(&mut f, 0x01020304, 999, DST.raw(), 53);
        assert_eq!(
            rd16(&f, L4 + UDP_CHECKSUM),
            0,
            "absent checksum must stay absent"
        );
    }

    #[test]
    fn bad_length_rejected() {
        let mut f = udp_frame();
        header::wr16(&mut f, L4 + UDP_LEN, 7); // < header
        assert_eq!(
            parse_l3l4(&f),
            Err(ParseError::BadLength { layer: Layer::Udp })
        );
        header::wr16(&mut f, L4 + UDP_LEN, 200); // > datagram
        assert_eq!(
            parse_l3l4(&f),
            Err(ParseError::BadLength { layer: Layer::Udp })
        );
    }

    #[test]
    fn short_rejected() {
        // A datagram whose L4 room is 7 bytes, one short of a UDP header.
        let mut f = udp_frame();
        f.truncate(L4 + 7);
        header::wr16(&mut f, header::IP_TOTAL_LEN, 20 + 7);
        assert_eq!(
            parse_l3l4(&f),
            Err(ParseError::Truncated {
                layer: Layer::Udp,
                have: 7,
                need: UDP_HEADER_LEN
            })
        );
    }
}
