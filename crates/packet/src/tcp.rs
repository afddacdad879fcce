//! TCP header constants — only what a NAT needs.
//!
//! A Traditional NAT (RFC 3022) rewrites ports and updates the TCP
//! checksum ([`crate::header::rewrite`]); it does not track sequence
//! numbers, and reads the flag byte only to pick a flow's timeout class.

/// Minimum TCP header length (data offset = 5).
pub const TCP_MIN_HEADER_LEN: usize = 20;

/// TCP flag bits (subset relevant to NAT session heuristics).
pub mod flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// ACK.
    pub const ACK: u8 = 0x10;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::checksum::l4_checksum;
    use crate::header::{self, rd16, TCP_CHECKSUM, TCP_DATA_OFFSET};
    use crate::ipv4::{Ip4, PROTO_TCP};
    use crate::{parse_l3l4, Layer, ParseError, ETHERNET_HEADER_LEN, IPV4_MIN_HEADER_LEN};

    const L4: usize = ETHERNET_HEADER_LEN + IPV4_MIN_HEADER_LEN;

    fn tcp_frame() -> Vec<u8> {
        PacketBuilder::tcp(Ip4::new(10, 0, 0, 2), Ip4::new(1, 1, 1, 1), 33333, 443)
            .payload(b"GET /")
            .build()
    }

    fn l4_verifies(frame: &[u8]) -> bool {
        let src = Ip4::new(10, 0, 0, 2).raw();
        let dst = Ip4::new(1, 1, 1, 1).raw();
        let mut copy = frame[L4..].to_vec();
        copy[16] = 0;
        copy[17] = 0;
        let expect = l4_checksum(src, dst, PROTO_TCP, &copy);
        let got = rd16(frame, L4 + TCP_CHECKSUM);
        expect == got
    }

    /// Rewrite only the ports, keeping both addresses.
    fn rewrite_ports(f: &mut [u8], src_port: u16, dst_port: u16) {
        let (src, dst) = (
            header::rd32(f, header::IP_SRC),
            header::rd32(f, header::IP_DST),
        );
        header::rewrite(f, src, src_port, dst, dst_port);
    }

    #[test]
    fn builder_produces_valid_checksum() {
        let f = tcp_frame();
        assert!(l4_verifies(&f));
    }

    #[test]
    fn ports_parse() {
        let f = tcp_frame();
        let (off, ff) = parse_l3l4(&f).unwrap();
        assert_eq!(off.l4, L4);
        assert_eq!(ff.src_port, 33333);
        assert_eq!(ff.dst_port, 443);
        assert_eq!(usize::from(f[L4 + TCP_DATA_OFFSET] >> 4) * 4, 20);
    }

    #[test]
    fn rewrite_src_port_keeps_checksum_valid() {
        let mut f = tcp_frame();
        rewrite_ports(&mut f, 61000, 443);
        assert!(l4_verifies(&f));
        assert_eq!(parse_l3l4(&f).unwrap().1.src_port, 61000);
    }

    #[test]
    fn rewrite_dst_port_keeps_checksum_valid() {
        let mut f = tcp_frame();
        rewrite_ports(&mut f, 33333, 8080);
        assert!(l4_verifies(&f));
    }

    #[test]
    fn short_buffer_rejected() {
        // A datagram whose L4 room is 19 bytes, one short of a TCP header.
        let mut f = tcp_frame();
        f.truncate(L4 + 19);
        header::wr16(&mut f, header::IP_TOTAL_LEN, 20 + 19);
        assert_eq!(
            parse_l3l4(&f),
            Err(ParseError::Truncated {
                layer: Layer::Tcp,
                have: 19,
                need: TCP_MIN_HEADER_LEN
            })
        );
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut f = tcp_frame();
        f[L4 + TCP_DATA_OFFSET] = 0x40; // data offset 4 -> 16 bytes < 20
        assert_eq!(
            parse_l3l4(&f),
            Err(ParseError::BadLength { layer: Layer::Tcp })
        );
        f[L4 + TCP_DATA_OFFSET] = 0xf0; // data offset 15 -> 60 bytes > segment
        assert_eq!(
            parse_l3l4(&f),
            Err(ParseError::BadLength { layer: Layer::Tcp })
        );
    }
}
