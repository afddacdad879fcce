//! Ethernet II framing.
//!
//! Only untagged Ethernet II frames are supported — the same restriction
//! smoltcp documents and the one VigNAT's testbed used (no 802.1Q). The
//! header's fields are read and written through [`crate::header`].

/// Length of an Ethernet II header: two MACs plus the EtherType.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// A locally administered unicast address derived from a small id;
    /// handy for giving simulated devices distinct, readable MACs.
    pub fn local(id: u8) -> MacAddr {
        MacAddr([0x02, 0, 0, 0, 0, id])
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An EtherType value (big-endian u16 on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4.
    pub const IPV4: EtherType = EtherType(0x0800);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::header::{rd16, ETHERTYPE, ETH_DST, ETH_SRC};
    use crate::ipv4::Ip4;
    use crate::{parse_l3l4, Layer, ParseError};

    #[test]
    fn accessors_roundtrip() {
        let buf = PacketBuilder::udp(Ip4::new(1, 1, 1, 1), Ip4::new(2, 2, 2, 2), 1, 2)
            .pad_to(64)
            .build();
        assert_eq!(buf[ETH_DST..ETH_DST + 6], MacAddr::local(2).0);
        assert_eq!(buf[ETH_SRC..ETH_SRC + 6], MacAddr::local(1).0);
        assert_eq!(rd16(&buf, ETHERTYPE), EtherType::IPV4.0);
        assert_eq!(buf.len() - ETHERNET_HEADER_LEN, 50);
    }

    #[test]
    fn short_buffer_fails() {
        for len in [0, 13] {
            assert_eq!(
                parse_l3l4(&[0u8; 13][..len]),
                Err(ParseError::Truncated {
                    layer: Layer::Ethernet,
                    have: len,
                    need: ETHERNET_HEADER_LEN
                })
            );
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(MacAddr::local(0x0a).to_string(), "02:00:00:00:00:0a");
    }
}
