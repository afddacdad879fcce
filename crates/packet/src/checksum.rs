//! The internet checksum (RFC 1071) and its incremental update (RFC 1624).
//!
//! NATs rewrite a handful of 16/32-bit header fields per packet; recomputing
//! checksums over the full packet would dominate the per-packet cost, so
//! both VigNAT and this reproduction use the RFC 1624 "equation 3" update:
//!
//! ```text
//! HC' = ~(~HC + ~m + m')
//! ```
//!
//! computed in ones-complement arithmetic, where `m`/`m'` are the old/new
//! field values. [`Checksum`] wraps a checksum field value and applies such
//! updates; a proptest in this module checks the incremental result always
//! equals a from-scratch recomputation.

/// Compute the internet checksum over `data`, returning the value that
/// belongs **in** the checksum field (i.e. already complemented).
///
/// An all-correct buffer (checksum field included) sums to `0`.
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data, 0))
}

/// Ones-complement sum of 16-bit big-endian words, with an odd trailing
/// byte padded with zero, added to an existing partial `acc`.
pub fn sum_words(data: &[u8], acc: u32) -> u32 {
    let mut sum = acc;
    let mut chunks = data.chunks_exact(2);
    for w in &mut chunks {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Fold a 32-bit partial sum to 16 bits (ones-complement carry wraparound).
pub fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Pseudo-header contribution for TCP/UDP checksums over IPv4
/// (src, dst, zero+protocol, L4 length).
pub fn pseudo_header_sum(src: u32, dst: u32, protocol: u8, l4_len: u16) -> u32 {
    (src >> 16)
        + (src & 0xffff)
        + (dst >> 16)
        + (dst & 0xffff)
        + u32::from(protocol)
        + u32::from(l4_len)
}

/// Compute a TCP/UDP checksum field value from the pseudo header and the
/// full L4 segment bytes (with the checksum field zeroed by the caller).
pub fn l4_checksum(src: u32, dst: u32, protocol: u8, l4: &[u8]) -> u16 {
    let acc = pseudo_header_sum(src, dst, protocol, l4.len() as u16);
    let c = !fold(sum_words(l4, acc));
    // Per RFC 768, a computed UDP checksum of 0 is transmitted as 0xffff
    // (0 means "no checksum"). Harmless for TCP, where 0 is just a value,
    // but we keep the substitution TCP-side too for uniformity with how
    // hardware offloads behave; verification treats both as valid.
    if protocol == crate::ipv4::PROTO_UDP && c == 0 {
        0xffff
    } else {
        c
    }
}

/// A checksum *field* value supporting RFC 1624 incremental updates.
///
/// Internally stores the ones-complement of the field (the running sum
/// form), which makes updates compose associatively: updating src-ip then
/// src-port equals updating both in either order.
///
/// The sum is kept unfolded in a `u64` and folded once, in
/// [`Checksum::to_field`]: a NAT rewrite applies up to six 16-bit
/// updates to one sum, and folding after each cost a carry loop per
/// update. Ones-complement addition is addition modulo `0xffff` with
/// zero written `0xffff` unless the sum is zero outright, so one fold at
/// the end gives the per-update folds' bits exactly — including which
/// of `0x0000` and `0xffff` a zero comes out as (a sum of non-negative
/// terms is zero only when every term is, and then every partial fold
/// was zero too). A `u64` cannot overflow: each update adds below 2^17.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl PartialEq for Checksum {
    /// Equal field values, however the sums were reached.
    fn eq(&self, other: &Checksum) -> bool {
        self.to_field() == other.to_field()
    }
}

impl Eq for Checksum {}

impl Checksum {
    /// Wrap the value currently stored in a header's checksum field.
    pub fn from_field(field: u16) -> Checksum {
        Checksum(u64::from(!field))
    }

    /// The value to store back into the header's checksum field.
    pub fn to_field(self) -> u16 {
        let mut sum = self.0;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// RFC 1624 eq. 3 update for one 16-bit field changing `old -> new`.
    #[must_use]
    pub fn update_u16(self, old: u16, new: u16) -> Checksum {
        // HC' = ~(~HC + ~m + m')   — we keep ~HC, unfolded, so:
        Checksum(self.0 + u64::from(!old) + u64::from(new))
    }

    /// Update for a 32-bit field (e.g. an IPv4 address) changing
    /// `old -> new`, applied as two 16-bit updates.
    #[must_use]
    pub fn update_u32(self, old: u32, new: u32) -> Checksum {
        self.update_u16((old >> 16) as u16, (new >> 16) as u16)
            .update_u16(old as u16, new as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // RFC 1071 worked example: the classic test vector.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(sum_words(&data, 0)), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(fold(sum_words(&[0xab], 0)), 0xab00);
    }

    #[test]
    fn empty_is_zero_sum() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_style_zero() {
        // Writing the computed checksum into the buffer makes the total
        // checksum come out as zero.
        let mut data = vec![
            0x45u8, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x68, 0xc0, 0xa8, 0x00, 0x01,
        ];
        let c = checksum(&data);
        data[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(checksum(&data), 0);
    }

    fn recompute_with(buf: &mut [u8], at: usize, new: u16) -> u16 {
        buf[at..at + 2].copy_from_slice(&new.to_be_bytes());
        // zero the checksum field (assume field at offset 10 like IPv4)
        buf[10] = 0;
        buf[11] = 0;
        checksum(buf)
    }

    /// A 16-bit word, half the time one of those where carries and the
    /// two ones-complement zeros live.
    fn word() -> impl Strategy<Value = u16> {
        prop_oneof![
            Just(0u16),
            Just(1),
            Just(0x7fff),
            Just(0x8000),
            Just(0xfffe),
            Just(0xffff),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
        ]
    }

    proptest! {
        /// Incremental update (RFC 1624) == recomputation from scratch,
        /// for arbitrary header contents and arbitrary 16-bit rewrites.
        #[test]
        fn incremental_matches_recompute(
            mut header in proptest::collection::vec(any::<u8>(), 20..=20),
            field_idx in 0usize..9,
            new_val in any::<u16>(),
        ) {
            // pick a 16-bit field not overlapping the checksum at 10..12
            let at = if field_idx >= 5 { field_idx * 2 + 2 } else { field_idx * 2 };
            // install a valid checksum first
            header[10] = 0; header[11] = 0;
            let c0 = checksum(&header);
            header[10..12].copy_from_slice(&c0.to_be_bytes());

            let old = u16::from_be_bytes([header[at], header[at+1]]);
            let inc = Checksum::from_field(c0).update_u16(old, new_val).to_field();

            let mut fresh = header.clone();
            let from_scratch = recompute_with(&mut fresh, at, new_val);

            // Both must verify; ones-complement zero has two forms (0x0000
            // vs 0xffff can both appear as "sum verifies"), so compare by
            // verification rather than bit equality.
            let mut with_inc = header.clone();
            with_inc[at..at+2].copy_from_slice(&new_val.to_be_bytes());
            with_inc[10..12].copy_from_slice(&inc.to_be_bytes());
            prop_assert_eq!(checksum(&with_inc), 0, "incremental result must verify");

            let mut with_fresh = header;
            with_fresh[at..at+2].copy_from_slice(&new_val.to_be_bytes());
            with_fresh[10..12].copy_from_slice(&from_scratch.to_be_bytes());
            prop_assert_eq!(checksum(&with_fresh), 0, "recomputed result must verify");
        }

        /// 32-bit updates equal two independent 16-bit updates in either order.
        #[test]
        fn u32_update_order_independent(field in any::<u16>(), old in any::<u32>(), new in any::<u32>()) {
            let a = Checksum::from_field(field).update_u32(old, new);
            let b = Checksum::from_field(field)
                .update_u16(old as u16, new as u16)
                .update_u16((old >> 16) as u16, (new >> 16) as u16);
            prop_assert_eq!(a.to_field(), b.to_field());
        }

        /// Updating a field to itself is the identity.
        #[test]
        fn self_update_is_identity(field in any::<u16>(), v in any::<u16>()) {
            let c = Checksum::from_field(field).update_u16(v, v);
            // ones-complement identity: result verifies the same sums
            prop_assert_eq!(fold(u32::from(!c.to_field())), fold(u32::from(!field)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        /// One fold at the end equals a fold after every update, bit for
        /// bit — `0x0000` and `0xffff` included — over sequences of one
        /// to ten updates whose words are biased to the values where
        /// carries and the two zeros live. The oracle is the
        /// per-update-fold form `Checksum` used to compute (a 32-bit
        /// update is two 16-bit ones).
        #[test]
        fn unfolded_sum_equals_per_update_folds(
            field in word(),
            updates in proptest::collection::vec((word(), word()), 1..=10),
        ) {
            let mut c = Checksum::from_field(field);
            let mut oracle = !field;
            for &(old, new) in &updates {
                c = c.update_u16(old, new);
                oracle = fold(u32::from(oracle) + u32::from(!old) + u32::from(new));
            }
            prop_assert_eq!(c.to_field(), !oracle);
        }
    }
}
