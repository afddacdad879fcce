//! The value domain the stateless NAT code is written over.
//!
//! Every integer the stateless code touches — header fields, times,
//! ports — has type `D::U8/U16/U32/U64` for a [`Domain`] `D`, and every
//! operation on them goes through a `Domain` method. Two implementations
//! exist:
//!
//! * [`Concrete`] — the datapath: all associated types are plain machine
//!   integers and every method is an `#[inline]` one-liner, so the
//!   monomorphized loop is exactly the code one would write by hand;
//! * the validator's symbolic domain — every value is a term in an
//!   expression arena, comparisons build constraint atoms, and
//!   arithmetic additionally emits **proof obligations** (no
//!   overflow/underflow), which is how the paper's P2 low-level
//!   properties are discharged for the arithmetic the NAT performs.
//!
//! It lives in the spec crate because [`crate::rfc3022::decide`] is
//! written over it too; `vignat::domain` re-exports it.
//!
//! Contract on arithmetic: `add_u16`, `add_u64` and `sub_u64` are only
//! called on paths where the result cannot wrap; the concrete domain
//! `debug_assert`s this, the symbolic domain *proves* it per path. This
//! mirrors the paper's "integer over/underflow" UBSan obligations (§4.2).

/// The value domain. See module docs.
///
/// Methods take `&mut self` because symbolic domains allocate terms in
/// an arena; [`Concrete`] is a zero-sized type and ignores the receiver.
pub trait Domain {
    /// Boolean values (concrete `bool` / symbolic proposition).
    type B: Clone + core::fmt::Debug;
    /// 8-bit values.
    type U8: Clone + core::fmt::Debug;
    /// 16-bit values.
    type U16: Clone + core::fmt::Debug;
    /// 32-bit values.
    type U32: Clone + core::fmt::Debug;
    /// 64-bit values.
    type U64: Clone + core::fmt::Debug;

    /// Constant boolean.
    fn c_bool(&mut self, v: bool) -> Self::B;
    /// Constant u8.
    fn c_u8(&mut self, v: u8) -> Self::U8;
    /// Constant u16.
    fn c_u16(&mut self, v: u16) -> Self::U16;
    /// Constant u32.
    fn c_u32(&mut self, v: u32) -> Self::U32;
    /// Constant u64.
    fn c_u64(&mut self, v: u64) -> Self::U64;

    /// `a == b` over u8.
    fn eq_u8(&mut self, a: &Self::U8, b: &Self::U8) -> Self::B;
    /// `a == b` over u16.
    fn eq_u16(&mut self, a: &Self::U16, b: &Self::U16) -> Self::B;
    /// `a == b` over u32.
    fn eq_u32(&mut self, a: &Self::U32, b: &Self::U32) -> Self::B;
    /// `a == b` over u64.
    fn eq_u64(&mut self, a: &Self::U64, b: &Self::U64) -> Self::B;

    /// `a < b` over u16.
    fn lt_u16(&mut self, a: &Self::U16, b: &Self::U16) -> Self::B;
    /// `a <= b` over u16.
    fn le_u16(&mut self, a: &Self::U16, b: &Self::U16) -> Self::B;
    /// `a < b` over u64.
    fn lt_u64(&mut self, a: &Self::U64, b: &Self::U64) -> Self::B;
    /// `a <= b` over u64.
    fn le_u64(&mut self, a: &Self::U64, b: &Self::U64) -> Self::B;

    /// Logical conjunction.
    fn and(&mut self, a: &Self::B, b: &Self::B) -> Self::B;
    /// Logical disjunction.
    fn or(&mut self, a: &Self::B, b: &Self::B) -> Self::B;
    /// Logical negation.
    fn not(&mut self, a: &Self::B) -> Self::B;

    /// `a + b` over u16. **Obligation: must not wrap** on the calling
    /// path.
    fn add_u16(&mut self, a: &Self::U16, b: &Self::U16) -> Self::U16;
    /// `a + b` over u64. **Obligation: must not wrap.**
    fn add_u64(&mut self, a: &Self::U64, b: &Self::U64) -> Self::U64;
    /// `a - b` over u64. **Obligation: `b <= a`** on the calling path.
    fn sub_u64(&mut self, a: &Self::U64, b: &Self::U64) -> Self::U64;
    /// `a - b` over u16. **Obligation: `b <= a`** on the calling path.
    fn sub_u16(&mut self, a: &Self::U16, b: &Self::U16) -> Self::U16;

    /// `a & mask` over u8 (header nibble/flag extraction).
    fn and_u8(&mut self, a: &Self::U8, mask: u8) -> Self::U8;
    /// `a & mask` over u16 (fragment-field extraction).
    fn and_u16(&mut self, a: &Self::U16, mask: u16) -> Self::U16;
    /// `a >> shift` over u8.
    fn shr_u8(&mut self, a: &Self::U8, shift: u32) -> Self::U8;
    /// `a << shift` over u8. **Obligation: must not shift bits out** —
    /// used for `IHL * 4`, where the prior `& 0x0f` bounds the operand.
    fn shl_u8(&mut self, a: &Self::U8, shift: u32) -> Self::U8;
    /// Zero-extend u8 to u16.
    fn u8_to_u16(&mut self, a: &Self::U8) -> Self::U16;
}

/// The datapath domain: plain machine integers, zero overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Concrete;

impl Domain for Concrete {
    crate::concrete_domain_items!();
}

/// The associated types and methods of the concrete (machine-integer)
/// [`Domain`], for expansion *inside* an `impl Domain for …` block:
/// [`Concrete`]'s own, and that of the generic concrete environment
/// (which writes its `impl<…> Domain for …` header itself). One body,
/// so the two cannot drift; every method is an `#[inline(always)]`
/// one-liner.
#[macro_export]
macro_rules! concrete_domain_items {
    () => {
        type B = bool;
        type U8 = u8;
        type U16 = u16;
        type U32 = u32;
        type U64 = u64;

        #[inline(always)]
        fn c_bool(&mut self, v: bool) -> bool {
            v
        }
        #[inline(always)]
        fn c_u8(&mut self, v: u8) -> u8 {
            v
        }
        #[inline(always)]
        fn c_u16(&mut self, v: u16) -> u16 {
            v
        }
        #[inline(always)]
        fn c_u32(&mut self, v: u32) -> u32 {
            v
        }
        #[inline(always)]
        fn c_u64(&mut self, v: u64) -> u64 {
            v
        }
        #[inline(always)]
        fn eq_u8(&mut self, a: &u8, b: &u8) -> bool {
            a == b
        }
        #[inline(always)]
        fn eq_u16(&mut self, a: &u16, b: &u16) -> bool {
            a == b
        }
        #[inline(always)]
        fn eq_u32(&mut self, a: &u32, b: &u32) -> bool {
            a == b
        }
        #[inline(always)]
        fn eq_u64(&mut self, a: &u64, b: &u64) -> bool {
            a == b
        }
        #[inline(always)]
        fn lt_u16(&mut self, a: &u16, b: &u16) -> bool {
            a < b
        }
        #[inline(always)]
        fn le_u16(&mut self, a: &u16, b: &u16) -> bool {
            a <= b
        }
        #[inline(always)]
        fn lt_u64(&mut self, a: &u64, b: &u64) -> bool {
            a < b
        }
        #[inline(always)]
        fn le_u64(&mut self, a: &u64, b: &u64) -> bool {
            a <= b
        }
        #[inline(always)]
        fn and(&mut self, a: &bool, b: &bool) -> bool {
            *a && *b
        }
        #[inline(always)]
        fn or(&mut self, a: &bool, b: &bool) -> bool {
            *a || *b
        }
        #[inline(always)]
        fn not(&mut self, a: &bool) -> bool {
            !*a
        }
        #[inline(always)]
        fn add_u16(&mut self, a: &u16, b: &u16) -> u16 {
            debug_assert!(a.checked_add(*b).is_some(), "add_u16 obligation violated");
            a.wrapping_add(*b)
        }
        #[inline(always)]
        fn add_u64(&mut self, a: &u64, b: &u64) -> u64 {
            debug_assert!(a.checked_add(*b).is_some(), "add_u64 obligation violated");
            a.wrapping_add(*b)
        }
        #[inline(always)]
        fn sub_u64(&mut self, a: &u64, b: &u64) -> u64 {
            debug_assert!(b <= a, "sub_u64 obligation violated");
            a.wrapping_sub(*b)
        }
        #[inline(always)]
        fn sub_u16(&mut self, a: &u16, b: &u16) -> u16 {
            debug_assert!(b <= a, "sub_u16 obligation violated");
            a.wrapping_sub(*b)
        }
        #[inline(always)]
        fn and_u8(&mut self, a: &u8, mask: u8) -> u8 {
            a & mask
        }
        #[inline(always)]
        fn and_u16(&mut self, a: &u16, mask: u16) -> u16 {
            a & mask
        }
        #[inline(always)]
        fn shr_u8(&mut self, a: &u8, shift: u32) -> u8 {
            a >> shift
        }
        #[inline(always)]
        fn shl_u8(&mut self, a: &u8, shift: u32) -> u8 {
            debug_assert!(
                a.checked_shl(shift).is_some_and(|r| r == (a << shift)),
                "shl_u8 obligation"
            );
            a << shift
        }
        #[inline(always)]
        fn u8_to_u16(&mut self, a: &u8) -> u16 {
            u16::from(*a)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_ops_are_plain_arithmetic() {
        let mut d = Concrete;
        assert!(d.eq_u16(&5, &5));
        assert!(!d.eq_u32(&1, &2));
        assert!(d.lt_u64(&1, &2));
        assert!(d.le_u16(&2, &2));
        assert_eq!(d.add_u16(&1000, &24), 1024);
        assert_eq!(d.sub_u64(&10, &4), 6);
        assert_eq!(d.and_u8(&0x45, 0x0f), 5);
        assert_eq!(d.shr_u8(&0x45, 4), 4);
        assert_eq!(d.shl_u8(&5, 2), 20);
        assert_eq!(d.u8_to_u16(&0xff), 255);
        let t = d.c_bool(true);
        let f = d.not(&t);
        assert!(d.or(&t, &f));
        assert!(!d.and(&t, &f));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "add_u16 obligation")]
    fn concrete_add_checks_obligation_in_debug() {
        let mut d = Concrete;
        let _ = d.add_u16(&65535, &1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sub_u64 obligation")]
    fn concrete_sub_checks_obligation_in_debug() {
        let mut d = Concrete;
        let _ = d.sub_u64(&1, &2);
    }
}
