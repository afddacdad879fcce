//! The `nf_time` abstraction.
//!
//! libVig exposes time to NFs through an interface rather than a syscall
//! so that (a) the symbolic models can return symbolic time, and (b) the
//! simulator can drive NFs with a virtual clock. Here the interface is
//! `vignat::env::NatEnv::now`, and every driver passes the instant in
//! as a [`Time`] value (`now: Time`): a test or a simulation picks it,
//! a live driver reads its own monotonic clock. Time is a monotonic
//! nanosecond counter; the NAT only ever compares times and adds
//! constants, so a plain `u64` with checked arithmetic suffices.

/// A point in time, in nanoseconds since an arbitrary epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The epoch.
    pub const ZERO: Time = Time(0);

    /// Build from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Build from milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Build from microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Nanosecond value.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration in nanoseconds.
    #[must_use]
    pub const fn plus(self, nanos: u64) -> Time {
        Time(self.0.saturating_add(nanos))
    }

    /// Saturating subtraction of a duration in nanoseconds. The NAT uses
    /// this to compute the expiry threshold `now - Texp`; saturating at
    /// zero means "nothing can be expired yet", which is the correct
    /// semantics right after boot.
    #[must_use]
    pub const fn minus(self, nanos: u64) -> Time {
        Time(self.0.saturating_sub(nanos))
    }
}

impl core::fmt::Display for Time {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}.{:09}s",
            self.0 / 1_000_000_000,
            self.0 % 1_000_000_000
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Time::from_secs(2), Time(2_000_000_000));
        assert_eq!(Time::from_millis(3), Time(3_000_000));
        assert_eq!(Time::from_micros(5), Time(5_000));
    }

    #[test]
    fn minus_saturates_at_zero() {
        assert_eq!(Time::from_secs(1).minus(2_000_000_000), Time::ZERO);
    }

    #[test]
    fn plus_saturates_at_max() {
        assert_eq!(Time(u64::MAX).plus(10), Time(u64::MAX));
    }

    #[test]
    fn display() {
        assert_eq!(Time::from_secs(1).plus(5).to_string(), "1.000000005s");
    }
}
