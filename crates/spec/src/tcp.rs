//! The TCP connection tracker shared by the spec, the verified flow
//! table, and the netfilter baseline.
//!
//! A NAT does not terminate TCP, so the tracker is deliberately loose
//! (netfilter-style "pickup" semantics): it watches SYN/FIN/RST flags
//! to decide how *long* a mapping should live (RFC 5382 distinguishes
//! transitory from established lifetimes), never whether a segment is
//! sequence-valid. All three NATs — the executable spec, the verified
//! `FlowManager`, and the `netfilter` baseline — call exactly these two
//! functions, so a disagreement between them can only come from how the
//! resulting timeout class is *applied*, which is what the differential
//! suites pin down.
//!
//! The state machine (NEW → SYN_SENT → SYN_RECV → ESTABLISHED →
//! FIN_WAIT / CLOSED):
//!
//! * a mapping created by a SYN starts in [`TcpState::SynSent`];
//! * the peer's SYN(+ACK) moves it to [`TcpState::SynRecv`];
//! * the initiator's following ACK completes the handshake
//!   ([`TcpState::Established`]);
//! * a FIN from either side enters [`TcpState::FinWait`] (covering
//!   simultaneous close: a second FIN keeps it there);
//! * an RST from either side kills the session ([`TcpState::Closed`]);
//! * a fresh SYN from the inside reopens a closed/closing session.
//!
//! Mid-stream pickup: a mapping created by a non-SYN, non-RST segment
//! (e.g. a bare ACK after a NAT restart) is treated as established —
//! the netfilter `loose` behaviour. All states except `Established`
//! use the transitory lifetime, so half-open, closing, and reset
//! sessions age out quickly while live connections get the long
//! RFC 5382 timer.

use vig_packet::tcp::flags;
use vig_packet::{Direction, Proto};

/// Per-flow TCP connection state (see module docs for the machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// Internal SYN seen, no reply yet.
    SynSent,
    /// External SYN(+ACK) seen, handshake not yet acknowledged.
    SynRecv,
    /// Handshake complete (or mid-stream pickup): the long lifetime.
    Established,
    /// A FIN has been seen from either side (covers simultaneous
    /// close); the mapping ages out on the transitory timer.
    FinWait,
    /// An RST killed the session; the mapping ages out quickly.
    Closed,
}

impl TcpState {
    /// The timeout class this state selects (RFC 5382: only fully
    /// established sessions earn the long lifetime).
    pub fn class(self) -> TimeoutClass {
        match self {
            TcpState::Established => TimeoutClass::TcpEstablished,
            _ => TimeoutClass::TcpTransitory,
        }
    }
}

/// Which timeout a flow's next expiry uses. Ordered so it can index
/// per-class structures (the flow table's LRU lists) densely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeoutClass {
    /// UDP flows: the paper's single `Texp`.
    Udp,
    /// TCP in any non-established state (RFC 5382 transitory).
    TcpTransitory,
    /// TCP established (RFC 5382 `TCP_EST`).
    TcpEstablished,
}

impl TimeoutClass {
    /// All classes, in index order.
    pub const ALL: [TimeoutClass; 3] = [
        TimeoutClass::Udp,
        TimeoutClass::TcpTransitory,
        TimeoutClass::TcpEstablished,
    ];

    /// Dense index (0..3) for per-class storage.
    pub fn index(self) -> usize {
        match self {
            TimeoutClass::Udp => 0,
            TimeoutClass::TcpTransitory => 1,
            TimeoutClass::TcpEstablished => 2,
        }
    }
}

/// The state a freshly created mapping starts in, from the first
/// segment's flags. Only internal packets create mappings, so there is
/// no direction argument.
pub fn initial_state(tcp_flags: u8) -> TcpState {
    if tcp_flags & flags::RST != 0 {
        TcpState::Closed
    } else if tcp_flags & flags::SYN != 0 {
        // SYN+FIN and other absurd combinations count as a connection
        // attempt: transitory lifetime, never established.
        TcpState::SynSent
    } else if tcp_flags & flags::FIN != 0 {
        TcpState::FinWait
    } else {
        // Mid-stream pickup (bare ACK / data): treat as established.
        TcpState::Established
    }
}

/// One step of the tracker: the session was in `state` and a segment
/// with `tcp_flags` arrived from `dir`.
pub fn transition(state: TcpState, dir: Direction, tcp_flags: u8) -> TcpState {
    if tcp_flags & flags::RST != 0 {
        return TcpState::Closed;
    }
    if tcp_flags & flags::FIN != 0 {
        // A FIN in any live state begins (or continues) the close; a
        // FIN for an already-reset session leaves it closed.
        return match state {
            TcpState::Closed => TcpState::Closed,
            _ => TcpState::FinWait,
        };
    }
    if tcp_flags & flags::SYN != 0 {
        return match (state, dir) {
            // The peer's SYN(+ACK) answers ours.
            (TcpState::SynSent, Direction::External) => TcpState::SynRecv,
            // The inside reopens a closing/closed session.
            (TcpState::FinWait | TcpState::Closed, Direction::Internal) => TcpState::SynSent,
            // Retransmitted or out-of-place SYNs change nothing.
            _ => state,
        };
    }
    if tcp_flags & flags::ACK != 0 {
        return match (state, dir) {
            // The initiator's ACK completes the handshake.
            (TcpState::SynRecv, Direction::Internal) => TcpState::Established,
            _ => state,
        };
    }
    state
}

/// The timeout class of a flow: UDP flows have no connection state;
/// TCP flows are classed by their tracker state.
pub fn class_of(proto: Proto, state: Option<TcpState>) -> TimeoutClass {
    match proto {
        Proto::Udp => TimeoutClass::Udp,
        Proto::Tcp => state.map_or(TimeoutClass::TcpTransitory, TcpState::class),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const I: Direction = Direction::Internal;
    const E: Direction = Direction::External;

    #[test]
    fn three_way_handshake_reaches_established() {
        let s = initial_state(flags::SYN);
        assert_eq!(s, TcpState::SynSent);
        let s = transition(s, E, flags::SYN | flags::ACK);
        assert_eq!(s, TcpState::SynRecv);
        let s = transition(s, I, flags::ACK);
        assert_eq!(s, TcpState::Established);
        assert_eq!(s.class(), TimeoutClass::TcpEstablished);
        // Data segments keep it established.
        assert_eq!(transition(s, I, flags::ACK), TcpState::Established);
        assert_eq!(transition(s, E, flags::ACK), TcpState::Established);
    }

    #[test]
    fn fin_and_rst_leave_established() {
        let est = TcpState::Established;
        assert_eq!(
            transition(est, I, flags::FIN | flags::ACK),
            TcpState::FinWait
        );
        assert_eq!(transition(est, E, flags::RST), TcpState::Closed);
        assert_eq!(est.class(), TimeoutClass::TcpEstablished);
        assert_eq!(TcpState::FinWait.class(), TimeoutClass::TcpTransitory);
        assert_eq!(TcpState::Closed.class(), TimeoutClass::TcpTransitory);
    }

    #[test]
    fn simultaneous_close_stays_in_fin_wait() {
        let s = transition(TcpState::Established, I, flags::FIN | flags::ACK);
        let s = transition(s, E, flags::FIN | flags::ACK);
        assert_eq!(s, TcpState::FinWait);
        // The trailing ACKs of the close don't resurrect the session.
        let s = transition(s, I, flags::ACK);
        assert_eq!(s, TcpState::FinWait);
    }

    #[test]
    fn rst_beats_every_other_flag() {
        for st in [
            TcpState::SynSent,
            TcpState::SynRecv,
            TcpState::Established,
            TcpState::FinWait,
            TcpState::Closed,
        ] {
            for dir in [I, E] {
                assert_eq!(
                    transition(st, dir, flags::RST | flags::SYN | flags::FIN | flags::ACK),
                    TcpState::Closed
                );
            }
        }
    }

    #[test]
    fn internal_syn_reopens_closed_session() {
        assert_eq!(
            transition(TcpState::Closed, I, flags::SYN),
            TcpState::SynSent
        );
        assert_eq!(
            transition(TcpState::FinWait, I, flags::SYN),
            TcpState::SynSent
        );
        // An outside SYN does not: unsolicited connection attempts
        // through an existing mapping stay transitory.
        assert_eq!(
            transition(TcpState::Closed, E, flags::SYN),
            TcpState::Closed
        );
    }

    #[test]
    fn syn_fin_is_a_transitory_connection_attempt() {
        let s = initial_state(flags::SYN | flags::FIN);
        assert_eq!(s, TcpState::SynSent);
        assert_eq!(s.class(), TimeoutClass::TcpTransitory);
    }

    #[test]
    fn midstream_pickup_is_established() {
        assert_eq!(initial_state(flags::ACK), TcpState::Established);
        assert_eq!(initial_state(0), TcpState::Established);
        assert_eq!(initial_state(flags::RST), TcpState::Closed);
        assert_eq!(initial_state(flags::FIN), TcpState::FinWait);
    }

    #[test]
    fn class_of_udp_ignores_state() {
        assert_eq!(class_of(Proto::Udp, None), TimeoutClass::Udp);
        assert_eq!(
            class_of(Proto::Udp, Some(TcpState::Established)),
            TimeoutClass::Udp
        );
        assert_eq!(
            class_of(Proto::Tcp, Some(TcpState::Established)),
            TimeoutClass::TcpEstablished
        );
        assert_eq!(class_of(Proto::Tcp, None), TimeoutClass::TcpTransitory);
    }

    #[test]
    fn class_indices_are_dense() {
        for (i, c) in TimeoutClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
