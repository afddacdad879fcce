//! Symbolic traces — the paper's Fig. 9 artifact.
//!
//! A trace records every call the stateless code made across the
//! environment interface during one symbolically executed path, with
//! symbolic terms as arguments/results, plus the path constraints and
//! the low-level proof obligations emitted along the way. The
//! Validator's checks consume these; nothing else re-runs the code.

use crate::sym::Terms;
use vig_packet::Direction;
use vig_spec::rfc3022::{Frame, Tuple};
use vig_symbex::explorer::Decision;
use vig_symbex::solver::Lit;
use vig_symbex::term::{TermArena, TermId};

/// One event on the NAT's traced interface.
#[derive(Debug, Clone)]
pub enum Event {
    /// Clock read; the term is the symbolic `now`.
    Now(TermId),
    /// `expire_flows(threshold)`.
    ExpireFlows {
        /// Threshold term (must be `now - Texp` on guarded paths).
        threshold: TermId,
    },
    /// A packet was received: the frame the loop body read, and the one
    /// the spec's step reads (P1).
    Receive(Frame<Terms>),
    /// `receive` returned nothing.
    NoPacket,
    /// A branch was decided.
    Branch {
        /// The condition term.
        cond: TermId,
        /// Which way it went.
        taken: bool,
    },
    /// Flow lookup by internal 5-tuple.
    LookupInternal {
        /// The flow id.
        fid: Tuple<Terms>,
        /// Hit: (slot, ext_port term). Miss: `None`.
        result: Option<(usize, TermId)>,
        /// Constraints the model assumed on its outputs (P5 checks
        /// these against the contract).
        assumed: Vec<Lit>,
    },
    /// Flow lookup by external key.
    LookupExternal {
        /// The external key.
        ek: Tuple<Terms>,
        /// Hit: (slot, int_ip term, int_port term).
        result: Option<(usize, TermId, TermId)>,
        /// Model-assumed constraints.
        assumed: Vec<Lit>,
    },
    /// Timestamp refresh of a slot.
    Rejuvenate {
        /// The slot.
        slot: usize,
        /// The time term used.
        now: TermId,
    },
    /// Slot allocation.
    AllocateSlot {
        /// Success: (slot, index term). Failure: `None`.
        result: Option<(usize, TermId)>,
        /// Model-assumed constraints.
        assumed: Vec<Lit>,
    },
    /// Flow insertion into a reserved slot.
    InsertFlow {
        /// The slot.
        slot: usize,
        /// The flow id.
        fid: Tuple<Terms>,
        /// The external port term the stateless code computed.
        ext_port: TermId,
    },
    /// Packet transmitted.
    Tx {
        /// Egress interface.
        out: Direction,
        /// The rewritten header.
        hdr: Tuple<Terms>,
    },
    /// Packet dropped.
    DropPkt,
}

/// A low-level proof obligation (P2) emitted by a domain operation.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// The proposition that must hold on this path.
    pub prop: TermId,
    /// Human-readable description ("u16 add must not wrap", ...).
    pub what: &'static str,
}

/// One path's complete symbolic record. `E` is the NF's event
/// vocabulary: the NAT's [`Event`] by default, the discard NF's
/// [`crate::discard::DiscardEvent`].
#[derive(Debug)]
pub struct SymTrace<E = Event> {
    /// Term arena for everything referenced by this trace.
    pub arena: TermArena,
    /// The decision sequence identifying the path.
    pub decisions: Vec<Decision>,
    /// Path constraints (branch conditions + model assumptions).
    pub path: Vec<Lit>,
    /// The event sequence.
    pub events: Vec<E>,
    /// Low-level obligations (P2).
    pub obligations: Vec<Obligation>,
}

impl SymTrace {
    /// The received packet, if this path received one.
    pub fn rx(&self) -> Option<&Frame<Terms>> {
        self.events.iter().find_map(|e| match e {
            Event::Receive(rx) => Some(rx),
            _ => None,
        })
    }

    /// The transmit event, if the path forwarded.
    pub fn tx(&self) -> Option<(&Direction, &Tuple<Terms>)> {
        self.events.iter().find_map(|e| match e {
            Event::Tx { out, hdr } => Some((out, hdr)),
            _ => None,
        })
    }

    /// Did the path drop the packet?
    pub fn dropped(&self) -> bool {
        self.events.iter().any(|e| matches!(e, Event::DropPkt))
    }

    /// Render a compact, paper-Fig.9-style text form of the trace.
    pub fn render(&self) -> String {
        use core::fmt::Write;
        let mut s = String::new();
        for e in &self.events {
            let _ = match e {
                Event::Now(t) => writeln!(s, "now() ==> {}", self.arena.name_of(*t)),
                Event::ExpireFlows { .. } => writeln!(s, "expire_flows(now - Texp)"),
                Event::Receive(rx) => writeln!(s, "receive() ==> packet on {:?}", rx.dir),
                Event::NoPacket => writeln!(s, "receive() ==> none"),
                Event::Branch { taken, .. } => writeln!(s, "branch ==> {taken}"),
                Event::LookupInternal { result, .. } => {
                    writeln!(s, "lookup_internal ==> {:?}", result.map(|(sl, _)| sl))
                }
                Event::LookupExternal { result, .. } => {
                    writeln!(s, "lookup_external ==> {:?}", result.map(|(sl, _, _)| sl))
                }
                Event::Rejuvenate { slot, .. } => writeln!(s, "rejuvenate(slot {slot})"),
                Event::AllocateSlot { result, .. } => {
                    writeln!(s, "allocate_slot ==> {:?}", result.map(|(sl, _)| sl))
                }
                Event::InsertFlow { slot, .. } => writeln!(s, "insert_flow(slot {slot})"),
                Event::Tx { out, .. } => writeln!(s, "tx(out={out:?})"),
                Event::DropPkt => writeln!(s, "drop()"),
            };
        }
        let _ = writeln!(
            s,
            "--- {} path constraints, {} obligations ---",
            self.path.len(),
            self.obligations.len()
        );
        s
    }
}
