//! The paper's §3 worked example: the discard-protocol NF.
//!
//! An infinite loop receives packets, discards the ones addressed to
//! port 9 (RFC 863), buffers the rest in a libVig ring, and forwards
//! them when the link is free. The paper uses this NF to explain the
//! whole Vigor methodology; here it runs against the contract-checked
//! ring ([`libvig::ring::CheckedRing`]) and the trace-level spec
//! ([`vig_spec::discard::DiscardSpec`]), so both of the paper's target
//! properties are machine-checked throughout the run:
//!
//! 1. no emitted packet has target port 9;
//! 2. forwarding is FIFO, duplicate-free, and never invents packets.
//!
//! ```sh
//! cargo run --example discard_nf
//! ```

use vignat_repro::libvig::ring::CheckedRing;
use vignat_repro::spec::discard::{DiscardEvent, DiscardSpec};

/// The NF's packet, as in the paper's Fig. 1: just a target port (we
/// add an identity tag so the spec can detect reordering).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Packet {
    port: u16,
    tag: u64,
}

/// The loop invariant of the paper's Fig. 2: every packet stored in the
/// ring has target port != 9.
fn packet_constraints(p: &Packet) -> bool {
    p.port != 9
}

fn main() {
    const CAP: usize = 512; // the paper's Fig. 1, line 1

    let mut ring = CheckedRing::with_constraint(CAP, packet_constraints);
    let mut spec = DiscardSpec::new();

    // A deterministic traffic source: a mix of ports, one in six is the
    // discard port 9; the "link" is free two iterations out of three.
    let ports = [80u16, 9, 443, 53, 9, 8080, 22, 9, 123, 25];
    let mut sent = 0u64;
    let mut discarded = 0u64;

    for i in 0..100_000u64 {
        // -- loop_iteration_begin ------------------------------------
        // receive() + filter + push (Fig. 1 ll.9-11)
        if !ring.is_full() {
            let p = Packet {
                port: ports[(i as usize) % ports.len()],
                tag: i,
            };
            spec.observe(DiscardEvent::Received {
                port: p.port,
                tag: p.tag,
            })
            .expect("receive can never violate the spec");
            if p.port != 9 {
                ring.push_back(p).expect("guarded by !is_full");
            } else {
                discarded += 1;
            }
        }
        // can_send() + pop + send (Fig. 1 ll.12-14)
        let can_send = i % 3 != 0;
        if !ring.is_empty() && can_send {
            let p = ring.pop_front().expect("guarded by !is_empty");
            // The paper's target property, checked by the spec on every
            // send: port != 9, in order, exactly once.
            spec.observe(DiscardEvent::Sent {
                port: p.port,
                tag: p.tag,
            })
            .unwrap_or_else(|v| panic!("spec violation: {v}"));
            sent += 1;
        }
        // -- loop_iteration_end --------------------------------------
    }

    println!("discard NF ran 100,000 iterations under full spec checking:");
    println!("  forwarded: {sent}");
    println!("  discarded (port 9): {discarded}");
    println!("  still buffered: {}", spec.in_flight());
    assert!(discarded > 0 && sent > 0);

    // Show the spec catching the §3 bug: an NF that forgets the filter.
    let mut buggy_spec = DiscardSpec::new();
    buggy_spec
        .observe(DiscardEvent::Received { port: 9, tag: 1 })
        .unwrap();
    let err = buggy_spec
        .observe(DiscardEvent::Sent { port: 9, tag: 1 })
        .expect_err("forwarding port 9 must be flagged");
    println!("\nbuggy variant correctly rejected: {err}");
}
