//! The verification conditions: P2, P4, P5, P1 (paper §5.2.1–§5.2.4).
//!
//! All checks are per-trace and independent, which is what makes
//! validation "highly parallelizable" (§5.2.2). Every check discharges
//! its conditions with the symbex solver; a check only passes when the
//! solver *proves* the condition, so the one-sided soundness of the
//! solver carries over to the whole pipeline.

use crate::trace::{Event, SymRx, SymTrace};
use vig_packet::Direction;
use vig_spec::NatConfig;
use vig_symbex::solver::{Lit, Solver};
use vig_symbex::term::{TermArena, TermId, Width};

/// A failed verification condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// Which property failed: "P1", "P2", "P4" or "P5" — or "ESE" when
    /// symbolic execution refused the configuration (outside the
    /// models' scope, or rejected by `check_config`) or exceeded its
    /// path bound, so that no trace reached the checks.
    pub property: &'static str,
    /// What exactly could not be proven.
    pub detail: String,
}

impl core::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.property, self.detail)
    }
}

// ---------------------------------------------------------------------
// P2 — low-level properties
// ---------------------------------------------------------------------

/// Discharge every arithmetic obligation on the path — of either NF:
/// the obligations come from the one symbolic domain. Returns the
/// number of obligations proven.
pub fn check_p2<E>(trace: &SymTrace<E>) -> Result<usize, CheckFailure> {
    for ob in &trace.obligations {
        if !Solver::entails(&trace.arena, &trace.path, ob.prop) {
            return Err(CheckFailure {
                property: "P2",
                detail: format!(
                    "cannot prove low-level obligation '{}' on path {:?}",
                    ob.what,
                    trace.decisions.iter().map(|d| d.chosen).collect::<Vec<_>>()
                ),
            });
        }
    }
    Ok(trace.obligations.len())
}

// ---------------------------------------------------------------------
// P4 — correct use of libVig
// ---------------------------------------------------------------------

/// Structural discipline of the stateful interface: buffer ownership,
/// allocate→insert pairing with the slot/port bijection, rejuvenate
/// only after a hit, guarded expiry with the exact threshold.
pub fn check_p4(trace: &mut SymTrace, cfg: &NatConfig) -> Result<usize, CheckFailure> {
    let mut checks = 0usize;
    let fail = |detail: String| CheckFailure {
        property: "P4",
        detail,
    };

    // Buffer ownership: received exactly once => consumed exactly once.
    let received = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::Receive(_)))
        .count();
    let consumed = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::Tx { .. } | Event::DropPkt))
        .count();
    if received != consumed {
        return Err(fail(format!(
            "buffer leak/invention: {received} received, {consumed} consumed"
        )));
    }
    checks += 1;

    // Expiry discipline: threshold must be exactly now - Texp, and the
    // guard Texp <= now must be on the path. Texp is the minimum
    // configured lifetime: the flow manager reconstructs `now` from the
    // threshold and applies the per-class deadlines itself, and for the
    // homogeneous configs the symbolic engine covers this is just
    // `expiry_ns`.
    let now_term = trace.events.iter().find_map(|e| match e {
        Event::Now(t) => Some(*t),
        _ => None,
    });
    let expire_thresholds: Vec<TermId> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::ExpireFlows { threshold } => Some(*threshold),
            _ => None,
        })
        .collect();
    for thr in expire_thresholds {
        let now = now_term.ok_or_else(|| fail("expire_flows before reading the clock".into()))?;
        let texp = trace.arena.cu(cfg.min_lifetime_ns(), Width::W64);
        let expected = trace.arena.sub(now, texp);
        if thr != expected {
            let eq = trace.arena.eq(thr, expected);
            if !Solver::entails(&trace.arena, &trace.path, eq) {
                return Err(fail("expire threshold is not now - Texp".into()));
            }
        }
        let guard = trace.arena.le(texp, now);
        if !Solver::entails(&trace.arena, &trace.path, guard) {
            return Err(fail(
                "expiry threshold used without the Texp <= now guard".into(),
            ));
        }
        checks += 2;
    }

    // Slots returned by hits (eligible for rejuvenation).
    let mut hit_slots = Vec::new();
    // Slots reserved by allocation, to be inserted.
    let mut pending_alloc: Vec<(usize, TermId)> = Vec::new();

    for (i, e) in trace.events.iter().enumerate() {
        match e {
            Event::LookupInternal {
                result: Some((slot, _)),
                ..
            }
            | Event::LookupExternal {
                result: Some((slot, _, _)),
                ..
            } => {
                hit_slots.push(*slot);
            }
            Event::Rejuvenate { slot, .. } => {
                if !hit_slots.contains(slot) {
                    return Err(fail(format!(
                        "rejuvenate of slot {slot} that no lookup returned (event {i})"
                    )));
                }
                checks += 1;
            }
            Event::AllocateSlot {
                result: Some((slot, idx)),
                ..
            } => {
                pending_alloc.push((*slot, *idx));
            }
            Event::InsertFlow { slot, ext_port, .. } => {
                let pos = pending_alloc
                    .iter()
                    .position(|(s, _)| s == slot)
                    .ok_or_else(|| {
                        fail(format!("insert into slot {slot} that was never allocated"))
                    })?;
                let (_, idx) = pending_alloc.swap_remove(pos);
                // The slot/port bijection: ext_port == start_port + idx.
                let start = trace.arena.cu(u64::from(cfg.start_port), Width::W16);
                let expected = trace.arena.add(start, idx);
                if *ext_port != expected {
                    let eq = trace.arena.eq(*ext_port, expected);
                    if !Solver::entails(&trace.arena, &trace.path, eq) {
                        return Err(fail(
                            "inserted flow's port is not start_port + allocated index".into(),
                        ));
                    }
                }
                checks += 1;
            }
            _ => {}
        }
    }
    // Every allocation must be followed by its insert (else the slot —
    // and with it the port — leaks).
    if let Some((slot, _)) = pending_alloc.first() {
        return Err(fail(format!(
            "allocated slot {slot} never inserted: slot leak"
        )));
    }
    checks += 1;
    Ok(checks)
}

// ---------------------------------------------------------------------
// P5 — lazy model validation
// ---------------------------------------------------------------------

/// For every model call observed on the path, prove that the
/// constraints the model assumed are entailed by the libVig contract's
/// postcondition for that call (§5.2.3: the model's behaviour must
/// cover — i.e. be no narrower than — what the contract allows).
/// Returns the number of model constraints validated.
pub fn check_p5(trace: &mut SymTrace, cfg: &NatConfig) -> Result<usize, CheckFailure> {
    let mut validated = 0usize;
    let events = trace.events.clone();
    for (i, e) in events.iter().enumerate() {
        let (desc, outputs, assumed): (&str, Vec<TermId>, &[Lit]) = match e {
            Event::AllocateSlot {
                result: Some((_, idx)),
                assumed,
            } => ("allocate_slot", vec![*idx], assumed),
            Event::LookupInternal {
                result: Some((_, ext_port)),
                assumed,
                ..
            } => ("lookup_internal", vec![*ext_port], assumed),
            Event::LookupExternal {
                result: Some(_),
                assumed,
                ..
            } => ("lookup_external", Vec::new(), assumed),
            _ => continue,
        };
        // Build the contract-side postcondition for this call.
        let contract: Vec<Lit> = match e {
            Event::AllocateSlot { .. } => {
                // dchain_allocate ensures: returned index < capacity.
                let idx = outputs[0];
                let hi = trace.arena.cu(cfg.capacity as u64 - 1, Width::W16);
                let le = trace.arena.le(idx, hi);
                vec![(le, true)]
            }
            Event::LookupInternal { .. } => {
                // Flow-manager invariant: the stored flow's port is
                // start + s for some allocated slot s < capacity.
                let ext_port = outputs[0];
                let s = trace.arena.var("contract_slot", Width::W16);
                let hi = trace.arena.cu(cfg.capacity as u64 - 1, Width::W16);
                let bound = trace.arena.le(s, hi);
                let start = trace.arena.cu(u64::from(cfg.start_port), Width::W16);
                let sum = trace.arena.add(start, s);
                let shape = trace.arena.eq(ext_port, sum);
                vec![(bound, true), (shape, true)]
            }
            Event::LookupExternal { .. } => Vec::new(),
            _ => unreachable!(),
        };
        if !contract_entails(&mut trace.arena, &contract, assumed) {
            return Err(CheckFailure {
                property: "P5",
                detail: format!(
                    "model for {desc} (event {i}) assumed a constraint the contract does \
                     not guarantee — the model is under-approximate (paper §3, model (c))"
                ),
            });
        }
        validated += assumed.len();
    }
    Ok(validated)
}

/// Lazy validation of one model call (§5.2.3): the contract's
/// postcondition entails each literal the model assumed. The NAT's
/// [`check_p5`] and the discard NF's pop validation both ask this.
pub(crate) fn contract_entails(arena: &mut TermArena, contract: &[Lit], assumed: &[Lit]) -> bool {
    assumed.iter().all(|&(prop, polarity)| {
        let goal = if polarity { prop } else { arena.not(prop) };
        Solver::entails(arena, contract, goal)
    })
}

// ---------------------------------------------------------------------
// P1 — RFC 3022 semantics
// ---------------------------------------------------------------------

/// Build the "frame is accepted" proposition: the packet parses as an
/// unfragmented IPv4/TCP-or-UDP frame with consistent lengths — the
/// premise of the spec's decision tree ("P is accepted", Fig. 6 l.1).
fn accepted_prop(arena: &mut TermArena, rx: &SymRx) -> TermId {
    let c34 = arena.cu(34, Width::W16);
    let len_ok = arena.le(c34, rx.frame_len);
    let c0800 = arena.cu(0x0800, Width::W16);
    let eth_ok = arena.eq(rx.ethertype, c0800);
    let ver = arena.shr(rx.version_ihl, 4);
    let c4 = arena.cu(4, Width::W8);
    let ver_ok = arena.eq(ver, c4);
    let nib = arena.and_mask(rx.version_ihl, 0x0f);
    let ihl8 = arena.shl(nib, 2);
    let ihl = arena.zext(ihl8, Width::W16);
    let c20 = arena.cu(20, Width::W16);
    let ihl_ok = arena.le(c20, ihl);
    let c14 = arena.cu(14, Width::W16);
    let budget = arena.sub(rx.frame_len, c14);
    let total_ok = arena.le(rx.total_len, budget);
    let frag = arena.and_mask(rx.frag_field, 0x3fff);
    let c0 = arena.cu(0, Width::W16);
    let frag_ok = arena.eq(frag, c0);
    let hdr_ok = arena.le(ihl, rx.total_len);
    let l4 = arena.sub(rx.total_len, ihl);
    let c6 = arena.cu(6, Width::W8);
    let c17 = arena.cu(17, Width::W8);
    let c8 = arena.cu(8, Width::W16);
    let is_tcp = arena.eq(rx.proto, c6);
    let tcp_fit = arena.le(c20, l4);
    let tcp_ok = arena.and(is_tcp, tcp_fit);
    let is_udp = arena.eq(rx.proto, c17);
    let udp_fit = arena.le(c8, l4);
    let udp_ok = arena.and(is_udp, udp_fit);
    let proto_ok = arena.or(tcp_ok, udp_ok);

    let mut acc = len_ok;
    for p in [eth_ok, ver_ok, ihl_ok, total_ok, frag_ok, hdr_ok, proto_ok] {
        acc = arena.and(acc, p);
    }
    acc
}

/// Weave the RFC 3022 decision tree into the trace and discharge every
/// obligation (paper §5.2.2). Returns the number of semantic conditions
/// proven.
pub fn check_p1(trace: &mut SymTrace, cfg: &NatConfig) -> Result<usize, CheckFailure> {
    let fail = |detail: String| CheckFailure {
        property: "P1",
        detail,
    };
    let mut checks = 0usize;

    let Some(rx) = trace.rx().cloned() else {
        // No packet: the spec is vacuous; P4 already ensured nothing
        // was emitted.
        if trace.tx().is_some() {
            return Err(fail("packet emitted without a receive".into()));
        }
        return Ok(0);
    };

    // Expiry ordering: expire_flows (if any) precedes all table ops.
    let first_table_op = trace.events.iter().position(|e| {
        matches!(
            e,
            Event::LookupInternal { .. }
                | Event::LookupExternal { .. }
                | Event::AllocateSlot { .. }
                | Event::InsertFlow { .. }
        )
    });
    let last_expire = trace
        .events
        .iter()
        .rposition(|e| matches!(e, Event::ExpireFlows { .. }));
    if let (Some(t), Some(x)) = (first_table_op, last_expire) {
        if x > t {
            return Err(fail(
                "expire_flows must precede flow-table updates (Fig. 6 l.2)".into(),
            ));
        }
        checks += 1;
    }

    let accepted = accepted_prop(&mut trace.arena, &rx);
    let lookup_events: Vec<Event> = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::LookupInternal { .. }
                    | Event::LookupExternal { .. }
                    | Event::AllocateSlot { .. }
                    | Event::InsertFlow { .. }
            )
        })
        .cloned()
        .collect();

    if lookup_events.is_empty() {
        // Parse-drop path: must be provably un-accepted and dropped.
        if !trace.dropped() {
            return Err(fail(
                "no table interaction and no drop: packet vanished".into(),
            ));
        }
        let not_accepted = trace.arena.not(accepted);
        if !Solver::entails(&trace.arena, &trace.path, not_accepted) {
            return Err(fail(
                "packet dropped before translation although the frame may be acceptable \
                 (spec requires translating every accepted packet)"
                    .into(),
            ));
        }
        return Ok(checks + 1);
    }

    // Translation path: the frame must be provably accepted.
    if !Solver::entails(&trace.arena, &trace.path, accepted) {
        return Err(fail(
            "flow-table interaction on a frame not proven accepted".into(),
        ));
    }
    checks += 1;

    let prove_eq = |arena: &mut TermArena,
                    path: &[Lit],
                    a: TermId,
                    b: TermId,
                    what: &str|
     -> Result<(), CheckFailure> {
        if a == b {
            return Ok(());
        }
        let eq = arena.eq(a, b);
        if Solver::entails(arena, path, eq) {
            Ok(())
        } else {
            Err(fail(format!("cannot prove {what}")))
        }
    };

    let ext_ip = trace.arena.cu(u64::from(cfg.external_ip.raw()), Width::W32);

    match rx.dir {
        Direction::Internal => {
            // F(P) must be the packet's own 5-tuple (Fig. 6 F function).
            let fid_expected = [rx.src_ip, rx.src_port, rx.dst_ip, rx.dst_port];
            let lookup = lookup_events.iter().find_map(|e| match e {
                Event::LookupInternal { fid, result, .. } => Some((*fid, *result)),
                _ => None,
            });
            let Some((fid, result)) = lookup else {
                return Err(fail(
                    "internal packet translated without an internal lookup".into(),
                ));
            };
            for (k, (got, want)) in fid.iter().zip(fid_expected.iter()).enumerate() {
                prove_eq(
                    &mut trace.arena,
                    &trace.path,
                    *got,
                    *want,
                    &format!("F(P) field {k}"),
                )?;
                checks += 1;
            }
            match result {
                Some((slot, hit_port)) => {
                    // Fig. 6 ll.21–28: rewrite src to (EXT_IP, F(P).ext_port).
                    let rej = trace
                        .events
                        .iter()
                        .any(|e| matches!(e, Event::Rejuvenate { slot: s, .. } if *s == slot));
                    if !rej {
                        return Err(fail(
                            "matched flow's timestamp not refreshed (Fig. 6 l.12)".into(),
                        ));
                    }
                    let Some((out, hdr)) = trace.tx() else {
                        return Err(fail("matched internal packet must be forwarded".into()));
                    };
                    if *out != Direction::External {
                        return Err(fail(
                            "internal packet forwarded out the wrong interface".into(),
                        ));
                    }
                    let hdr = *hdr;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[0],
                        ext_ip,
                        "S.src_ip = EXT_IP",
                    )?;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[1],
                        hit_port,
                        "S.src_port = F(P).ext_port",
                    )?;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[2],
                        rx.dst_ip,
                        "S.dst_ip = P.dst_ip",
                    )?;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[3],
                        rx.dst_port,
                        "S.dst_port = P.dst_port",
                    )?;
                    checks += 6;
                }
                None => {
                    // Miss: allocate or drop (Fig. 6 ll.14–18, l.39).
                    let alloc = lookup_events.iter().find_map(|e| match e {
                        Event::AllocateSlot { result, .. } => Some(*result),
                        _ => None,
                    });
                    match alloc {
                        Some(Some((slot, _idx))) => {
                            let insert = lookup_events.iter().find_map(|e| match e {
                                Event::InsertFlow {
                                    slot: s,
                                    fid,
                                    ext_port,
                                } if *s == slot => Some((*fid, *ext_port)),
                                _ => None,
                            });
                            let Some((ins_fid, ins_port)) = insert else {
                                return Err(fail("allocated flow never inserted".into()));
                            };
                            for (k, (got, want)) in
                                ins_fid.iter().zip(fid_expected.iter()).enumerate()
                            {
                                prove_eq(
                                    &mut trace.arena,
                                    &trace.path,
                                    *got,
                                    *want,
                                    &format!("inserted fid field {k}"),
                                )?;
                                checks += 1;
                            }
                            let Some((out, hdr)) = trace.tx() else {
                                return Err(fail(
                                    "fresh flow must be forwarded (Fig. 6 l.20)".into(),
                                ));
                            };
                            if *out != Direction::External {
                                return Err(fail(
                                    "fresh internal flow must exit externally".into(),
                                ));
                            }
                            let hdr = *hdr;
                            prove_eq(
                                &mut trace.arena,
                                &trace.path,
                                hdr[0],
                                ext_ip,
                                "S.src_ip = EXT_IP",
                            )?;
                            prove_eq(
                                &mut trace.arena,
                                &trace.path,
                                hdr[1],
                                ins_port,
                                "S.src_port = inserted ext_port",
                            )?;
                            prove_eq(&mut trace.arena, &trace.path, hdr[2], rx.dst_ip, "S.dst_ip")?;
                            prove_eq(
                                &mut trace.arena,
                                &trace.path,
                                hdr[3],
                                rx.dst_port,
                                "S.dst_port",
                            )?;
                            checks += 5;
                        }
                        Some(None) => {
                            if !trace.dropped() {
                                return Err(fail(
                                    "table full: packet must be dropped (Fig. 6 l.39)".into(),
                                ));
                            }
                            checks += 1;
                        }
                        None => {
                            return Err(fail(
                                "internal miss neither allocated nor reported full".into(),
                            ));
                        }
                    }
                }
            }
        }
        Direction::External => {
            // F(P) on the external side keys by (dst_port, src_ip, src_port).
            let ek_expected = [rx.dst_port, rx.src_ip, rx.src_port];
            let lookup = lookup_events.iter().find_map(|e| match e {
                Event::LookupExternal { ek, result, .. } => Some((*ek, *result)),
                _ => None,
            });
            let Some((ek, result)) = lookup else {
                return Err(fail(
                    "external packet handled without an external lookup".into(),
                ));
            };
            for (k, (got, want)) in ek.iter().zip(ek_expected.iter()).enumerate() {
                prove_eq(
                    &mut trace.arena,
                    &trace.path,
                    *got,
                    *want,
                    &format!("ext key field {k}"),
                )?;
                checks += 1;
            }
            match result {
                Some((slot, int_ip, int_port)) => {
                    let rej = trace
                        .events
                        .iter()
                        .any(|e| matches!(e, Event::Rejuvenate { slot: s, .. } if *s == slot));
                    if !rej {
                        return Err(fail("matched flow's timestamp not refreshed".into()));
                    }
                    let Some((out, hdr)) = trace.tx() else {
                        return Err(fail("matched external packet must be forwarded".into()));
                    };
                    if *out != Direction::Internal {
                        return Err(fail("return traffic must exit internally".into()));
                    }
                    let hdr = *hdr;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[0],
                        rx.src_ip,
                        "S.src_ip = P.src_ip",
                    )?;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[1],
                        rx.src_port,
                        "S.src_port = P.src_port",
                    )?;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[2],
                        int_ip,
                        "S.dst_ip = F(P).int_ip",
                    )?;
                    prove_eq(
                        &mut trace.arena,
                        &trace.path,
                        hdr[3],
                        int_port,
                        "S.dst_port = F(P).int_port",
                    )?;
                    checks += 6;
                }
                None => {
                    if !trace.dropped() {
                        return Err(fail(
                            "unsolicited external packet must be dropped (Fig. 6 l.39)".into(),
                        ));
                    }
                    // External packets never create flows.
                    if lookup_events
                        .iter()
                        .any(|e| matches!(e, Event::AllocateSlot { .. } | Event::InsertFlow { .. }))
                    {
                        return Err(fail(
                            "external packet created flow state (Fig. 6 l.14)".into(),
                        ));
                    }
                    checks += 2;
                }
            }
        }
    }
    Ok(checks)
}
