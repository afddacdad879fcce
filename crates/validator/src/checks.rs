//! The verification conditions: P2, P4, P5, P1 (paper §5.2.1–§5.2.4).
//!
//! All checks are per-trace and independent, which is what makes
//! validation "highly parallelizable" (§5.2.2). Every check discharges
//! its conditions with the symbex solver; a check only passes when the
//! solver *proves* the condition, so the one-sided soundness of the
//! solver carries over to the whole pipeline. P1 states no RFC 3022 of
//! its own: it runs the spec's.

use crate::sym::Terms;
use crate::trace::{Event, SymTrace};
use vig_packet::Direction;
use vig_spec::rfc3022::{self, Decider, Mapping, Required, SpecState, Tuple};
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
/// only after a hit. (The expiry discipline — `expire_flows(now - Texp)`
/// exactly on the paths that entail `Texp <= now` — is P1's: the
/// spec's step asks for it.)
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

fn p1(detail: String) -> CheckFailure {
    CheckFailure {
        property: "P1",
        detail,
    }
}

/// The spec's state on one symbolic trace: [`rfc3022::decide`]'s
/// queries are answered by the trace's flow-table calls, in order, and
/// its branches by solver entailment on the path. A branch the path
/// leaves open, a query the next call does not answer, a call the spec
/// never asked for, and a field the solver cannot prove are each a P1
/// failure.
struct TraceState<'t> {
    terms: Terms,
    path: &'t [Lit],
    events: &'t [Event],
    /// The trace's flow-table calls, and how many queries took one.
    calls: Vec<&'t Event>,
    next: usize,
    cfg: &'t NatConfig,
    ext_ip: TermId,
    /// Conditions proven.
    checks: usize,
}

impl<'t> TraceState<'t> {
    /// The trace's next flow-table call, which `answer` must recognize
    /// as the answer to the spec's `query`.
    fn take<T>(
        &mut self,
        query: &str,
        answer: impl FnOnce(&'t Event) -> Option<T>,
    ) -> Result<T, CheckFailure> {
        let e = self.calls.get(self.next).copied();
        let e = e.ok_or_else(|| p1(format!("the spec asks {query}; the trace does not")))?;
        self.next += 1;
        answer(e).ok_or_else(|| p1(format!("the spec asks {query}; the trace calls {e:?}")))
    }

    /// Does the path entail `prop`? Each proof counts as a condition.
    fn proves(&mut self, prop: TermId) -> bool {
        let proven = Solver::entails(&self.terms.arena, self.path, prop);
        self.checks += usize::from(proven);
        proven
    }

    /// Prove the tuple `got` equal to `want` on the path, from its
    /// `from`-th term on (source address and port, then destination
    /// address and port); the protocols are concrete and must match.
    fn prove_tuple(
        &mut self,
        got: &Tuple<Terms>,
        want: &Tuple<Terms>,
        from: usize,
        what: &str,
    ) -> Result<(), CheckFailure> {
        if got.proto != want.proto {
            return Err(p1(format!(
                "{what} is {:?}, not {:?}",
                got.proto, want.proto
            )));
        }
        let terms = |t: &Tuple<Terms>| [t.src.0, t.src.1, t.dst.0, t.dst.1];
        self.prove_eq(&terms(got)[from..], &terms(want)[from..], what)
    }

    /// Prove `got[k] == want[k]` on the path, for every `k`.
    fn prove_eq(
        &mut self,
        got: &[TermId],
        want: &[TermId],
        what: &str,
    ) -> Result<(), CheckFailure> {
        for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
            let eq = self.terms.arena.eq(g, w);
            if !self.proves(eq) {
                return Err(p1(format!("cannot prove {what}, field {k}")));
            }
        }
        Ok(())
    }

    /// After `decide` (`None` on a packetless path, which only expires):
    /// no flow-table call left unasked, and the packet left the way the
    /// spec requires.
    fn finish(&mut self, required: Option<Required<Terms>>) -> Result<usize, CheckFailure> {
        if let Some(e) = self.calls.get(self.next) {
            return Err(p1(format!(
                "the trace makes a call the spec did not ask for: {e:?}"
            )));
        }
        let tx = self.events.iter().find_map(|e| match e {
            Event::Tx { out, hdr } => Some((*out, hdr)),
            _ => None,
        });
        let dropped = self.events.iter().any(|e| matches!(e, Event::DropPkt));
        match (required, tx) {
            (None, None) => {}
            (Some(None), None) if dropped => {}
            (Some(Some((iface, want))), Some((out, got))) if out == iface => {
                self.prove_tuple(got, &want, 0, "the emitted header")?;
            }
            (Some(Some((iface, _))), _) => {
                return Err(p1(format!("the spec requires forwarding on {iface:?}")));
            }
            _ => return Err(p1("the packet does not leave as the spec requires".into())),
        }
        Ok(self.checks + 1)
    }
}

impl Decider<Terms> for TraceState<'_> {
    type Error = CheckFailure;

    fn domain(&mut self) -> &mut Terms {
        &mut self.terms
    }

    fn branch(&mut self, cond: TermId) -> Result<bool, CheckFailure> {
        let not = self.terms.arena.not(cond);
        if self.proves(cond) {
            Ok(true)
        } else if self.proves(not) {
            Ok(false)
        } else {
            Err(p1(
                "the path leaves a branch of the spec undetermined".into()
            ))
        }
    }
}

impl SpecState<Terms> for TraceState<'_> {
    fn expire(&mut self, now: &TermId) -> Result<(), CheckFailure> {
        let threshold = self.take("expire_flows", |e| match e {
            Event::ExpireFlows { threshold } => Some(*threshold),
            _ => None,
        })?;
        let texp = self.terms.arena.cu(self.cfg.min_lifetime_ns(), Width::W64);
        let want = self.terms.arena.sub(*now, texp);
        self.prove_eq(&[threshold], &[want], "expire_flows(now - Texp)")
    }

    /// The internal key is checked whole; the external key from its
    /// port on, since the single-address pool fixes its address.
    fn lookup(
        &mut self,
        dir: Direction,
        key: &Tuple<Terms>,
    ) -> Result<Option<Mapping<Terms>>, CheckFailure> {
        let ext_ip = self.ext_ip;
        let internal = dir == Direction::Internal;
        let (got, hit) = self.take("a lookup", |e| match e {
            Event::LookupInternal { fid, result, .. } if internal => {
                let hit = result.map(|(_, port)| (key.src, (ext_ip, port)));
                Some((fid, hit))
            }
            Event::LookupExternal { ek, result, .. } if !internal => {
                let hit = result.map(|(_, ip, port)| ((ip, port), key.src));
                Some((ek, hit))
            }
            _ => None,
        })?;
        self.prove_tuple(got, key, usize::from(!internal), "the lookup key")?;
        Ok(hit.map(|(int, ext)| Mapping { int, ext }))
    }

    fn is_full(&mut self) -> Result<bool, CheckFailure> {
        self.take("whether the table is full", |e| match e {
            Event::AllocateSlot { result, .. } => Some(result.is_none()),
            _ => None,
        })
    }

    /// The NF's endpoint is the one its insert names. It is free and in
    /// the pool by P3 (the dchain hands out a free index), P4 (the port
    /// is `start_port + index`) and P5 (the index is below `CAP`).
    fn free_endpoint(&mut self, _fid: &Tuple<Terms>) -> Result<(TermId, TermId), CheckFailure> {
        match self.calls.get(self.next) {
            Some(Event::InsertFlow { ext_port, .. }) => Ok((self.ext_ip, *ext_port)),
            _ => Err(p1(
                "the spec asks a free endpoint; the trace inserts none".into()
            )),
        }
    }

    fn insert(
        &mut self,
        fid: &Tuple<Terms>,
        at: &(TermId, TermId),
        _now: &TermId,
        _tcp_flags: &TermId,
    ) -> Result<(), CheckFailure> {
        let (got, port) = self.take("insert", |e| match e {
            Event::InsertFlow { fid, ext_port, .. } => Some((fid, *ext_port)),
            _ => None,
        })?;
        self.prove_tuple(got, fid, 0, "the inserted mapping")?;
        self.prove_eq(&[port], &[at.1], "the inserted mapping's port")
    }

    fn refresh(
        &mut self,
        _fid: &Tuple<Terms>,
        now: &TermId,
        _dir: Direction,
        _tcp_flags: &TermId,
    ) -> Result<(), CheckFailure> {
        let at = self.take("refresh", |e| match e {
            Event::Rejuvenate { now, .. } => Some(*now),
            _ => None,
        })?;
        self.prove_eq(&[at], &[*now], "the refresh time")
    }
}

/// P1 (paper §5.2.2): run the one RFC 3022 step, [`rfc3022::decide`],
/// over this trace — a packetless path only expires. Returns the number
/// of semantic conditions proven.
pub fn check_p1(trace: &mut SymTrace, cfg: &NatConfig) -> Result<usize, CheckFailure> {
    let rx = trace.rx().cloned();
    let Some(&Event::Now(now)) = trace.events.first() else {
        return Err(p1(
            "the iteration does not start by reading the clock".into()
        ));
    };
    let mut terms = Terms {
        arena: std::mem::take(&mut trace.arena),
    };
    let ext_ip = terms.arena.cu(u64::from(cfg.external_ip.raw()), Width::W32);
    let is_call = |e: &&Event| {
        !matches!(
            e,
            Event::Now(_)
                | Event::Receive(_)
                | Event::NoPacket
                | Event::Branch { .. }
                | Event::Tx { .. }
                | Event::DropPkt
        )
    };
    let mut st = TraceState {
        terms,
        path: &trace.path,
        events: &trace.events,
        calls: trace.events.iter().filter(is_call).collect(),
        next: 0,
        cfg,
        ext_ip,
        checks: 0,
    };
    let required = match &rx {
        Some(rx) => rfc3022::decide(cfg, &mut st, rx, &now).map(Some),
        None => rfc3022::expire_flows(cfg, &mut st, &now).map(|()| None),
    };
    let checked = required.and_then(|required| st.finish(required));
    trace.arena = st.terms.arena;
    checked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ese::run_ese;
    use crate::sym::ModelStyle;

    fn cfg() -> NatConfig {
        NatConfig {
            start_port: 1,
            ..NatConfig::paper_default()
        }
    }

    /// The first real ESE trace `pick` selects, which P1 must accept
    /// before `edit` touches it and reject, with `[P1]`, after.
    fn edited_trace_fails_p1(pick: impl Fn(&SymTrace) -> bool, edit: impl FnOnce(&mut SymTrace)) {
        let c = cfg();
        let mut trace = run_ese(&c, ModelStyle::Faithful, 10_000)
            .unwrap()
            .traces
            .into_iter()
            .find(|t| pick(t))
            .expect("ESE yields such a path");
        check_p1(&mut trace, &c).expect("the unedited trace passes P1");
        edit(&mut trace);
        let failure = check_p1(&mut trace, &c).expect_err("the edited trace must fail P1");
        assert_eq!(failure.property, "P1", "{failure}");
    }

    fn lookups(t: &SymTrace) -> usize {
        t.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::LookupInternal { .. } | Event::LookupExternal { .. }
                )
            })
            .count()
    }

    /// Fig. 6 line 2 is an effect the spec requires: a path whose guard
    /// `Texp <= now` holds must expire flows.
    #[test]
    fn p1_rejects_a_guarded_path_without_its_expiry() {
        edited_trace_fails_p1(
            |t| {
                t.events
                    .iter()
                    .any(|e| matches!(e, Event::ExpireFlows { .. }))
            },
            |t| t.events.retain(|e| !matches!(e, Event::ExpireFlows { .. })),
        );
    }

    /// An internal hit must rewrite exactly the source port.
    #[test]
    fn p1_rejects_swapped_ports_on_an_internal_hit() {
        edited_trace_fails_p1(
            |t| {
                t.tx().is_some()
                    && t.events.iter().any(|e| {
                        matches!(
                            e,
                            Event::LookupInternal {
                                result: Some(_),
                                ..
                            }
                        )
                    })
            },
            |t| {
                for e in &mut t.events {
                    if let Event::Tx { hdr, .. } = e {
                        std::mem::swap(&mut hdr.src.1, &mut hdr.dst.1);
                    }
                }
            },
        );
    }

    /// A frame the spec does not accept must not reach the flow table.
    #[test]
    fn p1_rejects_a_table_call_on_a_parse_drop_path() {
        edited_trace_fails_p1(
            |t| t.dropped() && lookups(t) == 0 && t.rx().is_some(),
            |t| {
                let rx = t.rx().cloned().unwrap();
                let drop_at = t.events.iter().position(|e| matches!(e, Event::DropPkt));
                t.events.insert(
                    drop_at.unwrap(),
                    Event::LookupInternal {
                        fid: Tuple {
                            src: (rx.src_ip, rx.src_port),
                            dst: (rx.dst_ip, rx.dst_port),
                            proto: vig_packet::Proto::Tcp,
                        },
                        result: None,
                        assumed: Vec::new(),
                    },
                );
            },
        );
    }
}
