//! The symbolic environment: `NatEnv` over symbolic terms + the libVig
//! models (paper §5.1.4).
//!
//! Every value the loop body sees is a term; every branch consults the
//! solver for feasibility and forks via the explorer's steering; every
//! stateful call is answered by a **model** that forks over its
//! abstract outcomes and returns fresh symbols constrained the way the
//! libVig contract promises. The models deliberately know nothing about
//! actual map/chain internals — they are the small, stateless stand-ins
//! whose faithfulness P5 later validates per observed call.
//!
//! [`ModelStyle`] reproduces the paper's §3 invalid-model experiments:
//!
//! * [`ModelStyle::Faithful`] — the production models;
//! * [`ModelStyle::OverApproximate`] — `allocate_slot` omits the
//!   `index < capacity` constraint (like the paper's model (b), which
//!   "returns a packet whose content could be anything"): exhaustive
//!   symbolic execution then cannot prove the port-arithmetic overflow
//!   obligation, and **P2 fails**;
//! * [`ModelStyle::UnderApproximate`] — `allocate_slot` pins the index
//!   to 0 (the paper's model (c), which "always returns a packet with
//!   target port 0"): the emitted constraint is narrower than the
//!   contract allows, and **P5 fails**.

use crate::trace::{Event, Obligation, SymRx, SymTrace};
use vig_packet::{Direction, Proto};
use vig_spec::NatConfig;
use vig_symbex::explorer::Steering;
use vig_symbex::solver::{Lit, SatResult, Solver};
use vig_symbex::term::{TermArena, TermId, Width};
use vignat::domain::Domain;
use vignat::env::{ExtParts, FidParts, FlowView, NatEnv, PktHandle, RxPacket, SlotId, TxHdr};

/// Which libVig model variant to execute under. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelStyle {
    /// The production models (contract-shaped constraints).
    #[default]
    Faithful,
    /// Allocation index left unconstrained (paper's model (b)).
    OverApproximate,
    /// Allocation index pinned to zero (paper's model (c)).
    UnderApproximate,
}

/// The symbolic environment for one path execution.
pub struct SymEnv<'s> {
    /// Term arena (moves into the trace at the end).
    pub arena: TermArena,
    steer: &'s mut Steering,
    cfg: NatConfig,
    style: ModelStyle,
    path: Vec<Lit>,
    events: Vec<Event>,
    obligations: Vec<Obligation>,
    slot_counter: usize,
    in_flight: Option<PktHandle>,
    consumed: bool,
}

impl<'s> SymEnv<'s> {
    /// Fresh environment for one path run.
    ///
    /// The symbolic models cover the paper's NAT, whose pool is a
    /// single external address: the loop body's config branch
    /// (`num_external_ips() == 1`) then has a fixed shape and every
    /// external-address term is the constant `cfg.external_ip`.
    /// Multi-address pools are proven equivalent differentially (the
    /// concrete suites), not symbolically.
    pub fn new(steer: &'s mut Steering, cfg: NatConfig, style: ModelStyle) -> SymEnv<'s> {
        assert_eq!(
            cfg.num_external_ips(),
            1,
            "symbolic models cover the single-address pool"
        );
        assert!(
            cfg.is_homogeneous() && !cfg.eim && !cfg.hairpinning,
            "symbolic models cover the paper's baseline NAT; per-class \
             lifetimes, EIM and hairpinning are proven differentially"
        );
        SymEnv {
            arena: TermArena::new(),
            steer,
            cfg,
            style,
            path: Vec::new(),
            events: Vec::new(),
            obligations: Vec::new(),
            slot_counter: 0,
            in_flight: None,
            consumed: false,
        }
    }

    /// Package the run into a trace.
    pub fn into_trace(self) -> SymTrace {
        assert!(
            self.in_flight.is_none() || self.consumed,
            "P4 violation detected at trace build: packet neither sent nor dropped"
        );
        SymTrace {
            decisions: self.steer.taken().to_vec(),
            arena: self.arena,
            path: self.path,
            events: self.events,
            obligations: self.obligations,
        }
    }

    fn oblige(&mut self, prop: TermId, what: &'static str) {
        self.obligations.push(Obligation { prop, what });
    }

    /// Fork over `arity` alternatives; all are feasibility-unpruned
    /// (used for model outcome forks, which are always possible).
    fn fork_free(&mut self, arity: u8) -> u8 {
        self.steer.decide(arity, |_| true)
    }
}

impl Domain for SymEnv<'_> {
    type B = TermId;
    type U8 = TermId;
    type U16 = TermId;
    type U32 = TermId;
    type U64 = TermId;

    fn c_bool(&mut self, v: bool) -> TermId {
        self.arena.cb(v)
    }
    fn c_u8(&mut self, v: u8) -> TermId {
        self.arena.cu(u64::from(v), Width::W8)
    }
    fn c_u16(&mut self, v: u16) -> TermId {
        self.arena.cu(u64::from(v), Width::W16)
    }
    fn c_u32(&mut self, v: u32) -> TermId {
        self.arena.cu(u64::from(v), Width::W32)
    }
    fn c_u64(&mut self, v: u64) -> TermId {
        self.arena.cu(v, Width::W64)
    }

    fn eq_u8(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.eq(*a, *b)
    }
    fn eq_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.eq(*a, *b)
    }
    fn eq_u32(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.eq(*a, *b)
    }
    fn eq_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.eq(*a, *b)
    }

    fn lt_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.lt(*a, *b)
    }
    fn le_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.le(*a, *b)
    }
    fn lt_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.lt(*a, *b)
    }
    fn le_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.le(*a, *b)
    }

    fn and(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.and(*a, *b)
    }
    fn or(&mut self, a: &TermId, b: &TermId) -> TermId {
        self.arena.or(*a, *b)
    }
    fn not(&mut self, a: &TermId) -> TermId {
        self.arena.not(*a)
    }

    fn add_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
        let t = self.arena.add(*a, *b);
        let max = self.arena.cu(0xffff, Width::W16);
        let ob = self.arena.le(t, max);
        self.oblige(ob, "u16 addition must not wrap");
        t
    }
    fn add_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
        let t = self.arena.add(*a, *b);
        let max = self.arena.cu(u64::MAX, Width::W64);
        let ob = self.arena.le(t, max);
        self.oblige(ob, "u64 addition must not wrap");
        t
    }
    fn sub_u64(&mut self, a: &TermId, b: &TermId) -> TermId {
        let ob = self.arena.le(*b, *a);
        self.oblige(ob, "u64 subtraction must not underflow");
        self.arena.sub(*a, *b)
    }
    fn sub_u16(&mut self, a: &TermId, b: &TermId) -> TermId {
        let ob = self.arena.le(*b, *a);
        self.oblige(ob, "u16 subtraction must not underflow");
        self.arena.sub(*a, *b)
    }

    fn and_u8(&mut self, a: &TermId, mask: u8) -> TermId {
        self.arena.and_mask(*a, u64::from(mask))
    }
    fn and_u16(&mut self, a: &TermId, mask: u16) -> TermId {
        self.arena.and_mask(*a, u64::from(mask))
    }
    fn shr_u8(&mut self, a: &TermId, shift: u32) -> TermId {
        self.arena.shr(*a, shift)
    }
    fn shl_u8(&mut self, a: &TermId, shift: u32) -> TermId {
        let t = self.arena.shl(*a, shift);
        let max = self.arena.cu(0xff, Width::W8);
        let ob = self.arena.le(t, max);
        self.oblige(ob, "u8 shift must not lose bits");
        t
    }
    fn u8_to_u16(&mut self, a: &TermId) -> TermId {
        self.arena.zext(*a, Width::W16)
    }
}

impl NatEnv for SymEnv<'_> {
    fn now(&mut self) -> TermId {
        let t = self.arena.var("now", Width::W64);
        self.events.push(Event::Now(t));
        t
    }

    fn expire_flows(&mut self, threshold: &TermId) {
        self.events.push(Event::ExpireFlows {
            threshold: *threshold,
        });
    }

    fn receive(&mut self) -> Option<RxPacket<Self>> {
        // Fork: packet pending or not.
        if self.fork_free(2) == 1 {
            self.events.push(Event::NoPacket);
            return None;
        }
        // Fork: which interface it arrived on.
        let dir = if self.fork_free(2) == 0 {
            Direction::Internal
        } else {
            Direction::External
        };
        let rx = SymRx {
            dir,
            frame_len: self.arena.var("frame_len", Width::W16),
            ethertype: self.arena.var("ethertype", Width::W16),
            version_ihl: self.arena.var("version_ihl", Width::W8),
            total_len: self.arena.var("total_len", Width::W16),
            frag_field: self.arena.var("frag_field", Width::W16),
            proto: self.arena.var("proto", Width::W8),
            src_ip: self.arena.var("src_ip", Width::W32),
            dst_ip: self.arena.var("dst_ip", Width::W32),
            src_port: self.arena.var("src_port", Width::W16),
            dst_port: self.arena.var("dst_port", Width::W16),
        };
        self.events.push(Event::Receive(rx.clone()));
        self.in_flight = Some(PktHandle(0));
        Some(RxPacket {
            handle: PktHandle(0),
            dir,
            frame_len: rx.frame_len,
            ethertype: rx.ethertype,
            version_ihl: rx.version_ihl,
            total_len: rx.total_len,
            frag_field: rx.frag_field,
            ttl: self.arena.var("ttl", Width::W8),
            proto: rx.proto,
            src_ip: rx.src_ip,
            dst_ip: rx.dst_ip,
            src_port: rx.src_port,
            dst_port: rx.dst_port,
            // Symbolic but unused: the baseline configs the symbolic
            // engine covers are homogeneous, so the loop body threads
            // the flags through without ever branching on them — the
            // path count is unchanged and the trace Event shapes stay
            // as they were.
            tcp_flags: self.arena.var("tcp_flags", Width::W8),
        })
    }

    fn branch(&mut self, cond: TermId) -> bool {
        // Syntactically decided conditions don't fork.
        if let Some(b) = self.arena.as_const_bool(cond) {
            self.events.push(Event::Branch { cond, taken: b });
            return b;
        }
        let mut t_lits = self.path.clone();
        t_lits.push((cond, true));
        let f_true = Solver::check(&self.arena, &t_lits) == SatResult::Sat;
        let mut f_lits = self.path.clone();
        f_lits.push((cond, false));
        let f_false = Solver::check(&self.arena, &f_lits) == SatResult::Sat;
        let taken = self.steer.decide_bool(f_true, f_false);
        self.path.push((cond, taken));
        self.events.push(Event::Branch { cond, taken });
        taken
    }

    fn lookup_internal(&mut self, fid: &FidParts<Self>) -> Option<FlowView<Self>> {
        let fid_terms = [fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port];
        if self.fork_free(2) == 1 {
            self.events.push(Event::LookupInternal {
                fid: fid_terms,
                result: None,
                assumed: Vec::new(),
            });
            return None;
        }
        // Hit: the contract of the flow table says the returned flow's
        // internal key equals the queried fid, and the flow-manager
        // invariant bounds its external port to the configured range.
        let slot = self.slot_counter;
        self.slot_counter += 1;
        let ext_port = self.arena.var("hit_ext_port", Width::W16);
        let lo = self.arena.cu(u64::from(self.cfg.start_port), Width::W16);
        let hi = self.arena.cu(
            u64::from(self.cfg.start_port) + self.cfg.capacity as u64 - 1,
            Width::W16,
        );
        let ge = self.arena.le(lo, ext_port);
        let le = self.arena.le(ext_port, hi);
        let assumed = vec![(ge, true), (le, true)];
        for &(p, pol) in &assumed {
            self.path.push((p, pol));
        }
        self.events.push(Event::LookupInternal {
            fid: fid_terms,
            result: Some((slot, ext_port)),
            assumed,
        });
        let ext_ip = self
            .arena
            .cu(u64::from(self.cfg.external_ip.raw()), Width::W32);
        Some(FlowView {
            slot: SlotId(slot),
            // invariant: single-address pool — every stored flow's
            // external address is the configured one
            ext_ip,
            ext_port,
            // contract: the stored flow's internal key is the fid
            int_ip: fid.src_ip,
            int_port: fid.src_port,
        })
    }

    fn lookup_external(&mut self, ek: &ExtParts<Self>) -> Option<FlowView<Self>> {
        let ek_terms = [ek.ext_port, ek.dst_ip, ek.dst_port];
        if self.fork_free(2) == 1 {
            self.events.push(Event::LookupExternal {
                ek: ek_terms,
                result: None,
                assumed: Vec::new(),
            });
            return None;
        }
        let slot = self.slot_counter;
        self.slot_counter += 1;
        // Contract: the matched flow's internal endpoint is some stored
        // pair — fresh symbols, unconstrained (any host/port may be
        // behind the NAT).
        let int_ip = self.arena.var("hit_int_ip", Width::W32);
        let int_port = self.arena.var("hit_int_port", Width::W16);
        self.events.push(Event::LookupExternal {
            ek: ek_terms,
            result: Some((slot, int_ip, int_port)),
            assumed: Vec::new(),
        });
        Some(FlowView {
            slot: SlotId(slot),
            // contract: the matched flow's external endpoint is the
            // key's (the loop body canonicalized the address already)
            ext_ip: ek.ext_ip,
            ext_port: ek.ext_port,
            int_ip,
            int_port,
        })
    }

    fn rejuvenate(
        &mut self,
        slot: SlotId,
        now: &TermId,
        _dir: Direction,
        _tcp_flags: &TermId,
        _proto: Proto,
    ) {
        // Direction and flags only steer the per-class timeout choice,
        // which homogeneous configs (the symbolic coverage) collapse to
        // a single lifetime — the observable event is unchanged.
        self.events.push(Event::Rejuvenate {
            slot: slot.0,
            now: *now,
        });
    }

    fn allocate_slot(&mut self, _now: &TermId) -> Option<(SlotId, TermId, TermId)> {
        if self.fork_free(2) == 1 {
            self.events.push(Event::AllocateSlot {
                result: None,
                assumed: Vec::new(),
            });
            return None;
        }
        let slot = self.slot_counter;
        self.slot_counter += 1;
        let idx = self.arena.var("alloc_idx", Width::W16);
        let assumed: Vec<Lit> = match self.style {
            ModelStyle::Faithful => {
                // dchain contract: allocated index < capacity.
                let hi = self.arena.cu(self.cfg.capacity as u64 - 1, Width::W16);
                let le = self.arena.le(idx, hi);
                vec![(le, true)]
            }
            ModelStyle::OverApproximate => Vec::new(), // paper's model (b)
            ModelStyle::UnderApproximate => {
                // paper's model (c): pins the output to one value.
                let zero = self.arena.cu(0, Width::W16);
                let eq = self.arena.eq(idx, zero);
                vec![(eq, true)]
            }
        };
        for &(p, pol) in &assumed {
            self.path.push((p, pol));
        }
        self.events.push(Event::AllocateSlot {
            result: Some((slot, idx)),
            assumed,
        });
        // Single-address pool: the allocated slot's external address is
        // the configured one (constant term), and the returned port
        // offset is the slot index itself.
        let ext_ip = self
            .arena
            .cu(u64::from(self.cfg.external_ip.raw()), Width::W32);
        Some((SlotId(slot), idx, ext_ip))
    }

    fn insert_flow(
        &mut self,
        slot: SlotId,
        fid: FidParts<Self>,
        _ext_ip: TermId,
        ext_port: TermId,
        _now: &TermId,
        _tcp_flags: &TermId,
    ) {
        self.events.push(Event::InsertFlow {
            slot: slot.0,
            fid: [fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port],
            ext_port,
        });
    }

    fn tx(&mut self, pkt: PktHandle, out: Direction, hdr: TxHdr<Self>) {
        assert_eq!(self.in_flight, Some(pkt), "tx of unowned packet (P4)");
        assert!(!self.consumed, "double consume (P4)");
        self.consumed = true;
        self.events.push(Event::Tx {
            out,
            hdr: [hdr.src_ip, hdr.src_port, hdr.dst_ip, hdr.dst_port],
        });
    }

    fn drop_pkt(&mut self, pkt: PktHandle) {
        assert_eq!(self.in_flight, Some(pkt), "drop of unowned packet (P4)");
        assert!(!self.consumed, "double consume (P4)");
        self.consumed = true;
        self.events.push(Event::DropPkt);
    }
}
