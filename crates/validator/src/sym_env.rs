//! The NAT's libVig models (paper §5.1.4): `NatEnv` over the one
//! symbolic environment, [`Sym`].
//!
//! [`SymEnv`] is `Sym<'_, NatModels>`: the shared engine supplies the
//! term domain (with its P2 obligations), the solver-pruned branch and
//! the trace; this module adds only the NAT's own environment calls.
//! Every stateful call is answered by a **model** that forks over its
//! abstract outcomes and returns fresh symbols constrained the way the
//! libVig contract promises. The models deliberately know nothing about
//! actual map/chain internals — they are the small, stateless stand-ins
//! whose faithfulness P5 later validates per observed call.
//!
//! [`ModelStyle`] selects `allocate_slot`'s model: the faithful one
//! bounds the index by the capacity; the over-approximate one (model
//! (b)) leaves it free, so the port arithmetic's overflow obligation
//! cannot be proven and **P2 fails**; the under-approximate one (model
//! (c)) pins it to 0, narrower than the contract, so **P5 fails**.
//!
//! The models cover the paper's NAT only; [`check_scope`] is the one
//! statement of that scope, and `run_ese` refuses anything outside it.

use crate::sym::{ModelStyle, Models, Sym};
use crate::trace::{Event, SymRx};
use vig_packet::{Direction, Proto};
use vig_spec::NatConfig;
use vig_symbex::solver::Lit;
use vig_symbex::term::{TermId, Width};
use vignat::env::{ExtParts, FidParts, FlowView, NatEnv, PktHandle, RxPacket, SlotId, TxHdr};

/// The configurations the symbolic models cover: the paper's NAT — one
/// external address (so the loop body's pool branch has one shape and
/// every external-address term is the constant `cfg.external_ip`), one
/// lifetime for every flow, EIM and hairpinning off. Anything else is
/// proven differentially by the concrete suites; the error names each
/// feature that lies outside.
pub fn check_scope(cfg: &NatConfig) -> Result<(), String> {
    let mut outside = Vec::new();
    if cfg.num_external_ips() != 1 {
        outside.push(format!(
            "a multi-address pool (capacity {} needs {} addresses)",
            cfg.capacity,
            cfg.num_external_ips()
        ));
    }
    if !cfg.is_homogeneous() {
        outside.push("per-class TCP lifetimes".to_string());
    }
    if cfg.eim {
        outside.push("endpoint-independent mapping (EIM)".to_string());
    }
    if cfg.hairpinning {
        outside.push("hairpinning".to_string());
    }
    if outside.is_empty() {
        return Ok(());
    }
    Err(format!(
        "the symbolic models cover the paper's single-address, single-lifetime NAT; \
         this configuration has {} (proven differentially instead)",
        outside.join(", ")
    ))
}

/// The NAT's model state for one path.
pub struct NatModels {
    cfg: NatConfig,
    style: ModelStyle,
    slot_counter: usize,
}

impl NatModels {
    /// Models for `cfg` (inside [`check_scope`]) in the given style.
    pub fn new(cfg: NatConfig, style: ModelStyle) -> NatModels {
        NatModels {
            cfg,
            style,
            slot_counter: 0,
        }
    }

    fn next_slot(&mut self) -> usize {
        self.slot_counter += 1;
        self.slot_counter - 1
    }
}

impl Models for NatModels {
    type Event = Event;
}

/// The NAT's symbolic environment.
pub type SymEnv<'s> = Sym<'s, NatModels>;

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
            // Unbranched on: the homogeneous configs in scope give every
            // flag class one lifetime.
            tcp_flags: self.arena.var("tcp_flags", Width::W8),
        };
        self.events.push(Event::Receive(rx.clone()));
        Some(RxPacket {
            handle: PktHandle(0),
            dir,
            frame_len: rx.frame_len,
            ethertype: rx.ethertype,
            version_ihl: rx.version_ihl,
            total_len: rx.total_len,
            frag_field: rx.frag_field,
            proto: rx.proto,
            src_ip: rx.src_ip,
            dst_ip: rx.dst_ip,
            src_port: rx.src_port,
            dst_port: rx.dst_port,
            tcp_flags: rx.tcp_flags,
        })
    }

    fn branch(&mut self, cond: TermId) -> bool {
        let taken = self.fork_on(cond);
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
        let slot = self.models.next_slot();
        let cfg = self.models.cfg;
        let ext_port = self.arena.var("hit_ext_port", Width::W16);
        let lo = self.arena.cu(u64::from(cfg.start_port), Width::W16);
        let hi = self.arena.cu(
            u64::from(cfg.start_port) + cfg.capacity as u64 - 1,
            Width::W16,
        );
        let ge = self.arena.le(lo, ext_port);
        let le = self.arena.le(ext_port, hi);
        let assumed = vec![(ge, true), (le, true)];
        self.assume(&assumed);
        self.events.push(Event::LookupInternal {
            fid: fid_terms,
            result: Some((slot, ext_port)),
            assumed,
        });
        let ext_ip = self.arena.cu(u64::from(cfg.external_ip.raw()), Width::W32);
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
        let slot = self.models.next_slot();
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
        let slot = self.models.next_slot();
        let cfg = self.models.cfg;
        let idx = self.arena.var("alloc_idx", Width::W16);
        let assumed: Vec<Lit> = match self.models.style {
            ModelStyle::Faithful => {
                // dchain contract: allocated index < capacity.
                let hi = self.arena.cu(cfg.capacity as u64 - 1, Width::W16);
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
        self.assume(&assumed);
        self.events.push(Event::AllocateSlot {
            result: Some((slot, idx)),
            assumed,
        });
        // Single-address pool: the allocated slot's external address is
        // the configured one (constant term), and the returned port
        // offset is the slot index itself.
        let ext_ip = self.arena.cu(u64::from(cfg.external_ip.raw()), Width::W32);
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

    /// Buffer ownership is P4's: it counts `Tx` and `DropPkt` events
    /// against the one `Receive`.
    fn tx(&mut self, _pkt: PktHandle, out: Direction, hdr: TxHdr<Self>) {
        self.events.push(Event::Tx {
            out,
            hdr: [hdr.src_ip, hdr.src_port, hdr.dst_ip, hdr.dst_port],
        });
    }

    fn drop_pkt(&mut self, _pkt: PktHandle) {
        self.events.push(Event::DropPkt);
    }
}
