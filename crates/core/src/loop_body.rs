//! The stateless NAT loop body — the code Vigor verifies.
//!
//! One call = one iteration of the paper's Fig. 1-style event loop,
//! specialized to the NAT: expire, receive, validate, translate,
//! forward. **Every** branch the NAT ever takes is in this function, on
//! domain values, through [`NatEnv::branch`] — which is what lets the
//! symbolic engine enumerate all feasible paths of exactly this code
//! (not a model of it), the way the paper's modified KLEE explores the
//! C loop.
//!
//! Reading guide, mapping to the paper's Fig. 6:
//!
//! * "Packet P arrives at time t" → [`NatEnv::now`] + [`NatEnv::receive`];
//!   the validation ladder below realizes "P is accepted" (frames the
//!   spec never sees are dropped here, covered by low-level properties).
//! * `expire_flows(t)` → the guarded [`NatEnv::expire_flows`] call;
//!   the `now >= Texp` guard makes the `now - Texp` subtraction safe,
//!   which the symbolic domain proves as a P2 obligation.
//! * `update_flow(P, t)` → `sender_endpoint` (lookup, rejuvenate or
//!   allocate + insert) for an internal sender, outbound or hairpinned;
//!   the lookup + rejuvenate of `translate_external` for a return packet.
//! * `forward(P)` → the [`NatEnv::tx`]/[`NatEnv::drop_pkt`] calls with
//!   Fig. 6's header rewrites, including VigNAT's signature
//!   `ext_port = start_port + offset` arithmetic, where the offset is
//!   the slot's index within its pool address — the slot index itself
//!   under the paper's single-address pool (overflow-proven from the
//!   pool construction `offset < ports_per_ip <= 65536 - start_port`).
//!
//! The validation ladder is ordered so that **no header field is used
//! semantically before the length guard covering it has passed** —
//! concrete environments zero-fill short reads, and this ordering is
//! what makes that safe (and is itself visible to the verifier).

use crate::domain::Domain;
use crate::env::{Found, NatEnv, PktHandle};
use vig_packet::{Direction, Proto};
use vig_spec::rfc3022::{Endpoint, Frame, Tuple};
use vig_spec::NatConfig;

/// A trusted hit of the burst's batched probe, or `None`.
type Hint<E> = Found<<E as Domain>::Values>;

/// What one loop iteration did (ghost data for tests and statistics;
/// the symbolic engine ignores it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationOutcome {
    /// No packet was pending.
    NoPacket,
    /// A packet was received and dropped.
    Dropped(DropReason),
    /// A packet was received, translated and transmitted on this
    /// interface.
    Forwarded(Direction),
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Frame shorter than an Ethernet header.
    ShortL2,
    /// EtherType is not IPv4.
    NotIpv4,
    /// Frame shorter than Ethernet + minimal IPv4 header.
    ShortL3,
    /// IP version field is not 4.
    BadVersion,
    /// IHL below 20 bytes.
    BadIhl,
    /// IPv4 `total_len` inconsistent with the frame.
    BadTotalLen,
    /// Fragmented packet (MF set or offset non-zero).
    Fragment,
    /// Protocol is neither TCP nor UDP.
    BadProto,
    /// IPv4 header longer than the datagram.
    HeaderOverrun,
    /// Datagram too short for the L4 header.
    ShortL4,
    /// No matching flow for an external packet.
    NoFlow,
    /// Flow table full for a new internal flow.
    TableFull,
}

/// One iteration of the NAT's packet-processing loop. See module docs.
///
/// `cfg` must satisfy the VigNAT configuration invariants (checked by
/// [`check_config`]): `capacity >= 1`, a non-zero `start_port`, and an
/// endpoint pool that fits the IPv4 space; the port-arithmetic proof
/// relies on them.
pub fn nat_loop_iteration<E: NatEnv + ?Sized>(env: &mut E, cfg: &NatConfig) -> IterationOutcome {
    let now = env.now();
    expire_guarded(env, cfg, &now);

    // --- receive -------------------------------------------------------
    let Some((handle, pkt)) = env.receive() else {
        return IterationOutcome::NoPacket;
    };

    let verdict = validate(env, &pkt);
    complete(env, cfg, handle, &pkt, verdict, now, None)
}

/// `expire_flows(t)` with the `now >= Texp` guard (Fig. 6 line 2):
/// threshold = now - Texp, the subtraction made safe by the guard.
///
/// `Texp` is the **shortest** configured lifetime
/// ([`NatConfig::min_lifetime_ns`]): with per-class TCP/UDP lifetimes
/// the flow table reconstructs `now = threshold + min_lifetime` and
/// applies each class's own threshold internally, keeping this seam's
/// single-threshold shape (and the symbolic path count) unchanged.
/// With the paper's homogeneous configuration `min_lifetime_ns()` *is*
/// `expiry_ns` and this is Fig. 6 verbatim.
fn expire_guarded<E: NatEnv + ?Sized>(env: &mut E, cfg: &NatConfig, now: &E::U64) {
    let texp = env.c_u64(cfg.min_lifetime_ns());
    let expirable = env.le_u64(&texp, now);
    if env.branch(expirable) {
        let threshold = env.sub_u64(now, &texp); // safe: texp <= now
        env.expire_flows(&threshold);
    }
}

/// Complete one received packet from its validation `verdict`:
/// translate it, or drop it. `hint` is an optional result of the burst's
/// batched probe for this packet's own lookup
/// ([`NatEnv::lookup_internal_batch`] /
/// [`NatEnv::lookup_external_batch`]); `None` means "look up at the
/// sequence point" — the single-packet path always passes `None`, so
/// its behaviour is byte-for-byte the pre-batching code.
fn complete<E: NatEnv + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    handle: PktHandle,
    pkt: &Frame<E::Values>,
    verdict: Result<Proto, DropReason>,
    now: E::U64,
    hint: Hint<E>,
) -> IterationOutcome {
    match verdict {
        Ok(proto) => match pkt.dir {
            Direction::Internal => translate_internal(env, cfg, handle, pkt, proto, now, hint),
            Direction::External => translate_external(env, cfg, handle, pkt, proto, now, hint),
        },
        Err(reason) => {
            env.drop_pkt(handle);
            IterationOutcome::Dropped(reason)
        }
    }
}

/// The validation ladder (module docs): every length/format branch the
/// NAT takes before a packet's fields may be used semantically. Pure
/// with respect to the flow table and the packet buffer — it decides,
/// the caller drops. Returns the (concrete) protocol on acceptance.
fn validate<E: NatEnv + ?Sized>(env: &mut E, pkt: &Frame<E::Values>) -> Result<Proto, DropReason> {
    // --- validation ladder ----------------------------------------------
    // L2: enough bytes for the Ethernet header?
    let eth_len = env.c_u16(14);
    let short_l2 = env.lt_u16(&pkt.frame_len, &eth_len);
    if env.branch(short_l2) {
        return Err(DropReason::ShortL2);
    }
    // EtherType must be IPv4.
    let ipv4_ethertype = env.c_u16(0x0800);
    let is_ipv4 = env.eq_u16(&pkt.ethertype, &ipv4_ethertype);
    let not_ipv4 = env.not(&is_ipv4);
    if env.branch(not_ipv4) {
        return Err(DropReason::NotIpv4);
    }
    // L3: enough bytes for a minimal IPv4 header?
    let min_l3 = env.c_u16(14 + 20);
    let short_l3 = env.lt_u16(&pkt.frame_len, &min_l3);
    if env.branch(short_l3) {
        return Err(DropReason::ShortL3);
    }
    // Version nibble must be 4.
    let version = env.shr_u8(&pkt.version_ihl, 4);
    let four = env.c_u8(4);
    let is_v4 = env.eq_u8(&version, &four);
    let not_v4 = env.not(&is_v4);
    if env.branch(not_v4) {
        return Err(DropReason::BadVersion);
    }
    // IHL: low nibble * 4 bytes, must be >= 20. (The `& 0x0f` bounds the
    // shift operand, discharging the shl obligation: result <= 60.)
    let ihl_nibble = env.and_u8(&pkt.version_ihl, 0x0f);
    let ihl_bytes8 = env.shl_u8(&ihl_nibble, 2);
    let ihl = env.u8_to_u16(&ihl_bytes8);
    let twenty = env.c_u16(20);
    let bad_ihl = env.lt_u16(&ihl, &twenty);
    if env.branch(bad_ihl) {
        return Err(DropReason::BadIhl);
    }
    // total_len must fit in the frame: total_len <= frame_len - 14.
    // (Subtraction is safe: frame_len >= 34 was just established.)
    let ip_budget = env.sub_u16(&pkt.frame_len, &eth_len);
    let fits = env.le_u16(&pkt.total_len, &ip_budget);
    let overruns = env.not(&fits);
    if env.branch(overruns) {
        return Err(DropReason::BadTotalLen);
    }
    // No fragments: MF flag and fragment offset must both be zero
    // (mask 0x3fff = offset bits 0x1fff | MF bit 0x2000).
    let frag_bits = env.and_u16(&pkt.frag_field, 0x3fff);
    let zero16 = env.c_u16(0);
    let unfragmented = env.eq_u16(&frag_bits, &zero16);
    let fragmented = env.not(&unfragmented);
    if env.branch(fragmented) {
        return Err(DropReason::Fragment);
    }
    // Protocol dispatch: TCP (6) or UDP (17); anything else drops.
    let tcp_no = env.c_u8(6);
    let udp_no = env.c_u8(17);
    let is_tcp = env.eq_u8(&pkt.proto, &tcp_no);
    let proto = if env.branch(is_tcp) {
        Proto::Tcp
    } else {
        let is_udp = env.eq_u8(&pkt.proto, &udp_no);
        if env.branch(is_udp) {
            Proto::Udp
        } else {
            return Err(DropReason::BadProto);
        }
    };
    // The IPv4 header must fit inside the datagram: ihl <= total_len.
    let hdr_fits = env.le_u16(&ihl, &pkt.total_len);
    let hdr_overruns = env.not(&hdr_fits);
    if env.branch(hdr_overruns) {
        return Err(DropReason::HeaderOverrun);
    }
    // And the datagram must hold the L4 header (20 for TCP, 8 for UDP).
    // (Subtraction safe: ihl <= total_len just established. Together
    // with total_len <= frame_len - 14 this proves the L4 ports lie
    // within the frame, so the zero-fill fallback is never used on
    // forwarded packets.)
    let l4_avail = env.sub_u16(&pkt.total_len, &ihl);
    let l4_need = env.c_u16(match proto {
        Proto::Tcp => 20,
        Proto::Udp => 8,
    });
    let short_l4 = env.lt_u16(&l4_avail, &l4_need);
    if env.branch(short_l4) {
        return Err(DropReason::ShortL4);
    }

    Ok(proto)
}

/// Internal packet: forward it from the sender's external endpoint
/// ([`sender_endpoint`], Fig. 6's `update_flow`) — out to its own
/// destination, or, on the hairpin leg, back inside to the target's
/// internal endpoint. Mirrors `vig_spec::rfc3022::decide`'s internal
/// arm clause for clause.
///
/// `hint`: a *trusted hit* from a batched lookup, or `None` to probe
/// here. Only hits may be passed: a burst-mate packet can insert a flow
/// after the batch probe (so a batched miss must be re-checked, which
/// passing `None` does), but nothing removes flows mid-burst, so a
/// batched hit stays valid.
fn translate_internal<E: NatEnv + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    handle: PktHandle,
    pkt: &Frame<E::Values>,
    proto: Proto,
    now: E::U64,
    hint: Hint<E>,
) -> IterationOutcome {
    // Hairpinning (RFC 4787 REQ-9): an internal packet aimed at one of
    // the NAT's *own* pool endpoints is looped back to the internal
    // host that holds that mapping, instead of being sent out. The
    // membership test is a concrete-config-shaped ladder of domain
    // comparisons; the branch on `cfg.hairpinning` itself is concrete,
    // so the paper's default configuration keeps its exact path set.
    // The target is found by its external key (`check_config` requires
    // EIM and one pool address); no target mapping → drop. The target
    // merely *receives* traffic, so, like any inbound packet's, its
    // mapping is not rejuvenated.
    let (out, dst) = if cfg.hairpinning && dst_is_pool_endpoint(env, cfg, pkt) {
        let target_key = external_key(env, cfg, pkt, proto);
        let Some((_, target)) = env.lookup_external(&target_key) else {
            env.drop_pkt(handle);
            return IterationOutcome::Dropped(DropReason::NoFlow);
        };
        (Direction::Internal, target.int)
    } else {
        let dst = (pkt.dst_ip.clone(), pkt.dst_port.clone());
        (Direction::External, dst)
    };
    let Some(src) = sender_endpoint(env, cfg, pkt, proto, &now, hint) else {
        env.drop_pkt(handle);
        return IterationOutcome::Dropped(DropReason::TableFull);
    };
    env.tx(handle, out, Tuple { src, dst, proto });
    IterationOutcome::Forwarded(out)
}

/// Fig. 6 `update_flow` for an internal sender: its mapping's external
/// endpoint, rejuvenated on a hit, or a newly inserted one on a miss;
/// `None` when the table is full. Mirrors `vig_spec::rfc3022`'s
/// function of the same name. `hint` is [`translate_internal`]'s.
fn sender_endpoint<E: NatEnv + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    pkt: &Frame<E::Values>,
    proto: Proto,
    now: &E::U64,
    hint: Hint<E>,
) -> Option<Endpoint<E>> {
    let fid = internal_fid(env, cfg, pkt, proto);
    if let Some((slot, mapping)) = hint.or_else(|| env.lookup_internal(&fid)) {
        env.rejuvenate(slot, now, Direction::Internal, &pkt.tcp_flags, proto);
        return Some(mapping.ext);
    }
    let (slot, offset, ext_ip) = env.allocate_slot(now)?;
    // VigNAT's port arithmetic: ext_port = start_port + offset, where
    // the env's offset is the slot's index within its pool address —
    // the slot index itself with the paper's single-address pool,
    // making this Fig. 6's `start_port + slot` verbatim. No overflow:
    // offset < ports_per_ip and start_port + ports_per_ip <= 65536 by
    // construction of the pool mapping.
    let start = env.c_u16(cfg.start_port);
    let ext = (ext_ip, env.add_u16(&start, &offset));
    env.insert_flow(slot, fid, ext.clone(), now, &pkt.tcp_flags);
    Some(ext)
}

/// External → internal path: match or drop, rewrite destination to the
/// internal endpoint.
///
/// `hint`: a *trusted hit* from a batched lookup, or `None` to probe
/// here — the rule of [`translate_internal`], for the same reason:
/// expiry ran before the batch probe and nothing else removes a flow
/// mid-burst, so a batched hit stays valid, while an earlier packet of
/// the burst may have created the flow a batched miss did not see.
fn translate_external<E: NatEnv + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    handle: PktHandle,
    pkt: &Frame<E::Values>,
    proto: Proto,
    now: E::U64,
    hint: Hint<E>,
) -> IterationOutcome {
    let found = hint.or_else(|| {
        let ek = external_key(env, cfg, pkt, proto);
        env.lookup_external(&ek)
    });
    match found {
        Some((slot, mapping)) => {
            env.rejuvenate(slot, &now, Direction::External, &pkt.tcp_flags, proto);
            let (src, dst) = ((pkt.src_ip.clone(), pkt.src_port.clone()), mapping.int);
            env.tx(handle, Direction::Internal, Tuple { src, dst, proto });
            IterationOutcome::Forwarded(Direction::Internal)
        }
        None => {
            env.drop_pkt(handle);
            IterationOutcome::Dropped(DropReason::NoFlow)
        }
    }
}

/// Build the external match key for a return packet: from the
/// allocated endpoint to the remote one. Needs only [`Domain`]
/// operations, so the RSS classifier steers return traffic by calling
/// this very function (over [`crate::domain::Concrete`]).
pub fn external_key<E: Domain + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    pkt: &Frame<E::Values>,
    proto: Proto,
) -> Tuple<E::Values> {
    // Pool-address selection for the match key. With the paper's
    // single-address pool the NAT owns its one external address and —
    // like Fig. 6 — matches return traffic without consulting the
    // packet's destination ip (the router already delivered it here).
    // With a multi-address pool the destination ip *selects* the pool
    // address, so it joins the key. The branch is on concrete
    // configuration, not packet data — both the symbolic engine and
    // the differential tests see a fixed shape per config.
    let ext_ip = if cfg.is_single_address() {
        env.c_u32(cfg.external_ip.raw())
    } else {
        pkt.dst_ip.clone()
    };
    // Under endpoint-independent mapping the mapping is keyed by the
    // allocated endpoint alone — the remote fields are the canonical
    // zeros, so any external sender matches (full-cone). Concrete-config
    // branch, like the pool-address selection above.
    let (rem_ip, rem_port) = if cfg.eim {
        (env.c_u32(0), env.c_u16(0))
    } else {
        (pkt.src_ip.clone(), pkt.src_port.clone())
    };
    Tuple {
        src: (ext_ip, pkt.dst_port.clone()),
        dst: (rem_ip, rem_port),
        proto,
    }
}

/// Build the internal match key for a packet. Under RFC 4787
/// endpoint-independent mapping (`cfg.eim`) the remote endpoint does
/// not participate in the mapping — the key's destination fields are
/// canonicalized to zero, so every remote peer reuses the same
/// mapping. The branch is on concrete configuration, so each config
/// has a fixed key shape (and a fixed symbolic path set). Exported,
/// like [`external_key`], so dispatch hashes the key the lookup will use.
pub fn internal_fid<E: Domain + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    pkt: &Frame<E::Values>,
    proto: Proto,
) -> Tuple<E::Values> {
    let dst = if cfg.eim {
        (env.c_u32(0), env.c_u16(0))
    } else {
        (pkt.dst_ip.clone(), pkt.dst_port.clone())
    };
    Tuple {
        src: (pkt.src_ip.clone(), pkt.src_port.clone()),
        dst,
        proto,
    }
}

/// Is the packet's destination one of the NAT's own pool endpoints?
/// Mirrors [`NatConfig::slot_of_endpoint`]'s membership test for the
/// single-address pool that hairpinning requires (enforced by
/// [`check_config`]): `dst_ip == external_ip && start_port <= dst_port
/// < start_port + capacity`. Built as a ladder of domain comparisons —
/// each conjunct is its own [`NatEnv::branch`], the same shape the
/// validation ladder uses.
fn dst_is_pool_endpoint<E: NatEnv + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    pkt: &Frame<E::Values>,
) -> bool {
    debug_assert_eq!(
        cfg.num_external_ips(),
        1,
        "hairpinning requires a single-address pool (check_config)"
    );
    let ext = env.c_u32(cfg.external_ip.raw());
    let ip_match = env.eq_u32(&pkt.dst_ip, &ext);
    if !env.branch(ip_match) {
        return false;
    }
    let start = env.c_u16(cfg.start_port);
    let below = env.lt_u16(&pkt.dst_port, &start);
    if env.branch(below) {
        return false;
    }
    // start_port + capacity <= 65536 by the pool-fits-IPv4 invariant;
    // when it is exactly 65536 every port >= start_port is in the pool
    // and the upper test vanishes (concrete-config branch).
    let end = usize::from(cfg.start_port) + cfg.capacity;
    if end <= 65535 {
        let endv = env.c_u16(end as u16);
        let in_range = env.lt_u16(&pkt.dst_port, &endv);
        if !env.branch(in_range) {
            return false;
        }
    }
    true
}

/// Largest burst [`nat_process_batch_into`] pulls per call — the
/// `rte_eth_rx_burst` default DPDK NFs use.
pub const MAX_BURST: usize = 32;

/// [`nat_process_batch_into`], collecting the outcomes into a `Vec`
/// (one allocation per call): for callers that want the burst's
/// outcomes as a value. The datapath's drivers pass a sink instead.
pub fn nat_process_batch<E: NatEnv + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
) -> Vec<IterationOutcome> {
    let mut outcomes = Vec::with_capacity(MAX_BURST);
    nat_process_batch_into(env, cfg, |o| outcomes.push(o));
    outcomes
}

/// One burst of the NAT's packet-processing loop: pull up to
/// [`MAX_BURST`] packets and process them with per-packet semantics
/// **identical** to that many [`nat_loop_iteration`] calls made at the
/// same instant, while amortizing per-iteration overhead across the
/// burst:
///
/// * the clock is read **once** (a burst is one arrival instant, the
///   run-to-completion model: `rte_eth_rx_burst` → process → tx);
/// * `expire_flows` runs **once** — re-running it mid-burst is provably
///   a no-op, because every flow touched after the first scan is
///   stamped `now > now - Texp` (`Texp > 0` by the config invariant);
/// * flow lookups of **both directions** are issued as batched probes
///   ([`NatEnv::lookup_internal_batch`],
///   [`NatEnv::lookup_external_batch`]) which the concrete flow tables
///   run as a staged first-touch pipeline, so the burst's cache misses
///   overlap; only *hits* are trusted, and misses re-probe at their
///   sequence point, so a flow inserted by an earlier packet of the
///   same burst is still found by a later one — in either direction
///   (mixed-direction bursts, hairpinning).
///
/// The batched probe (pass 2 below) is also where **RSS-style shard
/// dispatch** rides when the environment's flow table is sharded
/// ([`crate::sharded::ShardedFlowManager`]): the probe pass has already
/// computed each query's key hash, and in the table's one staged loop
/// each query routes to its shard by that same memoized hash — the
/// hash doubles as the shard selector, so dispatch adds no hash
/// computation and no extra pass. The loop body itself is oblivious:
/// slots it sees are global (`ext_port = start_port + slot` holds
/// verbatim across shards), so this function is byte-for-byte the same
/// code on sharded and unsharded tables, and the sharded differential
/// tests (`tests/shard_equivalence.rs`) lean on exactly that.
///
/// All per-packet *effects* (rejuvenate, allocate, insert, tx, drop)
/// happen strictly in arrival order, so flow-table state — including
/// LRU order and slot⇄port assignment — ends up exactly as the
/// sequential loop leaves it. `tests/batch_equivalence.rs` asserts this
/// differentially on adversarial traffic.
///
/// Hands `sink` one [`IterationOutcome`] per received packet, in
/// arrival order (none when no packet was pending).
///
/// Packets, verdicts, queries and hints live in fixed `[_; MAX_BURST]`
/// arrays indexed by packet position, filled in place: the burst
/// allocates nothing ([`nat_process_batch`] is the form that collects
/// the outcomes into a `Vec`).
pub fn nat_process_batch_into<E: NatEnv + ?Sized>(
    env: &mut E,
    cfg: &NatConfig,
    mut sink: impl FnMut(IterationOutcome),
) {
    let now = env.now();
    expire_guarded(env, cfg, &now); // once per burst

    // Receive until the env runs dry or the burst is full (the
    // `rte_eth_rx_burst` analog). Burst arrays are filled by plain
    // loops: filling this one by a `from_fn` closure that called
    // `receive` cost ≈ 20 ns per packet on the new-flow path.
    let mut pkts: [Option<(PktHandle, Frame<E::Values>)>; MAX_BURST] =
        std::array::from_fn(|_| None);
    let mut n = 0;
    while n < MAX_BURST {
        let Some(pkt) = env.receive() else { break };
        pkts[n] = Some(pkt);
        n += 1;
    }
    let pkts = &pkts[..n];

    // Pass 1: validation ladder per packet. Decision only — the
    // `drop_pkt` *effect* is deferred to pass 3 so every buffer is
    // consumed at its own sequence point, in arrival order, exactly as
    // the sequential loop consumes them.
    let mut verdicts: [Option<Result<Proto, DropReason>>; MAX_BURST] = [None; MAX_BURST];
    for (verdict, (_, pkt)) in verdicts.iter_mut().zip(pkts.iter().flatten()) {
        *verdict = Some(validate(env, pkt));
    }

    // Pass 2: batched probes for every valid packet's own lookup, by
    // direction. (On a sharded flow table this is the dispatch point:
    // each query routes to its shard where it sits — see the function
    // docs.) Keys are built by `internal_fid`/`external_key`,
    // so EIM canonicalization applies to batched probes exactly as to
    // sequence-point lookups. (On the hairpin path the sender's key is
    // this same fid, so a batched hit stays a valid hint there too; the
    // hairpin *target* is looked up at its sequence point.)
    let mut int_queries: [Option<Tuple<E::Values>>; MAX_BURST] = std::array::from_fn(|_| None);
    let mut ext_queries: [Option<Tuple<E::Values>>; MAX_BURST] = std::array::from_fn(|_| None);
    let (mut any_int, mut any_ext) = (false, false);
    for (i, (_, pkt)) in pkts.iter().flatten().enumerate() {
        if let Some(Ok(proto)) = verdicts[i] {
            match pkt.dir {
                Direction::Internal => {
                    int_queries[i] = Some(internal_fid(env, cfg, pkt, proto));
                    any_int = true;
                }
                Direction::External => {
                    ext_queries[i] = Some(external_key(env, cfg, pkt, proto));
                    any_ext = true;
                }
            }
        }
    }
    let mut hints: [Hint<E>; MAX_BURST] = std::array::from_fn(|_| None);
    if any_int {
        env.lookup_internal_batch(&int_queries[..n], &mut hints[..n]);
    }
    if any_ext {
        env.lookup_external_batch(&ext_queries[..n], &mut hints[..n]);
    }

    // Pass 3: complete each packet in arrival order. Trust batched
    // hits; batched misses pass `None` and re-probe at the sequence
    // point (see `translate_internal`).
    for (i, &(handle, ref pkt)) in pkts.iter().flatten().enumerate() {
        let verdict = verdicts[i].expect("every received packet was validated in pass 1");
        sink(complete(
            env,
            cfg,
            handle,
            pkt,
            verdict,
            now.clone(),
            hints[i].take(),
        ));
    }
}

/// Validate the VigNAT configuration invariants the loop body's proofs
/// rely on. Call once at NF start-up (all provided environments do).
pub fn check_config(cfg: &NatConfig) -> Result<(), String> {
    if cfg.capacity == 0 {
        return Err("capacity must be at least 1".into());
    }
    // Million-flow tables are in scope; the cap below only keeps the
    // per-slot structures (flow table, dchain — both u32-indexed) and
    // their memory honestly bounded.
    if cfg.capacity > MAX_CAPACITY {
        return Err(format!(
            "capacity {} exceeds the supported maximum {}",
            cfg.capacity, MAX_CAPACITY
        ));
    }
    if cfg.start_port == 0 {
        return Err("start_port 0 would allocate the invalid port 0".into());
    }
    // The endpoint pool `slot -> (external_ip + slot/P, start_port +
    // slot%P)` must not run off the end of the IPv4 address space.
    // (With capacity <= P this reduces to the paper's single-address
    // `start_port + capacity <= 65536` shape: one address, contiguous
    // ports.)
    let last_ip = u64::from(cfg.external_ip.raw()) + (cfg.num_external_ips() as u64 - 1);
    if last_ip > u64::from(u32::MAX) {
        return Err(format!(
            "endpoint pool overflows the IPv4 space: {} addresses from {}",
            cfg.num_external_ips(),
            cfg.external_ip
        ));
    }
    if cfg.expiry_ns == 0 {
        return Err("expiry must be non-zero (flows would die instantly)".into());
    }
    // Per-class TCP lifetimes: zero means "inherit expiry_ns", so
    // lifetime_ns() is non-zero for every class once expiry_ns is —
    // nothing further to check there. Hairpinning, however, has two
    // structural prerequisites:
    if cfg.hairpinning && !cfg.eim {
        // The hairpin target is resolved by its allocated endpoint
        // alone — without EIM the mapping is keyed by a specific remote
        // endpoint and the hairpinned sender can never match it.
        return Err("hairpinning requires endpoint-independent mapping (eim)".into());
    }
    if cfg.hairpinning && cfg.num_external_ips() > 1 {
        // Pool membership is a port-range test only when the pool is
        // one address; RFC 4787's reference NAT has a single external
        // address, and multi-address hairpinning is out of scope.
        return Err("hairpinning requires a single-address pool".into());
    }
    Ok(())
}

/// Largest supported `capacity`: 2^26 flows. Far beyond the paper's
/// evaluation (and the issue's 2^20 target) while keeping u32 slot
/// indices — which the dchain's intrusive links use — comfortably
/// valid and table memory bounded.
pub const MAX_CAPACITY: usize = 1 << 26;

#[cfg(test)]
mod tests {
    use super::*;
    use libvig::time::Time;
    use vig_packet::Ip4;

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 8,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    #[test]
    fn config_invariants() {
        check_config(&cfg()).unwrap();
        check_config(&NatConfig {
            capacity: 0,
            ..cfg()
        })
        .unwrap_err();
        // Capacities past one address' worth of ports are now valid —
        // the pool spills onto consecutive addresses.
        check_config(&NatConfig {
            capacity: 70_000,
            ..cfg()
        })
        .unwrap();
        check_config(&NatConfig {
            capacity: 1 << 20,
            ..cfg()
        })
        .unwrap();
        check_config(&NatConfig {
            start_port: 65_000,
            capacity: 1000,
            ..cfg()
        })
        .unwrap();
        check_config(&NatConfig {
            capacity: MAX_CAPACITY + 1,
            ..cfg()
        })
        .unwrap_err();
        // A pool that would run past 255.255.255.255 is rejected.
        check_config(&NatConfig {
            external_ip: vig_packet::Ip4::new(255, 255, 255, 255),
            capacity: 70_000,
            ..cfg()
        })
        .unwrap_err();
        check_config(&NatConfig {
            start_port: 0,
            ..cfg()
        })
        .unwrap_err();
        check_config(&NatConfig {
            expiry_ns: 0,
            ..cfg()
        })
        .unwrap_err();
        check_config(&NatConfig::paper_default()).unwrap();
        // Hairpinning needs EIM and a single-address pool.
        check_config(&NatConfig {
            hairpinning: true,
            eim: false,
            ..cfg()
        })
        .unwrap_err();
        check_config(&NatConfig {
            hairpinning: true,
            eim: true,
            capacity: 70_000, // spills onto a second pool address
            ..cfg()
        })
        .unwrap_err();
        check_config(&NatConfig {
            hairpinning: true,
            eim: true,
            ..cfg()
        })
        .unwrap();
        // EIM alone is fine, with or without per-class TCP lifetimes.
        check_config(&NatConfig {
            eim: true,
            tcp_transitory_ns: 1,
            tcp_established_ns: u64::MAX,
            ..cfg()
        })
        .unwrap();
    }
}
