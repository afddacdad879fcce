//! The abstract NAT state: the paper's `flow_table` plus configuration.
//!
//! Everything here is deliberately naive — linear scans, owned vectors —
//! because this is the *specification*. Its job is to be obviously
//! correct, not fast; the verified implementation (the `vignat` crate)
//! is what has to be fast, and the whole point of the methodology is to
//! prove the fast thing refines this slow, obvious thing.

use crate::tcp::{class_of, initial_state, transition, TcpState, TimeoutClass};
use libvig::time::Time;
use vig_packet::{Direction, ExtKey, FlowId, Ip4, Proto};

/// The three static configuration parameters of the paper's Fig. 6,
/// plus the first external port (a VigNAT implementation parameter the
/// spec needs in order to state port-range facts), the RFC 5382
/// per-class TCP lifetimes, and the RFC 4787 mapping-behavior switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatConfig {
    /// `CAP`: flow-table capacity.
    pub capacity: usize,
    /// `Texp` in nanoseconds: a flow expires when
    /// `timestamp + expiry <= now`. With the TCP tracker enabled this
    /// is the UDP class's lifetime; TCP classes use the fields below.
    pub expiry_ns: u64,
    /// `EXT_IP`: the address of the external interface.
    pub external_ip: Ip4,
    /// First port of the NAT's external port range. VigNAT maps flow
    /// slot `i` to port `start_port + i`.
    pub start_port: u16,
    /// Lifetime of TCP flows in a non-established state (RFC 5382's
    /// transitory timer). `0` inherits `expiry_ns` — the paper's
    /// homogeneous single-`Texp` configuration.
    pub tcp_transitory_ns: u64,
    /// Lifetime of established TCP flows (RFC 5382 requires ≥ 2h 4min
    /// in deployments; tests use small values). `0` inherits
    /// `expiry_ns`.
    pub tcp_established_ns: u64,
    /// RFC 4787 endpoint-independent mapping: when set, a mapping is
    /// keyed by the internal endpoint alone (full-cone), so every
    /// remote peer reaches the host through the same external endpoint.
    pub eim: bool,
    /// RFC 4787 hairpinning: internal→internal traffic addressed to a
    /// pool endpoint is translated back inside. Requires `eim` (the
    /// external lookup that resolves the target is endpoint-wide).
    pub hairpinning: bool,
}

impl NatConfig {
    /// The paper's evaluation configuration: 65,535 flows, 2 s expiry,
    /// homogeneous lifetimes, address-and-port-dependent mapping.
    pub fn paper_default() -> NatConfig {
        NatConfig {
            capacity: 65_535,
            expiry_ns: Time::from_secs(2).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1, // slots 0..65534 -> ports 1..65535, like VigNAT
            tcp_transitory_ns: 0,
            tcp_established_ns: 0,
            eim: false,
            hairpinning: false,
        }
    }

    /// The lifetime (ns) of a flow in timeout class `class`. The TCP
    /// fields inherit `expiry_ns` while unset (0), so a config that
    /// never mentions them behaves exactly like the paper's.
    pub fn lifetime_ns(&self, class: TimeoutClass) -> u64 {
        let inherit = |ns: u64| if ns == 0 { self.expiry_ns } else { ns };
        match class {
            TimeoutClass::Udp => self.expiry_ns,
            TimeoutClass::TcpTransitory => inherit(self.tcp_transitory_ns),
            TimeoutClass::TcpEstablished => inherit(self.tcp_established_ns),
        }
    }

    /// The shortest configured lifetime across all classes. The loop
    /// body passes `now - min_lifetime` to `expire_flows`, and the flow
    /// table reconstructs `now` (and each class's threshold) from it —
    /// keeping the environment seam's single-threshold shape intact.
    pub fn min_lifetime_ns(&self) -> u64 {
        TimeoutClass::ALL
            .into_iter()
            .map(|c| self.lifetime_ns(c))
            .min()
            .expect("ALL is non-empty")
    }

    /// True when every class shares `expiry_ns` — the paper's original
    /// configuration, on which the per-class machinery must reduce to
    /// the verified single-lifetime behavior bit for bit.
    pub fn is_homogeneous(&self) -> bool {
        TimeoutClass::ALL
            .into_iter()
            .all(|c| self.lifetime_ns(c) == self.expiry_ns)
    }

    /// Per-class expiry threshold: a class-`c` flow stamped at or
    /// before this is dead at `now` (Fig. 6 line 7: `timestamp + Texp
    /// <= t`). `None` while `now` is below the class's lifetime.
    pub fn expiry_threshold_for(&self, class: TimeoutClass, now: Time) -> Option<Time> {
        now.nanos().checked_sub(self.lifetime_ns(class)).map(Time)
    }

    // --- the external endpoint pool ------------------------------------
    //
    // The paper's NAT owns ONE external address, so `capacity` is bounded
    // by the 65536 − start_port usable ports and slot `i` maps to port
    // `start_port + i`. A million-flow NAT needs more 5-tuple space than
    // one address holds; the standard carrier-grade answer is an address
    // *pool*: consecutive addresses starting at `external_ip`, each
    // carrying the same port range. Slot `i` maps to the `i`-th endpoint
    // of the pool in (address, port) lexicographic order — a bijection,
    // so every slot still owns exactly one external endpoint and the
    // paper's slot⇄endpoint reasoning survives unchanged. With
    // `capacity <= ports_per_ip()` the pool is exactly one address and
    // every function below reduces to the paper's single-IP behavior.

    /// Usable external ports per pool address: `start_port..=65535`.
    pub fn ports_per_ip(&self) -> usize {
        65_536 - usize::from(self.start_port)
    }

    /// True while the whole pool lives on one address — the paper's
    /// setup, `num_external_ips() == 1` without the division (the
    /// datapath asks this per return packet).
    pub fn is_single_address(&self) -> bool {
        self.capacity <= self.ports_per_ip()
    }

    /// Number of consecutive external addresses the pool spans
    /// (1 while `capacity <= ports_per_ip()` — the paper's setup).
    pub fn num_external_ips(&self) -> usize {
        if self.is_single_address() {
            1
        } else {
            self.capacity.div_ceil(self.ports_per_ip())
        }
    }

    /// The external address slot `slot` translates through.
    pub fn ext_ip_of_slot(&self, slot: usize) -> Ip4 {
        debug_assert!(slot < self.capacity, "slot out of range");
        Ip4(self.external_ip.raw() + (slot / self.ports_per_ip()) as u32)
    }

    /// The external port slot `slot` translates through.
    pub fn ext_port_of_slot(&self, slot: usize) -> u16 {
        debug_assert!(slot < self.capacity, "slot out of range");
        self.start_port + (slot % self.ports_per_ip()) as u16
    }

    /// Inverse of the slot→endpoint bijection: which slot owns external
    /// endpoint `(ip, port)`? `None` when the endpoint is outside the
    /// pool (return traffic for it can never match a flow).
    pub fn slot_of_endpoint(&self, ip: Ip4, port: u16) -> Option<usize> {
        let ip_off = ip.raw().checked_sub(self.external_ip.raw())? as usize;
        let port_off = usize::from(port.checked_sub(self.start_port)?);
        // No test of `ip_off` against the address count (a division,
        // per return packet): an address past the last puts the product
        // at or past `capacity`. Checked for 32-bit `usize`.
        let slot = ip_off
            .checked_mul(self.ports_per_ip())?
            .checked_add(port_off)?;
        (slot < self.capacity).then_some(slot)
    }

    /// Whether `(ip, port)` is an endpoint this NAT may translate
    /// through (i.e. some slot owns it).
    pub fn pool_contains(&self, ip: Ip4, port: u16) -> bool {
        self.slot_of_endpoint(ip, port).is_some()
    }
}

/// One abstract flow-table entry: the internal 5-tuple, the allocated
/// external endpoint (pool address + port), the last-activity
/// timestamp, and — for TCP flows — the connection-tracker state that
/// selects the flow's timeout class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractFlow {
    /// Internal-side flow identifier.
    pub fid: FlowId,
    /// Allocated external (pool) address.
    pub ext_ip: Ip4,
    /// Allocated external port.
    pub ext_port: u16,
    /// Last time a packet of this flow was seen.
    pub last_active: Time,
    /// TCP tracker state; `None` for UDP flows.
    pub tcp_state: Option<TcpState>,
}

impl AbstractFlow {
    /// The external key under which return traffic matches this flow.
    pub fn ext_key(&self) -> ExtKey {
        ExtKey {
            ext_ip: self.ext_ip,
            ext_port: self.ext_port,
            dst_ip: self.fid.dst_ip,
            dst_port: self.fid.dst_port,
            proto: self.fid.proto,
        }
    }

    /// The timeout class this flow currently expires under.
    pub fn class(&self) -> TimeoutClass {
        class_of(self.fid.proto, self.tcp_state)
    }
}

/// The abstract NAT state: configuration plus the flow table.
///
/// Invariants (maintained by construction, and checked by the tests'
/// `check_invariants`):
///
/// * at most `capacity` flows;
/// * internal flow ids are pairwise distinct;
/// * external endpoints `(ext_ip, ext_port)` are pairwise distinct and
///   drawn from the configured pool (the strong uniqueness VigNAT
///   provides; RFC 3022 NAPT only requires distinct external *keys*);
/// * no flow uses external port 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractNat {
    config: NatConfig,
    flows: Vec<AbstractFlow>,
}

impl AbstractNat {
    /// Fresh NAT with an empty flow table.
    pub fn new(config: NatConfig) -> AbstractNat {
        AbstractNat {
            config,
            flows: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NatConfig {
        &self.config
    }

    /// Current flow count.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// True when the table is full (`size(flow_table) == CAP`).
    pub fn is_full(&self) -> bool {
        self.flows.len() >= self.config.capacity
    }

    /// The flows (unspecified order).
    pub fn flows(&self) -> &[AbstractFlow] {
        &self.flows
    }

    /// Fig. 6 `expire_flows(t)`, per timeout class: remove every flow
    /// with `timestamp + lifetime(class) <= t`. With homogeneous
    /// lifetimes every class shares `Texp` and this is exactly the
    /// paper's rule. Returns the removed flows.
    pub fn expire_flows(&mut self, now: Time) -> Vec<AbstractFlow> {
        let config = self.config;
        let (dead, live): (Vec<_>, Vec<_>) = self.flows.iter().copied().partition(|f| {
            match config.expiry_threshold_for(f.class(), now) {
                Some(threshold) => f.last_active <= threshold,
                // now < lifetime: flows of this class cannot have
                // expired yet.
                None => false,
            }
        });
        self.flows = live;
        dead
    }

    /// Find a flow by its internal 5-tuple (`F(P)` for internal packets).
    pub fn lookup_internal(&self, fid: &FlowId) -> Option<&AbstractFlow> {
        self.flows.iter().find(|f| f.fid == *fid)
    }

    /// Find a flow by its external key (`F(P)` for external packets).
    pub fn lookup_external(&self, ek: &ExtKey) -> Option<&AbstractFlow> {
        self.flows.iter().find(|f| f.ext_key() == *ek)
    }

    /// Is this external endpoint already allocated to some flow? (With
    /// a single-address pool this is the paper's "port in use" test;
    /// with a larger pool the same port may serve once per address.)
    pub fn endpoint_in_use(&self, ip: Ip4, port: u16) -> bool {
        self.flows
            .iter()
            .any(|f| f.ext_ip == ip && f.ext_port == port)
    }

    /// Fig. 6 lines 10–12: refresh the timestamp of an existing flow,
    /// and step its TCP tracker with a packet from `dir` carrying
    /// `tcp_flags` (0 for UDP — the tracker never fires on an empty flag
    /// set). Returns `false` if the flow is absent (caller error).
    pub fn refresh_with(&mut self, fid: &FlowId, now: Time, dir: Direction, tcp_flags: u8) -> bool {
        match self.flows.iter_mut().find(|f| f.fid == *fid) {
            Some(f) => {
                f.last_active = now;
                if let Some(st) = f.tcp_state {
                    f.tcp_state = Some(transition(st, dir, tcp_flags));
                }
                true
            }
            None => false,
        }
    }

    /// Fig. 6 line 16: insert a new flow mapped to the external
    /// endpoint `(ext_ip, ext_port)`, created by a segment carrying
    /// `tcp_flags` (ignored for UDP), which selects the flow's initial
    /// tracker state. Enforces the state invariants; an `Err` here means
    /// the *caller* (the NF under test, or a buggy spec client) violated
    /// the RFC. The endpoint must belong to the configured pool (with a
    /// single-address pool: `ext_ip` must be `EXT_IP`, exactly the
    /// paper's constraint).
    pub fn insert_with_flags(
        &mut self,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        now: Time,
        tcp_flags: u8,
    ) -> Result<(), InsertError> {
        if self.is_full() {
            return Err(InsertError::TableFull);
        }
        if self.lookup_internal(&fid).is_some() {
            return Err(InsertError::DuplicateFlowId);
        }
        if ext_port == 0 {
            return Err(InsertError::PortZero);
        }
        // With the paper's single-address pool the spec constrains only
        // the address (Fig. 6 rewrites to EXT_IP; the port is the NF's
        // free choice). With a multi-address pool the whole endpoint
        // must come from the pool — the address/port pair is how return
        // traffic finds its way back.
        let in_pool = if self.config.num_external_ips() == 1 {
            ext_ip == self.config.external_ip
        } else {
            self.config.pool_contains(ext_ip, ext_port)
        };
        if !in_pool {
            return Err(InsertError::EndpointOutsidePool(ext_ip, ext_port));
        }
        if self.endpoint_in_use(ext_ip, ext_port) {
            return Err(InsertError::EndpointInUse(ext_ip, ext_port));
        }
        self.flows.push(AbstractFlow {
            fid,
            ext_ip,
            ext_port,
            last_active: now,
            tcp_state: (fid.proto == Proto::Tcp).then(|| initial_state(tcp_flags)),
        });
        Ok(())
    }
}

/// Why an [`AbstractNat::insert_with_flags`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// `size(flow_table) == CAP`.
    TableFull,
    /// The internal 5-tuple is already mapped.
    DuplicateFlowId,
    /// Port 0 is never a valid translation.
    PortZero,
    /// The external endpoint is not in the configured pool.
    EndpointOutsidePool(Ip4, u16),
    /// The external endpoint is already allocated.
    EndpointInUse(Ip4, u16),
}

#[cfg(test)]
impl NatConfig {
    /// Expiry threshold for packets arriving at `now`: flows stamped at
    /// or before this are dead (Fig. 6 line 7: `timestamp + Texp <= t`).
    /// `None` while `now < Texp`, when nothing can have expired yet.
    pub fn expiry_threshold(&self, now: Time) -> Option<Time> {
        now.nanos().checked_sub(self.expiry_ns).map(Time)
    }
}

/// Conveniences and the invariant oracle the tests use.
#[cfg(test)]
impl AbstractNat {
    /// Fig. 6 lines 10–12: refresh the timestamp of an existing flow.
    /// Returns `false` if the flow is absent (caller error).
    pub fn refresh(&mut self, fid: &FlowId, now: Time) -> bool {
        self.refresh_with(fid, now, Direction::Internal, 0)
    }

    /// Fig. 6 line 16: insert a new flow mapped to the external
    /// endpoint `(ext_ip, ext_port)`. A flow created by a segment
    /// with no TCP flags.
    pub fn insert(
        &mut self,
        fid: FlowId,
        ext_ip: Ip4,
        ext_port: u16,
        now: Time,
    ) -> Result<(), InsertError> {
        self.insert_with_flags(fid, ext_ip, ext_port, now, 0)
    }

    /// Verify the state invariants hold (used by tests and after
    /// deserialization-like operations; `insert` maintains them).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.flows.len() > self.config.capacity {
            return Err(format!(
                "flow table over capacity: {} > {}",
                self.flows.len(),
                self.config.capacity
            ));
        }
        for (i, f) in self.flows.iter().enumerate() {
            if f.ext_port == 0 {
                return Err("flow uses external port 0".into());
            }
            let in_pool = if self.config.num_external_ips() == 1 {
                f.ext_ip == self.config.external_ip
            } else {
                self.config.pool_contains(f.ext_ip, f.ext_port)
            };
            if !in_pool {
                return Err(format!(
                    "flow endpoint {}:{} outside the configured pool",
                    f.ext_ip, f.ext_port
                ));
            }
            for g in &self.flows[i + 1..] {
                if f.fid == g.fid {
                    return Err(format!("duplicate internal flow id: {}", f.fid));
                }
                if f.ext_ip == g.ext_ip && f.ext_port == g.ext_port {
                    return Err(format!(
                        "duplicate external endpoint: {}:{}",
                        f.ext_ip, f.ext_port
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vig_packet::Proto;

    fn cfg() -> NatConfig {
        NatConfig {
            capacity: 3,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1000,
            ..NatConfig::paper_default()
        }
    }

    fn fid(h: u8) -> FlowId {
        FlowId {
            src_ip: Ip4::new(192, 168, 0, h),
            src_port: 5000,
            dst_ip: Ip4::new(1, 1, 1, 1),
            dst_port: 80,
            proto: Proto::Udp,
        }
    }

    #[test]
    fn insert_until_full() {
        let mut n = AbstractNat::new(cfg());
        n.insert(fid(1), Ip4::new(10, 1, 0, 1), 1000, Time::from_secs(1))
            .unwrap();
        n.insert(fid(2), Ip4::new(10, 1, 0, 1), 1001, Time::from_secs(1))
            .unwrap();
        n.insert(fid(3), Ip4::new(10, 1, 0, 1), 1002, Time::from_secs(1))
            .unwrap();
        assert!(n.is_full());
        assert_eq!(
            n.insert(fid(4), Ip4::new(10, 1, 0, 1), 1003, Time::from_secs(1)),
            Err(InsertError::TableFull)
        );
        n.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_detection() {
        let mut n = AbstractNat::new(cfg());
        n.insert(fid(1), Ip4::new(10, 1, 0, 1), 1000, Time::from_secs(1))
            .unwrap();
        assert_eq!(
            n.insert(fid(1), Ip4::new(10, 1, 0, 1), 1001, Time::from_secs(1)),
            Err(InsertError::DuplicateFlowId)
        );
        assert_eq!(
            n.insert(fid(2), Ip4::new(10, 1, 0, 1), 1000, Time::from_secs(1)),
            Err(InsertError::EndpointInUse(Ip4::new(10, 1, 0, 1), 1000))
        );
        assert_eq!(
            n.insert(fid(2), Ip4::new(10, 1, 0, 1), 0, Time::from_secs(1)),
            Err(InsertError::PortZero)
        );
    }

    #[test]
    fn expiry_is_exact_per_fig6() {
        let mut n = AbstractNat::new(cfg());
        n.insert(fid(1), Ip4::new(10, 1, 0, 1), 1000, Time::from_secs(5))
            .unwrap();
        // timestamp + Texp = 15s; at t=14.999..9 it survives, at 15 it dies
        assert!(n
            .expire_flows(Time(Time::from_secs(15).nanos() - 1))
            .is_empty());
        assert_eq!(n.expire_flows(Time::from_secs(15)).len(), 1);
        assert!(n.is_empty());
    }

    #[test]
    fn early_clock_expires_nothing() {
        // now < Texp: threshold undefined, nothing expires — including
        // flows stamped at t=0 (the saturating-subtraction bug this
        // guards against would wrongly kill them).
        let mut n = AbstractNat::new(cfg());
        n.insert(fid(1), Ip4::new(10, 1, 0, 1), 1000, Time::ZERO)
            .unwrap();
        assert!(n.expire_flows(Time::from_secs(9)).is_empty());
        assert_eq!(n.expire_flows(Time::from_secs(10)).len(), 1);
    }

    #[test]
    fn refresh_rescues_flow() {
        let mut n = AbstractNat::new(cfg());
        n.insert(fid(1), Ip4::new(10, 1, 0, 1), 1000, Time::from_secs(0))
            .unwrap();
        assert!(n.refresh(&fid(1), Time::from_secs(8)));
        assert!(
            n.expire_flows(Time::from_secs(10)).is_empty(),
            "refreshed at 8s, dies at 18s"
        );
        assert_eq!(n.expire_flows(Time::from_secs(18)).len(), 1);
        assert!(!n.refresh(&fid(1), Time::from_secs(19)), "gone now");
    }

    #[test]
    fn lookup_by_both_keys() {
        let mut n = AbstractNat::new(cfg());
        n.insert(fid(7), Ip4::new(10, 1, 0, 1), 1002, Time::from_secs(1))
            .unwrap();
        let f = n.lookup_internal(&fid(7)).copied().unwrap();
        assert_eq!(n.lookup_external(&f.ext_key()).unwrap().fid, fid(7));
        assert!(n
            .lookup_external(&ExtKey {
                ext_port: 9999,
                ..f.ext_key()
            })
            .is_none());
    }

    #[test]
    fn pool_mapping_is_a_bijection() {
        // Capacity larger than one address' worth of ports: the pool
        // spills onto consecutive addresses, and slot -> endpoint ->
        // slot round-trips for every slot.
        let c = NatConfig {
            capacity: 70_000,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1024,
            ..NatConfig::paper_default()
        };
        assert_eq!(c.ports_per_ip(), 64_512);
        assert_eq!(c.num_external_ips(), 2);
        for slot in [0usize, 1, 64_511, 64_512, 69_999] {
            let (ip, port) = (c.ext_ip_of_slot(slot), c.ext_port_of_slot(slot));
            assert_eq!(c.slot_of_endpoint(ip, port), Some(slot), "slot {slot}");
        }
        assert_eq!(c.ext_ip_of_slot(0), Ip4::new(10, 1, 0, 1));
        assert_eq!(c.ext_ip_of_slot(64_512), Ip4::new(10, 1, 0, 2));
        // Out-of-pool endpoints are rejected from every side.
        assert_eq!(c.slot_of_endpoint(Ip4::new(10, 1, 0, 3), 1024), None);
        assert_eq!(c.slot_of_endpoint(Ip4::new(10, 1, 0, 1), 1023), None);
        assert_eq!(
            c.slot_of_endpoint(Ip4::new(10, 1, 0, 2), 1024 + (70_000 - 64_512) as u16),
            None,
            "past the capacity edge on the last address"
        );
    }

    /// `slot_of_endpoint` as it read while it still tested the address
    /// offset against the pool's address count.
    fn slot_of_endpoint_address_guarded(c: &NatConfig, ip: Ip4, port: u16) -> Option<usize> {
        let ip_off = ip.raw().checked_sub(c.external_ip.raw())? as usize;
        if ip_off >= c.capacity.div_ceil(c.ports_per_ip()).max(1) {
            return None;
        }
        let port_off = usize::from(port.checked_sub(c.start_port)?);
        let slot = ip_off * c.ports_per_ip() + port_off;
        (slot < c.capacity).then_some(slot)
    }

    proptest::proptest! {
        // 24,300 distinct draws; a case costs nanoseconds.
        #![proptest_config(ProptestConfig::with_cases(8192))]
        /// The guard-free `slot_of_endpoint` equals the guarded one, and
        /// the division-free single-address test equals the address
        /// count's, over 1-, 2- and 17-address pools whose last address
        /// is barely, half or fully used, for endpoints drawn around
        /// every edge of the pool.
        #[test]
        fn slot_of_endpoint_needs_no_address_guard(
            (ips, start_port, last_fill) in (
                proptest::prop_oneof![Just(1usize), Just(2), Just(17)],
                proptest::prop_oneof![Just(1u16), Just(1024), Just(65_535)],
                0usize..3,
            ),
            (ip_edge, ip_jitter) in (0usize..6, -2i64..=2),
            (port_edge, port_jitter) in (0usize..6, -2i64..=2),
        ) {
            let ports = 65_536 - usize::from(start_port);
            let last_used = [1, ports.div_ceil(2), ports][last_fill];
            let c = NatConfig {
                capacity: (ips - 1) * ports + last_used,
                external_ip: Ip4::new(10, 1, 0, 1),
                start_port,
                ..NatConfig::paper_default()
            };
            prop_assert_eq!(c.num_external_ips(), ips);
            prop_assert_eq!(c.num_external_ips(), c.capacity.div_ceil(c.ports_per_ip()).max(1));
            prop_assert_eq!(c.is_single_address(), ips == 1);

            let base = i64::from(c.external_ip.raw());
            let ip = [0, base, base + ips as i64 - 1, base + ips as i64, base + 65_536, i64::from(u32::MAX)]
                [ip_edge] + ip_jitter;
            let first = i64::from(start_port);
            let port = [0, first, first + last_used as i64 - 1, first + last_used as i64, 32_768, 65_535]
                [port_edge] + port_jitter;
            let ip = Ip4(ip.clamp(0, i64::from(u32::MAX)) as u32);
            let port = port.clamp(0, 65_535) as u16;
            let got = c.slot_of_endpoint(ip, port);
            prop_assert_eq!(got, slot_of_endpoint_address_guarded(&c, ip, port), "{:?} {} in {:?}", ip, port, c);
            if let Some(slot) = got {
                prop_assert_eq!((c.ext_ip_of_slot(slot), c.ext_port_of_slot(slot)), (ip, port));
            }
        }
    }

    #[test]
    fn multi_ip_insert_enforces_pool_membership() {
        let c = NatConfig {
            capacity: 70_000,
            expiry_ns: Time::from_secs(10).nanos(),
            external_ip: Ip4::new(10, 1, 0, 1),
            start_port: 1024,
            ..NatConfig::paper_default()
        };
        let mut n = AbstractNat::new(c);
        n.insert(fid(1), Ip4::new(10, 1, 0, 2), 1024, Time::from_secs(1))
            .unwrap();
        assert_eq!(
            n.insert(fid(2), Ip4::new(10, 1, 0, 9), 1024, Time::from_secs(1)),
            Err(InsertError::EndpointOutsidePool(
                Ip4::new(10, 1, 0, 9),
                1024
            ))
        );
        // Same port on a *different* pool address is a distinct endpoint.
        n.insert(fid(3), Ip4::new(10, 1, 0, 1), 1024, Time::from_secs(1))
            .unwrap();
        assert_eq!(
            n.insert(fid(4), Ip4::new(10, 1, 0, 2), 1024, Time::from_secs(2)),
            Err(InsertError::EndpointInUse(Ip4::new(10, 1, 0, 2), 1024))
        );
        n.check_invariants().unwrap();
    }

    #[test]
    fn per_class_lifetimes_expire_independently() {
        // UDP 10s, TCP transitory 2s, TCP established 30s.
        let c = NatConfig {
            tcp_transitory_ns: Time::from_secs(2).nanos(),
            tcp_established_ns: Time::from_secs(30).nanos(),
            ..cfg()
        };
        assert!(!c.is_homogeneous());
        assert_eq!(c.min_lifetime_ns(), Time::from_secs(2).nanos());
        let tcp_fid = |h: u8| FlowId {
            proto: Proto::Tcp,
            ..fid(h)
        };
        let mut n = AbstractNat::new(c);
        let t1 = Time::from_secs(1);
        n.insert(fid(1), Ip4::new(10, 1, 0, 1), 1000, t1).unwrap();
        n.insert_with_flags(
            tcp_fid(2),
            Ip4::new(10, 1, 0, 1),
            1001,
            t1,
            vig_packet::tcp::flags::SYN,
        )
        .unwrap();
        n.insert_with_flags(
            tcp_fid(3),
            Ip4::new(10, 1, 0, 1),
            1002,
            t1,
            vig_packet::tcp::flags::ACK, // mid-stream pickup: established
        )
        .unwrap();
        assert_eq!(n.flows()[1].tcp_state, Some(TcpState::SynSent));
        assert_eq!(n.flows()[2].tcp_state, Some(TcpState::Established));
        // t=3s: only the half-open TCP flow (transitory, 2s) dies.
        let dead = n.expire_flows(Time::from_secs(3));
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].fid, tcp_fid(2));
        // t=11s: the UDP flow (10s) dies; established TCP survives.
        let dead = n.expire_flows(Time::from_secs(11));
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].fid, fid(1));
        // t=31s: the established flow finally dies.
        assert_eq!(n.expire_flows(Time::from_secs(31)).len(), 1);
        assert!(n.is_empty());
    }

    #[test]
    fn rst_demotes_established_to_transitory_lifetime() {
        let c = NatConfig {
            tcp_transitory_ns: Time::from_secs(2).nanos(),
            tcp_established_ns: Time::from_secs(30).nanos(),
            ..cfg()
        };
        let tfid = FlowId {
            proto: Proto::Tcp,
            ..fid(1)
        };
        let mut n = AbstractNat::new(c);
        n.insert_with_flags(
            tfid,
            Ip4::new(10, 1, 0, 1),
            1000,
            Time::from_secs(1),
            vig_packet::tcp::flags::ACK,
        )
        .unwrap();
        // Established at 1s would live to 31s; the RST at 5s demotes it
        // to the transitory class, so it dies at 7s.
        assert!(n.refresh_with(
            &tfid,
            Time::from_secs(5),
            Direction::External,
            vig_packet::tcp::flags::RST
        ));
        assert_eq!(n.flows()[0].tcp_state, Some(TcpState::Closed));
        assert!(n
            .expire_flows(Time(Time::from_secs(7).nanos() - 1))
            .is_empty());
        assert_eq!(n.expire_flows(Time::from_secs(7)).len(), 1);
    }

    #[test]
    fn homogeneous_config_ignores_tcp_state_for_expiry() {
        // All lifetimes equal: a SynSent TCP flow and a UDP flow expire
        // at exactly the same tick — the paper's single-Texp behavior.
        let c = cfg();
        assert!(c.is_homogeneous());
        let tfid = FlowId {
            proto: Proto::Tcp,
            ..fid(1)
        };
        let mut n = AbstractNat::new(c);
        let t1 = Time::from_secs(1);
        n.insert_with_flags(
            tfid,
            Ip4::new(10, 1, 0, 1),
            1000,
            t1,
            vig_packet::tcp::flags::SYN,
        )
        .unwrap();
        n.insert(fid(2), Ip4::new(10, 1, 0, 1), 1001, t1).unwrap();
        assert!(n
            .expire_flows(Time(Time::from_secs(11).nanos() - 1))
            .is_empty());
        assert_eq!(n.expire_flows(Time::from_secs(11)).len(), 2);
    }

    #[test]
    fn threshold_none_before_texp() {
        let c = cfg();
        assert_eq!(c.expiry_threshold(Time::from_secs(9)), None);
        assert_eq!(c.expiry_threshold(Time::from_secs(10)), Some(Time::ZERO));
        assert_eq!(
            c.expiry_threshold(Time::from_secs(12)),
            Some(Time::from_secs(2))
        );
    }
}
