//! The cross-the-wire RFC 2544 measurement.
//!
//! `wire::os_wire_rfc2544` (Linux only) runs the two-point saturation
//! measurement — the simulated backend, then the mmap-ring `AF_PACKET`
//! wire backend over real veth wires — and
//! [`section_json`] renders its report as the JSON object the
//! `os_wire_rfc2544` example writes (CI's `wire` job uploads it).
//!
//! The run needs `CAP_NET_RAW` + `CAP_NET_ADMIN` (it creates veth
//! pairs). Without them — or off Linux — the section degrades to
//! `{"available": false, "reason": ...}` and the example exits
//! non-zero. No committed file carries this section: a privileged run
//! is not part of regenerating Fig. 14.

/// RSS queues per direction for the wire measurement.
pub const QUEUES: usize = 2;
/// NAT shards behind the event loop.
pub const SHARDS: usize = 2;
/// Descriptor-ring size (frames per queue FIFO).
pub const RING: usize = 256;

/// Escape a reason string into a JSON literal body.
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn unavailable(reason: &str) -> String {
    println!("os_wire_rfc2544: SKIPPED ({reason})");
    format!(r#"{{"available": false, "reason": "{}"}}"#, esc(reason))
}

#[cfg(target_os = "linux")]
mod wire {
    use crate::harness::{search_rate_with_ci, sustained_service_times_io, RateEstimate};
    use netsim::backend::os::{OsTestRig, VethPair, WireBackend};
    use netsim::backend::SimBackend;
    use netsim::frame_env::RssClassifier;
    use netsim::middlebox::ShardedVigNatMb;
    use std::io;
    use vig_spec::NatConfig;

    /// One backend's cross-wire RFC 2544 measurement: the rate estimate
    /// plus the honesty counters that certify it (a result with kernel
    /// drops or TX errors measured a congested rig, not the NAT).
    #[derive(Debug, Clone)]
    pub struct OsWirePoint {
        /// Saturation rate with bootstrap CI, from the same
        /// [`search_rate_with_ci`] methodology the simulated Figure 14
        /// uses.
        pub rate: RateEstimate,
        /// Kernel-side drops (`PACKET_STATISTICS`) over the whole run.
        pub kernel_drops: u64,
        /// Sends the kernel refused over the whole run.
        pub tx_errors: u64,
        /// Receive errors over the whole run.
        pub rx_errors: u64,
    }

    /// The cross-wire RFC 2544 report: the same workload measured through
    /// the simulated NIC model and across a live veth wire. See
    /// [`os_wire_rfc2544`].
    #[derive(Debug, Clone)]
    pub struct OsWireReport {
        /// Simulated-backend baseline (no kernel in the loop).
        pub sim: RateEstimate,
        /// The mmap-ring wire backend (`TPACKET_V3` RX, `TPACKET_V2`
        /// TX).
        pub wire: OsWirePoint,
    }

    /// Measure saturation throughput of the sharded NAT behind the event
    /// loop twice — simulated backend, then the wire backend — with the
    /// identical populate-then-sustained-load methodology
    /// ([`sustained_service_times_io`], in-flight window = ring size),
    /// the wire point crossing a real veth wire. Needs `CAP_NET_RAW` +
    /// `CAP_NET_ADMIN`; interface names are `{veth_prefix}{i0,i1,e0,e1}`
    /// (≤ 11 chars of prefix).
    ///
    /// Reports absolute sim-vs-kernel Mpps with CIs.
    #[allow(clippy::too_many_arguments)]
    pub fn os_wire_rfc2544(
        cfg: &NatConfig,
        queues: usize,
        shards: usize,
        flows: usize,
        packets: usize,
        ring_size: usize,
        veth_prefix: &str,
    ) -> io::Result<OsWireReport> {
        let texp = cfg.expiry_ns;

        // Both points run the *sustained-load* measurement loop (see
        // `sustained_service_times_io`): a block-batching transport must
        // be offered continuous load to be measured as a transport, and
        // the sim point uses the identical loop so the comparison stays
        // apples-to-apples.
        let sim = {
            let io = SimBackend::new(RssClassifier::for_nat(cfg, queues), ring_size);
            let mut nf = ShardedVigNatMb::sharded(*cfg, shards);
            let (samples, _io) =
                sustained_service_times_io(io, &mut nf, flows, packets, ring_size, texp);
            search_rate_with_ci(&samples, ring_size)
        };

        let int_veth = VethPair::create(&format!("{veth_prefix}i0"), &format!("{veth_prefix}i1"))?;
        let ext_veth = VethPair::create(&format!("{veth_prefix}e0"), &format!("{veth_prefix}e1"))?;
        let classifier = RssClassifier::for_nat(cfg, queues);

        let rig = OsTestRig::open(&int_veth, &ext_veth, classifier, ring_size)?;
        let mut nf = ShardedVigNatMb::sharded(*cfg, shards);
        let (samples, mut rig) =
            sustained_service_times_io(rig, &mut nf, flows, packets, ring_size, texp);
        let wire = OsWirePoint {
            rate: search_rate_with_ci(&samples, ring_size),
            kernel_drops: rig.backend_mut().kernel_drops(),
            tx_errors: rig.backend().tx_errors(),
            rx_errors: rig.backend().rx_errors(),
        };

        Ok(OsWireReport { sim, wire })
    }
}

/// Run the two-point cross-wire RFC 2544 measurement and render the
/// `os_wire_rfc2544` JSON section (plus a one-line stdout summary).
/// `flows` background flows, `packets` measured packets per point.
#[cfg(target_os = "linux")]
pub fn section_json(flows: usize, packets: usize) -> String {
    use libvig::time::Time;
    use vig_packet::Ip4;
    use vig_spec::NatConfig;
    use wire::os_wire_rfc2544;

    let cfg = NatConfig {
        capacity: 65_535,
        expiry_ns: Time::from_secs(60).nanos(), // flows never expire mid-run
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    };
    let report = match os_wire_rfc2544(&cfg, QUEUES, SHARDS, flows, packets, RING, "vgw") {
        Ok(r) => r,
        Err(e) => return unavailable(&format!("wire run failed: {e}")),
    };

    let wire = &report.wire;
    // Recorded because the wire point depends on it: on a single-core
    // rig every veth transmit is synchronous on the measured core (see
    // docs/BENCHMARKS.md).
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "os_wire_rfc2544: sim {:.2} | wire {:.2} Mpps (kernel drops {}, tx_err {}, rx_err {})",
        report.sim.mpps, wire.rate.mpps, wire.kernel_drops, wire.tx_errors, wire.rx_errors,
    );
    let rate = |r: &crate::harness::RateEstimate| {
        format!(
            r#""mpps": {:.3}, "ci95_mpps": [{:.3}, {:.3}], "mean_ns": {:.1}, "outliers_rejected": {}"#,
            r.mpps, r.ci95_lo_mpps, r.ci95_hi_mpps, r.mean_ns, r.outliers_rejected
        )
    };
    format!(
        "{{\n    \"available\": true,\n    \"queues\": {QUEUES},\n    \"shards\": {SHARDS},\n    \"ring\": {RING},\n    \"flows\": {flows},\n    \"packets\": {packets},\n    \"host_cores\": {host_cores},\n    \"wire\": \"veth pairs, AF_PACKET mmap rings\",\n    \"sim\": {{{}}},\n    \"os_mmap\": {{{}, \"kernel_drops\": {}, \"tx_errors\": {}, \"rx_errors\": {}}}\n  }}",
        rate(&report.sim),
        rate(&wire.rate),
        wire.kernel_drops,
        wire.tx_errors,
        wire.rx_errors,
    )
}

/// Off Linux there is no `AF_PACKET`: the section is honestly absent.
#[cfg(not(target_os = "linux"))]
pub fn section_json(_flows: usize, _packets: usize) -> String {
    unavailable("AF_PACKET transports need Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailable_sections_are_valid_json_with_escaped_reasons() {
        let s = unavailable("veth \"create\" failed\nEPERM");
        let doc = crate::check::parse(&s).expect("valid JSON");
        assert_eq!(doc.get("available"), Some(&crate::check::Json::Bool(false)));
        assert!(doc
            .get("reason")
            .and_then(crate::check::Json::str)
            .unwrap()
            .contains("EPERM"));
    }
}
