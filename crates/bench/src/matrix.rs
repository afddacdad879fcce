//! `vig_bench --matrix`: the scenario-matrix CI runner.
//!
//! One benchmark per *cell* of the cross product
//!
//! ```text
//! occupancy × shards × queues × backend × TCP/UDP mix
//! ```
//!
//! Every cell drives the same sharded NAT through the same
//! event-driven RFC 2544 measurement loop
//! ([`netsim::eventloop::round_service_times`]); only the
//! cell's coordinates change. The TCP/UDP-mix axis routes flows
//! through the per-class expiry lists (TCP flows carry distinct
//! transitory/established lifetimes in the cell config), so a new
//! behavior added to the NAT is automatically priced across the whole
//! scenario space instead of only at the single configuration a
//! hand-picked bench happens to measure. The `backend` axis runs each
//! cell bare (`sim`) and wrapped in the disarmed fault layer
//! (`faultio`), extending the fault-overhead identity gate from one
//! configuration to the full matrix.
//!
//! The emitted `BENCH_matrix.json` carries one JSON object per cell
//! (rate, bootstrap CI, mean service time, retained sample count).
//! `vig_bench --check` validates the file structurally — including
//! that the cells cover the declared axes *exactly* (no silently
//! dropped cell can green the gate) — and `--baseline` judges every
//! cell's rate against a committed run.

use netsim::backend::{FaultIo, FaultPlan, SimBackend};
use netsim::eventloop::round_service_times;
use netsim::frame_env::RssClassifier;
use netsim::harness::{search_rate_with_ci, RateEstimate};
use netsim::middlebox::ShardedVigNatMb;
use netsim::tester::FlowGen;
use vig_packet::Ip4;
use vig_spec::NatConfig;

/// Flow-table capacity of every cell (single external IP, full port
/// range — the fig14 configuration).
pub const TABLE_CAPACITY: usize = 65_535;

/// Occupancy axis, percent of [`TABLE_CAPACITY`] resident during the
/// timed rounds.
pub const OCCUPANCY_PCT: [usize; 2] = [25, 90];

/// Shard-count axis (flow-table shards behind the RSS classifier).
pub const SHARDS: [usize; 2] = [1, 2];

/// RX-queue axis (RSS queues feeding the event loop).
pub const QUEUES: [usize; 2] = [1, 2];

/// Backend axis: the bare simulated NIC, and the same NIC wrapped in
/// an empty-schedule [`FaultIo`] — the disarmed chaos seam must stay
/// free in every cell class, not just the one `fault_overhead`
/// measures.
pub const BACKENDS: [&str; 2] = ["sim", "faultio"];

/// Workload-mix axis: per-thousand share of TCP flows (the rest UDP).
pub const TCP_PERMILLE: [u16; 3] = [0, 500, 1000];

/// Cell config: per-class lifetimes are heterogeneous on purpose, so
/// every TCP-bearing cell runs on per-class lists rather than
/// collapsing to the homogeneous one-list chain.
fn cell_cfg() -> NatConfig {
    NatConfig {
        capacity: TABLE_CAPACITY,
        expiry_ns: libvig::time::Time::from_secs(60).nanos(),
        tcp_transitory_ns: libvig::time::Time::from_secs(4).nanos(),
        tcp_established_ns: libvig::time::Time::from_secs(120).nanos(),
        external_ip: Ip4::new(203, 0, 113, 1),
        start_port: 1,
        ..NatConfig::paper_default()
    }
}

/// One measured cell of the scenario matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Occupancy coordinate, percent of [`TABLE_CAPACITY`].
    pub occupancy_pct: usize,
    /// Shard-count coordinate.
    pub shards: usize,
    /// Queue-count coordinate.
    pub queues: usize,
    /// Backend coordinate (`"sim"` or `"faultio"`).
    pub backend: &'static str,
    /// TCP share coordinate, per thousand flows.
    pub tcp_permille: u16,
    /// Resident flows during the timed rounds.
    pub flows: usize,
    /// Timed packets measured in this cell.
    pub packets: usize,
    /// The RFC 2544 rate estimate with its bootstrap CI.
    pub est: RateEstimate,
}

impl Cell {
    /// The cell's name in baseline comparisons (stable across runs:
    /// coordinates only, no measured values).
    pub fn name(&self) -> String {
        format!(
            "cell.o{}.q{}.s{}.{}.tcp{}",
            self.occupancy_pct, self.queues, self.shards, self.backend, self.tcp_permille
        )
    }

    /// The cell's JSON object line.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"occupancy_pct":{},"shards":{},"queues":{},"backend":"{}","tcp_permille":{},"flows":{},"mpps":{:.3},"ci95_mpps":[{:.3},{:.3}],"mean_ns":{:.1},"samples":{},"outliers_rejected":{}}}"#,
            self.occupancy_pct,
            self.shards,
            self.queues,
            self.backend,
            self.tcp_permille,
            self.flows,
            self.est.mpps,
            self.est.ci95_lo_mpps,
            self.est.ci95_hi_mpps,
            self.est.mean_ns,
            self.samples(),
            self.est.outliers_rejected
        )
    }

    /// Service-time samples retained after MAD rejection — the series
    /// length the `--min-samples` suppress rule reads.
    pub fn samples(&self) -> usize {
        self.packets.saturating_sub(self.est.outliers_rejected)
    }
}

/// Measure one cell: an `shards`-shard NAT behind a `queues`-queue RSS
/// classifier, `flows` mixed-protocol flows resident, timed all-hit
/// rounds through the event-driven driver.
fn measure_cell(
    occupancy_pct: usize,
    shards: usize,
    queues: usize,
    backend: &'static str,
    tcp_permille: u16,
    packets: usize,
) -> Cell {
    let cfg = cell_cfg();
    let flows = TABLE_CAPACITY * occupancy_pct / 100;
    let gen = FlowGen::mixed(tcp_permille);
    let texp = cfg.min_lifetime_ns();
    let mut nf = ShardedVigNatMb::sharded(cfg, shards);
    let sim = SimBackend::new(RssClassifier::for_nat(&cfg, queues), 512);
    let svc = match backend {
        "sim" => round_service_times(sim, &mut nf, &gen, flows, packets, texp).0,
        "faultio" => {
            let io = FaultIo::new(sim, FaultPlan::none());
            round_service_times(io, &mut nf, &gen, flows, packets, texp).0
        }
        other => unreachable!("unknown backend axis value {other}"),
    };
    let est = search_rate_with_ci(&svc, 512);
    Cell {
        occupancy_pct,
        shards,
        queues,
        backend,
        tcp_permille,
        flows,
        packets,
        est,
    }
}

/// Run the full scenario matrix (`packets` timed packets per cell) and
/// return the measured cells in axis order (occupancy outermost,
/// TCP mix innermost).
pub fn run_matrix(packets: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &occ in &OCCUPANCY_PCT {
        for &shards in &SHARDS {
            for &queues in &QUEUES {
                for &backend in BACKENDS.iter() {
                    for &mix in &TCP_PERMILLE {
                        cells.push(measure_cell(occ, shards, queues, backend, mix, packets));
                    }
                }
            }
        }
    }
    cells
}

/// The `BENCH_matrix.json` document for a measured matrix.
pub fn matrix_json(cells: &[Cell], packets: usize) -> String {
    let cfg = cell_cfg();
    let axes = format!(
        r#""axes": {{"occupancy_pct": [{}], "shards": [{}], "queues": [{}], "backend": [{}], "tcp_permille": [{}]}}"#,
        join(&OCCUPANCY_PCT),
        join(&SHARDS),
        join(&QUEUES),
        BACKENDS
            .iter()
            .map(|b| format!("\"{b}\""))
            .collect::<Vec<_>>()
            .join(","),
        join(&TCP_PERMILLE),
    );
    let cell_lines = cells
        .iter()
        .map(Cell::to_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    format!(
        "{{\n  \"bench\": \"scenario_matrix\",\n  \"driver\": \"eventloop (poll + wrr, one core) over sim backend, RFC 2544 search, mad_z3.5, bootstrap ci\",\n  \"table_capacity\": {TABLE_CAPACITY},\n  \"packets_per_cell\": {packets},\n  \"expiry_ns\": {},\n  \"tcp_transitory_ns\": {},\n  \"tcp_established_ns\": {},\n  {axes},\n  \"cells\": [\n    {cell_lines}\n  ]\n}}\n",
        cfg.expiry_ns, cfg.tcp_transitory_ns, cfg.tcp_established_ns
    )
}

fn join<T: std::fmt::Display>(v: &[T]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}
