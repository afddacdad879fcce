//! `vig_bench --check`: schema validation for the committed
//! perf-trajectory files (`BENCH_flowtable.json`,
//! `BENCH_throughput.json`, `BENCH_matrix.json`).
//!
//! The trajectory files gate performance regressions across PRs, so a
//! bench refactor that silently emits a malformed file — a missing
//! gate metric, an inverted confidence interval, a series length that
//! no longer matches the flow-count axis — would disarm the gate
//! without anyone noticing. This module re-parses the committed files
//! with a tiny self-contained JSON reader (the environment is
//! offline: no serde) and checks the structural invariants every
//! consumer assumes. CI runs it as a cheap PR step.
//!
//! With `--baseline <file>`, a fresh run is additionally compared
//! against a committed baseline ([`compare_against_baseline`]) under a
//! [`BaselinePolicy`]: any named rate that dropped more than
//! `fail_under_pct` (default 10%) below the baseline median fails, a
//! smaller slowdown with non-overlapping bootstrap intervals (or past
//! the optional `warn_under_pct` median threshold) warns, series new
//! in this run are reported but never judged, and series whose
//! retained sample count is below `min_samples` are suppressed — too
//! short to judge honestly.

use std::fmt::Write as _;

/// A parsed JSON value (object keys keep file order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (f64 is exact for every value the benches emit).
    Num(f64),
    /// String (escapes resolved).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a JSON document (strict enough for the bench files: objects,
/// arrays, strings with `\"`/`\\`/`\/`/`\n`/`\t`/`\uXXXX`, numbers,
/// booleans, null).
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at offset {} (found {:?})",
            c as char,
            pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(String::from)?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape '\\{}'", esc as char)),
                }
            }
            _ => out.push(c as char),
        }
    }
    Err("unterminated string".into())
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

/// Accumulates check failures with a path-like context.
#[derive(Debug, Default)]
pub struct Problems(pub Vec<String>);

impl Problems {
    fn fail(&mut self, what: impl Into<String>) {
        self.0.push(what.into());
    }

    fn require_num(&mut self, v: &Json, path: &str, min_exclusive: f64) -> Option<f64> {
        match v.get(path).and_then(Json::num) {
            Some(n) if n > min_exclusive => Some(n),
            Some(n) => {
                self.fail(format!("{path}: {n} must be > {min_exclusive}"));
                None
            }
            None => {
                self.fail(format!("{path}: missing or not a number"));
                None
            }
        }
    }
}

/// One [`crate::Series`]-shaped object (the flowtable series rows).
fn check_series_row(p: &mut Problems, row: &Json, ctx: &str) {
    let Some(name) = row.get("name").and_then(Json::str) else {
        p.fail(format!("{ctx}: series row without a name"));
        return;
    };
    let ctx = format!("{ctx}.{name}");
    for field in ["ops_per_sec", "p50_ns", "p99_ns", "mean_ns"] {
        if row.get(field).and_then(Json::num).map(|n| n > 0.0) != Some(true) {
            p.fail(format!("{ctx}.{field}: missing or non-positive"));
        }
    }
    if row.get("ci95_ns").and_then(Json::num).map(|n| n >= 0.0) != Some(true) {
        p.fail(format!("{ctx}.ci95_ns: missing or negative"));
    }
    if row.get("samples").and_then(Json::num).map(|n| n >= 1.0) != Some(true) {
        p.fail(format!("{ctx}.samples: missing or < 1"));
    }
    if let (Some(p50), Some(p99)) = (
        row.get("p50_ns").and_then(Json::num),
        row.get("p99_ns").and_then(Json::num),
    ) {
        if p99 + 1e-9 < p50 {
            p.fail(format!("{ctx}: p99 ({p99}) < p50 ({p50})"));
        }
    }
}

/// Validate `BENCH_flowtable.json`: identity, gate metrics
/// (`batched_speedup_at_*`, the `lookup_batched_98pct` gate series),
/// well-formed statistics on every series row, and the million-flow
/// churn section.
pub fn check_flowtable(doc: &Json) -> Problems {
    let mut p = Problems::default();
    if doc.get("bench").and_then(Json::str) != Some("micro_flowtable") {
        p.fail("bench: expected \"micro_flowtable\"");
    }
    p.require_num(doc, "table_capacity", 0.0);
    p.require_num(doc, "burst", 0.0);
    // The gate metrics the perf trajectory is judged on.
    p.require_num(doc, "batched_speedup_at_50pct", 0.0);
    p.require_num(doc, "batched_speedup_at_99pct", 0.0);
    match doc.get("series").and_then(Json::arr) {
        Some(rows) if !rows.is_empty() => {
            for row in rows {
                check_series_row(&mut p, row, "series");
            }
            for gate in ["lookup_batched_98pct", "natstep_batched_98pct"] {
                if !rows
                    .iter()
                    .any(|r| r.get("name").and_then(Json::str) == Some(gate))
                {
                    p.fail(format!("series: gate series '{gate}' missing"));
                }
            }
        }
        _ => p.fail("series: missing or empty"),
    }
    // The million-flow churn section: the run must have been at scale
    // and must actually have expired flows.
    match doc.get("churn") {
        Some(ch) => {
            match ch.get("table_capacity").and_then(Json::num) {
                Some(c) if c >= (1u64 << 20) as f64 => {}
                _ => p.fail("churn.table_capacity: missing or below 2^20 (million-flow gate)"),
            }
            if ch.get("occupancy_end").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                p.fail("churn.occupancy_end: missing or non-positive");
            }
            if ch.get("expired").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                p.fail("churn.expired: missing or non-positive");
            }
        }
        None => p.fail("churn: missing"),
    }
    p
}

/// Validate `BENCH_throughput.json`: identity, the flow-count axis,
/// per-series rate vectors aligned with it, well-formed bootstrap
/// confidence intervals, the sweep sections, and the million-flow churn
/// section (the sustained rate plus a well-formed latency CCDF).
pub fn check_throughput(doc: &Json) -> Problems {
    let mut p = Problems::default();
    if doc.get("bench").and_then(Json::str) != Some("fig14_throughput") {
        p.fail("bench: expected \"fig14_throughput\"");
    }
    let axis_len = match doc.get("flow_counts").and_then(Json::arr) {
        Some(fc) if !fc.is_empty() => {
            let vals: Vec<f64> = fc.iter().filter_map(Json::num).collect();
            if vals.len() != fc.len() || vals.windows(2).any(|w| w[0] >= w[1]) {
                p.fail("flow_counts: must be strictly increasing numbers");
            }
            fc.len()
        }
        _ => {
            p.fail("flow_counts: missing or empty");
            0
        }
    };
    match doc.get("series").and_then(Json::arr) {
        Some(rows) if !rows.is_empty() => {
            for row in rows {
                let name = row.get("name").and_then(Json::str).unwrap_or("?");
                let ctx = format!("series.{name}");
                match row.get("mpps_per_flow_count").and_then(Json::arr) {
                    Some(v) if v.len() == axis_len => {
                        if !v.iter().all(|x| x.num().is_some_and(|n| n > 0.0)) {
                            p.fail(format!(
                                "{ctx}.mpps_per_flow_count: non-numeric or non-positive rate"
                            ));
                        }
                    }
                    Some(v) => p.fail(format!(
                        "{ctx}.mpps_per_flow_count: {} points for {} flow counts",
                        v.len(),
                        axis_len
                    )),
                    None => p.fail(format!("{ctx}.mpps_per_flow_count: missing")),
                }
                // Deliberately NOT checked: that the point estimate
                // lies inside its interval. The point comes from the
                // RFC 2544 search over the full filtered series while
                // the CI bootstraps per-trial sub-searches (different
                // statistics — see `search_rate_with_ci`), and on a
                // noisy host the no-op series legitimately lands
                // outside; enforcing containment would fail honest
                // data.
                match row.get("mpps_ci95_per_flow_count").and_then(Json::arr) {
                    Some(cis) if cis.len() == axis_len => {
                        for (i, ci) in cis.iter().enumerate() {
                            let pair: Vec<f64> = ci
                                .arr()
                                .map(|a| a.iter().filter_map(Json::num).collect())
                                .unwrap_or_default();
                            match pair.as_slice() {
                                [lo, hi] if 0.0 < *lo && lo <= hi => {}
                                _ => p.fail(format!(
                                    "{ctx}.mpps_ci95_per_flow_count[{i}]: not a [lo, hi] \
                                     pair with 0 < lo <= hi"
                                )),
                            }
                        }
                    }
                    Some(cis) => p.fail(format!(
                        "{ctx}.mpps_ci95_per_flow_count: {} intervals for {} flow counts",
                        cis.len(),
                        axis_len
                    )),
                    None => p.fail(format!("{ctx}.mpps_ci95_per_flow_count: missing")),
                }
            }
            // The gate series the trajectory is judged on.
            for gate in ["noop", "verified", "verified_batched"] {
                if !rows
                    .iter()
                    .any(|r| r.get("name").and_then(Json::str) == Some(gate))
                {
                    p.fail(format!("series: gate series '{gate}' missing"));
                }
            }
        }
        _ => p.fail("series: missing or empty"),
    }
    for section in ["verified_seq", "verified_batched"] {
        if let Some(obj) = doc.get(section) {
            let p50 = obj.get("p50_ns").and_then(Json::num);
            let p99 = obj.get("p99_ns").and_then(Json::num);
            match (p50, p99) {
                (Some(a), Some(b)) if 0.0 < a && a <= b => {}
                _ => p.fail(format!("{section}: needs 0 < p50_ns <= p99_ns")),
            }
        } else {
            p.fail(format!("{section}: missing"));
        }
    }
    for (sweep, axis) in [("sharded_sweep", "shards"), ("multiqueue_sweep", "queues")] {
        match doc
            .get(sweep)
            .and_then(|s| s.get("points"))
            .and_then(Json::arr)
        {
            Some(points) if !points.is_empty() => {
                for (i, pt) in points.iter().enumerate() {
                    if pt.get(axis).and_then(Json::num).map(|n| n >= 1.0) != Some(true) {
                        p.fail(format!("{sweep}.points[{i}].{axis}: missing or < 1"));
                    }
                    if pt.get("mpps").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                        p.fail(format!("{sweep}.points[{i}].mpps: missing or non-positive"));
                    }
                }
            }
            _ => p.fail(format!("{sweep}.points: missing or empty")),
        }
    }
    // The pinned-runtime scaling curve. Deliberately NOT checked: any
    // speedup — the curve is honest wall-clock data, and a one-core
    // runner produces a legitimately flat curve. What must hold is the
    // attribution: real core counts, pin outcomes bounded by the worker
    // count, and well-formed bootstrap intervals.
    match doc.get("scaling_curve") {
        Some(curve) => {
            let cores = curve.get("host_cores").and_then(Json::num);
            if cores.map(|n| n >= 1.0) != Some(true) {
                p.fail("scaling_curve.host_cores: missing or < 1");
            }
            if curve.get("pinning_requested").is_none() {
                p.fail("scaling_curve.pinning_requested: missing");
            }
            match curve.get("points").and_then(Json::arr) {
                Some(points) if !points.is_empty() => {
                    let mut prev_workers = 0.0;
                    for (i, pt) in points.iter().enumerate() {
                        let workers = pt.get("workers").and_then(Json::num);
                        match workers {
                            Some(w) if w >= 1.0 && w > prev_workers => prev_workers = w,
                            _ => p.fail(format!(
                                "scaling_curve.points[{i}].workers: missing, < 1, or not \
                                 strictly increasing"
                            )),
                        }
                        for rate in ["mpps", "wallclock_mpps"] {
                            if pt.get(rate).and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                                p.fail(format!(
                                    "scaling_curve.points[{i}].{rate}: missing or non-positive"
                                ));
                            }
                        }
                        let ci: Vec<f64> = pt
                            .get("ci95_mpps")
                            .and_then(Json::arr)
                            .map(|a| a.iter().filter_map(Json::num).collect())
                            .unwrap_or_default();
                        match ci.as_slice() {
                            [lo, hi] if 0.0 < *lo && lo <= hi => {}
                            _ => p.fail(format!(
                                "scaling_curve.points[{i}].ci95_mpps: not a [lo, hi] pair \
                                 with 0 < lo <= hi"
                            )),
                        }
                        let pinned = pt.get("pinned_workers").and_then(Json::num);
                        match (pinned, workers) {
                            (Some(pn), Some(w)) if 0.0 <= pn && pn <= w => {}
                            _ => p.fail(format!(
                                "scaling_curve.points[{i}].pinned_workers: missing or not \
                                 in 0..=workers"
                            )),
                        }
                    }
                }
                _ => p.fail("scaling_curve.points: missing or empty"),
            }
        }
        None => p.fail("scaling_curve: missing"),
    }
    // The fault-layer identity gate: the chaos seam must be free when
    // disarmed. The committed trajectory carries the measured overhead
    // of an empty-schedule `FaultIo` on the batched event-driven step,
    // and it must stay under 2% — negative overhead (wrapped measured
    // faster) is host noise and passes.
    match doc.get("fault_overhead") {
        Some(fo) => {
            for field in ["bare_mpps", "faultio_empty_mpps"] {
                if fo.get(field).and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                    p.fail(format!("fault_overhead.{field}: missing or non-positive"));
                }
            }
            match fo.get("overhead_pct").and_then(Json::num) {
                Some(o) if o < 2.0 => {}
                Some(o) => p.fail(format!(
                    "fault_overhead.overhead_pct: {o}% — empty-schedule FaultIo must stay \
                     under the 2% identity gate"
                )),
                None => p.fail("fault_overhead.overhead_pct: missing"),
            }
        }
        None => p.fail("fault_overhead: missing"),
    }
    // The cross-the-wire RFC 2544 section: a committed trajectory must
    // carry a *real* wire run (available: true), both OS transports
    // with honest error counters, and the zero-copy speedup the mmap
    // backend is accountable to: ≥ 1.5x over the per-frame transport
    // on hosts with ≥ 2 cores. On a single-core rig the gate relaxes
    // to ≥ 1.15x: there every veth transmit (xmit + peer-delivery
    // softirq, ≈ 1.3 µs/frame measured) runs synchronously on the
    // measured core and is paid identically by both transports,
    // compressing the achievable ratio — zero-copy's savings are
    // RX-side (≈ 0.53 µs vs ≈ 0.99 µs per frame), which against the
    // shared transmit floor caps the whole-loop ratio near 1.25x.
    // See docs/BENCHMARKS.md, "Reading the speedup".
    match doc.get("os_wire_rfc2544") {
        Some(w) => {
            match w.get("available") {
                Some(Json::Bool(true)) => {
                    match w.get("sim") {
                        Some(sim) => {
                            if sim.get("mpps").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                                p.fail("os_wire_rfc2544.sim.mpps: missing or non-positive");
                            }
                        }
                        None => p.fail("os_wire_rfc2544.sim: missing"),
                    }
                    for transport in ["os_frame", "os_mmap"] {
                        let ctx = format!("os_wire_rfc2544.{transport}");
                        let Some(pt) = w.get(transport) else {
                            p.fail(format!("{ctx}: missing"));
                            continue;
                        };
                        if pt.get("mpps").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                            p.fail(format!("{ctx}.mpps: missing or non-positive"));
                        }
                        let ci: Vec<f64> = pt
                            .get("ci95_mpps")
                            .and_then(Json::arr)
                            .map(|a| a.iter().filter_map(Json::num).collect())
                            .unwrap_or_default();
                        match ci.as_slice() {
                            [lo, hi] if 0.0 < *lo && lo <= hi => {}
                            _ => p.fail(format!(
                                "{ctx}.ci95_mpps: not a [lo, hi] pair with 0 < lo <= hi"
                            )),
                        }
                        if pt.get("kernel_drops").and_then(Json::num).is_none() {
                            p.fail(format!("{ctx}.kernel_drops: missing"));
                        }
                        // A rate measured with failed sends or receive
                        // errors is not a rate: the honesty counters
                        // must witness a clean run.
                        for counter in ["tx_errors", "rx_errors"] {
                            match pt.get(counter).and_then(Json::num) {
                                Some(0.0) => {}
                                Some(n) => p.fail(format!(
                                    "{ctx}.{counter}: {n} — the committed wire run must be clean"
                                )),
                                None => p.fail(format!("{ctx}.{counter}: missing")),
                            }
                        }
                    }
                    let cores = w.get("host_cores").and_then(Json::num);
                    if !matches!(cores, Some(c) if c >= 1.0) {
                        p.fail("os_wire_rfc2544.host_cores: missing or < 1");
                    }
                    let gate = if cores.map(|c| c >= 2.0) == Some(true) {
                        1.5
                    } else {
                        1.15
                    };
                    match w.get("mmap_vs_frame_speedup").and_then(Json::num) {
                        Some(s) if s >= gate => {}
                        Some(s) => p.fail(format!(
                            "os_wire_rfc2544.mmap_vs_frame_speedup: {s} below the {gate}x \
                             zero-copy gate"
                        )),
                        None => p.fail("os_wire_rfc2544.mmap_vs_frame_speedup: missing"),
                    }
                }
                Some(Json::Bool(false)) => p.fail(
                    "os_wire_rfc2544.available: false — the committed trajectory must carry \
                     a real wire run (regenerate with CAP_NET_RAW/CAP_NET_ADMIN)",
                ),
                _ => p.fail("os_wire_rfc2544.available: missing or not a bool"),
            }
        }
        None => p.fail("os_wire_rfc2544: missing"),
    }
    // Million-flow churn: the sustained rate and a
    // Fig. 13-style latency CCDF (strictly increasing latencies,
    // non-increasing tail probabilities in (0, 1]).
    match doc.get("churn") {
        Some(ch) => {
            let cap = ch.get("table_capacity").and_then(Json::num);
            match cap {
                Some(c) if c >= (1u64 << 20) as f64 => {}
                _ => p.fail("churn.table_capacity: missing or below 2^20 (million-flow gate)"),
            }
            match (ch.get("occupancy_end").and_then(Json::num), cap) {
                (Some(o), Some(c)) if 0.0 < o && o <= c => {}
                _ => p.fail("churn.occupancy_end: missing or not in (0, table_capacity]"),
            }
            if ch
                .get("expired_during_churn")
                .and_then(Json::num)
                .map(|n| n > 0.0)
                != Some(true)
            {
                p.fail("churn.expired_during_churn: missing or non-positive");
            }
            match ch.get("sustained").and_then(Json::arr) {
                Some(rows) if !rows.is_empty() => {
                    for (i, row) in rows.iter().enumerate() {
                        if row.get("mpps").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                            p.fail(format!(
                                "churn.sustained[{i}].mpps: missing or non-positive"
                            ));
                        }
                        let ci: Vec<f64> = row
                            .get("ci95_mpps")
                            .and_then(Json::arr)
                            .map(|a| a.iter().filter_map(Json::num).collect())
                            .unwrap_or_default();
                        match ci.as_slice() {
                            [lo, hi] if 0.0 < *lo && lo <= hi => {}
                            _ => p.fail(format!(
                                "churn.sustained[{i}].ci95_mpps: not a [lo, hi] pair with \
                                 0 < lo <= hi"
                            )),
                        }
                    }
                }
                _ => p.fail("churn.sustained: missing or empty"),
            }
            match ch
                .get("latency_ccdf")
                .and_then(|c| c.get("points"))
                .and_then(Json::arr)
            {
                Some(points) if points.len() >= 2 => {
                    let mut prev_lat = 0.0f64;
                    let mut prev_ccdf = f64::INFINITY;
                    for (i, pt) in points.iter().enumerate() {
                        match pt.get("latency_ns").and_then(Json::num) {
                            Some(l) if l > prev_lat => prev_lat = l,
                            _ => p.fail(format!(
                                "churn.latency_ccdf.points[{i}].latency_ns: missing, \
                                 non-positive, or not strictly increasing"
                            )),
                        }
                        match pt.get("ccdf").and_then(Json::num) {
                            Some(c) if 0.0 < c && c <= 1.0 && c <= prev_ccdf => prev_ccdf = c,
                            Some(c) if 0.0 < c && c <= 1.0 => p.fail(format!(
                                "churn.latency_ccdf.points[{i}].ccdf: must be non-increasing"
                            )),
                            _ => p.fail(format!(
                                "churn.latency_ccdf.points[{i}].ccdf: missing or not in (0, 1]"
                            )),
                        }
                    }
                }
                _ => p.fail("churn.latency_ccdf.points: missing or fewer than 2 points"),
            }
        }
        None => p.fail("churn: missing"),
    }
    p
}

/// Validate `BENCH_matrix.json`: identity, the declared axes, and —
/// the property the scenario matrix exists for — that the cells cover
/// the axes' cross product *exactly*: every combination present
/// exactly once, no extras. A matrix runner that silently dropped a
/// cell class (an occupancy that stopped being swept, a backend that
/// fell out of the loop) would otherwise keep validating forever on
/// stale coverage. Per-cell statistics must be well-formed (positive
/// rate, `0 < lo <= hi` bootstrap interval, flows within capacity).
pub fn check_matrix(doc: &Json) -> Problems {
    let mut p = Problems::default();
    if doc.get("bench").and_then(Json::str) != Some("scenario_matrix") {
        p.fail("bench: expected \"scenario_matrix\"");
    }
    let capacity = p.require_num(doc, "table_capacity", 0.0);
    p.require_num(doc, "packets_per_cell", 0.0);
    // Per-class lifetimes: the matrix must run the heterogeneous
    // config (distinct TCP classes), or the TCP-mix axis silently
    // stops exercising the per-class lists.
    let udp = p.require_num(doc, "expiry_ns", 0.0);
    let transitory = p.require_num(doc, "tcp_transitory_ns", 0.0);
    let established = p.require_num(doc, "tcp_established_ns", 0.0);
    if let (Some(u), Some(t), Some(e)) = (udp, transitory, established) {
        if u == t && t == e {
            p.fail(
                "expiry_ns/tcp_transitory_ns/tcp_established_ns: all equal — the matrix \
                 must run heterogeneous per-class lifetimes",
            );
        }
    }
    // The declared axes. `backend` holds strings, the rest numbers;
    // axis values are rendered to strings so coverage keys are uniform.
    let axis = |p: &mut Problems, name: &str| -> Vec<String> {
        let Some(vals) = doc
            .get("axes")
            .and_then(|a| a.get(name))
            .and_then(Json::arr)
        else {
            p.fail(format!("axes.{name}: missing or not an array"));
            return Vec::new();
        };
        if vals.is_empty() {
            p.fail(format!("axes.{name}: empty"));
        }
        vals.iter()
            .filter_map(|v| match v {
                Json::Num(n) => Some(format!("{n}")),
                Json::Str(s) => Some(s.clone()),
                _ => {
                    p.fail(format!("axes.{name}: non-scalar axis value"));
                    None
                }
            })
            .collect()
    };
    let axes: Vec<(&str, Vec<String>)> = [
        "occupancy_pct",
        "shards",
        "queues",
        "backend",
        "tcp_permille",
    ]
    .into_iter()
    .map(|name| (name, axis(&mut p, name)))
    .collect();
    let expected: usize = axes.iter().map(|(_, v)| v.len()).product();
    let cell_key = |cell: &Json| -> Option<String> {
        let mut key = Vec::with_capacity(axes.len());
        for (name, _) in &axes {
            match cell.get(name) {
                Some(Json::Num(n)) => key.push(format!("{n}")),
                Some(Json::Str(s)) => key.push(s.clone()),
                _ => return None,
            }
        }
        Some(key.join("/"))
    };
    match doc.get("cells").and_then(Json::arr) {
        Some(cells) if !cells.is_empty() => {
            let mut seen = std::collections::BTreeMap::<String, usize>::new();
            for (i, cell) in cells.iter().enumerate() {
                let ctx = format!("cells[{i}]");
                match cell_key(cell) {
                    Some(k) => *seen.entry(k).or_insert(0) += 1,
                    None => p.fail(format!("{ctx}: missing an axis coordinate")),
                }
                match (cell.get("flows").and_then(Json::num), capacity) {
                    (Some(f), Some(c)) if 1.0 <= f && f <= c => {}
                    (Some(_), None) => {}
                    _ => p.fail(format!("{ctx}.flows: missing or not in 1..=table_capacity")),
                }
                if cell.get("mpps").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                    p.fail(format!("{ctx}.mpps: missing or non-positive"));
                }
                if cell.get("mean_ns").and_then(Json::num).map(|n| n > 0.0) != Some(true) {
                    p.fail(format!("{ctx}.mean_ns: missing or non-positive"));
                }
                if cell.get("samples").and_then(Json::num).map(|n| n >= 1.0) != Some(true) {
                    p.fail(format!("{ctx}.samples: missing or < 1"));
                }
                let ci: Vec<f64> = cell
                    .get("ci95_mpps")
                    .and_then(Json::arr)
                    .map(|a| a.iter().filter_map(Json::num).collect())
                    .unwrap_or_default();
                match ci.as_slice() {
                    [lo, hi] if 0.0 < *lo && lo <= hi => {}
                    _ => p.fail(format!(
                        "{ctx}.ci95_mpps: not a [lo, hi] pair with 0 < lo <= hi"
                    )),
                }
            }
            // Exact cross-product coverage: every declared combination
            // exactly once, nothing undeclared.
            if expected > 0 {
                for combo in cross_product(&axes) {
                    match seen.get(&combo).copied().unwrap_or(0) {
                        1 => {}
                        0 => p.fail(format!(
                            "cells: declared combination {combo} missing — coverage hole"
                        )),
                        n => p.fail(format!("cells: combination {combo} appears {n} times")),
                    }
                }
                if cells.len() != expected {
                    p.fail(format!(
                        "cells: {} cells for a {} -combination axis product",
                        cells.len(),
                        expected
                    ));
                }
            }
        }
        _ => p.fail("cells: missing or empty"),
    }
    p
}

/// All axis-value combinations, each rendered as the `/`-joined key
/// [`check_matrix`] indexes cells by.
fn cross_product(axes: &[(&str, Vec<String>)]) -> Vec<String> {
    let mut combos = vec![String::new()];
    for (_, vals) in axes {
        combos = combos
            .iter()
            .flat_map(|prefix| {
                vals.iter().map(move |v| {
                    if prefix.is_empty() {
                        v.clone()
                    } else {
                        format!("{prefix}/{v}")
                    }
                })
            })
            .collect();
    }
    combos
}

/// Check one file against the validator picked by its `bench` field.
/// Returns a human-readable failure report, or `Ok(bench_name)`.
pub fn check_file(path: &std::path::Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    let bench = doc
        .get("bench")
        .and_then(Json::str)
        .unwrap_or("<missing bench field>")
        .to_string();
    let problems = match bench.as_str() {
        "micro_flowtable" => check_flowtable(&doc),
        "fig14_throughput" => check_throughput(&doc),
        "scenario_matrix" => check_matrix(&doc),
        other => {
            return Err(format!(
                "{}: unknown bench kind '{other}' (expected micro_flowtable, \
                 fig14_throughput or scenario_matrix)",
                path.display()
            ))
        }
    };
    if problems.0.is_empty() {
        Ok(bench)
    } else {
        let mut msg = format!("{}: {} problem(s)\n", path.display(), problems.0.len());
        for prob in &problems.0 {
            let _ = writeln!(msg, "  - {prob}");
        }
        Err(msg)
    }
}

/// Parse one trajectory file into its [`Json`] document.
pub fn load(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN rates"));
    v[v.len() / 2]
}

/// One named rate as flattened out of a trajectory document for
/// baseline comparison.
#[derive(Debug, Clone)]
struct RatePoint {
    /// Stable series name (coordinates only, no measured values).
    name: String,
    /// The rate (Mpps or ops/s — whatever the series' unit is).
    rate: f64,
    /// Bootstrap 95% CI, where the document carries one.
    ci: Option<(f64, f64)>,
    /// Series length, where the document states one: the retained
    /// sample count for single-point series, the axis length for
    /// per-flow-count sweeps. `None` means unknown — such a series is
    /// judged normally (the `min_samples` suppress rule only fires on
    /// series *known* to be short).
    samples: Option<f64>,
}

/// A two-element `ci95_mpps` array, or `None` for any other shape.
fn ci_pair(v: &Json) -> Option<(f64, f64)> {
    let pair: Vec<f64> = v.arr()?.iter().filter_map(Json::num).collect();
    match pair.as_slice() {
        [lo, hi] => Some((*lo, *hi)),
        _ => None,
    }
}

/// Every named rate a trajectory document carries, flattened to
/// `(name, rate, optional bootstrap CI)` for baseline comparison.
/// Multi-point series (the per-flow-count vectors) collapse to their
/// medians so a single noisy sweep point cannot trip the gate alone.
fn rate_points(doc: &Json) -> Vec<RatePoint> {
    let mut out: Vec<RatePoint> = Vec::new();
    if let Some(rows) = doc.get("series").and_then(Json::arr) {
        for row in rows {
            let Some(name) = row.get("name").and_then(Json::str) else {
                continue;
            };
            if let Some(v) = row.get("mpps_per_flow_count").and_then(Json::arr) {
                // fig14 sweep series: median rate, element-wise median CI.
                let mut vals: Vec<f64> = v.iter().filter_map(Json::num).collect();
                if vals.is_empty() {
                    continue;
                }
                let ci = row
                    .get("mpps_ci95_per_flow_count")
                    .and_then(Json::arr)
                    .and_then(|cis| {
                        let mut lo = Vec::new();
                        let mut hi = Vec::new();
                        for c in cis {
                            let (l, h) = ci_pair(c)?;
                            lo.push(l);
                            hi.push(h);
                        }
                        (!lo.is_empty()).then(|| (median(&mut lo), median(&mut hi)))
                    });
                out.push(RatePoint {
                    name: format!("series.{name}"),
                    rate: median(&mut vals),
                    ci,
                    samples: Some(v.len() as f64),
                });
            } else if let Some(ops) = row.get("ops_per_sec").and_then(Json::num) {
                // micro_flowtable series: ops/s point estimate.
                out.push(RatePoint {
                    name: format!("series.{name}"),
                    rate: ops,
                    ci: None,
                    samples: row.get("samples").and_then(Json::num),
                });
            }
        }
    }
    if let Some(points) = doc
        .get("scaling_curve")
        .and_then(|c| c.get("points"))
        .and_then(Json::arr)
    {
        for pt in points {
            if let (Some(w), Some(m)) = (
                pt.get("workers").and_then(Json::num),
                pt.get("mpps").and_then(Json::num),
            ) {
                let ci = pt.get("ci95_mpps").and_then(ci_pair);
                out.push(RatePoint {
                    name: format!("scaling_curve.workers{w}"),
                    rate: m,
                    ci,
                    samples: None,
                });
            }
        }
    }
    if let Some(rows) = doc
        .get("churn")
        .and_then(|c| c.get("sustained"))
        .and_then(Json::arr)
    {
        for row in rows {
            if let Some(m) = row.get("mpps").and_then(Json::num) {
                let ci = row.get("ci95_mpps").and_then(ci_pair);
                out.push(RatePoint {
                    name: "churn.sustained".to_string(),
                    rate: m,
                    ci,
                    samples: None,
                });
            }
        }
    }
    for (section, key_a, key_b) in [
        ("multiqueue_sweep", "queues", Some("shards")),
        ("sharded_sweep", "shards", None),
    ] {
        if let Some(points) = doc
            .get(section)
            .and_then(|s| s.get("points"))
            .and_then(Json::arr)
        {
            for pt in points {
                let (Some(a), Some(m)) = (
                    pt.get(key_a).and_then(Json::num),
                    pt.get("mpps").and_then(Json::num),
                ) else {
                    continue;
                };
                let name = match key_b.and_then(|k| pt.get(k).and_then(Json::num)) {
                    Some(b) => format!("{section}.{key_a}{a}x{b}"),
                    None => format!("{section}.{key_a}{a}"),
                };
                out.push(RatePoint {
                    name,
                    rate: m,
                    ci: None,
                    samples: None,
                });
            }
        }
    }
    if let Some(w) = doc.get("os_wire_rfc2544") {
        for transport in ["sim", "os_frame", "os_mmap"] {
            if let Some(pt) = w.get(transport) {
                if let Some(m) = pt.get("mpps").and_then(Json::num) {
                    let ci = pt.get("ci95_mpps").and_then(ci_pair);
                    out.push(RatePoint {
                        name: format!("os_wire.{transport}"),
                        rate: m,
                        ci,
                        samples: None,
                    });
                }
            }
        }
    }
    // Scenario-matrix cells: one rate per cell, named by coordinates,
    // so the baseline gate covers the whole scenario space.
    if let Some(cells) = doc.get("cells").and_then(Json::arr) {
        for cell in cells {
            let (Some(o), Some(q), Some(s), Some(b), Some(t), Some(m)) = (
                cell.get("occupancy_pct").and_then(Json::num),
                cell.get("queues").and_then(Json::num),
                cell.get("shards").and_then(Json::num),
                cell.get("backend").and_then(Json::str),
                cell.get("tcp_permille").and_then(Json::num),
                cell.get("mpps").and_then(Json::num),
            ) else {
                continue;
            };
            out.push(RatePoint {
                name: format!("cell.o{o}.q{q}.s{s}.{b}.tcp{t}"),
                rate: m,
                ci: cell.get("ci95_mpps").and_then(ci_pair),
                samples: cell.get("samples").and_then(Json::num),
            });
        }
    }
    out
}

/// Thresholds and suppress rules for the baseline comparison — the
/// knobs `vig_bench --check --baseline` exposes as `--fail-under`,
/// `--warn-under` and `--min-samples`.
#[derive(Debug, Clone, Copy)]
pub struct BaselinePolicy {
    /// Hard-failure threshold on the median delta, percent: a rate
    /// more than this far below the baseline fails the gate.
    pub fail_under_pct: f64,
    /// Optional soft threshold on the median delta, percent: a drop
    /// past it warns even when bootstrap intervals overlap (or are
    /// absent). `None` keeps the CI-overlap rule as the only warning
    /// source.
    pub warn_under_pct: Option<f64>,
    /// Suppress series whose *known* retained sample count (or sweep
    /// length) is below this — a handful of samples cannot honestly
    /// judge a 10% delta. Series of unknown length are judged
    /// normally; `0.0` disables the rule.
    pub min_samples: f64,
}

impl Default for BaselinePolicy {
    fn default() -> BaselinePolicy {
        BaselinePolicy {
            fail_under_pct: 10.0,
            warn_under_pct: None,
            min_samples: 0.0,
        }
    }
}

/// Outcome of comparing a fresh run against a committed baseline.
#[derive(Debug, Default)]
pub struct BaselineReport {
    /// Hard regressions: a rate dropped past the fail threshold, or a
    /// baseline series vanished from this run. Non-empty fails
    /// `vig_bench --check --baseline`.
    pub failures: Vec<String>,
    /// Soft signals: the run is slower and the bootstrap intervals
    /// don't overlap (or the drop passed the warn threshold), but it
    /// stays within the failure budget.
    pub warnings: Vec<String>,
    /// Series present in this run but not in the baseline — reported,
    /// never judged (a new series has no history to regress against).
    pub new_series: Vec<String>,
    /// Series present in both but too short to judge under the
    /// policy's `min_samples` — reported, never judged.
    pub suppressed: Vec<String>,
    /// Series compared against the baseline.
    pub compared: usize,
}

/// [`compare_against_baseline_with`] under the default policy (fail
/// past 10%, CI-overlap warnings only, no length suppression) — the
/// behavior of plain `--baseline` with no threshold flags.
pub fn compare_against_baseline(current: &Json, baseline: &Json) -> BaselineReport {
    compare_against_baseline_with(current, baseline, &BaselinePolicy::default())
}

/// Compare a freshly generated trajectory document against a committed
/// baseline of the same bench kind: fail any rate that dropped more
/// than `policy.fail_under_pct` below the baseline median (or vanished
/// outright), warn when a smaller slowdown is still outside both
/// bootstrap intervals or past `policy.warn_under_pct`, suppress
/// series shorter than `policy.min_samples` (in either run), and
/// report — never judge — series that are new in this run.
pub fn compare_against_baseline_with(
    current: &Json,
    baseline: &Json,
    policy: &BaselinePolicy,
) -> BaselineReport {
    let mut report = BaselineReport::default();
    let cur = rate_points(current);
    let base = rate_points(baseline);
    let fail_frac = 1.0 - policy.fail_under_pct / 100.0;
    let too_short = |samples: Option<f64>| samples.is_some_and(|n| n < policy.min_samples);
    for b in &base {
        let name = &b.name;
        let Some(c) = cur.iter().find(|c| c.name == *name) else {
            report.failures.push(format!(
                "{name}: present in baseline but missing from this run — a vanished series \
                 disarms the gate"
            ));
            continue;
        };
        // Too short to judge — on either side: a truncated fresh run
        // must not be held to the gate, and a truncated baseline is no
        // reference to judge against.
        if too_short(c.samples) || too_short(b.samples) {
            report.suppressed.push(format!(
                "{name}: {} sample(s) vs baseline {} — below the {:.0}-sample floor",
                c.samples.map_or("?".into(), |n| format!("{n:.0}")),
                b.samples.map_or("?".into(), |n| format!("{n:.0}")),
                policy.min_samples
            ));
            continue;
        }
        report.compared += 1;
        if c.rate < b.rate * fail_frac {
            report.failures.push(format!(
                "{name}: {:.3} is {:.1}% below baseline {:.3} (budget: {:.0}%)",
                c.rate,
                (1.0 - c.rate / b.rate) * 100.0,
                b.rate,
                policy.fail_under_pct
            ));
            continue;
        }
        let ci_gap = match (b.ci, c.ci) {
            (Some((b_lo, _)), Some((_, c_hi))) => c.rate < b.rate && c_hi < b_lo,
            _ => false,
        };
        let past_warn = policy
            .warn_under_pct
            .is_some_and(|w| c.rate < b.rate * (1.0 - w / 100.0));
        if ci_gap {
            report.warnings.push(format!(
                "{name}: {:.3} vs baseline {:.3} — slower with non-overlapping 95% \
                 intervals (within the {:.0}% budget)",
                c.rate, b.rate, policy.fail_under_pct
            ));
        } else if past_warn {
            report.warnings.push(format!(
                "{name}: {:.3} is {:.1}% below baseline {:.3} (warn threshold: {:.0}%)",
                c.rate,
                (1.0 - c.rate / b.rate) * 100.0,
                b.rate,
                policy.warn_under_pct.unwrap_or(0.0)
            ));
        }
    }
    for c in &cur {
        if !base.iter().any(|b| b.name == c.name) {
            report.new_series.push(c.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_the_shapes_the_benches_emit() {
        let doc =
            parse(r#"{"a": 1.5, "b": [1, 2e3, -4], "c": {"d": "x\ny", "e": true, "f": null}}"#)
                .unwrap();
        assert_eq!(doc.get("a").and_then(Json::num), Some(1.5));
        assert_eq!(doc.get("b").and_then(Json::arr).unwrap().len(), 3);
        assert_eq!(
            doc.get("c").and_then(|c| c.get("d")).and_then(Json::str),
            Some("x\ny")
        );
        assert_eq!(doc.get("c").and_then(|c| c.get("f")), Some(&Json::Null));
        assert!(parse("{").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("{} garbage").is_err());
    }

    fn minimal_flowtable() -> String {
        let row = |name: &str| {
            format!(
                r#"{{"name":"{name}","ops_per_sec":1.0,"p50_ns":10.0,"p99_ns":20.0,"mean_ns":11.0,"ci95_ns":0.1,"samples":100,"outliers_rejected":0}}"#
            )
        };
        format!(
            r#"{{"bench":"micro_flowtable","table_capacity":100,"burst":32,
                "batched_speedup_at_50pct":2.0,"batched_speedup_at_99pct":1.5,
                "churn":{{"table_capacity":1048576,"active_window":800000,
                    "occupancy_end":950000,"expired":4000}},
                "series":[{},{},{}]}}"#,
            row("lookup_batched_98pct"),
            row("natstep_batched_98pct"),
            row("churn_step_1m")
        )
    }

    #[test]
    fn flowtable_validator_accepts_good_and_flags_broken() {
        let good = parse(&minimal_flowtable()).unwrap();
        assert!(
            check_flowtable(&good).0.is_empty(),
            "{:?}",
            check_flowtable(&good).0
        );

        // Drop the gate metric: must be flagged.
        let broken = minimal_flowtable().replace("batched_speedup_at_50pct", "renamed_away");
        let doc = parse(&broken).unwrap();
        let probs = check_flowtable(&doc);
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("batched_speedup_at_50pct")));

        // Remove the gate series: must be flagged.
        let broken = minimal_flowtable().replace("lookup_batched_98pct", "lookup_other");
        let probs = check_flowtable(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("lookup_batched_98pct")));

        // Inverted percentiles: must be flagged.
        let broken = minimal_flowtable().replace(r#""p99_ns":20.0"#, r#""p99_ns":5.0"#);
        let probs = check_flowtable(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("p99")));

        // A churn run that expired nothing measured no churn.
        let broken = minimal_flowtable().replace(r#""expired":4000"#, r#""expired":0"#);
        let probs = check_flowtable(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("churn.expired")));

        // Churn at sub-million capacity must not satisfy the gate.
        let broken =
            minimal_flowtable().replace(r#""table_capacity":1048576"#, r#""table_capacity":65535"#);
        let probs = check_flowtable(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("below 2^20")));

        // Dropping the churn section entirely must be flagged.
        let broken = minimal_flowtable().replace(r#""churn""#, r#""churn_renamed""#);
        let probs = check_flowtable(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("churn: missing")));
    }

    fn minimal_throughput() -> String {
        let series = |name: &str| {
            format!(
                r#"{{"name":"{name}","mpps_per_flow_count":[1.0,2.0],"mpps_ci95_per_flow_count":[[0.9,1.1],[1.8,2.2]]}}"#
            )
        };
        format!(
            r#"{{"bench":"fig14_throughput","flow_counts":[1000,64000],
                "series":[{},{},{}],
                "verified_seq":{{"p50_ns":100,"p99_ns":300}},
                "verified_batched":{{"p50_ns":80,"p99_ns":200}},
                "sharded_sweep":{{"points":[{{"shards":1,"mpps":10.0}}]}},
                "scaling_curve":{{"host_cores":1,"pinning_requested":true,
                    "points":[{{"workers":1,"mpps":5.0,"ci95_mpps":[4.5,5.5],"wallclock_mpps":4.0,"pinned_workers":1}},
                              {{"workers":2,"mpps":6.0,"ci95_mpps":[5.5,6.5],"wallclock_mpps":4.5,"pinned_workers":2}}]}},
                "multiqueue_sweep":{{"points":[{{"queues":1,"shards":1,"mpps":8.0}}]}},
                "fault_overhead":{{"trials":5,"bare_mpps":8.0,"faultio_empty_mpps":7.95,"overhead_pct":0.6}},
                "os_wire_rfc2544":{{"available":true,"queues":2,"shards":2,"host_cores":2,
                    "sim":{{"mpps":4.0,"ci95_mpps":[3.8,4.2]}},
                    "os_frame":{{"mpps":0.5,"ci95_mpps":[0.45,0.55],"kernel_drops":0,"tx_errors":0,"rx_errors":0}},
                    "os_mmap":{{"mpps":1.0,"ci95_mpps":[0.9,1.1],"kernel_drops":0,"tx_errors":0,"rx_errors":0}},
                    "mmap_vs_frame_speedup":2.0}},
                "churn":{{"table_capacity":1048576,"occupancy_end":970000,
                    "expired_during_churn":7500,
                    "sustained":[{{"mpps":3.0,"ci95_mpps":[2.8,3.2]}}],
                    "latency_ccdf":{{"points":[{{"latency_ns":200,"ccdf":0.5}},{{"latency_ns":400,"ccdf":0.01}}]}}}}}}"#,
            series("noop"),
            series("verified"),
            series("verified_batched")
        )
    }

    #[test]
    fn throughput_validator_accepts_good_and_flags_broken() {
        let good = parse(&minimal_throughput()).unwrap();
        assert!(
            check_throughput(&good).0.is_empty(),
            "{:?}",
            check_throughput(&good).0
        );

        // Axis mismatch: one rate for two flow counts.
        let broken = minimal_throughput().replace(
            r#""mpps_per_flow_count":[1.0,2.0]"#,
            r#""mpps_per_flow_count":[1.0]"#,
        );
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("points for")));

        // Non-numeric rates of the right length must not pass
        // vacuously.
        let broken = minimal_throughput().replace(
            r#""mpps_per_flow_count":[1.0,2.0]"#,
            r#""mpps_per_flow_count":[null,null]"#,
        );
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("non-numeric")));

        // Inverted interval.
        let broken = minimal_throughput().replace("[0.9,1.1]", "[1.1,0.9]");
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("lo <= hi")));

        // Missing gate series.
        let broken = minimal_throughput().replace(r#""name":"verified_batched""#, r#""name":"x""#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("verified_batched") && p.contains("missing")));

        // Missing scaling curve entirely.
        let broken = minimal_throughput().replace(r#""scaling_curve""#, r#""renamed_curve""#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("scaling_curve: missing")));

        // Worker counts must increase strictly.
        let broken = minimal_throughput().replace(r#""workers":2"#, r#""workers":1"#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("strictly increasing")));

        // Pin attribution must be bounded by the worker count.
        let broken = minimal_throughput().replace(r#""pinned_workers":2"#, r#""pinned_workers":3"#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("pinned_workers")));

        // Inverted bootstrap interval on a curve point.
        let broken = minimal_throughput().replace("[4.5,5.5]", "[5.5,4.5]");
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("ci95_mpps") && p.contains("lo <= hi")));

        // Dropping the churn section entirely must be flagged.
        let broken = minimal_throughput().replace(r#""churn""#, r#""churn_renamed""#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("churn: missing")));

        // Inverted sustained-rate interval.
        let broken = minimal_throughput().replace("[2.8,3.2]", "[3.2,2.8]");
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("churn.sustained") && p.contains("lo <= hi")));

        // CCDF latencies must increase strictly.
        let broken = minimal_throughput().replace(r#""latency_ns":400"#, r#""latency_ns":200"#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("latency_ns") && p.contains("strictly increasing")));

        // CCDF tail probabilities must not increase with latency.
        let broken = minimal_throughput().replace(r#""ccdf":0.01"#, r#""ccdf":0.75"#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("non-increasing")));

        // CCDF values must stay inside (0, 1].
        let broken = minimal_throughput().replace(r#""ccdf":0.5"#, r#""ccdf":1.5"#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("not in (0, 1]")));

        // A skipped wire run must not validate as a committed
        // trajectory.
        let broken = minimal_throughput().replace(
            r#""available":true"#,
            r#""available":false,"reason":"EPERM""#,
        );
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("available: false") && p.contains("real wire run")));

        // Dropping the wire section entirely must be flagged.
        let broken = minimal_throughput().replace(r#""os_wire_rfc2544""#, r#""renamed_wire""#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("os_wire_rfc2544: missing")));

        // The zero-copy speedup gate: below 1.5x must fail on a
        // multi-core host.
        let broken = minimal_throughput().replace(
            r#""mmap_vs_frame_speedup":2.0"#,
            r#""mmap_vs_frame_speedup":1.2"#,
        );
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("1.5x")));

        // On a single-core rig the same ratio passes the relaxed gate
        // (both transports share the synchronous veth transmit there),
        // but a ratio below even the relaxed floor still fails.
        let single = broken.replace(r#""host_cores":2"#, r#""host_cores":1"#);
        let probs = check_throughput(&parse(&single).unwrap());
        assert!(
            !probs.0.iter().any(|p| p.contains("zero-copy gate")),
            "{:?}",
            probs.0
        );
        let single_low = minimal_throughput()
            .replace(
                r#""mmap_vs_frame_speedup":2.0"#,
                r#""mmap_vs_frame_speedup":1.05"#,
            )
            .replace(r#""host_cores":2"#, r#""host_cores":1"#);
        let probs = check_throughput(&parse(&single_low).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("1.15x")));

        // The gate cannot be dodged by omitting the core count.
        let no_cores = minimal_throughput().replace(r#""host_cores":2,"#, "");
        let probs = check_throughput(&parse(&no_cores).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("os_wire_rfc2544.host_cores")));

        // A wire run with failed sends is not a measurement.
        let broken = minimal_throughput().replace(
            r#""mpps":1.0,"ci95_mpps":[0.9,1.1],"kernel_drops":0,"tx_errors":0"#,
            r#""mpps":1.0,"ci95_mpps":[0.9,1.1],"kernel_drops":0,"tx_errors":3"#,
        );
        assert_ne!(broken, minimal_throughput());
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("os_mmap.tx_errors") && p.contains("clean")));

        // A missing transport point must be flagged.
        let broken = minimal_throughput().replace(r#""os_mmap""#, r#""os_other""#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("os_wire_rfc2544.os_mmap: missing")));

        // The fault-layer identity gate: overhead at or above 2% fails.
        let broken = minimal_throughput().replace(r#""overhead_pct":0.6"#, r#""overhead_pct":3.4"#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("overhead_pct") && p.contains("2% identity gate")));

        // Negative overhead (wrapped measured faster — host noise) is
        // honest data and passes.
        let noisy = minimal_throughput().replace(r#""overhead_pct":0.6"#, r#""overhead_pct":-0.3"#);
        let probs = check_throughput(&parse(&noisy).unwrap());
        assert!(probs.0.is_empty(), "{:?}", probs.0);

        // Dropping the section disarms the gate — flagged.
        let broken = minimal_throughput().replace(r#""fault_overhead""#, r#""renamed_fault""#);
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs
            .0
            .iter()
            .any(|p| p.contains("fault_overhead: missing")));

        // A one-point CCDF is not a curve.
        let broken = minimal_throughput().replace(r#",{"latency_ns":400,"ccdf":0.01}"#, "");
        assert_ne!(
            broken,
            minimal_throughput(),
            "fixture must contain the point"
        );
        let probs = check_throughput(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("fewer than 2 points")));
    }

    #[test]
    fn baseline_compare_fails_big_drops_warns_ci_gaps_suppresses_new_series() {
        let baseline = parse(&minimal_throughput()).unwrap();

        // Identical run: clean bill.
        let same = compare_against_baseline(&baseline, &baseline);
        assert!(same.failures.is_empty(), "{:?}", same.failures);
        assert!(same.warnings.is_empty(), "{:?}", same.warnings);
        assert!(same.new_series.is_empty());
        assert!(same.compared >= 10, "compared only {}", same.compared);

        // >10% median drop on a sweep series: hard failure.
        let slow = minimal_throughput().replace(
            r#""name":"verified","mpps_per_flow_count":[1.0,2.0]"#,
            r#""name":"verified","mpps_per_flow_count":[0.8,1.6]"#,
        );
        let report = compare_against_baseline(&parse(&slow).unwrap(), &baseline);
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("series.verified") && f.contains("below baseline")),
            "{:?}",
            report.failures
        );

        // Slower but within budget, with disjoint intervals: a warning,
        // not a failure. (Baseline os_mmap: 1.0 [0.9, 1.1].)
        let wobble = minimal_throughput().replace(
            r#""os_mmap":{"mpps":1.0,"ci95_mpps":[0.9,1.1]"#,
            r#""os_mmap":{"mpps":0.92,"ci95_mpps":[0.85,0.89]"#,
        );
        let report = compare_against_baseline(&parse(&wobble).unwrap(), &baseline);
        assert!(
            !report
                .failures
                .iter()
                .any(|f| f.contains("os_wire.os_mmap")),
            "{:?}",
            report.failures
        );
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("os_wire.os_mmap") && w.contains("non-overlapping")),
            "{:?}",
            report.warnings
        );

        // A series only in the current run is reported, never judged.
        let grown = minimal_throughput().replace(
            r#""series":[{"name":"noop""#,
            r#""series":[{"name":"brand_new","mpps_per_flow_count":[9.0,9.0],"mpps_ci95_per_flow_count":[[8.0,10.0],[8.0,10.0]]},{"name":"noop""#,
        );
        let report = compare_against_baseline(&parse(&grown).unwrap(), &baseline);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(report.new_series.contains(&"series.brand_new".to_string()));

        // A series that vanished from the current run is a failure —
        // deleting a slow series must not green the gate.
        let report = compare_against_baseline(&baseline, &parse(&grown).unwrap());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("series.brand_new") && f.contains("vanished")));

        // Flowtable documents compare on ops_per_sec.
        let ft_base = parse(&minimal_flowtable()).unwrap();
        let ft_slow = minimal_flowtable().replace(
            r#""name":"lookup_batched_98pct","ops_per_sec":1.0"#,
            r#""name":"lookup_batched_98pct","ops_per_sec":0.5"#,
        );
        let report = compare_against_baseline(&parse(&ft_slow).unwrap(), &ft_base);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("series.lookup_batched_98pct")));
    }

    fn matrix_cell(backend: &str, tcp: u16, mpps: f64) -> String {
        format!(
            r#"{{"occupancy_pct":25,"shards":1,"queues":1,"backend":"{backend}","tcp_permille":{tcp},"flows":16383,"mpps":{mpps},"ci95_mpps":[{:.3},{:.3}],"mean_ns":150.0,"samples":7000,"outliers_rejected":64}}"#,
            mpps * 0.95,
            mpps * 1.05
        )
    }

    fn minimal_matrix() -> String {
        format!(
            r#"{{"bench":"scenario_matrix","table_capacity":65535,"packets_per_cell":7064,
                "expiry_ns":60000000000,"tcp_transitory_ns":4000000000,"tcp_established_ns":120000000000,
                "axes":{{"occupancy_pct":[25],"shards":[1],"queues":[1],"backend":["sim","faultio"],"tcp_permille":[0,1000]}},
                "cells":[{},{},{},{}]}}"#,
            matrix_cell("sim", 0, 6.0),
            matrix_cell("sim", 1000, 5.5),
            matrix_cell("faultio", 0, 5.9),
            matrix_cell("faultio", 1000, 5.4)
        )
    }

    #[test]
    fn matrix_validator_accepts_good_and_flags_broken() {
        let good = parse(&minimal_matrix()).unwrap();
        assert!(
            check_matrix(&good).0.is_empty(),
            "{:?}",
            check_matrix(&good).0
        );

        // A dropped cell is a coverage hole, not a smaller valid file.
        let broken =
            minimal_matrix().replace(&format!(",{}", matrix_cell("faultio", 1000, 5.4)), "");
        assert_ne!(broken, minimal_matrix(), "fixture must contain the cell");
        let probs = check_matrix(&parse(&broken).unwrap());
        assert!(
            probs.0.iter().any(|p| p.contains("coverage hole")),
            "{:?}",
            probs.0
        );

        // A duplicated cell must be flagged too (same combination
        // twice means some other combination is missing or the runner
        // double-counted).
        let broken = minimal_matrix().replace(
            &matrix_cell("faultio", 1000, 5.4),
            &matrix_cell("faultio", 0, 5.4),
        );
        let probs = check_matrix(&parse(&broken).unwrap());
        assert!(
            probs.0.iter().any(|p| p.contains("appears 2 times")),
            "{:?}",
            probs.0
        );

        // An undeclared axis value in a cell: the combination key
        // misses every declared combination.
        let broken = minimal_matrix().replace(
            r#""occupancy_pct":25,"shards":1,"queues":1,"backend":"faultio","tcp_permille":1000"#,
            r#""occupancy_pct":90,"shards":1,"queues":1,"backend":"faultio","tcp_permille":1000"#,
        );
        let probs = check_matrix(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("coverage hole")));

        // Inverted bootstrap interval on a cell.
        let broken = minimal_matrix().replace("[5.225,5.775]", "[5.775,5.225]");
        assert_ne!(broken, minimal_matrix());
        let probs = check_matrix(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("lo <= hi")));

        // Homogeneous lifetimes: the TCP-mix axis would stop
        // exercising the per-class lists.
        let broken = minimal_matrix()
            .replace(
                r#""tcp_transitory_ns":4000000000"#,
                r#""tcp_transitory_ns":60000000000"#,
            )
            .replace(
                r#""tcp_established_ns":120000000000"#,
                r#""tcp_established_ns":60000000000"#,
            );
        let probs = check_matrix(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("heterogeneous")));

        // A missing axis must be flagged.
        let broken = minimal_matrix().replace(r#""queues":[1]"#, r#""queues_renamed":[1]"#);
        let probs = check_matrix(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("axes.queues")));

        // Zero-sample cells are not measurements.
        let broken = minimal_matrix().replace(r#""samples":7000"#, r#""samples":0"#);
        let probs = check_matrix(&parse(&broken).unwrap());
        assert!(probs.0.iter().any(|p| p.contains("samples")));
    }

    #[test]
    fn baseline_policy_thresholds_and_suppression() {
        let baseline = parse(&minimal_matrix()).unwrap();

        // A 7% drop on one cell: passes the default 10% gate...
        let slow7 = minimal_matrix().replace(
            &matrix_cell("sim", 1000, 5.5),
            &matrix_cell("sim", 1000, 5.5 * 0.93),
        );
        let doc7 = parse(&slow7).unwrap();
        let report = compare_against_baseline(&doc7, &baseline);
        assert!(report.failures.is_empty(), "{:?}", report.failures);

        // ...fails a tightened --fail-under 5...
        let tight = BaselinePolicy {
            fail_under_pct: 5.0,
            ..BaselinePolicy::default()
        };
        let report = compare_against_baseline_with(&doc7, &baseline, &tight);
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("cell.o25.q1.s1.sim.tcp1000") && f.contains("budget: 5%")),
            "{:?}",
            report.failures
        );

        // ...and warns under --warn-under 3 even though the shifted
        // bootstrap intervals still overlap the baseline's.
        let soft = BaselinePolicy {
            warn_under_pct: Some(3.0),
            ..BaselinePolicy::default()
        };
        let report = compare_against_baseline_with(&doc7, &baseline, &soft);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("cell.o25.q1.s1.sim.tcp1000") && w.contains("warn threshold")),
            "{:?}",
            report.warnings
        );

        // A big drop on a series the current run measured with too few
        // samples is suppressed under --min-samples, not failed — and
        // the suppression is visible in the report.
        let short = slow7.replace(
            &matrix_cell("sim", 1000, 5.5 * 0.93),
            &matrix_cell("sim", 1000, 2.0).replace(r#""samples":7000"#, r#""samples":3"#),
        );
        let doc_short = parse(&short).unwrap();
        let floor = BaselinePolicy {
            min_samples: 100.0,
            ..BaselinePolicy::default()
        };
        let report = compare_against_baseline_with(&doc_short, &baseline, &floor);
        assert!(
            !report
                .failures
                .iter()
                .any(|f| f.contains("cell.o25.q1.s1.sim.tcp1000")),
            "{:?}",
            report.failures
        );
        assert!(
            report
                .suppressed
                .iter()
                .any(|s| s.contains("cell.o25.q1.s1.sim.tcp1000") && s.contains("100-sample floor")),
            "{:?}",
            report.suppressed
        );
        // Without the floor, the same short series fails — suppression
        // is opt-in.
        let report = compare_against_baseline(&doc_short, &baseline);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("cell.o25.q1.s1.sim.tcp1000")));
    }

    #[test]
    fn the_committed_trajectory_files_pass() {
        // The actual gate CI runs: the trajectory files at the
        // workspace root must validate (if this fails, a bench
        // refactor broke them).
        for name in [
            "BENCH_flowtable.json",
            "BENCH_throughput.json",
            "BENCH_matrix.json",
        ] {
            let path = crate::workspace_root().join(name);
            match check_file(&path) {
                Ok(_) => {}
                Err(e) => panic!("{e}"),
            }
        }
    }
}
