//! Schema validation for the one committed trajectory file,
//! `BENCH_throughput.json` (Fig. 14).
//!
//! A bench refactor that silently emits a malformed file — a missing
//! series, an inverted confidence interval, a rate vector that no
//! longer matches the flow-count axis, a point outside its own
//! interval — must not reach the repository. This module re-parses the
//! document with a tiny self-contained JSON reader (the environment is
//! offline: no serde) and checks it against **one declarative table**,
//! [`THROUGHPUT_RULES`]: rows of (path, [`Rule`]), the rules drawn from
//! a closed set of seven, walked by one interpreter ([`check`]).
//!
//! Two callers: `fig14_throughput` validates its document *before*
//! writing it, and a unit test validates the committed file (so tier-1
//! `cargo test` is the gate).

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

/// What a [`THROUGHPUT_RULES`] row demands of the node(s) its path
/// selects. The closed set: a new section of the file is new rows, not
/// a new kind of check.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// The string equals this.
    Str(&'static str),
    /// The number lies in `[min, max]`.
    Num(f64, f64),
    /// A non-empty array of strictly increasing numbers.
    Increasing,
    /// An array as long as the one at this (wildcard-free) path.
    SameLen(&'static str),
    /// An array of objects in which every one of these `name`s occurs.
    Rows(&'static [&'static str]),
    /// The number is at most the sibling field's.
    AtMost(&'static str),
    /// An array of points, each inside its own `[lo, hi]` in the
    /// sibling array of intervals.
    Inside(&'static str),
}

/// A strictly positive number.
const POSITIVE: Rule = Rule::Num(f64::MIN_POSITIVE, f64::INFINITY);

/// The schema of `BENCH_throughput.json`. Paths are dotted keys;
/// `[*]` fans out over every element of an array.
pub const THROUGHPUT_RULES: &[(&str, Rule)] = &[
    ("bench", Rule::Str("fig14_throughput")),
    ("statistics.outlier_rejection", Rule::Str("mad_z3.5")),
    ("statistics.rejected_total", Rule::Num(0.0, f64::INFINITY)),
    ("flow_counts", Rule::Increasing),
    ("flow_counts[*]", POSITIVE),
    (
        "series",
        Rule::Rows(&[
            "noop",
            "unverified",
            "verified",
            "verified_batched",
            "linux",
        ]),
    ),
    (
        "series[*].mpps_per_flow_count",
        Rule::SameLen("flow_counts"),
    ),
    ("series[*].mpps_per_flow_count[*]", POSITIVE),
    (
        "series[*].mpps_ci95_per_flow_count",
        Rule::SameLen("flow_counts"),
    ),
    ("series[*].mpps_ci95_per_flow_count[*][*]", POSITIVE),
    (
        "series[*].mpps_per_flow_count",
        Rule::Inside("mpps_ci95_per_flow_count"),
    ),
    ("verified_seq.p50_ns", POSITIVE),
    ("verified_seq.p50_ns", Rule::AtMost("p99_ns")),
    ("verified_batched.p50_ns", POSITIVE),
    ("verified_batched.p50_ns", Rule::AtMost("p99_ns")),
];

/// Every node `path` selects under `root`, each with its concrete path
/// (`series[2].mpps_per_flow_count`). A key that is absent, or a `[*]`
/// over something that is not an array, is the error.
fn select<'a>(root: &'a Json, path: &str) -> Result<Vec<(String, &'a Json)>, String> {
    let mut nodes = vec![(String::new(), root)];
    for segment in path.split('.') {
        let (key, stars) = segment.split_at(segment.find('[').unwrap_or(segment.len()));
        let mut next = Vec::new();
        for (at, node) in nodes {
            let at = if at.is_empty() {
                key.to_string()
            } else {
                format!("{at}.{key}")
            };
            let child = node.get(key).ok_or(format!("{at}: missing"))?;
            next.push((at, child));
        }
        for _ in 0..stars.matches("[*]").count() {
            let mut fanned = Vec::new();
            for (at, node) in next {
                let items = node.arr().ok_or(format!("{at}: not an array"))?;
                fanned.extend(
                    items
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (format!("{at}[{i}]"), v)),
                );
            }
            next = fanned;
        }
        nodes = next;
    }
    Ok(nodes)
}

fn num_at(at: &str, v: &Json) -> Result<f64, String> {
    v.num().ok_or(format!("{at}: not a number"))
}

fn arr_at<'a>(at: &str, v: &'a Json) -> Result<&'a [Json], String> {
    v.arr().ok_or(format!("{at}: not an array"))
}

/// Apply one rule to everything its path selects; the first violation
/// is the error.
fn apply(doc: &Json, path: &str, rule: Rule) -> Result<(), String> {
    let subjects = select(doc, path)?;
    // The same fan-out one key over: pairs up with `subjects` by index.
    let siblings = |key: &str| {
        let parent = path
            .rsplit_once('.')
            .map_or(String::new(), |(p, _)| format!("{p}."));
        select(doc, &format!("{parent}{key}"))
    };
    match rule {
        Rule::Str(want) => {
            for (at, v) in subjects {
                if v.str() != Some(want) {
                    return Err(format!("{at}: expected \"{want}\""));
                }
            }
        }
        Rule::Num(min, max) => {
            for (at, v) in subjects {
                let n = num_at(&at, v)?;
                if !(min..=max).contains(&n) {
                    return Err(format!("{at}: {n} not in [{min}, {max}]"));
                }
            }
        }
        Rule::Increasing => {
            for (at, v) in subjects {
                let items = arr_at(&at, v)?;
                let nums = items
                    .iter()
                    .map(|x| num_at(&at, x))
                    .collect::<Result<Vec<_>, _>>()?;
                if nums.is_empty() || nums.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("{at}: not a non-empty strictly increasing array"));
                }
            }
        }
        Rule::SameLen(other) => {
            let others = select(doc, other)?;
            let want = arr_at(other, others[0].1)?.len();
            for (at, v) in subjects {
                let got = arr_at(&at, v)?.len();
                if got != want {
                    return Err(format!("{at}: {got} elements for {want} in {other}"));
                }
            }
        }
        Rule::Rows(names) => {
            for (at, v) in subjects {
                let rows = arr_at(&at, v)?;
                for name in names {
                    if !rows
                        .iter()
                        .any(|r| r.get("name").and_then(Json::str) == Some(name))
                    {
                        return Err(format!("{at}: row '{name}' missing"));
                    }
                }
            }
        }
        Rule::AtMost(key) => {
            for ((at, a), (bt, b)) in subjects.into_iter().zip(siblings(key)?) {
                let (a, b) = (num_at(&at, a)?, num_at(&bt, b)?);
                if a > b {
                    return Err(format!("{at}: {a} exceeds {bt} ({b})"));
                }
            }
        }
        Rule::Inside(key) => {
            for ((at, points), (it, intervals)) in subjects.into_iter().zip(siblings(key)?) {
                let (points, intervals) = (arr_at(&at, points)?, arr_at(&it, intervals)?);
                for (i, point) in points.iter().enumerate() {
                    let it = format!("{it}[{i}]");
                    let interval = intervals.get(i).ok_or(format!("{it}: missing"))?;
                    let point = num_at(&format!("{at}[{i}]"), point)?;
                    let (lo, hi) = match arr_at(&it, interval)? {
                        [lo, hi] => (num_at(&it, lo)?, num_at(&it, hi)?),
                        _ => return Err(format!("{it}: not a [lo, hi] pair")),
                    };
                    if !(lo..=hi).contains(&point) {
                        return Err(format!(
                            "{at}[{i}]: {point} outside its own interval [{lo}, {hi}]"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Walk `rules` over `doc`; one message per violated row, each naming
/// the concrete path at fault. Empty means the document conforms.
pub fn check(doc: &Json, rules: &[(&str, Rule)]) -> Vec<String> {
    rules
        .iter()
        .filter_map(|&(path, rule)| apply(doc, path, rule).err())
        .collect()
}

/// Parse `text` and hold it to [`THROUGHPUT_RULES`]; the error is a
/// printable problem list.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let problems = check(&doc, THROUGHPUT_RULES);
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} problem(s)\n  - {}",
            problems.len(),
            problems.join("\n  - ")
        ))
    }
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

    const SERIES: [&str; 5] = [
        "noop",
        "unverified",
        "verified",
        "verified_batched",
        "linux",
    ];

    fn minimal_throughput() -> String {
        let series: Vec<String> = SERIES
            .iter()
            .map(|name| {
                format!(
                    r#"{{"name":"{name}","mpps_per_flow_count":[1.0,2.0],"mpps_ci95_per_flow_count":[[0.9,1.1],[1.8,2.2]]}}"#
                )
            })
            .collect();
        format!(
            r#"{{"bench":"fig14_throughput",
                "statistics":{{"outlier_rejection":"mad_z3.5","rejected_total":12}},
                "flow_counts":[1000,64000],
                "series":[{}],
                "verified_seq":{{"p50_ns":100,"p99_ns":300}},
                "verified_batched":{{"p50_ns":80,"p99_ns":200}}}}"#,
            series.join(",")
        )
    }

    #[test]
    fn throughput_validator_accepts_good_and_flags_broken() {
        assert_eq!(validate(&minimal_throughput()), Ok(()));

        // One document per rule kind, each breaking exactly one row of
        // the table; the one message must name the path at fault.
        let cases: [(&str, &str, &str, &str); 7] = [
            (
                "Str",
                r#""bench":"fig14_throughput""#,
                r#""bench":"fig14""#,
                "bench: expected",
            ),
            (
                "Num",
                r#""rejected_total":12"#,
                r#""rejected_total":-1"#,
                "statistics.rejected_total: -1 not in",
            ),
            (
                "Increasing",
                "[1000,64000]",
                "[64000,64000]",
                "flow_counts: not a non-empty strictly increasing",
            ),
            (
                "SameLen",
                r#""name":"linux","mpps_per_flow_count":[1.0,2.0],"mpps_ci95_per_flow_count":[[0.9,1.1],[1.8,2.2]]"#,
                r#""name":"linux","mpps_per_flow_count":[1.0,2.0],"mpps_ci95_per_flow_count":[[0.9,1.1],[1.8,2.2],[1.8,2.2]]"#,
                "series[4].mpps_ci95_per_flow_count: 3 elements for 2 in flow_counts",
            ),
            (
                "Rows",
                r#""name":"verified_batched""#,
                r#""name":"x""#,
                "series: row 'verified_batched' missing",
            ),
            (
                "AtMost",
                r#""p50_ns":80,"p99_ns":200"#,
                r#""p50_ns":80,"p99_ns":79"#,
                "verified_batched.p50_ns: 80 exceeds verified_batched.p99_ns (79)",
            ),
            (
                "Inside",
                r#""name":"noop","mpps_per_flow_count":[1.0,2.0]"#,
                r#""name":"noop","mpps_per_flow_count":[1.0,2.3]"#,
                "series[0].mpps_per_flow_count[1]: 2.3 outside its own interval [1.8, 2.2]",
            ),
        ];
        for (kind, from, to, message) in cases {
            let broken = minimal_throughput().replacen(from, to, 1);
            assert_ne!(broken, minimal_throughput(), "{kind}: fixture lacks {from}");
            let problems = check(&parse(&broken).unwrap(), THROUGHPUT_RULES);
            assert_eq!(problems.len(), 1, "{kind}: {problems:?}");
            assert!(problems[0].starts_with(message), "{kind}: {problems:?}");
        }
    }

    #[test]
    fn absent_and_misshapen_nodes_are_named_not_skipped() {
        // A rule over a missing key, a `[*]` over a scalar, or a
        // non-numeric rate must fail by path — never pass vacuously.
        let missing = minimal_throughput().replace(r#""verified_seq""#, r#""renamed""#);
        let problems = check(&parse(&missing).unwrap(), THROUGHPUT_RULES);
        assert_eq!(
            problems,
            ["verified_seq: missing", "verified_seq: missing"],
            "both verified_seq rows"
        );
        let scalar = minimal_throughput().replace("[1000,64000]", "7");
        let problems = check(&parse(&scalar).unwrap(), THROUGHPUT_RULES);
        assert!(problems.contains(&"flow_counts: not an array".to_string()));
        let nulls = minimal_throughput().replacen("[1.0,2.0]", "[null,2.0]", 1);
        let problems = check(&parse(&nulls).unwrap(), THROUGHPUT_RULES);
        assert!(problems.contains(&"series[0].mpps_per_flow_count[0]: not a number".to_string()));
        let triple = minimal_throughput().replacen("[0.9,1.1]", "[0.9,1.0,1.1]", 1);
        let problems = check(&parse(&triple).unwrap(), THROUGHPUT_RULES);
        assert!(problems
            .contains(&"series[0].mpps_ci95_per_flow_count[0]: not a [lo, hi] pair".to_string()));
    }

    #[test]
    fn a_point_outside_its_interval_is_refused() {
        // The `verified` row this file committed before the point and
        // the interval were one statistic: four of its five points lie
        // outside their own intervals; the rule names the first.
        let parent_row = r#""name":"verified","mpps_per_flow_count":[8.340,4.768,4.487,4.243,4.704],"mpps_ci95_per_flow_count":[[8.284,8.434],[5.224,6.372],[4.525,4.931],[4.265,4.550],[5.076,6.288]]"#;
        let doc = format!(r#"{{"series":[{{{parent_row}}}]}}"#);
        let rule = [(
            "series[*].mpps_per_flow_count",
            Rule::Inside("mpps_ci95_per_flow_count"),
        )];
        assert_eq!(
            check(&parse(&doc).unwrap(), &rule),
            ["series[0].mpps_per_flow_count[1]: 4.768 outside its own interval [5.224, 6.372]"]
        );
    }

    #[test]
    fn the_committed_trajectory_files_pass() {
        // The gate: the trajectory file at the workspace root must
        // validate (if this fails, a bench refactor broke it).
        let path = crate::workspace_root().join("BENCH_throughput.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_throughput.json is committed");
        if let Err(e) = validate(&text) {
            panic!("{}: {e}", path.display());
        }
    }
}
