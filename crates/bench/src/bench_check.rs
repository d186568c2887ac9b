//! `bench-check`: the perf-regression guard over committed BENCH records.
//!
//! A `BENCH_<exp>.json` perf record (written by `repro --obs`) carries
//! the run's identity (experiment, seed, scenario cap, threads), its
//! solver counters, and — for the `slo` experiment — the reaction-latency
//! percentiles. Records whose counters are *deterministic* functions of
//! the identity (LP pivot counts, Benders cut counts, warm-start hits)
//! make a byte-stable perf trajectory: commit one record per experiment,
//! and any code change that silently makes the solver work harder shows
//! up as a counter diff long before it shows up as wall time.
//!
//! [`run_bench_check`] walks every committed `BENCH_*.json` in the
//! baseline directory, pairs it with the same-named record from the
//! current run's `--obs` directory, and fails (exit 1) if
//!
//! * any deterministic counter grew beyond `tolerance` (default 10%),
//!   or appeared/disappeared entirely, or
//! * the SLO record's measured `p99_us` exceeds the committed
//!   `budget_us` (wall clock is non-deterministic, so the gate is the
//!   budget, not the baseline's own percentile).
//!
//! Records whose identity fields differ (e.g. a baseline committed at
//! different flags) are skipped with a visible note rather than
//! miscompared. Counters that are timing- or scheduling-dependent
//! (steal counts, wait histograms) are never compared.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Counters that are deterministic functions of (seed, caps, threads)
/// under the default unlimited solve budget. Anything not listed is
/// ignored — in particular `flexile.steal`, wait histograms and wall
/// times, which depend on scheduling.
const DETERMINISTIC_COUNTERS: &[&str] = &[
    "lp.pivots.phase1",
    "lp.pivots.phase2",
    "lp.pivots.dual",
    "lp.bland_activations",
    "lp.refactorizations",
    "lp.dual_restarts",
    "lp.restart_abandoned",
    "lp.pricing_candidates",
    "lp.pricing_rescans",
    "lp.presolve_removed_cols",
    "lp.presolve_removed_rows",
    "lp.crash_basis_pivots_saved",
    "lp.devex_updates",
    "lp.dual_bound_flips",
    "lp.batch_solves",
    "lp.batch_divergences",
    "flexile.batch_dispatch",
    "flexile.cuts_added",
    "flexile.scenarios_retried",
    "flexile.scenario_warm_hit",
    "flexile.dual_restart",
    // Distributed substrate: deterministic functions of the armed fault
    // matrix. `flexile.dist_retry` and `flexile.dist_stale_result` are
    // timing-dependent (a straggler may or may not race its reaper) and
    // deliberately absent.
    "flexile.dist_workers_spawned",
    "flexile.dist_worker_dead",
    "flexile.dist_worker_restart",
    "flexile.dist_worker_quarantined",
    "flexile.dist_heartbeat_stall",
    "flexile.dist_reassigned",
    "flexile.dist_frame_corrupt",
    "flexile.dist_fallback",
    "flexile.dist_handshake_reject",
    "emu.chaos_steps",
];

/// Identity fields two records must share to be comparable.
const IDENTITY_FIELDS: &[&str] = &["experiment", "seed", "max_scenarios", "threads"];

// ---------------------------------------------------------------------------
// Minimal JSON reader (the perf records are machine-written, but parse
// defensively: a malformed record is a failure, not a panic).
// ---------------------------------------------------------------------------

/// A parsed JSON value; just enough structure for the perf records.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // the variants are the JSON grammar itself
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(a) => write!(f, "[{} items]", a.len()),
            Json::Obj(m) => write!(f, "{{{} keys}}", m.len()),
        }
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, i);
    if *i < b.len() && b[*i] == c {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, i))
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, i);
                let k = parse_string(b, i)?;
                expect(b, i, b':')?;
                m.insert(k, parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut a = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(a));
            }
            loop {
                a.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(a));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, i)?)),
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < b.len()
                && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    // Accumulate raw bytes so multi-byte UTF-8 passes through untouched.
    let mut s = Vec::new();
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return String::from_utf8(s).map_err(|e| e.to_string()),
            b'\\' => {
                let e = *b.get(*i).ok_or("unterminated escape")?;
                *i += 1;
                match e {
                    b'"' => s.push(b'"'),
                    b'\\' => s.push(b'\\'),
                    b'/' => s.push(b'/'),
                    b'n' => s.push(b'\n'),
                    b't' => s.push(b'\t'),
                    b'r' => s.push(b'\r'),
                    b'b' => s.push(8),
                    b'f' => s.push(12),
                    b'u' => {
                        let hex = b
                            .get(*i..*i + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *i += 4;
                        let mut buf = [0u8; 4];
                        s.extend_from_slice(
                            char::from_u32(cp).unwrap_or('\u{fffd}').encode_utf8(&mut buf).as_bytes(),
                        );
                    }
                    _ => return Err(format!("bad escape \\{}", e as char)),
                }
            }
            _ => s.push(c),
        }
    }
    Err("unterminated string".into())
}

// ---------------------------------------------------------------------------
// The check itself
// ---------------------------------------------------------------------------

/// Outcome of comparing one committed record against the current run.
#[derive(Debug, PartialEq)]
pub enum RecordVerdict {
    /// All compared counters within tolerance (and the SLO within budget).
    Pass,
    /// Identity fields differ; nothing compared.
    Skipped(String),
    /// At least one regression; messages describe each.
    Failed(Vec<String>),
}

/// Compare a committed baseline record against the current record.
/// `tolerance` is the allowed fractional growth per counter (0.10 = 10%).
pub fn compare_records(baseline: &Json, current: &Json, tolerance: f64) -> RecordVerdict {
    for f in IDENTITY_FIELDS {
        let (b, c) = (baseline.get(f), current.get(f));
        if b != c {
            return RecordVerdict::Skipped(format!(
                "{f}: baseline {} vs current {}",
                b.map_or("missing".to_string(), |v| v.to_string()),
                c.map_or("missing".to_string(), |v| v.to_string()),
            ));
        }
    }
    let mut failures = Vec::new();
    for name in DETERMINISTIC_COUNTERS {
        let b = baseline.get("counters").and_then(|c| c.get(name)).and_then(Json::as_f64);
        let c = current.get("counters").and_then(|c| c.get(name)).and_then(Json::as_f64);
        match (b, c) {
            (Some(b), Some(c)) if c > b * (1.0 + tolerance) => {
                failures.push(format!(
                    "{name}: {c:.0} exceeds baseline {b:.0} by more than {:.0}%",
                    tolerance * 100.0
                ));
            }
            (Some(b), None) if b > 0.0 => {
                failures.push(format!("{name}: present in baseline ({b:.0}), missing now"));
            }
            _ => {} // absent in baseline (or zero): nothing to gate on
        }
    }
    // SLO gate: measured p99 against the *committed* budget. The budget is
    // part of the baseline so loosening it is a reviewed diff.
    if let Some(budget) =
        baseline.get("slo").and_then(|s| s.get("budget_us")).and_then(Json::as_f64)
    {
        match current.get("slo").and_then(|s| s.get("p99_us")).and_then(Json::as_f64) {
            Some(p99) if p99 > budget => {
                failures.push(format!("slo: p99 reaction {p99:.0}us exceeds budget {budget:.0}us"));
            }
            Some(_) => {}
            None => failures.push("slo: baseline has an SLO record, current run has none".into()),
        }
    }
    if failures.is_empty() {
        RecordVerdict::Pass
    } else {
        RecordVerdict::Failed(failures)
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Walk every committed `BENCH_*.json` in `baseline_dir` (trace/event
/// artifacts excluded), pair with the current run's record in `obs_dir`,
/// and report. Returns the process exit code: 0 = all pass (or nothing
/// to compare — an empty baseline set is not a failure, it is the state
/// before the first record lands), 1 = regression, 2 = usage/IO error.
pub fn run_bench_check(obs_dir: &Path, baseline_dir: &Path, tolerance: f64) -> u8 {
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| {
                n.starts_with("BENCH_")
                    && n.ends_with(".json")
                    && !n.ends_with("_trace.json")
            })
            .collect(),
        Err(e) => {
            eprintln!("bench-check: reading {}: {e}", baseline_dir.display());
            return 2;
        }
    };
    names.sort();
    if names.is_empty() {
        println!("bench-check: no committed BENCH_*.json in {}", baseline_dir.display());
        return 0;
    }

    let mut failed = false;
    let mut compared = 0usize;
    for name in &names {
        let baseline = match load(&baseline_dir.join(name)) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("bench-check: FAIL {name}: {e}");
                failed = true;
                continue;
            }
        };
        let cur_path = obs_dir.join(name);
        if !cur_path.exists() {
            println!("bench-check: skip {name}: no current record in {}", obs_dir.display());
            continue;
        }
        let current = match load(&cur_path) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("bench-check: FAIL {name}: {e}");
                failed = true;
                continue;
            }
        };
        match compare_records(&baseline, &current, tolerance) {
            RecordVerdict::Pass => {
                compared += 1;
                println!("bench-check: OK   {name}");
            }
            RecordVerdict::Skipped(why) => {
                println!("bench-check: skip {name}: identity mismatch ({why})");
            }
            RecordVerdict::Failed(msgs) => {
                failed = true;
                for m in &msgs {
                    eprintln!("bench-check: FAIL {name}: {m}");
                }
            }
        }
    }
    println!(
        "bench-check: {} committed record(s), {compared} compared, tolerance {:.0}%",
        names.len(),
        tolerance * 100.0
    );
    u8::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pivots: u64, p99: u64) -> Json {
        Json::parse(&format!(
            "{{\"experiment\":\"slo\",\"seed\":7,\"max_scenarios\":16,\"threads\":4,\
             \"counters\":{{\"lp.pivots.phase2\":{pivots},\"flexile.steal\":999}},\
             \"slo\":{{\"p50_us\":10,\"p99_us\":{p99},\"budget_us\":5000000}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn parser_roundtrips_a_perf_record() {
        let j = record(1000, 100);
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            j.get("counters").and_then(|c| c.get("lp.pivots.phase2")).and_then(Json::as_f64),
            Some(1000.0)
        );
        assert!(Json::parse("{\"x\":[1,2,null,true,\"a\\nb\"]}").is_ok());
        assert!(Json::parse("{\"x\":}").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn identical_records_pass() {
        let v = compare_records(&record(1000, 100), &record(1000, 200), 0.10);
        assert_eq!(v, RecordVerdict::Pass);
    }

    #[test]
    fn growth_within_tolerance_passes_beyond_fails() {
        assert_eq!(compare_records(&record(1000, 1), &record(1099, 1), 0.10), RecordVerdict::Pass);
        match compare_records(&record(1000, 1), &record(1200, 1), 0.10) {
            RecordVerdict::Failed(msgs) => assert!(msgs[0].contains("lp.pivots.phase2")),
            v => panic!("expected failure, got {v:?}"),
        }
    }

    #[test]
    fn nondeterministic_counters_are_ignored() {
        let mut cur = record(1000, 1);
        if let Json::Obj(m) = &mut cur {
            if let Some(Json::Obj(c)) = m.get_mut("counters") {
                c.insert("flexile.steal".into(), Json::Num(1e12));
            }
        }
        assert_eq!(compare_records(&record(1000, 1), &cur, 0.10), RecordVerdict::Pass);
    }

    #[test]
    fn slo_budget_gates_p99() {
        match compare_records(&record(1000, 1), &record(1000, 6_000_000), 0.10) {
            RecordVerdict::Failed(msgs) => assert!(msgs[0].contains("budget")),
            v => panic!("expected SLO failure, got {v:?}"),
        }
    }

    #[test]
    fn identity_mismatch_skips() {
        let mut cur = record(5000, 1);
        if let Json::Obj(m) = &mut cur {
            m.insert("seed".into(), Json::Num(8.0));
        }
        assert!(matches!(
            compare_records(&record(1000, 1), &cur, 0.10),
            RecordVerdict::Skipped(_)
        ));
    }
}
