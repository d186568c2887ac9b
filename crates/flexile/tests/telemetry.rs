//! End-to-end telemetry for the decomposition and the online controller,
//! on the Sprint topology (the acceptance scenario of the observability
//! milestone):
//!
//! * a decomposition run with the sink enabled produces a Chrome-trace
//!   file and a JSONL stream whose per-iteration `flexile.bound_gap`
//!   events are monotone non-increasing in the upper bound;
//! * with the sink disabled, the design is bit-identical to the
//!   instrumented run (instrumentation is purely observational);
//! * online degradation paths emit `online.degradation` events.
//!
//! The sink is process-global; tests in this binary serialize on a mutex.

use flexile_core::{solve_flexile, FlexileOptions};
use flexile_lp::fault::{self, FaultInjector, FaultKind};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_traffic::Instance;
use std::sync::Mutex;

static SINK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

/// A small-caps Sprint instance: real topology, trimmed pair/scenario
/// counts so the test stays in tier-1 time budgets.
fn sprint_setup() -> (Instance, ScenarioSet) {
    let topo = flexile_topo::topology_by_name("Sprint").expect("Sprint is in the zoo");
    let probs = flexile_scenario::link_failure_probs(
        topo.num_links(),
        flexile_scenario::weibull::DEFAULT_SHAPE,
        flexile_scenario::weibull::DEFAULT_MEDIAN,
        42,
    );
    let units = link_units(&topo, &probs);
    let set = enumerate_scenarios(
        &units,
        topo.num_links(),
        &EnumOptions { prob_cutoff: 1e-6, max_scenarios: 12, coverage_target: 0.9999 },
    );
    // High target MLU keeps failure scenarios lossy, so the decomposition
    // actually emits cuts instead of terminating on all-perfect scenarios.
    let inst = Instance::single_class(topo, 7, 0.95, Some(6));
    (inst, set)
}

fn design_bits(d: &flexile_core::FlexileDesign) -> (Vec<u64>, u64, Vec<Vec<bool>>, Vec<u64>) {
    (
        d.alpha.iter().map(|v| v.to_bits()).collect(),
        d.penalty.to_bits(),
        d.critical.clone(),
        d.offline_loss.iter().flatten().map(|v| v.to_bits()).collect(),
    )
}

/// Pull `"key":<number>` out of a JSONL line (no full parser needed here;
/// well-formedness is covered by the obs crate's own tests).
fn num_in_line(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn sprint_decomposition_trace_and_bit_identity() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { max_iterations: 2, threads: 4, ..Default::default() };

    // Disabled run IS the uninstrumented baseline.
    let plain = solve_flexile(&inst, &set, &opts);
    assert!(flexile_obs::drain().is_empty(), "disabled mode must not buffer");

    flexile_obs::enable();
    let traced = solve_flexile(&inst, &set, &opts);
    flexile_obs::disable();
    let t = flexile_obs::drain();

    // Bit-identity: the sink never perturbs solver arithmetic.
    assert_eq!(design_bits(&plain), design_bits(&traced));

    // Per-iteration bound-gap events, monotone non-increasing upper bound.
    let uppers: Vec<f64> = t
        .events_named("flexile.bound_gap")
        .map(|e| e.num_field("upper").expect("bound_gap has upper"))
        .collect();
    assert_eq!(uppers.len(), traced.iterations.len(), "one bound_gap per iteration");
    for (e, stat) in t.events_named("flexile.bound_gap").zip(traced.iterations.iter()) {
        assert_eq!(e.num_field("iteration"), Some(stat.iteration as f64));
        assert_eq!(e.num_field("upper"), Some(stat.penalty));
    }
    assert!(
        uppers.windows(2).all(|w| w[1] <= w[0] + 1e-12),
        "upper bound must be monotone non-increasing: {uppers:?}"
    );

    // Same check against the exported JSONL stream (what CI validates).
    let jsonl = t.to_jsonl();
    let stream_uppers: Vec<f64> = jsonl
        .lines()
        .filter(|l| l.contains("\"name\":\"flexile.bound_gap\""))
        .map(|l| num_in_line(l, "upper").expect("upper field in JSONL"))
        .collect();
    assert_eq!(stream_uppers.len(), uppers.len());
    assert!(stream_uppers.windows(2).all(|w| w[1] <= w[0] + 1e-12));

    // Structure: solver spans from worker threads merged into the drain.
    assert!(t.events_named("flexile.solve").next().is_some());
    assert!(t.events_named("flexile.subproblems").count() >= 1);
    assert!(t.events_named("flexile.subproblem").count() >= set.scenarios.len());
    assert!(t.events_named("lp.solve").count() > 0, "lp spans from workers");
    assert!(t.counters.get("flexile.cuts_added").copied().unwrap_or(0) > 0);

    // Artifacts: a loadable Chrome trace and the JSONL stream on disk.
    let dir = std::env::temp_dir();
    let trace_path = dir.join("flexile_sprint_trace.json");
    let jsonl_path = dir.join("flexile_sprint_events.jsonl");
    std::fs::write(&trace_path, t.to_chrome_trace()).expect("write trace");
    std::fs::write(&jsonl_path, &jsonl).expect("write jsonl");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"flexile.bound_gap\""));
    assert!(trace.ends_with('}'));
}

#[test]
fn online_degradation_emits_event() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let scen = &set.scenarios[set.scenarios.len() - 1];
    let critical = vec![false; inst.num_flows()];
    let promised = vec![1.0; inst.num_flows()];

    flexile_obs::enable();
    let (out, _) = fault::with_injector(FaultInjector::always(FaultKind::Numerical), || {
        flexile_core::online_allocate_robust(&inst, scen, &critical, &promised, None)
    });
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(out.level, flexile_core::DegradationLevel::ProportionalShare);
    let ev = t
        .events_named("online.degradation")
        .next()
        .expect("degradation event recorded");
    assert_eq!(
        ev.field("level"),
        Some(&flexile_obs::Value::Str("proportional_share".to_string()))
    );
    assert!(ev.field("error").is_some(), "terminal error is attached");
}
