//! Telemetry integration for the LP solver.
//!
//! The load-bearing guarantee: instrumentation is purely observational, so
//! solver output with the sink *disabled* must be bit-identical to an
//! instrumented run, and the disabled path must not buffer anything.
//!
//! The sink is process-global; tests in this binary serialize on a mutex.

use flexile_lp::{Model, Sense, SimplexOptions};
use std::sync::Mutex;

static SINK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

/// A model that exercises phase 1, bounded variables and a few pivots:
/// min 2x + 3y + z s.t. x+y+z >= 10, x - y <= 2, y+z = 6, bounds.
fn interesting_model() -> Model {
    let mut m = Model::new(Sense::Min);
    let x = m.add_var("x", 0.0, 8.0, 2.0);
    let y = m.add_var("y", 0.0, 5.0, 3.0);
    let z = m.add_var("z", 0.0, 4.0, 1.0);
    m.add_row_ge(&[(x, 1.0), (y, 1.0), (z, 1.0)], 10.0);
    m.add_row_le(&[(x, 1.0), (y, -1.0)], 2.0);
    m.add_row_eq(&[(y, 1.0), (z, 1.0)], 6.0);
    m
}

fn solution_bits(s: &flexile_lp::Solution) -> (Vec<u64>, Vec<u64>, u64, usize) {
    (
        s.x.iter().map(|v| v.to_bits()).collect(),
        s.duals.iter().map(|v| v.to_bits()).collect(),
        s.objective.to_bits(),
        s.iterations,
    )
}

#[test]
fn enabled_sink_leaves_solver_output_bit_identical() {
    let _g = exclusive();
    let m = interesting_model();

    // Disabled run IS the uninstrumented behavior (no obs call does work).
    let plain = m.solve().expect("disabled-mode solve");
    assert!(flexile_obs::drain().is_empty(), "disabled mode must not buffer");

    flexile_obs::enable();
    let traced = m.solve().expect("instrumented solve");
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(solution_bits(&plain), solution_bits(&traced));

    // The instrumented run actually produced telemetry.
    assert!(t.events_named("lp.solve").next().is_some(), "lp.solve span");
    assert!(t.counters.get("lp.pivots.phase2").copied().unwrap_or(0) > 0);
    assert!(t.counters.get("lp.refactorizations").copied().unwrap_or(0) > 0);
    let span = t.events_named("lp.solve").next().unwrap();
    assert_eq!(span.num_field("rows"), Some(3.0));
    assert_eq!(span.num_field("iterations"), Some(traced.iterations as f64));
    assert_eq!(t.hists["lp.solve_us"].count(), 1);
}

#[test]
fn warm_restart_hit_and_rung_events_are_recorded() {
    let _g = exclusive();
    let mut m = Model::new(Sense::Max);
    let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
    let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
    m.add_row_le(&[(x, 1.0)], 4.0);
    let r2 = m.add_row_le(&[(y, 2.0)], 12.0);
    m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);

    flexile_obs::enable();
    let s1 = m.solve().expect("cold solve");
    // Tighten hard enough that the recomputed basic values go infeasible
    // (row-3 forces x past its row-1 slack), exercising the dual restart.
    m.set_rhs(r2, 2.0);
    let _s2 = m
        .solve_with(&flexile_lp::SimplexOptions::default(), Some(&s1.basis))
        .expect("warm solve");
    let out = flexile_lp::solve_robust(&m, &SimplexOptions::default(), None);
    out.result.expect("robust solve");
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(t.counters.get("lp.warm.hit").copied().unwrap_or(0), 1);
    assert_eq!(t.counters.get("lp.dual_restarts").copied().unwrap_or(0), 1);
    // `solve` and `solve_with` settled on their first rung: no event.
    let rungs: Vec<_> = t.events_named("lp.rung").collect();
    assert_eq!(rungs.len(), 1, "clean robust solve = one rung event");
    assert_eq!(
        rungs[0].field("rung"),
        Some(&flexile_obs::Value::Str("warm".to_string()))
    );
    assert_eq!(rungs[0].field("ok"), Some(&flexile_obs::Value::Bool(true)));
    assert!(rungs[0].num_field("iterations").unwrap_or(0.0) > 0.0);
}

#[test]
fn model_solve_emits_rung_events_only_when_it_escalates() {
    use flexile_lp::fault::{self, FaultInjector, FaultKind};
    use flexile_obs::Value;
    let _g = exclusive();
    let mut m = Model::new(Sense::Max);
    let x = m.add_var("x", 0.0, 1.0, 1.0);
    let r = m.add_row_le(&[(x, 1.0)], 1.0);

    flexile_obs::enable();
    // An injected numerical fault on the first rung: the cold-refactor rung
    // answers, and both attempts are reported.
    let (sol, _) =
        fault::with_injector(FaultInjector::new().at(0, FaultKind::Numerical), || m.solve());
    sol.expect("recovered solve");
    // A verdict about the model on the first rung is not a rung failure.
    m.set_rhs(r, -1.0);
    assert!(matches!(m.solve(), Err(flexile_lp::LpError::Infeasible)));
    flexile_obs::disable();
    let t = flexile_obs::drain();

    let rungs: Vec<_> = t
        .events_named("lp.rung")
        .map(|e| (e.field("rung").cloned(), e.field("ok").cloned()))
        .collect();
    assert_eq!(
        rungs,
        [
            (Some(Value::Str("warm".into())), Some(Value::Bool(false))),
            (Some(Value::Str("cold_refactor".into())), Some(Value::Bool(true))),
        ]
    );
}
