//! Terminal error paths: every failure mode must surface as the right
//! `LpError` variant through both `Model::solve` and `solve_robust`,
//! and must never panic.

use flexile_lp::fault::{self, FaultInjector, FaultKind};
use flexile_lp::{solve_robust, LpError, Model, Sense, SimplexOptions};

/// max x + y s.t. x + y <= 10 — bounded, feasible.
fn healthy_model() -> Model {
    let mut m = Model::new(Sense::Max);
    let x = m.add_var("x", 0.0, 8.0, 1.0);
    let y = m.add_var("y", 0.0, 8.0, 1.0);
    m.add_row_le(&[(x, 1.0), (y, 1.0)], 10.0);
    m
}

#[test]
fn infeasible_model_reports_infeasible() {
    let mut m = Model::new(Sense::Min);
    let x = m.add_var("x", 0.0, 5.0, 1.0);
    let y = m.add_var("y", 0.0, 5.0, 1.0);
    m.add_row_ge(&[(x, 1.0), (y, 1.0)], 20.0);
    assert!(matches!(m.solve(), Err(LpError::Infeasible)));
}

#[test]
fn unbounded_model_reports_unbounded() {
    let mut m = Model::new(Sense::Max);
    let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
    m.add_row_ge(&[(x, 1.0), (y, -1.0)], 0.0);
    assert!(matches!(m.solve(), Err(LpError::Unbounded)));
}

#[test]
fn tiny_iteration_cap_reports_iteration_limit() {
    // Enough structure that one pivot cannot finish.
    let mut m = Model::new(Sense::Max);
    let vars: Vec<_> =
        (0..20).map(|i| m.add_var(&format!("x{i}"), 0.0, 1.0, 1.0 + i as f64)).collect();
    for w in vars.windows(2) {
        m.add_row_le(&[(w[0], 1.0), (w[1], 1.0)], 1.0);
    }
    let opts = SimplexOptions { max_iters: 1, ..Default::default() };
    assert!(matches!(m.solve_with(&opts, None), Err(LpError::IterationLimit)));
}

#[test]
fn injected_deadline_is_terminal_through_solve_and_ladder() {
    let m = healthy_model();
    // Deadline exhaustion is terminal: no pointless escalation, through
    // either entry point.
    let (res, used) =
        fault::with_injector(FaultInjector::always(FaultKind::DeadlineExceeded), || m.solve());
    assert!(matches!(res, Err(LpError::DeadlineExceeded)));
    assert_eq!(used.calls(), 1);
    let (out, _) =
        fault::with_injector(FaultInjector::always(FaultKind::DeadlineExceeded), || {
            solve_robust(&m, &SimplexOptions::default(), None)
        });
    assert!(matches!(out.result, Err(LpError::DeadlineExceeded)));
    assert_eq!(out.report.attempts.len(), 1);
}

#[test]
fn injected_numerical_surfaces_right_variant_through_solve() {
    let m = healthy_model();
    // Model::solve is the escalation ladder; fault every attempt. A failing
    // perturb rung polls once (its clean-up solve never runs).
    let (res, used) = fault::with_injector(FaultInjector::always(FaultKind::Numerical), || {
        m.solve()
    });
    assert!(matches!(res, Err(LpError::Numerical(_))));
    assert_eq!(used.calls(), 4, "solve() is the four-rung ladder");
}

#[test]
fn injected_singular_basis_never_panics() {
    let m = healthy_model();
    for idx in 0..4 {
        let inj = FaultInjector::new().at(idx, FaultKind::SingularBasis);
        let (out, _) = fault::with_injector(inj, || {
            solve_robust(&m, &SimplexOptions::default(), None)
        });
        // A single fault anywhere in the ladder is always absorbed.
        let sol = out.result.expect("one fault must be recoverable");
        assert!((sol.objective - 10.0).abs() < 1e-6);
    }
}

#[test]
fn every_fault_kind_surfaces_as_its_error_through_solve() {
    let m = healthy_model();
    for kind in FaultKind::ALL {
        let (res, _) = fault::with_injector(FaultInjector::always(kind), || m.solve());
        let err = res.expect_err("always-faulting solve cannot succeed");
        assert_eq!(
            std::mem::discriminant(&err),
            std::mem::discriminant(&kind.to_error()),
            "fault {kind:?} surfaced as {err:?}"
        );
    }
}
