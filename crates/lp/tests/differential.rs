//! Differential testing: the sparse LU basis engine against the dense
//! explicit-inverse oracle on randomized bounded LPs, and RHS-only warm
//! restarts against cold solves.
//!
//! Every generated model is feasible by construction (the RHS is derived
//! from a random interior point) and bounded (every variable is boxed), so
//! both engines must return `Ok` and agree on the optimal value. Primal
//! iterates are validated through the model (feasibility within tolerance)
//! rather than componentwise, because degenerate LPs have multiple optimal
//! vertices and the two engines may legitimately pick different ones.

use flexile_lp::{
    solve_robust, Basis, Cmp, EngineKind, LpError, Model, Sense, SimplexOptions, Solution,
    SolveScratch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn opts(engine: EngineKind) -> SimplexOptions {
    SimplexOptions { engine, ..SimplexOptions::default() }
}

/// Solve on `engine` alone. The ladder's rungs 3 and 4 run on the dense
/// oracle, so an attempt that reached them would compare the oracle
/// against itself: only the warm and cold-refactor rungs may answer.
fn solve_on(m: &Model, engine: EngineKind, warm: Option<&Basis>) -> Result<Solution, LpError> {
    let out = solve_robust(m, &opts(engine), warm);
    if let Some(a) = out.report.attempts.iter().find(|a| !a.rung.on_caller_engine()) {
        panic!("{engine:?} solve escalated to rung {:?}: {:?}", a.rung, out.report.attempts);
    }
    out.result
}

/// Random bounded-variable LP, feasible by construction. Returns the model
/// and its row ids (for RHS perturbation).
fn random_lp(seed: u64) -> (Model, Vec<flexile_lp::RowId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(3..14usize);
    let nrows = rng.random_range(2..12usize);
    let sense = if rng.random_range(0..2u32) == 0 { Sense::Min } else { Sense::Max };
    let mut m = Model::new(sense);
    let mut vars = Vec::with_capacity(n);
    let mut interior = Vec::with_capacity(n);
    for j in 0..n {
        let lb = if rng.random_range(0.0..1.0) < 0.3 { rng.random_range(-5.0..0.0) } else { 0.0 };
        let ub = lb + rng.random_range(1.0..10.0);
        let obj = rng.random_range(-5.0..5.0);
        vars.push(m.add_var(&format!("v{j}"), lb, ub, obj));
        // Strictly interior point the row RHS is anchored to.
        interior.push(lb + (ub - lb) * rng.random_range(0.2..0.8));
    }
    let mut rows = Vec::new();
    for _ in 0..nrows {
        let mut coeffs = Vec::new();
        let mut lhs = 0.0;
        for (j, &v) in vars.iter().enumerate() {
            if rng.random_range(0.0..1.0) < 0.45 {
                // 0/1-heavy coefficients mirror the network LPs this solver
                // exists for — and exercise exact cancellation in the LU.
                let c = if rng.random_range(0.0..1.0) < 0.6 {
                    1.0
                } else {
                    rng.random_range(-2.0..2.0)
                };
                if c != 0.0 {
                    coeffs.push((v, c));
                    lhs += c * interior[j];
                }
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        let margin = rng.random_range(0.0..3.0);
        rows.push(match rng.random_range(0..3u32) {
            0 => m.add_row(&coeffs, Cmp::Le, lhs + margin),
            1 => m.add_row(&coeffs, Cmp::Ge, lhs - margin),
            _ => m.add_row(&coeffs, Cmp::Eq, lhs),
        });
    }
    (m, rows)
}

fn assert_engines_agree(m: &Model, seed: u64) -> (Solution, Solution) {
    let dense = solve_on(m, EngineKind::Dense, None);
    let lu = solve_on(m, EngineKind::SparseLu, None);
    let (dense, lu) = match (dense, lu) {
        (Ok(d), Ok(l)) => (d, l),
        (d, l) => panic!("seed {seed}: engines disagree on solvability: dense {d:?} lu {l:?}"),
    };
    let tol = 1e-9 * (1.0 + dense.objective.abs());
    assert!(
        (dense.objective - lu.objective).abs() <= tol,
        "seed {seed}: objective dense {} vs lu {}",
        dense.objective,
        lu.objective
    );
    for (label, sol) in [("dense", &dense), ("lu", &lu)] {
        assert!(
            m.max_violation(&sol.x) <= 1e-7,
            "seed {seed}: {label} solution infeasible by {}",
            m.max_violation(&sol.x)
        );
        let re = m.eval_objective(&sol.x);
        assert!(
            (re - sol.objective).abs() <= 1e-6 * (1.0 + re.abs()),
            "seed {seed}: {label} objective inconsistent with x"
        );
    }
    (dense, lu)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Cold solves: both engines find the same optimal value, and each
    /// engine's primal iterate is feasible for the original model.
    #[test]
    fn engines_agree_on_random_lps(seed in 0u64..100_000) {
        let (m, _) = random_lp(seed);
        assert_engines_agree(&m, seed);
    }

    /// Dual warm restart: solve, perturb every RHS slightly (the
    /// cross-scenario warm-start pattern), re-solve from the previous basis
    /// with both engines. Optimal values must still agree.
    #[test]
    fn engines_agree_after_warm_restart_with_perturbed_rhs(seed in 0u64..100_000) {
        let (mut m, rows) = random_lp(seed);
        let (dense, lu) = assert_engines_agree(&m, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for &r in &rows {
            m.set_rhs(r, m.rhs_of(r) + rng.random_range(-1e-3..1e-3));
        }
        let wd = solve_on(&m, EngineKind::Dense, Some(&dense.basis));
        let wl = solve_on(&m, EngineKind::SparseLu, Some(&lu.basis));
        let (wd, wl) = match (wd, wl) {
            (Ok(d), Ok(l)) => (d, l),
            // A 1e-3 RHS nudge can push a tight model infeasible; that is a
            // property of the instance, not of either engine — but both
            // engines must agree that it happened.
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => return Ok(()),
            (d, l) => panic!("seed {seed}: warm restarts disagree: dense {d:?} lu {l:?}"),
        };
        let tol = 1e-9 * (1.0 + wd.objective.abs());
        prop_assert!(
            (wd.objective - wl.objective).abs() <= tol,
            "seed {seed}: warm objective dense {} vs lu {}",
            wd.objective,
            wl.objective
        );
        prop_assert!(m.max_violation(&wl.x) <= 1e-7);
    }

    /// RHS-only restart against a cold solve after random RHS changes of
    /// any size: whether the restart repairs the basis with dual pivots or
    /// is abandoned past its pivot cap for a cold solve, it must reach the
    /// cold optimum.
    #[test]
    fn rhs_restart_matches_cold_solve_after_random_rhs_change(seed in 0u64..100_000) {
        let (mut m, rows) = random_lp(seed);
        let lu = opts(EngineKind::SparseLu);
        let first = solve_on(&m, EngineKind::SparseLu, None).expect("feasible by construction");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xca9);
        let scale = [1e-3, 0.1, 1.0, 3.0][rng.random_range(0..4usize)];
        for &r in &rows {
            if rng.random_range(0.0..1.0) < 0.7 {
                m.set_rhs(r, m.rhs_of(r) + scale * rng.random_range(-1.0..1.0));
            }
        }
        let warm = m.solve_rhs_restart(&lu, &first.basis, &mut SolveScratch::new());
        let cold = solve_on(&m, EngineKind::SparseLu, None);
        let (warm, cold) = match (warm, cold) {
            (Ok((w, _)), Ok(c)) => (w, c),
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => return Ok(()),
            (w, c) => panic!("seed {seed}: restart {w:?} vs cold {c:?}"),
        };
        let tol = 1e-9 * (1.0 + cold.objective.abs());
        prop_assert!(
            (warm.objective - cold.objective).abs() <= tol,
            "seed {seed}: restart objective {} vs cold {}",
            warm.objective,
            cold.objective
        );
        prop_assert!(m.max_violation(&warm.x) <= 1e-7);
    }
}

/// The tier-1 fixture LPs solved by both engines, compared componentwise —
/// these have unique optima, so `x` and the duals must match, not just the
/// objective.
#[test]
fn engines_agree_on_fixture_lps() {
    let mut fixtures: Vec<Model> = Vec::new();

    // max x + 2y  s.t.  x + y <= 4, y <= 3  (the crate doc example).
    let mut m = Model::new(Sense::Max);
    let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
    m.add_row_le(&[(x, 1.0), (y, 1.0)], 4.0);
    m.add_row_le(&[(y, 1.0)], 3.0);
    fixtures.push(m);

    // Degenerate-ish transport LP with equality rows (phase-1 heavy).
    let mut m = Model::new(Sense::Min);
    let f: Vec<_> = (0..6)
        .map(|i| m.add_var(&format!("f{i}"), 0.0, 20.0, 1.0 + (i as f64) * 0.31))
        .collect();
    m.add_row_eq(&[(f[0], 1.0), (f[1], 1.0), (f[2], 1.0)], 10.0);
    m.add_row_eq(&[(f[3], 1.0), (f[4], 1.0), (f[5], 1.0)], 8.0);
    m.add_row_le(&[(f[0], 1.0), (f[3], 1.0)], 6.0);
    m.add_row_le(&[(f[1], 1.0), (f[4], 1.0)], 7.0);
    m.add_row_le(&[(f[2], 1.0), (f[5], 1.0)], 9.0);
    fixtures.push(m);

    // Mini min-MLU shape: equality demand rows + arc rows with a shared
    // dense `mlu` column.
    let mut m = Model::new(Sense::Min);
    let mlu = m.add_var("mlu", 0.0, f64::INFINITY, 1.0);
    let t: Vec<_> = (0..4).map(|i| m.add_var(&format!("t{i}"), 0.0, f64::INFINITY, 0.0)).collect();
    m.add_row_eq(&[(t[0], 1.0), (t[1], 1.0)], 3.0);
    m.add_row_eq(&[(t[2], 1.0), (t[3], 1.0)], 2.0);
    m.add_row_le(&[(t[0], 1.0), (t[2], 1.0), (mlu, -4.0)], 0.0);
    m.add_row_le(&[(t[1], 1.0), (t[3], 1.0), (mlu, -5.0)], 0.0);
    fixtures.push(m);

    for (k, m) in fixtures.iter().enumerate() {
        let d = solve_on(m, EngineKind::Dense, None).unwrap();
        let l = solve_on(m, EngineKind::SparseLu, None).unwrap();
        assert!(
            (d.objective - l.objective).abs() <= 1e-9,
            "fixture {k}: objective {} vs {}",
            d.objective,
            l.objective
        );
        for j in 0..m.num_vars() {
            assert!(
                (d.x[j] - l.x[j]).abs() <= 1e-9,
                "fixture {k} var {j}: {} vs {}",
                d.x[j],
                l.x[j]
            );
        }
        for i in 0..m.num_rows() {
            assert!(
                (d.duals[i] - l.duals[i]).abs() <= 1e-9,
                "fixture {k} dual {i}: {} vs {}",
                d.duals[i],
                l.duals[i]
            );
        }
    }
}
