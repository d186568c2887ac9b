//! Differential testing for the cold-start accelerators: presolve on vs
//! off on randomized bounded LPs. (Devex vs Dantzig pricing is a rung
//! setting, so its differential test is a unit test in `simplex.rs`.)
//!
//! Every generated model is feasible by construction (the RHS is derived
//! from a random interior point) and bounded (every variable is boxed), so
//! every configuration must return `Ok` and agree on the optimal value.
//! Primal iterates are validated through the model (feasibility within
//! tolerance) rather than componentwise, because degenerate LPs have
//! multiple optimal vertices and different pivot orders may legitimately
//! pick different ones. Duals are validated by KKT conditions against the
//! *full* model — the exactness contract of the postsolve — not by
//! comparison against the presolve-off dual vector, which need not be
//! unique either.

use flexile_lp::{Cmp, LpError, Model, Sense, SimplexOptions, Solution};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random bounded-variable LP, feasible by construction, biased toward the
/// structures presolve targets: fixed columns, singleton rows, and
/// all-positive `≤` capacity-style rows over boxed columns.
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
        // ~15% fixed columns: the branch-and-bound pattern presolve's
        // fixed-column elimination exists for.
        let ub = if rng.random_range(0.0..1.0) < 0.15 {
            lb
        } else {
            lb + rng.random_range(1.0..10.0)
        };
        let obj = rng.random_range(-5.0..5.0);
        vars.push(m.add_var(&format!("v{j}"), lb, ub, obj));
        interior.push(lb + (ub - lb) * rng.random_range(0.2..0.8));
    }
    let mut rows = Vec::new();
    for _ in 0..nrows {
        // ~25% singleton rows (they become bounds in presolve).
        if rng.random_range(0.0..1.0) < 0.25 {
            let j = rng.random_range(0..n);
            let c = if rng.random_range(0..2u32) == 0 { 1.0 } else { rng.random_range(0.5..2.0) };
            let lhs = c * interior[j];
            let margin = rng.random_range(0.1..3.0);
            rows.push(if rng.random_range(0..2u32) == 0 {
                m.add_row(&[(vars[j], c)], Cmp::Le, lhs + margin)
            } else {
                m.add_row(&[(vars[j], c)], Cmp::Ge, lhs - margin)
            });
            continue;
        }
        let mut coeffs = Vec::new();
        let mut lhs = 0.0;
        // ~40% all-positive rows: the capacity pattern bound tightening
        // keys on.
        let all_pos = rng.random_range(0.0..1.0) < 0.4;
        for (j, &v) in vars.iter().enumerate() {
            if rng.random_range(0.0..1.0) < 0.45 {
                let c = if all_pos || rng.random_range(0.0..1.0) < 0.6 {
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

/// Full-space KKT check of a solution: primal feasibility, dual sign
/// feasibility per row sense, and stationarity of every column.
fn assert_kkt(m: &Model, sol: &Solution, label: &str, seed: u64) {
    assert!(
        m.max_violation(&sol.x) <= 1e-6,
        "seed {seed}: {label} primal violation {}",
        m.max_violation(&sol.x)
    );
    let sign = match m.sense() {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };
    for i in 0..m.num_rows() {
        let y_min = sign * sol.duals[i];
        match m.row_sense(i) {
            Cmp::Le => assert!(y_min <= 1e-6, "seed {seed}: {label} row {i} dual sign {y_min}"),
            Cmp::Ge => assert!(y_min >= -1e-6, "seed {seed}: {label} row {i} dual sign {y_min}"),
            Cmp::Eq => {}
        }
    }
    for j in 0..m.num_vars() {
        let (lb, ub) = m.var_bounds(j);
        let mut d = sign * m.objective_coeff(j);
        for (i, a) in m.col_entries(j) {
            d -= a * sign * sol.duals[i];
        }
        let xj = sol.x[j];
        let at_lb = lb.is_finite() && (xj - lb).abs() <= 1e-6;
        let at_ub = ub.is_finite() && (xj - ub).abs() <= 1e-6;
        if at_lb && !at_ub {
            assert!(d >= -1e-5, "seed {seed}: {label} col {j} at lb needs d >= 0, got {d}");
        } else if at_ub && !at_lb {
            assert!(d <= 1e-5, "seed {seed}: {label} col {j} at ub needs d <= 0, got {d}");
        } else if !at_lb && !at_ub {
            assert!(d.abs() <= 1e-5, "seed {seed}: {label} interior col {j} needs d = 0, got {d}");
        }
    }
}

fn solve_pair(m: &Model, a: &SimplexOptions, b: &SimplexOptions, seed: u64) -> (Solution, Solution) {
    let sa = m.solve_with(a, None);
    let sb = m.solve_with(b, None);
    let (sa, sb) = match (sa, sb) {
        (Ok(x), Ok(y)) => (x, y),
        (x, y) => panic!("seed {seed}: configs disagree on solvability: {x:?} vs {y:?}"),
    };
    let tol = 1e-9 * (1.0 + sa.objective.abs());
    assert!(
        (sa.objective - sb.objective).abs() <= tol,
        "seed {seed}: objective {} vs {}",
        sa.objective,
        sb.objective
    );
    (sa, sb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Presolve on vs off: same optimal value, both primal feasible, and
    /// the postsolved duals satisfy full-space KKT exactly.
    #[test]
    fn presolve_matches_direct_solve(seed in 0u64..100_000) {
        let (m, _) = random_lp(seed);
        let on = SimplexOptions::default();
        let off = SimplexOptions { presolve: false, ..Default::default() };
        let (son, soff) = solve_pair(&m, &on, &off, seed);
        assert_kkt(&m, &son, "presolve-on", seed);
        assert_kkt(&m, &soff, "presolve-off", seed);
    }

    /// The basis returned by a presolved solve must warm-start a
    /// presolve-off re-solve of the *full* model after an RHS nudge — the
    /// postsolve's warm-basis contract.
    #[test]
    fn presolved_basis_warm_starts_after_rhs_change(seed in 0u64..100_000) {
        let (mut m, rows) = random_lp(seed);
        let s1 = match m.solve_with(&SimplexOptions::default(), None) {
            Ok(s) => s,
            Err(LpError::Infeasible | LpError::Unbounded) => return Ok(()),
            Err(e) => panic!("seed {seed}: {e:?}"),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        for &r in &rows {
            m.set_rhs(r, m.rhs_of(r) + rng.random_range(-1e-4..1e-4));
        }
        let off = SimplexOptions { presolve: false, ..Default::default() };
        let warm = match m.solve_with(&off, Some(&s1.basis)) {
            Ok(s) => s,
            Err(LpError::Infeasible) => return Ok(()), // nudge may cut off the box
            Err(e) => panic!("seed {seed}: warm restart failed: {e:?}"),
        };
        let cold = m.solve_with(&off, None).expect("cold reference");
        let tol = 1e-8 * (1.0 + cold.objective.abs());
        prop_assert!(
            (warm.objective - cold.objective).abs() <= tol,
            "seed {seed}: warm {} vs cold {}", warm.objective, cold.objective
        );
    }
}
