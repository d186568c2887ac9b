//! Stress and cross-validation tests for the LP/MIP solver: random models
//! checked against brute force, classic hard cases, and the lazy-row
//! driver under adversarial oracles.

use flexile_lp::{solve_mip, solve_with_rowgen, MipOptions, MipStatus, Model, RowGenOptions, RowSpec, Sense};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random bounded LP feasibility/optimality check: every returned solution
/// must be feasible, and no corner of a coarse sample grid may beat it.
#[test]
fn random_lps_beat_sampled_points() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..40 {
        let n = rng.random_range(2..5);
        let mut m = Model::new(Sense::Max);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(&format!("x{i}"), 0.0, rng.random_range(1.0..4.0), rng.random_range(-1.0..3.0)))
            .collect();
        let nrows = rng.random_range(1..4);
        for _ in 0..nrows {
            let mut coeffs: Vec<(flexile_lp::VarId, f64)> = Vec::new();
            for &v in &vars {
                if rng.random_range(0.0..1.0) > 0.3 {
                    coeffs.push((v, rng.random_range(0.2..2.0)));
                }
            }
            if coeffs.is_empty() {
                continue;
            }
            m.add_row_le(&coeffs, rng.random_range(1.0..5.0));
        }
        let sol = m.solve().unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert!(m.max_violation(&sol.x) < 1e-6, "trial {trial} infeasible");
        // Random feasible samples must not beat the optimum.
        for _ in 0..200 {
            let x: Vec<f64> = (0..n).map(|j| rng.random_range(0.0..1.0) * m.bounds(vars[j]).1).collect();
            if m.max_violation(&x) < 1e-9 {
                let obj = m.eval_objective(&x);
                assert!(
                    obj <= sol.objective + 1e-6,
                    "trial {trial}: sampled {obj} beats optimum {}",
                    sol.objective
                );
            }
        }
    }
}

/// Random binary MIPs checked against exhaustive enumeration.
#[test]
fn random_mips_match_bruteforce() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..25 {
        let n = rng.random_range(2..7usize);
        let mut m = Model::new(Sense::Max);
        let costs: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..5.0)).collect();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_binary(&format!("b{i}"), c))
            .collect();
        let w: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..3.0)).collect();
        let cap = rng.random_range(1.0..6.0);
        let coeffs: Vec<_> = vars.iter().zip(w.iter()).map(|(&v, &wi)| (v, wi)).collect();
        m.add_row_le(&coeffs, cap);
        let r = solve_mip(&m, &MipOptions::default()).unwrap();
        assert_eq!(r.status, MipStatus::Optimal, "trial {trial}");
        // Brute force.
        let mut best = f64::NEG_INFINITY;
        for mask in 0..(1u32 << n) {
            let weight: f64 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| w[i]).sum();
            if weight <= cap + 1e-12 {
                let val: f64 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| costs[i]).sum();
                best = best.max(val);
            }
        }
        assert!(
            (r.objective - best).abs() < 1e-6,
            "trial {trial}: mip {} vs brute force {best}",
            r.objective
        );
    }
}

/// The classic Klee–Minty-flavored worst case still terminates quickly at
/// this size and returns the known optimum.
#[test]
fn klee_minty_cube() {
    let n = 8;
    let mut m = Model::new(Sense::Max);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(&format!("x{i}"), 0.0, f64::INFINITY, 2f64.powi((n - 1 - i) as i32)))
        .collect();
    for i in 0..n {
        let mut coeffs = Vec::new();
        for (j, &v) in vars.iter().enumerate().take(i) {
            coeffs.push((v, 2f64.powi((i - j) as i32 + 1)));
        }
        coeffs.push((vars[i], 1.0));
        m.add_row_le(&coeffs, 5f64.powi(i as i32 + 1));
    }
    let sol = m.solve().unwrap();
    assert!((sol.objective - 5f64.powi(n as i32)).abs() / 5f64.powi(n as i32) < 1e-9);
}

/// Degenerate transportation problem with many ties.
#[test]
fn degenerate_assignment() {
    let n = 6;
    let mut m = Model::new(Sense::Min);
    let mut vars = Vec::new();
    for i in 0..n {
        for j in 0..n {
            vars.push(m.add_var(&format!("x{i}{j}"), 0.0, 1.0, ((i + j) % 3) as f64));
        }
    }
    for i in 0..n {
        let coeffs: Vec<_> = (0..n).map(|j| (vars[i * n + j], 1.0)).collect();
        m.add_row_eq(&coeffs, 1.0);
    }
    for j in 0..n {
        let coeffs: Vec<_> = (0..n).map(|i| (vars[i * n + j], 1.0)).collect();
        m.add_row_eq(&coeffs, 1.0);
    }
    let sol = m.solve().unwrap();
    // All-zero-cost assignment exists: pick j = (3 - i) mod 3 pattern.
    assert!(sol.objective < 1e-9, "objective {}", sol.objective);
}

/// Lazy rows against an oracle that reveals many constraints gradually.
#[test]
fn rowgen_converges_on_polytope_approximation() {
    // Approximate the disc x² + y² <= 1 by tangent cuts; maximize x + y.
    let mut m = Model::new(Sense::Max);
    let x = m.add_var("x", -2.0, 2.0, 1.0);
    let y = m.add_var("y", -2.0, 2.0, 1.0);
    let res = solve_with_rowgen(
        &mut m,
        &RowGenOptions { max_rounds: 100, rows_per_round: 0 },
        |sol| {
            let (vx, vy) = (sol.x[0], sol.x[1]);
            let norm = (vx * vx + vy * vy).sqrt();
            if norm > 1.0 + 1e-7 {
                // Tangent at the projection: (vx/n) x + (vy/n) y <= 1.
                vec![RowSpec::le(vec![(x, vx / norm), (y, vy / norm)], 1.0)]
            } else {
                Vec::new()
            }
        },
    )
    .unwrap();
    assert!(res.converged);
    let expect = 2f64.sqrt();
    assert!(
        (res.solution.objective - expect).abs() < 1e-4,
        "objective {} vs sqrt(2)",
        res.solution.objective
    );
}

/// Warm starts across objective changes give the same optimum.
#[test]
fn warm_start_objective_change() {
    let mut m = Model::new(Sense::Max);
    let x = m.add_var("x", 0.0, 10.0, 1.0);
    let y = m.add_var("y", 0.0, 10.0, 1.0);
    m.add_row_le(&[(x, 1.0), (y, 2.0)], 14.0);
    m.add_row_le(&[(x, 3.0), (y, 1.0)], 18.0);
    let s1 = m.solve().unwrap();
    m.set_obj(x, 5.0);
    let warm = m
        .solve_with(&flexile_lp::SimplexOptions::default(), Some(&s1.basis))
        .unwrap();
    let cold = m.solve().unwrap();
    assert!((warm.objective - cold.objective).abs() < 1e-8);
}

/// Infeasible MIP subtree handling: branching into emptiness terminates.
#[test]
fn mip_with_conflicting_parity() {
    // b1 + b2 + b3 = 2 and b1 = b2 = b3 (all equal) has no 0/1 solution.
    let mut m = Model::new(Sense::Max);
    let b: Vec<_> = (0..3).map(|i| m.add_binary(&format!("b{i}"), 1.0)).collect();
    m.add_row_eq(&[(b[0], 1.0), (b[1], 1.0), (b[2], 1.0)], 2.0);
    m.add_row_eq(&[(b[0], 1.0), (b[1], -1.0)], 0.0);
    m.add_row_eq(&[(b[1], 1.0), (b[2], -1.0)], 0.0);
    let r = solve_mip(&m, &MipOptions::default()).unwrap();
    assert_eq!(r.status, MipStatus::Infeasible);
}
