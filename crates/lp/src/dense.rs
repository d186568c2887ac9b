//! The explicit dense basis inverse: the test oracle for the sparse LU
//! engine.
//!
//! [`DenseEngine`] keeps `B⁻¹` as a dense matrix ([`DenseMat`]):
//! Gauss–Jordan refactorization and dense rank-1 eta updates, O(m²) per
//! pivot, but simple and numerically transparent. No solve uses it outside
//! tests. [`with_dense_oracle`] runs a closure with every simplex attempt
//! on this thread, every rung of [`crate::solve_robust`] included, on the
//! dense engine, so a test can solve one model on both engines and compare.
//!
//! The engines are numerically interchangeable (the differential suite
//! below pins them to ≤1e-9 of each other) but not bit-equal: pivot order
//! inside the factorization differs, so iterate trajectories can diverge on
//! degenerate ties.

use crate::basis::{singular, tiny_eta, BasisEngine, ETA_PIVOT_TOL};
use crate::error::LpError;
use crate::sparse::{ColSource, SparseCol};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's attempts run on [`DenseEngine`].
    static DENSE_ORACLE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every simplex attempt on this thread on the dense oracle.
pub(crate) fn with_dense_oracle<T>(f: impl FnOnce() -> T) -> T {
    DENSE_ORACLE.with(|c| c.set(true));
    let out = f();
    DENSE_ORACLE.with(|c| c.set(false));
    out
}

/// Whether [`with_dense_oracle`] is active on this thread.
pub(crate) fn oracle_selected() -> bool {
    DENSE_ORACLE.with(Cell::get)
}

/// Dense square matrix stored row-major, used for the basis inverse.
#[derive(Debug, Clone)]
pub(crate) struct DenseMat {
    /// Row-major data, length `n * n`.
    pub data: Vec<f64>,
    /// Dimension.
    pub n: usize,
}

impl DenseMat {
    /// Identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        DenseMat { data, n }
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// `out = self * sparse_col` (FTRAN against a sparse column).
    pub fn mul_sparse(&self, col: &SparseCol, out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        let n = self.n;
        for (r, v) in col.iter() {
            // Column access of a row-major matrix: stride n.
            let mut idx = r;
            for o in out.iter_mut() {
                *o += v * self.data[idx];
                idx += n;
            }
        }
    }

    /// `out = vec^T * self` (BTRAN against a dense row vector).
    pub fn pre_mul_dense(&self, vec: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        for (i, &c) in vec.iter().enumerate() {
            if c != 0.0 {
                let row = self.row(i);
                for (o, &r) in out.iter_mut().zip(row.iter()) {
                    *o += c * r;
                }
            }
        }
    }

    /// Gauss–Jordan inversion with partial pivoting, writing the inverse of
    /// the matrix whose columns are provided by `col_of`. Returns `false` if
    /// the matrix is numerically singular.
    pub fn invert_from_columns<F>(&mut self, n: usize, mut col_of: F) -> bool
    where
        F: FnMut(usize, &mut [f64]),
    {
        // Build the dense matrix B (column j = col_of(j)) in `work`, and run
        // Gauss–Jordan on [B | I], leaving the inverse in self.data.
        self.n = n;
        self.data.clear();
        self.data.resize(n * n, 0.0);
        for i in 0..n {
            self.data[i * n + i] = 1.0;
        }
        let mut b = vec![0.0; n * n]; // row-major copy of B
        let mut scratch = vec![0.0; n];
        for j in 0..n {
            scratch.iter_mut().for_each(|v| *v = 0.0);
            col_of(j, &mut scratch);
            for i in 0..n {
                b[i * n + j] = scratch[i];
            }
        }
        for k in 0..n {
            // Partial pivot.
            let mut piv = k;
            let mut best = b[k * n + k].abs();
            for i in (k + 1)..n {
                let a = b[i * n + k].abs();
                if a > best {
                    best = a;
                    piv = i;
                }
            }
            if best < 1e-11 {
                return false;
            }
            if piv != k {
                for j in 0..n {
                    b.swap(k * n + j, piv * n + j);
                    self.data.swap(k * n + j, piv * n + j);
                }
            }
            let d = b[k * n + k];
            let inv = 1.0 / d;
            for j in 0..n {
                b[k * n + j] *= inv;
                self.data[k * n + j] *= inv;
            }
            for i in 0..n {
                if i == k {
                    continue;
                }
                let f = b[i * n + k];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    b[i * n + j] -= f * b[k * n + j];
                    self.data[i * n + j] -= f * self.data[k * n + j];
                }
            }
        }
        true
    }

    /// Eta update after a basis change: the entering column's FTRAN image is
    /// `w` and the leaving basic position is `r`. Applies `E · self` where
    /// `E` is the elementary matrix for the pivot.
    pub fn eta_update(&mut self, w: &[f64], r: usize) {
        let n = self.n;
        let wr = w[r];
        debug_assert!(wr.abs() > 1e-12);
        let inv = 1.0 / wr;
        // Row r := row r / w_r
        for j in 0..n {
            self.data[r * n + j] *= inv;
        }
        // Row i := row i - w_i * row r (i != r)
        // Split borrows: copy row r (n is small enough that this is cheap).
        let row_r: Vec<f64> = self.row(r).to_vec();
        for i in 0..n {
            if i == r {
                continue;
            }
            let wi = w[i];
            if wi == 0.0 {
                continue;
            }
            let row_i = self.row_mut(i);
            for (a, &b) in row_i.iter_mut().zip(row_r.iter()) {
                *a -= wi * b;
            }
        }
    }
}

/// Explicit dense basis inverse (the pre-LU engine, verbatim numerics).
pub(crate) struct DenseEngine {
    binv: DenseMat,
    entries: Vec<(u32, f64)>,
}

impl DenseEngine {
    /// Fresh engine; unusable until the first [`BasisEngine::refactor`].
    pub fn new() -> Self {
        DenseEngine { binv: DenseMat::identity(0), entries: Vec::new() }
    }
}

impl BasisEngine for DenseEngine {
    fn refactor(&mut self, m: usize, col_of: &mut ColSource<'_>) -> Result<(), LpError> {
        let mut entries = std::mem::take(&mut self.entries);
        let ok = self.binv.invert_from_columns(m, |pos, out| {
            entries.clear();
            col_of(pos, &mut entries);
            for &(r, v) in &entries {
                out[r as usize] += v;
            }
        });
        self.entries = entries;
        if ok {
            Ok(())
        } else {
            Err(singular())
        }
    }

    fn ftran(&mut self, col: &SparseCol, out: &mut [f64]) {
        self.binv.mul_sparse(col, out);
    }

    fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.binv.row(i).iter().zip(rhs.iter()).map(|(a, b)| a * b).sum();
        }
    }

    fn btran(&mut self, c: &[f64], out: &mut [f64]) {
        self.binv.pre_mul_dense(c, out);
    }

    fn btran_unit(&mut self, r: usize, out: &mut [f64]) {
        out.copy_from_slice(self.binv.row(r));
    }

    fn update(&mut self, w: &[f64], r: usize) -> Result<(), LpError> {
        if w[r].abs() < ETA_PIVOT_TOL {
            return Err(tiny_eta(w[r]));
        }
        self.binv.eta_update(w, r);
        Ok(())
    }
}

/// Differential testing: the sparse LU basis engine against the dense
/// explicit-inverse oracle on randomized bounded LPs, and RHS-only warm
/// restarts against cold solves.
///
/// Every generated model is feasible by construction (the RHS is derived
/// from a random interior point) and bounded (every variable is boxed), so
/// both engines must return `Ok` and agree on the optimal value. Primal
/// iterates are validated through the model (feasibility within tolerance)
/// rather than componentwise, because degenerate LPs have multiple optimal
/// vertices and the two engines may legitimately pick different ones.
pub(crate) mod tests {
    use super::*;
    use crate::model::{Cmp, Model, RowId, Sense};
    use crate::robust::Rung;
    use crate::simplex::{Basis, SimplexOptions, Solution};
    use crate::solve_robust;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Which engine a differential solve runs on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Engine {
        Dense,
        Lu,
    }

    /// Solve on `engine`. The dense side runs every rung on the oracle. The
    /// LU side must settle on the warm or cold-refactor rung: a solve that
    /// needs a rescue rung on a healthy boxed LP is a fault of its own.
    pub(crate) fn solve_on(
        m: &Model,
        engine: Engine,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        let opts = SimplexOptions::default();
        match engine {
            Engine::Dense => with_dense_oracle(|| solve_robust(m, &opts, warm)).result,
            Engine::Lu => {
                let out = solve_robust(m, &opts, warm);
                if let Some(a) = out.report.attempts.iter().find(|a| a.rung > Rung::ColdRefactor) {
                    panic!("LU solve escalated to rung {:?}: {:?}", a.rung, out.report.attempts);
                }
                out.result
            }
        }
    }

    /// Random bounded-variable LP, feasible by construction. Returns the
    /// model and its row ids (for RHS perturbation).
    pub(crate) fn random_lp(seed: u64) -> (Model, Vec<RowId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(3..14usize);
        let nrows = rng.random_range(2..12usize);
        let sense = if rng.random_range(0..2u32) == 0 { Sense::Min } else { Sense::Max };
        let mut m = Model::new(sense);
        let mut vars = Vec::with_capacity(n);
        let mut interior = Vec::with_capacity(n);
        for j in 0..n {
            let lb =
                if rng.random_range(0.0..1.0) < 0.3 { rng.random_range(-5.0..0.0) } else { 0.0 };
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
                    // 0/1-heavy coefficients mirror the network LPs this
                    // solver exists for — and exercise exact cancellation in
                    // the LU.
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
        let dense = solve_on(m, Engine::Dense, None);
        let lu = solve_on(m, Engine::Lu, None);
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
        /// cross-scenario warm-start pattern), re-solve from the previous
        /// basis with both engines. Optimal values must still agree.
        #[test]
        fn engines_agree_after_warm_restart_with_perturbed_rhs(seed in 0u64..100_000) {
            let (mut m, rows) = random_lp(seed);
            let (dense, lu) = assert_engines_agree(&m, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for &r in &rows {
                m.set_rhs(r, m.rhs_of(r) + rng.random_range(-1e-3..1e-3));
            }
            let wd = solve_on(&m, Engine::Dense, Some(&dense.basis));
            let wl = solve_on(&m, Engine::Lu, Some(&lu.basis));
            let (wd, wl) = match (wd, wl) {
                (Ok(d), Ok(l)) => (d, l),
                // A 1e-3 RHS nudge can push a tight model infeasible; that
                // is a property of the instance, not of either engine — but
                // both engines must agree that it happened.
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
        /// any size: whether the restart repairs the basis with dual pivots
        /// or is abandoned past its pivot cap for a cold solve, it must
        /// reach the cold optimum.
        #[test]
        fn rhs_restart_matches_cold_solve_after_random_rhs_change(seed in 0u64..100_000) {
            let (mut m, rows) = random_lp(seed);
            let first = solve_on(&m, Engine::Lu, None).expect("feasible by construction");
            let mut rng = StdRng::seed_from_u64(seed ^ 0xca9);
            let scale = [1e-3, 0.1, 1.0, 3.0][rng.random_range(0..4usize)];
            for &r in &rows {
                if rng.random_range(0.0..1.0) < 0.7 {
                    m.set_rhs(r, m.rhs_of(r) + scale * rng.random_range(-1.0..1.0));
                }
            }
            let warm = m.solve_rhs_restart(&SimplexOptions::default(), &first.basis);
            let cold = solve_on(&m, Engine::Lu, None);
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

    /// The tier-1 fixture LPs solved by both engines, compared componentwise
    /// — these have unique optima, so `x` and the duals must match, not just
    /// the objective.
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
        let t: Vec<_> =
            (0..4).map(|i| m.add_var(&format!("t{i}"), 0.0, f64::INFINITY, 0.0)).collect();
        m.add_row_eq(&[(t[0], 1.0), (t[1], 1.0)], 3.0);
        m.add_row_eq(&[(t[2], 1.0), (t[3], 1.0)], 2.0);
        m.add_row_le(&[(t[0], 1.0), (t[2], 1.0), (mlu, -4.0)], 0.0);
        m.add_row_le(&[(t[1], 1.0), (t[3], 1.0), (mlu, -5.0)], 0.0);
        fixtures.push(m);

        for (k, m) in fixtures.iter().enumerate() {
            let d = solve_on(m, Engine::Dense, None).unwrap();
            let l = solve_on(m, Engine::Lu, None).unwrap();
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

    #[test]
    fn dense_invert_2x2() {
        let mut m = DenseMat::identity(2);
        // B = [[2, 1], [1, 1]]; inverse = [[1, -1], [-1, 2]]
        let ok = m.invert_from_columns(2, |j, out| {
            if j == 0 {
                out[0] = 2.0;
                out[1] = 1.0;
            } else {
                out[0] = 1.0;
                out[1] = 1.0;
            }
        });
        assert!(ok);
        assert!((m.data[0] - 1.0).abs() < 1e-12);
        assert!((m.data[1] + 1.0).abs() < 1e-12);
        assert!((m.data[2] + 1.0).abs() < 1e-12);
        assert!((m.data[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_invert_singular_detected() {
        let mut m = DenseMat::identity(2);
        let ok = m.invert_from_columns(2, |_j, out| {
            out[0] = 1.0;
            out[1] = 1.0;
        });
        assert!(!ok);
    }

    #[test]
    fn eta_update_matches_reinversion() {
        // Start with B = I, replace column 1 with a = (1, 3)^T.
        let mut m = DenseMat::identity(2);
        let a = SparseCol::from_entries(vec![(0, 1.0), (1, 3.0)]);
        let mut w = vec![0.0; 2];
        m.mul_sparse(&a, &mut w);
        m.eta_update(&w, 1);
        // New basis = [e0, a]; inverse should satisfy inv * a = e1.
        let mut img = vec![0.0; 2];
        m.mul_sparse(&a, &mut img);
        assert!((img[0] - 0.0).abs() < 1e-12);
        assert!((img[1] - 1.0).abs() < 1e-12);
    }
}
