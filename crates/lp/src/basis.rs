//! The basis representation of the revised simplex.
//!
//! The simplex kernel only ever touches the basis through four linear-algebra
//! primitives — FTRAN (`B⁻¹a`), BTRAN (`cᵀB⁻¹`), a rank-1 pivot update, and
//! a from-scratch refactorization — so those four calls are the core of the
//! [`BasisEngine`] contract. Two more let a branch-and-bound child start
//! from the factors its parent's solve ended on instead of refactorizing
//! the same basis. Every solve runs on [`LuEngine`]: sparse
//! Markowitz LU ([`LuFactors`]) plus a product-form **eta file**. Each pivot
//! appends one sparse eta factor (`B_new = B_old · E`) instead of densely
//! updating an inverse, and both solve directions replay the file around the
//! permuted triangular solves: FTRAN applies `E⁻¹` chronologically after the
//! LU solve, BTRAN applies `E⁻ᵀ` in reverse before it. Periodic
//! refactorization (driven by the simplex) resets the file. The tests also
//! implement the contract with an explicit dense inverse, the oracle the
//! sparse engine is checked against.

use crate::error::LpError;
use crate::sparse::{ColSource, LuFactors, SparseCol};

/// Pivot magnitude below which a product-form update is refused; the ratio
/// test guarantees pivots ≥ 5e-8, so hitting this means the iterate has
/// already gone numerically astray and the caller should refactorize.
pub(crate) const ETA_PIVOT_TOL: f64 = 1e-12;

/// Basis-representation contract used by the simplex kernel.
///
/// All methods take `&mut self` so implementations can reuse internal
/// scratch buffers across calls; none of them allocates on the hot path
/// after the first refactorization at a given dimension.
pub(crate) trait BasisEngine {
    /// Rebuild the factorization from scratch for the `m × m` basis whose
    /// column at basis position `pos` is supplied by `col_of(pos, out)` as
    /// pushed `(row, value)` entries. Discards any accumulated eta factors.
    fn refactor(
        &mut self,
        m: usize,
        col_of: &mut ColSource<'_>,
    ) -> Result<(), LpError>;

    /// FTRAN: `out = B⁻¹ a` for a sparse column `a`. `out` (indexed by basis
    /// position) is fully overwritten.
    fn ftran(&mut self, col: &SparseCol, out: &mut [f64]);

    /// FTRAN against a dense right-hand side: `out = B⁻¹ rhs`. Used by
    /// `recompute_xb`, where the reduced RHS is dense.
    fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64]);

    /// BTRAN: `out = cᵀ B⁻¹` for a dense `c` indexed by basis position;
    /// `out` is indexed by row.
    fn btran(&mut self, c: &[f64], out: &mut [f64]);

    /// BTRAN of the `r`-th unit vector: `out = e_rᵀ B⁻¹`, i.e. row `r` of
    /// the basis inverse (the dual-simplex pivot row).
    fn btran_unit(&mut self, r: usize, out: &mut [f64]);

    /// Product-form update after a pivot: the entering column's FTRAN image
    /// is `w` and the leaving basic position is `r`, so `B_new = B · E` with
    /// `E = I` except column `r = w`. Fails if `|w[r]|` is degenerate.
    fn update(&mut self, w: &[f64], r: usize) -> Result<(), LpError>;

    /// The factors of the current basis when they are exactly what a
    /// refactorization of it would build (no eta factors since the last
    /// one), so a later solve from the same basis can start from a copy.
    /// `None` from an engine that does not share its factors.
    fn fresh_factors(&self) -> Option<&LuFactors> {
        None
    }

    /// Start from `f`, the [`Self::fresh_factors`] of this basis on the
    /// same matrix, in place of a refactorization. `false` when the engine
    /// cannot take them; the caller then refactorizes.
    fn install(&mut self, _f: &LuFactors) -> bool {
        false
    }
}

pub(crate) fn singular() -> LpError {
    LpError::Numerical("singular basis at refactorization".into())
}

pub(crate) fn tiny_eta(wr: f64) -> LpError {
    LpError::Numerical(format!("eta pivot {wr:.3e} too small for basis update"))
}

/// One product-form factor: column `r` of `E` is the pivot's FTRAN image
/// `w`, stored as the diagonal `w_r` plus the sparse off-diagonal entries
/// `eta_entries[start..end]` of its [`LuEngine`].
struct Eta {
    r: u32,
    wr: f64,
    start: usize,
    end: usize,
}

impl Eta {
    /// `v ← E⁻¹ v`. Only touches anything when `v[r] ≠ 0`, which is what
    /// makes eta replay cheap on hypersparse FTRANs.
    #[inline]
    fn apply_ftran(&self, entries: &[(u32, f64)], v: &mut [f64]) {
        let vr = v[self.r as usize];
        if vr == 0.0 {
            return;
        }
        let t = vr / self.wr;
        v[self.r as usize] = t;
        for &(i, wi) in &entries[self.start..self.end] {
            v[i as usize] -= wi * t;
        }
    }

    /// `cᵀ ← cᵀ E⁻¹`: only component `r` changes.
    #[inline]
    fn apply_btran(&self, entries: &[(u32, f64)], c: &mut [f64]) {
        let mut acc = c[self.r as usize];
        for &(i, wi) in &entries[self.start..self.end] {
            acc -= wi * c[i as usize];
        }
        c[self.r as usize] = acc / self.wr;
    }
}

/// Sparse LU basis engine: Markowitz-ordered factorization plus a
/// product-form eta file, with sparsity-exploiting FTRAN/BTRAN.
///
/// Every buffer — the factors, their elimination workspace and the eta
/// file, whose factors share one entry vector — is cleared, not freed, at
/// refactorization, so an engine reused across solves (see
/// [`crate::simplex`]'s per-thread workspaces) stops allocating once it has
/// seen its largest basis.
#[derive(Default)]
pub(crate) struct LuEngine {
    lu: LuFactors,
    etas: Vec<Eta>,
    eta_entries: Vec<(u32, f64)>,
    scratch: Vec<f64>,
}

impl LuEngine {
    fn apply_etas_ftran(&self, v: &mut [f64]) {
        for eta in &self.etas {
            eta.apply_ftran(&self.eta_entries, v);
        }
    }

    fn apply_etas_btran(&self, c: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            eta.apply_btran(&self.eta_entries, c);
        }
    }

    fn observe_nnz(name: &'static str, v: &[f64]) {
        if flexile_obs::enabled() {
            let nnz = v.iter().filter(|x| **x != 0.0).count();
            flexile_obs::observe(name, nnz as f64);
        }
    }
}

impl BasisEngine for LuEngine {
    fn refactor(
        &mut self,
        m: usize,
        col_of: &mut ColSource<'_>,
    ) -> Result<(), LpError> {
        self.etas.clear();
        self.eta_entries.clear();
        if !self.lu.factorize(m, col_of) {
            return Err(singular());
        }
        self.scratch.clear();
        self.scratch.resize(m, 0.0);
        if flexile_obs::enabled() && m > 0 {
            flexile_obs::observe("lp.lu_fill", self.lu.nnz() as f64 / m as f64);
        }
        Ok(())
    }

    fn ftran(&mut self, col: &SparseCol, out: &mut [f64]) {
        flexile_obs::add("lp.ftran_calls", 1);
        out.iter_mut().for_each(|v| *v = 0.0);
        for (r, v) in col.iter() {
            out[r] += v;
        }
        self.lu.ftran_in_place(out, &mut self.scratch);
        self.apply_etas_ftran(out);
        Self::observe_nnz("lp.ftran_nnz", out);
    }

    fn ftran_dense(&mut self, rhs: &[f64], out: &mut [f64]) {
        flexile_obs::add("lp.ftran_calls", 1);
        out.copy_from_slice(rhs);
        self.lu.ftran_in_place(out, &mut self.scratch);
        self.apply_etas_ftran(out);
    }

    fn btran(&mut self, c: &[f64], out: &mut [f64]) {
        flexile_obs::add("lp.btran_calls", 1);
        out.copy_from_slice(c);
        self.apply_etas_btran(out);
        self.lu.btran_in_place(out, &mut self.scratch);
        Self::observe_nnz("lp.btran_nnz", out);
    }

    fn btran_unit(&mut self, r: usize, out: &mut [f64]) {
        flexile_obs::add("lp.btran_calls", 1);
        out.iter_mut().for_each(|v| *v = 0.0);
        out[r] = 1.0;
        self.apply_etas_btran(out);
        self.lu.btran_in_place(out, &mut self.scratch);
        Self::observe_nnz("lp.btran_nnz", out);
    }

    fn update(&mut self, w: &[f64], r: usize) -> Result<(), LpError> {
        let wr = w[r];
        if wr.abs() < ETA_PIVOT_TOL {
            return Err(tiny_eta(wr));
        }
        let start = self.eta_entries.len();
        self.eta_entries.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &wi)| i != r && wi != 0.0)
                .map(|(i, &wi)| (i as u32, wi)),
        );
        let end = self.eta_entries.len();
        if flexile_obs::enabled() {
            flexile_obs::observe("lp.eta_nnz", (end - start + 1) as f64);
        }
        self.etas.push(Eta { r: r as u32, wr, start, end });
        Ok(())
    }

    fn fresh_factors(&self) -> Option<&LuFactors> {
        self.etas.is_empty().then_some(&self.lu)
    }

    fn install(&mut self, f: &LuFactors) -> bool {
        self.etas.clear();
        self.eta_entries.clear();
        self.lu.copy_factors_from(f);
        self.scratch.clear();
        self.scratch.resize(f.dim(), 0.0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseEngine;

    /// Deterministic sparse nonsingular test basis: diagonally dominant
    /// with a few off-diagonal entries per column.
    fn basis_cols(m: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..m)
            .map(|j| {
                let mut col = vec![(j as u32, 3.0 + next())];
                for _ in 0..2 {
                    let r = (next() * m as f64) as usize % m;
                    if r != j && !col.iter().any(|&(rr, _)| rr as usize == r) {
                        col.push((r as u32, next() - 0.5));
                    }
                }
                col
            })
            .collect()
    }

    fn refactor_from(engine: &mut dyn BasisEngine, cols: &[Vec<(u32, f64)>]) {
        let m = cols.len();
        engine
            .refactor(m, &mut |pos, out| out.extend_from_slice(&cols[pos]))
            .expect("nonsingular test basis");
    }

    #[test]
    fn engines_agree_on_ftran_btran() {
        let m = 30;
        let cols = basis_cols(m, 11);
        let mut dense = DenseEngine::new();
        let mut lu = LuEngine::default();
        refactor_from(&mut dense, &cols);
        refactor_from(&mut lu, &cols);

        let a = SparseCol::from_entries(vec![(2, 1.0), (9, -0.5), (21, 2.0)]);
        let (mut xd, mut xl) = (vec![0.0; m], vec![0.0; m]);
        dense.ftran(&a, &mut xd);
        lu.ftran(&a, &mut xl);
        for i in 0..m {
            assert!((xd[i] - xl[i]).abs() < 1e-9, "ftran {i}: {} vs {}", xd[i], xl[i]);
        }

        let c: Vec<f64> = (0..m).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let (mut yd, mut yl) = (vec![0.0; m], vec![0.0; m]);
        dense.btran(&c, &mut yd);
        lu.btran(&c, &mut yl);
        for i in 0..m {
            assert!((yd[i] - yl[i]).abs() < 1e-9, "btran {i}");
        }

        let (mut rd, mut rl) = (vec![0.0; m], vec![0.0; m]);
        dense.btran_unit(m / 2, &mut rd);
        lu.btran_unit(m / 2, &mut rl);
        for i in 0..m {
            assert!((rd[i] - rl[i]).abs() < 1e-9, "btran_unit {i}");
        }
    }

    #[test]
    fn eta_chain_matches_reinversion() {
        // Mirror of `sparse::tests::eta_update_matches_reinversion`, but for
        // the LU engine and a chain of k updates: after k pivots via the eta
        // file, FTRAN/BTRAN must match a from-scratch refactorization of the
        // updated basis.
        let m = 25;
        let mut cols = basis_cols(m, 23);
        let mut lu = LuEngine::default();
        refactor_from(&mut lu, &cols);

        let replacements: [(usize, Vec<(u32, f64)>); 4] = [
            (3, vec![(0, 1.0), (3, 4.0), (7, -0.25)]),
            (11, vec![(11, 5.0), (12, 0.5)]),
            (3, vec![(2, -0.75), (3, 6.0), (20, 1.0)]),
            (18, vec![(17, 0.3), (18, 3.5), (24, -1.1)]),
        ];
        let mut w = vec![0.0; m];
        for (pos, newcol) in &replacements {
            let a = SparseCol::from_entries(newcol.clone());
            lu.ftran(&a, &mut w);
            lu.update(&w, *pos).expect("well-conditioned pivot");
            cols[*pos] = newcol.clone();
        }
        assert_eq!(lu.etas.len(), replacements.len());

        let mut fresh = LuEngine::default();
        refactor_from(&mut fresh, &cols);
        assert!(fresh.etas.is_empty(), "refactorization resets the eta file");

        let rhs = SparseCol::from_entries(vec![(1, 2.0), (13, -1.0), (24, 0.5)]);
        let (mut via_etas, mut via_fresh) = (vec![0.0; m], vec![0.0; m]);
        lu.ftran(&rhs, &mut via_etas);
        fresh.ftran(&rhs, &mut via_fresh);
        for i in 0..m {
            assert!(
                (via_etas[i] - via_fresh[i]).abs() < 1e-9,
                "eta-chain ftran drifted at {i}: {} vs {}",
                via_etas[i],
                via_fresh[i]
            );
        }
        let c: Vec<f64> = (0..m).map(|i| (i as f64 * 0.61).cos()).collect();
        let (mut ye, mut yf) = (vec![0.0; m], vec![0.0; m]);
        lu.btran(&c, &mut ye);
        fresh.btran(&c, &mut yf);
        for i in 0..m {
            assert!((ye[i] - yf[i]).abs() < 1e-9, "eta-chain btran drifted at {i}");
        }
    }

    /// Both implementations of the contract, labelled.
    fn engines() -> [(&'static str, Box<dyn BasisEngine>); 2] {
        [("dense", Box::new(DenseEngine::new())), ("lu", Box::new(LuEngine::default()))]
    }

    #[test]
    fn singular_basis_rejected_at_factorization() {
        for (label, mut engine) in engines() {
            let res = engine.refactor(4, &mut |pos, out| {
                // Columns 1 and 3 identical ⇒ singular.
                let p = if pos == 3 { 1 } else { pos };
                out.push((p as u32, 1.0));
                out.push((((p + 1) % 4) as u32, 2.0));
            });
            match res {
                Err(LpError::Numerical(msg)) => {
                    assert!(msg.contains("singular"), "{label}: {msg}")
                }
                other => panic!("{label}: expected singular error, got {other:?}"),
            }
        }
    }

    #[test]
    fn degenerate_eta_pivot_rejected() {
        let m = 5;
        let cols = basis_cols(m, 3);
        for (label, mut engine) in engines() {
            engine
                .refactor(m, &mut |pos, out| out.extend_from_slice(&cols[pos]))
                .unwrap();
            let w = vec![1.0, 0.0, 1.0, 1.0, 1.0];
            assert!(engine.update(&w, 1).is_err(), "{label} must refuse a zero pivot");
        }
    }
}
