//! LP/MIP model builder.
//!
//! A [`Model`] owns variables (with bounds and objective coefficients) and
//! rows (linear constraints). Variables may be declared integer, in which
//! case the model must be solved with [`crate::mip::solve_mip`]; the plain
//! [`Model::solve`] solves the continuous relaxation.

use crate::error::LpError;
use crate::simplex::{self, Basis, RestartKind, SimplexOptions, Solution, SolveScratch};
use crate::sparse::{ColMatrix, SparseCol};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Row comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// Handle to a variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Positional index of the variable in the model.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a row in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(pub(crate) u32);

impl RowId {
    /// Positional index of the row in the model.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A linear program (optionally with integer variables).
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) obj: Vec<f64>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) integer: Vec<bool>,
    pub(crate) names: Vec<String>,
    /// Structural columns (one per variable).
    pub(crate) cols: ColMatrix,
    pub(crate) row_cmp: Vec<Cmp>,
    pub(crate) rhs: Vec<f64>,
}

impl Model {
    /// Create an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            obj: Vec::new(),
            lb: Vec::new(),
            ub: Vec::new(),
            integer: Vec::new(),
            names: Vec::new(),
            cols: ColMatrix::new(0),
            row_cmp: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with bounds `[lb, ub]` and objective
    /// coefficient `obj`. `ub` may be `f64::INFINITY` and `lb` may be
    /// `f64::NEG_INFINITY`.
    pub fn add_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> VarId {
        debug_assert!(lb <= ub, "variable {name}: lb {lb} > ub {ub}");
        self.obj.push(obj);
        self.lb.push(lb);
        self.ub.push(ub);
        self.integer.push(false);
        self.names.push(name.to_string());
        self.cols.push_col(SparseCol::default());
        VarId((self.obj.len() - 1) as u32)
    }

    /// Add a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, name: &str, obj: f64) -> VarId {
        let v = self.add_var(name, 0.0, 1.0, obj);
        self.integer[v.index()] = true;
        v
    }

    /// Mark an existing variable as integer.
    pub fn set_integer(&mut self, v: VarId) {
        self.integer[v.index()] = true;
    }

    /// True if any variable is integer.
    pub fn has_integers(&self) -> bool {
        self.integer.iter().any(|&b| b)
    }

    /// Indices of integer variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.integer
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    /// Overwrite a variable's bounds.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        debug_assert!(lb <= ub + 1e-12, "set_bounds: lb {lb} > ub {ub}");
        self.lb[v.index()] = lb;
        self.ub[v.index()] = ub.max(lb);
    }

    /// Current bounds of a variable.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.lb[v.index()], self.ub[v.index()])
    }

    /// Overwrite a variable's objective coefficient.
    pub fn set_obj(&mut self, v: VarId, obj: f64) {
        self.obj[v.index()] = obj;
    }

    /// Variable name (for diagnostics).
    pub fn var_name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// Add a generic row `coeffs · x (cmp) rhs`.
    pub fn add_row(&mut self, coeffs: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> RowId {
        let row = self.rhs.len();
        self.cols.grow_rows(row + 1);
        for &(v, c) in coeffs {
            self.cols.add_entry(row, v.index(), c);
        }
        self.row_cmp.push(cmp);
        self.rhs.push(rhs);
        RowId(row as u32)
    }

    /// Add a `≤` row.
    pub fn add_row_le(&mut self, coeffs: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(coeffs, Cmp::Le, rhs)
    }

    /// Add a `≥` row.
    pub fn add_row_ge(&mut self, coeffs: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(coeffs, Cmp::Ge, rhs)
    }

    /// Add an `=` row.
    pub fn add_row_eq(&mut self, coeffs: &[(VarId, f64)], rhs: f64) -> RowId {
        self.add_row(coeffs, Cmp::Eq, rhs)
    }

    /// Overwrite a row's right-hand side (used when re-solving a scenario
    /// family that differs only in the RHS, per the paper's reformulation of
    /// the subproblem).
    pub fn set_rhs(&mut self, r: RowId, rhs: f64) {
        self.rhs[r.index()] = rhs;
    }

    /// Current right-hand side of a row.
    pub fn rhs_of(&self, r: RowId) -> f64 {
        self.rhs[r.index()]
    }

    /// Comparison sense of row `i` (by index; see [`Model::num_rows`]).
    pub fn row_sense(&self, i: usize) -> Cmp {
        self.row_cmp[i]
    }

    /// Bounds of variable `j` (by index; see [`Model::num_vars`]).
    pub fn var_bounds(&self, j: usize) -> (f64, f64) {
        (self.lb[j], self.ub[j])
    }

    /// Objective coefficient of variable `j` (by index).
    pub fn objective_coeff(&self, j: usize) -> f64 {
        self.obj[j]
    }

    /// Nonzero column entries of variable `j` as `(row index, coefficient)`.
    /// Index-based like the other by-index accessors; used by external KKT
    /// checks (e.g. the presolve differential tests) that validate duals
    /// against the full model.
    pub fn col_entries(&self, j: usize) -> Vec<(usize, f64)> {
        self.cols.col(j).iter().collect()
    }

    /// Solve the continuous relaxation with default options, through the
    /// escalation ladder of [`crate::solve_robust`].
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SimplexOptions::default(), None)
    }

    /// Solve the continuous relaxation with explicit options and an optional
    /// warm-start basis from a previous solve of a structurally identical
    /// model. A failed attempt is retried only as [`crate::solve_robust`]
    /// escalates it; call that directly to also get the audit trail. Only a
    /// solve that escalates emits `lp.rung` events.
    pub fn solve_with(
        &self,
        opts: &SimplexOptions,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        crate::robust::ladder(self, opts, warm, true).result
    }

    /// Re-solve after an RHS-only change, restarting from `warm`.
    ///
    /// The caller asserts that nothing but row right-hand sides changed since
    /// `warm` was captured (see [`Model::set_rhs`]). An RHS-only delta keeps
    /// the saved basis dual feasible by construction, so the solver skips
    /// the dual-feasibility scan and repairs the basis with dual-simplex
    /// pivots directly. Exactly one attempt (one fault-injection poll) with
    /// no retry: callers that want the escalation ladder fall back to
    /// [`crate::solve_robust`] on a retryable error. `scratch` holds the
    /// work vectors, so a pool worker performing many restarts back to back
    /// reuses them across solves. Returns the solution together with how
    /// the restart was actually satisfied.
    pub fn solve_rhs_restart(
        &self,
        opts: &SimplexOptions,
        warm: &Basis,
        scratch: &mut SolveScratch,
    ) -> Result<(Solution, RestartKind), LpError> {
        simplex::rhs_restart(self, opts, warm, scratch)
    }

    /// Evaluate the objective at a point.
    pub fn eval_objective(&self, x: &[f64]) -> f64 {
        self.obj.iter().zip(x.iter()).map(|(c, v)| c * v).sum()
    }

    /// Maximum row violation of a point (for post-solve verification).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        // Compute A·x row-wise via the column storage.
        let mut ax = vec![0.0; self.num_rows()];
        for j in 0..self.num_vars() {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for (r, v) in self.cols.col(j).iter() {
                ax[r] += v * xj;
            }
        }
        for i in 0..self.num_rows() {
            let d = match self.row_cmp[i] {
                Cmp::Le => ax[i] - self.rhs[i],
                Cmp::Ge => self.rhs[i] - ax[i],
                Cmp::Eq => (ax[i] - self.rhs[i]).abs(),
            };
            worst = worst.max(d);
        }
        for j in 0..self.num_vars() {
            worst = worst.max(self.lb[j] - x[j]).max(x[j] - self.ub[j]);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 1.0, 2.0);
        let y = m.add_binary("y", 1.0);
        let r = m.add_row_ge(&[(x, 1.0), (y, 1.0)], 1.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_rows(), 1);
        assert!(m.has_integers());
        assert_eq!(m.integer_vars(), vec![y]);
        assert_eq!(m.rhs_of(r), 1.0);
        m.set_rhs(r, 2.0);
        assert_eq!(m.rhs_of(r), 2.0);
        assert_eq!(m.var_name(x), "x");
    }

    #[test]
    fn violation_measure() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        assert!(m.max_violation(&[3.0]) < 1e-12);
        assert!((m.max_violation(&[5.0]) - 1.0).abs() < 1e-12);
    }
}
