//! Bounded-variable two-phase revised simplex method.
//!
//! Implementation notes:
//!
//! * Every row `a·x (cmp) b` gets a slack `s` with `a·x + s = b` and bounds
//!   `[0, ∞)` (for `≤`), `(-∞, 0]` (for `≥`) or `[0, 0]` (for `=`).
//! * Cold solves first run the presolve/postsolve pass ([`crate::presolve`]):
//!   fixed/free-column elimination, empty/singleton-row removal and bound
//!   tightening shrink the model, and the postsolve maps the reduced
//!   solution (primal, duals, basis) back exactly.
//! * Phase 1 starts from the all-slack basis after a bound-shift crash
//!   ([`crate::crash`]) flips doubly-bounded structurals toward feasibility;
//!   rows whose slack value still violates its bounds get a `±1` artificial
//!   column with phase-1 cost 1. Once the artificial sum reaches zero the
//!   artificials are frozen at `[0, 0]` and phase 2 runs with the true cost.
//! * The basis is maintained behind a [`BasisEngine`]: by default a sparse
//!   Markowitz LU factorization with a product-form eta file appended per
//!   pivot, refactorized from scratch periodically (and whenever drift is
//!   detected); the explicit dense inverse survives as the selectable
//!   [`EngineKind::Dense`] oracle.
//! * Pricing is devex by default ([`Pricing::Devex`]: candidate scores
//!   `d_j²/w_j` with reference weights updated per pivot) over a
//!   **candidate list** refilled incrementally from a rotating cursor:
//!   when the list runs dry the scan resumes where the previous refill
//!   stopped and collects up to the cap of attractive columns, so
//!   successive refills cover fresh columns instead of re-pricing the same
//!   prefix. Only a refill that wraps the full column range without
//!   finding an attractive column declares optimality. Dantzig scoring
//!   remains selectable ([`Pricing::Dantzig`]) for the retry/robust paths.
//!   After a run of degenerate pivots the solver switches to Bland's rule
//!   (full lowest-index scan), which guarantees termination, and switches
//!   back once progress resumes.
//! * The dual simplex uses a bound-flipping (long-step) ratio test: one
//!   dual pivot may flip any number of doubly-bounded columns whose
//!   breakpoints it crosses, which is what keeps RHS-only scenario
//!   restarts to a handful of pivots.
//! * Warm starts: [`Solution::basis`] can be fed back into
//!   [`crate::Model::solve_with`] for a structurally identical model (same
//!   variables and rows, possibly different RHS/bounds/objective). If the
//!   saved basis is not primal feasible for the new data the solver
//!   silently falls back to a cold start, so warm starting is always safe.
//! * A warm dual-simplex repair may spend at most `rows + cols` pivots
//!   (`restart_pivot_cap`), about what a cold solve of the same model
//!   costs. Past the cap the basis is dropped (`lp.restart_abandoned`) and
//!   the call finishes with exactly the cold solve the same attempt would
//!   run without a basis, so no restart costs more than a bounded multiple
//!   of a cold solve and the rule is a deterministic function of the input.
//! * This module runs exactly one attempt per call and never retries: how a
//!   failed attempt is retried is decided only by the escalation ladder in
//!   [`crate::solve_robust`], which picks each attempt's refactorization
//!   interval and whether it runs under Bland's rule.

use crate::basis::{make_engine, BasisEngine, EngineKind};
use crate::error::LpError;
use crate::model::{Cmp, Model, Sense};
use crate::sparse::SparseCol;
use crate::tol::FEAS_TOL;

/// Reduced-cost (dual) tolerance.
const DUAL_TOL: f64 = 1e-7;
/// Minimum pivot magnitude accepted in the ratio test. Too small a pivot
/// produces huge eta factors and destroys the basis inverse.
const PIVOT_TOL: f64 = 5e-8;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_SWITCH: usize = 60;

#[cfg(test)]
thread_local! {
    /// Test-only override of [`restart_pivot_cap`], so unit tests can make
    /// the cap bind on models small enough to check by hand.
    static RESTART_CAP_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Dual pivots a warm restart of an `m`-row, `n`-column model may spend
/// before it is abandoned for a cold solve. A cold solve of the same model
/// typically needs well under `n + m` pivots, so the cap never binds on a
/// healthy restart and bounds a runaway one (a long chain of
/// near-degenerate dual pivots) at about the cost of that cold solve.
fn restart_pivot_cap(n: usize, m: usize) -> usize {
    #[cfg(test)]
    if let Some(cap) = RESTART_CAP_OVERRIDE.with(|c| c.get()) {
        return cap;
    }
    n + m
}

/// Solver status of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// Primal infeasible.
    Infeasible,
    /// Unbounded objective.
    Unbounded,
}

/// Pricing rule used by the primal phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Pick the rule per solve (the default): Dantzig for *cold* solves of
    /// models dominated by a dense column (the MLU / max-concurrent-flow
    /// shape, where devex's reference weights chase the dense column's large
    /// steepest-edge norms and pay ~7% extra pivots — the PR 8 regression),
    /// devex everywhere else. Warm-started solves always use devex: their
    /// phase-2 runs are short and devex's weight framework wins there.
    #[default]
    Auto,
    /// Devex reference-framework pricing: candidate scores are
    /// `d_j² / w_j` with reference weights updated after every pivot, which
    /// approximates steepest edge at a fraction of its cost and typically
    /// needs far fewer pivots than a plain most-negative-cost rule.
    Devex,
    /// Classic Dantzig pricing (most negative reduced cost). Retained as the
    /// rule of the cold-refactor rung of [`crate::solve_robust`]; Bland's
    /// rule remains the final anti-cycling fallback behind it.
    Dantzig,
}

/// Resolve [`Pricing::Auto`] against the model shape. Must be called before
/// a [`PhaseCtl`] is built — the phase loops compare against concrete rules.
fn resolve_pricing(p: Pricing, model: &Model, warm: bool) -> Pricing {
    match p {
        Pricing::Auto => {
            let m = model.num_rows();
            let densest =
                (0..model.num_vars()).map(|j| model.cols.col(j).nnz()).max().unwrap_or(0);
            if !warm && m >= 32 && densest >= (m / 8).max(24) {
                Pricing::Dantzig
            } else {
                Pricing::Devex
            }
        }
        other => other,
    }
}

/// Options controlling a simplex run.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Hard cap on simplex iterations (phases combined). `0` means automatic
    /// (`50 · (rows + cols) + 10_000`).
    pub max_iters: usize,
    /// Basis representation. Defaults to the sparse LU engine; the dense
    /// inverse remains selectable as a differential-testing oracle and is
    /// what the Bland-safe rung of [`crate::solve_robust`] uses.
    pub engine: EngineKind,
    /// Primal pricing rule (see [`Pricing`]). Ignored on the Bland-safe rung.
    pub pricing: Pricing,
    /// Run the presolve/postsolve pass ([`crate::presolve`]) before a cold
    /// solve. On by default; callers that need the *unreduced* dual vector
    /// bit-for-bit (the Benders cut extraction) turn it off. Always skipped
    /// for warm-started solves (the saved basis addresses the full column
    /// space) and on the Bland-safe rung (the textbook path, unmodified).
    pub presolve: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iters: 0,
            engine: EngineKind::default(),
            pricing: Pricing::default(),
            presolve: true,
        }
    }
}

/// The rung-only settings of one attempt. Only the escalation ladder
/// ([`crate::solve_robust`]) chooses them; callers set [`SimplexOptions`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mode {
    /// Pivots between basis refactorizations (the eta-chain-length trigger).
    pub refactor_every: usize,
    /// Bland's rule from the first pivot, never left. Cycle-proof but slow;
    /// also skips presolve and the bound-shift crash ([`crate::crash`]).
    pub bland: bool,
}

impl Mode {
    /// Rung 1: the measured default refactorization interval.
    pub const DEFAULT: Mode = Mode { refactor_every: 60, bland: false };
    /// Rungs 2 and 4: refactorize every 8 pivots.
    pub const SHORT_REFACTOR: Mode = Mode { refactor_every: 8, bland: false };
    /// Rung 3: Bland's rule under the short interval.
    pub const BLAND: Mode = Mode { refactor_every: 8, bland: true };
}

/// A basis snapshot usable for warm-starting a later solve.
#[derive(Debug, Clone)]
pub struct Basis {
    pub(crate) basis: Vec<usize>,
    pub(crate) status: Vec<VarStatus>,
}

impl Basis {
    /// Assemble a basis from raw parts (used by the presolve postsolve to
    /// map a reduced-space basis back to the full column space).
    pub(crate) fn from_parts(basis: Vec<usize>, status: Vec<VarStatus>) -> Self {
        Basis { basis, status }
    }

    /// Number of basic columns (= rows of the solve that produced it).
    pub fn size(&self) -> usize {
        self.basis.len()
    }

    /// Order-sensitive FNV-1a digest of the basic set and every column's
    /// status. Two bases with equal fingerprints restart a solve
    /// identically, so the decomposition's crash tests use this to prove
    /// that replaying a scenario's RHS chain after a resume reconstructs
    /// *exactly* the warm state the uninterrupted run carried — without
    /// ever persisting the basis itself.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u64| {
            for byte in b.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.basis.len() as u64);
        for &c in &self.basis {
            eat(c as u64);
        }
        eat(self.status.len() as u64);
        for &s in &self.status {
            eat(match s {
                VarStatus::Basic => 0,
                VarStatus::AtLower => 1,
                VarStatus::AtUpper => 2,
                VarStatus::FreeZero => 3,
            });
        }
        h
    }
}

/// How a warm-started solve actually restarted (reported by
/// [`crate::Model::solve_rhs_restart`]). The decomposition's scenario pool
/// uses this to count cross-iteration basis reuse explicitly instead of
/// inferring it from telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartKind {
    /// The saved basis was still primal feasible; phase 2 continued from it
    /// directly (typically zero pivots when the optimum is unchanged).
    PrimalWarm,
    /// The RHS change broke primal feasibility; dual-simplex pivots repaired
    /// it from the saved (still dual-feasible) basis.
    DualRestart,
    /// The saved basis could not be used (shape mismatch, singular
    /// refactorization, or the dual repair gave up or passed its pivot
    /// cap); a cold two-phase solve produced the solution.
    Cold,
}

/// An optimal (or best-found) solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Terminal status. `solve` returns `Err` for infeasible/unbounded, so a
    /// returned `Solution` always has `SolveStatus::Optimal`.
    pub status: SolveStatus,
    /// Primal values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Row duals: `duals[i] = ∂objective/∂rhs[i]` (in the model's sense).
    pub duals: Vec<f64>,
    /// Iterations used (both phases).
    pub iterations: usize,
    /// Basis snapshot for warm starts.
    pub basis: Basis,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, v: crate::model::VarId) -> f64 {
        self.x[v.index()]
    }
    /// Dual of a row.
    pub fn dual(&self, r: crate::model::RowId) -> f64 {
        self.duals[r.index()]
    }
}

/// Reusable pool of dense `f64` work vectors shared across solves.
///
/// Every simplex phase needs a handful of `m`-length scratch vectors (BTRAN
/// duals, FTRAN columns, cost gathers, devex weights). Allocating them per
/// solve is invisible for one cold solve but measurable in the decomposition
/// pool, where each worker performs thousands of warm restarts whose entire
/// pivot count is often zero. A `SolveScratch` owns the buffers across
/// solves: `grab` pops a vector and resets it to all zeros — bit-identical
/// to a fresh `vec![0.0; len]` — and `put` returns it.
#[derive(Debug, Default)]
pub struct SolveScratch {
    pool: Vec<Vec<f64>>,
}

impl SolveScratch {
    /// Empty pool; buffers are created on first use and recycled after.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Pop a buffer and reset it to `len` zeros (identical to
    /// `vec![0.0; len]`, so pooling can never perturb solver output).
    fn grab(&mut self, len: usize) -> Vec<f64> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// Return a buffer to the pool for reuse by a later solve.
    fn put(&mut self, v: Vec<f64>) {
        self.pool.push(v);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    Basic,
    AtLower,
    AtUpper,
    /// Free variable nonbasic at value 0.
    FreeZero,
}

/// Internal working state. Columns are ordered: structural (0..n), slacks
/// (n..n+m), artificials (n+m..).
struct Work<'a> {
    model: &'a Model,
    n: usize,
    m: usize,
    /// Artificial columns: (row, sign).
    arts: Vec<(usize, f64)>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Phase-2 cost (minimization form).
    cost2: Vec<f64>,
    basis: Vec<usize>,
    status: Vec<VarStatus>,
    engine: Box<dyn BasisEngine>,
    xb: Vec<f64>,
    /// Reduced-RHS scratch reused by [`Work::recompute_xb`] so the hot
    /// refactorization path never allocates.
    rhs_scratch: Vec<f64>,
    pivots_since_refactor: usize,
}

/// Push the non-zero `(row, value)` entries of column `j` in the working
/// column order (structurals, slacks, artificials). Free function so the
/// engine's refactorization callback can borrow these fields while the
/// engine itself is borrowed mutably.
fn push_col_entries(
    model: &Model,
    arts: &[(usize, f64)],
    n: usize,
    m: usize,
    j: usize,
    out: &mut Vec<(u32, f64)>,
) {
    if j < n {
        for (r, v) in model.cols.col(j).iter() {
            out.push((r as u32, v));
        }
    } else if j < n + m {
        out.push(((j - n) as u32, 1.0));
    } else {
        let (r, s) = arts[j - n - m];
        out.push((r as u32, s));
    }
}

impl<'a> Work<'a> {
    fn ncols(&self) -> usize {
        self.n + self.m + self.arts.len()
    }

    /// Visit the non-zero entries of column `j`.
    #[inline]
    fn for_col<F: FnMut(usize, f64)>(&self, j: usize, mut f: F) {
        if j < self.n {
            for (r, v) in self.model.cols.col(j).iter() {
                f(r, v);
            }
        } else if j < self.n + self.m {
            f(j - self.n, 1.0);
        } else {
            let (r, s) = self.arts[j - self.n - self.m];
            f(r, s);
        }
    }

    fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        self.for_col(j, |r, v| acc += dense[r] * v);
        acc
    }

    /// Value of a nonbasic column.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lb[j],
            VarStatus::AtUpper => self.ub[j],
            VarStatus::FreeZero => 0.0,
            VarStatus::Basic => unreachable!("nonbasic_value on basic column"),
        }
    }

    /// Fill [`Work::rhs_scratch`] with the reduced RHS `b - A_N x_N`.
    fn reduced_rhs(&mut self) {
        // Take the buffer out so `for_col` can borrow `self` immutably.
        let mut r = std::mem::take(&mut self.rhs_scratch);
        r.clear();
        r.extend_from_slice(&self.model.rhs);
        for j in 0..self.ncols() {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                self.for_col(j, |row, a| r[row] -= a * v);
            }
        }
        self.rhs_scratch = r;
    }

    /// Recompute the basic values `xb = B⁻¹ (b - A_N x_N)` via the engine's
    /// dense FTRAN, reusing the RHS scratch buffer.
    fn recompute_xb(&mut self) {
        self.reduced_rhs();
        self.engine.ftran_dense(&self.rhs_scratch, &mut self.xb);
    }

    /// Refactorize the basis representation from the current column set.
    fn refactorize(&mut self) -> Result<(), LpError> {
        flexile_obs::add("lp.refactorizations", 1);
        if self.pivots_since_refactor > 0 {
            flexile_obs::observe("lp.eta_chain_len", self.pivots_since_refactor as f64);
        }
        let Work { model, arts, basis, engine, n, m, .. } = self;
        let (n, m) = (*n, *m);
        engine.refactor(m, &mut |pos, out| {
            push_col_entries(model, arts, n, m, basis[pos], out)
        })?;
        self.pivots_since_refactor = 0;
        self.recompute_xb();
        Ok(())
    }

    /// Max bound violation of the basic values.
    fn primal_infeas(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, &j) in self.basis.iter().enumerate() {
            worst = worst.max(self.lb[j] - self.xb[i]).max(self.xb[i] - self.ub[j]);
        }
        worst
    }

    fn objective_of(&self, cost: &[f64]) -> f64 {
        let mut obj = 0.0;
        for (i, &j) in self.basis.iter().enumerate() {
            obj += cost[j] * self.xb[i];
        }
        for j in 0..self.ncols() {
            if self.status[j] != VarStatus::Basic && cost[j] != 0.0 {
                obj += cost[j] * self.nonbasic_value(j);
            }
        }
        obj
    }
}

/// Outcome of one simplex phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
    IterLimit,
}

/// Per-attempt pivot-loop controls shared by the primal and dual phases.
#[derive(Clone, Copy)]
struct PhaseCtl {
    bland: bool,
    pricing: Pricing,
}

/// Price nonbasic column `j`: `Some((|d|, dir))` if it is attractive.
fn price_col(w: &Work, cost: &[f64], y: &[f64], j: usize) -> Option<(f64, f64)> {
    if w.status[j] == VarStatus::Basic {
        return None;
    }
    if w.ub[j] - w.lb[j] <= 0.0 {
        return None; // fixed column can never improve
    }
    let d = cost[j] - w.col_dot(j, y);
    let dir = match w.status[j] {
        VarStatus::AtLower if d < -DUAL_TOL => 1.0,
        VarStatus::AtUpper if d > DUAL_TOL => -1.0,
        VarStatus::FreeZero if d.abs() > DUAL_TOL => -d.signum(),
        _ => return None,
    };
    Some((d.abs(), dir))
}

/// Run simplex iterations with the given cost vector until optimality.
fn run_phase(
    w: &mut Work,
    cost: &[f64],
    iter_budget: &mut usize,
    total_iters: &mut usize,
    refactor_every: usize,
    ctl: PhaseCtl,
    scratch: &mut SolveScratch,
) -> Result<PhaseEnd, LpError> {
    let m = w.m;
    let mut y = scratch.grab(m);
    let mut ftran = scratch.grab(m);
    let mut cb = scratch.grab(m);
    let mut degen_run = 0usize;
    let mut bland = ctl.bland;
    let devex = ctl.pricing == Pricing::Devex && !ctl.bland;

    // Candidate-list partial pricing: a refill pass stashes attractive
    // columns; later iterations re-price only the list until it runs dry.
    // The cap scales with the column count (no fixed upper clamp) so big
    // LPs amortize many pivots per refill scan.
    let cand_cap = (w.ncols() / 16).max(10);
    let mut cand: Vec<u32> = Vec::with_capacity(cand_cap);
    // Rotating refill cursor: each refill resumes scanning where the last
    // one stopped, so successive refills cover *fresh* columns instead of
    // re-pricing the same prefix over and over (the staleness that used to
    // force full Dantzig rescans).
    let mut cursor = 0usize;
    // Devex reference weights. The reference framework is the nonbasic set
    // at phase start (all weights 1); it is re-anchored when the weights
    // grow past `DEVEX_RESET`.
    const DEVEX_RESET: f64 = 1e8;
    let mut weights: Vec<f64> = if devex {
        let mut v = scratch.grab(w.ncols());
        v.iter_mut().for_each(|x| *x = 1.0);
        v
    } else {
        Vec::new()
    };
    let mut wmax = 1.0f64;
    let mut devex_row: Vec<f64> = if devex { scratch.grab(m) } else { Vec::new() };

    // The pivot loop runs inside a closure so every exit path (optimal,
    // unbounded, budget, numerical error) falls through to the
    // buffer stash below.
    let result = (|| loop {
        if *iter_budget == 0 {
            return Ok(PhaseEnd::IterLimit);
        }
        *iter_budget -= 1;
        *total_iters += 1;

        // BTRAN: y = c_B^T B⁻¹
        for (i, &j) in w.basis.iter().enumerate() {
            cb[i] = cost[j];
        }
        w.engine.btran(&cb, &mut y);

        // Pricing. Candidate scores are |d| under Dantzig and d²/w under
        // devex; either way the largest score enters.
        let score_of = |d_abs: f64, j: usize, weights: &[f64]| -> f64 {
            if devex {
                d_abs * d_abs / weights[j]
            } else {
                d_abs
            }
        };
        let mut enter: Option<(usize, f64, f64)> = None; // (col, score, dir)
        if bland {
            // Bland's rule: full scan, lowest attractive index (anti-cycling
            // depends on the full lowest-index order; no candidate list).
            for j in 0..w.ncols() {
                if let Some((score, dir)) = price_col(w, cost, &y, j) {
                    enter = Some((j, score, dir));
                    break;
                }
            }
        } else {
            if !cand.is_empty() {
                // Price only the candidate list, pruning entries that went
                // basic, fixed, or unattractive since they were collected.
                let mut keep = 0;
                for idx in 0..cand.len() {
                    let j = cand[idx] as usize;
                    if let Some((d_abs, dir)) = price_col(w, cost, &y, j) {
                        cand[keep] = j as u32;
                        keep += 1;
                        let score = score_of(d_abs, j, &weights);
                        match enter {
                            Some((_, best, _)) if score <= best => {}
                            _ => enter = Some((j, score, dir)),
                        }
                    }
                }
                cand.truncate(keep);
                if enter.is_some() {
                    flexile_obs::add("lp.pricing_candidates", 1);
                }
            }
            if enter.is_none() {
                // Incremental refill from the rotating cursor: scan until
                // `cand_cap` attractive columns are found or the scan wraps
                // around. A full wrap that finds nothing is a complete
                // pricing pass at the current duals — the only way this
                // path declares optimality.
                flexile_obs::add("lp.pricing_rescans", 1);
                cand.clear();
                let ncols = w.ncols();
                let mut scanned = 0usize;
                while scanned < ncols && cand.len() < cand_cap {
                    let j = cursor;
                    cursor += 1;
                    if cursor == ncols {
                        cursor = 0;
                    }
                    scanned += 1;
                    if let Some((d_abs, dir)) = price_col(w, cost, &y, j) {
                        cand.push(j as u32);
                        let score = score_of(d_abs, j, &weights);
                        match enter {
                            Some((_, best, _)) if score <= best => {}
                            _ => enter = Some((j, score, dir)),
                        }
                    }
                }
            }
        }
        let (q, _, dir) = match enter {
            Some(e) => e,
            None => return Ok(PhaseEnd::Optimal),
        };

        // FTRAN: w = B⁻¹ a_q
        let col = {
            let mut entries = Vec::new();
            w.for_col(q, |r, v| entries.push((r as u32, v)));
            SparseCol::from_entries(entries)
        };
        w.engine.ftran(&col, &mut ftran);

        // Ratio test: entering moves by t >= 0 in direction `dir`; basic i
        // changes by -dir * t * ftran[i].
        let own_range = w.ub[q] - w.lb[q]; // may be +inf
        let mut t_best = if own_range.is_finite() { own_range } else { f64::INFINITY };
        let mut leave: Option<usize> = None; // basic position; None => bound flip
        let mut leave_pivot = 0.0f64;
        for i in 0..m {
            let delta = dir * ftran[i];
            if delta.abs() < PIVOT_TOL {
                continue;
            }
            let bj = w.basis[i];
            let limit = if delta > 0.0 {
                if w.lb[bj].is_finite() {
                    (w.xb[i] - w.lb[bj]) / delta
                } else {
                    continue;
                }
            } else if w.ub[bj].is_finite() {
                (w.xb[i] - w.ub[bj]) / delta
            } else {
                continue;
            };
            let limit = limit.max(0.0);
            // Prefer strictly smaller ratios; break near-ties toward the
            // larger pivot magnitude for numerical stability (or the smaller
            // column index under Bland's rule).
            let better = if limit < t_best - 1e-10 {
                true
            } else if limit <= t_best + 1e-10 {
                match leave {
                    None => true,
                    Some(cur) => {
                        if bland {
                            w.basis[i] < w.basis[cur]
                        } else {
                            ftran[i].abs() > leave_pivot.abs()
                        }
                    }
                }
            } else {
                false
            };
            if better {
                t_best = limit.min(t_best);
                leave = Some(i);
                leave_pivot = ftran[i];
            }
        }

        if t_best.is_infinite() {
            return Ok(PhaseEnd::Unbounded);
        }

        // Track degeneracy and toggle Bland's rule (sticky in safe mode).
        if t_best < 1e-10 {
            degen_run += 1;
            if degen_run > DEGEN_SWITCH {
                if !bland {
                    flexile_obs::add("lp.bland_activations", 1);
                }
                bland = true;
            }
        } else {
            degen_run = 0;
            bland = ctl.bland;
        }

        match leave {
            None => {
                // Bound flip: entering runs to its opposite bound.
                for i in 0..m {
                    w.xb[i] -= dir * t_best * ftran[i];
                }
                w.status[q] = match w.status[q] {
                    VarStatus::AtLower => VarStatus::AtUpper,
                    VarStatus::AtUpper => VarStatus::AtLower,
                    s => s, // free variables have no finite flip; unreachable
                };
            }
            Some(r) => {
                let start = w.nonbasic_value(q);
                for i in 0..m {
                    w.xb[i] -= dir * t_best * ftran[i];
                }
                let leaving = w.basis[r];
                if devex {
                    // Partial devex weight update: the pivot row e_r^T B⁻¹
                    // (taken before the basis changes) gives each candidate's
                    // alpha_j; the reference weight becomes
                    // max(w_j, (alpha_j/alpha_r)² w_q). Restricting the
                    // update to the candidate list keeps the cost at one
                    // unit BTRAN plus a handful of column dots per pivot.
                    let alpha_r = ftran[r];
                    let wq = weights[q];
                    w.engine.btran_unit(r, &mut devex_row);
                    let mut updates = 0u64;
                    for &cj in cand.iter() {
                        let j = cj as usize;
                        if j == q {
                            continue;
                        }
                        let aj = w.col_dot(j, &devex_row);
                        if aj == 0.0 {
                            continue;
                        }
                        let cand_w = (aj / alpha_r) * (aj / alpha_r) * wq;
                        if cand_w > weights[j] {
                            weights[j] = cand_w;
                            wmax = wmax.max(cand_w);
                            updates += 1;
                        }
                    }
                    let wl = (wq / (alpha_r * alpha_r)).max(1.0);
                    weights[leaving] = wl;
                    wmax = wmax.max(wl);
                    flexile_obs::add("lp.devex_updates", updates + 1);
                    if wmax > DEVEX_RESET {
                        // Weights drifted too far from the reference
                        // framework: re-anchor at the current nonbasic set.
                        for wgt in weights.iter_mut() {
                            *wgt = 1.0;
                        }
                        wmax = 1.0;
                    }
                }
                // The leaving variable lands on whichever bound blocked.
                let delta = dir * ftran[r];
                w.status[leaving] =
                    if delta > 0.0 { VarStatus::AtLower } else { VarStatus::AtUpper };
                w.basis[r] = q;
                w.status[q] = VarStatus::Basic;
                w.xb[r] = start + dir * t_best;
                w.engine.update(&ftran, r)?;
                w.pivots_since_refactor += 1;
                if w.pivots_since_refactor >= refactor_every {
                    w.refactorize()?;
                    // Drift check: if the recomputed basic values violate
                    // their bounds, the eta-updated path went numerically
                    // astray; surface it so the caller can retry in safe
                    // mode rather than "optimize" an infeasible iterate.
                    let drift = w.primal_infeas();
                    flexile_obs::observe("lp.refactor_drift", drift);
                    if drift > 1e-6 {
                        return Err(LpError::Numerical(format!(
                            "feasibility drift {drift:.3e} detected at refactorization"
                        )));
                    }
                }
            }
        }
    })();
    scratch.put(y);
    scratch.put(ftran);
    scratch.put(cb);
    if devex {
        scratch.put(weights);
        scratch.put(devex_row);
    }
    result
}

/// Outcome of a dual-simplex feasibility restoration.
enum DualEnd {
    /// Primal feasibility restored; continue with the primal phase 2.
    Feasible,
    /// Dual unbounded ⇒ the primal is infeasible.
    PrimalInfeasible,
    /// Budget exhausted.
    IterLimit,
}

/// Bounded-variable dual simplex: starting from a *dual-feasible* basis
/// (correct reduced-cost signs for every nonbasic status) that is primal
/// infeasible, pivot until the basic values respect their bounds.
///
/// This is the engine behind cross-scenario warm starts: the paper's
/// reformulated subproblem changes only the RHS between scenarios, which
/// preserves dual feasibility exactly, so re-solving is a handful of dual
/// pivots instead of a cold two-phase run.
fn run_dual_phase(
    w: &mut Work,
    cost: &[f64],
    iter_budget: &mut usize,
    total_iters: &mut usize,
    refactor_every: usize,
    scratch: &mut SolveScratch,
) -> Result<DualEnd, LpError> {
    let m = w.m;
    let mut y = scratch.grab(m);
    let mut cb = scratch.grab(m);
    let mut row = scratch.grab(m);
    let mut ftran = scratch.grab(m);
    // Long-step ratio-test scratch, hoisted out of the pivot loop.
    let mut bps: Vec<(f64, u32, f64)> = Vec::new(); // (ratio, col, alpha)
    let mut flipped: Vec<usize> = Vec::new();
    let mut delta = scratch.grab(m);
    let mut ftd = scratch.grab(m);

    // Closure so every exit path falls through to the buffer stash.
    let result = (|| loop {
        if *iter_budget == 0 {
            return Ok(DualEnd::IterLimit);
        }
        *iter_budget -= 1;
        *total_iters += 1;

        // Pick the most violated basic variable.
        let mut leave: Option<(usize, f64, bool)> = None; // (pos, violation, below_lb)
        for (i, &j) in w.basis.iter().enumerate() {
            let below = w.lb[j] - w.xb[i];
            let above = w.xb[i] - w.ub[j];
            if below > FEAS_TOL {
                if leave.is_none_or(|(_, v, _)| below > v) {
                    leave = Some((i, below, true));
                }
            } else if above > FEAS_TOL && leave.is_none_or(|(_, v, _)| above > v) {
                leave = Some((i, above, false));
            }
        }
        let (r, _, below_lb) = match leave {
            Some(l) => l,
            None => return Ok(DualEnd::Feasible),
        };

        // Reduced costs need y = c_B B⁻¹; pivot row needs e_r B⁻¹ (a unit
        // BTRAN, hypersparse under the LU engine).
        for (i, &j) in w.basis.iter().enumerate() {
            cb[i] = cost[j];
        }
        w.engine.btran(&cb, &mut y);
        w.engine.btran_unit(r, &mut row);

        // Long-step (bound-flipping) dual ratio test. The breakpoints are
        // the classic dual ratios |d_j / alpha_j| of every eligible nonbasic
        // column. Walking them in increasing order, a doubly-bounded column
        // whose full bound-to-bound flip cannot absorb the remaining
        // infeasibility is simply flipped to its other bound — its reduced
        // cost changes sign exactly when the dual step crosses its
        // breakpoint, so dual feasibility is preserved — and the walk
        // continues; the first column that can absorb the residual enters.
        // One dual pivot thus crosses many breakpoints, which is what makes
        // the RHS-only scenario restarts cheap when many small bounded
        // columns sit between the old and the new optimum.
        bps.clear();
        for j in 0..w.ncols() {
            if w.status[j] == VarStatus::Basic || w.ub[j] - w.lb[j] <= 0.0 {
                continue;
            }
            let mut alpha = 0.0;
            w.for_col(j, |rr, v| alpha += row[rr] * v);
            if alpha.abs() < PIVOT_TOL {
                continue;
            }
            // xb_r changes by -dir_j · t · alpha_j when j moves by t ≥ 0 in
            // its feasible direction dir_j.
            let eligible = match (w.status[j], below_lb) {
                // Need xb_r to increase.
                (VarStatus::AtLower, true) => alpha < 0.0,
                (VarStatus::AtUpper, true) => alpha > 0.0,
                // Need xb_r to decrease.
                (VarStatus::AtLower, false) => alpha > 0.0,
                (VarStatus::AtUpper, false) => alpha < 0.0,
                (VarStatus::FreeZero, _) => true,
                _ => false,
            };
            if !eligible {
                continue;
            }
            let d = cost[j] - w.col_dot(j, &y);
            bps.push(((d / alpha).abs(), j as u32, alpha));
        }
        // Deterministic walk order: ratio ascending, near-ties broken toward
        // the larger |alpha| (more stable pivot), then the column index.
        bps.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    b.2.abs().partial_cmp(&a.2.abs()).unwrap_or(std::cmp::Ordering::Equal)
                })
                .then(a.1.cmp(&b.1))
        });
        let target = if below_lb { w.lb[w.basis[r]] } else { w.ub[w.basis[r]] };
        let mut need_abs = (target - w.xb[r]).abs();
        let mut enter_q: Option<usize> = None;
        flipped.clear();
        for &(_, cj, alpha) in bps.iter() {
            let j = cj as usize;
            let range = w.ub[j] - w.lb[j];
            // A full flip of j moves xb_r by range · |alpha| in the
            // repairing direction; infinite for free / one-sided columns.
            let gain = range * alpha.abs();
            if gain.is_finite() && gain < need_abs - FEAS_TOL {
                need_abs -= gain;
                flipped.push(j);
            } else {
                enter_q = Some(j);
                break;
            }
        }
        let q = match enter_q {
            Some(q) => q,
            // No eligible column at all, or every one flipped with residual
            // infeasibility left: the dual is unbounded ⇒ primal infeasible.
            None => return Ok(DualEnd::PrimalInfeasible),
        };
        if !flipped.is_empty() {
            // Apply all bound flips with a single dense FTRAN: accumulate
            // the RHS shift Σ_j a_j Δx_j, solve B·d = shift, move the basics.
            for dv in delta.iter_mut() {
                *dv = 0.0;
            }
            for &j in &flipped {
                let range = w.ub[j] - w.lb[j];
                let dx = match w.status[j] {
                    VarStatus::AtLower => {
                        w.status[j] = VarStatus::AtUpper;
                        range
                    }
                    VarStatus::AtUpper => {
                        w.status[j] = VarStatus::AtLower;
                        -range
                    }
                    _ => 0.0, // unreachable: only doubly-bounded columns flip
                };
                w.for_col(j, |rr, v| delta[rr] += v * dx);
            }
            w.engine.ftran_dense(&delta, &mut ftd);
            for i in 0..m {
                w.xb[i] -= ftd[i];
            }
            flexile_obs::add("lp.dual_bound_flips", flipped.len() as u64);
        }

        // Primal step: move q so that xb_r lands exactly on its violated
        // bound (xb_r re-read after the flips shifted it). dir and step
        // follow from alpha's sign.
        let col = {
            let mut entries = Vec::new();
            w.for_col(q, |rr, v| entries.push((rr as u32, v)));
            SparseCol::from_entries(entries)
        };
        w.engine.ftran(&col, &mut ftran);
        // xb_r + (-dir t alpha) = target, with |ftran[r]| == |alpha|.
        let need = target - w.xb[r];
        let dir_t = -need / ftran[r]; // dir * t
        let start = w.nonbasic_value(q);
        for i in 0..m {
            w.xb[i] -= dir_t * ftran[i];
        }
        let leaving = w.basis[r];
        w.status[leaving] = if below_lb { VarStatus::AtLower } else { VarStatus::AtUpper };
        w.basis[r] = q;
        w.status[q] = VarStatus::Basic;
        w.xb[r] = start + dir_t;
        w.engine.update(&ftran, r)?;
        w.pivots_since_refactor += 1;
        if w.pivots_since_refactor >= refactor_every {
            w.refactorize()?;
        }
    })();
    scratch.put(y);
    scratch.put(cb);
    scratch.put(row);
    scratch.put(ftran);
    scratch.put(delta);
    scratch.put(ftd);
    result
}

/// Whether the current basis is dual feasible for `cost` (reduced costs
/// have the right sign for every nonbasic status). Takes `&mut Work` only
/// because the engine's BTRAN reuses internal scratch space.
fn dual_feasible(w: &mut Work, cost: &[f64]) -> bool {
    let m = w.m;
    let mut cb = vec![0.0; m];
    for (i, &j) in w.basis.iter().enumerate() {
        cb[i] = cost[j];
    }
    let mut y = vec![0.0; m];
    w.engine.btran(&cb, &mut y);
    for j in 0..w.ncols() {
        if w.status[j] == VarStatus::Basic || w.ub[j] - w.lb[j] <= 0.0 {
            continue;
        }
        let d = cost[j] - w.col_dot(j, &y);
        let ok = match w.status[j] {
            VarStatus::AtLower => d >= -DUAL_TOL * 10.0,
            VarStatus::AtUpper => d <= DUAL_TOL * 10.0,
            VarStatus::FreeZero => d.abs() <= DUAL_TOL * 10.0,
            VarStatus::Basic => true,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// One solve attempt, cold or warm from `warm`: exactly one
/// fault-injection poll, no retry. Each rung of [`crate::solve_robust`] is
/// one call.
pub(crate) fn attempt(
    model: &Model,
    opts: &SimplexOptions,
    warm: Option<&Basis>,
    mode: Mode,
) -> Result<Solution, LpError> {
    let mut scratch = SolveScratch::new();
    match warm {
        None => solve_cold(model, opts, mode, &mut scratch, true),
        Some(_) => solve_attempt_traced(model, opts, warm, mode, false, &mut scratch, true)
            .map(|(sol, _)| sol),
    }
}

/// The RHS-only restart behind [`crate::Model::solve_rhs_restart`]: one
/// attempt at the default mode that skips the dual-feasibility scan.
pub(crate) fn rhs_restart(
    model: &Model,
    opts: &SimplexOptions,
    warm: &Basis,
    scratch: &mut SolveScratch,
) -> Result<(Solution, RestartKind), LpError> {
    solve_attempt_traced(model, opts, Some(warm), Mode::DEFAULT, true, scratch, true)
}

/// One cold attempt: presolve when enabled, then the two-phase simplex from
/// the all-slack basis. Presolve runs on cold solves only (a warm basis
/// addresses the full column space) and never on the Bland-safe path, which
/// must run the textbook algorithm unmodified. With `poll`, exactly one
/// fault-injection poll happens either way: `try_solve_presolved` polls
/// (directly for terminal presolve outcomes, via the inner reduced solve
/// otherwise), and when it declines with `None` the poll happens in
/// `solve_attempt_traced` below. An abandoned warm restart finishes here
/// with `poll` off, its attempt having polled already.
fn solve_cold(
    model: &Model,
    opts: &SimplexOptions,
    mode: Mode,
    scratch: &mut SolveScratch,
    poll: bool,
) -> Result<Solution, LpError> {
    if opts.presolve && !mode.bland {
        if let Some(sol) = crate::presolve::try_solve_presolved(model, opts, mode, poll)? {
            return Ok(sol);
        }
    }
    solve_attempt_traced(model, opts, None, mode, false, scratch, poll).map(|(sol, _)| sol)
}

/// Solve an already-presolved model directly, bypassing the presolve hook
/// (recursing through it would re-run the reductions on their own output).
pub(crate) fn solve_reduced(
    model: &Model,
    opts: &SimplexOptions,
    mode: Mode,
    poll: bool,
) -> Result<Solution, LpError> {
    let mut scratch = SolveScratch::new();
    solve_attempt_traced(model, opts, None, mode, false, &mut scratch, poll).map(|(sol, _)| sol)
}

fn solve_attempt_traced(
    model: &Model,
    opts: &SimplexOptions,
    warm: Option<&Basis>,
    mode: Mode,
    rhs_only: bool,
    scratch: &mut SolveScratch,
    poll: bool,
) -> Result<(Solution, RestartKind), LpError> {
    let refactor_every = mode.refactor_every;
    if poll {
        if let Some(kind) = crate::fault::poll() {
            return Err(kind.to_error());
        }
    }
    let ctl = PhaseCtl {
        bland: mode.bland,
        pricing: resolve_pricing(opts.pricing, model, warm.is_some()),
    };
    let n = model.num_vars();
    let m = model.num_rows();
    let mut solve_span = flexile_obs::span("lp.solve", "lp").field("rows", m).field("cols", n);
    for j in 0..n {
        if model.lb[j] > model.ub[j] + 1e-12 {
            return Err(LpError::BadModel(format!(
                "variable {} has lb {} > ub {}",
                model.names[j], model.lb[j], model.ub[j]
            )));
        }
    }

    // Minimization form.
    let sign = match model.sense {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };

    // Column bounds: structural then slacks.
    let mut lb = Vec::with_capacity(n + m);
    let mut ub = Vec::with_capacity(n + m);
    lb.extend_from_slice(&model.lb);
    ub.extend_from_slice(&model.ub);
    for i in 0..m {
        match model.row_cmp[i] {
            Cmp::Le => {
                lb.push(0.0);
                ub.push(f64::INFINITY);
            }
            Cmp::Ge => {
                lb.push(f64::NEG_INFINITY);
                ub.push(0.0);
            }
            Cmp::Eq => {
                lb.push(0.0);
                ub.push(0.0);
            }
        }
    }
    let mut cost2 = vec![0.0; n + m];
    for j in 0..n {
        cost2[j] = sign * model.obj[j];
    }

    let mut w = Work {
        model,
        n,
        m,
        arts: Vec::new(),
        lb,
        ub,
        cost2,
        basis: (n..n + m).collect(),
        status: Vec::new(),
        engine: make_engine(opts.engine),
        xb: vec![0.0; m],
        rhs_scratch: Vec::with_capacity(m),
        pivots_since_refactor: 0,
    };

    let max_iters = if opts.max_iters == 0 {
        50 * (n + m) + 10_000
    } else {
        opts.max_iters
    };
    let mut budget = max_iters;
    let mut total_iters = 0usize;

    // Try the warm basis first.
    let mut warm_ok = false;
    let mut restart_kind = RestartKind::Cold;
    if let Some(b) = warm {
        if b.basis.len() == m
            && b.status.len() >= n + m
            && b.basis.iter().all(|&j| j < n + m)
        {
            w.basis = b.basis.clone();
            w.status = b.status[..n + m].to_vec();
            // Repair statuses against possibly-changed bounds.
            for j in 0..n + m {
                if w.status[j] == VarStatus::Basic {
                    continue;
                }
                w.status[j] = initial_status(w.lb[j], w.ub[j], w.status[j]);
            }
            if w.refactorize().is_ok() {
                if w.primal_infeas() <= 1e-6 {
                    warm_ok = true;
                    restart_kind = RestartKind::PrimalWarm;
                } else {
                    // RHS/bound changes broke primal feasibility. If the
                    // basis is still dual feasible (always true when only
                    // the RHS changed — the cross-scenario case, which the
                    // caller can assert via `rhs_only` to skip the scan),
                    // restore feasibility with dual-simplex pivots.
                    let cost_now = {
                        let mut c = w.cost2.clone();
                        c.resize(w.ncols(), 0.0);
                        c
                    };
                    if rhs_only || dual_feasible(&mut w, &cost_now) {
                        flexile_obs::add("lp.dual_restarts", 1);
                        let dual_from = total_iters;
                        // The repair runs under the restart cap; whatever it
                        // spends also comes out of the attempt's budget.
                        let cap = restart_pivot_cap(n, m);
                        let capped = cap < budget;
                        let mut dual_budget = budget.min(cap);
                        let end = run_dual_phase(
                            &mut w,
                            &cost_now,
                            &mut dual_budget,
                            &mut total_iters,
                            refactor_every,
                            scratch,
                        );
                        let spent = total_iters - dual_from;
                        budget -= spent;
                        match end {
                            Ok(DualEnd::Feasible) => {
                                warm_ok = true;
                                restart_kind = RestartKind::DualRestart;
                            }
                            Ok(DualEnd::PrimalInfeasible) => return Err(LpError::Infeasible),
                            Ok(DualEnd::IterLimit) if capped => {
                                // Runaway repair: drop the basis and finish
                                // with the cold solve `solve` would run.
                                flexile_obs::add("lp.pivots.dual", spent as u64);
                                flexile_obs::add("lp.restart_abandoned", 1);
                                flexile_obs::add("lp.warm.miss", 1);
                                solve_span.set("abandoned", spent);
                                drop(solve_span);
                                let mut sol = solve_cold(model, opts, mode, scratch, false)?;
                                sol.iterations += spent;
                                return Ok((sol, RestartKind::Cold));
                            }
                            Ok(DualEnd::IterLimit) => {}
                            Err(_) => {} // fall back to a cold start
                        }
                        flexile_obs::add("lp.pivots.dual", spent as u64);
                    }
                }
            }
        }
    }

    if warm.is_some() {
        flexile_obs::add(if warm_ok { "lp.warm.hit" } else { "lp.warm.miss" }, 1);
    }

    if !warm_ok {
        // Cold start: all-slack basis, structurals at the bound nearest zero.
        w.basis = (n..n + m).collect();
        w.status = (0..n + m)
            .map(|j| {
                if j >= n {
                    VarStatus::Basic
                } else {
                    initial_status(w.lb[j], w.ub[j], VarStatus::AtLower)
                }
            })
            .collect();
        // Crash: greedily flip doubly-bounded structurals to whichever bound
        // leaves fewer slack rows violated, so fewer artificials get
        // installed below and phase 1 starts near-feasible. Statuses are
        // only rewritten where the crash actually chose a different side.
        if !ctl.bland {
            let mut at_upper: Vec<bool> =
                (0..n).map(|j| w.status[j] == VarStatus::AtUpper).collect();
            let stats = crate::crash::bound_shift(model, &w.lb, &w.ub, &mut at_upper);
            if stats.flips > 0 {
                for j in 0..n {
                    let cur_up = w.status[j] == VarStatus::AtUpper;
                    if at_upper[j] != cur_up && w.status[j] != VarStatus::FreeZero {
                        w.status[j] =
                            if at_upper[j] { VarStatus::AtUpper } else { VarStatus::AtLower };
                    }
                }
                flexile_obs::add("lp.crash_basis_pivots_saved", stats.rows_fixed as u64);
            }
        }
        // B = I for the all-slack basis, so the basic values are just the
        // reduced RHS — no factorization needed to compute them.
        w.reduced_rhs();
        w.xb.copy_from_slice(&w.rhs_scratch);

        // Install artificials for slack-infeasible rows.
        let mut need_phase1 = false;
        for i in 0..m {
            let s = n + i;
            let v = w.xb[i];
            if v > w.ub[s] + FEAS_TOL {
                // Slack forced to its upper bound; artificial absorbs v - ub.
                let excess = v - w.ub[s];
                w.status[s] = VarStatus::AtUpper;
                let a = w.ncols();
                w.arts.push((i, 1.0));
                w.lb.push(0.0);
                w.ub.push(f64::INFINITY);
                w.cost2.push(0.0);
                w.status.push(VarStatus::Basic);
                w.basis[i] = a;
                w.xb[i] = excess;
                need_phase1 = true;
            } else if v < w.lb[s] - FEAS_TOL {
                let deficit = w.lb[s] - v;
                w.status[s] = VarStatus::AtLower;
                let a = w.ncols();
                w.arts.push((i, -1.0));
                w.lb.push(0.0);
                w.ub.push(f64::INFINITY);
                w.cost2.push(0.0);
                w.status.push(VarStatus::Basic);
                w.basis[i] = a;
                w.xb[i] = deficit;
                need_phase1 = true;
            }
        }
        // Factorize the (possibly artificial-patched ±identity) start basis
        // so the engine is live before the first pivot. Cannot fail: every
        // column is a signed unit vector.
        w.refactorize()?;

        if need_phase1 {
            let mut cost1 = vec![0.0; w.ncols()];
            for j in n + m..w.ncols() {
                cost1[j] = 1.0;
            }
            let p1_from = total_iters;
            match run_phase(&mut w, &cost1, &mut budget, &mut total_iters, refactor_every, ctl, scratch)?
            {
                PhaseEnd::Optimal => {}
                PhaseEnd::Unbounded => {
                    return Err(LpError::Numerical("phase 1 unbounded".into()))
                }
                PhaseEnd::IterLimit => return Err(LpError::IterationLimit),
            }
            flexile_obs::add("lp.pivots.phase1", (total_iters - p1_from) as u64);
            let infeas = w.objective_of(&cost1);
            if infeas > 1e-6 {
                return Err(LpError::Infeasible);
            }
            // Freeze artificials at zero for phase 2.
            for j in n + m..w.ncols() {
                w.lb[j] = 0.0;
                w.ub[j] = 0.0;
                if w.status[j] != VarStatus::Basic {
                    w.status[j] = VarStatus::AtLower;
                }
            }
        }
    }

    // Phase 2.
    let cost2 = {
        let mut c = w.cost2.clone();
        c.resize(w.ncols(), 0.0);
        c
    };
    let p2_from = total_iters;
    match run_phase(&mut w, &cost2, &mut budget, &mut total_iters, refactor_every, ctl, scratch)? {
        PhaseEnd::Optimal => {}
        PhaseEnd::Unbounded => return Err(LpError::Unbounded),
        PhaseEnd::IterLimit => return Err(LpError::IterationLimit),
    }
    flexile_obs::add("lp.pivots.phase2", (total_iters - p2_from) as u64);

    // Numerical hygiene: refactorize once and verify — but only when eta
    // updates have actually accumulated since the last factorization. A
    // solve that ended on a refactorization boundary (or did no pivots at
    // all, the common warm-hit case) has a fresh factorization with nothing
    // to verify, and the redundant rebuild was a measurable fraction of the
    // 1.2M refactorizations in a Sprint pool-policy run.
    if w.pivots_since_refactor > 0 {
        w.refactorize()?;
        if w.primal_infeas() > 1e-5 {
            return Err(LpError::Numerical(format!(
                "primal infeasibility {} after optimization",
                w.primal_infeas()
            )));
        }
    }

    // Extract the solution.
    let mut x = vec![0.0; n];
    for j in 0..n {
        if w.status[j] != VarStatus::Basic {
            x[j] = w.nonbasic_value(j);
        }
    }
    for (i, &j) in w.basis.iter().enumerate() {
        if j < n {
            x[j] = w.xb[i];
        }
    }
    // Duals: y = c_B^T B⁻¹ in min form; flip for Max.
    let mut cb = scratch.grab(m);
    for (i, &j) in w.basis.iter().enumerate() {
        cb[i] = cost2[j];
    }
    let mut y = vec![0.0; m];
    w.engine.btran(&cb, &mut y);
    scratch.put(cb);
    if sign < 0.0 {
        y.iter_mut().for_each(|v| *v = -*v);
    }

    flexile_obs::observe("lp.solve_us", solve_span.elapsed_us() as f64);
    solve_span.set("iterations", total_iters);
    let objective = model.eval_objective(&x);
    let basis = Basis {
        basis: w.basis.clone(),
        status: w.status[..n + m].to_vec(),
    };
    Ok((
        Solution {
            status: SolveStatus::Optimal,
            x,
            objective,
            duals: y,
            iterations: total_iters,
            basis,
        },
        restart_kind,
    ))
}

fn initial_status(lb: f64, ub: f64, prefer: VarStatus) -> VarStatus {
    match (lb.is_finite(), ub.is_finite()) {
        (true, true) => {
            if prefer == VarStatus::AtUpper {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            }
        }
        (true, false) => VarStatus::AtLower,
        (false, true) => VarStatus::AtUpper,
        (false, false) => VarStatus::FreeZero,
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{Model, Sense};
    use super::{Basis, Solution};
    use crate::SolveScratch;

    /// One RHS-only restart on fresh scratch buffers.
    fn restart(
        m: &Model,
        opts: &crate::SimplexOptions,
        warm: &super::Basis,
    ) -> Result<(super::Solution, super::RestartKind), crate::LpError> {
        m.solve_rhs_restart(opts, warm, &mut SolveScratch::new())
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn simple_max() {
        // max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2,6)
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        m.add_row_le(&[(y, 2.0)], 12.0);
        m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn min_with_ge_rows_needs_phase1() {
        // min 2x + 3y st x + y >= 10, x >= 2, y >= 3 -> x=7,y=3 obj 23
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_row_ge(&[(x, 1.0), (y, 1.0)], 10.0);
        m.add_row_ge(&[(x, 1.0)], 2.0);
        m.add_row_ge(&[(y, 1.0)], 3.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 23.0);
    }

    #[test]
    fn equality_rows() {
        // min x + y st x + 2y = 4, x - y = 1 -> x=2, y=1
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_row_eq(&[(x, 1.0), (y, 2.0)], 4.0);
        m.add_row_eq(&[(x, 1.0), (y, -1.0)], 1.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_row_ge(&[(x, 1.0)], 2.0);
        assert!(matches!(m.solve(), Err(crate::LpError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_row_ge(&[(x, 1.0), (y, -1.0)], 0.0);
        assert!(matches!(m.solve(), Err(crate::LpError::Unbounded)));
    }

    #[test]
    fn bounded_variables_and_flips() {
        // max x + y with 0<=x<=2, 0<=y<=3, x + y <= 4 -> (1,3) or (2,2), obj 4
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 2.0, 1.0);
        let y = m.add_var("y", 0.0, 3.0, 1.0);
        m.add_row_le(&[(x, 1.0), (y, 1.0)], 4.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn free_variable() {
        // min |structure|: x free, min x st x >= -5 -> x = -5
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_row_ge(&[(x, 1.0)], -5.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), -5.0);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y with x in [-3, -1], y in [2, 10], x + y >= 0
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", -3.0, -1.0, 1.0);
        let y = m.add_var("y", 2.0, 10.0, 1.0);
        m.add_row_ge(&[(x, 1.0), (y, 1.0)], 0.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn duals_shadow_price() {
        // max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18; duals: 0, 1.5, 1
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        let r1 = m.add_row_le(&[(x, 1.0)], 4.0);
        let r2 = m.add_row_le(&[(y, 2.0)], 12.0);
        let r3 = m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s = m.solve().unwrap();
        assert_close(s.dual(r1), 0.0);
        assert_close(s.dual(r2), 1.5);
        assert_close(s.dual(r3), 1.0);
    }

    #[test]
    fn warm_start_reuses_basis() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        let r2 = m.add_row_le(&[(y, 2.0)], 12.0);
        m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s1 = m.solve().unwrap();
        // Perturb the RHS slightly and re-solve warm: should take few iters.
        m.set_rhs(r2, 11.0);
        let s2 = m
            .solve_with(&crate::SimplexOptions::default(), Some(&s1.basis))
            .unwrap();
        assert_close(s2.objective, 3.0 * (7.0 / 3.0) + 5.0 * 5.5);
        assert!(s2.iterations <= s1.iterations + 2);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classically degenerate LP (multiple rows binding at the origin).
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 0.75);
        let y = m.add_var("y", 0.0, f64::INFINITY, -150.0);
        let z = m.add_var("z", 0.0, f64::INFINITY, 0.02);
        let u = m.add_var("u", 0.0, f64::INFINITY, -6.0);
        m.add_row_le(&[(x, 0.25), (y, -60.0), (z, -0.04), (u, 9.0)], 0.0);
        m.add_row_le(&[(x, 0.5), (y, -90.0), (z, -0.02), (u, 3.0)], 0.0);
        m.add_row_le(&[(z, 1.0)], 1.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn negative_rhs_le_row_needs_negative_artificial() {
        // Regression: a `<=` row with negative RHS starts with a deficit
        // slack and needs a -1 artificial; the basis inverse must flip
        // that row's sign. min x + y st -x - y <= -15, x,y <= 10.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_row_le(&[(x, -1.0), (y, -1.0)], -15.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 15.0);
        assert!(m.max_violation(&s.x) < 1e-6);
    }

    #[test]
    fn dual_simplex_restores_feasibility_after_rhs_cut() {
        // Tighten a binding RHS: the warm basis goes primal infeasible but
        // stays dual feasible, so the dual phase should repair it in a few
        // pivots and agree with the cold solve.
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        let r2 = m.add_row_le(&[(y, 2.0)], 12.0);
        let r3 = m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s1 = m.solve().unwrap();
        // Capacity drop, as when a scenario fails links: both rows tighten.
        m.set_rhs(r2, 6.0);
        m.set_rhs(r3, 12.0);
        let warm = m
            .solve_with(&crate::SimplexOptions::default(), Some(&s1.basis))
            .unwrap();
        let cold = m.solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert!(m.max_violation(&warm.x) < 1e-6);
        assert!(
            warm.iterations <= cold.iterations,
            "dual warm restart ({}) should not exceed cold ({})",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn dual_simplex_detects_infeasible_rhs() {
        // x <= 4 tightened to an impossible combination with x >= 6.
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let r1 = m.add_row_le(&[(x, 1.0)], 10.0);
        m.add_row_ge(&[(x, 1.0)], 6.0);
        let s1 = m.solve().unwrap();
        m.set_rhs(r1, 4.0);
        let res = m.solve_with(&crate::SimplexOptions::default(), Some(&s1.basis));
        assert!(matches!(res, Err(crate::LpError::Infeasible)), "{res:?}");
    }

    #[test]
    fn rhs_sweep_warm_matches_cold() {
        // Sweep a capacity through many values (the per-scenario pattern):
        // warm-restarted objectives must track cold solves exactly.
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 8.0, 2.0);
        let y = m.add_var("y", 0.0, 8.0, 1.0);
        let cap = m.add_row_le(&[(x, 1.0), (y, 1.0)], 10.0);
        m.add_row_le(&[(x, 2.0), (y, 1.0)], 14.0);
        let mut basis = None;
        for c in [10.0, 7.5, 5.0, 2.5, 0.0, 6.0, 9.0] {
            m.set_rhs(cap, c);
            let warm = m
                .solve_with(&crate::SimplexOptions::default(), basis.as_ref())
                .unwrap();
            let cold = m.solve().unwrap();
            assert_close(warm.objective, cold.objective);
            basis = Some(warm.basis);
        }
    }

    #[test]
    fn rhs_restart_reports_primal_warm_on_unchanged_rhs() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        m.add_row_le(&[(y, 2.0)], 12.0);
        m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s1 = m.solve().unwrap();
        let (s2, kind) = restart(&m, &crate::SimplexOptions::default(), &s1.basis).unwrap();
        assert_eq!(kind, crate::simplex::RestartKind::PrimalWarm);
        assert_close(s2.objective, s1.objective);
        // At most a degenerate touch-up pivot; no cold two-phase work.
        assert!(s2.iterations <= 1, "iterations = {}", s2.iterations);
    }

    #[test]
    fn rhs_restart_reports_dual_restart_and_matches_cold() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 8.0, 2.0);
        let y = m.add_var("y", 0.0, 8.0, 1.0);
        let cap = m.add_row_le(&[(x, 1.0), (y, 1.0)], 10.0);
        m.add_row_le(&[(x, 2.0), (y, 1.0)], 14.0);
        let s1 = m.solve().unwrap();
        // Tighten the capacity: the old optimal basis goes primal infeasible
        // but stays dual feasible, so the repair must go through the dual
        // simplex — and land on the same optimum as a cold solve.
        m.set_rhs(cap, 5.0);
        let (warm, kind) = restart(&m, &crate::SimplexOptions::default(), &s1.basis).unwrap();
        assert_eq!(kind, crate::simplex::RestartKind::DualRestart);
        let cold = m.solve().unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!(m.max_violation(&warm.x) < 1e-6);
    }

    #[test]
    fn rhs_restart_detects_infeasible_rhs() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let r1 = m.add_row_le(&[(x, 1.0)], 10.0);
        m.add_row_ge(&[(x, 1.0)], 6.0);
        let s1 = m.solve().unwrap();
        m.set_rhs(r1, 4.0);
        let res = restart(&m, &crate::SimplexOptions::default(), &s1.basis);
        assert!(matches!(res, Err(crate::LpError::Infeasible)), "{res:?}");
    }

    /// Packing LP `max c·x, A x ≤ b, x ≥ 0` with its rows; deterministic
    /// coefficients from an LCG, dense enough that a deep RHS cut needs a
    /// chain of dual pivots to repair.
    fn packing_lp() -> (Model, Vec<crate::model::RowId>) {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move |lo: f64, hi: f64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64)
        };
        let mut m = Model::new(Sense::Max);
        let vars: Vec<_> = (0..12)
            .map(|j| m.add_var(&format!("x{j}"), 0.0, f64::INFINITY, next(1.0, 5.0)))
            .collect();
        let mut rows = Vec::new();
        for _ in 0..9 {
            let mut coeffs = Vec::new();
            for &v in &vars {
                if next(0.0, 1.0) < 0.6 {
                    coeffs.push((v, next(0.5, 4.0)));
                }
            }
            rows.push(m.add_row_le(&coeffs, next(20.0, 60.0)));
        }
        (m, rows)
    }

    fn with_restart_cap<T>(cap: Option<usize>, f: impl FnOnce() -> T) -> T {
        super::RESTART_CAP_OVERRIDE.with(|c| c.set(cap));
        let out = f();
        super::RESTART_CAP_OVERRIDE.with(|c| c.set(None));
        out
    }

    /// The packing LP after its warm solve, RHS cut deep, with the saved
    /// basis and the least cap under which the restart still completes.
    fn runaway_setup() -> (Model, super::Basis, usize) {
        let (mut m, rows) = packing_lp();
        let s1 = m.solve().unwrap();
        for (i, &r) in rows.iter().enumerate() {
            m.set_rhs(r, m.rhs_of(r) * if i % 2 == 0 { 0.15 } else { 0.6 });
        }
        let opts = crate::SimplexOptions::default();
        let need = (0..=m.num_vars() + m.num_rows())
            .find(|&cap| {
                let (_, kind) =
                    with_restart_cap(Some(cap), || restart(&m, &opts, &s1.basis).unwrap());
                kind == super::RestartKind::DualRestart
            })
            .expect("the restart completes under the default cap");
        (m, s1.basis, need)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn restart_past_cap_is_bitwise_the_cold_solve() {
        let (m, warm, need) = runaway_setup();
        assert!(need >= 3, "the cut must take a chain of dual pivots, took {need}");
        let opts = crate::SimplexOptions::default();
        let cold = m.solve_with(&opts, None).unwrap();
        let (rhs_path, kind) =
            with_restart_cap(Some(need - 1), || restart(&m, &opts, &warm).unwrap());
        let general_path =
            with_restart_cap(Some(need - 1), || m.solve_with(&opts, Some(&warm)).unwrap());
        assert_eq!(kind, super::RestartKind::Cold);
        for sol in [&rhs_path, &general_path] {
            assert_eq!(bits(&sol.x), bits(&cold.x));
            assert_eq!(bits(&sol.duals), bits(&cold.duals));
            assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
            assert_eq!(sol.basis.fingerprint(), cold.basis.fingerprint());
            // The abandoned repair's pivots are still accounted.
            assert_eq!(sol.iterations, cold.iterations + need - 1);
        }
    }

    #[test]
    fn restart_under_cap_keeps_its_pivots() {
        let (m, warm, need) = runaway_setup();
        let opts = crate::SimplexOptions::default();
        let (free, free_kind) = restart(&m, &opts, &warm).unwrap();
        let (capped, kind) =
            with_restart_cap(Some(need), || restart(&m, &opts, &warm).unwrap());
        assert_eq!(free_kind, super::RestartKind::DualRestart);
        assert_eq!(kind, super::RestartKind::DualRestart);
        assert_eq!(capped.iterations, free.iterations);
        assert_eq!(bits(&capped.x), bits(&free.x));
        assert_eq!(capped.basis.fingerprint(), free.basis.fingerprint());
    }

    #[test]
    fn fixed_variable_is_respected() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 2.0, 2.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_row_le(&[(x, 1.0), (y, 1.0)], 5.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 3.0);
    }

    /// Solve on `opts.engine` alone: the ladder's rungs 3 and 4 switch to
    /// the dense oracle, so no attempt may reach them.
    fn solve_on(m: &Model, opts: &crate::SimplexOptions, warm: Option<&Basis>) -> Solution {
        let out = crate::solve_robust(m, opts, warm);
        assert!(
            out.report.attempts.iter().all(|a| a.rung.on_caller_engine()),
            "{:?} solve left its engine: {:?}",
            opts.engine,
            out.report.attempts
        );
        out.result.unwrap()
    }

    #[test]
    fn dense_engine_remains_selectable() {
        use crate::basis::EngineKind;
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        m.add_row_le(&[(y, 2.0)], 12.0);
        m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let opts = crate::SimplexOptions { engine: EngineKind::Dense, ..Default::default() };
        let dense = solve_on(&m, &opts, None);
        let lu = solve_on(&m, &crate::SimplexOptions::default(), None);
        assert_close(dense.objective, 36.0);
        assert!((dense.objective - lu.objective).abs() < 1e-9);
        for (a, b) in dense.x.iter().zip(lu.x.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in dense.duals.iter().zip(lu.duals.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_basis_transfers_between_engines() {
        // A basis snapshot is representation-free: a solve on one engine can
        // warm-start the other.
        use crate::basis::EngineKind;
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        let r2 = m.add_row_le(&[(y, 2.0)], 12.0);
        m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let dense_opts =
            crate::SimplexOptions { engine: EngineKind::Dense, ..Default::default() };
        let s1 = solve_on(&m, &dense_opts, None);
        m.set_rhs(r2, 11.0);
        let s2 = solve_on(&m, &crate::SimplexOptions::default(), Some(&s1.basis));
        assert_close(s2.objective, 3.0 * (7.0 / 3.0) + 5.0 * 5.5);
        assert!(s2.iterations <= s1.iterations + 2);
    }
}
