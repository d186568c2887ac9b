//! LP presolve / postsolve.
//!
//! Reduces a model before the simplex sees it and reconstructs the full
//! primal *and* dual solution afterwards, so callers (warm bases, Benders
//! cut extraction, `SolveReport`) cannot tell the reduction happened. The
//! reductions are chosen for the structure of Flexile's LPs — branch-and-
//! bound node relaxations fix many binary columns, capacity rows are
//! all-positive `≤` rows over bounded tunnel variables — and, crucially,
//! for *exact dual recovery*:
//!
//! * **Fixed columns** (`lb == ub`, including columns fixed by branching):
//!   substituted into the RHS and removed. Duals are unaffected.
//! * **Empty rows** (no live columns): checked for feasibility, removed
//!   with dual 0.
//! * **Singleton rows** (one live column): converted to a bound on that
//!   column and removed. If the implied bound ends up binding, the row's
//!   dual is repaired from the column's full-space reduced cost.
//! * **Empty columns** (no live rows): moved to their cost-optimal bound
//!   (detecting unboundedness), then removed as fixed.
//! * **Bound tightening** on all-positive `≤` rows whose live columns all
//!   have finite lower bounds (the capacity-row pattern): implied upper
//!   bounds are recorded with their source row so a binding implied bound
//!   can hand its reduced cost back to that row's dual.
//!
//! Dual repair runs in two passes — tightening-derived bounds first, then
//! singleton-row bounds. A binding tightening-implied bound forces every
//! other column of its source row to *its* lower bound, so the repair only
//! pushes those columns' reduced costs upward (feasible at a lower bound in
//! minimization form) and any residual is absorbed by the second pass,
//! which touches one column per (removed singleton) row by construction.

use crate::error::LpError;
use crate::model::{Cmp, Model, Sense};
use crate::simplex::{Basis, Mode, SimplexOptions, Solution, SolveStatus, VarStatus};
use crate::sparse::{ColMatrix, SparseCol};
use crate::tol::FEAS_TOL;

/// Tolerance for treating a bound pair as fixed.
const FIX_TOL: f64 = 1e-11;
/// Reduced-cost magnitude worth repairing into a dual.
const REPAIR_TOL: f64 = 1e-9;
/// Minimum relative improvement for a capacity-row bound tightening; keeps
/// the fixpoint loop finitely terminating and skips noise-level changes.
const TIGHTEN_TOL: f64 = 1e-7;
/// Cap on fixpoint passes (each pass is O(nnz); real models converge in 2-3).
const MAX_PASSES: usize = 10;

/// Where a working bound came from (for exact dual postsolve).
#[derive(Debug, Clone, Copy)]
enum BoundSrc {
    /// The model's own bound; nothing to repair.
    Original,
    /// Implied by a removed singleton row `(row, coeff)`.
    Singleton(u32, f64),
    /// Implied by a kept all-positive `≤` row `(row, coeff)`.
    Tightened(u32, f64),
}

/// A reduced model plus everything needed to restore the original solution.
pub(crate) struct Reduction {
    reduced: Model,
    kept_cols: Vec<u32>,
    kept_rows: Vec<u32>,
    /// `Some(value)` for each column removed at a known value.
    fixed: Vec<Option<f64>>,
    row_kept: Vec<bool>,
    /// Final working bounds (tightened) in original column space.
    tlb: Vec<f64>,
    tub: Vec<f64>,
    lb_src: Vec<BoundSrc>,
    ub_src: Vec<BoundSrc>,
    /// `(row, col)` for each singleton-row removal, in removal order.
    /// Postsolve repairs these duals in *reverse* so chained removals
    /// (a fixing that creates the next singleton) see final duals.
    singleton_log: Vec<(u32, u32)>,
    /// `+1` for Min, `-1` for Max (minimization-form sign).
    sign: f64,
    removed_cols: u64,
    removed_rows: u64,
}

/// Outcome of [`reduce`].
enum Presolved {
    /// Nothing worth reducing; solve the original model directly.
    Unreduced,
    Infeasible,
    Unbounded,
    /// Everything was eliminated; the solution is fully determined.
    Solved(Reduction),
    Reduced(Reduction),
}

/// Presolve + solve + postsolve. Returns `Ok(None)` when presolve found
/// nothing useful (the caller then runs the ordinary path on the original
/// model). With `poll`, exactly one fault-injection poll happens per call,
/// matching the one-poll-per-attempt contract of the plain solve path;
/// without it, none (the caller's attempt already polled).
pub(crate) fn try_solve_presolved(
    model: &Model,
    opts: &SimplexOptions,
    mode: Mode,
    poll: bool,
) -> Result<Option<Solution>, LpError> {
    // Malformed bounds are left to the main path so the error (and the
    // fault-poll sequence) is byte-identical with presolve disabled.
    for j in 0..model.num_vars() {
        if model.lb[j] > model.ub[j] + 1e-12 {
            return Ok(None);
        }
    }
    let fault = || -> Result<(), LpError> {
        match poll.then(crate::fault::poll).flatten() {
            Some(kind) => Err(kind.to_error()),
            None => Ok(()),
        }
    };
    match reduce(model)? {
        Presolved::Unreduced => Ok(None),
        Presolved::Infeasible => {
            fault()?;
            Err(LpError::Infeasible)
        }
        Presolved::Unbounded => {
            fault()?;
            Err(LpError::Unbounded)
        }
        Presolved::Solved(red) => {
            fault()?;
            red.observe();
            Ok(Some(red.postsolve(model, None)))
        }
        Presolved::Reduced(red) => {
            red.observe();
            let inner = SimplexOptions { presolve: false, ..*opts };
            let rsol = crate::simplex::solve_reduced(&red.reduced, &inner, mode, poll)?;
            Ok(Some(red.postsolve(model, Some(rsol))))
        }
    }
}

/// Run the reduction fixpoint loop.
fn reduce(model: &Model) -> Result<Presolved, LpError> {
    let n = model.num_vars();
    let m = model.num_rows();
    let sign = match model.sense {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };

    // The model is column-major; the reductions also walk rows.
    let rows = model.cols.by_row();

    let mut tlb = model.lb.clone();
    let mut tub = model.ub.clone();
    let mut rhs = model.rhs.clone();
    let mut live_col = vec![true; n];
    let mut live_row = vec![true; m];
    let mut col_live = vec![0usize; n];
    let mut row_live = vec![0usize; m];
    for (i, live) in row_live.iter_mut().enumerate() {
        let row = rows.row(i);
        *live = row.len();
        for &(j, _) in row {
            col_live[j as usize] += 1;
        }
    }
    let mut fixed = vec![None; n];
    let mut lb_src = vec![BoundSrc::Original; n];
    let mut ub_src = vec![BoundSrc::Original; n];
    let mut singleton_log: Vec<(u32, u32)> = Vec::new();
    let mut removed_cols = 0u64;
    let mut removed_rows = 0u64;
    let mut tightened = 0u64;

    for _pass in 0..MAX_PASSES {
        let mut changed = false;

        // Fix pinched columns and empty columns.
        for j in 0..n {
            if !live_col[j] {
                continue;
            }
            if tlb[j] > tub[j] + FEAS_TOL * (1.0 + tlb[j].abs()) {
                return Ok(Presolved::Infeasible);
            }
            let val = if tub[j] - tlb[j] <= FIX_TOL && tlb[j].is_finite() {
                tlb[j]
            } else if col_live[j] == 0 {
                // No live rows: the column moves straight to its
                // cost-optimal bound (minimization form).
                let cost = sign * model.obj[j];
                if cost > REPAIR_TOL {
                    if !tlb[j].is_finite() {
                        return Ok(Presolved::Unbounded);
                    }
                    tlb[j]
                } else if cost < -REPAIR_TOL {
                    if !tub[j].is_finite() {
                        return Ok(Presolved::Unbounded);
                    }
                    tub[j]
                } else {
                    // Cost-free: match the cold start's resting point.
                    match (tlb[j].is_finite(), tub[j].is_finite()) {
                        (true, _) => tlb[j],
                        (false, true) => tub[j],
                        (false, false) => 0.0,
                    }
                }
            } else {
                continue;
            };
            live_col[j] = false;
            fixed[j] = Some(val);
            removed_cols += 1;
            changed = true;
            for (i, a) in model.cols.col(j).iter() {
                if live_row[i] && a != 0.0 {
                    rhs[i] -= a * val;
                    row_live[i] -= 1;
                }
            }
        }

        // Empty and singleton rows.
        for i in 0..m {
            if !live_row[i] {
                continue;
            }
            if row_live[i] == 0 {
                let ok = match model.row_cmp[i] {
                    Cmp::Le => rhs[i] >= -FEAS_TOL,
                    Cmp::Ge => rhs[i] <= FEAS_TOL,
                    Cmp::Eq => rhs[i].abs() <= FEAS_TOL,
                };
                if !ok {
                    return Ok(Presolved::Infeasible);
                }
            } else if row_live[i] == 1 {
                let &(jc, a) = rows
                    .row(i)
                    .iter()
                    .find(|&&(jc, _)| live_col[jc as usize])
                    .expect("live count says one column");
                let j = jc as usize;
                if a.abs() < 1e-12 {
                    continue; // numerically void; leave the row alone
                }
                let v = rhs[i] / a;
                let (imp_lb, imp_ub) = match (model.row_cmp[i], a > 0.0) {
                    (Cmp::Le, true) | (Cmp::Ge, false) => (None, Some(v)),
                    (Cmp::Le, false) | (Cmp::Ge, true) => (Some(v), None),
                    (Cmp::Eq, _) => (Some(v), Some(v)),
                };
                if let Some(lo) = imp_lb {
                    if lo > tlb[j] {
                        tlb[j] = lo;
                        lb_src[j] = BoundSrc::Singleton(i as u32, a);
                    }
                }
                if let Some(hi) = imp_ub {
                    if hi < tub[j] {
                        tub[j] = hi;
                        ub_src[j] = BoundSrc::Singleton(i as u32, a);
                    }
                }
                singleton_log.push((i as u32, jc));
            } else {
                continue;
            }
            live_row[i] = false;
            removed_rows += 1;
            changed = true;
            for &(jc, _) in rows.row(i) {
                if live_col[jc as usize] {
                    col_live[jc as usize] -= 1;
                }
            }
        }

        // Capacity-pattern bound tightening: all-positive `≤` rows whose
        // live columns all have finite lower bounds imply upper bounds.
        for i in 0..m {
            if !live_row[i] || row_live[i] < 2 || model.row_cmp[i] != Cmp::Le {
                continue;
            }
            let mut act_min = 0.0;
            let mut eligible = true;
            for &(jc, a) in rows.row(i) {
                let j = jc as usize;
                if !live_col[j] {
                    continue;
                }
                if a <= 0.0 || !tlb[j].is_finite() {
                    eligible = false;
                    break;
                }
                act_min += a * tlb[j];
            }
            if !eligible {
                continue;
            }
            if act_min > rhs[i] + FEAS_TOL * (1.0 + rhs[i].abs()) {
                return Ok(Presolved::Infeasible);
            }
            let slack = (rhs[i] - act_min).max(0.0);
            for &(jc, a) in rows.row(i) {
                let j = jc as usize;
                if !live_col[j] {
                    continue;
                }
                let imp = tlb[j] + slack / a;
                if imp < tub[j] && (tub[j] - imp) > TIGHTEN_TOL * (1.0 + imp.abs()) {
                    tub[j] = imp;
                    ub_src[j] = BoundSrc::Tightened(i as u32, a);
                    tightened += 1;
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }

    if removed_cols == 0 && removed_rows == 0 && tightened == 0 {
        return Ok(Presolved::Unreduced);
    }

    let kept_cols: Vec<u32> = (0..n as u32).filter(|&j| live_col[j as usize]).collect();
    let kept_rows: Vec<u32> = (0..m as u32).filter(|&i| live_row[i as usize]).collect();

    // Every live row keeps ≥ 2 live columns (emptier rows were removed),
    // so "no rows left" implies "no columns left" and vice versa.
    let solved = kept_rows.is_empty();
    debug_assert!(!solved || kept_cols.is_empty());

    // Assemble the reduced model directly (no name strings on this path —
    // bounds are valid by construction, so they are never reported).
    let reduced = if solved {
        Model::new(model.sense)
    } else {
        let mut row_map = vec![u32::MAX; m];
        for (ir, &i) in kept_rows.iter().enumerate() {
            row_map[i as usize] = ir as u32;
        }
        let mut cols = ColMatrix::new(kept_rows.len());
        let mut obj = Vec::with_capacity(kept_cols.len());
        let mut rlb = Vec::with_capacity(kept_cols.len());
        let mut rub = Vec::with_capacity(kept_cols.len());
        for &jc in &kept_cols {
            let j = jc as usize;
            let entries: Vec<(u32, f64)> = model
                .cols
                .col(j)
                .iter()
                .filter(|&(i, a)| live_row[i] && a != 0.0)
                .map(|(i, a)| (row_map[i], a))
                .collect();
            cols.push_col(SparseCol::from_entries(entries));
            obj.push(model.obj[j]);
            rlb.push(tlb[j]);
            rub.push(tub[j]);
        }
        let k = kept_cols.len();
        Model {
            sense: model.sense,
            obj,
            lb: rlb,
            ub: rub,
            integer: vec![false; k],
            names: vec![String::new(); k],
            cols,
            row_cmp: kept_rows.iter().map(|&i| model.row_cmp[i as usize]).collect(),
            rhs: kept_rows.iter().map(|&i| rhs[i as usize]).collect(),
        }
    };
    let red = Reduction {
        reduced,
        kept_cols,
        kept_rows,
        fixed,
        row_kept: live_row,
        tlb,
        tub,
        lb_src,
        ub_src,
        singleton_log,
        sign,
        removed_cols,
        removed_rows,
    };
    Ok(if solved { Presolved::Solved(red) } else { Presolved::Reduced(red) })
}

impl Reduction {
    /// Record the reduction counters.
    fn observe(&self) {
        flexile_obs::add("lp.presolve_removed_cols", self.removed_cols);
        flexile_obs::add("lp.presolve_removed_rows", self.removed_rows);
    }

    /// Restore the full-space primal point, duals, and a warm-startable
    /// basis from the reduced solution (`None` when everything was
    /// eliminated in presolve).
    fn postsolve(&self, model: &Model, rsol: Option<Solution>) -> Solution {
        let n = model.num_vars();
        let m = model.num_rows();
        let sign = self.sign;

        // Primal: kept columns from the reduced solve, fixed columns at
        // their values.
        let mut x = vec![0.0; n];
        if let Some(rs) = &rsol {
            for (jr, &jc) in self.kept_cols.iter().enumerate() {
                x[jc as usize] = rs.x[jr];
            }
        }
        for (j, v) in self.fixed.iter().enumerate() {
            if let Some(v) = v {
                x[j] = *v;
            }
        }

        // Duals, in minimization form: kept rows from the reduced solve,
        // then the two repair passes (see the module docs for why this order is
        // exact for this reduction set).
        let mut y = vec![0.0; m];
        if let Some(rs) = &rsol {
            for (ir, &ic) in self.kept_rows.iter().enumerate() {
                y[ic as usize] = sign * rs.duals[ir];
            }
        }
        let dval = |j: usize, y: &[f64]| -> f64 {
            let mut d = sign * model.obj[j];
            for (i, a) in model.cols.col(j).iter() {
                d -= a * y[i];
            }
            d
        };
        let at = |v: f64, b: f64| b.is_finite() && (v - b).abs() <= FEAS_TOL * (1.0 + b.abs());
        // Pass 1: binding tightening-implied upper bounds hand their
        // reduced cost to the (kept) capacity row that implied them.
        for j in 0..n {
            if let BoundSrc::Tightened(i, a) = self.ub_src[j] {
                if at(x[j], self.tub[j]) {
                    let d = dval(j, &y);
                    if d < -REPAIR_TOL {
                        y[i as usize] += d / a;
                    }
                }
            }
        }
        // Pass 2: binding singleton-row-implied bounds repair the dual of
        // their (removed) source row; each such row had exactly one live
        // column at removal time. Removed *columns* can still have entries
        // in singleton rows removed later (a fixing creates the next
        // singleton), so repairs run in reverse removal order: by the time
        // row `i` absorbs its column's reduced cost, every dual that cost
        // depends on is final.
        for &(i, jc) in self.singleton_log.iter().rev() {
            let j = jc as usize;
            let d = dval(j, &y);
            if d > REPAIR_TOL {
                if let BoundSrc::Singleton(si, a) = self.lb_src[j] {
                    if si == i && at(x[j], self.tlb[j]) {
                        y[si as usize] += d / a;
                    }
                }
            } else if d < -REPAIR_TOL {
                if let BoundSrc::Singleton(si, a) = self.ub_src[j] {
                    if si == i && at(x[j], self.tub[j]) {
                        y[si as usize] += d / a;
                    }
                }
            }
        }
        if sign < 0.0 {
            y.iter_mut().for_each(|v| *v = -*v);
        }

        // Basis: kept rows carry the mapped reduced basis, removed rows go
        // slack-basic (their slack columns are unit vectors, so the mapped
        // basis stays nonsingular).
        let mut basis: Vec<usize> = (n..n + m).collect();
        let mut status = vec![VarStatus::AtLower; n + m];
        for i in 0..m {
            if !self.row_kept[i] {
                status[n + i] = VarStatus::Basic;
            }
        }
        if let Some(rs) = &rsol {
            let k = self.kept_cols.len();
            let kr = self.kept_rows.len();
            let rb = &rs.basis;
            for (jr, &jc) in self.kept_cols.iter().enumerate() {
                status[jc as usize] = rb.status[jr];
            }
            for (ir, &ic) in self.kept_rows.iter().enumerate() {
                status[n + ic as usize] = rb.status[k + ir];
            }
            for (ir, &ic) in self.kept_rows.iter().enumerate() {
                let bj = rb.basis[ir];
                basis[ic as usize] = if bj < k {
                    self.kept_cols[bj] as usize
                } else if bj < k + kr {
                    n + self.kept_rows[bj - k] as usize
                } else {
                    // A phase-1 artificial stayed basic (at zero) in the
                    // reduced solve. It has no full-space column, so the
                    // row keeps its own slack basic instead; the resulting
                    // basis may start primal infeasible, which the warm
                    // path repairs or falls back from.
                    status[n + ic as usize] = VarStatus::Basic;
                    n + ic as usize
                };
            }
            // A kept column nonbasic at a bound *implied* by a removed
            // singleton row has no such bound in the full model; left as-is
            // the warm basis would park it at a different (original) bound
            // and start primal infeasible. The binding implied bound means
            // the source row is active, so the column goes basic in that
            // row and the row's slack takes the binding side instead of
            // going slack-basic. Nonsingularity holds because no other
            // *kept* column can have an entry in a removed singleton row —
            // any such column was live when the row was removed and would
            // have kept it from being a singleton.
            for &jc in &self.kept_cols {
                let j = jc as usize;
                let src = match status[j] {
                    VarStatus::AtLower => self.lb_src[j],
                    VarStatus::AtUpper => self.ub_src[j],
                    _ => BoundSrc::Original,
                };
                if let BoundSrc::Singleton(i, _) = src {
                    let i = i as usize;
                    debug_assert!(!self.row_kept[i]);
                    status[j] = VarStatus::Basic;
                    basis[i] = j;
                    status[n + i] = match model.row_cmp[i] {
                        Cmp::Ge => VarStatus::AtUpper,
                        _ => VarStatus::AtLower,
                    };
                }
            }
        }
        for j in 0..n {
            if self.fixed[j].is_some() {
                status[j] = if at(x[j], model.ub[j]) && !at(x[j], model.lb[j]) {
                    VarStatus::AtUpper
                } else if model.lb[j].is_finite() || model.ub[j].is_finite() {
                    VarStatus::AtLower
                } else {
                    VarStatus::FreeZero
                };
            }
        }

        let objective = model.eval_objective(&x);
        let iterations = rsol.as_ref().map_or(0, |rs| rs.iterations);
        Solution {
            status: SolveStatus::Optimal,
            x,
            objective,
            duals: y,
            iterations,
            basis: Basis::from_parts(basis, status),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn solve_both(m: &Model) -> (Solution, Solution) {
        let on = m
            .solve_with(&SimplexOptions::default(), None)
            .expect("presolve-on solve");
        let off = m
            .solve_with(&SimplexOptions { presolve: false, ..Default::default() }, None)
            .expect("presolve-off solve");
        (on, off)
    }

    /// Full-space KKT check: primal feasibility, dual sign feasibility, and
    /// stationarity of every column against the returned duals.
    fn assert_kkt(m: &Model, sol: &Solution) {
        assert!(m.max_violation(&sol.x) < 1e-6, "primal violation");
        let sign = match m.sense() {
            Sense::Min => 1.0,
            Sense::Max => -1.0,
        };
        for i in 0..m.num_rows() {
            let y_min = sign * sol.duals[i];
            match m.row_cmp[i] {
                Cmp::Le => assert!(y_min <= 1e-7, "row {i} dual sign {y_min}"),
                Cmp::Ge => assert!(y_min >= -1e-7, "row {i} dual sign {y_min}"),
                Cmp::Eq => {}
            }
        }
        for j in 0..m.num_vars() {
            let mut d = sign * m.obj[j];
            for (i, a) in m.cols.col(j).iter() {
                d -= a * sign * sol.duals[i];
            }
            let xj = sol.x[j];
            let at_lb = m.lb[j].is_finite() && (xj - m.lb[j]).abs() <= 1e-6;
            let at_ub = m.ub[j].is_finite() && (xj - m.ub[j]).abs() <= 1e-6;
            if at_lb && !at_ub {
                assert!(d >= -1e-6, "col {j} at lb needs d >= 0, got {d}");
            } else if at_ub && !at_lb {
                assert!(d <= 1e-6, "col {j} at ub needs d <= 0, got {d}");
            } else if !at_lb && !at_ub {
                assert!(d.abs() <= 1e-6, "interior col {j} needs d = 0, got {d}");
            }
        }
    }

    #[test]
    fn singleton_rows_and_duals_recovered() {
        // The classic: singleton rows x<=4 and 2y<=12 presolve away, yet
        // the reported duals must still be 0 / 1.5 / 1.
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        let r1 = m.add_row_le(&[(x, 1.0)], 4.0);
        let r2 = m.add_row_le(&[(y, 2.0)], 12.0);
        let r3 = m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let (on, off) = solve_both(&m);
        assert!((on.objective - 36.0).abs() < 1e-9);
        assert!((on.objective - off.objective).abs() < 1e-9);
        assert!((on.dual(r1)).abs() < 1e-9);
        assert!((on.dual(r2) - 1.5).abs() < 1e-9);
        assert!((on.dual(r3) - 1.0).abs() < 1e-9);
        assert_kkt(&m, &on);
    }

    #[test]
    fn all_columns_fixed_solves_without_simplex() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 2.0, 2.0, 3.0);
        let y = m.add_var("y", -1.0, -1.0, 1.0);
        m.add_row_le(&[(x, 1.0), (y, 1.0)], 5.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.iterations, 0, "fully presolved: no pivots");
        assert!((sol.objective - 5.0).abs() < 1e-9);
        assert_kkt(&m, &sol);
    }

    #[test]
    fn infeasible_detected_in_presolve() {
        // Fixed columns leave an empty, violated row.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 1.0, 1.0, 1.0);
        m.add_row_ge(&[(x, 1.0)], 3.0);
        assert!(matches!(m.solve(), Err(LpError::Infeasible)));
    }

    #[test]
    fn infeasible_from_conflicting_singletons() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_row_le(&[(x, 1.0)], 2.0);
        m.add_row_ge(&[(x, 1.0)], 5.0);
        assert!(matches!(m.solve(), Err(LpError::Infeasible)));
    }

    #[test]
    fn free_singleton_column_stays_in_the_reduced_model() {
        // min x + z st x + y = 5 (y free), x + z >= 3, x <= 4. The
        // singleton row x <= 4 presolves away; the free singleton column y
        // is kept, and the solve still matches the direct one.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let z = m.add_var("z", 0.0, 10.0, 1.0);
        let req = m.add_row_eq(&[(x, 1.0), (y, 1.0)], 5.0);
        m.add_row_ge(&[(x, 1.0), (z, 1.0)], 3.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        let Presolved::Reduced(red) = reduce(&m).expect("reduce") else {
            panic!("the singleton row should leave a reduced model");
        };
        let (y_col, req_row) = (y.index() as u32, req.index() as u32);
        assert!(red.kept_cols.contains(&y_col), "free column removed");
        assert!(red.kept_rows.contains(&req_row), "its row removed");
        let (on, off) = solve_both(&m);
        assert!((on.objective - off.objective).abs() < 1e-9);
        assert!((on.value(x) + on.value(y) - 5.0).abs() < 1e-9);
        assert_kkt(&m, &on);
    }

    #[test]
    fn capacity_tightening_keeps_duals_exact() {
        // max 2a + b st a + b <= 4 (capacity), a <= 3, with the singleton
        // row folded into bounds: the tightened bound on `a` binds and its
        // reduced cost must flow back into the capacity row's dual.
        let mut m = Model::new(Sense::Max);
        let a = m.add_var("a", 0.0, f64::INFINITY, 2.0);
        let b = m.add_var("b", 0.0, f64::INFINITY, 1.0);
        let cap = m.add_row_le(&[(a, 1.0), (b, 1.0)], 4.0);
        let lim = m.add_row_le(&[(a, 1.0)], 3.0);
        let (on, off) = solve_both(&m);
        assert!((on.objective - 7.0).abs() < 1e-9);
        assert!((on.objective - off.objective).abs() < 1e-9);
        assert!((on.dual(cap) - off.dual(cap)).abs() < 1e-9);
        assert!((on.dual(lim) - off.dual(lim)).abs() < 1e-9);
        assert_kkt(&m, &on);
    }

    #[test]
    fn unbounded_empty_column_detected() {
        // y has no rows and negative min-form cost with an infinite bound.
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let _y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_row_le(&[(x, 1.0)], 1.0);
        assert!(matches!(m.solve(), Err(LpError::Unbounded)));
    }

    #[test]
    fn presolved_basis_warm_starts_the_full_model() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_row_le(&[(x, 1.0)], 4.0);
        let r2 = m.add_row_le(&[(y, 2.0)], 12.0);
        m.add_row_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s1 = m.solve().unwrap();
        m.set_rhs(r2, 11.0);
        let s2 = m.solve_with(&SimplexOptions::default(), Some(&s1.basis)).unwrap();
        assert!((s2.objective - (3.0 * (7.0 / 3.0) + 5.0 * 5.5)).abs() < 1e-6);
    }

    #[test]
    fn mixed_reductions_random_shapes_match() {
        // A hand-rolled deterministic LCG sweeps structured LPs through
        // both paths; objectives must agree and KKT must hold.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64) // [0, 2)
        };
        for case in 0..40 {
            let mut m = Model::new(if case % 2 == 0 { Sense::Min } else { Sense::Max });
            let nv = 3 + (case % 5);
            let vars: Vec<_> = (0..nv)
                .map(|j| {
                    let lb = if next() < 0.5 { 0.0 } else { -next() };
                    let fixed = next() < 0.2;
                    let ub = if fixed { lb } else { lb + 1.0 + next() };
                    m.add_var(&format!("v{j}"), lb, ub, next() - 1.0)
                })
                .collect();
            // A capacity row, a singleton row, and a generic row.
            let caps: Vec<_> = vars.iter().map(|&v| (v, 0.5 + next())).collect();
            m.add_row_le(&caps, 1.0 + 2.0 * next());
            m.add_row_le(&[(vars[0], 1.0 + next())], 1.0 + next());
            m.add_row_ge(&[(vars[1], 1.0), (vars[2], -1.0)], -1.0 - next());
            match (
                m.solve_with(&SimplexOptions::default(), None),
                m.solve_with(&SimplexOptions { presolve: false, ..Default::default() }, None),
            ) {
                (Ok(on), Ok(off)) => {
                    let tol = 1e-9 * (1.0 + off.objective.abs());
                    assert!(
                        (on.objective - off.objective).abs() <= tol,
                        "case {case}: {} vs {}",
                        on.objective,
                        off.objective
                    );
                    assert_kkt(&m, &on);
                }
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(&a),
                    std::mem::discriminant(&b),
                    "case {case}: {a:?} vs {b:?}"
                ),
                (a, b) => panic!("case {case}: presolve-on {a:?} vs presolve-off {b:?}"),
            }
        }
    }
}
