//! CRASH(LTSF)-style bound-shift crash basis.
//!
//! The cold-start path of the simplex begins from the all-slack basis with
//! every structural column at the bound nearest zero. For Flexile's models
//! that point is badly infeasible: every demand row starts violated, each
//! violated row gets an artificial column, and phase 1 spends thousands of
//! pivots driving those artificials out. The fix used by production solvers
//! is a *crash basis*: pick a cheap starting point that is already close to
//! feasible so phase 1 has almost nothing to do.
//!
//! This module implements the safest possible crash: instead of guessing a
//! non-trivial basis matrix (which risks singularity and expensive
//! factorization), it keeps the all-slack basis `B = I` and shifts nonbasic
//! doubly-bounded structural columns to whichever of their two bounds
//! reduces slack-bound infeasibility — the "lowest total slack feasibility"
//! greedy of CRASH(LTSF). Each row whose slack lands back inside its bounds
//! is one artificial column (and at least one phase-1 pivot) that never gets
//! created. The procedure is deterministic: columns are scanned in index
//! order for a fixed number of passes, and a flip is accepted only if it
//! strictly reduces the (violated-row-count, violation-magnitude) pair
//! lexicographically.

use crate::model::Model;
use crate::tol::FEAS_TOL;

/// Greedy passes over the columns. Two passes catch the common
/// chained-flip patterns (e.g. a loss variable fixing a demand row and the
/// scenario's criticality variable then fixing the rows the first flip
/// disturbed); more passes show no further wins on the Flexile fixtures.
const MAX_PASSES: usize = 4;

/// Outcome of a crash pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashStats {
    /// Structural columns flipped to their other bound.
    pub flips: usize,
    /// Rows that were slack-infeasible before the crash and feasible after:
    /// each one is an artificial column phase 1 no longer has to price out.
    pub rows_fixed: usize,
}

/// Slack-bound violation of slack value `s` with bounds `[sl, su]`.
#[inline]
fn violation(s: f64, sl: f64, su: f64) -> f64 {
    (sl - s).max(s - su).max(0.0)
}

/// Greedy bound-shift crash. `lb`/`ub` are the working column bounds
/// (structurals then slacks, length `n + m`); `at_upper[j]` says whether
/// structural `j` currently sits at its upper bound and is updated in place
/// with the chosen sides. Only doubly-finite columns with a positive range
/// are ever flipped, so the resulting point is always within bounds.
pub(crate) fn bound_shift(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    at_upper: &mut [bool],
) -> CrashStats {
    let n = model.num_vars();
    let m = model.num_rows();
    debug_assert_eq!(at_upper.len(), n);

    // Nonbasic value of structural j under the current sides.
    let value = |j: usize, up: bool| -> f64 {
        match (lb[j].is_finite(), ub[j].is_finite()) {
            (true, true) => {
                if up {
                    ub[j]
                } else {
                    lb[j]
                }
            }
            (true, false) => lb[j],
            (false, true) => ub[j],
            (false, false) => 0.0,
        }
    };

    // Slack values s_i = b_i - Σ_j a_ij x_j for the current point.
    let mut s: Vec<f64> = model.rhs.clone();
    for j in 0..n {
        let v = value(j, at_upper[j]);
        if v != 0.0 {
            for (r, a) in model.cols.col(j).iter() {
                s[r] -= a * v;
            }
        }
    }

    let violated_rows = |s: &[f64]| -> usize {
        (0..m).filter(|&i| violation(s[i], lb[n + i], ub[n + i]) > FEAS_TOL).count()
    };
    let before = violated_rows(&s);
    if before == 0 {
        return CrashStats::default();
    }

    let mut flips = 0usize;
    for _pass in 0..MAX_PASSES {
        let mut changed = false;
        for j in 0..n {
            let range = ub[j] - lb[j];
            if !range.is_finite() || range <= 0.0 {
                continue;
            }
            // Moving j to its other bound shifts slack i by -a_ij · dx.
            let dx = if at_upper[j] { -range } else { range };
            let mut count_delta = 0isize;
            let mut mag_delta = 0.0f64;
            for (i, a) in model.cols.col(j).iter() {
                let (sl, su) = (lb[n + i], ub[n + i]);
                let old = violation(s[i], sl, su);
                let new = violation(s[i] - a * dx, sl, su);
                mag_delta += new - old;
                count_delta += (new > FEAS_TOL) as isize - (old > FEAS_TOL) as isize;
            }
            if count_delta < 0 || (count_delta == 0 && mag_delta < -1e-9) {
                for (i, a) in model.cols.col(j).iter() {
                    s[i] -= a * dx;
                }
                at_upper[j] = !at_upper[j];
                flips += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let after = violated_rows(&s);
    CrashStats { flips, rows_fixed: before.saturating_sub(after) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn crash_fixes_demand_style_rows() {
        // min Σx s.t. x1 + x2 >= 8 with x in [0, 5]²: the all-lower start
        // violates the row; flipping either column to 5 still violates it,
        // flipping both fixes it.
        let mut m = Model::new(Sense::Min);
        let x1 = m.add_var("x1", 0.0, 5.0, 1.0);
        let x2 = m.add_var("x2", 0.0, 5.0, 1.0);
        m.add_row_ge(&[(x1, 1.0), (x2, 1.0)], 8.0);
        // Working bounds: structurals then the Ge slack (-inf, 0].
        let lb = vec![0.0, 0.0, f64::NEG_INFINITY];
        let ub = vec![5.0, 5.0, 0.0];
        let mut up = vec![false, false];
        let stats = bound_shift(&m, &lb, &ub, &mut up);
        assert_eq!(stats.rows_fixed, 1);
        assert!(stats.flips >= 1);
        // The chosen point must satisfy the row.
        let total = up.iter().zip([5.0, 5.0]).map(|(&u, b)| if u { b } else { 0.0 }).sum::<f64>();
        assert!(total >= 8.0 - 1e-9);
    }

    #[test]
    fn neutral_flips_are_rejected() {
        // A row that is already feasible: no flip should happen.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        m.add_row_le(&[(x, 1.0)], 10.0);
        let lb = vec![0.0, 0.0];
        let ub = vec![5.0, f64::INFINITY];
        let mut up = vec![false];
        let stats = bound_shift(&m, &lb, &ub, &mut up);
        assert_eq!(stats.flips, 0);
        assert!(!up[0]);
    }

    #[test]
    fn deterministic_across_calls() {
        let mut m = Model::new(Sense::Min);
        let vars: Vec<_> =
            (0..6).map(|j| m.add_var(&format!("x{j}"), 0.0, 3.0, 1.0)).collect();
        m.add_row_ge(&[(vars[0], 1.0), (vars[1], 2.0), (vars[2], 1.0)], 7.0);
        m.add_row_ge(&[(vars[3], 1.0), (vars[4], 1.0)], 4.0);
        m.add_row_le(&[(vars[5], 1.0)], 2.0);
        let mut lb = vec![0.0; 6];
        let mut ub = vec![3.0; 6];
        lb.extend([f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0]);
        ub.extend([0.0, 0.0, f64::INFINITY]);
        let mut up1 = vec![false; 6];
        let mut up2 = vec![false; 6];
        let s1 = bound_shift(&m, &lb, &ub, &mut up1);
        let s2 = bound_shift(&m, &lb, &ub, &mut up2);
        assert_eq!(up1, up2);
        assert_eq!(s1.flips, s2.flips);
        assert_eq!(s1.rows_fixed, s2.rows_fixed);
        assert_eq!(s1.rows_fixed, 2);
    }
}
