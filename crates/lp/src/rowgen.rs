//! Lazy-constraint (row-generation) driver.
//!
//! The scenario-bundled LPs in this workspace (Teavar and the CVaR variants
//! of §5) have `O(|pairs| · |scenarios|)` rows, of which only a handful bind
//! at the optimum. Solving them with every row materialized would blow up
//! the dense basis inverse, so we solve a relaxation with a small active row
//! set, ask a caller-supplied *oracle* which constraints the tentative
//! solution violates, add those, and re-solve — converging to the optimum
//! of the full model because every added row is a valid constraint of it.
//! Each round is a cold solve: a grown model has a different basis shape.

use crate::error::LpError;
use crate::model::{Cmp, Model, VarId};
use crate::simplex::Solution;

/// A row produced by a violation oracle.
#[derive(Debug, Clone)]
pub struct RowSpec {
    /// Sparse coefficients.
    pub coeffs: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

impl RowSpec {
    /// Convenience `≥` row.
    pub fn ge(coeffs: Vec<(VarId, f64)>, rhs: f64) -> Self {
        RowSpec { coeffs, cmp: Cmp::Ge, rhs }
    }
    /// Convenience `≤` row.
    pub fn le(coeffs: Vec<(VarId, f64)>, rhs: f64) -> Self {
        RowSpec { coeffs, cmp: Cmp::Le, rhs }
    }
}

/// Options for the row-generation loop.
#[derive(Debug, Clone)]
pub struct RowGenOptions {
    /// Maximum solve/oracle rounds before giving up.
    pub max_rounds: usize,
    /// Cap on rows added per round (the oracle may return more; the most
    /// violated are kept). `0` means unlimited.
    pub rows_per_round: usize,
}

impl Default for RowGenOptions {
    fn default() -> Self {
        RowGenOptions { max_rounds: 200, rows_per_round: 0 }
    }
}

/// Result of a row-generation run.
#[derive(Debug)]
pub struct RowGenResult {
    /// Final solution (optimal for the full model if `converged`).
    pub solution: Solution,
    /// Whether the oracle reported no violations at the end.
    pub converged: bool,
    /// Rounds performed.
    pub rounds: usize,
    /// Total rows added.
    pub rows_added: usize,
}

/// Iteratively solve `model`, adding rows returned by `oracle` until the
/// oracle is satisfied. The oracle receives the current solution and should
/// return *violated* rows (rows the solution does not satisfy); returning an
/// empty vector ends the loop.
///
/// The model is mutated: generated rows remain in it, which lets callers
/// re-solve or inspect duals afterwards.
pub fn solve_with_rowgen<F>(
    model: &mut Model,
    opts: &RowGenOptions,
    mut oracle: F,
) -> Result<RowGenResult, LpError>
where
    F: FnMut(&Solution) -> Vec<RowSpec>,
{
    let mut rows_added = 0usize;
    for round in 1..=opts.max_rounds {
        let sol = model.solve()?;
        let mut violated = oracle(&sol);
        if violated.is_empty() {
            return Ok(RowGenResult { solution: sol, converged: true, rounds: round, rows_added });
        }
        if opts.rows_per_round > 0 && violated.len() > opts.rows_per_round {
            // Keep the most violated rows.
            violated.sort_by(|a, b| {
                let va = violation(model, &sol, a);
                let vb = violation(model, &sol, b);
                vb.partial_cmp(&va).unwrap_or(std::cmp::Ordering::Equal)
            });
            violated.truncate(opts.rows_per_round);
        }
        for r in &violated {
            model.add_row(&r.coeffs, r.cmp, r.rhs);
            rows_added += 1;
        }
    }
    // Out of rounds: return the last relaxation solution, flagged.
    let sol = model.solve()?;
    Ok(RowGenResult {
        solution: sol,
        converged: false,
        rounds: opts.max_rounds,
        rows_added,
    })
}

fn violation(_model: &Model, sol: &Solution, row: &RowSpec) -> f64 {
    let lhs: f64 = row.coeffs.iter().map(|&(v, c)| c * sol.x[v.index()]).sum();
    match row.cmp {
        Cmp::Le => lhs - row.rhs,
        Cmp::Ge => row.rhs - lhs,
        Cmp::Eq => (lhs - row.rhs).abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn rowgen_reaches_full_model_optimum() {
        // max x + y with lazily revealed constraints x + y <= 4, x <= 2.
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        let res = solve_with_rowgen(&mut m, &RowGenOptions::default(), |sol| {
            let mut v = Vec::new();
            if sol.x[x.index()] + sol.x[y.index()] > 4.0 + 1e-9 {
                v.push(RowSpec::le(vec![(x, 1.0), (y, 1.0)], 4.0));
            }
            if sol.x[x.index()] > 2.0 + 1e-9 {
                v.push(RowSpec::le(vec![(x, 1.0)], 2.0));
            }
            v
        })
        .unwrap();
        assert!(res.converged);
        assert!((res.solution.objective - 4.0).abs() < 1e-6);
        assert!(res.solution.x[x.index()] <= 2.0 + 1e-7);
    }

    #[test]
    fn rowgen_no_violations_is_single_round() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 1.0, 5.0, 1.0);
        let _ = x;
        let res = solve_with_rowgen(&mut m, &RowGenOptions::default(), |_| Vec::new()).unwrap();
        assert!(res.converged);
        assert_eq!(res.rounds, 1);
        assert_eq!(res.rows_added, 0);
    }

    #[test]
    fn rows_per_round_cap() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 100.0, 1.0);
        let mut revealed = false;
        let opts = RowGenOptions { max_rounds: 10, rows_per_round: 1 };
        let res = solve_with_rowgen(&mut m, &opts, |sol| {
            if sol.x[x.index()] > 3.0 + 1e-9 && !revealed {
                revealed = true;
                vec![
                    RowSpec::le(vec![(x, 1.0)], 5.0),
                    RowSpec::le(vec![(x, 1.0)], 3.0),
                ]
            } else if sol.x[x.index()] > 3.0 + 1e-9 {
                vec![RowSpec::le(vec![(x, 1.0)], 3.0)]
            } else {
                Vec::new()
            }
        })
        .unwrap();
        assert!(res.converged);
        assert!((res.solution.objective - 3.0).abs() < 1e-6);
    }
}
