//! Independent LP optimality certificates.
//!
//! [`certify`] checks a primal point and a row-dual vector against a
//! [`Model`] using only the model's public accessors, so it shares no code
//! with the simplex that produced them. A pair certifies optimality when
//! it is
//!
//! * **primal feasible** — every row and bound holds;
//! * **dual feasible** — every row dual has the sign its row sense allows
//!   and every reduced cost `c_j − Σ_i a_ij y_i` has the sign its finite
//!   bounds allow;
//! * **complementary** — a nonzero row dual sits on a tight row and a
//!   nonzero reduced cost on a variable at the matching bound;
//! * **gap-free** — the primal objective equals the dual objective
//!   `Σ_i y_i b_i + Σ_j d_j · (bound of j its reduced cost points at)`.
//!
//! Every measure is scaled by the magnitude of the data it compares, so one
//! tolerance serves models whose capacities and demands differ by orders
//! of magnitude.
//!
//! ```
//! use flexile_lp::{certificate::certify, Model, Sense};
//!
//! let mut m = Model::new(Sense::Max);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
//! m.add_row_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! m.add_row_le(&[(y, 1.0)], 3.0);
//! let sol = m.solve().unwrap();
//! assert!(certify(&m, &sol.x, &sol.duals).holds(1e-9));
//! // A suboptimal point fails the gap even though it is feasible.
//! assert!(!certify(&m, &[0.0, 3.0], &sol.duals).holds(1e-9));
//! ```

use crate::model::{Cmp, Model, RowId, Sense};

/// Scaled violations of the four optimality conditions; each is `0` for an
/// exact optimal pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Certificate {
    /// Worst row or bound violation of the primal point.
    pub primal: f64,
    /// Worst wrong-signed row dual or reduced cost.
    pub dual: f64,
    /// Worst product of a dual (or reduced cost) and its slack.
    pub slackness: f64,
    /// Relative difference of the primal and dual objectives.
    pub gap: f64,
}

impl Certificate {
    /// Largest of the four violations.
    pub fn worst(&self) -> f64 {
        self.primal.max(self.dual).max(self.slackness).max(self.gap)
    }

    /// Whether every condition holds to within `tol`.
    pub fn holds(&self, tol: f64) -> bool {
        self.worst() <= tol
    }
}

/// Check the primal point `x` (one value per variable) and the row duals
/// `duals` (`∂objective/∂rhs` in the model's own sense, as
/// [`crate::Solution::duals`] reports them) for optimality in `model`'s
/// continuous relaxation.
pub fn certify(model: &Model, x: &[f64], duals: &[f64]) -> Certificate {
    let n = model.num_vars();
    let m = model.num_rows();
    assert_eq!(x.len(), n, "one primal value per variable");
    assert_eq!(duals.len(), m, "one dual per row");
    // Work in minimization form: negate the costs and duals of a Max model.
    let s = match model.sense() {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };
    let y: Vec<f64> = duals.iter().map(|d| s * d).collect();
    let rhs: Vec<f64> = (0..m).map(|i| model.rhs_of(RowId(i as u32))).collect();

    let mut cert = Certificate::default();
    let mut activity = vec![0.0; m];
    let mut primal_obj = 0.0;
    let mut dual_obj: f64 = y.iter().zip(&rhs).map(|(yi, bi)| yi * bi).sum();
    for j in 0..n {
        let col = model.col_entries(j);
        let (lb, ub) = model.var_bounds(j);
        let c = s * model.objective_coeff(j);
        let xj = x[j];
        let mut d = c;
        for &(i, a) in &col {
            activity[i] += a * xj;
            d -= a * y[i];
        }
        primal_obj += c * xj;
        cert.primal = cert
            .primal
            .max((lb - xj).max(0.0) / (1.0 + lb.abs()))
            .max((xj - ub).max(0.0) / (1.0 + ub.abs()));
        // A positive reduced cost pushes x to its lower bound, a negative
        // one to its upper bound; an infinite bound there is dual
        // infeasible, and the point itself stands in for the bound.
        let cscale = 1.0 + c.abs();
        let (bound, dist) = if d > 0.0 {
            if lb == f64::NEG_INFINITY {
                cert.dual = cert.dual.max(d / cscale);
                (xj, 0.0)
            } else {
                (lb, xj - lb)
            }
        } else if ub == f64::INFINITY {
            cert.dual = cert.dual.max(-d / cscale);
            (xj, 0.0)
        } else {
            (ub, ub - xj)
        };
        dual_obj += d * bound;
        cert.slackness =
            cert.slackness.max(d.abs() * dist.abs() / (cscale * (1.0 + bound.abs())));
    }
    for i in 0..m {
        let b = rhs[i];
        let bscale = 1.0 + b.abs();
        let resid = activity[i] - b;
        let (infeas, wrong_sign) = match model.row_sense(i) {
            Cmp::Le => (resid.max(0.0), y[i].max(0.0)),
            Cmp::Ge => ((-resid).max(0.0), (-y[i]).max(0.0)),
            Cmp::Eq => (resid.abs(), 0.0),
        };
        cert.primal = cert.primal.max(infeas / bscale);
        cert.dual = cert.dual.max(wrong_sign / (1.0 + y[i].abs()));
        cert.slackness = cert.slackness.max(y[i].abs() * resid.abs() / bscale);
    }
    cert.gap = (primal_obj - dual_obj).abs() / (1.0 + primal_obj.abs());
    cert
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `min x + y` s.t. `x + 2y ≥ 2`, `x ≤ 3`, `0 ≤ x, y ≤ 5`: optimum
    /// `y = 1`, dual of the cover row `1/2`.
    fn cover() -> Model {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        let y = m.add_var("y", 0.0, 5.0, 1.0);
        m.add_row_ge(&[(x, 1.0), (y, 2.0)], 2.0);
        m.add_row_le(&[(x, 1.0)], 3.0);
        m
    }

    #[test]
    fn the_exact_optimum_certifies() {
        let c = certify(&cover(), &[0.0, 1.0], &[0.5, 0.0]);
        assert!(c.holds(1e-12), "{c:?}");
    }

    #[test]
    fn each_condition_catches_its_own_fault() {
        let m = cover();
        // Infeasible point: the cover row is short.
        let c = certify(&m, &[0.0, 0.5], &[0.5, 0.0]);
        assert!(c.primal > 0.1, "{c:?}");
        // Wrong-signed dual on a ≥ row of a Min model.
        let c = certify(&m, &[0.0, 1.0], &[-0.5, 0.0]);
        assert!(c.dual > 0.1, "{c:?}");
        // A dual on the slack ≤ row that is not tight.
        let c = certify(&m, &[0.0, 1.0], &[0.5, -0.5]);
        assert!(c.slackness > 0.1 && c.dual == 0.0, "{c:?}");
        // Feasible but suboptimal: x = 2 pays 2 where y = 1 pays 1.
        let c = certify(&m, &[2.0, 0.0], &[0.5, 0.0]);
        assert!(c.primal == 0.0 && c.gap > 0.1, "{c:?}");
    }

    #[test]
    fn solver_output_certifies_in_both_senses() {
        let m = cover();
        let sol = m.solve().unwrap();
        assert!(certify(&m, &sol.x, &sol.duals).holds(1e-9));

        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 8.0, 2.0);
        let y = m.add_var("y", f64::NEG_INFINITY, 8.0, 1.0);
        m.add_row_le(&[(x, 1.0), (y, 1.0)], 10.0);
        m.add_row_ge(&[(y, 1.0)], -4.0);
        m.add_row_eq(&[(x, 2.0), (y, -1.0)], 6.0);
        let sol = m.solve().unwrap();
        let c = certify(&m, &sol.x, &sol.duals);
        assert!(c.holds(1e-9), "{c:?}");
    }
}
