//! Solver tolerances shared across the crate.

/// Primal feasibility tolerance: how far a value may sit outside its bound
/// (or a row outside its right-hand side) and still count as feasible. The
/// simplex, the presolve verdicts and the crash's violation count all use
/// this one value.
pub const FEAS_TOL: f64 = 1e-7;

/// Integrality tolerance for the MIP solver.
pub const INT_TOL: f64 = 1e-6;
