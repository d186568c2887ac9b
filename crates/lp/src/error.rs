//! Error types for the LP/MIP solver.

use std::fmt;

/// Errors produced while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The model is primal infeasible (phase 1 terminated with positive
    /// infeasibility).
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was exceeded before reaching optimality.
    IterationLimit,
    /// A wall-clock deadline passed before reaching optimality. The simplex
    /// has no clock of its own; this is the terminal, non-retryable error
    /// that fault injection ([`crate::FaultKind::DeadlineExceeded`]) uses to
    /// exercise a caller's timeout handling.
    DeadlineExceeded,
    /// A variable id or row id referenced a different model.
    BadIndex(String),
    /// Inconsistent bounds (`lb > ub`) on a variable or a malformed row.
    BadModel(String),
    /// Numerical failure (singular basis that could not be repaired).
    Numerical(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "model is infeasible"),
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::DeadlineExceeded => write!(f, "solve deadline exceeded"),
            LpError::BadIndex(s) => write!(f, "bad index: {s}"),
            LpError::BadModel(s) => write!(f, "bad model: {s}"),
            LpError::Numerical(s) => write!(f, "numerical failure: {s}"),
        }
    }
}

impl std::error::Error for LpError {}
