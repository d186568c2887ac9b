//! # flexile-lp — linear and mixed-integer programming substrate
//!
//! A self-contained LP/MIP solver used by every optimization model in the
//! Flexile reproduction. The paper solves its models with Gurobi; no
//! full-featured pure-Rust LP solver is available offline, so this crate
//! implements one from scratch:
//!
//! * [`Model`] — a row/column model builder with per-variable bounds,
//!   `≤ / ≥ / =` rows and a linear objective.
//! * [`simplex`] — a bounded-variable two-phase revised simplex method over a
//!   pluggable [`basis`] engine: by default a sparse Markowitz LU
//!   factorization with product-form eta-file updates and periodic
//!   refactorization (the original dense explicit inverse remains selectable
//!   as a differential-testing oracle via [`EngineKind::Dense`]),
//!   devex candidate-list pricing with Dantzig and Bland fallbacks, a
//!   bound-flipping long-step dual ratio test, and warm starts from a
//!   previously optimal basis.
//! * [`presolve`] / [`crash`] — the cold-start accelerators: a reduce /
//!   postsolve pass (fixed- and free-column elimination, empty/singleton-row
//!   removal, bound tightening) with exact primal+dual recovery, and a
//!   CRASH(LTSF)-style bound-shift crash that starts phase 1 near-feasible.
//! * [`mip`] — a best-first branch-and-bound solver for models with binary /
//!   integer variables, with a fix-and-dive rounding heuristic for incumbents.
//! * [`rowgen`] — a lazy-constraint driver: repeatedly solve, ask an oracle
//!   for violated rows, add them, and solve again. Used for the large
//!   scenario-bundled LPs (Teavar, CVaR variants) whose full row set would
//!   dwarf the active set.
//! * [`robust`] / [`fault`] — the robustness layer: the [`solve_robust`]
//!   escalation ladder (warm → cold refactor → Bland safe mode → bound
//!   perturbation) with an auditable [`SolveReport`], and a deterministic
//!   [`FaultInjector`] for chaos-testing every failure path. The ladder is
//!   the only retry policy: [`Model::solve`] and [`Model::solve_with`] run
//!   it, and one [`SimplexOptions`] (iteration cap, engine, pricing,
//!   presolve) configures every rung.
//!
//! The solver is exact up to the feasibility tolerance [`tol::FEAS_TOL`]
//! (`1e-7`). With the sparse LU basis engine the per-pivot cost scales with
//! the factor fill rather than O(m²), so the basis dimension can reach the
//! low thousands; very large scenario-bundled LPs still go through
//! [`rowgen`] to keep the active row set small.
//!
//! ## Quick example
//!
//! ```
//! use flexile_lp::{Model, Sense};
//!
//! // max x + 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0
//! let mut m = Model::new(Sense::Max);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
//! m.add_row_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! m.add_row_le(&[(y, 1.0)], 3.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective - 7.0).abs() < 1e-6); // x=1, y=3
//! ```

#![warn(missing_docs)]

pub mod basis;
pub mod crash;
pub mod error;
pub mod fault;
pub mod mip;
pub mod model;
pub mod presolve;
pub mod robust;
pub mod rowgen;
pub mod simplex;
pub mod sparse;
pub mod tol;

pub use basis::{BasisEngine, EngineKind};
pub use error::LpError;
pub use fault::{FaultInjector, FaultKind};
pub use mip::{solve_mip, MipOptions, MipResult, MipStatus};
pub use model::{Cmp, Model, RowId, Sense, VarId};
pub use robust::{solve_robust, RobustOutcome, Rung, RungAttempt, SolveReport};
pub use rowgen::{solve_with_rowgen, RowGenOptions, RowGenResult, RowSpec};
pub use simplex::{Basis, Pricing, RestartKind, SimplexOptions, Solution, SolveScratch, SolveStatus};
