//! Escalating solve ladder with an auditable report: the crate's one retry
//! policy.
//!
//! [`solve_robust`] wraps the simplex in four escalation rungs, each one
//! trading speed for numerical robustness. [`crate::Model::solve`] and
//! [`crate::Model::solve_with`] are this ladder without the report. The
//! caller's [`SimplexOptions`] apply to every rung; the rungs vary only the
//! warm basis, the pricing rule, the engine, the refactorization interval
//! and Bland's rule:
//!
//! 1. **Warm** — the caller's options and warm basis: presolve on cold
//!    starts if enabled, the default refactorization interval (60 pivots).
//! 2. **ColdRefactor** — cold start, Dantzig pricing (no devex weight
//!    state), refactorize every 8 pivots.
//! 3. **BlandSafe** — cold start, Bland's rule from the first pivot, tight
//!    refactorization, on the *dense* basis engine
//!    ([`crate::EngineKind::Dense`]), no presolve and no crash. Cycle-proof
//!    and independent of the default sparse-LU representation, so a
//!    numerical failure inside the LU/eta path cannot recur here; the
//!    slowest exact mode.
//! 4. **Perturb** — solve a copy with deterministically jittered finite
//!    bounds/RHS to break pathological degeneracy, then re-solve the
//!    original warm from the perturbed basis. If even the clean-up solve
//!    fails, the perturbed solution itself is returned (feasible for the
//!    original up to the perturbation magnitude).
//!
//! Escalation happens only on retryable errors ([`LpError::Numerical`],
//! [`LpError::IterationLimit`]); verdicts about the model itself
//! (infeasible, unbounded, malformed) and deadline exhaustion are terminal
//! immediately. Every attempt — its rung and its error, if any — is
//! recorded in the returned [`SolveReport`], which is what lets the online
//! controller's degradation chain (and the chaos tests) assert exactly
//! which rung rescued a faulted solve.
//!
//! [`solve_robust`] also emits one `lp.rung` telemetry event per attempt.
//! `Model::solve` emits them only for a solve that escalated: a solve its
//! first rung settles (an optimum, or a verdict such as an infeasible
//! branch-and-bound node) leaves no `lp.rung` event, so the events and the
//! flight recorder's ring count retries, not every LP.

use crate::error::LpError;
use crate::model::Model;
use crate::simplex::{attempt, Basis, Mode, Pricing, SimplexOptions, Solution};
use crate::EngineKind;
use std::time::Instant;

/// Relative magnitude of the rung-4 bound/RHS jitter.
const PERTURB: f64 = 1e-7;

/// One rung of the escalation ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Caller options + warm basis (the normal fast path).
    Warm,
    /// Cold start with a short refactorization interval.
    ColdRefactor,
    /// Cold start under forced Bland's rule (safe mode).
    BlandSafe,
    /// Bound-perturbation retry.
    Perturb,
}

impl Rung {
    /// All rungs in escalation order.
    pub const ALL: [Rung; 4] = [Rung::Warm, Rung::ColdRefactor, Rung::BlandSafe, Rung::Perturb];

    /// Stable lower-case name, used in telemetry events and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Warm => "warm",
            Rung::ColdRefactor => "cold_refactor",
            Rung::BlandSafe => "bland_safe",
            Rung::Perturb => "perturb",
        }
    }

    /// Whether the rung runs on the caller's [`SimplexOptions::engine`].
    /// Rungs 3 and 4 switch to the dense oracle, so tests and benches that
    /// measure one engine check that no attempt reached them.
    pub fn on_caller_engine(self) -> bool {
        self <= Rung::ColdRefactor
    }
}

/// One attempted rung and how it ended.
#[derive(Debug, Clone)]
pub struct RungAttempt {
    /// Which rung ran.
    pub rung: Rung,
    /// `None` if the attempt succeeded; the error otherwise.
    pub error: Option<LpError>,
    /// Simplex iterations the attempt used (0 when the solve failed before
    /// reporting a count — e.g. an injected fault).
    pub iterations: usize,
    /// Wall-clock time the attempt took, success or not.
    pub elapsed: std::time::Duration,
}

/// Audit trail of a [`solve_robust`] call.
#[derive(Debug, Clone, Default)]
pub struct SolveReport {
    /// Every attempt, in order.
    pub attempts: Vec<RungAttempt>,
}

impl SolveReport {
    /// The rung that produced the returned solution, if the solve succeeded.
    pub fn succeeded_rung(&self) -> Option<Rung> {
        self.attempts.iter().find(|a| a.error.is_none()).map(|a| a.rung)
    }

    /// Whether the solve succeeded only after at least one failed attempt.
    pub fn recovered(&self) -> bool {
        self.succeeded_rung().is_some() && self.attempts.len() > 1
    }

    /// Errors of the failed attempts, in order.
    pub fn errors(&self) -> impl Iterator<Item = &LpError> {
        self.attempts.iter().filter_map(|a| a.error.as_ref())
    }

    /// Total simplex iterations across every attempt, including the
    /// successful one.
    pub fn total_iterations(&self) -> usize {
        self.attempts.iter().map(|a| a.iterations).sum()
    }

    /// Total wall-clock time across every attempt.
    pub fn total_elapsed(&self) -> std::time::Duration {
        self.attempts.iter().map(|a| a.elapsed).sum()
    }

    /// Record one attempt. With `quiet`, the `lp.rung` event is emitted
    /// only if the attempt escalates the solve or comes after one that did.
    fn record(
        &mut self,
        quiet: bool,
        rung: Rung,
        error: Option<LpError>,
        iterations: usize,
        elapsed: std::time::Duration,
    ) {
        let escalates = error.as_ref().is_some_and(retryable);
        if flexile_obs::enabled() && (!quiet || escalates || rung != Rung::Warm) {
            let mut ev = flexile_obs::event("lp.rung", "lp")
                .field("rung", rung.name())
                .field("ok", error.is_none())
                .field("iterations", iterations)
                .field("elapsed_us", elapsed.as_micros() as u64);
            if let Some(e) = &error {
                ev = ev.field("error", e.to_string());
            }
            drop(ev); // recorded on drop
        }
        self.attempts.push(RungAttempt { rung, error, iterations, elapsed });
    }
}

/// Result of [`solve_robust`]: the solve outcome plus its audit trail.
#[derive(Debug, Clone)]
pub struct RobustOutcome {
    /// The solution, or the terminal error if every rung failed.
    pub result: Result<Solution, LpError>,
    /// What it took to get there.
    pub report: SolveReport,
}

fn retryable(e: &LpError) -> bool {
    matches!(e, LpError::Numerical(_) | LpError::IterationLimit)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic relative jitter in `[-1, 1] · scale`.
fn jitter(state: &mut u64, scale: f64) -> f64 {
    let u = (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
    u * scale
}

/// A copy of `model` with every finite bound and RHS entry nudged by a
/// deterministic relative epsilon (absolute epsilon for zero entries).
fn perturbed_model(model: &Model, scale: f64) -> Model {
    let mut p = model.clone();
    let mut state = 0x5EED_F1E5_0BAD_CA5E_u64;
    let nudge = |v: f64, state: &mut u64| {
        if !v.is_finite() {
            return v;
        }
        let rel = jitter(state, scale);
        if v == 0.0 {
            rel
        } else {
            v * (1.0 + rel)
        }
    };
    for j in 0..p.lb.len() {
        let (lo, hi) = (nudge(p.lb[j], &mut state), nudge(p.ub[j], &mut state));
        // Never let the jitter cross the bounds.
        p.lb[j] = lo.min(hi);
        p.ub[j] = lo.max(hi);
    }
    for r in 0..p.rhs.len() {
        p.rhs[r] = nudge(p.rhs[r], &mut state);
    }
    p
}

/// Solve `model` through the escalation ladder described in the module
/// docs, recording every attempt in the returned report.
pub fn solve_robust(model: &Model, opts: &SimplexOptions, warm: Option<&Basis>) -> RobustOutcome {
    ladder(model, opts, warm, false)
}

/// The ladder behind [`solve_robust`] and `Model::solve`; `quiet` is the
/// latter's telemetry rule (see the module docs).
pub(crate) fn ladder(
    model: &Model,
    opts: &SimplexOptions,
    warm: Option<&Basis>,
    quiet: bool,
) -> RobustOutcome {
    let mut report = SolveReport::default();
    let cold = SimplexOptions { pricing: Pricing::Dantzig, ..*opts };
    // Bland safe mode on the dense oracle engine, so a failure tied to the
    // sparse LU/eta representation cannot reproduce itself here.
    let bland = SimplexOptions { engine: EngineKind::Dense, ..*opts };

    let rungs = [
        (Rung::Warm, opts, warm, Mode::DEFAULT),
        (Rung::ColdRefactor, &cold, None, Mode::SHORT_REFACTOR),
        (Rung::BlandSafe, &bland, None, Mode::BLAND),
    ];
    for (rung, o, w, mode) in rungs {
        let t0 = Instant::now();
        match attempt(model, o, w, mode) {
            Ok(sol) => {
                report.record(quiet, rung, None, sol.iterations, t0.elapsed());
                return RobustOutcome { result: Ok(sol), report };
            }
            Err(e) => {
                let terminal = !retryable(&e);
                report.record(quiet, rung, Some(e.clone()), 0, t0.elapsed());
                if terminal {
                    return RobustOutcome { result: Err(e), report };
                }
            }
        }
    }

    // Rung 4: perturbation retry. Iterations/elapsed cover both the
    // perturbed solve and the clean-up re-solve.
    let perturbed = perturbed_model(model, PERTURB);
    let t0 = Instant::now();
    match attempt(&perturbed, &bland, None, Mode::BLAND) {
        Ok(psol) => {
            // Clean-up: re-solve the *original* model warm from the
            // perturbed basis; usually a handful of pivots.
            match attempt(model, &cold, Some(&psol.basis), Mode::SHORT_REFACTOR) {
                Ok(sol) => {
                    report.record(
                        quiet,
                        Rung::Perturb,
                        None,
                        psol.iterations + sol.iterations,
                        t0.elapsed(),
                    );
                    RobustOutcome { result: Ok(sol), report }
                }
                Err(_) => {
                    // The perturbed solution is feasible for the original
                    // up to O(PERTURB); better than nothing, still Ok.
                    report.record(quiet, Rung::Perturb, None, psol.iterations, t0.elapsed());
                    RobustOutcome { result: Ok(psol), report }
                }
            }
        }
        Err(e) => {
            report.record(quiet, Rung::Perturb, Some(e.clone()), 0, t0.elapsed());
            RobustOutcome { result: Err(e), report }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{self, FaultInjector, FaultKind};
    use crate::model::Sense;

    /// max x + y s.t. x + y <= 4, x <= 3, y <= 3. Optimum 4.
    fn small_model() -> Model {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 3.0, 1.0);
        let y = m.add_var("y", 0.0, 3.0, 1.0);
        m.add_row_le(&[(x, 1.0), (y, 1.0)], 4.0);
        m
    }

    #[test]
    fn clean_solve_uses_first_rung() {
        let m = small_model();
        let out = solve_robust(&m, &SimplexOptions::default(), None);
        let sol = out.result.expect("clean solve");
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert_eq!(out.report.succeeded_rung(), Some(Rung::Warm));
        assert!(!out.report.recovered());
    }

    #[test]
    fn single_fault_recovers_on_second_rung() {
        let m = small_model();
        let (out, used) =
            fault::with_injector(FaultInjector::new().at(0, FaultKind::Numerical), || {
                solve_robust(&m, &SimplexOptions::default(), None)
            });
        assert_eq!(used.injected().len(), 1);
        let sol = out.result.expect("recovered solve");
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert_eq!(out.report.succeeded_rung(), Some(Rung::ColdRefactor));
        assert!(out.report.recovered());
    }

    #[test]
    fn two_faults_reach_bland_rung() {
        let m = small_model();
        let inj = FaultInjector::new()
            .at(0, FaultKind::IterationLimit)
            .at(1, FaultKind::Numerical);
        let (out, _) = fault::with_injector(inj, || {
            solve_robust(&m, &SimplexOptions::default(), None)
        });
        assert!((out.result.expect("recovered").objective - 4.0).abs() < 1e-9);
        assert_eq!(out.report.succeeded_rung(), Some(Rung::BlandSafe));
    }

    #[test]
    fn three_faults_reach_perturb_rung() {
        let m = small_model();
        let inj = FaultInjector::new()
            .at(0, FaultKind::Numerical)
            .at(1, FaultKind::SingularBasis)
            .at(2, FaultKind::Numerical);
        let (out, _) = fault::with_injector(inj, || {
            solve_robust(&m, &SimplexOptions::default(), None)
        });
        let sol = out.result.expect("perturb rung should rescue");
        assert!((sol.objective - 4.0).abs() < 1e-4);
        assert_eq!(out.report.succeeded_rung(), Some(Rung::Perturb));
        assert_eq!(out.report.errors().count(), 3);
    }

    #[test]
    fn persistent_fault_is_terminal_with_full_report() {
        let m = small_model();
        let (out, used) = fault::with_injector(FaultInjector::always(FaultKind::Numerical), || {
            solve_robust(&m, &SimplexOptions::default(), None)
        });
        assert!(matches!(out.result, Err(LpError::Numerical(_))));
        // All four rungs tried (perturb polls twice only on success paths).
        assert_eq!(out.report.attempts.len(), 4);
        assert_eq!(out.report.succeeded_rung(), None);
        assert!(used.injected().len() >= 4);
    }

    #[test]
    fn deadline_fault_is_terminal_immediately() {
        let m = small_model();
        let (out, _) =
            fault::with_injector(FaultInjector::new().at(0, FaultKind::DeadlineExceeded), || {
                solve_robust(&m, &SimplexOptions::default(), None)
            });
        assert!(matches!(out.result, Err(LpError::DeadlineExceeded)));
        assert_eq!(out.report.attempts.len(), 1);
    }

    #[test]
    fn infeasible_is_terminal_immediately() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_row_ge(&[(x, 1.0)], 2.0);
        let out = solve_robust(&m, &SimplexOptions::default(), None);
        assert!(matches!(out.result, Err(LpError::Infeasible)));
        assert_eq!(out.report.attempts.len(), 1);
    }

    #[test]
    fn success_path_records_iterations_and_elapsed() {
        let m = small_model();
        let out = solve_robust(&m, &SimplexOptions::default(), None);
        let sol = out.result.expect("clean solve");
        assert_eq!(out.report.attempts.len(), 1);
        let a = &out.report.attempts[0];
        assert_eq!(a.iterations, sol.iterations);
        assert!(a.iterations > 0, "a real solve takes pivots");
        assert_eq!(out.report.total_iterations(), sol.iterations);
        // Elapsed is recorded on the success path too (not only escalation).
        assert!(out.report.total_elapsed() > std::time::Duration::ZERO);
    }

    #[test]
    fn failed_attempts_still_record_elapsed() {
        let m = small_model();
        let (out, _) =
            fault::with_injector(FaultInjector::new().at(0, FaultKind::Numerical), || {
                solve_robust(&m, &SimplexOptions::default(), None)
            });
        let report = out.report;
        assert_eq!(report.attempts.len(), 2);
        assert_eq!(report.attempts[0].iterations, 0, "faulted attempt has no count");
        assert!(report.attempts[1].iterations > 0);
        assert_eq!(report.total_iterations(), report.attempts[1].iterations);
    }

    #[test]
    fn perturbed_model_stays_close() {
        let m = small_model();
        let p = perturbed_model(&m, PERTURB);
        for j in 0..m.lb.len() {
            assert!((m.lb[j] - p.lb[j]).abs() <= 1e-6);
            assert!(p.lb[j] <= p.ub[j]);
        }
        // Deterministic: same perturbation every time.
        let p2 = perturbed_model(&m, PERTURB);
        assert_eq!(p.rhs, p2.rhs);
    }
}
