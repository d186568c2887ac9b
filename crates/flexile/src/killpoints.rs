//! Deterministic kill-points for crash-safety testing of the decomposition.
//!
//! A kill-point is an armed, process-global fault that fires exactly once
//! when the decomposition reaches a specific place:
//!
//! * [`KillPoint::Worker`] panics inside a pool worker right before it
//!   solves scenario `scenario` in iteration `iteration` — exercising the
//!   `catch_unwind` containment, template quarantine, and bounded-retry
//!   machinery of the scenario pool.
//! * [`KillPoint::Abort`] unwinds the *whole* decomposition out of
//!   iteration `iteration` (after the subproblem fan-out, before any state
//!   for that iteration lands), simulating process death mid-run. The
//!   panic payload is a [`DecompositionAborted`] so harnesses can tell an
//!   armed abort from a genuine bug; callers catch it with
//!   `std::panic::catch_unwind` and then resume from the last checkpoint.
//!
//! Arming is global to the process, so tests that use kill-points must
//! serialize on a lock (the crash-test suites do). [`arm`] returns a guard
//! that disarms on drop, which keeps a failing test from leaking armed
//! faults into the next one. Disarmed cost is one relaxed atomic load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// One deterministic fault, consumed the first time it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Panic a pool worker at scenario `scenario` of iteration `iteration`
    /// (1-based, matching [`crate::IterationStat::iteration`]). The panic
    /// is contained by the pool.
    Worker {
        /// Iteration in which the worker panics.
        iteration: usize,
        /// Scenario whose solve panics.
        scenario: usize,
    },
    /// Unwind the decomposition itself out of iteration `iteration`,
    /// simulating a process crash. Not contained — callers catch it.
    Abort {
        /// Iteration in which the decomposition dies.
        iteration: usize,
    },
}

/// Panic payload of a fired [`KillPoint::Abort`].
#[derive(Debug, Clone, Copy)]
pub struct DecompositionAborted {
    /// Iteration at which the armed abort fired.
    pub iteration: usize,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ARMED: Mutex<Vec<KillPoint>> = Mutex::new(Vec::new());

fn armed_list() -> std::sync::MutexGuard<'static, Vec<KillPoint>> {
    // A kill-point panics *while this lock is released* (fire() drops the
    // guard before panicking), but a test thread can still die between
    // arm/disarm; recover rather than cascade.
    ARMED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Disarms the kill-points it guards when dropped.
#[must_use = "dropping the guard disarms the kill-points"]
pub struct KillGuard(());

impl Drop for KillGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm a set of kill-points (appending to any already armed). Each entry
/// fires at most once; duplicate entries fire once each, which is how the
/// retry-exhaustion tests poison a scenario.
pub fn arm(points: &[KillPoint]) -> KillGuard {
    let mut g = armed_list();
    g.extend_from_slice(points);
    ANY_ARMED.store(!g.is_empty(), Ordering::Release);
    KillGuard(())
}

/// Disarm everything, returning the kill-points that never fired.
pub fn disarm() -> Vec<KillPoint> {
    let mut g = armed_list();
    ANY_ARMED.store(false, Ordering::Release);
    std::mem::take(&mut *g)
}

/// Consume one matching entry, if armed.
fn fire(p: KillPoint) -> bool {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return false;
    }
    let mut g = armed_list();
    match g.iter().position(|&a| a == p) {
        Some(i) => {
            g.remove(i);
            ANY_ARMED.store(!g.is_empty(), Ordering::Release);
            true
        }
        None => false,
    }
}

/// Worker-side check; panics (contained by the pool) when armed for
/// `(iteration, scenario)`.
pub(crate) fn maybe_fire_worker(iteration: usize, scenario: usize) {
    if fire(KillPoint::Worker { iteration, scenario }) {
        panic!("chaos kill-point: worker panic at iteration {iteration}, scenario {scenario}");
    }
}

/// Decomposition-side check; unwinds with [`DecompositionAborted`] when
/// armed for `iteration`.
pub(crate) fn maybe_fire_abort(iteration: usize) {
    if fire(KillPoint::Abort { iteration }) {
        std::panic::panic_any(DecompositionAborted { iteration });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global state: this module's tests hold one lock so parallel
    // execution cannot interleave arms. (Other suites arming kill-points
    // live in separate test binaries, i.e. separate processes.)
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn fires_once_and_disarms() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let guard = arm(&[KillPoint::Worker { iteration: 1, scenario: 3 }]);
        assert!(!fire(KillPoint::Worker { iteration: 1, scenario: 2 }));
        assert!(fire(KillPoint::Worker { iteration: 1, scenario: 3 }));
        assert!(!fire(KillPoint::Worker { iteration: 1, scenario: 3 }), "consumed");
        drop(guard);
        assert!(disarm().is_empty());
    }

    #[test]
    fn guard_disarms_unfired_points() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let _g = arm(&[KillPoint::Abort { iteration: 7 }]);
        }
        assert!(!fire(KillPoint::Abort { iteration: 7 }), "guard drop must disarm");
    }

    #[test]
    fn duplicates_fire_once_each() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let p = KillPoint::Worker { iteration: 2, scenario: 0 };
        let _g = arm(&[p, p]);
        assert!(fire(p));
        assert!(fire(p));
        assert!(!fire(p));
    }
}
