//! Deterministic kill-points for crash-safety testing of the decomposition.
//!
//! A kill-point is an armed, process-global fault that fires exactly once
//! when the decomposition reaches a specific place:
//!
//! * [`KillPoint::Worker`] panics inside a pool worker right before it
//!   solves scenario `scenario` in iteration `iteration` — exercising the
//!   `catch_unwind` containment, template quarantine, and bounded-retry
//!   machinery of [`crate::pool`].
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
    /// Abort the whole *worker process* (`std::process::abort`) right
    /// before it solves `scenario` in `iteration` — the distributed
    /// equivalent of SIGKILL mid-solve. `scenario == ANY_SCENARIO` fires
    /// on the first assignment the worker processes for that iteration.
    /// Armed inside worker processes via [`to_env`]/[`arm_from_env`].
    ProcExit {
        /// Iteration in which the worker process dies.
        iteration: usize,
        /// Scenario whose assignment kills the process ([`ANY_SCENARIO`]
        /// for "the first one").
        scenario: usize,
    },
    /// Hang the distributed worker at the first assignment of `iteration`:
    /// heartbeats stop and the main loop sleeps forever, so the
    /// coordinator's deadline machinery must detect the stall, kill the
    /// process, and reassign its scenarios.
    HeartbeatStall {
        /// Iteration in which the worker hangs.
        iteration: usize,
    },
    /// Corrupt the checksum of the worker's result frame for
    /// `(iteration, scenario)` on the wire, exercising the coordinator's
    /// frame validation and drop-the-connection containment.
    FrameCorrupt {
        /// Iteration of the corrupted result frame.
        iteration: usize,
        /// Scenario of the corrupted result frame ([`ANY_SCENARIO`] for
        /// "the first one").
        scenario: usize,
    },
}

/// Wildcard scenario for [`KillPoint::ProcExit`] / [`KillPoint::FrameCorrupt`]:
/// matches the first assignment the worker processes in the given
/// iteration, so process-death chaos does not need to predict which
/// scenarios land on which worker.
pub const ANY_SCENARIO: usize = usize::MAX;

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

/// Worker-process check; aborts the process when a [`KillPoint::ProcExit`]
/// is armed for `(iteration, scenario)` or `(iteration, ANY_SCENARIO)`.
pub(crate) fn maybe_fire_proc_exit(iteration: usize, scenario: usize) {
    if fire(KillPoint::ProcExit { iteration, scenario })
        || fire(KillPoint::ProcExit { iteration, scenario: ANY_SCENARIO })
    {
        eprintln!("chaos kill-point: worker process abort at iteration {iteration}");
        std::process::abort();
    }
}

/// Worker-process check; consumes an armed [`KillPoint::HeartbeatStall`]
/// for `iteration` and reports whether the worker should hang.
pub(crate) fn fire_heartbeat_stall(iteration: usize) -> bool {
    fire(KillPoint::HeartbeatStall { iteration })
}

/// Worker-process check; consumes an armed [`KillPoint::FrameCorrupt`] for
/// `(iteration, scenario)` (or the wildcard) and reports whether the
/// result frame's checksum should be corrupted.
pub(crate) fn fire_frame_corrupt(iteration: usize, scenario: usize) -> bool {
    fire(KillPoint::FrameCorrupt { iteration, scenario })
        || fire(KillPoint::FrameCorrupt { iteration, scenario: ANY_SCENARIO })
}

/// Serialize kill-points for crossing a process boundary (the coordinator
/// arms worker-side chaos through the `FLEXILE_DIST_CHAOS` environment
/// variable). Inverse of [`arm_from_env`].
pub fn to_env(points: &[KillPoint]) -> String {
    let scen = |s: usize| {
        if s == ANY_SCENARIO { "*".to_string() } else { s.to_string() }
    };
    points
        .iter()
        .map(|p| match *p {
            KillPoint::Worker { iteration, scenario } => format!("worker:{iteration}:{}", scen(scenario)),
            KillPoint::Abort { iteration } => format!("abort:{iteration}"),
            KillPoint::ProcExit { iteration, scenario } => format!("exit:{iteration}:{}", scen(scenario)),
            KillPoint::HeartbeatStall { iteration } => format!("stall:{iteration}"),
            KillPoint::FrameCorrupt { iteration, scenario } => format!("corrupt:{iteration}:{}", scen(scenario)),
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parse a [`to_env`] encoding and arm the kill-points it carries.
/// Malformed entries are reported as an error (a chaos harness with a typo
/// must fail loudly, not silently run fault-free).
pub fn arm_from_env(spec: &str) -> Result<KillGuard, String> {
    let mut points = Vec::new();
    for entry in spec.split(';').filter(|e| !e.is_empty()) {
        let mut f = entry.split(':');
        let kind = f.next().unwrap_or("");
        let it: usize = f
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad kill-point iteration in {entry:?}"))?;
        let scenario = |f: &mut std::str::Split<'_, char>| -> Result<usize, String> {
            match f.next() {
                Some("*") => Ok(ANY_SCENARIO),
                Some(v) => v.parse().map_err(|_| format!("bad kill-point scenario in {entry:?}")),
                None => Err(format!("missing kill-point scenario in {entry:?}")),
            }
        };
        let p = match kind {
            "worker" => KillPoint::Worker { iteration: it, scenario: scenario(&mut f)? },
            "abort" => KillPoint::Abort { iteration: it },
            "exit" => KillPoint::ProcExit { iteration: it, scenario: scenario(&mut f)? },
            "stall" => KillPoint::HeartbeatStall { iteration: it },
            "corrupt" => KillPoint::FrameCorrupt { iteration: it, scenario: scenario(&mut f)? },
            _ => return Err(format!("unknown kill-point kind in {entry:?}")),
        };
        if f.next().is_some() {
            return Err(format!("trailing fields in kill-point {entry:?}"));
        }
        points.push(p);
    }
    Ok(arm(&points))
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
    fn env_round_trip_arms_process_faults() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let points = [
            KillPoint::ProcExit { iteration: 2, scenario: ANY_SCENARIO },
            KillPoint::HeartbeatStall { iteration: 3 },
            KillPoint::FrameCorrupt { iteration: 4, scenario: 7 },
            KillPoint::Worker { iteration: 1, scenario: 0 },
        ];
        let spec = to_env(&points);
        let guard = arm_from_env(&spec).expect("well-formed spec");
        assert!(fire_heartbeat_stall(3));
        assert!(!fire_heartbeat_stall(3), "consumed");
        assert!(fire_frame_corrupt(4, 7));
        assert!(fire(KillPoint::ProcExit { iteration: 2, scenario: ANY_SCENARIO }));
        drop(guard);
        assert!(disarm().is_empty());
        assert!(arm_from_env("exit:bogus").is_err());
        assert!(arm_from_env("nonsense:1:2").is_err());
        disarm();
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
