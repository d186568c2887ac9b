//! Deterministic solver fault injection.
//!
//! Robustness of everything downstream of the LP solver (the online
//! controller above all) hinges on behavior *when a solve fails* — a path
//! that healthy models essentially never exercise. This module makes those
//! failures reproducible: a [`FaultInjector`] installed on the current
//! thread forces a chosen [`FaultKind`] at chosen solve-attempt indices,
//! and every low-level simplex attempt polls it on entry.
//!
//! Granularity: one poll per *solve attempt* (each escalation rung of
//! [`crate::solve_robust`], which [`crate::Model::solve`] runs, is its own
//! attempt). A fault scheduled at index `i` therefore kills
//! exactly one attempt; later rungs see later indices, which is what lets
//! chaos tests drive each rung of the degradation ladder in turn, or use
//! [`FaultInjector::always`] to push a failure all the way to terminal.
//!
//! The injector is thread-local: tests running in parallel cannot perturb
//! each other, and production code on other threads is never affected.

use crate::error::LpError;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// The kinds of solver fault that can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Numerical failure (as from feasibility drift in the eta file).
    Numerical,
    /// Iteration-limit exhaustion.
    IterationLimit,
    /// Wall-clock deadline exhaustion.
    DeadlineExceeded,
    /// A basis matrix that fails to factorize.
    SingularBasis,
}

impl FaultKind {
    /// The error an injected fault of this kind surfaces as.
    pub fn to_error(self) -> LpError {
        match self {
            FaultKind::Numerical => LpError::Numerical("injected fault: numerical".into()),
            FaultKind::IterationLimit => LpError::IterationLimit,
            FaultKind::DeadlineExceeded => LpError::DeadlineExceeded,
            FaultKind::SingularBasis => {
                LpError::Numerical("injected fault: singular basis".into())
            }
        }
    }

    /// All four kinds, for exhaustive chaos sweeps.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Numerical,
        FaultKind::IterationLimit,
        FaultKind::DeadlineExceeded,
        FaultKind::SingularBasis,
    ];
}

/// A deterministic schedule of faults, counted per solve attempt.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    schedule: BTreeMap<u64, FaultKind>,
    every: Option<FaultKind>,
    random: Option<RandomFaults>,
    calls: u64,
    injected: Vec<(u64, FaultKind)>,
}

/// Seeded Bernoulli fault stream (for soak-style chaos runs).
#[derive(Debug, Clone)]
struct RandomFaults {
    state: u64,
    prob: f64,
    kind: FaultKind,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// An injector with no faults scheduled (useful as a call counter).
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Schedule `kind` at solve-attempt index `index` (0-based, counted
    /// from installation). Builder-style; may be chained.
    pub fn at(mut self, index: u64, kind: FaultKind) -> Self {
        self.schedule.insert(index, kind);
        self
    }

    /// Fault every attempt with `kind` — drives any escalation ladder to
    /// terminal failure.
    pub fn always(kind: FaultKind) -> Self {
        FaultInjector { every: Some(kind), ..Default::default() }
    }

    /// Seeded Bernoulli injection: each attempt faults with probability
    /// `prob`. Deterministic for a given seed.
    pub fn random(seed: u64, prob: f64, kind: FaultKind) -> Self {
        FaultInjector {
            random: Some(RandomFaults { state: seed, prob, kind }),
            ..Default::default()
        }
    }

    /// Solve attempts observed since installation.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Log of faults actually injected: `(attempt index, kind)`.
    pub fn injected(&self) -> &[(u64, FaultKind)] {
        &self.injected
    }

    fn decide(&mut self) -> Option<FaultKind> {
        let idx = self.calls;
        self.calls += 1;
        let kind = if let Some(k) = self.every {
            Some(k)
        } else if let Some(k) = self.schedule.get(&idx) {
            Some(*k)
        } else if let Some(r) = self.random.as_mut() {
            let u = (splitmix64(&mut r.state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            (u < r.prob).then_some(r.kind)
        } else {
            None
        };
        if let Some(k) = kind {
            self.injected.push((idx, k));
        }
        kind
    }
}

thread_local! {
    static INJECTOR: RefCell<Option<FaultInjector>> = const { RefCell::new(None) };
    static ATTEMPTS: Cell<u64> = const { Cell::new(0) };
}

/// Install `inj` on the current thread, replacing (and returning) any
/// previously installed injector.
pub fn install(inj: FaultInjector) -> Option<FaultInjector> {
    INJECTOR.with(|i| i.borrow_mut().replace(inj))
}

/// Remove and return the current thread's injector (with its injection log).
pub fn clear() -> Option<FaultInjector> {
    INJECTOR.with(|i| i.borrow_mut().take())
}

/// Run `f` with `inj` installed; returns `f`'s output and the injector
/// (inspect [`FaultInjector::injected`] for what actually fired). The
/// previous injector, if any, is restored afterwards — even on panic.
pub fn with_injector<R>(inj: FaultInjector, f: impl FnOnce() -> R) -> (R, FaultInjector) {
    struct Restore(Option<FaultInjector>);
    impl Drop for Restore {
        fn drop(&mut self) {
            INJECTOR.with(|i| *i.borrow_mut() = self.0.take());
        }
    }
    let restore = Restore(install(inj));
    let out = f();
    let used = clear().expect("injector vanished mid-scope");
    drop(restore);
    (out, used)
}

/// Total solve attempts observed on this thread (with or without an
/// installed injector). Pair with [`reset_attempts`] to measure a region.
pub fn attempts() -> u64 {
    ATTEMPTS.with(|a| a.get())
}

/// Reset the thread's attempt counter to zero.
pub fn reset_attempts() {
    ATTEMPTS.with(|a| a.set(0));
}

/// Solver-internal hook: called once at the start of every solve attempt.
pub(crate) fn poll() -> Option<FaultKind> {
    ATTEMPTS.with(|a| a.set(a.get() + 1));
    INJECTOR.with(|i| i.borrow_mut().as_mut().and_then(|inj| inj.decide()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_fault_fires_at_index() {
        let mut inj = FaultInjector::new().at(1, FaultKind::Numerical);
        assert_eq!(inj.decide(), None);
        assert_eq!(inj.decide(), Some(FaultKind::Numerical));
        assert_eq!(inj.decide(), None);
        assert_eq!(inj.calls(), 3);
        assert_eq!(inj.injected(), &[(1, FaultKind::Numerical)]);
    }

    #[test]
    fn always_faults_every_call() {
        let mut inj = FaultInjector::always(FaultKind::DeadlineExceeded);
        for _ in 0..5 {
            assert_eq!(inj.decide(), Some(FaultKind::DeadlineExceeded));
        }
        assert_eq!(inj.injected().len(), 5);
    }

    #[test]
    fn random_mode_is_seed_deterministic() {
        let run = |seed| {
            let mut inj = FaultInjector::random(seed, 0.3, FaultKind::IterationLimit);
            (0..100).map(|_| inj.decide().is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let hits = run(9).iter().filter(|&&b| b).count();
        assert!((10..60).contains(&hits), "p=0.3 of 100 gave {hits}");
    }

    #[test]
    fn with_injector_restores_previous() {
        install(FaultInjector::new().at(0, FaultKind::Numerical));
        let ((), used) = with_injector(FaultInjector::always(FaultKind::SingularBasis), || {
            assert_eq!(poll(), Some(FaultKind::SingularBasis));
        });
        assert_eq!(used.calls(), 1);
        // The outer injector is back and still has its scheduled fault.
        assert_eq!(poll(), Some(FaultKind::Numerical));
        clear();
    }

    #[test]
    fn kinds_map_to_errors() {
        assert_eq!(FaultKind::IterationLimit.to_error(), LpError::IterationLimit);
        assert_eq!(FaultKind::DeadlineExceeded.to_error(), LpError::DeadlineExceeded);
        assert!(matches!(FaultKind::Numerical.to_error(), LpError::Numerical(_)));
        assert!(matches!(FaultKind::SingularBasis.to_error(), LpError::Numerical(_)));
    }
}
