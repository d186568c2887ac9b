//! Persistent scenario-solve pool for the decomposition (§4.2).
//!
//! The reformulated subproblem `S_q` makes re-solving a scenario across
//! Benders iterations an **RHS-only** change: the criticality rows flip
//! between 0 and −1 and the capacity rows scale, while the LHS never moves.
//! That is exactly the memoization the bounded dual simplex was built for —
//! but it only pays off if each scenario's warm basis *survives* between
//! iterations and is never clobbered by a different scenario's RHS pattern.
//!
//! This module provides that state management:
//!
//! * **Per-scenario warm bases, per-worker models** — a scenario's slot
//!   holds only its warm basis. Every scenario of a demand factor has the
//!   same LHS, so each worker keeps one [`SubproblemTemplate`] per demand
//!   factor and, before each solve, installs the scenario's RHS and its γ
//!   loss bounds (§4.4) in it. The solve takes the slot's basis in and
//!   leaves its optimum there, so iteration `k+1` restarts scenario `q`
//!   from scenario `q`'s own optimal basis via the explicit dual-simplex
//!   RHS path ([`flexile_lp::Model::solve_rhs_restart`]).
//! * **Donor bases** — before the first wave, one *donor* per distinct
//!   demand factor is solved serially: the lowest-index scenario with that
//!   factor (the all-alive state in enumerated sets) at the all-critical
//!   column, under a `flexile.donor` span. Every empty slot — before its
//!   first solve, after an LRU eviction, after a quarantine — starts from
//!   its factor's donor basis, so even a scenario's first solve is a dual
//!   restart rather than a cold two-phase solve. Models of different
//!   demand factors differ in their (17) coefficients and never share a
//!   donor. [`PoolPolicy::Cold`] solves no donor.
//! * **Persistent workers** — one `thread::scope` spans the *whole*
//!   decomposition; workers park on a condvar between iterations instead of
//!   being respawned, and iterations are dispatched as epochs.
//! * **Work stealing** — workers claim scenarios off a shared atomic cursor
//!   rather than static `skip/step_by` stripes, so one slow scenario no
//!   longer idles the other workers. Claims that deviate from the old static
//!   striping are counted as `flexile.steal`.
//! * **Bounded basis residency** — an LRU budget over the per-scenario
//!   warm bases (evicted only at iteration boundaries, oldest last-use
//!   first, ties broken by lower scenario index, so eviction — and
//!   therefore every solve's warm-start history — is deterministic
//!   regardless of thread count or timing). A residency of 0 is the
//!   cold-every-iteration policy.
//!
//! A worker's model carries no state from one solve to the next. Each
//! solve overwrites every RHS entry and every loss bound, and takes its
//! basis from the slot; everything else in the model (the LHS, the
//! objective, the other bounds) is the same for every scenario of the
//! factor. So a solve's result depends neither on which worker runs it nor
//! on what that worker solved before, and one model per factor serves
//! every scenario.
//!
//! ## Crash safety
//!
//! A panic inside a subproblem solve is **contained**: the solve runs under
//! `catch_unwind`, the panicking scenario's slot is *quarantined* (cleared,
//! so the next attempt restarts from its donor), the worker drops its
//! model of that factor (rebuilt on next use), and the solve is retried in
//! place up to [`MAX_PANIC_RETRIES`] times. A scenario that
//! keeps panicking surfaces a typed [`PoolError::ScenarioPoisoned`] —
//! which the decomposition treats like any other failed solve (pessimistic
//! losses, retried next iteration) — instead of aborting the run. Every
//! lock acquisition recovers from mutex poisoning (a panicked worker leaves
//! each structure in a consistent state: slots are quarantined, queues
//! only ever append), so one contained panic cannot cascade into
//! process-wide `PoisonError` unwinding. Counted as
//! `flexile.worker_panic` / `flexile.scenario_quarantined`.
//!
//! A slot's only state between solves is whether it is resident and, if
//! so, its warm basis. A checkpoint stores exactly that per slot
//! ([`PoolSnapshot`]), and [`PoolHandle::restore`] puts it back, solving no
//! LP. The resumed pool still solves its donors, so slots emptied later by
//! eviction or quarantine refill where the uninterrupted run's would.
//!
//! Determinism: a donor depends only on the inputs (it is solved on the
//! calling thread before any worker runs), and after that, scenario `q`'s
//! solve sequence depends only on its own solve history (its slot is
//! locked per solve and touched by no other scenario, and the model it is
//! solved on carries nothing over), so the decomposition output is
//! bit-identical across thread counts, runs and resumes.

use crate::subproblem::{same_demand_factor, SolveStats, SubproblemSolution, SubproblemTemplate};
use flexile_lp::{Basis, LpError};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Contained panics tolerated per scenario *per dispatch* before the
/// scenario is reported as poisoned for the iteration.
pub const MAX_PANIC_RETRIES: u32 = 2;

/// Scenario warm bases kept resident between iterations under
/// [`PoolPolicy::PerScenario`]; LRU beyond this. Deliberately generous: a
/// basis holds one index per row and one status per row and column of
/// `S_q`, small next to the scenario set itself. Hashed into the
/// checkpoint's `pool_policy` fingerprint.
pub(crate) const BASIS_RESIDENCY: usize = 4096;

/// How the decomposition schedules and reuses subproblem solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// Persistent pool, one warm basis per scenario starting from its
    /// demand factor's donor basis, work-stealing scheduler (the default).
    #[default]
    PerScenario,
    /// No basis reuse at all: no donor, and every solve is cold. The
    /// baseline warm restarts are measured against.
    Cold,
}

/// Why a scenario's solve failed this iteration. Solver verdicts pass
/// through; the panic-containment variants carry which worker/scenario
/// failed and how, so nothing is lost when a worker dies.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// The LP itself failed (see [`LpError`] for the retry taxonomy).
    Solver(LpError),
    /// The scenario's solve panicked more than [`MAX_PANIC_RETRIES`] times
    /// in a row, each retry from its donor basis on a rebuilt model. The scenario is
    /// skipped this iteration (pessimistic losses) and retried next round.
    ScenarioPoisoned {
        /// Scenario whose solves kept panicking.
        scenario: usize,
        /// Worker that performed the final attempt.
        worker: usize,
        /// Attempts made (initial + retries).
        attempts: u32,
        /// Panic payload of the final attempt, stringified.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Solver(e) => write!(f, "subproblem solver error: {e}"),
            PoolError::ScenarioPoisoned { scenario, worker, attempts, message } => write!(
                f,
                "scenario {scenario} poisoned after {attempts} panicking attempts \
                 (last on worker {worker}): {message}"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<LpError> for PoolError {
    fn from(e: LpError) -> Self {
        PoolError::Solver(e)
    }
}

/// One scenario's outcome in an iteration.
type ScenResult = (usize, Result<(SubproblemSolution, SolveStats), PoolError>);

/// Acquire a mutex, recovering the inner value if a previous holder
/// panicked. Every structure guarded here stays consistent across a panic
/// (slots are quarantined by the containment path; control queues only
/// append), so propagating the poison would turn one contained fault into a
/// process-wide cascade.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything a worker needs to build and solve a scenario's subproblem.
pub(crate) struct PoolCtx<'a> {
    pub inst: &'a Instance,
    pub set: &'a ScenarioSet,
    /// γ-variant per-scenario loss bounds (§4.4); `None` for the plain form.
    pub loss_ub: Option<&'a [Vec<f64>]>,
    /// The solved donors: a demand factor and its donor basis. Empty when
    /// the pool runs cold; a factor whose donor solve failed has no entry.
    donors: Vec<(f64, Basis)>,
}

impl<'a> PoolCtx<'a> {
    pub(crate) fn new(
        inst: &'a Instance,
        set: &'a ScenarioSet,
        loss_ub: Option<&'a [Vec<f64>]>,
    ) -> Self {
        PoolCtx { inst, set, loss_ub, donors: Vec::new() }
    }

    /// The donor basis of scenario `q`'s demand factor, if one was solved:
    /// the warm state of a slot that holds none.
    fn donor(&self, q: usize) -> Option<&Basis> {
        let factor = self.set.scenarios[q].demand_factor;
        self.donors.iter().find(|(f, _)| same_demand_factor(*f, factor)).map(|(_, basis)| basis)
    }

    /// Solve scenario `q` with criticality column `col` on `models`,
    /// restarting from `warm` and leaving the new warm state there. The
    /// model is shared by every scenario of `q`'s demand factor, so this
    /// installs everything that is `q`'s own: its γ loss bounds here, its
    /// RHS inside the solve.
    fn solve_on(
        &self,
        models: &mut Models,
        q: usize,
        col: &[bool],
        warm: &mut Option<Basis>,
    ) -> Result<(SubproblemSolution, SolveStats), LpError> {
        let scen = &self.set.scenarios[q];
        let tmpl = models.get(self.inst, scen.demand_factor);
        if let Some(ub) = self.loss_ub {
            tmpl.set_loss_bounds(&ub[q]);
        }
        tmpl.solve_with_stats(self.inst, scen, col, warm)
    }

    /// Solve one donor per distinct demand factor, serially and in scenario
    /// order: the lowest-index scenario with the factor, all flows
    /// critical, cold. The result depends only on the inputs.
    fn solve_donors(&mut self) {
        let all_critical = vec![true; self.inst.num_flows()];
        let mut models = Models::default();
        for (q, scen) in self.set.scenarios.iter().enumerate() {
            let factor = scen.demand_factor;
            if models.has(factor) {
                continue;
            }
            let _sp = flexile_obs::span("flexile.donor", "flexile")
                .field("scenario", q)
                .field("demand_factor", factor);
            let mut warm = None;
            if self.solve_on(&mut models, q, &all_critical, &mut warm).is_ok() {
                self.donors.extend(warm.map(|basis| (factor, basis)));
            }
        }
    }
}

/// One worker's subproblem models: a [`SubproblemTemplate`] per demand
/// factor, built on first use.
#[derive(Default)]
struct Models(Vec<SubproblemTemplate>);

impl Models {
    fn has(&self, factor: f64) -> bool {
        self.0.iter().any(|t| t.matches_factor(factor))
    }

    /// The model of `factor`, built if this worker has none.
    fn get(&mut self, inst: &Instance, factor: f64) -> &mut SubproblemTemplate {
        let i = match self.0.iter().position(|t| t.matches_factor(factor)) {
            Some(i) => i,
            None => {
                self.0.push(SubproblemTemplate::for_demand_factor(inst, None, factor));
                self.0.len() - 1
            }
        };
        &mut self.0[i]
    }

    /// Drop the model of `factor`, whatever state a panic left it in.
    fn discard(&mut self, factor: f64) {
        self.0.retain(|t| !t.matches_factor(factor));
    }
}

/// The pool's state at an iteration boundary, for checkpointing.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PoolSnapshot {
    /// Last iteration each scenario's slot was used (0 = never/evicted).
    pub stamps: Vec<u64>,
    /// Each scenario's slot (see [`Slot`]).
    pub bases: Vec<Slot>,
}

/// A scenario's warm state: `None` when not resident (the next solve
/// starts from the donor basis), else the basis the next solve restarts
/// from (`Some(None)`: the next solve is cold).
pub(crate) type Slot = Option<Option<Basis>>;

/// An epoch's work order, claimed off a shared cursor.
struct Job {
    todo: Vec<usize>,
    /// `cols[i]` is the criticality column for `todo[i]`.
    cols: Vec<Vec<bool>>,
    /// Next index into `todo` to claim.
    cursor: AtomicUsize,
    /// Decomposition iteration (1-based) for kill-point checks.
    it: usize,
}

struct Ctl {
    /// Bumped once per dispatched iteration; workers wake on a change.
    epoch: u64,
    shutdown: bool,
    job: Option<Arc<Job>>,
    /// Scenarios of the current epoch not yet completed.
    remaining: usize,
    results: Vec<ScenResult>,
    /// Per-worker solve time (µs) within the current epoch, for the
    /// `flexile.subproblem_wait` idle-time histogram.
    worker_busy: Vec<u64>,
}

struct Shared {
    ctl: Mutex<Ctl>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// One contained solve of scenario `q`: panics inside the
/// claim-slot-and-solve region quarantine the slot, drop the worker's
/// model of `q`'s demand factor and retry from the donor basis, bounded by
/// [`MAX_PANIC_RETRIES`].
fn solve_contained(
    slots: &[Mutex<Slot>],
    models: &mut Models,
    ctx: &PoolCtx<'_>,
    it: usize,
    q: usize,
    col: &[bool],
    worker: usize,
) -> Result<(SubproblemSolution, SolveStats), PoolError> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut slot = lock_recover(&slots[q]);
            let warm = slot.get_or_insert_with(|| ctx.donor(q).cloned());
            crate::killpoints::maybe_fire_worker(it, q);
            let _sq = flexile_obs::span("flexile.subproblem", "flexile").field("scenario", q);
            ctx.solve_on(models, q, col, warm)
        }));
        match outcome {
            Ok(res) => return res.map_err(PoolError::Solver),
            Err(payload) => {
                flexile_obs::add("flexile.worker_panic", 1);
                flexile_obs::flight::dump("worker_panic");
                // Quarantine: whatever state the panic left the slot and
                // the model in, neither is used again. The next attempt
                // (this retry or a later iteration) restarts from the
                // donor on a rebuilt model.
                *lock_recover(&slots[q]) = None;
                models.discard(ctx.set.scenarios[q].demand_factor);
                flexile_obs::add("flexile.scenario_quarantined", 1);
                flexile_obs::flight::dump("scenario_quarantined");
                if attempts > MAX_PANIC_RETRIES {
                    return Err(PoolError::ScenarioPoisoned {
                        scenario: q,
                        worker,
                        attempts,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
}

fn worker_loop(
    shared: &Shared,
    slots: &[Mutex<Slot>],
    ctx: &PoolCtx<'_>,
    id: usize,
    nworkers: usize,
) {
    let mut my_epoch = 0u64;
    let mut models = Models::default();
    loop {
        let job = {
            let mut g = lock_recover(&shared.ctl);
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch > my_epoch {
                    my_epoch = g.epoch;
                    // The job is installed before the epoch bump under the
                    // same lock, so it is always present here.
                    match g.job.clone() {
                        Some(j) => break j,
                        None => return,
                    }
                }
                g = shared.work_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        };
        loop {
            let i = job.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= job.todo.len() {
                break;
            }
            if i % nworkers != id {
                flexile_obs::add("flexile.steal", 1);
            }
            let q = job.todo[i];
            let t0 = Instant::now();
            let res = solve_contained(slots, &mut models, ctx, job.it, q, &job.cols[i], id);
            let busy = t0.elapsed().as_micros() as u64;
            let mut g = lock_recover(&shared.ctl);
            g.worker_busy[id] += busy;
            g.results.push((q, res));
            g.remaining -= 1;
            if g.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
    }
}

/// The main thread's handle to the persistent pool: one call per
/// decomposition iteration, plus the checkpoint snapshot/restore hooks.
pub(crate) struct PoolHandle<'a> {
    shared: &'a Shared,
    slots: &'a [Mutex<Slot>],
    residency: usize,
    /// Last iteration each scenario's slot was used (0 = never/evicted).
    stamp: Vec<u64>,
}

impl PoolHandle<'_> {
    /// Dispatch one epoch to the workers and wait for every result.
    fn run_epoch(&mut self, todo: Vec<usize>, cols: Vec<Vec<bool>>, it: usize) -> Vec<ScenResult> {
        let n = todo.len();
        let wall0 = Instant::now();
        {
            let mut g = lock_recover(&self.shared.ctl);
            g.job = Some(Arc::new(Job { todo, cols, cursor: AtomicUsize::new(0), it }));
            g.epoch += 1;
            g.remaining = n;
            g.results = Vec::with_capacity(n);
            g.worker_busy.iter_mut().for_each(|b| *b = 0);
            self.shared.work_cv.notify_all();
        }
        let mut results = {
            let mut g = lock_recover(&self.shared.ctl);
            while g.remaining > 0 {
                g = self.shared.done_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            std::mem::take(&mut g.results)
        };
        if flexile_obs::enabled() {
            let wall = wall0.elapsed().as_micros() as u64;
            let g = lock_recover(&self.shared.ctl);
            for &busy in &g.worker_busy {
                flexile_obs::observe("flexile.subproblem_wait", wall.saturating_sub(busy) as f64);
            }
        }
        results.sort_by_key(|&(q, _)| q);
        results
    }

    /// Enforce the residency budget. Runs only at iteration boundaries (the
    /// workers are parked), so eviction order — oldest last-use first, ties
    /// by lower scenario index — never depends on scheduling.
    fn evict(&mut self) {
        let mut live: Vec<(u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| lock_recover(s).is_some())
            .map(|(q, _)| (self.stamp[q], q))
            .collect();
        if live.len() <= self.residency {
            return;
        }
        live.sort_unstable();
        let excess = live.len() - self.residency;
        for &(_, q) in live.iter().take(excess) {
            self.retire(q);
        }
    }

    /// Solve every scenario in `todo` (ascending) with the matching
    /// criticality columns `cols[i]` for `todo[i]`, as iteration `it`
    /// (1-based). Returns one result per scenario, sorted by scenario index.
    pub(crate) fn solve_iteration(
        &mut self,
        it: usize,
        todo: &[usize],
        cols: Vec<Vec<bool>>,
    ) -> Vec<ScenResult> {
        if todo.is_empty() {
            return Vec::new();
        }
        let results = self.run_epoch(todo.to_vec(), cols, it);
        for &q in todo {
            self.stamp[q] = it as u64;
        }
        self.evict();
        results
    }

    /// Drop `q`'s warm basis (an LRU eviction, or perfect-scenario
    /// pruning: the decomposition will never solve `q` again).
    pub(crate) fn retire(&mut self, q: usize) {
        *lock_recover(&self.slots[q]) = None;
        self.stamp[q] = 0;
    }

    /// Capture the LRU stamps and every slot's warm state for
    /// checkpointing.
    pub(crate) fn snapshot(&self) -> PoolSnapshot {
        // Only called at iteration boundaries (workers parked), so slot
        // contents are quiescent and consistent with `stamp`.
        PoolSnapshot {
            stamps: self.stamp.clone(),
            bases: self.slots.iter().map(|s| lock_recover(s).clone()).collect(),
        }
    }

    /// Restore a snapshot: every slot's warm state and the LRU stamps.
    /// Solves nothing.
    pub(crate) fn restore(&mut self, snap: PoolSnapshot) {
        self.stamp = snap.stamps;
        for (q, warm) in snap.bases.into_iter().enumerate() {
            *lock_recover(&self.slots[q]) = warm;
        }
    }
}

/// Run `f` with a persistent scenario pool of `nworkers` threads under
/// `policy` (donor-seeded, [`BASIS_RESIDENCY`] warm bases for
/// [`PoolPolicy::PerScenario`], none for [`PoolPolicy::Cold`]). The donors
/// are solved on the calling thread before any worker starts. Workers
/// live exactly as long as `f` — including when `f` unwinds (e.g. an armed
/// [`crate::killpoints`] abort simulating process death): a drop guard
/// flips the shutdown flag so the scope join cannot deadlock on parked
/// workers.
pub(crate) fn with_pool<R>(
    mut ctx: PoolCtx<'_>,
    nworkers: usize,
    policy: PoolPolicy,
    f: impl FnOnce(&mut PoolHandle<'_>) -> R,
) -> R {
    let residency = match policy {
        PoolPolicy::PerScenario => {
            ctx.solve_donors();
            BASIS_RESIDENCY
        }
        PoolPolicy::Cold => 0,
    };
    let nq = ctx.set.scenarios.len();
    let slots: Vec<Mutex<Slot>> = (0..nq).map(|_| Mutex::new(None)).collect();
    let shared = Shared {
        ctl: Mutex::new(Ctl {
            epoch: 0,
            shutdown: false,
            job: None,
            remaining: 0,
            results: Vec::new(),
            worker_busy: vec![0; nworkers],
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    };
    struct ShutdownGuard<'a>(&'a Shared);
    impl Drop for ShutdownGuard<'_> {
        fn drop(&mut self) {
            lock_recover(&self.0.ctl).shutdown = true;
            self.0.work_cv.notify_all();
        }
    }
    std::thread::scope(|s| {
        for id in 0..nworkers {
            let shared = &shared;
            let slots = &slots;
            let ctx = &ctx;
            s.spawn(move || worker_loop(shared, slots, ctx, id, nworkers));
        }
        let mut handle = PoolHandle {
            shared: &shared,
            slots: &slots,
            residency,
            stamp: vec![0; nq],
        };
        let _shutdown = ShutdownGuard(&shared);
        f(&mut handle)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subproblem::tests::{fig1_instance, fig1_scenarios, CERTIFICATE_FAILURES};
    use flexile_lp::fault::with_injector;
    use flexile_lp::{FaultInjector, FaultKind};
    use flexile_scenario::tm::with_demand_levels;

    /// Each slot's warm-basis fingerprint (`None` for an empty slot).
    fn fingerprints(pool: &PoolHandle<'_>) -> Vec<Option<u64>> {
        let print = |s: &Mutex<Slot>| lock_recover(s).clone().flatten().map(|b| b.fingerprint());
        pool.slots.iter().map(print).collect()
    }

    /// Solves that succeeded and reused a basis.
    fn warm_hits(results: &[ScenResult]) -> usize {
        results.iter().filter(|(_, r)| r.as_ref().is_ok_and(|(_, stats)| stats.warm_hit)).count()
    }

    /// Snapshot `pool`, restore the snapshot into a fresh pool of `threads`
    /// workers, and return the restored slots' fingerprints. The restore
    /// runs on the calling thread and must solve nothing there.
    fn restored_fingerprints(
        pool: &PoolHandle<'_>,
        inst: &Instance,
        set: &ScenarioSet,
        threads: usize,
    ) -> Vec<Option<u64>> {
        let snap = pool.snapshot();
        with_pool(PoolCtx::new(inst, set, None), threads, PoolPolicy::PerScenario, |fresh| {
            let before = flexile_lp::fault::attempts();
            fresh.restore(snap);
            assert_eq!(flexile_lp::fault::attempts(), before, "restore solves no LP");
            fingerprints(fresh)
        })
    }

    #[test]
    fn restore_rebuilds_the_live_slots() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let nq = set.scenarios.len();
        let todo: Vec<usize> = (0..nq).collect();
        let half: Vec<usize> = (0..nq / 2).collect();
        let flipped: Vec<Vec<bool>> = half.iter().map(|&q| vec![q % 2 == 0, q % 2 == 1]).collect();
        with_pool(PoolCtx::new(&inst, &set, None), 2, PoolPolicy::PerScenario, |pool| {
            pool.residency = nq / 2;
            let first = pool.solve_iteration(1, &todo, vec![vec![true, true]; nq]);
            assert_eq!(warm_hits(&first), nq, "first solves restart from the donor");
            // Equal stamps evict the lower indices first: the first half
            // is gone, and iteration 2 rebuilds it from the donor.
            let evicted = fingerprints(pool);
            assert!(evicted[..nq / 2].iter().all(Option::is_none));
            assert!(evicted[nq / 2..].iter().all(Option::is_some));
            for threads in [1, 2] {
                assert_eq!(restored_fingerprints(pool, &inst, &set, threads), evicted);
            }
            let rebuilt = pool.solve_iteration(2, &half, flipped);
            assert_eq!(warm_hits(&rebuilt), half.len(), "an LRU rebuild restarts from the donor");
            // Iteration 2 stamped the first half, so the second is evicted.
            let live = fingerprints(pool);
            assert!(live[..nq / 2].iter().all(Option::is_some));
            assert!(live[nq / 2..].iter().all(Option::is_none));
            assert!(pool.snapshot().bases[nq / 2..].iter().all(Option::is_none));
            for threads in [1, 2] {
                assert_eq!(restored_fingerprints(pool, &inst, &set, threads), live);
            }
        });
    }

    #[test]
    fn restore_keeps_a_slot_whose_failed_solve_dropped_its_basis() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let q = 1;
        let mut ctx = PoolCtx::new(&inst, &set, None);
        ctx.solve_donors();
        with_pool(PoolCtx::new(&inst, &set, None), 1, PoolPolicy::PerScenario, |pool| {
            let mut models = Models::default();
            let mut solve = |it: usize, col: &[bool]| {
                solve_contained(pool.slots, &mut models, &ctx, it, q, col, 0)
            };
            assert!(solve(1, &[true, true]).is_ok());
            // The warm restart runs out of iterations, so the solve drops
            // the slot's basis; the cold ladder then fails too.
            let (failed, _) =
                with_injector(FaultInjector::always(FaultKind::IterationLimit), || {
                    solve(2, &[true, false])
                });
            assert!(failed.is_err());
            let live = fingerprints(pool);
            assert_eq!(live[q], None, "the next solve of the live pool is cold");
            assert_eq!(pool.snapshot().bases[q], Some(None), "resident, without a basis");
            assert_eq!(restored_fingerprints(pool, &inst, &set, 1), live);
        });
    }

    #[test]
    fn donors_never_cross_demand_factors() {
        let inst = fig1_instance();
        let set = with_demand_levels(&fig1_scenarios(), &[(1.0, 0.7), (3.0, 0.3)]);
        let mut ctx = PoolCtx::new(&inst, &set, None);
        ctx.solve_donors();
        assert_eq!(ctx.donors.len(), 2, "one donor per demand factor");
        let donor_print = |factor: f64| -> u64 {
            let (_, basis) = ctx.donors.iter().find(|(f, _)| *f == factor).expect("a donor");
            basis.fingerprint()
        };
        assert_ne!(donor_print(1.0), donor_print(3.0), "the two factors' optima differ");
        for q in 0..set.scenarios.len() {
            let seeded = ctx.donor(q).map(Basis::fingerprint);
            assert_eq!(seeded, Some(donor_print(set.scenarios[q].demand_factor)), "scenario {q}");
        }

        let hits = assert_first_wave_reaches_the_cold_optimum(&inst, &set);
        assert_eq!(hits, set.scenarios.len(), "every first solve restarts from its donor");
    }

    #[test]
    fn two_class_donor_seeded_solves_reach_the_cold_optimum() {
        // The two-class instance of `examples/two_class_wan`. About half of
        // its donor-seeded first solves end on another optimal basis than
        // the cold solve (other losses, other duals, so other cuts), which
        // is why its 5-iteration design follows another trajectory. The
        // optimal values must agree and every solve must certify.
        let topo = flexile_topo::topology_by_name("IBM").expect("IBM is in the zoo");
        let probs = flexile_scenario::link_failure_probs(topo.num_links(), 0.8, 0.001, 42);
        let units = flexile_scenario::model::link_units(&topo, &probs);
        let set = flexile_scenario::enumerate_scenarios(
            &units,
            topo.num_links(),
            &flexile_scenario::EnumOptions {
                prob_cutoff: 1e-6,
                max_scenarios: 60,
                coverage_target: 0.9999999,
            },
        );
        let inst = Instance::two_class(topo, 42, 0.6, Some(40));
        let hits = assert_first_wave_reaches_the_cold_optimum(&inst, &set);
        // Some restarts run past the LP layer's pivot cap and finish cold.
        assert!(hits > 0, "the donor seeds first solves");
        let failures = CERTIFICATE_FAILURES.lock().unwrap_or_else(|e| e.into_inner());
        assert!(failures.is_empty(), "{} failed certificates: {failures:?}", failures.len());
    }

    /// Sprint at 6 pairs over its 12 most likely failure scenarios.
    fn sprint() -> (Instance, ScenarioSet) {
        let topo = flexile_topo::topology_by_name("Sprint").expect("Sprint is in the zoo");
        let probs = flexile_scenario::link_failure_probs(topo.num_links(), 0.8, 0.001, 42);
        let units = flexile_scenario::model::link_units(&topo, &probs);
        let set = flexile_scenario::enumerate_scenarios(
            &units,
            topo.num_links(),
            &flexile_scenario::EnumOptions {
                prob_cutoff: 1e-6,
                max_scenarios: 12,
                coverage_target: 0.9999,
            },
        );
        (Instance::single_class(topo, 7, 0.95, Some(6)), set)
    }

    /// Everything a subproblem solve returns, as bits.
    fn solve_bits(sol: &SubproblemSolution, warm: &Option<Basis>) -> Vec<u64> {
        let floats = std::iter::once(sol.value)
            .chain(sol.alpha.iter().copied())
            .chain(sol.loss.iter().copied())
            .chain(sol.cut.w.iter().copied())
            .chain(sol.cut.u.iter().copied())
            .chain(std::iter::once(sol.cut.d_const));
        floats.map(f64::to_bits).chain(warm.as_ref().map(Basis::fingerprint)).collect()
    }

    #[test]
    fn gamma_bounds_do_not_leak_across_a_shared_model() {
        // Under γ every scenario has its own loss bounds, yet one worker
        // solves every scenario of a demand factor on one model. Scenario
        // by scenario, ascending and then descending (each solve restarting
        // from the scenario's previous basis), that model must give exactly
        // what a fresh template built with the scenario's own bounds gives
        // from the same basis.
        for (inst, set) in [(fig1_instance(), fig1_scenarios()), sprint()] {
            let loss_ub = crate::decomposition::gamma_loss_bounds(&inst, &set, 0.2);
            let nq = set.scenarios.len();
            assert!(
                loss_ub.iter().flatten().any(|&ub| ub < 1.0),
                "{}: no γ bound below 1, the test would prove nothing",
                inst.topo.name
            );
            let mut ctx = PoolCtx::new(&inst, &set, Some(&loss_ub));
            ctx.solve_donors();
            let slots: Vec<Mutex<Slot>> = (0..nq).map(|_| Mutex::new(None)).collect();
            let mut models = Models::default();
            let mut bounded = 0;
            for (it, q) in (0..nq).chain((0..nq).rev()).enumerate() {
                // Every third flow non-critical, so the bounds bind on it.
                let col: Vec<bool> = (0..inst.num_flows()).map(|f| (f + q) % 3 != 0).collect();
                let mut warm =
                    lock_recover(&slots[q]).clone().unwrap_or_else(|| ctx.donor(q).cloned());
                let (shared, _) = solve_contained(&slots, &mut models, &ctx, it + 1, q, &col, 0)
                    .expect("shared-model solve");
                let scen = &set.scenarios[q];
                let mut fresh = SubproblemTemplate::for_demand_factor(
                    &inst,
                    Some(loss_ub[q].clone()),
                    scen.demand_factor,
                );
                let (own, _) = fresh
                    .solve_with_stats(&inst, scen, &col, &mut warm)
                    .expect("fresh-template solve");
                let slot = lock_recover(&slots[q]).clone().expect("the slot is resident");
                assert_eq!(
                    solve_bits(&shared, &slot),
                    solve_bits(&own, &warm),
                    "{} scenario {q}, solve {}",
                    inst.topo.name,
                    it + 1
                );
                let at_bound = |f: usize| own.loss[f] >= loss_ub[q][f] - 1e-9;
                bounded +=
                    (0..inst.num_flows()).filter(|&f| loss_ub[q][f] < 1.0 && at_bound(f)).count();
            }
            assert!(bounded > 0, "{}: no γ bound was tight at any solve", inst.topo.name);
        }
    }

    /// Solve every scenario all-critical once under each policy: every
    /// donor-seeded solve lands on the cold optimum. Returns how many
    /// donor-seeded solves were warm hits.
    fn assert_first_wave_reaches_the_cold_optimum(inst: &Instance, set: &ScenarioSet) -> usize {
        let todo: Vec<usize> = (0..set.scenarios.len()).collect();
        let cols = vec![vec![true; inst.num_flows()]; todo.len()];
        let mut hits = 0;
        let mut values = |policy| {
            with_pool(PoolCtx::new(inst, set, None), 2, policy, |pool| {
                let results = pool.solve_iteration(1, &todo, cols.clone());
                if policy == PoolPolicy::PerScenario {
                    hits = warm_hits(&results);
                }
                results
                    .into_iter()
                    .map(|(_, r)| r.expect("solve succeeds").0.value)
                    .collect::<Vec<f64>>()
            })
        };
        let (warm, cold) = (values(PoolPolicy::PerScenario), values(PoolPolicy::Cold));
        for (q, (w, c)) in warm.iter().zip(&cold).enumerate() {
            assert!((w - c).abs() <= 1e-9, "scenario {q}: donor-seeded {w} vs cold {c}");
        }
        hits
    }
}
