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
//! * **Per-scenario templates** — one long-lived [`SubproblemTemplate`] per
//!   scenario (γ-variant loss bounds included), so iteration `k+1` restarts
//!   scenario `q` from scenario `q`'s own optimal basis via the explicit
//!   dual-simplex RHS path ([`flexile_lp::solve_rhs_restart`]).
//! * **Persistent workers** — one `thread::scope` spans the *whole*
//!   decomposition; workers park on a condvar between iterations instead of
//!   being respawned, and iterations are dispatched as epochs.
//! * **Work stealing** — workers claim scenarios off a shared atomic cursor
//!   rather than static `skip/step_by` stripes, so one slow scenario no
//!   longer idles the other workers. Claims that deviate from the old static
//!   striping are counted as `flexile.steal`.
//! * **Bounded basis residency** — an LRU budget over the per-scenario
//!   templates (evicted only at iteration boundaries, oldest last-use first,
//!   ties broken by lower scenario index, so eviction — and therefore every
//!   solve's warm-start history — is deterministic regardless of thread
//!   count or timing). A residency of 0 is the cold-every-iteration policy.
//!
//! ## Crash safety
//!
//! A panic inside a subproblem solve is **contained**: the solve runs under
//! `catch_unwind`, the panicking scenario's template is *quarantined*
//! (dropped, so the next attempt rebuilds it cold), and the solve is
//! retried in place up to [`MAX_PANIC_RETRIES`] times. A scenario that
//! keeps panicking surfaces a typed [`PoolError::ScenarioPoisoned`] —
//! which the decomposition treats like any other failed solve (pessimistic
//! losses, retried next iteration) — instead of aborting the run. Every
//! lock acquisition recovers from mutex poisoning (a panicked worker leaves
//! each structure in a consistent state: templates are quarantined, queues
//! only ever append), so one contained panic cannot cascade into
//! process-wide `PoisonError` unwinding. Counted as
//! `flexile.worker_panic` / `flexile.scenario_quarantined`.
//!
//! For checkpointing, each slot additionally records the scenario's
//! **solve-column history** — the criticality columns successfully solved
//! since the template's last cold start. Replaying that chain through a
//! fresh template reconstructs the warm basis bit-for-bit (scenario solve
//! sequences are independent of each other by construction), which is how
//! [`crate::decompose_resume`] re-warms the pool without ever persisting a
//! basis.
//!
//! Determinism: scenario `q`'s solve sequence depends only on its own solve
//! history (its template is locked per solve and touched by no other
//! scenario), so the decomposition output is bit-identical across thread
//! counts and runs.

use crate::subproblem::{SolveStats, SubproblemSolution, SubproblemTemplate};
use flexile_lp::{LpError, SolveScratch};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Contained panics tolerated per scenario *per dispatch* before the
/// scenario is reported as poisoned for the iteration.
pub const MAX_PANIC_RETRIES: u32 = 2;

/// Scenario templates (and their warm bases) kept resident between
/// iterations under [`PoolPolicy::PerScenario`]; LRU beyond this.
/// Deliberately generous: a template is small next to the scenario set
/// itself. Hashed into the checkpoint's `pool_policy` fingerprint.
pub(crate) const BASIS_RESIDENCY: usize = 4096;

/// How the decomposition schedules and reuses subproblem solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// Persistent pool, one warm template per scenario, work-stealing
    /// scheduler (the default).
    #[default]
    PerScenario,
    /// No cross-iteration reuse at all: every iteration rebuilds and solves
    /// cold. Baseline for the `warm_restart` benchmark.
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
    /// in a row, each retry from a cold-rebuilt template. The scenario is
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
/// (templates are quarantined by the containment path; control queues only
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
    /// Watchdog deadline for the warm fast path (see
    /// [`SubproblemTemplate::solve_with_stats_watchdog`]).
    pub watchdog: Option<Duration>,
}

impl PoolCtx<'_> {
    fn build_template(&self, q: usize) -> SubproblemTemplate {
        SubproblemTemplate::for_demand_factor(
            self.inst,
            self.loss_ub.map(|ub| ub[q].clone()),
            self.set.scenarios[q].demand_factor,
        )
    }
}

/// Stamps + per-scenario solve chains, captured at an iteration boundary
/// for checkpointing and replayed on resume.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PoolSnapshot {
    /// Last iteration each scenario's template was used (0 = never/evicted).
    pub stamps: Vec<u64>,
    /// Criticality columns successfully solved since each template's last
    /// cold start. Non-empty exactly for the templates resident at the
    /// boundary.
    pub chains: Vec<Vec<Vec<bool>>>,
}

/// A scenario's pooled state: its long-lived template plus the solve-column
/// history that makes the template's warm basis reconstructible.
#[derive(Default)]
struct Slot {
    tmpl: Option<SubproblemTemplate>,
    /// Columns successfully solved since `tmpl` was last built cold.
    history: Vec<Vec<bool>>,
}

/// An epoch's work order, claimed off a shared cursor.
enum JobWork {
    /// `cols[i]` is the criticality column for `todo[i]`.
    Solve(Vec<Vec<bool>>),
    /// `chains[i]` is a full solve-column chain for `todo[i]`, replayed
    /// sequentially to reconstruct the template's warm basis (results
    /// discarded by the caller).
    Replay(Vec<Vec<Vec<bool>>>),
}

struct Job {
    todo: Vec<usize>,
    work: JobWork,
    /// Next index into `todo` to claim.
    cursor: AtomicUsize,
    /// Decomposition iteration (1-based) for kill-point checks; 0 for
    /// replay epochs, which never fire kill-points.
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
/// claim-template-and-solve region quarantine the template and retry from
/// cold, bounded by [`MAX_PANIC_RETRIES`].
fn solve_contained(
    slots: &[Mutex<Slot>],
    ctx: &PoolCtx<'_>,
    it: usize,
    q: usize,
    col: &[bool],
    worker: usize,
    scratch: &mut SolveScratch,
) -> Result<(SubproblemSolution, SolveStats), PoolError> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let scratch = &mut *scratch;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut slot = lock_recover(&slots[q]);
            let slot = &mut *slot;
            let rebuilt = slot.tmpl.is_none();
            let tmpl = slot.tmpl.get_or_insert_with(|| ctx.build_template(q));
            if it > 0 {
                crate::killpoints::maybe_fire_worker(it, q);
            }
            let _sq = flexile_obs::span("flexile.subproblem", "flexile").field("scenario", q);
            let res = tmpl.solve_with_stats_scratch(
                ctx.inst,
                &ctx.set.scenarios[q],
                col,
                ctx.watchdog,
                scratch,
            );
            if let Ok((_, stats)) = &res {
                // Maintain the replayable chain: a cold (re)build or a
                // watchdog cold-restart starts a fresh chain; every
                // successful solve extends it.
                if rebuilt || stats.watchdog_restart {
                    slot.history.clear();
                }
                slot.history.push(col.to_vec());
            }
            res
        }));
        match outcome {
            Ok(res) => return res.map_err(PoolError::Solver),
            Err(payload) => {
                flexile_obs::add("flexile.worker_panic", 1);
                flexile_obs::flight::dump("worker_panic");
                // Quarantine: whatever state the panic left the template
                // in, it is never used again. The next attempt (this retry
                // or a later iteration) rebuilds cold.
                {
                    let mut slot = lock_recover(&slots[q]);
                    slot.tmpl = None;
                    slot.history.clear();
                }
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
    // One scratch pool per worker: every solve this worker performs —
    // first solve, restart, replay, or containment retry — reuses the same simplex
    // work vectors (cleared and re-zeroed per solve, so bit-transparent).
    let mut scratch = SolveScratch::new();
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
            let res = match &job.work {
                JobWork::Solve(cols) => {
                    solve_contained(slots, ctx, job.it, q, &cols[i], id, &mut scratch)
                }
                JobWork::Replay(chains) => {
                    // Replay the whole chain; only the last result matters
                    // (and even it is discarded by restore). A failure
                    // mid-chain quarantines the slot: the continuation
                    // simply solves that scenario cold.
                    let mut last = Err(PoolError::Solver(LpError::IterationLimit));
                    for col in &chains[i] {
                        last = solve_contained(slots, ctx, 0, q, col, id, &mut scratch);
                        if last.is_err() {
                            let mut slot = lock_recover(&slots[q]);
                            slot.tmpl = None;
                            slot.history.clear();
                            break;
                        }
                    }
                    last
                }
            };
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
    /// Last iteration each scenario's template was used (0 = never/evicted).
    stamp: Vec<u64>,
    it: u64,
}

impl PoolHandle<'_> {
    /// Dispatch one epoch to the workers and wait for every result.
    fn run_epoch(&mut self, todo: Vec<usize>, work: JobWork, it: usize) -> Vec<ScenResult> {
        let n = todo.len();
        let observe_wait = matches!(work, JobWork::Solve(_));
        let wall0 = Instant::now();
        {
            let mut g = lock_recover(&self.shared.ctl);
            g.job = Some(Arc::new(Job { todo, work, cursor: AtomicUsize::new(0), it }));
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
        if observe_wait && flexile_obs::enabled() {
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
            .filter(|(_, s)| lock_recover(s).tmpl.is_some())
            .map(|(q, _)| (self.stamp[q], q))
            .collect();
        if live.len() <= self.residency {
            return;
        }
        live.sort_unstable();
        let excess = live.len() - self.residency;
        for &(_, q) in live.iter().take(excess) {
            let mut slot = lock_recover(&self.slots[q]);
            slot.tmpl = None;
            slot.history.clear();
            self.stamp[q] = 0;
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
        self.it = it as u64;
        if todo.is_empty() {
            return Vec::new();
        }
        let results = self.run_epoch(todo.to_vec(), JobWork::Solve(cols), it);
        for &q in todo {
            self.stamp[q] = self.it;
        }
        self.evict();
        results
    }

    /// The decomposition will never solve `q` again (perfect-scenario
    /// pruning): drop its template early.
    pub(crate) fn retire(&mut self, q: usize) {
        let mut slot = lock_recover(&self.slots[q]);
        slot.tmpl = None;
        slot.history.clear();
        self.stamp[q] = 0;
    }

    /// Capture the warm-state snapshot (LRU stamps and per-scenario solve
    /// chains) for checkpointing.
    pub(crate) fn snapshot(&self) -> PoolSnapshot {
        // Only called at iteration boundaries (workers parked), so slot
        // contents are quiescent and consistent with `stamp`.
        PoolSnapshot {
            stamps: self.stamp.clone(),
            chains: self.slots.iter().map(|s| lock_recover(s).history.clone()).collect(),
        }
    }

    /// Restore a snapshot taken at the end of iteration `it`: replay each
    /// scenario's solve chain to rebuild warm bases, and restore the LRU
    /// stamps.
    pub(crate) fn restore(&mut self, it: usize, snap: &PoolSnapshot) {
        self.it = it as u64;
        self.stamp = snap.stamps.clone();
        let todo: Vec<usize> =
            (0..self.slots.len()).filter(|&q| !snap.chains[q].is_empty()).collect();
        if todo.is_empty() {
            return;
        }
        let _sp = flexile_obs::span("flexile.rewarm", "flexile").field("scenarios", todo.len());
        let chains: Vec<Vec<Vec<bool>>> = todo.iter().map(|&q| snap.chains[q].clone()).collect();
        let results = self.run_epoch(todo, JobWork::Replay(chains), 0);
        let ok = results.iter().filter(|(_, r)| r.is_ok()).count();
        flexile_obs::add("flexile.rewarm", ok as u64);
        // Replay results are discarded: the checkpointed caches remain the
        // authoritative losses/cuts. Only the warm bases matter here.
    }
}

/// Run `f` with a persistent scenario pool of `nworkers` threads under
/// `policy` ([`BASIS_RESIDENCY`] warm templates for
/// [`PoolPolicy::PerScenario`], none for [`PoolPolicy::Cold`]). Workers
/// live exactly as long as `f` — including when `f` unwinds (e.g. an armed
/// [`crate::killpoints`] abort simulating process death): a drop guard
/// flips the shutdown flag so the scope join cannot deadlock on parked
/// workers.
pub(crate) fn with_pool<R>(
    ctx: PoolCtx<'_>,
    nworkers: usize,
    policy: PoolPolicy,
    f: impl FnOnce(&mut PoolHandle<'_>) -> R,
) -> R {
    let residency = match policy {
        PoolPolicy::PerScenario => BASIS_RESIDENCY,
        PoolPolicy::Cold => 0,
    };
    let nq = ctx.set.scenarios.len();
    let slots: Vec<Mutex<Slot>> = (0..nq).map(|_| Mutex::new(Slot::default())).collect();
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
            it: 0,
        };
        let _shutdown = ShutdownGuard(&shared);
        f(&mut handle)
    })
}
