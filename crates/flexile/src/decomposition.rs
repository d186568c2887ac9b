//! Flexile's offline decomposition (Algorithm 1, §4.2).
//!
//! Iterates between the per-scenario subproblems (which, given a proposed
//! criticality assignment, route traffic and emit Benders cuts) and the
//! master (which re-proposes criticality). Problem-specific accelerations
//! from the paper:
//!
//! * **Starting heuristic** — `z_fq = 1` iff flow `f` has a live tunnel in
//!   scenario `q`. Proposition 1: the very first iterate is already at
//!   least as good as Teavar or ScenBest.
//! * **Perfect-scenario pruning** — a scenario solved to penalty 0 with
//!   every connected flow critical can never contribute a binding cut and
//!   is skipped in later iterations.
//! * **Unchanged-criticality pruning** — a scenario whose critical-flow set
//!   did not change since its last solve is skipped; its cached cut and
//!   losses remain valid.
//! * **Persistent scenario-solve pool** — subproblems run on a pool of
//!   workers that lives for the whole decomposition (the private `pool`
//!   module):
//!   one warm template *per scenario* so iteration `k+1` dual-restarts from
//!   iteration `k`'s basis of the *same* scenario (the shared dual space /
//!   warm-start trick of the reformulated `S_q`, finally applied across
//!   iterations), with a work-stealing scheduler and a bounded
//!   basis-residency budget. [`PoolPolicy`] selects a cold-every-iteration
//!   baseline for A/B comparison.
//!
//! Each iteration yields a full routing, so an *incumbent* penalty is
//! evaluated exactly (sort per-flow losses, take β quantiles); the best
//! incumbent across iterations is returned, along with per-iteration
//! statistics for the Fig. 14 convergence experiment.
//!
//! ## Crash safety
//!
//! The loop's entire mutable state lives in one private `BendersState` that
//! can be checkpointed at iteration boundaries (see [`crate::checkpoint`])
//! and restored by [`decompose_resume`], which replays each scenario's
//! solve chain to re-warm the pool and then continues to a final solution
//! bit-identical to an uninterrupted run. Worker panics are contained and
//! quarantined inside the pool. A warm restart cannot hang: the LP layer
//! caps its dual repair at about a cold solve's pivots.

use crate::checkpoint::{self, BestIncumbent, CheckpointError, CheckpointState};
use crate::master::{solve_master, CutPool, MasterOptions};
use crate::pool::{with_pool, PoolCtx, PoolError, PoolHandle, PoolSnapshot};
use crate::subproblem::{SubproblemSolution, SubproblemTemplate};
use flexile_metrics::{perc_loss, LossMatrix};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::path::PathBuf;

pub use crate::pool::PoolPolicy;

/// Options for the offline decomposition.
#[derive(Debug, Clone)]
pub struct FlexileOptions {
    /// Maximum master/subproblem iterations (paper: 5).
    pub max_iterations: usize,
    /// Worker threads for subproblem solving (paper: 10).
    pub threads: usize,
    /// Master configuration.
    pub master: MasterOptions,
    /// Optional §4.4 γ: bound each flow's loss in every scenario to
    /// `γ + optimal ScenLoss(q)`. Requires per-scenario optimal losses,
    /// computed on demand (single-class instances only).
    pub gamma: Option<f64>,
    /// Enable perfect-scenario / unchanged-criticality pruning (§4.2).
    /// Disabled only by the ablation benchmarks.
    pub prune: bool,
    /// Subproblem scheduling / basis-reuse policy (see [`PoolPolicy`]).
    pub pool: PoolPolicy,
    /// Directory to write crash-recovery checkpoints into (as
    /// `flexile.ckpt`); `None` (default) disables checkpointing. The
    /// zero-fault trajectory is unaffected either way — checkpointing only
    /// *reads* solver state.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint every this many iteration boundaries (the final
    /// state is always written when a directory is configured). Values are
    /// clamped to ≥ 1.
    pub checkpoint_every: usize,
}

impl Default for FlexileOptions {
    fn default() -> Self {
        FlexileOptions {
            max_iterations: 5,
            threads: 10,
            master: MasterOptions::default(),
            gamma: None,
            prune: true,
            pool: PoolPolicy::default(),
            checkpoint_dir: None,
            checkpoint_every: 1,
        }
    }
}

/// Statistics of one decomposition iteration (Fig. 14 / Fig. 15 inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStat {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Exact penalty of this iteration's incumbent routing.
    pub penalty: f64,
    /// Subproblems actually solved (not pruned).
    pub solved: usize,
    /// Subproblems skipped by pruning.
    pub pruned: usize,
    /// Total simplex iterations across this iteration's subproblem solves
    /// (every attempt, restart or ladder fallback).
    pub lp_iterations: usize,
    /// Solves that reused a saved basis (primal-warm or dual restart).
    pub warm_hits: usize,
    /// Warm reuses that specifically went through dual-simplex RHS repair.
    pub dual_restarts: usize,
}

/// The offline design produced by the decomposition.
#[derive(Debug, Clone)]
pub struct FlexileDesign {
    /// Critical-scenario assignment `critical[f][q]` of the best incumbent.
    pub critical: Vec<Vec<bool>>,
    /// Per-class achieved PercLoss of the best incumbent (offline routing).
    pub alpha: Vec<f64>,
    /// Best incumbent penalty `Σ_k w_k α_k`.
    pub penalty: f64,
    /// Effective per-class β targets used.
    pub betas: Vec<f64>,
    /// Offline per-flow, per-scenario losses of the best incumbent.
    pub offline_loss: Vec<Vec<f64>>,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStat>,
}

/// Exact percentile-penalty evaluation of an arbitrary criticality
/// assignment: solve every scenario's subproblem with the given `critical`
/// matrix and compute `Σ_k w_k PercLoss_k` from the resulting losses
/// (residual mass counts as loss 1, like all post-analysis). Used to put
/// the IP baseline and the decomposition on the same measuring stick in
/// the Fig. 14 experiment.
pub fn evaluate_criticality(
    inst: &Instance,
    set: &ScenarioSet,
    critical: &[Vec<bool>],
) -> f64 {
    let nf = inst.num_flows();
    let betas = crate::effective_betas(inst, set);
    let mut tmpl: Option<SubproblemTemplate> = None;
    let mut loss = vec![vec![1.0; set.scenarios.len()]; nf];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let rebuild = tmpl
            .as_ref()
            .is_none_or(|t| !t.matches_factor(scen.demand_factor));
        if rebuild {
            tmpl = Some(SubproblemTemplate::for_demand_factor(inst, None, scen.demand_factor));
        }
        let zq: Vec<bool> = (0..nf).map(|f| critical[f][q]).collect();
        // A scenario whose LP fails terminally keeps its pessimistic
        // initialization (loss 1 everywhere) instead of aborting the
        // whole evaluation.
        if let Ok(sol) = tmpl.as_mut().expect("template built").solve(inst, scen, &zq) {
            for f in 0..nf {
                loss[f][q] = sol.loss[f];
            }
        }
    }
    let lm = LossMatrix::new(loss, set.probs(), set.residual);
    (0..inst.num_classes())
        .map(|k| inst.classes[k].weight * perc_loss(&lm, &inst.class_flows(k), betas[k]))
        .sum()
}

/// Precomputed, deterministic derivations from the problem definition
/// (identical for a fresh run and a resume).
struct Prepared {
    betas: Vec<f64>,
    allowed: Vec<Vec<bool>>,
    loss_ub: Option<Vec<Vec<f64>>>,
}

fn prepare(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions) -> Prepared {
    let nf = inst.num_flows();
    let betas = crate::effective_betas(inst, set);

    // Connectivity matrix: z may be 1 only where the flow has a live tunnel.
    let allowed: Vec<Vec<bool>> = (0..nf)
        .map(|f| {
            let k = inst.flow_class(f);
            let p = inst.flow_pair(f);
            set.scenarios
                .iter()
                .map(|s| inst.tunnels[k].pair_alive(p, &s.dead_mask()))
                .collect()
        })
        .collect();

    // γ variant: per-flow loss upper bounds (needs optimal ScenLoss per
    // scenario — single class only).
    let loss_ub: Option<Vec<Vec<f64>>> = opts.gamma.map(|gamma| {
        assert_eq!(inst.num_classes(), 1, "γ variant is defined for single-class runs");
        set.scenarios
            .iter()
            .map(|scen| {
                let opt = flexile_te::mcf::optimal_scen_loss(inst, scen, true);
                (0..nf)
                    .map(|f| {
                        let p = inst.flow_pair(f);
                        if inst.tunnels[0].pair_alive(p, &scen.dead_mask()) {
                            (gamma + opt).clamp(0.0, 1.0)
                        } else {
                            1.0
                        }
                    })
                    .collect()
            })
            .collect()
    });

    Prepared { betas, allowed, loss_ub }
}

/// Run Flexile's offline phase.
pub fn solve_flexile(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions) -> FlexileDesign {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    let mut solve_span = flexile_obs::span("flexile.solve", "flexile")
        .field("flows", nf)
        .field("scenarios", nq)
        .field("classes", inst.num_classes());
    let prep = prepare(inst, set, opts);
    let state = BendersState::fresh(&prep.allowed, nq);
    let design = dispatch(inst, set, opts, &prep, state, None);
    solve_span.set("penalty", design.penalty);
    solve_span.set("iterations", design.iterations.len());
    design
}

/// Resume a decomposition from the checkpoint in
/// `opts.checkpoint_dir`, continuing to the same final design an
/// uninterrupted run would have produced.
///
/// The checkpoint must match the given problem and options bit-for-bit
/// (validated by fingerprint); version or checksum mismatches are refused
/// with a typed [`CheckpointError`]. The pool is re-warmed by replaying
/// each scenario's checkpointed solve chain — warm bases are never
/// persisted — after which the continuation is bit-identical to the
/// original trajectory.
pub fn decompose_resume(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
) -> Result<FlexileDesign, CheckpointError> {
    let dir = opts
        .checkpoint_dir
        .as_ref()
        .ok_or(CheckpointError::NoCheckpointConfigured)?;
    let ck = checkpoint::read_checkpoint(&checkpoint::checkpoint_path(dir))?;
    checkpoint::validate_fingerprints(&ck, inst, set, opts)?;
    let betas = crate::effective_betas(inst, set);
    if betas.len() != ck.betas.len()
        || betas.iter().zip(&ck.betas).any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(CheckpointError::ProblemMismatch { component: "betas" });
    }

    let mut span = flexile_obs::span("flexile.resume", "flexile")
        .field("iteration", ck.it)
        .field("done", ck.done as u64);
    let state = BendersState::from_checkpoint(&ck)?;
    let snap = PoolSnapshot { stamps: ck.stamps, chains: ck.chains };
    let design = if state.done {
        design_from_state(state, &betas)
    } else {
        let prep = prepare(inst, set, opts);
        dispatch(inst, set, opts, &prep, state, Some((ck.it, snap)))
    };
    span.set("penalty", design.penalty);
    Ok(design)
}

/// Run a (fresh or restored) state on the scenario pool.
fn dispatch(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
    prep: &Prepared,
    state: BendersState,
    restore: Option<(usize, PoolSnapshot)>,
) -> FlexileDesign {
    let ctx = PoolCtx { inst, set, loss_ub: prep.loss_ub.as_deref() };
    with_pool(ctx, opts.threads.max(1), opts.pool, |pool| {
        if let Some((it, snap)) = &restore {
            pool.restore(*it, snap);
        }
        run_decomposition(inst, set, opts, &prep.betas, &prep.allowed, pool, state)
    })
}

/// Best incumbent: (penalty, criticality, loss matrix, per-class alpha).
type Incumbent = (f64, Vec<Vec<bool>>, Vec<Vec<f64>>, Vec<f64>);

/// The complete mutable state of the Algorithm-1 loop, separated out so an
/// iteration boundary can be checkpointed and restored.
struct BendersState {
    /// Last completed iteration (0 = none yet).
    it: usize,
    /// Criticality proposal for the next iteration.
    z: Vec<Vec<bool>>,
    pool: CutPool,
    cached_loss: Vec<Option<Vec<f64>>>,
    cached_value: Vec<f64>,
    last_z_col: Vec<Option<Vec<bool>>>,
    perfect: Vec<bool>,
    best: Option<Incumbent>,
    iterations: Vec<IterationStat>,
    /// Lower bound from the most recent master solve; the master lags the
    /// subproblems by one iteration, so iteration 1 has no bound yet.
    last_bound: Option<f64>,
    /// Converged or exhausted the iteration budget.
    done: bool,
}

impl BendersState {
    fn fresh(allowed: &[Vec<bool>], nq: usize) -> Self {
        BendersState {
            it: 0,
            // Starting heuristic: everything connected is critical.
            z: allowed.to_vec(),
            pool: CutPool::new(nq),
            cached_loss: vec![None; nq],
            cached_value: vec![f64::INFINITY; nq],
            last_z_col: vec![None; nq],
            perfect: vec![false; nq],
            best: None,
            iterations: Vec::new(),
            last_bound: None,
            done: false,
        }
    }

    fn from_checkpoint(ck: &CheckpointState) -> Result<Self, CheckpointError> {
        // Checkpoints are only written at iteration boundaries, where an
        // incumbent always exists; a valid-checksum file claiming otherwise
        // was hand-crafted.
        if ck.it == 0 || ck.best.is_none() {
            return Err(CheckpointError::Malformed("checkpoint without a completed iteration"));
        }
        let b = ck.best.as_ref().expect("checked above");
        Ok(BendersState {
            it: ck.it,
            z: ck.z.clone(),
            pool: CutPool { cuts: ck.cuts.clone() },
            cached_loss: ck.cached_loss.clone(),
            cached_value: ck.cached_value.clone(),
            last_z_col: ck.last_z_col.clone(),
            perfect: ck.perfect.clone(),
            best: Some((b.penalty, b.critical.clone(), b.loss.clone(), b.alpha.clone())),
            iterations: ck.iterations.clone(),
            last_bound: ck.last_bound,
            done: ck.done,
        })
    }

    fn to_checkpoint(
        &self,
        plan: &CheckpointPlan,
        snap: PoolSnapshot,
        betas: &[f64],
    ) -> CheckpointState {
        CheckpointState {
            problem_parts: plan.problem_parts,
            options_parts: plan.options_parts,
            nf: plan.nf,
            nq: plan.nq,
            na: plan.na,
            it: self.it,
            done: self.done,
            z: self.z.clone(),
            cuts: self.pool.cuts.clone(),
            cached_loss: self.cached_loss.clone(),
            cached_value: self.cached_value.clone(),
            last_z_col: self.last_z_col.clone(),
            perfect: self.perfect.clone(),
            stamps: snap.stamps,
            chains: snap.chains,
            best: self.best.as_ref().map(|(penalty, critical, loss, alpha)| BestIncumbent {
                penalty: *penalty,
                critical: critical.clone(),
                loss: loss.clone(),
                alpha: alpha.clone(),
            }),
            iterations: self.iterations.clone(),
            last_bound: self.last_bound,
            betas: betas.to_vec(),
        }
    }
}

/// Where and how often to checkpoint.
struct CheckpointPlan {
    path: Option<PathBuf>,
    every: usize,
    problem_parts: [u64; checkpoint::PROBLEM_COMPONENTS.len()],
    options_parts: [u64; checkpoint::OPTIONS_COMPONENTS.len()],
    nf: usize,
    nq: usize,
    na: usize,
}

impl CheckpointPlan {
    fn new(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions) -> Self {
        CheckpointPlan {
            path: opts
                .checkpoint_dir
                .as_ref()
                .map(|d| checkpoint::checkpoint_path(d)),
            every: opts.checkpoint_every.max(1),
            problem_parts: checkpoint::problem_fingerprint_parts(inst, set),
            options_parts: checkpoint::options_fingerprint_parts(opts),
            nf: inst.num_flows(),
            nq: set.scenarios.len(),
            na: inst.num_arcs(),
        }
    }

    /// Write a snapshot if this boundary is due. A write failure degrades
    /// to a counter (`flexile.checkpoint_error`) rather than killing a run
    /// that is otherwise healthy.
    fn maybe_write(&self, state: &BendersState, pool: &PoolHandle<'_>, betas: &[f64]) {
        let Some(path) = &self.path else { return };
        if !state.done && !state.it.is_multiple_of(self.every) {
            return;
        }
        let ck = state.to_checkpoint(self, pool.snapshot(), betas);
        if checkpoint::write_checkpoint(path, &ck).is_err() {
            flexile_obs::add("flexile.checkpoint_error", 1);
        }
    }
}

fn design_from_state(state: BendersState, betas: &[f64]) -> FlexileDesign {
    let (penalty, critical, offline_loss, alpha) =
        state.best.expect("at least one iteration ran");
    FlexileDesign {
        critical,
        alpha,
        penalty,
        betas: betas.to_vec(),
        offline_loss,
        iterations: state.iterations,
    }
}

/// The Algorithm-1 iteration loop; each iteration's subproblems are solved
/// on `pool`.
fn run_decomposition(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
    betas: &[f64],
    allowed: &[Vec<bool>],
    pool: &mut PoolHandle<'_>,
    mut state: BendersState,
) -> FlexileDesign {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    let plan = CheckpointPlan::new(inst, set, opts);

    while !state.done && state.it < opts.max_iterations {
        let it = state.it + 1;
        let mut iter_span = flexile_obs::span("flexile.iteration", "flexile").field("iteration", it);
        // Decide which scenarios need solving.
        let todo: Vec<usize> = (0..nq)
            .filter(|&q| {
                if !opts.prune {
                    return true;
                }
                if state.perfect[q] {
                    return false;
                }
                let col: Vec<bool> = (0..nf).map(|f| state.z[f][q]).collect();
                state.last_z_col[q].as_ref() != Some(&col)
            })
            .collect();
        let pruned = nq - todo.len();
        iter_span.set("solved", todo.len());
        iter_span.set("pruned", pruned);
        let sub_span = flexile_obs::span("flexile.subproblems", "flexile")
            .field("iteration", it)
            .field("solved", todo.len());

        // Solve subproblems on the pool. Workers never
        // panic on solver failures: each scenario's result is a `Result`,
        // and a terminal LP error — or a contained-and-retried panic that
        // exhausted its retries ([`PoolError::ScenarioPoisoned`]) — just
        // marks the scenario unsolved for this iteration (pessimistic
        // losses, no cut, retried next round) instead of taking the whole
        // decomposition down.
        let cols: Vec<Vec<bool>> =
            todo.iter().map(|&q| (0..nf).map(|f| state.z[f][q]).collect()).collect();
        let outputs = pool.solve_iteration(it, &todo, cols);

        drop(sub_span);
        // Chaos hook: an armed Abort kill-point unwinds the decomposition
        // here — after the fan-out, before any of iteration `it`'s state
        // lands — simulating process death mid-iteration. Nothing below
        // this line has happened as far as the last checkpoint knows.
        crate::killpoints::maybe_fire_abort(it);

        let mut results: Vec<Option<SubproblemSolution>> = vec![None; nq];
        // Boolean failure mask (indexed by scenario) instead of a membership
        // scan per result.
        let mut failed_mask = vec![false; nq];
        let mut nfailed = 0u64;
        let mut lp_iterations = 0usize;
        let mut warm_hits = 0usize;
        let mut dual_restarts = 0usize;
        for (q, res) in outputs {
            match res {
                Ok((sol, stats)) => {
                    lp_iterations += stats.iterations;
                    if stats.warm_hit {
                        warm_hits += 1;
                    }
                    if stats.dual_restart {
                        dual_restarts += 1;
                    }
                    results[q] = Some(sol);
                }
                Err(e) => {
                    if matches!(e, PoolError::ScenarioPoisoned { .. }) {
                        flexile_obs::add("flexile.scenario_poisoned", 1);
                    }
                    failed_mask[q] = true;
                    nfailed += 1;
                }
            }
        }
        flexile_obs::add("flexile.scenario_warm_hit", warm_hits as u64);
        flexile_obs::add(
            "flexile.scenario_warm_miss",
            todo.len() as u64 - nfailed - warm_hits as u64,
        );
        flexile_obs::add("flexile.dual_restart", dual_restarts as u64);

        // Failed scenarios: pessimistic losses this iteration, no cut, and
        // no column cache so the pruning logic re-solves them next round.
        flexile_obs::add("flexile.scenarios_retried", nfailed);
        for q in 0..nq {
            if failed_mask[q] {
                state.cached_loss[q] = None;
                state.cached_value[q] = f64::INFINITY;
                state.last_z_col[q] = None;
            }
        }

        for &q in &todo {
            if failed_mask[q] {
                continue;
            }
            let sol = results[q].take().expect("solved scenario missing");
            // Perfect-scenario pruning: zero penalty with the maximal
            // criticality column can never bind later.
            let col: Vec<bool> = (0..nf).map(|f| state.z[f][q]).collect();
            if sol.value < 1e-9 && col == allowed.iter().map(|r| r[q]).collect::<Vec<bool>>() {
                state.perfect[q] = true;
                if opts.prune {
                    // Never solved again: drop its pooled template early.
                    pool.retire(q);
                }
            }
            state.cached_loss[q] = Some(sol.loss.clone());
            state.cached_value[q] = sol.value;
            state.last_z_col[q] = Some(col);
            if sol.value > 1e-9 {
                flexile_obs::add("flexile.cuts_added", 1);
                state.pool.push(q, sol.cut);
            }
        }

        // Exact incumbent evaluation from the (cached) offline losses.
        let loss_matrix: Vec<Vec<f64>> = (0..nf)
            .map(|f| {
                (0..nq)
                    .map(|q| state.cached_loss[q].as_ref().map_or(1.0, |l| l[f]))
                    .collect()
            })
            .collect();
        let lm = LossMatrix::new(loss_matrix.clone(), set.probs(), set.residual);
        let alphas: Vec<f64> = (0..inst.num_classes())
            .map(|k| perc_loss(&lm, &inst.class_flows(k), betas[k]))
            .collect();
        let penalty: f64 = alphas
            .iter()
            .zip(inst.classes.iter())
            .map(|(a, c)| a * c.weight)
            .sum();
        if state.best.as_ref().is_none_or(|(bp, ..)| penalty < *bp - 1e-12) {
            state.best = Some((penalty, state.z.clone(), loss_matrix, alphas));
        }
        let upper = state.best.as_ref().map(|b| b.0).unwrap_or(penalty);
        if flexile_obs::enabled() {
            let mut ev = flexile_obs::event("flexile.bound_gap", "flexile")
                .field("iteration", it)
                .field("upper", upper);
            if let Some(lb) = state.last_bound {
                ev = ev.field("lower", lb);
            }
            drop(ev); // recorded on drop
        }
        state.iterations.push(IterationStat {
            iteration: it,
            penalty: upper,
            solved: todo.len(),
            pruned,
            lp_iterations,
            warm_hits,
            dual_restarts,
        });
        state.it = it;

        if it == opts.max_iterations {
            state.done = true;
        } else {
            // Master proposes the next z.
            let master_span = flexile_obs::span("flexile.master", "flexile").field("iteration", it);
            let (next_z, bound) =
                solve_master(inst, set, &state.pool, allowed, betas, &state.z, &opts.master);
            drop(master_span);
            state.last_bound = Some(bound);
            if next_z == state.z {
                state.done = true; // converged
            } else {
                state.z = next_z;
            }
        }
        plan.maybe_write(&state, pool, betas);
    }

    design_from_state(state, betas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subproblem::tests::{fig1_instance, fig1_scenarios};

    /// Fig. 1 instance with the paper's explicit 99% requirement (the
    /// auto-derived max-feasible β ≈ 0.9998 makes zero PercLoss impossible
    /// on the triangle, exactly as the paper's example intends 99%).
    fn fig1_beta99() -> flexile_traffic::Instance {
        let mut inst = fig1_instance();
        inst.classes[0].beta = 0.99;
        inst
    }

    #[test]
    fn fig1_flexile_achieves_zero_percloss() {
        // The headline motivation: Flexile meets both flows' 1-unit
        // requirement 99% of the time on the Fig. 1 triangle (PercLoss 0),
        // where ScenBest/Teavar are stuck at 0.5.
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let design = solve_flexile(&inst, &set, &FlexileOptions::default());
        assert!(
            design.penalty < 1e-6,
            "Flexile should reach PercLoss 0, got {}",
            design.penalty
        );
        // Criticality matches Fig. 4: the A-B-failure scenario is critical
        // for f2 but (at optimum) need not be for f1.
        for f in 0..2 {
            let mass: f64 = set
                .scenarios
                .iter()
                .enumerate()
                .filter(|(q, _)| design.critical[f][*q])
                .map(|(_, s)| s.prob)
                .sum();
            assert!(mass + 1e-9 >= 0.99, "flow {f} critical mass {mass}");
        }
    }

    #[test]
    fn iteration_stats_monotone() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let design = solve_flexile(&inst, &set, &FlexileOptions::default());
        for w in design.iterations.windows(2) {
            assert!(w[1].penalty <= w[0].penalty + 1e-12, "incumbent worsened");
        }
        assert!(!design.iterations.is_empty());
    }

    #[test]
    fn proposition1_first_iterate_beats_scenbest() {
        // The starting heuristic alone must already match ScenBest's
        // percentile guarantee (Proposition 1).
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let opts = FlexileOptions { max_iterations: 1, ..Default::default() };
        let design = solve_flexile(&inst, &set, &opts);
        // ScenBest's PercLoss on fig1 at β=0.99 is 0.5.
        assert!(design.penalty <= 0.5 + 1e-6, "first iterate {}", design.penalty);
    }

    #[test]
    fn gamma_variant_bounds_scenario_loss() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let opts = FlexileOptions { gamma: Some(0.2), ..Default::default() };
        let design = solve_flexile(&inst, &set, &opts);
        // With γ = 0.2 every connected flow's offline loss stays within
        // optimal ScenLoss + 0.2 in every scenario.
        for (q, scen) in set.scenarios.iter().enumerate() {
            let opt = flexile_te::mcf::optimal_scen_loss(&inst, scen, true);
            for f in 0..2 {
                let p = inst.flow_pair(f);
                if inst.tunnels[0].pair_alive(p, &scen.dead_mask()) {
                    assert!(
                        design.offline_loss[f][q] <= opt + 0.2 + 1e-6,
                        "flow {f} scen {q}: {} > {} + 0.2",
                        design.offline_loss[f][q],
                        opt
                    );
                }
            }
        }
    }
}
