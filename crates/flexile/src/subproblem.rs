//! The per-scenario subproblem `S_q` (§4.2) and its Benders cuts.
//!
//! `S_q` minimizes `Σ_k w_k α_k` subject to
//!
//! ```text
//! α_k ≥ l_f − 1 + z_fq                       (10)   [dual w_f]
//! Σ_t x_kt + d_f l_f ≥ d_f                   (17)
//! Σ_{t ∋ arc} x_kt ≤ c_arc · m_arc,q         (18)   [dual u_arc]
//! 0 ≤ l_f ≤ 1,  x ≥ 0,  0 ≤ α_k ≤ 1
//! ```
//!
//! The reformulation (17)/(18) keeps the **left-hand side identical for
//! every scenario** — failures only scale the capacity RHS and criticality
//! only shifts the (10) RHS. We exploit that exactly as the paper does:
//! one [`SubproblemTemplate`] is built per instance; solving scenario `q`
//! is two `set_rhs` sweeps plus a warm-started simplex run from the
//! previous scenario's optimal basis.
//!
//! LP duality gives the cut (21): with `w_f = ∂val/∂rhs₍₁₀₎` and
//! `u_a = ∂val/∂rhs₍₁₈₎`,
//!
//! ```text
//! val(S_{q'})(z) ≥ D + Σ_f w_f (z_{f,q'} − 1) + Σ_a u_a c_a m_{a,q'}
//! ```
//!
//! where `D` collects the z-independent dual terms. Evaluated at `q' = q`
//! this is tight (strong duality); evaluated at another scenario it is the
//! shared-dual-space cross cut (22).

use flexile_lp::{
    solve_robust, Basis, LpError, Model, RestartKind, RobustOptions, RowId, Sense,
    SimplexOptions, Solution, SolveBudget, SolveScratch, VarId,
};
use flexile_scenario::Scenario;
use flexile_traffic::Instance;

/// A Benders cut produced by one subproblem solve (eq. 21/22).
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// Duals of the criticality rows (10), one per flow; `≥ 0`.
    pub w: Vec<f64>,
    /// Duals of the capacity rows (18), one per arc; `≤ 0`.
    pub u: Vec<f64>,
    /// The z- and capacity-independent constant `D`.
    pub d_const: f64,
}

impl Cut {
    /// Evaluate the cut's lower bound on `val(S_q)` for a scenario with the
    /// given criticality column `z[f]` and per-arc capacity `cap_arc[a]`
    /// (already scaled by the scenario's capacity factors).
    pub fn eval(&self, z: &[f64], cap_arc: &[f64]) -> f64 {
        let mut v = self.d_const;
        for (f, &w) in self.w.iter().enumerate() {
            v += w * (z[f] - 1.0);
        }
        for (a, &u) in self.u.iter().enumerate() {
            if u != 0.0 {
                v += u * cap_arc[a];
            }
        }
        v
    }
}

/// Per-solve accounting from [`SubproblemTemplate::solve_with_stats`]: how
/// the warm basis was (or wasn't) reused and what the solve cost. The
/// decomposition's scenario pool aggregates these into the
/// `flexile.scenario_warm_hit/miss` and `flexile.dual_restart` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// A saved basis existed and produced the solution (either still primal
    /// feasible, or repaired by the dual simplex).
    pub warm_hit: bool,
    /// The warm reuse specifically went through dual-simplex RHS repair.
    pub dual_restart: bool,
    /// Simplex iterations across every attempt of this solve (restart plus
    /// any ladder fallback).
    pub iterations: usize,
    /// The warm fast path blew its watchdog deadline and the solve was
    /// cold-restarted through the ladder. The pool uses this to reset the
    /// scenario's replayable solve chain: after a watchdog restart the
    /// template's basis descends from a cold solve of *this* column only.
    pub watchdog_restart: bool,
}

/// Result of solving one subproblem.
#[derive(Debug, Clone)]
pub struct SubproblemSolution {
    /// Optimal `Σ_k w_k α_k` for the scenario.
    pub value: f64,
    /// Per-class `α_k` (max critical-flow loss of the class).
    pub alpha: Vec<f64>,
    /// Per-flow losses chosen by the LP (meaningful for critical flows;
    /// non-critical flows are unconstrained here — the online phase
    /// allocates their real bandwidth).
    pub loss: Vec<f64>,
    /// The Benders cut.
    pub cut: Cut,
}

/// Reusable template for `S_q`: built once, re-solved per scenario with RHS
/// updates and basis warm starts.
pub struct SubproblemTemplate {
    model: Model,
    /// The demand factor the template was built for (§4.4 TM scenarios).
    demand_factor: f64,
    /// Criticality rows (10), one per flow.
    crit_rows: Vec<RowId>,
    /// Capacity rows (18) and the arcs they bound.
    cap_rows: Vec<(usize, RowId)>,
    alpha_vars: Vec<VarId>,
    l_vars: Vec<VarId>,
    num_flows: usize,
    num_arcs: usize,
    warm: Option<Basis>,
    /// Per-flow loss upper bound override (γ-variant, §4.4); 1.0 default.
    loss_ub: Vec<f64>,
}

impl SubproblemTemplate {
    /// Build the scenario-independent template for an instance.
    ///
    /// `class_weights` are the `w_k`; `loss_ub[f]` optionally tightens the
    /// loss bound of flow `f` (the §4.4 γ knob); pass `None` for the plain
    /// formulation.
    pub fn new(inst: &Instance, loss_ub: Option<Vec<f64>>) -> Self {
        Self::for_demand_factor(inst, loss_ub, 1.0)
    }

    /// Build the template for a specific demand factor (the §4.4
    /// traffic-matrix generalization scales every `d_f` by the scenario's
    /// factor, which enters the (17) coefficients, so each factor needs its
    /// own template).
    pub fn for_demand_factor(inst: &Instance, loss_ub: Option<Vec<f64>>, factor: f64) -> Self {
        assert!(factor > 0.0);
        let nf = inst.num_flows();
        let na = inst.num_arcs();
        let loss_ub = loss_ub.unwrap_or_else(|| vec![1.0; nf]);
        assert_eq!(loss_ub.len(), nf);
        let mut m = Model::new(Sense::Min);
        let alpha_vars: Vec<VarId> = inst
            .classes
            .iter()
            .enumerate()
            .map(|(k, c)| m.add_var(&format!("alpha_{k}"), 0.0, 1.0, c.weight))
            .collect();
        let l_vars: Vec<VarId> = (0..nf)
            .map(|f| m.add_var(&format!("l_{f}"), 0.0, loss_ub[f], 0.0))
            .collect();
        // Criticality rows (10): alpha_k - l_f >= z - 1 (RHS set per scenario).
        let mut crit_rows = Vec::with_capacity(nf);
        for f in 0..nf {
            let k = inst.flow_class(f);
            crit_rows.push(m.add_row_ge(&[(alpha_vars[k], 1.0), (l_vars[f], -1.0)], 0.0));
        }
        // Tunnel variables + demand rows (17) + arc terms.
        let mut arc_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); na];
        for k in 0..inst.num_classes() {
            for p in 0..inst.num_pairs() {
                let f = inst.flow_index(k, p);
                let d = inst.demands[k][p] * factor;
                let mut coeffs: Vec<(VarId, f64)> = Vec::new();
                for (t, path) in inst.tunnels[k].tunnels[p].iter().enumerate() {
                    let v = m.add_var(&format!("x_{k}_{p}_{t}"), 0.0, f64::INFINITY, 0.0);
                    for a in inst.arc_ids(path) {
                        arc_terms[a].push((v, 1.0));
                    }
                    coeffs.push((v, 1.0));
                }
                if d > 0.0 {
                    coeffs.push((l_vars[f], d));
                    m.add_row_ge(&coeffs, d);
                }
            }
        }
        // Capacity rows (18); RHS set per scenario.
        let mut cap_rows = Vec::new();
        for (a, terms) in arc_terms.into_iter().enumerate() {
            if terms.is_empty() {
                continue;
            }
            let r = m.add_row_le(&terms, inst.arc_capacity(a));
            cap_rows.push((a, r));
        }
        SubproblemTemplate {
            model: m,
            demand_factor: factor,
            crit_rows,
            cap_rows,
            alpha_vars,
            l_vars,
            num_flows: nf,
            num_arcs: na,
            warm: None,
            loss_ub,
        }
    }

    /// Solve `S_q` for `scen` with criticality column `z[f] ∈ {0,1}`.
    pub fn solve(
        &mut self,
        inst: &Instance,
        scen: &Scenario,
        z: &[bool],
    ) -> Result<SubproblemSolution, LpError> {
        self.solve_with_stats(inst, scen, z).map(|(sol, _)| sol)
    }

    /// [`Self::solve`], additionally reporting how the solve restarted.
    ///
    /// When a warm basis is saved from a previous solve of this template, the
    /// only thing that changed since is the RHS (criticality flips and
    /// capacity scaling — the §4.2 reformulation guarantees the LHS is
    /// scenario-independent), so the solve first goes through the explicit
    /// [`flexile_lp::solve_rhs_restart`] dual path. A retryable failure there
    /// falls back to the full [`solve_robust`] escalation ladder.
    pub fn solve_with_stats(
        &mut self,
        inst: &Instance,
        scen: &Scenario,
        z: &[bool],
    ) -> Result<(SubproblemSolution, SolveStats), LpError> {
        self.solve_with_stats_watchdog(inst, scen, z, None)
    }

    /// [`Self::solve_with_stats`] with an optional **watchdog deadline** on
    /// the warm fast path.
    ///
    /// The warm dual restart is bounded by pivots, not time: the LP layer
    /// abandons a repair past `rows + cols` dual pivots and finishes with
    /// the cold solve (`lp.restart_abandoned`), and the cold ladder ends in
    /// a Bland-rule rung with a termination guarantee. The watchdog is a
    /// wall-clock backstop on top of that bound, armed on the warm path
    /// only: if it expires, the saved basis is quarantined (dropped),
    /// `flexile.watchdog_restart` is counted, and the solve cold-restarts
    /// through the full [`solve_robust`] ladder with no deadline. `None`
    /// leaves the pivot cap as the only bound.
    ///
    /// Note the watchdog makes solve outcomes wall-clock dependent, so
    /// bit-identity guarantees (across runs, and for checkpoint resume)
    /// hold unconditionally only with the watchdog disabled.
    pub fn solve_with_stats_watchdog(
        &mut self,
        inst: &Instance,
        scen: &Scenario,
        z: &[bool],
        watchdog: Option<std::time::Duration>,
    ) -> Result<(SubproblemSolution, SolveStats), LpError> {
        let mut scratch = SolveScratch::new();
        self.solve_with_stats_scratch(inst, scen, z, watchdog, &mut scratch)
    }

    /// [`Self::solve_with_stats_watchdog`] with caller-owned solver scratch.
    ///
    /// The pool threads one [`SolveScratch`] through every solve a worker
    /// performs, so the per-iteration simplex work vectors are allocated
    /// once per worker instead of once per scenario solve. Scratch reuse is
    /// bit-transparent: a recycled buffer is cleared and re-zeroed to the
    /// exact length a fresh allocation would have.
    pub fn solve_with_stats_scratch(
        &mut self,
        inst: &Instance,
        scen: &Scenario,
        z: &[bool],
        watchdog: Option<std::time::Duration>,
        scratch: &mut SolveScratch,
    ) -> Result<(SubproblemSolution, SolveStats), LpError> {
        self.check_scenario(scen, z);
        let cap_arc = self.install_rhs(inst, scen, z);
        let rb = Self::robust_opts();
        // Warm fast path: the explicit dual RHS-restart, optionally under
        // the watchdog deadline (the cold ladder below runs deadline-free —
        // its Bland rung terminates provably).
        let first = self.warm.as_ref().map(|warm| {
            // Presolve follows the ladder's setting, so a restart the LP
            // layer abandons for a cold solve produces the same duals as the
            // ladder's cold rungs.
            let opts = SimplexOptions {
                presolve: rb.presolve,
                deadline: watchdog.map(|w| std::time::Instant::now() + w),
                ..rb.budget.simplex_options()
            };
            self.model.solve_rhs_restart_with(&opts, warm, scratch)
        });
        let (sol, stats) = self.resolve_outcome(first, watchdog, &rb)?;
        self.warm = Some(sol.basis.clone());
        Ok((self.extract(&sol, z, &cap_arc), stats))
    }

    fn check_scenario(&self, scen: &Scenario, z: &[bool]) {
        assert_eq!(z.len(), self.num_flows);
        assert!(
            (scen.demand_factor - self.demand_factor).abs() < 1e-12,
            "scenario demand factor {} does not match template factor {};              build a template with `for_demand_factor`",
            scen.demand_factor,
            self.demand_factor
        );
    }

    /// Install `scen`/`z` into the template's RHS (criticality flips and
    /// capacity scaling — the only things that change per scenario) and
    /// return the scaled per-arc capacities for cut extraction.
    fn install_rhs(&mut self, inst: &Instance, scen: &Scenario, z: &[bool]) -> Vec<f64> {
        for (f, &r) in self.crit_rows.iter().enumerate() {
            self.model.set_rhs(r, if z[f] { 0.0 } else { -1.0 });
        }
        let mut cap_arc = vec![0.0; self.num_arcs];
        for &(a, r) in &self.cap_rows {
            let cap = inst.arc_capacity(a) * scen.cap_factor[inst.arc_link(a)];
            cap_arc[a] = cap;
            self.model.set_rhs(r, cap);
        }
        cap_arc
    }

    /// Robust ladder with a generous iteration budget: warm fast path
    /// first, then the cold / safe-mode / perturbation rungs. Presolve
    /// stays off: the Benders cuts are built from this solve's dual
    /// vector, and the cut stream must be bit-identical regardless of
    /// which presolve reductions would have fired (warm-started solves
    /// skip presolve anyway, so this only pins down the cold rungs).
    fn robust_opts() -> RobustOptions {
        RobustOptions {
            budget: SolveBudget::with_max_iters(2_000_000),
            presolve: false,
            ..Default::default()
        }
    }

    /// Continue a warm fast-path outcome (`Some`) or a cold start (`None`)
    /// through the escalation ladder: the single authority on the retry
    /// taxonomy.
    fn resolve_outcome(
        &mut self,
        first: Option<Result<(Solution, RestartKind), LpError>>,
        watchdog: Option<std::time::Duration>,
        rb: &RobustOptions,
    ) -> Result<(Solution, SolveStats), LpError> {
        match first {
            Some(Ok((sol, kind))) => {
                let stats = SolveStats {
                    warm_hit: kind != RestartKind::Cold,
                    dual_restart: kind == RestartKind::DualRestart,
                    iterations: sol.iterations,
                    watchdog_restart: false,
                };
                Ok((sol, stats))
            }
            // A numerical failure escalates through the full ladder
            // (which retries the warm basis first, then colder modes).
            Some(Err(LpError::Numerical(_))) => {
                let out = solve_robust(&self.model, rb, self.warm.as_ref());
                let iterations = out.report.total_iterations();
                Ok((out.result?, SolveStats { iterations, ..Default::default() }))
            }
            // The armed watchdog fired: the warm basis is presumed
            // pathological. Quarantine it and cold-restart through
            // the ladder.
            Some(Err(LpError::DeadlineExceeded)) if watchdog.is_some() => {
                self.warm = None;
                flexile_obs::add("flexile.watchdog_restart", 1);
                flexile_obs::flight::dump("watchdog_restart");
                let out = solve_robust(&self.model, rb, None);
                let iterations = out.report.total_iterations();
                Ok((
                    out.result?,
                    SolveStats { iterations, watchdog_restart: true, ..Default::default() },
                ))
            }
            // No warm basis, or the warm path ran out of iterations: the
            // same basis under the same budget would only repeat the
            // runaway, so drop it and solve cold.
            Some(Err(LpError::IterationLimit)) | None => {
                self.warm = None;
                let out = solve_robust(&self.model, rb, None);
                let iterations = out.report.total_iterations();
                Ok((out.result?, SolveStats { iterations, ..Default::default() }))
            }
            // Verdicts about the model (infeasible, unbounded) and
            // deadline exhaustion are terminal.
            Some(Err(e)) => Err(e),
        }
    }

    fn extract(&self, sol: &Solution, z: &[bool], cap_arc: &[f64]) -> SubproblemSolution {
        let alpha: Vec<f64> = self.alpha_vars.iter().map(|&v| sol.value(v)).collect();
        let loss: Vec<f64> = self.l_vars.iter().map(|&v| sol.value(v)).collect();
        // Cut extraction.
        let w: Vec<f64> = self
            .crit_rows
            .iter()
            .map(|&r| sol.dual(r).max(0.0))
            .collect();
        let mut u = vec![0.0; self.num_arcs];
        for &(a, r) in &self.cap_rows {
            u[a] = sol.dual(r).min(0.0);
        }
        // D = value - Σ_f w_f (z_f - 1) - Σ_a u_a cap_a(q).
        let mut d_const = sol.objective;
        for (f, &wf) in w.iter().enumerate() {
            d_const -= wf * (if z[f] { 0.0 } else { -1.0 });
        }
        for (a, &ua) in u.iter().enumerate() {
            d_const -= ua * cap_arc[a];
        }
        SubproblemSolution {
            value: sol.objective,
            alpha,
            loss,
            cut: Cut { w, u, d_const },
        }
    }

    /// The per-flow loss upper bounds in effect (γ variant).
    pub fn loss_bounds(&self) -> &[f64] {
        &self.loss_ub
    }

    /// Fingerprint of the saved warm basis, if any (see
    /// [`flexile_lp::Basis::fingerprint`]). The crash tests use this to
    /// prove that replaying a checkpointed solve chain reconstructs the
    /// *exact* basis state of an uninterrupted run.
    pub fn warm_basis_fingerprint(&self) -> Option<u64> {
        self.warm.as_ref().map(|b| b.fingerprint())
    }

    /// Drop the saved warm basis: the next solve starts cold. Used by the
    /// pool when quarantining a template after a contained panic.
    pub fn clear_warm_basis(&mut self) {
        self.warm = None;
    }

    /// Whether this template was built for the given demand factor.
    pub fn matches_factor(&self, factor: f64) -> bool {
        (self.demand_factor - factor).abs() < 1e-12
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
    use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
    use flexile_traffic::{ClassConfig, Instance};

    pub(crate) fn fig1_instance() -> Instance {
        let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
        let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
        Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::single()],
            tunnels: vec![tunnels],
            demands: vec![vec![1.0, 1.0]],
        }
    }

    pub(crate) fn fig1_scenarios() -> ScenarioSet {
        let inst = fig1_instance();
        let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
        enumerate_scenarios(
            &units,
            3,
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
        )
    }

    #[test]
    fn all_alive_all_critical_is_lossless() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let mut t = SubproblemTemplate::new(&inst, None);
        let s = t.solve(&inst, &set.scenarios[0], &[true, true]).unwrap();
        assert!(s.value < 1e-7, "value {}", s.value);
        assert!(s.loss.iter().all(|&l| l < 1e-6));
    }

    #[test]
    fn critical_flow_prioritized_on_failure() {
        // Link A-B fails. With only f1 (A->B) critical, it gets the whole
        // A-C-B detour: zero loss. f2 is non-critical and unconstrained.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let mut t = SubproblemTemplate::new(&inst, None);
        let s = t.solve(&inst, scen, &[true, false]).unwrap();
        assert!(s.value < 1e-7, "critical f1 should be lossless, value {}", s.value);
        assert!(s.loss[0] < 1e-6);
    }

    #[test]
    fn both_critical_on_failure_forces_half_loss() {
        // Link A-B fails; both critical: the Fig. 2 bottleneck gives 0.5.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let mut t = SubproblemTemplate::new(&inst, None);
        let s = t.solve(&inst, scen, &[true, true]).unwrap();
        assert!((s.value - 0.5).abs() < 1e-6, "value {}", s.value);
    }

    #[test]
    fn cut_is_tight_at_generation_point() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let mut t = SubproblemTemplate::new(&inst, None);
        let s = t.solve(&inst, scen, &[true, true]).unwrap();
        let cap_arc: Vec<f64> = (0..inst.num_arcs())
            .map(|a| inst.arc_capacity(a) * scen.cap_factor[inst.arc_link(a)])
            .collect();
        let g = s.cut.eval(&[1.0, 1.0], &cap_arc);
        assert!((g - s.value).abs() < 1e-6, "cut {g} vs value {}", s.value);
    }

    #[test]
    fn cut_underestimates_other_z() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let mut t = SubproblemTemplate::new(&inst, None);
        let s_full = t.solve(&inst, scen, &[true, true]).unwrap();
        let cap_arc: Vec<f64> = (0..inst.num_arcs())
            .map(|a| inst.arc_capacity(a) * scen.cap_factor[inst.arc_link(a)])
            .collect();
        // Evaluate the (z=11) cut at z=(1,0): must lower-bound the true value.
        let bound = s_full.cut.eval(&[1.0, 0.0], &cap_arc);
        let mut t2 = SubproblemTemplate::new(&inst, None);
        let s_partial = t2.solve(&inst, scen, &[true, false]).unwrap();
        assert!(bound <= s_partial.value + 1e-6, "bound {bound} vs {}", s_partial.value);
    }

    #[test]
    fn warm_start_across_scenarios() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let mut t = SubproblemTemplate::new(&inst, None);
        let z = vec![true, true];
        let mut total_iters = 0;
        for scen in &set.scenarios {
            let _ = t.solve(&inst, scen, &z).unwrap();
            total_iters += 1;
        }
        assert_eq!(total_iters, 8);
    }

    #[test]
    fn gamma_bound_limits_noncritical_loss() {
        // With loss_ub = 0.6 for f2, even when non-critical its loss stays
        // bounded; the subproblem remains feasible on single failures.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let mut t = SubproblemTemplate::new(&inst, Some(vec![1.0, 0.6]));
        let s = t.solve(&inst, scen, &[true, false]).unwrap();
        assert!(s.loss[1] <= 0.6 + 1e-9);
        // f1 critical still gets priority but f2 must now receive ≥ 0.4:
        // capacity A-C = 1 shared by f1's detour (1.0) and f2 (0.4) exceeds
        // 1, so f1's loss rises.
        assert!(s.value > 0.1, "gamma bound must cost the critical flow: {}", s.value);
    }
}
