//! Scenario-solve pool acceptance tests:
//!
//! * **Scheduler determinism** — with the per-scenario pool, each
//!   scenario's warm-start chain depends only on its own solve history, so
//!   the decomposition output (penalty, criticality sets, loss matrix) is
//!   bit-identical across thread counts and across repeated runs.
//! * **Warm-vs-cold equivalence** — on a multi-iteration criticality trace,
//!   every warm-restarted subproblem solve agrees with a cold solve of the
//!   same LP to ≤ 1e-9 in the objective and in the duals feeding the
//!   Benders cut.
//! * **Telemetry** — the pool emits the `flexile.scenario_warm_hit/miss`,
//!   `flexile.dual_restart` counters and the `flexile.subproblem_wait`
//!   histogram, and stays purely observational.
//! * **Donor seeding** — under the default policy every first solve
//!   restarts from the all-alive donor basis; under `Cold` none does.
//!
//! The obs sink is process-global, so every test that solves serializes on
//! a mutex: a solve running beside a traced test would add to its
//! counters.

use flexile_core::subproblem::SubproblemTemplate;
use flexile_core::{solve_flexile, FlexileDesign, FlexileOptions, PoolPolicy};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
use flexile_traffic::{ClassConfig, Instance};
use std::sync::Mutex;

static SINK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

/// The paper's Fig. 1 triangle with the explicit 99% requirement.
fn fig1_setup() -> (Instance, ScenarioSet) {
    let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
    let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
    let mut inst = Instance {
        topo,
        pairs,
        classes: vec![ClassConfig::single()],
        tunnels: vec![tunnels],
        demands: vec![vec![1.0, 1.0]],
    };
    inst.classes[0].beta = 0.99;
    let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
    let set = enumerate_scenarios(
        &units,
        3,
        &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
    );
    (inst, set)
}

/// A small-caps Sprint instance (Table 2 topology): real topology, trimmed
/// pair/scenario counts so the test stays in tier-1 time budgets. The
/// explicit β = 0.99 sits meaningfully below the max-feasible target, so
/// the master has slack to shed criticality and the decomposition actually
/// iterates (re-solving scenarios warm) instead of accepting the starting
/// heuristic.
fn sprint_setup() -> (Instance, ScenarioSet) {
    let topo = flexile_topo::topology_by_name("Sprint").expect("Sprint is in the zoo");
    let probs = flexile_scenario::link_failure_probs(
        topo.num_links(),
        flexile_scenario::weibull::DEFAULT_SHAPE,
        flexile_scenario::weibull::DEFAULT_MEDIAN,
        42,
    );
    let units = link_units(&topo, &probs);
    let set = enumerate_scenarios(
        &units,
        topo.num_links(),
        &EnumOptions { prob_cutoff: 1e-6, max_scenarios: 12, coverage_target: 0.9999 },
    );
    let mut inst = Instance::single_class(topo, 7, 0.95, Some(6));
    inst.classes[0].beta = 0.99;
    (inst, set)
}

fn design_bits(d: &FlexileDesign) -> (u64, Vec<Vec<bool>>, Vec<u64>, Vec<u64>) {
    (
        d.penalty.to_bits(),
        d.critical.clone(),
        d.alpha.iter().map(|v| v.to_bits()).collect(),
        d.offline_loss.iter().flatten().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn pool_output_identical_across_repeated_runs() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { threads: 8, max_iterations: 3, ..Default::default() };
    let first = design_bits(&solve_flexile(&inst, &set, &opts));
    let second = design_bits(&solve_flexile(&inst, &set, &opts));
    assert_eq!(first, second, "work-stealing run must be reproducible");
}

#[test]
fn gamma_variant_deterministic_across_threads() {
    let _g = exclusive();
    // Under γ each scenario has its own loss bounds, installed in a shared
    // model before every solve; determinism must hold there too.
    let (inst, set) = fig1_setup();
    let mut reference = None;
    for threads in [1, 2, 8] {
        let opts = FlexileOptions { threads, gamma: Some(0.2), ..Default::default() };
        let d = design_bits(&solve_flexile(&inst, &set, &opts));
        match &reference {
            None => reference = Some(d),
            Some(r) => assert_eq!(r, &d, "γ output diverged at threads={threads}"),
        }
    }
}

/// Multi-iteration criticality trace for one instance: start from
/// all-critical, then flip alternating flows off, restore, then drop the
/// first half — exercising exactly the RHS churn the decomposition
/// produces across iterations.
fn z_trace(nf: usize) -> Vec<Vec<bool>> {
    vec![
        vec![true; nf],
        (0..nf).map(|f| f % 2 == 0).collect(),
        vec![true; nf],
        (0..nf).map(|f| f >= nf / 2).collect(),
    ]
}

#[test]
fn warm_restart_matches_cold_solves() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let nf = inst.num_flows();
    let trace = z_trace(nf);
    let mut warm_used = 0usize;
    let mut dual_restarts = 0usize;
    for scen in set.scenarios.iter() {
        let cap_arc: Vec<f64> = (0..inst.num_arcs())
            .map(|a| inst.arc_capacity(a) * scen.cap_factor[inst.arc_link(a)])
            .collect();
        let zf: Vec<Vec<f64>> = trace
            .iter()
            .map(|z| z.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
            .collect();
        // One template restarts each step from the previous step's basis;
        // the cold reference rebuilds from scratch every step.
        let mut warm_tmpl = SubproblemTemplate::for_demand_factor(&inst, None, scen.demand_factor);
        let mut warm = None;
        let mut warm_sols = Vec::new();
        let mut cold_sols = Vec::new();
        for z in &trace {
            let (warm_sol, stats) = warm_tmpl
                .solve_with_stats(&inst, scen, z, &mut warm)
                .expect("warm solve");
            let mut cold_tmpl =
                SubproblemTemplate::for_demand_factor(&inst, None, scen.demand_factor);
            let cold_sol = cold_tmpl.solve(&inst, scen, z).expect("cold solve");
            if stats.warm_hit {
                warm_used += 1;
            }
            if stats.dual_restart {
                dual_restarts += 1;
            }
            assert!(
                (warm_sol.value - cold_sol.value).abs() <= 1e-9,
                "objective diverged: warm {} vs cold {}",
                warm_sol.value,
                cold_sol.value
            );
            warm_sols.push(warm_sol);
            cold_sols.push(cold_sol);
        }
        // The duals feeding the Benders cut: under degeneracy the optimal
        // dual vector is not unique, so equivalence is asserted on the cut
        // *function* — each cut (warm or cold) must lower-bound the true
        // subproblem value at every point of the trace to ≤ 1e-9, and be
        // exact at its own generation point (strong duality).
        for (t, (ws, cs)) in warm_sols.iter().zip(cold_sols.iter()).enumerate() {
            assert!(
                (ws.cut.eval(&zf[t], &cap_arc) - ws.value).abs() <= 1e-9,
                "warm cut not tight at its generation point"
            );
            for (s, cs2) in cold_sols.iter().enumerate() {
                let wb = ws.cut.eval(&zf[s], &cap_arc);
                assert!(
                    wb <= cs2.value + 1e-9,
                    "warm cut from step {t} overestimates step {s}: {wb} > {}",
                    cs2.value
                );
                let cb = cs.cut.eval(&zf[s], &cap_arc);
                assert!(
                    cb <= warm_sols[s].value + 1e-9,
                    "cold cut from step {t} overestimates step {s}: {cb} > {}",
                    warm_sols[s].value
                );
            }
        }
    }
    assert!(warm_used > 0, "the trace must actually exercise warm restarts");
    assert!(dual_restarts > 0, "re-tightened criticality must go through the dual simplex");
}

#[test]
fn pool_emits_warm_restart_counters() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { threads: 4, max_iterations: 3, ..Default::default() };
    let cold_opts = FlexileOptions { pool: PoolPolicy::Cold, ..opts.clone() };

    let plain = solve_flexile(&inst, &set, &opts);

    flexile_obs::enable();
    let traced = solve_flexile(&inst, &set, &opts);
    flexile_obs::disable();
    let t = flexile_obs::drain();

    // Counters are observational: instrumented output is bit-identical.
    assert_eq!(design_bits(&plain), design_bits(&traced));

    let counter = |name: &str| t.counters.get(name).copied().unwrap_or(0);
    let from_stats =
        |f: fn(&flexile_core::IterationStat) -> usize| -> u64 {
            traced.iterations.iter().map(|s| f(s) as u64).sum()
        };
    // Iteration 1 restarts every scenario from the donor; iterations 2+
    // restart from each scenario's own basis.
    assert!(traced.iterations.len() >= 2, "setup must produce a multi-iteration run");
    let first = &traced.iterations[0];
    assert!(first.solved > 0);
    assert_eq!(first.warm_hits, first.solved, "first-iteration solves are donor warm hits");
    assert_eq!(t.events_named("flexile.donor").count(), 1, "one donor per demand factor");
    assert!(
        traced.iterations[1..].iter().any(|s| s.warm_hits > 0),
        "later iterations must warm-restart"
    );
    assert!(counter("flexile.dual_restart") > 0, "criticality churn must dual-restart");
    assert_eq!(counter("flexile.scenario_warm_hit"), from_stats(|s| s.warm_hits));
    assert_eq!(counter("flexile.dual_restart"), from_stats(|s| s.dual_restarts));
    assert!(
        from_stats(|s| s.lp_iterations) > 0,
        "iteration stats must account simplex work"
    );
    let wait = t.hists.get("flexile.subproblem_wait").expect("wait histogram");
    // One observation per worker per dispatched iteration.
    assert!(wait.count() as usize >= traced.iterations.len());

    // The cold baseline has no donor: its first-iteration solves all miss.
    flexile_obs::enable();
    let cold = solve_flexile(&inst, &set, &cold_opts);
    flexile_obs::disable();
    let t = flexile_obs::drain();
    let first = &cold.iterations[0];
    assert!(first.solved > 0);
    assert_eq!(first.warm_hits, 0, "cold first-iteration solves miss");
    assert_eq!(
        t.counters.get("flexile.scenario_warm_miss").copied().unwrap_or(0),
        cold.iterations.iter().map(|s| s.solved as u64).sum::<u64>(),
        "every cold solve misses"
    );
    assert_eq!(t.events_named("flexile.donor").count(), 0, "Cold solves no donor");
}

#[test]
fn pool_output_identical_across_thread_counts() {
    // The scenario is the pool's only dispatch unit and the donor basis is
    // solved before any worker runs: any thread count produces the same
    // donor-seeded design and the same deterministic solver counters, and
    // every solved scenario is exactly one `flexile.subproblem` span.
    let _g = exclusive();
    let default_iterations = FlexileOptions::default().max_iterations;
    for (name, (inst, set), max_iterations) in
        [("fig1", fig1_setup(), default_iterations), ("sprint", sprint_setup(), 3)]
    {
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let opts = FlexileOptions { threads, max_iterations, ..Default::default() };
            flexile_obs::enable();
            let design = solve_flexile(&inst, &set, &opts);
            flexile_obs::disable();
            let t = flexile_obs::drain();
            let solved: usize = design.iterations.iter().map(|s| s.solved).sum();
            assert!(solved > 0, "{name}: no scenario solved");
            assert_eq!(
                t.events_named("flexile.subproblem").count(),
                solved,
                "{name}: one subproblem span per solved scenario at threads={threads}"
            );
            assert_eq!(
                t.events_named("flexile.subproblem_batch").count(),
                0,
                "{name}: no batch units at threads={threads}"
            );
            let counter = |n: &str| t.counters.get(n).copied().unwrap_or(0);
            let counters: Vec<u64> = [
                "lp.pivots.phase1",
                "lp.pivots.phase2",
                "lp.pivots.dual",
                "lp.refactorizations",
                "flexile.scenario_warm_hit",
                "flexile.dual_restart",
            ]
            .iter()
            .map(|n| counter(n))
            .collect();
            let d = (design_bits(&design), counters);
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(r, &d, "{name}: diverged at threads={threads}"),
            }
        }
    }
}

#[test]
fn cold_policy_still_solves() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let opts = FlexileOptions { pool: PoolPolicy::Cold, ..Default::default() };
    let design = solve_flexile(&inst, &set, &opts);
    assert!(design.penalty < 1e-6, "Cold should still reach PercLoss 0, got {}", design.penalty);

    // On a multi-iteration Sprint run the default pool reaches the same
    // design as solving every scenario cold, with strictly fewer simplex
    // iterations: warm restarts only save work.
    let (inst, set) = sprint_setup();
    let lp_iterations =
        |d: &FlexileDesign| -> usize { d.iterations.iter().map(|s| s.lp_iterations).sum() };
    let warm_opts = FlexileOptions { threads: 4, max_iterations: 3, ..Default::default() };
    let cold_opts = FlexileOptions { pool: PoolPolicy::Cold, ..warm_opts.clone() };
    let warm = solve_flexile(&inst, &set, &warm_opts);
    let cold = solve_flexile(&inst, &set, &cold_opts);
    assert!(warm.iterations.len() >= 2, "setup must produce a multi-iteration run");
    assert_eq!(warm.penalty.to_bits(), cold.penalty.to_bits(), "Cold changed the penalty");
    assert!(
        lp_iterations(&warm) < lp_iterations(&cold),
        "warm {} vs cold {} simplex iterations",
        lp_iterations(&warm),
        lp_iterations(&cold)
    );
}
