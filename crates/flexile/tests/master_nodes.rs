//! Warm branch-and-bound nodes in the decomposition master: only the root
//! relaxation is solved cold, every other node dual-restarts from its
//! parent's basis, so the master's node LPs need almost no phase-1 pivots.
//!
//! Telemetry counters are process-wide, so this test has a binary of its
//! own: no other test's solves can land in its counts.

use flexile_core::{solve_flexile, FlexileOptions, PoolPolicy};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_traffic::Instance;

/// Small-caps Sprint instance (Table 2 topology), trimmed to tier-1 time
/// budgets; β = 0.99 below max-feasible so the decomposition iterates.
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

#[test]
fn master_nodes_dual_restart_on_sprint() {
    let (inst, set) = sprint_setup();
    // A cold subproblem pool never restarts, so every dual restart counted
    // here is a master node's.
    let opts = FlexileOptions {
        threads: 2,
        max_iterations: 2,
        pool: PoolPolicy::Cold,
        ..Default::default()
    };
    flexile_obs::enable();
    let _ = solve_flexile(&inst, &set, &opts);
    let report = flexile_obs::drain();
    flexile_obs::disable();
    let masters: Vec<_> = report.events_named("flexile.master").collect();
    assert!(!masters.is_empty(), "no master solve on Sprint");
    let node_lps = report
        .events_named("lp.solve")
        .filter(|e| {
            masters.iter().any(|m| {
                e.tid == m.tid && e.ts_us >= m.ts_us && e.ts_us + e.dur_us <= m.ts_us + m.dur_us
            })
        })
        .count() as u64;
    let counter = |name| report.counters.get(name).copied().unwrap_or(0);
    assert!(counter("lp.dual_restarts") > 0, "no master node dual-restarted on Sprint");
    assert!(
        counter("lp.pivots.phase1") < node_lps,
        "phase-1 pivots {} not below the {node_lps} master node LPs",
        counter("lp.pivots.phase1")
    );
}
