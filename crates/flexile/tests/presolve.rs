//! Decomposition-level acceptance tests for LP presolve:
//!
//! * **Bit-identity** — the offline design (penalty, criticality sets,
//!   alpha, loss matrix) is bit-identical with master presolve on vs off,
//!   and across thread counts in both configurations. Presolve is a
//!   *solver*-side reduction with exact postsolve; it must never leak into
//!   the decomposition trajectory. (Subproblems always solve with presolve
//!   off — Benders cuts are built from their duals, and the cut-function
//!   equivalence tests in `pool.rs` pin those bit-exactly.)
//!
//! The master presolves only its cold root solve; `master_nodes.rs` checks
//! that the other branch-and-bound nodes dual-restart.

use flexile_core::{solve_flexile, FlexileDesign, FlexileOptions};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
use flexile_traffic::{ClassConfig, Instance};

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

fn design_bits(d: &FlexileDesign) -> (u64, Vec<Vec<bool>>, Vec<u64>, Vec<u64>) {
    (
        d.penalty.to_bits(),
        d.critical.clone(),
        d.alpha.iter().map(|v| v.to_bits()).collect(),
        d.offline_loss.iter().flatten().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn design_identical_presolve_on_off_fig1() {
    let (inst, set) = fig1_setup();
    let mut reference = None;
    for presolve in [true, false] {
        for threads in [1, 8] {
            let mut opts = FlexileOptions { threads, ..Default::default() };
            opts.master.presolve = presolve;
            let d = design_bits(&solve_flexile(&inst, &set, &opts));
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(
                    r, &d,
                    "fig1 output diverged at presolve={presolve} threads={threads}"
                ),
            }
        }
    }
}

#[test]
fn design_identical_presolve_on_off_sprint() {
    let (inst, set) = sprint_setup();
    let mut reference = None;
    for presolve in [true, false] {
        for threads in [1, 8] {
            let mut opts =
                FlexileOptions { threads, max_iterations: 3, ..Default::default() };
            opts.master.presolve = presolve;
            let d = design_bits(&solve_flexile(&inst, &set, &opts));
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(
                    r, &d,
                    "Sprint output diverged at presolve={presolve} threads={threads}"
                ),
            }
        }
    }
}
