//! Explicit class priority (§4.4): design high-priority traffic first,
//! then design lower classes around it.
//!
//! The weighted objective `Σ_k w_k α_k` already *favors* the high class,
//! but when "the PercLoss of low-priority traffic is subordinate even to
//! sending high-priority traffic in non-critical scenarios", the paper
//! prescribes a strict sequence:
//!
//! 1. determine critical flows minimizing PercLoss for the high class only;
//! 2. push as much (non-critical) high-priority traffic as possible in
//!    every scenario;
//! 3. design the lower class with the high class's per-scenario bandwidth
//!    pinned as a hard constraint.
//!
//! We realize step 3 by routing the high class's served amounts in each
//! scenario on the shared pinned hop-minimal routing
//! ([`ScenAlloc::route_pinned`], the one the emulator and SWAN use) and
//! shrinking the scenario's capacity factors by that usage
//! ([`consume_capacity`]) before running the lower-class design. The
//! approach generalizes to any number of classes by folding each designed
//! class into the residual capacities.

use crate::decomposition::{solve_flexile, FlexileDesign, FlexileOptions};
use crate::online::online_allocate;
use flexile_lp::Sense;
use flexile_scenario::ScenarioSet;
use flexile_te::alloc::{consume_capacity, ScenAlloc};
use flexile_traffic::{ClassConfig, Instance};

/// Result of the lexicographic design: one per-class [`FlexileDesign`]
/// (each over the single-class sub-instance) plus the combined per-flow
/// loss matrix in the original instance's flow indexing.
#[derive(Debug, Clone)]
pub struct LexicographicDesign {
    /// Per-class designs, highest priority first.
    pub designs: Vec<FlexileDesign>,
    /// Combined online losses, `loss[flow][scenario]`.
    pub loss: Vec<Vec<f64>>,
}

/// Extract a single class as a standalone instance.
fn class_instance(inst: &Instance, k: usize) -> Instance {
    Instance {
        topo: inst.topo.clone(),
        pairs: inst.pairs.clone(),
        classes: vec![ClassConfig { weight: 1.0, ..inst.classes[k].clone() }],
        tunnels: vec![inst.tunnels[k].clone()],
        demands: vec![inst.demands[k].clone()],
    }
}

/// Run the strict-priority design. Classes are processed in the instance's
/// order (highest priority first).
pub fn solve_flexile_lexicographic(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
) -> LexicographicDesign {
    let nq = set.scenarios.len();
    let mut designs = Vec::with_capacity(inst.num_classes());
    let mut loss = vec![vec![0.0; nq]; inst.num_flows()];
    // Residual scenario set, shrunk as classes consume capacity.
    let mut residual_set = set.clone();

    for k in 0..inst.num_classes() {
        let sub = class_instance(inst, k);
        let design = solve_flexile(&sub, &residual_set, opts);
        // Step 2: per scenario, push as much class-k traffic as possible
        // (the online allocator with this class alone), record losses and
        // measure usage.
        let mut next_set = residual_set.clone();
        for (q, scen) in residual_set.scenarios.iter().enumerate() {
            let critical: Vec<bool> =
                (0..sub.num_flows()).map(|f| design.critical[f][q]).collect();
            let promised: Vec<f64> =
                (0..sub.num_flows()).map(|f| design.offline_loss[f][q]).collect();
            let l = online_allocate(&sub, scen, &critical, &promised);
            for p in 0..sub.num_pairs() {
                loss[inst.flow_index(k, p)][q] = l[p];
            }
            if k + 1 < inst.num_classes() {
                let alloc = ScenAlloc::new(&sub, scen, Sense::Max);
                let served: Vec<f64> = (0..sub.num_pairs())
                    .map(|p| (1.0 - l[p]).max(0.0) * alloc.demand(0, p))
                    .collect();
                let rates = alloc.route_pinned(&served);
                consume_capacity(&sub, 0, &rates[0], &mut next_set.scenarios[q]);
            }
        }
        residual_set = next_set;
        designs.push(design);
    }
    LexicographicDesign { designs, loss }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexile_metrics::{perc_loss, LossMatrix};
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions};
    use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};

    fn two_class_triangle() -> (Instance, ScenarioSet) {
        let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
        let hi = TunnelSet::build(&topo, &pairs, TunnelClass::HighPriority);
        let lo = TunnelSet::build(&topo, &pairs, TunnelClass::LowPriority);
        let mut hi_class = ClassConfig::interactive();
        hi_class.beta = 0.99;
        let mut lo_class = ClassConfig::elastic();
        lo_class.beta = 0.99;
        let inst = Instance {
            topo,
            pairs,
            classes: vec![hi_class, lo_class],
            tunnels: vec![hi, lo],
            demands: vec![vec![0.3, 0.3], vec![0.3, 0.3]],
        };
        let units = link_units(&inst.topo, &[0.01; 3]);
        let set = enumerate_scenarios(
            &units,
            3,
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
        );
        (inst, set)
    }

    #[test]
    fn high_class_designed_unencumbered() {
        let (inst, set) = two_class_triangle();
        let lex = solve_flexile_lexicographic(&inst, &set, &FlexileOptions::default());
        assert_eq!(lex.designs.len(), 2);
        // High class (0.3 per flow) fits its direct links even on single
        // failures via detours: zero PercLoss.
        assert!(lex.designs[0].penalty < 1e-6, "high penalty {}", lex.designs[0].penalty);
    }

    #[test]
    fn combined_losses_respect_priority() {
        let (inst, set) = two_class_triangle();
        let lex = solve_flexile_lexicographic(&inst, &set, &FlexileOptions::default());
        let m = LossMatrix::new(lex.loss.clone(), set.probs(), set.residual);
        let hi = perc_loss(&m, &inst.class_flows(0), 0.99);
        let lo = perc_loss(&m, &inst.class_flows(1), 0.99);
        assert!(hi < 1e-6, "high-priority PercLoss {hi}");
        // At 0.3+0.3 demand per flow the low class can still cover 99%:
        // its loss concentrates in the scenarios where the high class
        // needed the detour capacity, which the design marks non-critical.
        assert!(lo <= 0.35, "low-priority PercLoss {lo}");
        assert!(hi <= lo + 1e-9);
    }
}
