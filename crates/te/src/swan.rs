//! SWAN-Throughput and SWAN-Maxmin (§6).
//!
//! Both SWAN variants allocate per scenario with strict class priority:
//! higher-priority classes are allocated first and their tunnel usage is
//! subtracted from link capacity before lower classes run (unlike Flexile's
//! online phase, which re-optimizes routing jointly — §4.3). The usage is
//! the class's [`ScenAlloc::route_pinned`] routing, subtracted by
//! [`consume_capacity`].
//!
//! * **SWAN-Throughput** maximizes total served demand per class. As the
//!   paper notes (§6.2), this can starve unlucky flows entirely: on a path
//!   A-B-C it prefers one unit each of A-B and B-C over any A-C traffic.
//! * **SWAN-Maxmin** approximates max-min fairness per class with SWAN's
//!   iterative water-fill, [`ScenAlloc::waterfill`] — the same kernel
//!   Flexile's online controller runs.

use crate::alloc::{consume_capacity, ScenAlloc};
use crate::types::{clamp_loss, SchemeResult};
use flexile_lp::Sense;
use flexile_scenario::{Scenario, ScenarioSet};
use flexile_traffic::Instance;

/// SWAN-Throughput post-analysis.
pub fn swan_throughput(inst: &Instance, set: &ScenarioSet) -> SchemeResult {
    let mut loss = vec![vec![0.0; set.scenarios.len()]; inst.num_flows()];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let l = swan_throughput_scenario(inst, scen);
        for (f, &v) in l.iter().enumerate() {
            loss[f][q] = clamp_loss(v);
        }
    }
    SchemeResult::new("SWAN-Throughput", loss)
}

/// SWAN-Maxmin post-analysis.
pub fn swan_maxmin(inst: &Instance, set: &ScenarioSet) -> SchemeResult {
    let mut loss = vec![vec![0.0; set.scenarios.len()]; inst.num_flows()];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let l = swan_maxmin_scenario(inst, scen);
        for (f, &v) in l.iter().enumerate() {
            loss[f][q] = clamp_loss(v);
        }
    }
    SchemeResult::new("SWAN-Maxmin", loss)
}

/// Per-scenario SWAN-Throughput: classes in priority order, each maximizing
/// its own total served demand on the capacity left by higher classes.
pub fn swan_throughput_scenario(inst: &Instance, scen: &Scenario) -> Vec<f64> {
    per_class_sequential(inst, scen, |alloc, k| {
        // Maximize the class's total served demand.
        for p in 0..alloc.inst.num_pairs() {
            if !alloc.pair_alive[k][p] {
                continue;
            }
            let coeffs = alloc.served_coeffs(k, p);
            alloc.model.add_row_le(&coeffs, alloc.demand(k, p));
            for (v, _) in coeffs {
                alloc.model.set_obj(v, 1.0);
            }
        }
        let sol = alloc.model.solve().expect("SWAN-Throughput LP");
        (0..alloc.inst.num_pairs())
            .map(|p| alloc.served_at(&sol, k, p))
            .collect()
    })
}

/// Per-scenario SWAN-Maxmin: classes in priority order; within a class,
/// iterative water-filling on served fraction.
pub fn swan_maxmin_scenario(inst: &Instance, scen: &Scenario) -> Vec<f64> {
    per_class_sequential(inst, scen, |alloc, k| {
        for p in 0..alloc.inst.num_pairs() {
            if alloc.pair_alive[k][p] && alloc.demand(k, p) > 0.0 {
                let coeffs = alloc.served_coeffs(k, p);
                alloc.model.add_row_le(&coeffs, alloc.demand(k, p));
            }
        }
        alloc.waterfill(k, &mut Vec::new()).expect("SWAN-Maxmin water-fill LP")
    })
}

/// Run `allocate(class)` for each class in priority order, reducing link
/// capacities by each class's usage before the next class runs. Returns
/// per-flow losses.
fn per_class_sequential<F>(inst: &Instance, scen: &Scenario, mut allocate: F) -> Vec<f64>
where
    F: FnMut(&mut ScenAlloc, usize) -> Vec<f64>,
{
    let mut losses = vec![0.0; inst.num_flows()];
    // Track residual capacity by accumulating a synthetic "used" scenario
    // capacity factor. We rebuild the skeleton per class with shrunken
    // factors.
    let mut scen_k = scen.clone();
    for k in 0..inst.num_classes() {
        let mut alloc = ScenAlloc::new(inst, &scen_k, Sense::Max);
        // Hide other classes' variables (they are rebuilt each round).
        for kk in 0..inst.num_classes() {
            if kk != k {
                for p in 0..inst.num_pairs() {
                    for &v in &alloc.x[kk][p] {
                        alloc.model.set_bounds(v, 0.0, 0.0);
                    }
                }
            }
        }
        let served = allocate(&mut alloc, k);
        for p in 0..inst.num_pairs() {
            losses[inst.flow_index(k, p)] = alloc.loss(k, p, served[p]);
        }
        if k + 1 < inst.num_classes() {
            let mut pinned = vec![0.0; inst.num_flows()];
            for p in 0..inst.num_pairs() {
                pinned[inst.flow_index(k, p)] = served[p];
            }
            let rates = ScenAlloc::new(inst, &scen_k, Sense::Max).route_pinned(&pinned);
            consume_capacity(inst, k, &rates[k], &mut scen_k);
        }
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions};
    use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
    use flexile_traffic::{ClassConfig, Instance};

    /// The §6.2 example: path A-B-C, flows AB, BC, AC of unit demand.
    fn abc_line() -> Instance {
        let topo = Topology::new("abc", 3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let pairs = vec![
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(2)),
            (NodeId(0), NodeId(2)),
        ];
        let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
        Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::single()],
            tunnels: vec![tunnels],
            demands: vec![vec![1.0, 1.0, 1.0]],
        }
    }

    fn all_alive(inst: &Instance) -> flexile_scenario::Scenario {
        let units = link_units(&inst.topo, &vec![0.01; inst.topo.num_links()]);
        enumerate_scenarios(
            &units,
            inst.topo.num_links(),
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 1, coverage_target: 2.0 },
        )
        .scenarios[0]
            .clone()
    }

    #[test]
    fn throughput_starves_the_long_flow() {
        // The paper's A-B-C example: maximizing throughput serves AB and BC
        // fully and gives AC nothing.
        let inst = abc_line();
        let scen = all_alive(&inst);
        let l = swan_throughput_scenario(&inst, &scen);
        assert!(l[0] < 1e-6 && l[1] < 1e-6, "short flows served: {l:?}");
        assert!((l[2] - 1.0).abs() < 1e-6, "long flow starved: {l:?}");
    }

    #[test]
    fn maxmin_shares_the_line() {
        // Max-min on A-B-C: all three flows get 0.5.
        let inst = abc_line();
        let scen = all_alive(&inst);
        let l = swan_maxmin_scenario(&inst, &scen);
        for (i, &v) in l.iter().enumerate() {
            assert!((v - 0.5).abs() < 1e-5, "flow {i} loss {v} != 0.5 ({l:?})");
        }
    }

    #[test]
    fn maxmin_fills_after_freezing() {
        // Star: hub 0 with leaves 1,2; capacities 1. Flows 1->2 (via hub)
        // and 1->0. Both share link 0-1: maxmin gives each 0.5; then flow
        // 1->0 cannot improve but 1->2... also bounded by 0-1. Use a
        // different asymmetry: flows 0->1 and 0->2 and 1->2.
        let topo = Topology::new("star", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))];
        let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
        let inst = Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::single()],
            tunnels: vec![tunnels],
            demands: vec![vec![2.0, 1.0]],
        };
        let scen = all_alive(&inst);
        let l = swan_maxmin_scenario(&inst, &scen);
        // Flow 1->2 has a private direct link: fully served. Flow 0->1 has
        // capacity 2 across 0-1 and 0-2-1... but 2-1 is used by flow 1->2
        // in the other direction only, so 0->1 can also use 0-2,2-1: served
        // 2.0 of demand 2.0.
        assert!(l[1] < 1e-5, "{l:?}");
        assert!(l[0] < 1e-5, "{l:?}");
    }

    #[test]
    fn two_class_priority_order() {
        // Single link, high demand in both classes: high priority wins.
        let topo = Topology::new("pair", 2, &[(0, 1, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1))];
        let hi = TunnelSet::build(&topo, &pairs, TunnelClass::HighPriority);
        let lo = TunnelSet::build(&topo, &pairs, TunnelClass::LowPriority);
        let inst = Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::interactive(), ClassConfig::elastic()],
            tunnels: vec![hi, lo],
            demands: vec![vec![0.8], vec![0.8]],
        };
        let scen = all_alive(&inst);
        let l = swan_maxmin_scenario(&inst, &scen);
        assert!(l[0] < 1e-5, "high priority fully served: {l:?}");
        // Low priority gets the residual 0.2 of its 0.8 demand: loss 0.75.
        assert!((l[1] - 0.75).abs() < 1e-4, "low priority squeezed: {l:?}");
    }
}
