//! ScenBest / SMORE: per-scenario optimal max-concurrent-flow allocation.
//!
//! `ScenBest(MLU)` re-splits traffic optimally among live tunnels in every
//! failure scenario, minimizing the worst flow loss in that scenario
//! (equivalently minimizing MLU / maximizing the concurrent scale factor —
//! see the paper's appendix A). It is exactly SMORE's failure response, and
//! the per-scenario *optimum* no existing scheme can beat (§2).
//!
//! Two post-analysis variants:
//! * **strict** (plain SMORE): the scale factor covers every flow, so a
//!   scenario that disconnects any flow forces scale 0 — the worst-flow loss
//!   is 100%, matching the paper's §6.2 discussion.
//! * **drop-disconnected** (§6.2's SMORE variant): disconnected flows are
//!   turned off (loss 1) and the scale factor covers the rest.
//!
//! After fixing the optimal scale both variants run a second pass that
//! maximizes total served demand (capped per pair), using residual capacity
//! realistically so per-flow losses differ (as in Fig. 5's CDFs).
//!
//! `ScenBest-Multi` (§6.3) generalizes to two classes lexicographically:
//! maximize the high-priority scale first, freeze it, then the low-priority
//! scale, then total throughput.

use crate::alloc::ScenAlloc;
use crate::types::{clamp_loss, SchemeResult};
use flexile_lp::Sense;
use flexile_scenario::{Scenario, ScenarioSet};
use flexile_traffic::Instance;

/// Per-scenario ScenBest losses for a single-class instance.
///
/// Returns the per-pair losses. `drop_disconnected` selects the §6.2
/// variant.
pub fn scen_best_scenario(inst: &Instance, scen: &Scenario, drop_disconnected: bool) -> Vec<f64> {
    assert_eq!(inst.num_classes(), 1, "scen_best_scenario is single-class");
    let mut alloc = ScenAlloc::new(inst, scen, Sense::Max);
    let np = inst.num_pairs();
    let mut disconnected_with_demand = false;
    let z = alloc.model.add_var("z", 0.0, 1.0, 1.0);
    for p in 0..np {
        let d = alloc.demand(0, p);
        if d <= 0.0 {
            continue;
        }
        if alloc.pair_alive[0][p] {
            let mut coeffs = alloc.served_coeffs(0, p);
            coeffs.push((z, -d));
            alloc.model.add_row_ge(&coeffs, 0.0);
        } else {
            disconnected_with_demand = true;
        }
    }
    if disconnected_with_demand && !drop_disconnected {
        // Max-concurrent-flow semantics: the common scale factor includes
        // the disconnected flow, forcing it to zero.
        alloc.model.set_bounds(z, 0.0, 0.0);
    }
    let sol = alloc.model.solve().expect("ScenBest scale LP must be feasible");
    let zstar = sol.value(z);

    // Second pass: freeze the scale floor, maximize total served.
    alloc.model.set_bounds(z, (zstar - 1e-9).max(0.0), 1.0);
    alloc.model.set_obj(z, 0.0);
    for p in 0..np {
        if !alloc.pair_alive[0][p] {
            continue;
        }
        let coeffs = alloc.served_coeffs(0, p);
        alloc.model.add_row_le(&coeffs, alloc.demand(0, p));
        for &(v, _) in &coeffs {
            alloc.model.set_obj(v, 1.0);
        }
    }
    let sol2 = alloc.model.solve().expect("ScenBest throughput LP must be feasible");
    alloc.losses_at(&sol2)
}

/// The optimal per-scenario worst-flow loss (`ScenLoss` lower bound) for a
/// single-class instance — i.e. `1 - z*` over connected flows.
pub fn optimal_scen_loss(inst: &Instance, scen: &Scenario, drop_disconnected: bool) -> f64 {
    let losses = scen_best_scenario(inst, scen, drop_disconnected);
    losses.into_iter().fold(0.0, f64::max)
}

/// SMORE post-analysis (strict max-concurrent-flow semantics).
pub fn smore(inst: &Instance, set: &ScenarioSet) -> SchemeResult {
    run(inst, set, false, "SMORE")
}

/// The §6.2 SMORE variant that turns off disconnected flows.
pub fn smore_drop_disconnected(inst: &Instance, set: &ScenarioSet) -> SchemeResult {
    run(inst, set, true, "SMORE-drop")
}

/// ScenBest is SMORE with the drop-disconnected convention used in Fig. 5.
pub fn scen_best(inst: &Instance, set: &ScenarioSet) -> SchemeResult {
    run(inst, set, true, "ScenBest")
}

fn run(inst: &Instance, set: &ScenarioSet, drop: bool, name: &str) -> SchemeResult {
    let nf = inst.num_flows();
    let mut loss = vec![vec![0.0; set.scenarios.len()]; nf];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let l = scen_best_scenario(inst, scen, drop);
        for (p, &v) in l.iter().enumerate() {
            loss[p][q] = clamp_loss(v);
        }
    }
    SchemeResult::new(name, loss)
}

/// ScenBest-Multi: lexicographic two-class (or K-class) generalization.
/// Classes are processed highest priority first; each class's concurrent
/// scale is maximized and frozen, then total throughput is maximized.
pub fn scen_best_multi(inst: &Instance, set: &ScenarioSet) -> SchemeResult {
    let nf = inst.num_flows();
    let mut loss = vec![vec![0.0; set.scenarios.len()]; nf];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let l = scen_best_multi_scenario(inst, scen);
        for (f, &v) in l.iter().enumerate() {
            loss[f][q] = clamp_loss(v);
        }
    }
    SchemeResult::new("ScenBest-Multi", loss)
}

/// Per-scenario lexicographic multi-class allocation; returns per-flow
/// losses indexed by the instance's flow convention.
pub fn scen_best_multi_scenario(inst: &Instance, scen: &Scenario) -> Vec<f64> {
    let mut alloc = ScenAlloc::new(inst, scen, Sense::Max);
    let nk = inst.num_classes();
    let np = inst.num_pairs();
    // Scale variable per class; demand caps for all pairs up front.
    let mut zs = Vec::with_capacity(nk);
    for k in 0..nk {
        let z = alloc.model.add_var(&format!("z_{k}"), 0.0, 1.0, 0.0);
        for p in 0..np {
            let d = alloc.demand(k, p);
            if d <= 0.0 || !alloc.pair_alive[k][p] {
                continue;
            }
            let mut coeffs = alloc.served_coeffs(k, p);
            alloc.model.add_row_le(&coeffs, d);
            coeffs.push((z, -d));
            alloc.model.add_row_ge(&coeffs, 0.0);
        }
        zs.push(z);
    }
    // Lexicographic maximization of the class scales.
    for k in 0..nk {
        alloc.model.set_obj(zs[k], 1.0);
        let sol = alloc.model.solve().expect("ScenBest-Multi stage LP");
        let zstar = sol.value(zs[k]);
        alloc.model.set_obj(zs[k], 0.0);
        alloc.model.set_bounds(zs[k], (zstar - 1e-9).max(0.0), 1.0);
    }
    // Final throughput pass, higher classes weighted lexicographically
    // large so residual capacity prefers them.
    let mut weight = 1.0;
    for k in (0..nk).rev() {
        for p in 0..np {
            if !alloc.pair_alive[k][p] {
                continue;
            }
            for (v, _) in alloc.served_coeffs(k, p) {
                alloc.model.set_obj(v, weight);
            }
        }
        weight *= 1000.0;
    }
    let sol = alloc.model.solve().expect("ScenBest-Multi throughput LP");
    alloc.losses_at(&sol)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
    use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
    use flexile_traffic::{ClassConfig, Instance};

    /// The Fig. 1 triangle with flows A->B and A->C of demand 1.
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
    fn fig2_scenbest_splits_half_half() {
        // Paper Fig. 2: when link A-B fails, ScenBest can only give each
        // flow 0.5 (both squeeze through the surviving links).
        let inst = fig1_instance();
        let set = fig1_scenarios();
        // Find the scenario where exactly link 0 (A-B) failed.
        let scen = set
            .scenarios
            .iter()
            .find(|s| s.failed_units == vec![0])
            .unwrap();
        let losses = scen_best_scenario(&inst, scen, true);
        assert!((losses[0] - 0.5).abs() < 1e-6, "f1 loss {}", losses[0]);
        assert!((losses[1] - 0.5).abs() < 1e-6, "f2 loss {}", losses[1]);
    }

    #[test]
    fn all_alive_scenario_is_lossless() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let losses = scen_best_scenario(&inst, &set.scenarios[0], true);
        assert!(losses.iter().all(|&l| l < 1e-6));
    }

    #[test]
    fn strict_vs_drop_on_disconnection() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        // Links A-B and B-C dead: A-B pair relies on A-C-B...
        // Find the scenario where A-B (0) and A-C (1) both failed: node A cut.
        let scen = set
            .scenarios
            .iter()
            .find(|s| s.failed_units == vec![0, 1])
            .unwrap();
        let strict = scen_best_scenario(&inst, scen, false);
        assert!(strict.iter().all(|&l| (l - 1.0).abs() < 1e-6), "strict {strict:?}");
        let drop = scen_best_scenario(&inst, scen, true);
        // Both flows originate at A which is cut off: still total loss.
        assert!(drop.iter().all(|&l| (l - 1.0).abs() < 1e-6));
    }

    #[test]
    fn drop_rescues_connected_flows() {
        // B-C and A-C fail: flow A->B is fine via the direct link; flow
        // A->C is disconnected.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let scen = set
            .scenarios
            .iter()
            .find(|s| s.failed_units == vec![1, 2])
            .unwrap();
        let strict = scen_best_scenario(&inst, scen, false);
        assert!((strict[1] - 1.0).abs() < 1e-6);
        // Strict forces the scale to zero, but the throughput pass still
        // pushes traffic for the connected flow.
        let drop = scen_best_scenario(&inst, scen, true);
        assert!(drop[0] < 1e-6, "connected flow should be served: {drop:?}");
        assert!((drop[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn smore_full_matrix_shape() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let r = smore(&inst, &set);
        assert_eq!(r.num_flows(), 2);
        assert_eq!(r.num_scenarios(), 8);
    }

    #[test]
    fn multi_class_priority_respected() {
        // Two classes on the triangle; high priority must never lose more
        // than low priority under contention... build a tight instance:
        let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1))];
        let hi = TunnelSet::build(&topo, &pairs, TunnelClass::HighPriority);
        let lo = TunnelSet::build(&topo, &pairs, TunnelClass::LowPriority);
        let inst = Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::interactive(), ClassConfig::elastic()],
            tunnels: vec![hi, lo],
            demands: vec![vec![1.5], vec![1.5]],
        };
        let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
        let set = enumerate_scenarios(
            &units,
            3,
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 1, coverage_target: 2.0 },
        );
        let l = scen_best_multi_scenario(&inst, &set.scenarios[0]);
        // Total capacity out of A is 2.0; demand is 3.0. The lexicographic
        // scheme should fully serve the high class (1.5 <= 2.0).
        assert!(l[0] < 1e-6, "high-priority loss {l:?}");
        assert!(l[1] > 0.3, "low priority should bear the shortage {l:?}");
    }
}
