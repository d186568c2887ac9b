//! Forwarding-state construction: admitted rates + integer tunnel weights.

use flexile_lp::Sense;
use flexile_scenario::Scenario;
use flexile_te::alloc::ScenAlloc;
use flexile_traffic::Instance;

/// Per-flow forwarding state installed on the (emulated) source switch.
#[derive(Debug, Clone)]
pub struct FlowPlan {
    /// Bandwidth the TE scheme admits for this flow (token bucket).
    pub admitted: f64,
    /// Integer select-group weights, one per tunnel of the flow's pair
    /// (dead tunnels keep weight 0).
    pub weights: Vec<u32>,
}

/// Reconstruct tunnel-level forwarding state from a scheme's per-flow
/// served bandwidth in `scen`: route the served amounts on the shared
/// pinned hop-minimal routing ([`ScenAlloc::route_pinned`]), then quantize
/// each flow's tunnel split into integer weights out of `levels` (OVS
/// select-group style). A flow is admitted at most its demand in `scen`.
///
/// `served[f]` is indexed by the instance flow convention.
pub fn plans_from_served(
    inst: &Instance,
    scen: &Scenario,
    served: &[f64],
    levels: u32,
) -> Vec<Vec<FlowPlan>> {
    assert!(levels >= 1);
    assert_eq!(served.len(), inst.num_flows());
    let alloc = ScenAlloc::new(inst, scen, Sense::Max);
    let admitted: Vec<f64> = (0..inst.num_flows())
        .map(|f| served[f].min(alloc.demand(inst.flow_class(f), inst.flow_pair(f))))
        .collect();
    let rates = alloc.route_pinned(served);
    rates
        .iter()
        .enumerate()
        .map(|(k, rk)| {
            rk.iter()
                .enumerate()
                .map(|(p, xs)| FlowPlan {
                    admitted: admitted[inst.flow_index(k, p)],
                    weights: quantize_weights(xs, xs.iter().sum(), levels),
                })
                .collect()
        })
        .collect()
}

/// Largest-remainder quantization of a fractional split into integer
/// weights summing to `levels` (when the split is non-degenerate).
pub fn quantize_weights(xs: &[f64], total: f64, levels: u32) -> Vec<u32> {
    if total <= 0.0 || xs.is_empty() {
        // Degenerate: single bucket on the first tunnel, if any.
        let mut w = vec![0u32; xs.len()];
        if let Some(first) = w.first_mut() {
            *first = 1;
        }
        return w;
    }
    let fracs: Vec<f64> = xs.iter().map(|x| x / total * levels as f64).collect();
    let mut w: Vec<u32> = fracs.iter().map(|&f| f.floor() as u32).collect();
    let assigned: u32 = w.iter().sum();
    // Distribute the remainder by largest fractional part.
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = fracs[a] - fracs[a].floor();
        let fb = fracs[b] - fracs[b].floor();
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut rem = levels.saturating_sub(assigned);
    for &i in &order {
        if rem == 0 {
            break;
        }
        w[i] += 1;
        rem -= 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions};
    use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
    use flexile_traffic::{ClassConfig, Instance};

    fn fig1() -> (Instance, flexile_scenario::ScenarioSet) {
        let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
        let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
        let inst = Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::single()],
            tunnels: vec![tunnels],
            demands: vec![vec![1.0, 1.0]],
        };
        let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
        let set = enumerate_scenarios(
            &units,
            3,
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
        );
        (inst, set)
    }

    #[test]
    fn quantize_preserves_total() {
        let w = quantize_weights(&[0.5, 0.3, 0.2], 1.0, 100);
        assert_eq!(w.iter().sum::<u32>(), 100);
        assert_eq!(w, vec![50, 30, 20]);
    }

    #[test]
    fn quantize_rounding_remainder() {
        let w = quantize_weights(&[1.0, 1.0, 1.0], 3.0, 100);
        assert_eq!(w.iter().sum::<u32>(), 100);
        assert!(w.iter().all(|&x| (33..=34).contains(&x)));
    }

    #[test]
    fn quantize_degenerate() {
        assert_eq!(quantize_weights(&[0.0, 0.0], 0.0, 10), vec![1, 0]);
        assert_eq!(quantize_weights(&[], 0.0, 10), Vec::<u32>::new());
    }

    #[test]
    fn plans_reflect_served() {
        let (inst, set) = fig1();
        let plans = plans_from_served(&inst, &set.scenarios[0], &[1.0, 1.0], 100);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].len(), 2);
        for p in 0..2 {
            assert!((plans[0][p].admitted - 1.0).abs() < 1e-9);
            assert_eq!(plans[0][p].weights.iter().sum::<u32>(), 100);
            // All traffic fits the direct link: the short tunnel dominates.
            assert!(plans[0][p].weights[0] >= 90, "{:?}", plans[0][p].weights);
        }
    }
}
