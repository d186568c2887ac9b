//! End-to-end scheme emulation over a scenario set, with replicated runs.

use crate::fluid::{propagate, TunnelInjection};
use crate::plan::plans_from_served;
use flexile_scenario::ScenarioSet;
use flexile_te::alloc::served_loss;
use flexile_te::SchemeResult;
use flexile_traffic::Instance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Emulator configuration.
#[derive(Debug, Clone)]
pub struct EmuConfig {
    /// Select-group weight resolution (OVS integer buckets).
    pub weight_levels: u32,
    /// Relative packetization jitter per tunnel per run (e.g. 0.004).
    pub jitter: f64,
    /// Base RNG seed; each run derives its own stream.
    pub seed: u64,
}

impl Default for EmuConfig {
    fn default() -> Self {
        EmuConfig { weight_levels: 100, jitter: 0.004, seed: 7 }
    }
}

/// Emulate a scheme's decisions (its post-analysis loss matrix) on every
/// scenario, `runs` times. Returns one emulated loss matrix per run.
///
/// The scheme's model losses define the admitted bandwidth per flow
/// (`(1 − loss) · demand`, the paper's token-bucket throttling); the
/// emulator reconstructs tunnel weights, quantizes them, perturbs rates,
/// and measures delivered bandwidth against the *original* demand —
/// "accounting for both throttling required by the TE scheme, and losses
/// in the testbed" (§6). Demands are the scenario's: the instance demand
/// scaled by the scenario's demand factor (§4.4).
pub fn emulate_scheme(
    inst: &Instance,
    set: &ScenarioSet,
    model: &SchemeResult,
    cfg: &EmuConfig,
    runs: usize,
) -> Vec<SchemeResult> {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    assert_eq!(model.loss.len(), nf);

    let demand = |f: usize, q: usize| inst.flow_demand(f) * set.scenarios[q].demand_factor;
    // Forwarding state per scenario is computed once; jitter varies by run.
    let mut per_scenario_plans = Vec::with_capacity(nq);
    for (q, scen) in set.scenarios.iter().enumerate() {
        let served: Vec<f64> =
            (0..nf).map(|f| (1.0 - model.loss[f][q]).max(0.0) * demand(f, q)).collect();
        per_scenario_plans.push(plans_from_served(inst, scen, &served, cfg.weight_levels));
    }

    (0..runs)
        .map(|run| {
            let mut loss = vec![vec![0.0; nq]; nf];
            for (q, scen) in set.scenarios.iter().enumerate() {
                let mut rng =
                    StdRng::seed_from_u64(cfg.seed ^ (run as u64) << 32 ^ q as u64);
                let dead = scen.dead_mask();
                let mut injections = Vec::new();
                for k in 0..inst.num_classes() {
                    for p in 0..inst.num_pairs() {
                        let f = inst.flow_index(k, p);
                        let plan = &per_scenario_plans[q][k][p];
                        if plan.admitted <= 0.0 {
                            continue;
                        }
                        // Select groups drop dead buckets; weights renormalize
                        // over live tunnels.
                        let live: Vec<(usize, u32)> = inst.tunnels[k].tunnels[p]
                            .iter()
                            .enumerate()
                            .filter(|(t, path)| path.alive(&dead) && plan.weights[*t] > 0)
                            .map(|(t, _)| (t, plan.weights[t]))
                            .collect();
                        let wsum: u32 = live.iter().map(|(_, w)| *w).sum();
                        if wsum == 0 {
                            continue;
                        }
                        for (t, wgt) in live {
                            let frac = wgt as f64 / wsum as f64;
                            let noise = 1.0 + rng.random_range(-cfg.jitter..=cfg.jitter);
                            let rate = (plan.admitted * frac * noise).max(0.0);
                            injections.push(TunnelInjection {
                                arcs: inst.arc_ids(&inst.tunnels[k].tunnels[p][t]),
                                rate,
                                flow: f,
                            });
                        }
                    }
                }
                let delivered = propagate(inst, scen, &injections, nf);
                for f in 0..nf {
                    let (k, p) = (inst.flow_class(f), inst.flow_pair(f));
                    let alive = inst.tunnels[k].pair_alive(p, &dead);
                    loss[f][q] = served_loss(demand(f, q), alive, delivered[f]);
                }
            }
            SchemeResult::new(&format!("{}-emu-run{}", model.name, run), loss)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions};
    use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
    use flexile_traffic::{ClassConfig, Instance};

    fn fig1() -> (Instance, ScenarioSet) {
        let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
        let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
        let inst = Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::single()],
            tunnels: vec![tunnels],
            demands: vec![vec![0.8, 0.8]],
        };
        let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
        let set = enumerate_scenarios(
            &units,
            3,
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 4, coverage_target: 2.0 },
        );
        (inst, set)
    }

    #[test]
    fn emulation_tracks_model_losses() {
        let (inst, set) = fig1();
        // A real scheme's feasible decisions.
        let model = flexile_te::mcf::scen_best(&inst, &set);
        let runs = emulate_scheme(&inst, &set, &model, &EmuConfig::default(), 3);
        assert_eq!(runs.len(), 3);
        for r in &runs {
            for f in 0..2 {
                for q in 0..set.scenarios.len() {
                    let diff = (r.loss[f][q] - model.loss[f][q]).abs();
                    assert!(
                        diff < 0.03,
                        "run {} flow {f} scen {q}: emu {} vs model {}",
                        r.name,
                        r.loss[f][q],
                        model.loss[f][q]
                    );
                }
            }
        }
    }

    #[test]
    fn runs_differ_but_slightly() {
        let (inst, set) = fig1();
        let model = flexile_te::mcf::scen_best(&inst, &set);
        let runs = emulate_scheme(&inst, &set, &model, &EmuConfig::default(), 2);
        let a = &runs[0].loss;
        let b = &runs[1].loss;
        let mut max_diff = 0.0f64;
        for f in 0..2 {
            for q in 0..set.scenarios.len() {
                max_diff = max_diff.max((a[f][q] - b[f][q]).abs());
            }
        }
        assert!(max_diff < 0.02, "jitter too large: {max_diff}");
    }

    #[test]
    fn throttled_flows_measure_throttling_as_loss() {
        let (inst, set) = fig1();
        // The scheme throttles flow 0 to half its demand in scenario 0.
        let mut loss = vec![vec![0.0; set.scenarios.len()]; 2];
        loss[0][0] = 0.5;
        let model = SchemeResult::new("m", loss);
        let runs = emulate_scheme(&inst, &set, &model, &EmuConfig::default(), 1);
        assert!(
            (runs[0].loss[0][0] - 0.5).abs() < 0.02,
            "throttling must appear as loss: {}",
            runs[0].loss[0][0]
        );
    }
}
