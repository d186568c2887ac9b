//! Minimum-cost capacity augmentation to meet flow percentile targets
//! (§4.4 and appendix D).
//!
//! Instead of minimizing PercLoss on a fixed network, constrain each class
//! to `PercLoss_k ≤ target_k` and minimize `Σ_e w_e δ_e`, where `δ_e` is
//! capacity added to link `e`. The §3 example shows why this matters:
//! ScenBest/Teavar need every Fig.-1 link doubled to meet the 99% objective
//! while Flexile needs no augmentation at all.
//!
//! The implementation augments the monolithic formulation (I), so it is
//! exact but sized for small design studies (the paper positions it as a
//! planning generalization, not a per-failure operation). An optional fixed
//! cost per augmented link turns the model into the appendix's fixed-charge
//! variant with indicator binaries.

use flexile_lp::{solve_mip, MipOptions, MipStatus, Model, Sense, VarId};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::time::Duration;

/// Cost model for augmentation.
#[derive(Debug, Clone)]
pub struct AugmentCost {
    /// Per-unit capacity cost per link (defaults to 1.0 for every link).
    pub unit: Vec<f64>,
    /// Optional fixed charge applied to every augmented link.
    pub fixed: Option<f64>,
    /// Upper bound on the augmentation of one link (multiples of its
    /// base capacity).
    pub max_multiple: f64,
}

impl AugmentCost {
    /// Uniform unit costs, no fixed charge.
    pub fn uniform(num_links: usize) -> Self {
        AugmentCost { unit: vec![1.0; num_links], fixed: None, max_multiple: 4.0 }
    }
}

/// Result of the augmentation study.
#[derive(Debug, Clone)]
pub struct AugmentResult {
    /// Added capacity per link.
    pub delta: Vec<f64>,
    /// Total cost.
    pub cost: f64,
    /// Whether the MIP proved optimality.
    pub optimal: bool,
}

/// Build the augmentation MIP and its `δ` columns; `None` when some flow
/// cannot be connected often enough even at the augmentation cap.
fn augment_model(
    inst: &Instance,
    set: &ScenarioSet,
    targets: &[f64],
    cost: &AugmentCost,
) -> Option<(Model, Vec<VarId>)> {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    let betas = crate::effective_betas(inst, set);

    let mut m = Model::new(Sense::Min);
    // δ per link; fixed-charge indicators when requested.
    let delta: Vec<VarId> = inst
        .topo
        .links()
        .map(|(id, link)| {
            m.add_var(
                &format!("delta_{}", id.index()),
                0.0,
                cost.max_multiple * link.capacity,
                cost.unit[id.index()],
            )
        })
        .collect();
    if let Some(fc) = cost.fixed {
        for (id, link) in inst.topo.links() {
            let a = m.add_binary(&format!("aug_{}", id.index()), fc);
            // delta_e <= ub * a_e
            m.add_row_le(
                &[(delta[id.index()], 1.0), (a, -cost.max_multiple * link.capacity)],
                0.0,
            );
        }
    }

    // z / l / α with α fixed to the targets via bounds.
    let alpha: Vec<VarId> = targets
        .iter()
        .enumerate()
        .map(|(k, &t)| m.add_var(&format!("alpha_{k}"), 0.0, t.clamp(0.0, 1.0), 0.0))
        .collect();
    let mut z: Vec<Vec<Option<VarId>>> = vec![vec![None; nq]; nf];
    let mut l: Vec<Vec<VarId>> = vec![Vec::with_capacity(nq); nf];
    for f in 0..nf {
        let k = inst.flow_class(f);
        let p = inst.flow_pair(f);
        for (q, scen) in set.scenarios.iter().enumerate() {
            let lv = m.add_var(&format!("l_{f}_{q}"), 0.0, 1.0, 0.0);
            l[f].push(lv);
            if inst.tunnels[k].pair_alive(p, &scen.dead_mask()) {
                let zv = m.add_binary(&format!("z_{f}_{q}"), 0.0);
                z[f][q] = Some(zv);
                m.add_row_ge(&[(alpha[k], 1.0), (lv, -1.0), (zv, -1.0)], -1.0);
            }
        }
    }
    for f in 0..nf {
        let k = inst.flow_class(f);
        let coeffs: Vec<(VarId, f64)> = (0..nq)
            .filter_map(|q| z[f][q].map(|v| (v, set.scenarios[q].prob)))
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        let avail: f64 = coeffs.iter().map(|c| c.1).sum();
        if avail + 1e-12 < betas[k] {
            // Even full augmentation cannot connect the flow often enough.
            return None;
        }
        m.add_row_ge(&coeffs, betas[k]);
    }
    // Routing blocks with augmentable capacity:
    // Σ x − factor · δ_link ≤ c · factor.
    for (q, scen) in set.scenarios.iter().enumerate() {
        let mut arc_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_arcs()];
        for k in 0..inst.num_classes() {
            for p in 0..inst.num_pairs() {
                let f = inst.flow_index(k, p);
                let d = inst.demands[k][p];
                if d <= 0.0 {
                    continue;
                }
                let mut coeffs: Vec<(VarId, f64)> = Vec::new();
                for (t, path) in inst.tunnels[k].tunnels[p].iter().enumerate() {
                    let v = m.add_var(&format!("x_{k}_{p}_{t}_{q}"), 0.0, f64::INFINITY, 0.0);
                    for a in inst.arc_ids(path) {
                        arc_terms[a].push((v, 1.0));
                    }
                    coeffs.push((v, 1.0));
                }
                coeffs.push((l[f][q], d));
                m.add_row_ge(&coeffs, d);
            }
        }
        for (a, terms) in arc_terms.into_iter().enumerate() {
            if terms.is_empty() {
                continue;
            }
            let link = inst.arc_link(a);
            let factor = scen.cap_factor[link];
            let mut coeffs = terms;
            if factor > 0.0 {
                coeffs.push((delta[link], -factor));
            }
            m.add_row_le(&coeffs, inst.arc_capacity(a) * factor);
        }
    }
    Some((m, delta))
}

/// Find the cheapest capacity augmentation such that every class `k` can
/// achieve `PercLoss_k ≤ targets[k]`. Returns `None` when infeasible even
/// at the augmentation cap.
pub fn augment_capacity(
    inst: &Instance,
    set: &ScenarioSet,
    targets: &[f64],
    cost: &AugmentCost,
    time_limit: Duration,
) -> Option<AugmentResult> {
    assert_eq!(targets.len(), inst.num_classes());
    assert_eq!(cost.unit.len(), inst.topo.num_links());
    let (m, delta) = augment_model(inst, set, targets, cost)?;
    let r = solve_mip(
        &m,
        &MipOptions { max_nodes: 20_000, time_limit, ..MipOptions::default() },
    )
    .ok()?;
    if r.x.is_empty() || r.status == MipStatus::Infeasible {
        return None;
    }
    let d: Vec<f64> = delta.iter().map(|&v| r.x[v.index()].max(0.0)).collect();
    Some(AugmentResult { delta: d, cost: r.objective, optimal: r.status == MipStatus::Optimal })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subproblem::tests::{fig1_instance, fig1_scenarios};

    #[test]
    fn fig1_needs_no_augmentation_for_flexile() {
        // §3: to meet the 99% one-unit objective, Flexile's flexible
        // criticality needs zero extra capacity on the Fig. 1 triangle.
        let mut inst = fig1_instance();
        inst.classes[0].beta = 0.99;
        let set = fig1_scenarios();
        let r = augment_capacity(
            &inst,
            &set,
            &[0.0],
            &AugmentCost::uniform(3),
            Duration::from_secs(30),
        )
        .expect("augmentation model should be feasible");
        assert!(r.cost < 1e-6, "no augmentation needed, got cost {}", r.cost);
    }

    #[test]
    fn tighter_beta_requires_augmentation() {
        // At β = 0.995 every single-failure scenario must be critical for
        // both flows (no subset of two singles reaches 0.995), so both
        // flows contend for the same links and capacity must grow.
        let mut inst = fig1_instance();
        inst.classes[0].beta = 0.995;
        let set = fig1_scenarios();
        let r = augment_capacity(
            &inst,
            &set,
            &[0.0],
            &AugmentCost::uniform(3),
            Duration::from_secs(60),
        )
        .expect("feasible with augmentation");
        assert!(r.cost > 0.1, "expected positive augmentation, got {}", r.cost);
    }

    #[test]
    fn fixed_charge_augmentation_matches_brute_force() {
        // The β = 0.995 case with a fixed charge per augmented link, over
        // the no-failure and single-failure scenarios.
        let mut inst = fig1_instance();
        inst.classes[0].beta = 0.995;
        let mut set = fig1_scenarios();
        set.scenarios.truncate(4);
        let cost = AugmentCost { fixed: Some(0.5), ..AugmentCost::uniform(3) };
        let (m, _) = augment_model(&inst, &set, &[0.0], &cost).expect("connectable");
        crate::mip_oracle::assert_solve_mip_matches(&m);
    }

    #[test]
    fn impossible_connectivity_is_none() {
        // Target beyond any augmentation: β larger than the connected mass.
        let mut inst = fig1_instance();
        inst.classes[0].beta = 0.9999999;
        let set = fig1_scenarios();
        // With only 8 enumerated scenarios the connectable mass caps out;
        // requesting more coverage than exists must return None... the
        // all-scenarios mass is 1.0 here, so instead drop scenarios:
        let mut small = set.clone();
        small.scenarios.truncate(1); // only the no-failure state (p≈0.97)
        let r = augment_capacity(
            &inst,
            &small,
            &[0.0],
            &AugmentCost::uniform(3),
            Duration::from_secs(10),
        );
        assert!(r.is_none());
    }
}
