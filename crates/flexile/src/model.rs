//! The monolithic MIP formulation (I) (§4.1) — the paper's `IP` baseline.
//!
//! Jointly chooses the critical scenarios `z_fq` and the per-scenario
//! routing `x_ktq` to minimize `Σ_k w_k α_k`. Exact but large: the paper
//! itself can only solve it on smaller topologies (Fig. 15 shows `IP`
//! timing out at one hour beyond ~85 links); we use it the same way, as
//! the ground truth for the optimality-gap experiment (Fig. 14).

use flexile_lp::{solve_mip, MipOptions, MipStatus, Model, Sense, VarId};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;

/// Result of solving formulation (I).
#[derive(Debug, Clone)]
pub struct IpResult {
    /// Objective `Σ_k w_k α_k` of the best incumbent.
    pub penalty: f64,
    /// Proven lower bound (equals `penalty` when `optimal`).
    pub bound: f64,
    /// Whether optimality was proven within the budget.
    pub optimal: bool,
    /// Critical-scenario assignment of the incumbent.
    pub critical: Vec<Vec<bool>>,
}

/// Build formulation (I): the model and its `z[f][q]` columns (`None`
/// where flow `f` is disconnected in scenario `q`).
fn ip_model(inst: &Instance, set: &ScenarioSet) -> (Model, Vec<Vec<Option<VarId>>>) {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    let betas = crate::effective_betas(inst, set);

    let mut m = Model::new(Sense::Min);
    let alpha: Vec<VarId> = inst
        .classes
        .iter()
        .enumerate()
        .map(|(k, c)| m.add_var(&format!("alpha_{k}"), 0.0, 1.0, c.weight))
        .collect();

    // z and l per (flow, scenario); z only where the flow is connected.
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
                // (4): alpha_k - l_fq - z_fq >= -1
                m.add_row_ge(&[(alpha[k], 1.0), (lv, -1.0), (zv, -1.0)], -1.0);
            }
        }
    }
    // (3) coverage, capped at the connectable mass.
    for f in 0..nf {
        let k = inst.flow_class(f);
        let coeffs: Vec<(VarId, f64)> = (0..nq)
            .filter_map(|q| z[f][q].map(|v| (v, set.scenarios[q].prob)))
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        let avail: f64 = coeffs.iter().map(|c| c.1).sum();
        m.add_row_ge(&coeffs, betas[k].min(avail));
    }
    // Per-scenario routing blocks: (17)-style demand rows + (18) capacity.
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
            if !terms.is_empty() {
                let cap = inst.arc_capacity(a) * scen.cap_factor[inst.arc_link(a)];
                m.add_row_le(&terms, cap);
            }
        }
    }
    (m, z)
}

/// Solve formulation (I) exactly, within the node and time budget of
/// `opts` (the paper caps the IP at one hour).
pub fn solve_ip(inst: &Instance, set: &ScenarioSet, opts: &MipOptions) -> IpResult {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    let (m, z) = ip_model(inst, set);
    let r = solve_mip(&m, opts).expect("IP solve failed");
    let mut critical = vec![vec![false; nq]; nf];
    if !r.x.is_empty() {
        for f in 0..nf {
            for q in 0..nq {
                if let Some(v) = z[f][q] {
                    critical[f][q] = r.x[v.index()] > 0.5;
                }
            }
        }
    }
    IpResult {
        penalty: if r.x.is_empty() { f64::NAN } else { r.objective },
        bound: r.bound,
        optimal: r.status == MipStatus::Optimal,
        critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::{solve_flexile, FlexileOptions};
    use crate::subproblem::tests::{fig1_instance, fig1_scenarios};

    fn fig1_beta99() -> Instance {
        let mut inst = fig1_instance();
        inst.classes[0].beta = 0.99;
        inst
    }

    #[test]
    fn ip_finds_zero_penalty_on_fig1() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let r = solve_ip(&inst, &set, &MipOptions::default());
        assert!(r.optimal, "IP should prove optimality on the triangle");
        assert!(r.penalty < 1e-6, "IP penalty {}", r.penalty);
    }

    #[test]
    fn ip_matches_brute_force() {
        let mut inst = fig1_instance();
        for beta in [0.99, 0.995] {
            inst.classes[0].beta = beta;
            let (m, _) = ip_model(&inst, &fig1_scenarios());
            crate::mip_oracle::assert_solve_mip_matches(&m);
        }
    }

    #[test]
    fn decomposition_matches_ip_optimum() {
        // Fig. 14's claim: the decomposition reaches the IP optimum within
        // 5 iterations.
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let ip = solve_ip(&inst, &set, &MipOptions::default());
        let dec = solve_flexile(&inst, &set, &FlexileOptions::default());
        assert!(
            (dec.penalty - ip.penalty).abs() < 1e-6,
            "decomposition {} vs IP {}",
            dec.penalty,
            ip.penalty
        );
    }
}
