//! Teavar: CVaR-minimizing TE with static proportional routing (§2, §5).
//!
//! Teavar picks one static split of each pair's demand across its tunnels
//! (fractions `λ_{p,t}`, summing to 1) such that the no-failure state is
//! capacity-feasible. In a failure scenario the traffic on dead tunnels is
//! simply lost (the conservative availability semantics the paper's
//! Proposition-2 analysis of Fig. 3 uses), so pair `i`'s loss is
//! `1 − Σ_t λ_{i,t} y_{tq}`. The design minimizes the *scenario-level*
//! CVaR:
//!
//! ```text
//! min  α + 1/(1−β) Σ_q p_q s_q
//! s.t. s_q ≥ (1 − Σ_t λ_{i,t} y_{tq}) − α   ∀ i, q     (lazy)
//!      Σ_i Σ_{t ∋ arc} d_i λ_{i,t} ≤ c_arc              (intact network)
//!      Σ_t λ_{i,t} = 1,  λ ≥ 0,  s_q ≥ 0,  α ≥ 0
//! ```
//!
//! The `s_q` rows are generated lazily ([`flexile_lp::rowgen`]): only the
//! scenario/pair combinations that actually bind at the optimum are ever
//! materialized, which keeps the basis small even though the full model has
//! `O(|P|·|Q|)` rows — this is why our Teavar still "bundles all the
//! enumerated scenarios in a single problem" (the paper's phrase) without a
//! commercial solver.

use crate::alloc::served_loss;
use crate::types::SchemeResult;
use flexile_lp::{solve_with_rowgen, Model, RowGenOptions, RowSpec, Sense, VarId};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;

/// Teavar's designed routing: `split[p][t]` is the demand fraction of pair
/// `p` on tunnel `t`.
#[derive(Debug, Clone)]
pub struct TeavarDesign {
    /// Demand fractions per pair per tunnel.
    pub split: Vec<Vec<f64>>,
    /// The optimized CVaR value (design-time objective).
    pub cvar: f64,
}

/// Solve the Teavar design LP for a single-class instance at target `beta`.
///
/// Precondition (inherited from Teavar's formulation): the full demand must
/// be routable on the intact network — the per-pair split fractions sum to
/// exactly 1 under the capacity constraints, so an oversubscribed instance
/// (intact MLU > 1) makes the LP infeasible and this function panics.
pub fn teavar_design(inst: &Instance, set: &ScenarioSet, beta: f64) -> TeavarDesign {
    assert_eq!(inst.num_classes(), 1, "Teavar is a single-class scheme");
    let np = inst.num_pairs();
    let mut m = Model::new(Sense::Min);
    let alpha = m.add_var("alpha", 0.0, 1.0, 1.0);
    let s: Vec<VarId> = set
        .scenarios
        .iter()
        .enumerate()
        .map(|(q, scen)| m.add_var(&format!("s_{q}"), 0.0, f64::INFINITY, scen.prob / (1.0 - beta)))
        .collect();
    // Split fractions.
    let mut lambda: Vec<Vec<VarId>> = Vec::with_capacity(np);
    let mut arc_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_arcs()];
    for p in 0..np {
        let tunnels = &inst.tunnels[0].tunnels[p];
        let d = inst.demands[0][p];
        let vars: Vec<VarId> = tunnels
            .iter()
            .enumerate()
            .map(|(t, path)| {
                let v = m.add_var(&format!("l_{p}_{t}"), 0.0, 1.0, 0.0);
                for a in inst.arc_ids(path) {
                    arc_terms[a].push((v, d));
                }
                v
            })
            .collect();
        if !vars.is_empty() && d > 0.0 {
            let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            m.add_row_eq(&coeffs, 1.0);
        }
        lambda.push(vars);
    }
    for (a, terms) in arc_terms.into_iter().enumerate() {
        if !terms.is_empty() {
            m.add_row_le(&terms, inst.arc_capacity(a));
        }
    }

    // Tunnel liveness per scenario, reused by the oracle.
    let dead_masks: Vec<Vec<bool>> = set.scenarios.iter().map(|s| s.dead_mask()).collect();

    let opts = RowGenOptions { max_rounds: 300, rows_per_round: 50 };
    let res = solve_with_rowgen(&mut m, &opts, |sol| {
        let mut rows = Vec::new();
        let a_val = sol.value(alpha);
        for (q, dead) in dead_masks.iter().enumerate() {
            let s_val = sol.value(s[q]);
            for p in 0..np {
                if inst.demands[0][p] <= 0.0 {
                    continue;
                }
                let surviving: f64 = inst.tunnels[0].tunnels[p]
                    .iter()
                    .zip(lambda[p].iter())
                    .filter(|(path, _)| path.alive(dead))
                    .map(|(_, &v)| sol.value(v))
                    .sum();
                let loss = 1.0 - surviving;
                if loss - a_val - s_val > 1e-7 {
                    // s_q + α + Σ_{t alive} λ_{p,t} ≥ 1
                    let mut coeffs: Vec<(VarId, f64)> = vec![(s[q], 1.0), (alpha, 1.0)];
                    for (path, &v) in inst.tunnels[0].tunnels[p].iter().zip(lambda[p].iter()) {
                        if path.alive(dead) {
                            coeffs.push((v, 1.0));
                        }
                    }
                    rows.push(RowSpec::ge(coeffs, 1.0));
                }
            }
        }
        rows
    })
    .expect("Teavar LP solve failed");
    if !res.converged {
        eprintln!(
            "warning: Teavar lazy rows did not converge in {} rounds",
            res.rounds
        );
    }

    let sol = res.solution;
    let split = lambda
        .iter()
        .map(|vars| vars.iter().map(|&v| sol.value(v)).collect())
        .collect();
    TeavarDesign { split, cvar: sol.objective }
}

/// Post-analysis of a Teavar design: the loss of every pair in every
/// scenario under the conservative surviving-allocation semantics. The
/// design reserves `split · d` on each tunnel for the base demand `d`; a
/// scenario serves what its surviving tunnels reserve, against the
/// scenario's scaled demand.
pub fn teavar_losses(inst: &Instance, set: &ScenarioSet, design: &TeavarDesign) -> SchemeResult {
    let np = inst.num_pairs();
    let mut loss = vec![vec![0.0; set.scenarios.len()]; inst.num_flows()];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let dead = scen.dead_mask();
        for p in 0..np {
            let d = inst.demands[0][p];
            let surviving: f64 = inst.tunnels[0].tunnels[p]
                .iter()
                .zip(design.split[p].iter())
                .filter(|(path, _)| path.alive(&dead))
                .map(|(_, &f)| f)
                .sum();
            let alive = inst.tunnels[0].pair_alive(p, &dead);
            loss[p][q] = served_loss(d * scen.demand_factor, alive, surviving * d);
        }
    }
    SchemeResult::new("Teavar", loss)
}

/// Design + post-analysis in one call.
pub fn teavar(inst: &Instance, set: &ScenarioSet, beta: f64) -> SchemeResult {
    let design = teavar_design(inst, set, beta);
    teavar_losses(inst, set, &design)
}

/// The *bundled* Teavar LP: every `s_q ≥ l_iq − α` row materialized up
/// front, exactly as the original Teavar formulation does ("its solving
/// time can be large since it bundles all the enumerated scenarios in a
/// single problem", §6.4). Functionally identical to [`teavar_design`];
/// used by the Fig. 15 timing comparison, where the lazy-row version would
/// understate the cost of the paper's formulation.
pub fn teavar_design_bundled(inst: &Instance, set: &ScenarioSet, beta: f64) -> TeavarDesign {
    assert_eq!(inst.num_classes(), 1, "Teavar is a single-class scheme");
    let np = inst.num_pairs();
    let mut m = Model::new(Sense::Min);
    let alpha = m.add_var("alpha", 0.0, 1.0, 1.0);
    let s: Vec<VarId> = set
        .scenarios
        .iter()
        .enumerate()
        .map(|(q, scen)| m.add_var(&format!("s_{q}"), 0.0, f64::INFINITY, scen.prob / (1.0 - beta)))
        .collect();
    let mut lambda: Vec<Vec<VarId>> = Vec::with_capacity(np);
    let mut arc_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_arcs()];
    for p in 0..np {
        let d = inst.demands[0][p];
        let vars: Vec<VarId> = inst.tunnels[0].tunnels[p]
            .iter()
            .enumerate()
            .map(|(t, path)| {
                let v = m.add_var(&format!("l_{p}_{t}"), 0.0, 1.0, 0.0);
                for a in inst.arc_ids(path) {
                    arc_terms[a].push((v, d));
                }
                v
            })
            .collect();
        if !vars.is_empty() && d > 0.0 {
            let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            m.add_row_eq(&coeffs, 1.0);
        }
        lambda.push(vars);
    }
    for (a, terms) in arc_terms.into_iter().enumerate() {
        if !terms.is_empty() {
            m.add_row_le(&terms, inst.arc_capacity(a));
        }
    }
    // Every (pair, scenario) CVaR row, up front.
    for (q, scen) in set.scenarios.iter().enumerate() {
        let dead = scen.dead_mask();
        for p in 0..np {
            if inst.demands[0][p] <= 0.0 {
                continue;
            }
            let mut coeffs: Vec<(VarId, f64)> = vec![(s[q], 1.0), (alpha, 1.0)];
            for (path, &v) in inst.tunnels[0].tunnels[p].iter().zip(lambda[p].iter()) {
                if path.alive(&dead) {
                    coeffs.push((v, 1.0));
                }
            }
            m.add_row_ge(&coeffs, 1.0);
        }
    }
    let sol = m
        .solve_with(&flexile_lp::SimplexOptions { max_iters: 5_000_000, ..Default::default() }, None)
        .expect("bundled Teavar LP failed");
    let split = lambda
        .iter()
        .map(|vars| vars.iter().map(|&v| sol.value(v)).collect())
        .collect();
    TeavarDesign { split, cvar: sol.objective }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcf::tests::{fig1_instance, fig1_scenarios};
    use flexile_metrics::{perc_loss, LossMatrix};

    #[test]
    fn fig3_teavar_splits_across_two_paths() {
        // On the Fig. 1 triangle at β = 0.99, Teavar splits each flow
        // roughly half/half across its two disjoint paths (Fig. 3) and
        // both flows lose ~0.5 whenever one of their links fails.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let design = teavar_design(&inst, &set, 0.99);
        for p in 0..2 {
            let total: f64 = design.split[p].iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
            // No tunnel should carry everything: the CVaR design hedges.
            let max_frac = design.split[p].iter().cloned().fold(0.0, f64::max);
            assert!(max_frac < 0.95, "pair {p} not hedged: {:?}", design.split[p]);
        }
    }

    #[test]
    fn fig1_teavar_percloss_is_about_half() {
        // Proposition 2: Teavar's PercLoss at 99% on Fig. 1 is ≥ 48%,
        // although the optimum is 0.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let r = teavar(&inst, &set, 0.99);
        let m = LossMatrix::new(r.loss.clone(), set.probs(), set.residual);
        let pl = perc_loss(&m, &[0, 1], 0.99);
        assert!(pl >= 0.45, "Teavar PercLoss {pl} should be ~0.5");
        assert!(pl <= 0.55, "Teavar PercLoss {pl} should be ~0.5");
    }

    #[test]
    fn teavar_capacity_feasible_intact() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let design = teavar_design(&inst, &set, 0.99);
        // Reconstruct per-arc usage in the intact network.
        let mut usage = vec![0.0; inst.num_arcs()];
        for p in 0..2 {
            for (t, path) in inst.tunnels[0].tunnels[p].iter().enumerate() {
                for a in inst.arc_ids(path) {
                    usage[a] += design.split[p][t] * inst.demands[0][p];
                }
            }
        }
        for (a, &u) in usage.iter().enumerate() {
            assert!(u <= inst.arc_capacity(a) + 1e-6, "arc {a} overloaded: {u}");
        }
    }
}
