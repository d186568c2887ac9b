//! FFC — Forward Fault Correction (§2's representative congestion-free
//! local mechanism).
//!
//! FFC conservatively admits traffic so that, for *every* scenario with at
//! most `f` simultaneous link failures, the admitted bandwidth of each flow
//! still fits the surviving tunnels without congestion. On failure the
//! network only rescales proportionally on live tunnels; no global
//! re-optimization happens. Teavar (§2) generalizes exactly this scheme
//! with failure probabilities.
//!
//! Design LP (per the FFC paper, conservative surviving-allocation form):
//!
//! ```text
//! max Σ_p b_p                      (admitted bandwidth, capped by demand)
//! s.t. b_p ≤ Σ_{t alive in s} x_{p,t}    ∀ scenarios s with |s| ≤ f  (lazy)
//!      Σ_{p,t ∋ arc} x_{p,t} ≤ c_arc     (intact capacities)
//!      0 ≤ b_p ≤ d_p,  x ≥ 0
//! ```
//!
//! The protection constraints are generated lazily; for `f = 1` only
//! `|E| + 1` scenarios exist, and larger `f` still activates only the
//! binding ones.
//!
//! Post-analysis: in an arbitrary scenario `q` (which may exceed `f`
//! failures), flow `p` receives `min(b_p, Σ_{t alive in q} x_{p,t})` — its
//! admitted rate if the scenario was protected against, less otherwise.

use crate::types::{clamp_loss, SchemeResult};
use flexile_lp::{solve_with_rowgen, Model, RowGenOptions, RowSpec, Sense, VarId};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;

/// An FFC design: admitted bandwidth and tunnel allocations.
#[derive(Debug, Clone)]
pub struct FfcDesign {
    /// Admitted bandwidth per pair (`b_p`).
    pub admitted: Vec<f64>,
    /// Tunnel allocations `x[p][t]`.
    pub x: Vec<Vec<f64>>,
    /// The protection level `f` designed for.
    pub protection: usize,
}

/// Solve the FFC design LP for protection level `f` (single class).
pub fn ffc_design(inst: &Instance, f: usize) -> FfcDesign {
    assert_eq!(inst.num_classes(), 1, "FFC is a single-class scheme");
    let np = inst.num_pairs();
    let nl = inst.topo.num_links();
    let mut m = Model::new(Sense::Max);
    let b: Vec<VarId> = (0..np)
        .map(|p| m.add_var(&format!("b_{p}"), 0.0, inst.demands[0][p].max(0.0), 1.0))
        .collect();
    let mut x: Vec<Vec<VarId>> = Vec::with_capacity(np);
    let mut arc_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_arcs()];
    for p in 0..np {
        let vars: Vec<VarId> = inst.tunnels[0].tunnels[p]
            .iter()
            .enumerate()
            .map(|(t, path)| {
                let v = m.add_var(&format!("x_{p}_{t}"), 0.0, f64::INFINITY, 0.0);
                for a in inst.arc_ids(path) {
                    arc_terms[a].push((v, 1.0));
                }
                v
            })
            .collect();
        x.push(vars);
    }
    for (a, terms) in arc_terms.into_iter().enumerate() {
        if !terms.is_empty() {
            m.add_row_le(&terms, inst.arc_capacity(a));
        }
    }

    // Lazy protection constraints over failure sets of size ≤ f. For each
    // flow the oracle finds the failure set killing the most surviving
    // allocation: exhaustively over the flow's own used links when that
    // set is small (exact — tunnels share links, so independent top-f is
    // not), falling back to greedy top-f for pathological tunnel counts.
    let protection = f;
    let res = solve_with_rowgen(
        &mut m,
        &RowGenOptions { max_rounds: 200, rows_per_round: 100 },
        |sol| {
            let mut rows = Vec::new();
            for p in 0..np {
                let bp = sol.value(b[p]);
                if bp <= 1e-9 {
                    continue;
                }
                // Allocation lost per failed link for this flow.
                let mut lost = vec![0.0f64; nl];
                for (t, path) in inst.tunnels[0].tunnels[p].iter().enumerate() {
                    let amt = sol.value(x[p][t]);
                    if amt <= 0.0 {
                        continue;
                    }
                    for &l in &path.links {
                        lost[l.index()] += amt;
                    }
                }
                // Links this flow actually uses (only those matter to its
                // protection constraint).
                let used: Vec<usize> =
                    (0..nl).filter(|&l| lost[l] > 1e-12).collect();
                let survive_given = |failed: &[usize]| -> f64 {
                    inst.tunnels[0].tunnels[p]
                        .iter()
                        .enumerate()
                        .filter(|(_, path)| {
                            !path.links.iter().any(|l| failed.contains(&l.index()))
                        })
                        .map(|(t, _)| sol.value(x[p][t]))
                        .sum()
                };
                // Worst failure set of size ≤ f: exact enumeration over the
                // used links when cheap, greedy top-lost otherwise.
                let failed: Vec<usize> = if protection == 0 {
                    Vec::new()
                } else if used.len() <= 14 && protection <= 3 {
                    let mut best: (f64, Vec<usize>) = (f64::INFINITY, Vec::new());
                    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
                    while let Some(set) = stack.pop() {
                        if !set.is_empty() {
                            let s = survive_given(&set);
                            if s < best.0 {
                                best = (s, set.clone());
                            }
                        }
                        if set.len() < protection {
                            let start = set.last().map_or(0, |&l| {
                                used.iter().position(|&u| u == l).unwrap() + 1
                            });
                            for &u in &used[start..] {
                                let mut next = set.clone();
                                next.push(u);
                                stack.push(next);
                            }
                        }
                    }
                    best.1
                } else {
                    let mut order = used.clone();
                    order.sort_by(|&i, &j| lost[j].partial_cmp(&lost[i]).unwrap());
                    order.into_iter().take(protection).collect()
                };
                let surviving = survive_given(&failed);
                if bp > surviving + 1e-7 {
                    // b_p − Σ_{t survives} x_{p,t} ≤ 0
                    let mut coeffs: Vec<(VarId, f64)> = vec![(b[p], 1.0)];
                    for (t, path) in inst.tunnels[0].tunnels[p].iter().enumerate() {
                        if !path.links.iter().any(|l| failed.contains(&l.index())) {
                            coeffs.push((x[p][t], -1.0));
                        }
                    }
                    rows.push(RowSpec::le(coeffs, 0.0));
                }
            }
            rows
        },
    )
    .expect("FFC LP failed");

    let sol = res.solution;
    FfcDesign {
        admitted: b.iter().map(|&v| sol.value(v)).collect(),
        x: x.iter().map(|vs| vs.iter().map(|&v| sol.value(v)).collect()).collect(),
        protection: f,
    }
}

/// Post-analysis of an FFC design over a scenario set.
pub fn ffc_losses(inst: &Instance, set: &ScenarioSet, design: &FfcDesign) -> SchemeResult {
    let np = inst.num_pairs();
    let mut loss = vec![vec![0.0; set.scenarios.len()]; inst.num_flows()];
    for (q, scen) in set.scenarios.iter().enumerate() {
        let dead = scen.dead_mask();
        for p in 0..np {
            let d = inst.demands[0][p];
            if d <= 0.0 {
                continue;
            }
            let surviving: f64 = inst.tunnels[0].tunnels[p]
                .iter()
                .enumerate()
                .filter(|(_, path)| path.alive(&dead))
                .map(|(t, _)| design.x[p][t])
                .sum();
            let served = design.admitted[p].min(surviving);
            loss[p][q] = clamp_loss(1.0 - served / d);
        }
    }
    SchemeResult::new(&format!("FFC-{}", design.protection), loss)
}

/// Design + post-analysis in one call.
pub fn ffc(inst: &Instance, set: &ScenarioSet, f: usize) -> SchemeResult {
    let design = ffc_design(inst, f);
    ffc_losses(inst, set, &design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcf::tests::{fig1_instance, fig1_scenarios};

    #[test]
    fn ffc0_admits_everything_feasible() {
        // f = 0: no protection, plain multicommodity admission.
        let inst = fig1_instance();
        let d = ffc_design(&inst, 0);
        let total: f64 = d.admitted.iter().sum();
        assert!((total - 2.0).abs() < 1e-6, "admitted {total}");
    }

    #[test]
    fn ffc1_is_conservative_on_fig1() {
        // With f = 1 protected bandwidth must be duplicated across
        // disjoint paths, halving the usable capacity: total admitted
        // traffic cannot exceed 1 (vs 2 unprotected).
        let inst = fig1_instance();
        let d = ffc_design(&inst, 1);
        let total: f64 = d.admitted.iter().sum();
        assert!(total <= 1.0 + 1e-6, "total admitted {total} exceeds protected capacity");
        // Protection is real: killing any single link leaves enough.
        for l in 0..3 {
            for p in 0..2 {
                let surviving: f64 = inst.tunnels[0].tunnels[p]
                    .iter()
                    .enumerate()
                    .filter(|(_, path)| !path.links.iter().any(|x| x.index() == l))
                    .map(|(t, _)| d.x[p][t])
                    .sum();
                assert!(
                    surviving + 1e-6 >= d.admitted[p],
                    "pair {p} unprotected against link {l}"
                );
            }
        }
    }

    #[test]
    fn ffc_losses_match_guarantee() {
        // In every single-failure scenario the admitted bandwidth flows.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let design = ffc_design(&inst, 1);
        let r = ffc_losses(&inst, &set, &design);
        for (q, scen) in set.scenarios.iter().enumerate() {
            if scen.failed_units.len() > 1 {
                continue;
            }
            for p in 0..2 {
                let d = inst.demands[0][p];
                let promised = 1.0 - design.admitted[p] / d;
                assert!(
                    r.loss[p][q] <= promised + 1e-6,
                    "scenario {q} pair {p}: loss {} exceeds promised {}",
                    r.loss[p][q],
                    promised
                );
            }
        }
    }

    #[test]
    fn higher_protection_admits_less() {
        let inst = fig1_instance();
        let a0: f64 = ffc_design(&inst, 0).admitted.iter().sum();
        let a1: f64 = ffc_design(&inst, 1).admitted.iter().sum();
        let a2: f64 = ffc_design(&inst, 2).admitted.iter().sum();
        assert!(a1 <= a0 + 1e-9);
        assert!(a2 <= a1 + 1e-9);
    }
}
