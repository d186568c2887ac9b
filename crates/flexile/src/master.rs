//! The decomposition master problem (M) (§4.2).
//!
//! Given the cuts learned so far, the master proposes the next criticality
//! assignment `z`:
//!
//! ```text
//! min  Penalty
//! s.t. Penalty ≥ g_q(z_{·q})        for every stored cut, per scenario (19)
//!      Σ_q p_q z_fq ≥ β_k           coverage per flow (3)
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
//!   the cheapest scenarios (by cut pressure, then probability, then the
//!   relaxation's value) until the coverage constraint holds. Nothing
//!   improves the rounded `z` afterwards. This is the documented
//!   substitution for a commercial MIP solver on large instances; Fig. 14's
//!   optimality-gap experiment measures the end-to-end effect.
//!
//! The LP relaxation holds only the columns a cut can price. A column
//! `z_fq` that no stored cut of `q` prices (every `w_f ≤ PRICE_TOL`) has
//! zero cost, and its only coefficient is a positive one in flow `f`'s
//! coverage row. So `z_fq = 1` is optimal, and the relaxation fixes it
//! there: its probability is credited to the coverage row, whose target
//! becomes `min(β_k, Σ_allowed p_q)` minus the fixed mass (the row goes
//! when that is ≤ 0). Perfect scenarios never carry a cut, so on wide
//! inputs nearly every column is fixed this way. The exact mode keeps
//! every column.
//!
//! The paper's optional Hamming-distance stabilizer (23), which bounds how
//! far `z` may move per iteration, is not implemented: on the benchmark
//! workloads no limit lowered a penalty, and on the exact-mode one small
//! limits raised it or slowed the design (EXPERIMENTS.md).

use crate::subproblem::Cut;
use flexile_lp::{solve_mip, solve_robust, MipOptions, Model, Sense, SimplexOptions, VarId};
use flexile_scenario::ScenarioSet;
use flexile_traffic::Instance;
use std::time::Duration;

/// A cut prices `z_fq` when its `w_f` exceeds this; the cut rows drop
/// smaller duals, and a column no cut prices is fixed at 1 in the LP
/// relaxation.
const PRICE_TOL: f64 = 1e-12;

/// Cuts stored per scenario (each `solve` of `S_q` appends one).
#[derive(Debug, Default, Clone)]
pub struct CutPool {
    /// `cuts[q]` holds the cuts generated from scenario `q`.
    cuts: Vec<Vec<Cut>>,
    /// `pressure[q][f]`: the largest `w_f` among scenario `q`'s cuts, the
    /// cost pressure of marking `(f, q)` critical. Empty until `q` has a
    /// cut, which reads as 0 for every flow.
    pressure: Vec<Vec<f64>>,
}

impl CutPool {
    /// Empty pool for `nq` scenarios.
    pub fn new(nq: usize) -> Self {
        CutPool { cuts: vec![Vec::new(); nq], pressure: vec![Vec::new(); nq] }
    }

    /// Pool holding `cuts[q]` for each scenario `q` (a checkpoint's cuts).
    pub(crate) fn from_cuts(cuts: Vec<Vec<Cut>>) -> Self {
        let mut pool = CutPool::new(cuts.len());
        for (q, scenario_cuts) in cuts.into_iter().enumerate() {
            for cut in scenario_cuts {
                pool.push(q, cut);
            }
        }
        pool
    }

    /// Add a cut learned from scenario `q`.
    pub fn push(&mut self, q: usize, cut: Cut) {
        let pressure = &mut self.pressure[q];
        if pressure.is_empty() {
            pressure.resize(cut.w.len(), 0.0);
        }
        for (p, &w) in pressure.iter_mut().zip(&cut.w) {
            *p = p.max(w);
        }
        self.cuts[q].push(cut);
    }

    /// The stored cuts, `cuts()[q]` from scenario `q`.
    pub(crate) fn cuts(&self) -> &[Vec<Cut>] {
        &self.cuts
    }

    /// Cut pressure of `(f, q)`: the largest `w_f` among scenario `q`'s
    /// cuts, 0 when it has none.
    fn pressure(&self, f: usize, q: usize) -> f64 {
        self.pressure[q].get(f).copied().unwrap_or(0.0)
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
    /// Use exact branch-and-bound when `|F|·|Q| ≤ exact_threshold`.
    pub exact_threshold: usize,
    /// Branch-and-bound budget for the exact mode.
    pub mip_time_limit: Duration,
}

impl Default for MasterOptions {
    fn default() -> Self {
        MasterOptions { exact_threshold: 600, mip_time_limit: Duration::from_secs(20) }
    }
}

/// Build the master model: `penalty` and the `z[f][q]` columns under the
/// coverage and cut rows. When `exact`, every allowed `z` is a binary
/// column. Otherwise the columns are in `[0, 1]`, and an allowed `z` that
/// no cut prices is fixed at 1 and left out (module docs). `None` marks a
/// `z` that is not `allowed` or is fixed.
pub(crate) fn master_model(
    inst: &Instance,
    set: &ScenarioSet,
    pool: &CutPool,
    allowed: &[Vec<bool>],
    betas: &[f64],
    exact: bool,
) -> (Model, Vec<Vec<Option<VarId>>>) {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();

    let mut m = Model::new(Sense::Min);
    let penalty = m.add_var("penalty", 0.0, f64::INFINITY, 1.0);
    let mut z: Vec<Vec<Option<VarId>>> = vec![vec![None; nq]; nf];
    for f in 0..nf {
        for q in 0..nq {
            if !allowed[f][q] {
                continue;
            }
            if exact {
                z[f][q] = Some(m.add_binary("z", 0.0));
            } else if pool.pressure(f, q) > PRICE_TOL {
                z[f][q] = Some(m.add_var("z", 0.0, 1.0, 0.0));
            }
        }
    }
    // Coverage (3), with the fixed columns' mass credited.
    for f in 0..nf {
        let k = inst.flow_class(f);
        let mut coeffs: Vec<(VarId, f64)> = Vec::new();
        let (mut reachable, mut fixed) = (0.0, 0.0);
        for q in (0..nq).filter(|&q| allowed[f][q]) {
            let p = set.scenarios[q].prob;
            reachable += p;
            match z[f][q] {
                Some(v) => coeffs.push((v, p)),
                None => fixed += p,
            }
        }
        // No row when the coverage is unreachable (the flow is never
        // connected) or the fixed columns already meet it.
        let target = betas[k].min(reachable) - fixed;
        if coeffs.is_empty() || (fixed > 0.0 && target <= 0.0) {
            continue;
        }
        m.add_row_ge(&coeffs, target);
    }
    // Cut rows (19): Penalty ≥ g_q(z_{·q}). A column a cut prices is never
    // fixed, so every fixed column's `w_f` is dropped here anyway.
    for q in 0..nq {
        if pool.cuts[q].is_empty() {
            continue;
        }
        let s = &set.scenarios[q];
        let cap_arc: Vec<f64> = (0..inst.num_arcs())
            .map(|a| inst.arc_capacity(a) * s.cap_factor[inst.arc_link(a)])
            .collect();
        for cut in &pool.cuts[q] {
            // g = d_const + Σ_f w_f (z_fq − 1) + Σ_a u_a cap_a(q)
            let mut constant = cut.d_const;
            for (&u, &c) in cut.u.iter().zip(cap_arc.iter()) {
                constant += u * c;
            }
            let mut coeffs: Vec<(VarId, f64)> = vec![(penalty, 1.0)];
            for f in 0..nf {
                let w = cut.w[f];
                if w <= PRICE_TOL {
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
    (m, z)
}

/// Solve the master problem: returns the proposed `z[f][q]` and the master
/// lower bound on the penalty.
///
/// `allowed[f][q]` marks (connected) flow/scenario combinations that may be
/// critical; `betas[k]` are the per-class coverage targets.
pub fn solve_master(
    inst: &Instance,
    set: &ScenarioSet,
    pool: &CutPool,
    allowed: &[Vec<bool>],
    betas: &[f64],
    opts: &MasterOptions,
) -> (Vec<Vec<bool>>, f64) {
    let nf = inst.num_flows();
    let nq = set.scenarios.len();
    let exact = nf * nq <= opts.exact_threshold;

    let (m, z) = master_model(inst, set, pool, allowed, betas, exact);

    if exact {
        let mip_opts = MipOptions {
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
    // zero relaxation, fixed columns still at 1 (pressure + probability
    // ordering still applies).
    let sol = solve_robust(&m, &SimplexOptions::default(), None).result.ok();
    let lb = sol.as_ref().map_or(0.0, |s| s.objective.max(0.0));
    // The relaxation's value of an allowed `z`; a fixed column is at 1.
    let frac = |f: usize, q: usize| -> f64 {
        match z[f][q] {
            Some(v) => sol.as_ref().map_or(0.0, |s| s.value(v)),
            None => 1.0,
        }
    };

    let mut out = vec![vec![false; nq]; nf];
    let mut cands: Vec<(f64, f64, f64, usize)> = Vec::new();
    for f in 0..nf {
        let k = inst.flow_class(f);
        // Greedy: low cut pressure first, then high probability, then high
        // fractional value from the relaxation.
        cands.clear();
        cands.extend(
            (0..nq)
                .filter(|&q| allowed[f][q])
                .map(|q| (pool.pressure(f, q), -set.scenarios[q].prob, -frac(f, q), q)),
        );
        cands.sort_by(|a, b| {
            (a.0, a.1, a.2).partial_cmp(&(b.0, b.1, b.2)).unwrap_or(std::cmp::Ordering::Equal)
        });
        let target: f64 = betas[k].min(cands.iter().map(|c| set.scenarios[c.3].prob).sum());
        let mut acc = 0.0;
        for &(.., q) in &cands {
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
pub(crate) mod tests {
    use super::*;
    use crate::subproblem::tests::{fig1_instance, fig1_scenarios};
    use crate::subproblem::SubproblemTemplate;
    use flexile_lp::LpError;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fig. 1 after one round of cuts with every flow critical.
    fn fig1_round_one() -> (Instance, ScenarioSet, CutPool) {
        let inst = fig1_instance();
        let set = fig1_scenarios();
        let mut pool = CutPool::new(set.scenarios.len());
        let mut t = SubproblemTemplate::new(&inst, None);
        let mut warm = None;
        for (q, scen) in set.scenarios.iter().enumerate() {
            let (sol, _) = t.solve_with_stats(&inst, scen, &[true, true], &mut warm).unwrap();
            pool.push(q, sol.cut);
        }
        (inst, set, pool)
    }

    /// Oracle for the LP-relaxation master: the model `solve_master`
    /// relaxes, which holds only the priced columns, has the bound of the
    /// full relaxation (the exact-mode model with its binaries relaxed),
    /// or both are infeasible. Returns how many allowed columns the
    /// reduced model fixed.
    pub(crate) fn assert_reduced_bound_matches(
        inst: &Instance,
        set: &ScenarioSet,
        pool: &CutPool,
        allowed: &[Vec<bool>],
        betas: &[f64],
    ) -> usize {
        let (full, _) = master_model(inst, set, pool, allowed, betas, true);
        let (reduced, z) = master_model(inst, set, pool, allowed, betas, false);
        match (full.solve(), reduced.solve()) {
            (Ok(a), Ok(b)) => assert!(
                (a.objective - b.objective).abs() <= 1e-9 * a.objective.abs().max(1.0),
                "full relaxation {} vs reduced {}",
                a.objective,
                b.objective
            ),
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
            (a, b) => panic!(
                "full relaxation {:?} vs reduced {:?}",
                a.map(|s| s.objective),
                b.map(|s| s.objective)
            ),
        }
        let kept = z.iter().flatten().filter(|v| v.is_some()).count();
        let allowed_cols = allowed.iter().flatten().filter(|&&a| a).count();
        allowed_cols - kept
    }

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
        let (inst, set, pool) = fig1_round_one();
        let allowed = connected_matrix(&inst, &set);
        let (z, bound) =
            solve_master(&inst, &set, &pool, &allowed, &[0.99], &MasterOptions::default());
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
        // Fig. 1 after one round of cuts with every flow critical.
        let (inst, set, pool) = fig1_round_one();
        let allowed = connected_matrix(&inst, &set);
        let (m, _) = master_model(&inst, &set, &pool, &allowed, &[0.995], true);
        assert!(m.has_integers());
        crate::mip_oracle::assert_solve_mip_matches(&m);
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
        let (z, _) =
            solve_master(&inst, &set, &pool, &allowed, &[0.999], &MasterOptions::default());
        assert!(z[0][0] && z[1][0]);
    }

    #[test]
    fn reduced_relaxation_keeps_the_bound_on_fig1() {
        let (inst, set, pool) = fig1_round_one();
        let allowed = connected_matrix(&inst, &set);
        let mut fixed = 0;
        for beta in [0.9, 0.99, 0.995] {
            fixed += assert_reduced_bound_matches(&inst, &set, &pool, &allowed, &[beta]);
        }
        assert!(fixed > 0, "no column was fixed: the reduction went untested");
    }

    /// Sprint at 8 pairs over its 12 most likely single- and double-link
    /// failure scenarios.
    fn sprint8() -> (Instance, ScenarioSet, Vec<Vec<bool>>) {
        let topo = flexile_topo::topology_by_name("Sprint").expect("Sprint is in the zoo");
        let units = flexile_scenario::model::link_units(&topo, &vec![0.01; topo.num_links()]);
        let set = flexile_scenario::enumerate_scenarios(
            &units,
            topo.num_links(),
            &flexile_scenario::EnumOptions {
                prob_cutoff: 0.0,
                max_scenarios: 12,
                coverage_target: 2.0,
            },
        );
        let inst = Instance::single_class(topo, 7, 0.6, Some(8));
        let allowed = connected_matrix(&inst, &set);
        (inst, set, allowed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random cut pools: per scenario up to three cuts with random
        /// `w` (some `w_f` exactly 0, so some columns go unpriced), `u`
        /// and `d_const`.
        #[test]
        fn reduced_relaxation_keeps_the_bound_on_random_pools(seed in any::<u64>()) {
            let (inst, set, allowed) = sprint8();
            let (nf, nq, na) = (inst.num_flows(), set.scenarios.len(), inst.num_arcs());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pool = CutPool::new(nq);
            for q in 0..nq {
                for _ in 0..rng.random_range(0usize..4) {
                    let w: Vec<f64> = (0..nf)
                        .map(|_| {
                            if rng.random_bool(0.6) { 0.0 } else { rng.random_range(0.0..1.0) }
                        })
                        .collect();
                    // Each capacity term is at most 0.2 in size, so that
                    // the cut is positive at `z = 1` more often than not.
                    let u = (0..na)
                        .map(|a| {
                            if rng.random_bool(0.8) {
                                0.0
                            } else {
                                -rng.random_range(0.0..0.2) / inst.arc_capacity(a)
                            }
                        })
                        .collect();
                    let d_const = w.iter().sum::<f64>() + rng.random_range(0.0..1.0);
                    pool.push(q, Cut { w, u, d_const });
                }
            }
            let beta = rng.random_range(0.5..1.0);
            assert_reduced_bound_matches(&inst, &set, &pool, &allowed, &[beta]);
        }
    }
}
