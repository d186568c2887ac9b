//! Branch-and-bound against brute-force enumeration on random tiny MIPs
//! shaped like the decomposition master (M): binaries `z` under coverage
//! rows (3), a continuous `penalty` under cut rows (19), and one general
//! integer `i` with a fractional upper bound. The oracle enumerates every
//! integer point and prices `penalty` in closed form, so it shares no code
//! with the solver. Probabilities and coverage targets are multiples of
//! 1/64, so every coverage row is met or missed exactly, never within a
//! solver tolerance.

use flexile_lp::{solve_mip, MipOptions, MipResult, MipStatus, Model, Sense, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One tiny master-shaped MIP:
///
/// ```text
/// min  penalty + i_cost · i
/// s.t. Σ_{j ∈ group} p_j z_j ≥ β_group        (coverage)
///      penalty − Σ_j w_j z_j + a · i ≥ b       (cuts)
///      z binary, i ∈ [0, i_ub] integer, penalty ≥ 0
/// ```
struct Tiny {
    probs: Vec<f64>,
    /// `(members, β)` per coverage row.
    groups: Vec<(Vec<usize>, f64)>,
    /// `(w, a, b)` per cut row.
    cuts: Vec<(Vec<f64>, f64, f64)>,
    i_ub: f64,
    i_cost: f64,
}

impl Tiny {
    fn random(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.random_range(4..13usize);
        let probs: Vec<f64> = (0..k)
            .map(|_| rng.random_range(1..17u32) as f64 / 64.0)
            .collect();
        let ngroups = rng.random_range(1..4usize);
        let groups = (0..ngroups)
            .map(|g| {
                let members: Vec<usize> = (g..k).step_by(ngroups).collect();
                let mass64 = members
                    .iter()
                    .map(|&j| (probs[j] * 64.0) as u32)
                    .sum::<u32>();
                // One group in ten asks for more than it holds: infeasible.
                let beta64 = if rng.random_range(0..10u32) == 0 {
                    mass64 + 1
                } else {
                    rng.random_range(0..mass64 + 1)
                };
                (members, beta64 as f64 / 64.0)
            })
            .collect();
        let cuts = (0..rng.random_range(2..7usize))
            .map(|_| {
                let w = (0..k)
                    .map(|_| {
                        if rng.random_range(0..5u32) < 2 {
                            0.0
                        } else {
                            rng.random_range(0.0..1.0)
                        }
                    })
                    .collect();
                (w, rng.random_range(0.0..0.5), rng.random_range(0.0..1.0))
            })
            .collect();
        let i_ub =
            rng.random_range(1..4u32) as f64 + [0.25, 0.5, 0.75][rng.random_range(0..3usize)];
        Tiny {
            probs,
            groups,
            cuts,
            i_ub,
            i_cost: rng.random_range(0.05..0.4),
        }
    }

    /// The model, with its `z` and `i` columns.
    fn model(&self) -> (Model, Vec<VarId>, VarId) {
        let mut m = Model::new(Sense::Min);
        let penalty = m.add_var("penalty", 0.0, f64::INFINITY, 1.0);
        let z: Vec<VarId> = (0..self.probs.len())
            .map(|j| m.add_binary(&format!("z{j}"), 0.0))
            .collect();
        let i = m.add_var("i", 0.0, self.i_ub, self.i_cost);
        m.set_integer(i);
        for (members, beta) in &self.groups {
            let coeffs: Vec<(VarId, f64)> =
                members.iter().map(|&j| (z[j], self.probs[j])).collect();
            m.add_row_ge(&coeffs, *beta);
        }
        for (w, a, b) in &self.cuts {
            let mut coeffs = vec![(penalty, 1.0), (i, *a)];
            coeffs.extend(
                z.iter()
                    .zip(w)
                    .filter(|(_, &wj)| wj > 0.0)
                    .map(|(&v, &wj)| (v, -wj)),
            );
            m.add_row_ge(&coeffs, *b);
        }
        (m, z, i)
    }

    /// Optimum by enumeration of every `(z, i)`, `None` when infeasible.
    fn brute_force(&self) -> Option<f64> {
        let k = self.probs.len();
        let mut best: Option<f64> = None;
        for mask in 0u32..1 << k {
            let on = |j: usize| mask >> j & 1 == 1;
            let covered = self.groups.iter().all(|(members, beta)| {
                members
                    .iter()
                    .filter(|&&j| on(j))
                    .map(|&j| self.probs[j])
                    .sum::<f64>()
                    >= *beta
            });
            if !covered {
                continue;
            }
            for iv in 0..=self.i_ub.floor() as u32 {
                let iv = iv as f64;
                let penalty = self
                    .cuts
                    .iter()
                    .map(|(w, a, b)| {
                        b + (0..k).filter(|&j| on(j)).map(|j| w[j]).sum::<f64>() - a * iv
                    })
                    .fold(0.0, f64::max);
                let obj = penalty + self.i_cost * iv;
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
        }
        best
    }
}

/// The point is feasible and integral, and its objective is the reported one.
fn assert_sound_point(m: &Model, ints: &[VarId], r: &MipResult, seed: u64) {
    assert!(
        m.max_violation(&r.x) <= 1e-7,
        "seed {seed}: violation {}",
        m.max_violation(&r.x)
    );
    for &v in ints {
        let x = r.x[v.index()];
        assert!(
            (x - x.round()).abs() <= 1e-6,
            "seed {seed}: {} = {x}",
            m.var_name(v)
        );
    }
    assert!(
        (m.eval_objective(&r.x) - r.objective).abs() <= 1e-7,
        "seed {seed}: objective mismatch"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// With an ample budget the search proves the enumerated optimum, or
    /// infeasibility when enumeration finds no point.
    #[test]
    fn ample_budget_matches_enumeration(seed in 0u64..1_000_000) {
        let tiny = Tiny::random(seed);
        let (m, mut ints, i) = tiny.model();
        ints.push(i);
        let opts = MipOptions { max_nodes: usize::MAX, time_limit: Duration::from_secs(600), ..Default::default() };
        let r = solve_mip(&m, &opts).expect("tiny MIP solves");
        match tiny.brute_force() {
            None => {
                assert_eq!(r.status, MipStatus::Infeasible, "seed {seed}");
                assert!(r.x.is_empty(), "seed {seed}");
            }
            Some(opt) => {
                assert_eq!(r.status, MipStatus::Optimal, "seed {seed}");
                assert!((r.objective - opt).abs() <= 1e-6, "seed {seed}: {} vs optimum {opt}", r.objective);
                assert!((r.bound - opt).abs() <= 1e-6, "seed {seed}: bound {} vs optimum {opt}", r.bound);
                assert_sound_point(&m, &ints, &r, seed);
            }
        }
    }

    /// Out of nodes the search still returns a feasible point, a valid bound
    /// (`bound ≤ optimum ≤ objective`), and claims neither optimality nor
    /// infeasibility it has not proven.
    #[test]
    fn small_node_budget_stays_sound(seed in 0u64..1_000_000, max_nodes in 1usize..9) {
        let tiny = Tiny::random(seed);
        let (m, mut ints, i) = tiny.model();
        ints.push(i);
        let opts = MipOptions { max_nodes, time_limit: Duration::from_secs(600), ..Default::default() };
        let r = solve_mip(&m, &opts).expect("tiny MIP solves");
        let opt = tiny.brute_force();
        match r.status {
            MipStatus::Optimal | MipStatus::Feasible => {
                let opt = opt.unwrap_or_else(|| panic!("seed {seed}: incumbent for an infeasible MIP"));
                assert_sound_point(&m, &ints, &r, seed);
                assert!(r.bound <= opt + 1e-6, "seed {seed}: bound {} above optimum {opt}", r.bound);
                assert!(opt <= r.objective + 1e-6, "seed {seed}: incumbent {} below optimum {opt}", r.objective);
                if r.status == MipStatus::Optimal {
                    assert!((r.objective - opt).abs() <= 1e-6, "seed {seed}: {} vs optimum {opt}", r.objective);
                } else {
                    assert_eq!(r.nodes, max_nodes, "seed {seed}: stopped early without a proof");
                }
            }
            MipStatus::Infeasible => assert!(opt.is_none(), "seed {seed}: feasible MIP reported infeasible"),
            MipStatus::Unknown => {
                assert_eq!(r.nodes, max_nodes, "seed {seed}: gave up early");
                assert!(opt.is_none_or(|o| r.bound <= o + 1e-6), "seed {seed}: bound {} above optimum", r.bound);
            }
        }
    }
}
