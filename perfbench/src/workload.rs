//! Workload definitions and the inputs each one runs on.
//!
//! A workload fixes its design problem: topology, sizes, failure
//! probabilities and gravity traffic matrix, generated with the `repro`
//! harness's default seed. The benchmark `--seed` draws the sequence of
//! failure states the controller reacts to. Seeding the design problem
//! instead would make each seed a different problem of a different
//! difficulty: on GEANT one seed designs in 11 s and another in 230 s, and
//! even a 1e-6 relative demand jitter moved the penalty of a 30-pair Sprint
//! master between 0.17 and 0.52. The library only ever sees the generated inputs.

use flexile_core::FlexileDesign;
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{topology_by_name, zoo};
use flexile_traffic::Instance;
use std::collections::HashSet;
use std::time::Instant;

/// What a workload measures in its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The offline design is the measured work; set-up builds the inputs.
    Design,
    /// Set-up builds the inputs and the design; the measured work is the
    /// controller reacting to failure states.
    Failover,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: &'static str,
    pub target_mlu: f64,
    pub max_pairs: usize,
    pub max_scenarios: usize,
    /// Explicit SLO target; `None` uses the max-feasible β (paper default).
    pub beta: Option<f64>,
    pub role: Role,
    /// Failure states per pass of reactions.
    pub states: usize,
}

/// The workloads, each chosen to load a different layer (see `README.md`).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "design_master",
        why: "exact branch-and-bound master dominates the design",
        topology: "Sprint",
        target_mlu: 1.05,
        max_pairs: 20,
        max_scenarios: 16,
        beta: Some(0.99),
        role: Role::Design,
        states: 1000,
    },
    Workload {
        name: "design_restart",
        why: "scenario wave dominated by one straggling warm dual restart",
        topology: "GEANT",
        target_mlu: 0.6,
        max_pairs: 40,
        max_scenarios: 2000,
        beta: None,
        role: Role::Design,
        states: 1000,
    },
    Workload {
        name: "design_wide",
        why: "scenario wave dominated by cold first solves",
        topology: "Tinet",
        target_mlu: 0.6,
        max_pairs: 40,
        max_scenarios: 2000,
        beta: None,
        role: Role::Design,
        states: 1000,
    },
    // MLU 0.7, the top of the paper's [0.5, 0.7] range: at 0.6 the ATT
    // design promises zero loss everywhere and the penalty reads 0.
    Workload {
        name: "failover",
        why: "online controller reacting to failure states",
        topology: "ATT",
        target_mlu: 0.7,
        max_pairs: 40,
        max_scenarios: 300,
        beta: None,
        role: Role::Failover,
        states: 3000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the design problems: the `repro` harness's default, so each
/// workload's problem is the one the repository's experiments use.
const PROBLEM_SEED: u64 = 7;

/// The generated problem plus the set-up timers around the library calls
/// that build it.
pub struct Inputs {
    pub inst: Instance,
    pub set: ScenarioSet,
    pub instance_s: f64,
    pub enumerate_s: f64,
}

/// Build a workload's instance and scenario set, with per-topology streams
/// derived the way the `repro` harness derives them.
pub fn build_inputs(w: &Workload) -> Inputs {
    let topo = topology_by_name(w.topology).expect("workload names a Table-2 topology");
    let probs = flexile_scenario::link_failure_probs(
        topo.num_links(),
        flexile_scenario::weibull::DEFAULT_SHAPE,
        flexile_scenario::weibull::DEFAULT_MEDIAN,
        PROBLEM_SEED ^ zoo::fnv1a(w.topology).rotate_left(17),
    );
    let units = link_units(&topo, &probs);
    let opts = EnumOptions {
        prob_cutoff: 1e-6,
        max_scenarios: w.max_scenarios,
        coverage_target: 0.9999,
    };
    let t0 = Instant::now();
    let set = enumerate_scenarios(&units, topo.num_links(), &opts);
    let enumerate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut inst = Instance::single_class(
        topo,
        PROBLEM_SEED ^ zoo::fnv1a(w.topology),
        w.target_mlu,
        Some(w.max_pairs),
    );
    let instance_s = t1.elapsed().as_secs_f64();
    if let Some(beta) = w.beta {
        inst.classes[0].beta = beta;
    }
    Inputs {
        inst,
        set,
        instance_s,
        enumerate_s,
    }
}

/// One failure state handed to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureState {
    /// Failed unit indices, sorted.
    pub failed: Vec<u32>,
    /// Whether the state came from the enumerated (planned) set.
    pub planned: bool,
    /// Whether the reaction runs under an injected numerical fault.
    pub fault: bool,
}

/// One reaction in `FAULT_EVERY` runs under an injected solver fault.
const FAULT_EVERY: u64 = 10;

/// splitmix64 step: deterministic, cheap, well mixed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1).
fn uniform(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Endless seeded stream of failure states over a scenario set, following
/// the set's own failure model. Every state follows a failure, so the
/// all-alive state is never drawn. A state is unplanned with the set's
/// uncovered mass given a failure, `residual / (1 - p(all alive))`; the
/// unplanned reactions are spread evenly over the stream so each run of a
/// given length holds the same number. Planned states are drawn by
/// probability from the enumerated failure scenarios; unplanned ones fail
/// each unit with its own probability, rejecting empty and enumerated
/// draws.
pub struct FailureStates<'a> {
    set: &'a ScenarioSet,
    /// `(cumulative probability, scenario index)` over failure scenarios.
    cumulative: Vec<(f64, usize)>,
    enumerated: HashSet<&'a [u32]>,
    unplanned_share: f64,
    rng: u64,
    index: u64,
}

impl<'a> FailureStates<'a> {
    pub fn new(set: &'a ScenarioSet, seed: u64) -> Self {
        let mut acc = 0.0;
        let cumulative: Vec<(f64, usize)> = set
            .scenarios
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.failed_units.is_empty())
            .map(|(q, s)| {
                acc += s.prob;
                (acc, q)
            })
            .collect();
        let enumerated = set
            .scenarios
            .iter()
            .map(|s| s.failed_units.as_slice())
            .collect();
        let uncovered = 1.0 - set.covered_prob();
        FailureStates {
            set,
            cumulative,
            enumerated,
            unplanned_share: uncovered / (uncovered + acc),
            rng: seed,
            index: 0,
        }
    }

    /// Share of the stream's states that the design never saw.
    pub fn unplanned_share(&self) -> f64 {
        self.unplanned_share
    }

    /// Whether the `i`-th state is unplanned: the running count of
    /// unplanned states is `floor(i * share)`.
    fn is_unplanned(&self, i: u64) -> bool {
        let s = self.unplanned_share;
        ((i + 1) as f64 * s).floor() > (i as f64 * s).floor()
    }

    fn planned(&mut self) -> Vec<u32> {
        let total = self
            .cumulative
            .last()
            .expect("the set enumerates failure scenarios")
            .0;
        let x = uniform(&mut self.rng) * total;
        let i = self
            .cumulative
            .partition_point(|&(c, _)| c <= x)
            .min(self.cumulative.len() - 1);
        self.set.scenarios[self.cumulative[i].1]
            .failed_units
            .clone()
    }

    fn unplanned(&mut self) -> Vec<u32> {
        let mut failed = Vec::new();
        loop {
            failed.clear();
            for (u, unit) in self.set.units.iter().enumerate() {
                if uniform(&mut self.rng) < unit.prob {
                    failed.push(u as u32);
                }
            }
            if !failed.is_empty() && !self.enumerated.contains(failed.as_slice()) {
                return failed;
            }
        }
    }
}

impl Iterator for FailureStates<'_> {
    type Item = FailureState;

    fn next(&mut self) -> Option<FailureState> {
        let i = self.index;
        self.index += 1;
        let planned = !self.is_unplanned(i);
        let failed = if planned {
            self.planned()
        } else {
            self.unplanned()
        };
        Some(FailureState {
            failed,
            planned,
            fault: i % FAULT_EVERY == FAULT_EVERY - 1,
        })
    }
}

/// Output checks on a design; returns the first violation.
pub fn check_design(inst: &Instance, set: &ScenarioSet, d: &FlexileDesign) -> Result<(), String> {
    let probs = set.probs();
    for f in 0..inst.num_flows() {
        let k = inst.flow_class(f);
        let p = inst.flow_pair(f);
        let mut critical = 0.0;
        let mut connected = 0.0;
        for (q, s) in set.scenarios.iter().enumerate() {
            if d.critical[f][q] {
                critical += probs[q];
            }
            if inst.tunnels[k].pair_alive(p, &s.dead_mask()) {
                connected += probs[q];
            }
        }
        if critical < d.betas[k].min(connected) - 1e-9 {
            return Err(format!(
                "flow {f}: critical mass {critical} below min(beta {}, connected {connected})",
                d.betas[k]
            ));
        }
    }
    for (k, a) in d.alpha.iter().enumerate() {
        if !(0.0..=1.0).contains(a) {
            return Err(format!("class {k}: alpha {a} outside [0,1]"));
        }
    }
    let sum: f64 = d
        .alpha
        .iter()
        .zip(&inst.classes)
        .map(|(a, c)| a * c.weight)
        .sum();
    if sum.to_bits() != d.penalty.to_bits() {
        return Err(format!(
            "penalty {} != sum of weighted alphas {sum}",
            d.penalty
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexile_core::checkpoint::problem_fingerprint;

    fn stream(set: &ScenarioSet, seed: u64) -> Vec<FailureState> {
        FailureStates::new(set, seed).take(400).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_failure_states() {
        let w = by_name("failover").expect("failover workload");
        let a = build_inputs(w);
        let b = build_inputs(w);
        let fa = problem_fingerprint(&a.inst, &a.set);
        assert_eq!(fa, problem_fingerprint(&b.inst, &b.set));
        assert_eq!(stream(&a.set, 7), stream(&b.set, 7));
        assert_ne!(stream(&a.set, 7), stream(&a.set, 8));
        // The design problem is the workload's, whatever the seed.
        let other = build_inputs(by_name("design_wide").expect("design_wide workload"));
        assert_ne!(fa, problem_fingerprint(&other.inst, &other.set));
    }

    #[test]
    fn failure_states_follow_the_planned_unplanned_and_fault_shares() {
        let w = by_name("design_master").expect("design_master workload");
        let inp = build_inputs(w);
        let states = stream(&inp.set, 3);
        let enumerated: HashSet<&[u32]> = inp
            .set
            .scenarios
            .iter()
            .map(|s| s.failed_units.as_slice())
            .collect();
        for (i, s) in states.iter().enumerate() {
            assert!(!s.failed.is_empty(), "state {i} fails nothing");
            assert_eq!(
                s.planned,
                enumerated.contains(s.failed.as_slice()),
                "state {i}"
            );
            assert_eq!(s.fault, i as u64 % FAULT_EVERY == FAULT_EVERY - 1);
        }
        let share = FailureStates::new(&inp.set, 3).unplanned_share();
        assert!(share > 0.0 && share < 1.0, "unplanned share {share}");
        let unplanned = states.iter().filter(|s| !s.planned).count();
        assert_eq!(unplanned, (states.len() as f64 * share).floor() as usize);
    }

    #[test]
    fn workload_designs_pass_the_output_checks() {
        let inp = build_inputs(by_name("design_master").expect("design_master workload"));
        let mut d = flexile_core::solve_flexile(
            &inp.inst,
            &inp.set,
            &flexile_core::FlexileOptions {
                max_iterations: 1,
                threads: 2,
                ..Default::default()
            },
        );
        check_design(&inp.inst, &inp.set, &d).expect("a real design passes");
        d.penalty += 1e-9;
        assert!(
            check_design(&inp.inst, &inp.set, &d).is_err(),
            "a tampered penalty is caught"
        );
    }
}
