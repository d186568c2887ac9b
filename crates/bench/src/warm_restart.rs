//! `warm_restart` — scenario-solve pool policy benchmark.
//!
//! Runs the full Flexile decomposition on Table-2 topologies under the
//! two subproblem-scheduling policies:
//!
//! * `cold` — every subproblem solved from scratch every iteration
//!   (basis-residency budget 0);
//! * `per_scenario` — the persistent pool: one long-lived template per
//!   scenario, dual-simplex RHS restarts across iterations, work-stealing
//!   dispatch.
//!
//! Each policy runs at 1 thread and at `cfg.threads`, reporting decomposition
//! iterations, **total subproblem simplex iterations** (the quantity warm
//! restarts reduce), warm-hit/dual-restart counts, wall time and the final
//! penalty — which must be identical across policies and thread counts.
//!
//! The instances pin an explicit β = 0.99 *below* the max-feasible target
//! and run hot (per-topology MLU ≈ 1): with the auto-derived β the starting
//! heuristic is already optimal, the master converges after one iteration,
//! and no policy ever gets to reuse a basis.
//!
//! Under `repro --obs DIR` the per-run rows are also embedded as a
//! `"policies"` array in `BENCH_warm_restart.json`.

use crate::{single_class_setup, ExpConfig};
use flexile_core::{solve_flexile, FlexileDesign, FlexileOptions, PoolPolicy};
use std::sync::Mutex;
use std::time::Instant;

/// Table-2 topologies with the target MLU that makes the decomposition
/// iterate at β = 0.99 (hot enough that the all-critical start is not
/// optimal, cool enough to stay feasible).
const TOPOLOGIES: [(&str, f64); 4] =
    [("Sprint", 1.05), ("IBM", 1.05), ("CWIX", 1.05), ("Quest", 1.05)];

/// The explicit SLO target; must sit below max-feasible β so the master has
/// slack to shed criticality (see module docs).
const BETA: f64 = 0.99;

/// Scenario cap for this experiment: enough scenarios that scheduling and
/// basis reuse matter, small enough for a CI smoke run.
const SCENARIO_CAP: usize = 24;

/// Per-run records for the `BENCH_warm_restart.json` `"policies"` array,
/// stashed by [`run_warm_restart`] and drained by the `repro` binary's
/// perf-record writer.
static POLICY_RECORDS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Drain the JSON records of the most recent [`run_warm_restart`] call.
pub fn take_policy_records() -> Vec<String> {
    std::mem::take(&mut *POLICY_RECORDS.lock().unwrap_or_else(|e| e.into_inner()))
}

fn policy_label(p: PoolPolicy) -> &'static str {
    match p {
        PoolPolicy::Cold => "cold",
        PoolPolicy::PerScenario => "per_scenario",
    }
}

/// One decomposition run; prints the CSV row and stashes the JSON record.
fn run_one(name: &str, inst: &flexile_traffic::Instance, set: &flexile_scenario::ScenarioSet, policy: PoolPolicy, threads: usize) -> FlexileDesign {
    // A deeper iteration budget than the library default: the experiment
    // measures cross-iteration basis reuse, so runs should converge rather
    // than stop at the default cap.
    let opts =
        FlexileOptions { threads, pool: policy, max_iterations: 12, ..Default::default() };
    let t0 = Instant::now();
    let design = solve_flexile(inst, set, &opts);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let iters = design.iterations.len();
    let lp_iters: usize = design.iterations.iter().map(|s| s.lp_iterations).sum();
    let warm_hits: usize = design.iterations.iter().map(|s| s.warm_hits).sum();
    let dual_restarts: usize = design.iterations.iter().map(|s| s.dual_restarts).sum();
    let label = policy_label(policy);
    println!(
        "run,{name},{label},{threads},{iters},{lp_iters},{warm_hits},{dual_restarts},\
         {wall_ms:.3},{:.9}",
        design.penalty
    );
    POLICY_RECORDS.lock().unwrap_or_else(|e| e.into_inner()).push(format!(
        "{{\"topology\":\"{name}\",\"policy\":\"{label}\",\"threads\":{threads},\
         \"iterations\":{iters},\"lp_iters\":{lp_iters},\"warm_hits\":{warm_hits},\
         \"dual_restarts\":{dual_restarts},\"wall_ms\":{wall_ms:.3},\"penalty\":{:.9}}}",
        design.penalty
    ));
    design
}

/// Run the `warm_restart` experiment. `limit` caps the number of topologies
/// (in [`TOPOLOGIES`] order, so `--limit 1` is a Sprint-only smoke run).
/// CSV schema:
///
/// ```text
/// run,topology,policy,threads,iterations,lp_iters,warm_hits,dual_restarts,wall_ms,penalty
/// ```
pub fn run_warm_restart(cfg: &ExpConfig, limit: usize) {
    take_policy_records(); // reset any stale records from a prior experiment
    println!("section,topology,policy,threads,iterations,lp_iters,warm_hits,dual_restarts,wall_ms,penalty");
    let policies = [PoolPolicy::Cold, PoolPolicy::PerScenario];
    for &(name, mlu) in TOPOLOGIES.iter().take(limit.max(1)) {
        let sub_cfg = ExpConfig {
            target_mlu: mlu,
            max_scenarios: cfg.max_scenarios.min(SCENARIO_CAP),
            ..cfg.clone()
        };
        let (mut inst, set) = single_class_setup(name, &sub_cfg);
        inst.classes[0].beta = BETA;
        cfg.progress(format!(
            "warm_restart: {name} — {} pairs, {} scenarios, β={BETA}, MLU={mlu}",
            inst.num_pairs(),
            set.scenarios.len()
        ));
        let mut reference: Option<f64> = None;
        for &policy in &policies {
            let mut threads = vec![1];
            if cfg.threads > 1 {
                threads.push(cfg.threads);
            }
            for t in threads {
                let design = run_one(name, &inst, &set, policy, t);
                // All policies must land on the same optimum (alternate
                // pivot paths allow different bases, not different values).
                match reference {
                    None => reference = Some(design.penalty),
                    Some(r) => assert!(
                        (r - design.penalty).abs() <= 1e-6,
                        "{name}/{policy:?}@{t}: penalty diverged across policies: \
                         {r} vs {}",
                        design.penalty
                    ),
                }
            }
        }
    }
}
