//! End-to-end design + failover benchmark for the Flexile reproduction.
//!
//! ```text
//! perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` (or with `all`) every workload runs twice: once
//! untraced, printing the end-to-end metrics, and once traced with the
//! `flexile_obs` sink on, printing the per-layer ledger. Each run checks its
//! outputs and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! when untraced, per-layer metrics when traced. A failed check makes the
//! process exit 1 after printing that line. See `README.md` for the
//! workloads and the layer-to-headline map.

mod ledger;
mod metrics;
mod workload;

use flexile_core::checkpoint::problem_fingerprint;
use flexile_core::online::{online_allocate_robust, DegradationLevel};
use flexile_core::{solve_flexile, FlexileDesign, FlexileOptions};
use flexile_emu::chaos::{design_columns, scenario_for_failed, ChaosReport, ChaosStep};
use flexile_lp::fault::{with_injector, FaultInjector};
use flexile_lp::FaultKind;
use flexile_obs::Telemetry;
use flexile_scenario::ScenarioSet;
use ledger::{median, percentile, DesignLedger, LpLedger};
use metrics::Report;
use std::time::{Duration, Instant};
use workload::{build_inputs, check_design, FailureState, FailureStates, Inputs, Role, Workload};

/// Scenario-pool threads for every design (the machine has two cores).
const THREADS: usize = 2;
/// Input builds in a run's set-up at least, and the least time they take
/// together; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
/// Share of `--seconds` the set-up of `failover` fills at least: each of
/// its builds includes a design, and `design_s` is the least of them.
const FAILOVER_SETUP_SHARE: f64 = 0.3;
/// Rounds per untraced run at least, whatever `--seconds` is, so that the
/// least over the designs has a fast stretch of the machine to find.
const MIN_ROUNDS: usize = 2;
/// Traced designs per traced run, so the LP counts can be compared.
const TRACED_DESIGNS: usize = 2;
/// A reaction slower than this counts as failed.
const REACTION_LIMIT: Duration = Duration::from_millis(100);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 25.0,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" {
                    workload::by_name(&w).ok_or(format!("unknown workload {w}"))?;
                    args.workload = Some(w);
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let workloads: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workload::by_name(name).expect("validated")],
        None => workload::WORKLOADS.iter().collect(),
    };
    let traces = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut all_correct = true;
    for w in workloads {
        for &trace in &traces {
            let report = run(w, args.seed, args.seconds, trace);
            all_correct &= report.problems.is_empty();
            report.print();
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// Deterministic counts of one design: everything but timings.
#[derive(Debug, Clone, PartialEq)]
struct DecompCounts {
    iterations: usize,
    solved: usize,
    pruned: usize,
    sub_lp_iters: usize,
    warm_hits: usize,
    dual_restarts: usize,
    penalty_bits: u64,
}

impl DecompCounts {
    fn of(d: &FlexileDesign) -> Self {
        let sum = |f: fn(&flexile_core::IterationStat) -> usize| d.iterations.iter().map(f).sum();
        DecompCounts {
            iterations: d.iterations.len(),
            solved: sum(|s| s.solved),
            pruned: sum(|s| s.pruned),
            sub_lp_iters: sum(|s| s.lp_iterations),
            warm_hits: sum(|s| s.warm_hits),
            dual_restarts: sum(|s| s.dual_restarts),
            penalty_bits: d.penalty.to_bits(),
        }
    }
}

fn design_options() -> FlexileOptions {
    FlexileOptions {
        threads: THREADS,
        ..Default::default()
    }
}

fn timed_design(inp: &Inputs) -> (FlexileDesign, f64) {
    let t0 = Instant::now();
    let d = solve_flexile(&inp.inst, &inp.set, &design_options());
    (d, t0.elapsed().as_secs_f64())
}

/// Run one design with the sink on and return it with its telemetry alone.
fn traced_design(inp: &Inputs) -> (FlexileDesign, f64, Telemetry) {
    flexile_obs::drain();
    flexile_obs::enable();
    let (d, wall) = timed_design(inp);
    flexile_obs::disable();
    (d, wall, flexile_obs::drain())
}

/// What one reaction measured.
struct Reaction {
    total_us: f64,
    lookup_us: f64,
    allocate_us: f64,
    lp_solves: usize,
    solver_iters: usize,
    planned: bool,
    level: DegradationLevel,
}

impl Reaction {
    /// Whether the LP path failed or the reaction overran the latency limit.
    fn failed(&self) -> bool {
        self.level >= DegradationLevel::FrozenCarryForward
            || self.total_us > REACTION_LIMIT.as_secs_f64() * 1e6
    }

    /// Everything but the timings, which must repeat exactly.
    fn behaviour(&self) -> (usize, usize, bool, DegradationLevel) {
        (self.lp_solves, self.solver_iters, self.planned, self.level)
    }
}

/// The online controller driven in a closed loop by one caller: each
/// failure state is handed over as soon as the previous reaction returns,
/// and each reaction carries the previous losses forward. A pass reacts to
/// the same seeded failure states in order, from no carried losses, so
/// every pass repeats the same work. Each reaction's losses are checked as
/// it lands and then dropped, so memory stays flat however many reactions
/// a run makes.
struct Controller {
    states: Vec<FailureState>,
    /// Every reaction of every pass, in order.
    reactions: Vec<Reaction>,
    /// First `ChaosReport::check_invariants` violation, if any.
    violation: Option<String>,
}

impl Controller {
    fn new(set: &ScenarioSet, seed: u64, states: usize) -> Self {
        Controller {
            states: FailureStates::new(set, seed).take(states).collect(),
            reactions: Vec::new(),
            violation: None,
        }
    }

    /// React once to every failure state of the pass.
    fn pass(&mut self, inp: &Inputs, design: &FlexileDesign) {
        let (inst, set) = (&inp.inst, &inp.set);
        let mut prev: Option<Vec<f64>> = None;
        for st in &self.states {
            let t0 = Instant::now();
            let lookup = flexile_obs::span("bench.lookup", "bench");
            let scenario = scenario_for_failed(&set.units, set.num_links, &st.failed);
            let (critical, promised, enumerated) =
                design_columns(set, design, &scenario.failed_units);
            drop(lookup);
            let t1 = Instant::now();
            let allocate = flexile_obs::span("bench.allocate", "bench");
            let carry = prev.as_deref();
            let (outcome, faults) = if st.fault {
                let inj = FaultInjector::new().at(0, FaultKind::Numerical);
                let (o, used) = with_injector(inj, || {
                    online_allocate_robust(inst, &scenario, &critical, &promised, carry)
                });
                (o, used.injected().len() as u64)
            } else {
                (
                    online_allocate_robust(inst, &scenario, &critical, &promised, carry),
                    0,
                )
            };
            drop(allocate);
            let t2 = Instant::now();
            assert_eq!(
                enumerated, st.planned,
                "the lookup disagrees with the state's planned flag"
            );
            self.reactions.push(Reaction {
                total_us: (t2 - t0).as_secs_f64() * 1e6,
                lookup_us: (t1 - t0).as_secs_f64() * 1e6,
                allocate_us: (t2 - t1).as_secs_f64() * 1e6,
                lp_solves: outcome.reports.len(),
                solver_iters: outcome.reports.iter().map(|r| r.total_iterations()).sum(),
                planned: enumerated,
                level: outcome.level,
            });
            let step = ChaosStep {
                time: self.reactions.len() as u64,
                failed_units: scenario.failed_units.clone(),
                scenario,
                enumerated,
                outcome,
                faults_injected: faults,
                reaction: t2 - t0,
            };
            let report = ChaosReport { steps: vec![step] };
            if let Err(e) = report.check_invariants(inst) {
                self.violation.get_or_insert(e);
            }
            prev = report.steps.into_iter().next().map(|s| s.outcome.losses);
        }
    }

    fn failed(&self) -> u64 {
        self.reactions.iter().filter(|x| x.failed()).count() as u64
    }

    /// Latency of every reaction of every pass.
    fn latencies_us(&self) -> Vec<f64> {
        self.reactions.iter().map(|x| x.total_us).collect()
    }

    /// Whether every pass repeated the first one's behaviour exactly.
    fn passes_agree(&self) -> bool {
        let n = self.states.len();
        self.reactions
            .iter()
            .enumerate()
            .all(|(i, x)| x.behaviour() == self.reactions[i % n].behaviour())
    }
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The least of repeated timings of the same work: the one the shared
/// machine disturbed least.
fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Interquartile range over median, the timing spread of repeated work.
fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    (percentile(xs, 75.0) - percentile(xs, 25.0)) / median(xs)
}

/// Print the passes of a reaction loop with the deciles of all their
/// latencies, check them, and record their failures. Returns the
/// latencies.
fn note_reactions(r: &mut Report, label: &str, ctl: &Controller) -> Vec<f64> {
    let all = ctl.latencies_us();
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.0}", percentile(&all, 10.0 * d as f64)))
        .collect();
    let per_pass: Vec<String> = ctl
        .reactions
        .chunks(ctl.states.len())
        .map(|c| {
            let us: Vec<f64> = c.iter().map(|x| x.total_us).collect();
            format!("{:.0}/{:.0}", percentile(&us, 50.0), percentile(&us, 99.0))
        })
        .collect();
    r.note(format!(
        "{label}: {} passes of {} states ({} unplanned); p50/p99 per pass (us) {}; deciles of all (us) {}",
        per_pass.len(),
        ctl.states.len(),
        ctl.states.iter().filter(|s| !s.planned).count(),
        per_pass.join(" "),
        deciles.join(" ")
    ));
    if let Some(e) = &ctl.violation {
        r.problem(format!("{label} losses: {e}"));
    }
    if !ctl.passes_agree() {
        r.problem(format!(
            "{label}: repeated passes disagree on LP counts or outcomes"
        ));
    }
    r.attempted += ctl.reactions.len() as u64;
    r.failed += ctl.failed();
    all
}

fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::new(w.name, seed, trace);
    r.note(format!(
        "{}: {} ({}), {} pairs, {} scenario cap, MLU {}, beta {}, {} pool threads, closed loop of one caller",
        w.name,
        w.why,
        w.topology,
        w.max_pairs,
        w.max_scenarios,
        w.target_mlu,
        w.beta.map_or("max-feasible".to_string(), |b| b.to_string()),
        THREADS,
    ));
    r.note(format!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    // Set-up builds the inputs again and again; on `failover`, whose
    // measured work is the reactions, each build includes a design. Then
    // rounds until `--seconds` is spent: a design and a pass of reactions
    // on a design workload, a pass alone on `failover`. Spreading the
    // passes over the run lets the reaction percentiles average the
    // machine's drift rather than catch one stretch of it. A traced run
    // makes one untraced design (the reference its traced designs must
    // match) and no untraced reactions.
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut instance_s = Vec::new();
    let mut enumerate_s = Vec::new();
    let mut fingerprints = Vec::new();
    let mut untraced = Vec::new();
    let mut last = None;
    let setup_min = match w.role {
        Role::Design => SETUP_MIN_S,
        Role::Failover => SETUP_MIN_S.max(FAILOVER_SETUP_SHARE * seconds),
    };
    while setup_s.len() < SETUP_BUILDS || start.elapsed().as_secs_f64() < setup_min {
        let t0 = Instant::now();
        let inp = build_inputs(w);
        let mut took = t0.elapsed().as_secs_f64();
        instance_s.push(inp.instance_s);
        enumerate_s.push(inp.enumerate_s);
        fingerprints.push(problem_fingerprint(&inp.inst, &inp.set));
        let mut design = None;
        if w.role == Role::Failover {
            let (d, wall) = timed_design(&inp);
            took += wall;
            untraced.push((DecompCounts::of(&d), wall));
            design = Some(d);
        }
        setup_s.push(took);
        last = Some((inp, design));
    }
    let (inp, mut design) = last.expect("set-up builds at least once");
    let mut ctl = Controller::new(&inp.set, seed, w.states);
    let mut rounds = 0;
    loop {
        let t0 = Instant::now();
        if w.role == Role::Design {
            let (d, wall) = timed_design(&inp);
            untraced.push((DecompCounts::of(&d), wall));
            design = Some(d);
        }
        if trace {
            break;
        }
        ctl.pass(&inp, design.as_ref().expect("every run designs"));
        rounds += 1;
        let next = start.elapsed() + t0.elapsed();
        if rounds >= MIN_ROUNDS && next.as_secs_f64() > seconds {
            break;
        }
    }
    let design = design.expect("every run designs");
    if fingerprints.iter().any(|&f| f != fingerprints[0]) {
        r.problem("repeated input builds differ".into());
    }
    r.note(format!(
        "inputs: {} flows, {} scenarios (covered {:.6}, unplanned share of failure states {:.6}), problem fingerprint {:016x}, {} builds",
        inp.inst.num_flows(),
        inp.set.scenarios.len(),
        inp.set.covered_prob(),
        FailureStates::new(&inp.set, seed).unplanned_share(),
        fingerprints[0],
        setup_s.len()
    ));
    if let Err(e) = check_design(&inp.inst, &inp.set, &design) {
        r.problem(format!("design check: {e}"));
    }
    let counts = untraced[0].0.clone();
    let identical = untraced.iter().all(|(c, _)| *c == counts);
    if !identical {
        r.problem("repeated designs disagree on decomposition counts or penalty".into());
    }
    let design_walls: Vec<f64> = untraced.iter().map(|(_, w)| *w).collect();
    r.note(format!(
        "design: {} repeats, counts and penalty identical: {identical}, wall spread (IQR/median) {:.4}",
        untraced.len(),
        spread(&design_walls)
    ));
    let walls: Vec<String> = design_walls.iter().map(|w| format!("{w:.3}")).collect();
    r.note(format!("design walls (s): {}", walls.join(" ")));
    r.attempted = untraced.len() as u64 * counts.solved as u64;

    if !trace {
        let latencies_us = note_reactions(&mut r, "reactions", &ctl);
        r.metric("setup_s", median(&setup_s));
        r.metric("design_s", least(&design_walls));
        r.metric("design_penalty", design.penalty);
        r.metric("reaction_us_p99", percentile(&latencies_us, 99.0));
        r.metric("peak_rss_mb", peak_rss_mb());
        r.note(format!(
            "reaction_us_p50 = {} us over {} reactions; failed_share = {} ({} of {} operations)",
            percentile(&latencies_us, 50.0),
            latencies_us.len(),
            r.failed as f64 / r.attempted as f64,
            r.failed,
            r.attempted
        ));
        return r;
    }

    // Traced phase: designs for the ledger, then reactions.
    let limit = design_options().master.mip_time_limit.as_secs_f64() / 2.0;
    let mut ledgers = Vec::new();
    let mut traced_walls = Vec::new();
    for _ in 0..TRACED_DESIGNS {
        let (d, wall, t) = traced_design(&inp);
        if DecompCounts::of(&d) != counts {
            r.problem(
                "traced design differs from the untraced one (counts or penalty bits)".into(),
            );
        }
        r.failed += t
            .counters
            .get("flexile.scenarios_retried")
            .copied()
            .unwrap_or(0);
        r.attempted += counts.solved as u64;
        let l = DesignLedger::from_telemetry(&t);
        if l.master_max_s > limit {
            r.problem(format!(
                "a master solve took {:.3} s, over half the MIP time limit",
                l.master_max_s
            ));
        }
        traced_walls.push(wall);
        ledgers.push(l);
    }
    if ledgers
        .iter()
        .any(|l| l.lp.counts() != ledgers[0].lp.counts())
    {
        r.problem("traced designs disagree on LP counts".into());
    }
    flexile_obs::drain();
    flexile_obs::enable();
    ctl.pass(&inp, &design);
    flexile_obs::disable();
    let online_t = flexile_obs::drain();
    note_reactions(&mut r, "traced reactions", &ctl);

    let med = |f: fn(&DesignLedger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
    let l0 = &ledgers[0];
    r.metric("setup.instance_s", median(&instance_s));
    r.metric("setup.enumerate_s", median(&enumerate_s));
    r.metric("setup.scenarios", inp.set.scenarios.len() as f64);
    r.metric("decomp.iterations", counts.iterations as f64);
    r.metric("decomp.solved", counts.solved as f64);
    r.metric("decomp.pruned", counts.pruned as f64);
    r.metric("decomp.sub_lp_iters", counts.sub_lp_iters as f64);
    r.metric("decomp.warm_hits", counts.warm_hits as f64);
    r.metric("decomp.dual_restarts", counts.dual_restarts as f64);
    r.metric("master.s", med(|l| l.master_s));
    r.metric("master.share", med(|l| l.master_s / l.solve_s));
    r.metric("master.max_s", med(|l| l.master_max_s));
    r.metric("master.node_lps", l0.master_node_lps as f64);
    r.metric(
        "master.node_lp_us_p50",
        med(|l| median(&l.master_node_lp_us)),
    );
    r.metric("wave.s", med(|l| l.wave_s));
    r.metric("wave.share", med(|l| l.wave_s / l.solve_s));
    r.metric("wave.busy_s", med(|l| l.wave_busy_s));
    r.metric("wave.idle_s", med(|l| l.wave_idle_s));
    r.metric("wave.straggler_s", med(|l| l.wave_straggler_s));
    let solves = (l0.warm_hits + l0.warm_misses).max(1);
    r.metric("wave.warm_hit_ratio", l0.warm_hits as f64 / solves as f64);
    r.metric(
        "wave.batch_divergence_ratio",
        if l0.batch_members > 0.0 {
            l0.batch_divergences as f64 / l0.batch_members
        } else {
            0.0
        },
    );
    // The LP engine is measured where the workload's measured work is: in
    // the design, or (failover) in the reactions.
    let online_lp = LpLedger::from_telemetry(&online_t);
    let lp = match w.role {
        Role::Design => &l0.lp,
        Role::Failover => &online_lp,
    };
    r.metric("lp.solves", lp.solves as f64);
    r.metric("lp.pivots.phase1", lp.pivots_phase1 as f64);
    r.metric("lp.pivots.phase2", lp.pivots_phase2 as f64);
    r.metric("lp.pivots.dual", lp.pivots_dual as f64);
    r.metric("lp.refactorizations", lp.refactorizations as f64);
    r.metric("lp.bland_activations", lp.bland_activations as f64);
    r.metric("lp.rung_failures", lp.rung_failures as f64);
    r.metric("lp.solve_us_p50", percentile(&lp.solve_us, 50.0));
    r.metric("lp.solve_us_p99", percentile(&lp.solve_us, 99.0));
    let rs = &ctl.reactions;
    let n = rs.len() as f64;
    let lookup: Vec<f64> = rs.iter().map(|x| x.lookup_us).collect();
    let allocate: Vec<f64> = rs.iter().map(|x| x.allocate_us).collect();
    r.metric("online.lookup_us_p50", percentile(&lookup, 50.0));
    r.metric("online.allocate_us_p50", percentile(&allocate, 50.0));
    r.metric("online.allocate_us_p99", percentile(&allocate, 99.0));
    r.metric(
        "online.lp_solves_per_reaction",
        rs.iter().map(|x| x.lp_solves).sum::<usize>() as f64 / n,
    );
    r.metric(
        "online.solver_iters_per_reaction",
        rs.iter().map(|x| x.solver_iters).sum::<usize>() as f64 / n,
    );
    r.metric(
        "online.planned_share",
        rs.iter().filter(|x| x.planned).count() as f64 / n,
    );
    r.metric(
        "online.recovered",
        rs.iter()
            .filter(|x| x.level == DegradationLevel::SolverRecovered)
            .count() as f64,
    );
    r.metric(
        "obs.overhead_share",
        least(&traced_walls) / least(&design_walls) - 1.0,
    );
    r.ledger(l0, &online_t);
    r
}

#[cfg(test)]
mod tests {
    use super::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(!n.is_empty() && n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{n} is not [A-Za-z0-9_.-]+"
            );
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(names.contains(&"setup_s"));
    }
}
