//! Chaos runner: replay a timed fail/recover link trace against the online
//! controller while injecting solver faults, and check the degradation
//! chain's loss-bound invariants at every step.
//!
//! The emulator in [`crate::runner`] measures *data-plane* fidelity of a
//! scheme's decisions; this module stresses the *control plane*. A
//! [`ChaosTrace`] is a sequence of failure-unit up/down events at logical
//! times. At each distinct time the runner
//!
//! 1. applies all events for that time to the set of currently-failed
//!    units and builds the resulting [`Scenario`] (link capacity factors
//!    are the product of surviving shares over the failed units),
//! 2. looks up the offline design's criticality/promised-loss columns for
//!    that failure state (pessimistic fallback — nothing critical,
//!    promised loss 1 — when the state was never enumerated offline),
//! 3. optionally installs a [`FaultInjector`] so solver faults fire while
//!    the controller reacts, and
//! 4. calls [`online_allocate_robust`] with the previous step's losses as
//!    carry-forward state, recording the full [`OnlineOutcome`].
//!
//! [`ChaosReport::check_invariants`] then verifies the contract the
//! degradation chain promises no matter what was injected: a loss for
//! every flow, every loss finite and in `[0, 1]`, disconnected pairs at
//! loss 1, zero demands at loss 0.

use flexile_core::online::{online_allocate_robust, DegradationLevel, OnlineOutcome};
use flexile_core::{
    decompose_resume, killpoints, solve_flexile, CheckpointError, DecompositionAborted,
    FlexileDesign, FlexileOptions, KillPoint,
};
use flexile_lp::fault::{self, FaultInjector};
use flexile_scenario::{FailureUnit, Scenario, ScenarioSet};
use flexile_traffic::Instance;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// One timed event in a chaos trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Logical time of the event; steps run in increasing time order.
    pub time: u64,
    /// Index into the scenario set's failure units.
    pub unit: usize,
    /// `true` = the unit fails, `false` = it recovers.
    pub down: bool,
}

/// A timed fail/recover trace over failure units.
#[derive(Debug, Clone, Default)]
pub struct ChaosTrace {
    /// Events in any order; the runner sorts by time (stable, so same-time
    /// events apply in insertion order).
    pub events: Vec<ChaosEvent>,
}

impl ChaosTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a unit failure at `time`.
    pub fn fail(mut self, time: u64, unit: usize) -> Self {
        self.events.push(ChaosEvent { time, unit, down: true });
        self
    }

    /// Append a unit recovery at `time`.
    pub fn recover(mut self, time: u64, unit: usize) -> Self {
        self.events.push(ChaosEvent { time, unit, down: false });
        self
    }
}

/// One control-interval record of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosStep {
    /// Logical time of the step.
    pub time: u64,
    /// Failed unit indices after this step's events, sorted.
    pub failed_units: Vec<u32>,
    /// The scenario the controller reacted to.
    pub scenario: Scenario,
    /// Whether the failure state matched an offline-enumerated scenario.
    pub enumerated: bool,
    /// The controller's allocation outcome, reports and all.
    pub outcome: OnlineOutcome,
    /// Solver faults actually injected during this step.
    pub faults_injected: u64,
    /// Wall-clock failure→plan-swap reaction latency: the time from
    /// handing the new failure state to the controller until a complete
    /// loss vector is back (including any degradation-ladder fallbacks).
    pub reaction: std::time::Duration,
}

/// Full record of a chaos run, one step per distinct trace time.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Steps in time order.
    pub steps: Vec<ChaosStep>,
}

impl ChaosReport {
    /// Worst degradation level over the whole run.
    pub fn worst(&self) -> DegradationLevel {
        self.steps
            .iter()
            .map(|s| s.outcome.level)
            .max()
            .unwrap_or(DegradationLevel::None)
    }

    /// Total solver faults injected over the run.
    pub fn faults_injected(&self) -> u64 {
        self.steps.iter().map(|s| s.faults_injected).sum()
    }

    /// Verify the degradation chain's contract on every step: losses cover
    /// every flow, are finite and in `[0, 1]`, disconnected pairs carry
    /// loss 1, and zero demands carry loss 0. Returns the first violation
    /// as a human-readable message.
    pub fn check_invariants(&self, inst: &Instance) -> Result<(), String> {
        let nf = inst.num_flows();
        for step in &self.steps {
            let l = &step.outcome.losses;
            if l.len() != nf {
                return Err(format!(
                    "t={}: {} losses for {} flows",
                    step.time,
                    l.len(),
                    nf
                ));
            }
            let dead = step.scenario.dead_mask();
            for f in 0..nf {
                let v = l[f];
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(format!("t={}: flow {f} loss {v} outside [0,1]", step.time));
                }
                let k = inst.flow_class(f);
                let p = inst.flow_pair(f);
                let d = inst.demands[k][p] * step.scenario.demand_factor;
                if d <= 0.0 && v != 0.0 {
                    return Err(format!("t={}: zero-demand flow {f} has loss {v}", step.time));
                }
                if d > 0.0 && !inst.tunnels[k].pair_alive(p, &dead) && v != 1.0 {
                    return Err(format!(
                        "t={}: disconnected flow {f} has loss {v}, expected 1",
                        step.time
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Build the scenario for a set of failed units: each failed unit removes
/// its capacity share from every link it affects (shares compose
/// multiplicatively, matching the enumerator), and the probability is the
/// independent product over all units' states.
pub fn scenario_for_failed(units: &[FailureUnit], num_links: usize, failed: &[u32]) -> Scenario {
    let mut cap_factor = vec![1.0; num_links];
    let mut prob = 1.0;
    for (u, unit) in units.iter().enumerate() {
        if failed.contains(&(u as u32)) {
            prob *= unit.prob;
            for &(l, share) in &unit.affects {
                cap_factor[l.index()] *= (1.0 - share).max(0.0);
            }
        } else {
            prob *= 1.0 - unit.prob;
        }
    }
    let mut failed_units = failed.to_vec();
    failed_units.sort_unstable();
    Scenario { failed_units, prob, cap_factor, demand_factor: 1.0 }
}

/// Look up the offline design's per-flow criticality and promised-loss
/// columns for a failure state. Returns `(critical, promised, enumerated)`;
/// when the state was never enumerated offline, falls back to the
/// pessimistic columns (no flow critical, promised loss 1) the controller
/// would use for an unplanned failure.
pub fn design_columns(
    set: &ScenarioSet,
    design: &FlexileDesign,
    failed_units: &[u32],
) -> (Vec<bool>, Vec<f64>, bool) {
    let nf = design.critical.len();
    if let Some(q) = set.scenarios.iter().position(|s| s.failed_units == failed_units) {
        let critical = (0..nf).map(|f| design.critical[f][q]).collect();
        let promised = (0..nf).map(|f| design.offline_loss[f][q]).collect();
        (critical, promised, true)
    } else {
        (vec![false; nf], vec![1.0; nf], false)
    }
}

/// Replay `trace` against the online controller.
///
/// `faults(time)` supplies an optional solver-fault injector for the step
/// at `time`; return `None` for a clean step. Each step carries the
/// previous step's losses as frozen-share state, so a terminal solver
/// failure mid-trace degrades to carry-forward rather than straight to
/// proportional share.
pub fn run_chaos(
    inst: &Instance,
    set: &ScenarioSet,
    design: &FlexileDesign,
    trace: &ChaosTrace,
    mut faults: impl FnMut(u64) -> Option<FaultInjector>,
) -> ChaosReport {
    let mut events = trace.events.clone();
    events.sort_by_key(|e| e.time);
    for e in &events {
        assert!(e.unit < set.units.len(), "event references unit {} of {}", e.unit, set.units.len());
    }

    let mut down: Vec<bool> = vec![false; set.units.len()];
    let mut report = ChaosReport::default();
    let mut prev: Option<Vec<f64>> = None;
    let mut i = 0;
    while i < events.len() {
        let time = events[i].time;
        while i < events.len() && events[i].time == time {
            down[events[i].unit] = events[i].down;
            i += 1;
        }
        let failed: Vec<u32> =
            (0..down.len()).filter(|&u| down[u]).map(|u| u as u32).collect();
        let scenario = scenario_for_failed(&set.units, set.num_links, &failed);
        let (critical, promised, enumerated) = design_columns(set, design, &failed);

        let carry = prev.as_deref();
        // The reaction clock covers exactly the controller's work: from
        // handing over the new failure state to having a full loss vector
        // back. The obs span mirrors it so a trace shows each reaction.
        let mut span = flexile_obs::span("emu.reaction", "emu")
            .field("time", time)
            .field("nfailed", failed.len() as u64)
            .field("enumerated", enumerated);
        let started = std::time::Instant::now();
        let (outcome, faults_injected) = match faults(time) {
            Some(inj) => {
                let (out, used) = fault::with_injector(inj, || {
                    online_allocate_robust(inst, &scenario, &critical, &promised, carry)
                });
                (out, used.injected().len() as u64)
            }
            None => (online_allocate_robust(inst, &scenario, &critical, &promised, carry), 0),
        };
        let reaction = started.elapsed();
        span.set("level", outcome.level.name());
        span.set("faults_injected", faults_injected);
        drop(span);
        flexile_obs::observe("emu.reaction_us", reaction.as_micros() as f64);
        flexile_obs::add("emu.chaos_steps", 1);
        prev = Some(outcome.losses.clone());
        report.steps.push(ChaosStep {
            time,
            failed_units: scenario.failed_units.clone(),
            scenario,
            enumerated,
            outcome,
            faults_injected,
            reaction,
        });
    }
    report
}

// ---------------------------------------------------------------------------
// Offline-decomposition chaos: crash-and-resume cycles
// ---------------------------------------------------------------------------

/// Record of a [`run_with_kills`] crash-and-resume cycle.
#[derive(Debug, Clone)]
pub struct CrashCycleReport {
    /// The final design, after every armed fault fired and every crash was
    /// resumed.
    pub design: FlexileDesign,
    /// Iterations at which armed [`KillPoint::Abort`]s actually unwound
    /// the decomposition, in firing order (repeats are possible: an abort
    /// re-armed for the same iteration fires again after the resume
    /// replays back to it).
    pub aborts: Vec<usize>,
    /// Successful [`decompose_resume`] continuations.
    pub resumes: usize,
    /// Crashes that happened before the first checkpoint existed, forcing
    /// a restart from scratch instead of a resume.
    pub scratch_restarts: usize,
}

/// Drive the offline decomposition through a set of armed kill-points,
/// resuming from the checkpoint after every simulated process death until
/// the run completes.
///
/// [`KillPoint::Worker`] faults are contained inside the pool and need no
/// handling here; [`KillPoint::Abort`] faults unwind `solve_flexile`, are
/// caught (recognized by their [`DecompositionAborted`] payload — any
/// other panic is re-raised), and answered with [`decompose_resume`]. A
/// crash that predates the first checkpoint restarts from scratch, which
/// is exactly what a supervising process would do.
///
/// Kill-points are process-global: callers running tests in parallel must
/// serialize, same as with [`flexile_lp::fault`] injection.
pub fn run_with_kills(
    inst: &Instance,
    set: &ScenarioSet,
    opts: &FlexileOptions,
    kills: &[KillPoint],
) -> Result<CrashCycleReport, CheckpointError> {
    assert!(
        opts.checkpoint_dir.is_some() || kills.iter().all(|k| matches!(k, KillPoint::Worker { .. })),
        "aborts without a checkpoint directory cannot make progress"
    );
    let _guard = killpoints::arm(kills);
    let mut aborts = Vec::new();
    let mut resumes = 0usize;
    let mut scratch_restarts = 0usize;
    let mut next_is_resume = false;
    // Each armed abort fires at most once and each crash costs at most one
    // failed resume attempt, so the cycle terminates within 2·kills + 1
    // passes; the last one is the clean completion.
    for _ in 0..=2 * kills.len() {
        let attempt = if next_is_resume {
            catch_unwind(AssertUnwindSafe(|| decompose_resume(inst, set, opts)))
        } else {
            catch_unwind(AssertUnwindSafe(|| Ok(solve_flexile(inst, set, opts))))
        };
        match attempt {
            Ok(Ok(design)) => {
                if next_is_resume {
                    resumes += 1;
                }
                return Ok(CrashCycleReport { design, aborts, resumes, scratch_restarts });
            }
            // Resume found no checkpoint (the crash predates the first
            // boundary): restart from scratch on the next pass.
            Ok(Err(CheckpointError::Io(_))) => {
                scratch_restarts += 1;
                next_is_resume = false;
            }
            Ok(Err(e)) => return Err(e),
            Err(payload) => match payload.downcast_ref::<DecompositionAborted>() {
                Some(a) => {
                    if next_is_resume {
                        // The resume made progress up to the next armed abort.
                        resumes += 1;
                    }
                    aborts.push(a.iteration);
                    next_is_resume = true;
                }
                // A genuine bug, not chaos: propagate.
                None => resume_unwind(payload),
            },
        }
    }
    unreachable!("more crashes than armed kill-points");
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexile_lp::FaultKind;
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions};
    use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
    use flexile_traffic::{ClassConfig, Instance};

    fn fig1() -> (Instance, ScenarioSet, FlexileDesign) {
        let (inst, set) = fig1_problem();
        // Kill-points are process-global: design under the chaos lock, so
        // a kill armed by a crash-cycle test cannot fire inside this solve.
        let design = {
            let _g = chaos_serial();
            solve_flexile(&inst, &set, &FlexileOptions::default())
        };
        (inst, set, design)
    }

    fn fig1_problem() -> (Instance, ScenarioSet) {
        let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
        let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
        let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
        let inst = Instance {
            topo,
            pairs,
            classes: vec![ClassConfig::single()],
            tunnels: vec![tunnels],
            demands: vec![vec![0.8, 0.8]],
        };
        let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
        let set = enumerate_scenarios(
            &units,
            3,
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 4, coverage_target: 2.0 },
        );
        (inst, set)
    }

    fn fail_recover_trace() -> ChaosTrace {
        ChaosTrace::new()
            .fail(0, 0) // link 0 down
            .fail(1, 1) // link 1 also down
            .recover(2, 0)
            .recover(3, 1) // all healthy again
    }

    #[test]
    fn clean_trace_stays_nominal() {
        let (inst, set, design) = fig1();
        let report = run_chaos(&inst, &set, &design, &fail_recover_trace(), |_| None);
        assert_eq!(report.steps.len(), 4);
        assert_eq!(report.worst(), DegradationLevel::None);
        assert_eq!(report.faults_injected(), 0);
        report.check_invariants(&inst).unwrap();
    }

    #[test]
    fn transient_faults_recover_without_degrading_losses() {
        let (inst, set, design) = fig1();
        let clean = run_chaos(&inst, &set, &design, &fail_recover_trace(), |_| None);
        let chaotic = run_chaos(&inst, &set, &design, &fail_recover_trace(), |t| {
            // One numerical fault on the first solve of every even step.
            (t % 2 == 0).then(|| FaultInjector::new().at(0, FaultKind::Numerical))
        });
        assert!(chaotic.faults_injected() > 0);
        assert_eq!(chaotic.worst(), DegradationLevel::SolverRecovered);
        chaotic.check_invariants(&inst).unwrap();
        // The ladder re-solves to the same optimum: losses are unchanged.
        for (a, b) in clean.steps.iter().zip(&chaotic.steps) {
            assert_eq!(a.outcome.losses, b.outcome.losses, "t={}", a.time);
        }
    }

    #[test]
    fn persistent_faults_degrade_to_carry_forward_mid_trace() {
        let (inst, set, design) = fig1();
        // Step 0 is clean (establishes carry state); step 1 still has live
        // pairs (so the waterfill must solve) but the solver is hopeless.
        let trace = ChaosTrace::new().fail(0, 0).recover(1, 0);
        let report = run_chaos(&inst, &set, &design, &trace, |t| {
            (t == 1).then(|| FaultInjector::always(FaultKind::Numerical))
        });
        assert_eq!(report.steps[1].outcome.level, DegradationLevel::FrozenCarryForward);
        report.check_invariants(&inst).unwrap();
    }

    #[test]
    fn persistent_faults_on_first_step_use_proportional_share() {
        let (inst, set, design) = fig1();
        let report = run_chaos(&inst, &set, &design, &fail_recover_trace(), |t| {
            (t == 0).then(|| FaultInjector::always(FaultKind::DeadlineExceeded))
        });
        assert_eq!(report.steps[0].outcome.level, DegradationLevel::ProportionalShare);
        // The next (clean) step recovers to the nominal pipeline.
        assert_eq!(report.steps[1].outcome.level, DegradationLevel::None);
        report.check_invariants(&inst).unwrap();
    }

    #[test]
    fn unenumerated_failure_state_uses_pessimistic_columns() {
        let (inst, set, design) = fig1();
        // Fail two units at once; fig1's 4-scenario set only enumerates
        // the all-alive state and single failures.
        let trace = ChaosTrace::new().fail(0, 0).fail(0, 1);
        let report = run_chaos(&inst, &set, &design, &trace, |_| None);
        assert_eq!(report.steps.len(), 1);
        assert!(!report.steps[0].enumerated);
        assert_eq!(report.steps[0].failed_units, vec![0, 1]);
        report.check_invariants(&inst).unwrap();
    }

    #[test]
    fn scenario_construction_matches_enumerator() {
        let (_, set, _) = fig1();
        for scen in &set.scenarios {
            let built = scenario_for_failed(&set.units, set.num_links, &scen.failed_units);
            assert_eq!(built.failed_units, scen.failed_units);
            assert_eq!(built.cap_factor, scen.cap_factor);
            assert!((built.prob - scen.prob).abs() < 1e-12);
        }
    }

    // -- crash-and-resume cycles --------------------------------------------

    /// Kill-points are process-global; these tests serialize on one lock
    /// and silence the default panic printer for chaos panics only.
    static CHAOS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn chaos_serial() -> std::sync::MutexGuard<'static, ()> {
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let p = info.payload();
                let chaos = p.downcast_ref::<DecompositionAborted>().is_some()
                    || p.downcast_ref::<String>()
                        .is_some_and(|m| m.starts_with("chaos kill-point"));
                if !chaos {
                    prev(info);
                }
            }));
        });
        CHAOS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir()
            .join(format!("flexile-emu-chaos-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn bits(d: &FlexileDesign) -> (u64, Vec<Vec<bool>>) {
        (d.penalty.to_bits(), d.critical.clone())
    }

    /// Fig. 1 with the explicit 99% requirement and full-unit demands: the
    /// master has slack to shed criticality, so the decomposition runs
    /// multiple iterations and iteration-2 kill-points actually fire.
    fn fig1_iterating() -> (Instance, ScenarioSet) {
        let (mut inst, _) = fig1_problem();
        inst.classes[0].beta = 0.99;
        inst.demands = vec![vec![1.0, 1.0]];
        let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
        let set = enumerate_scenarios(
            &units,
            3,
            &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
        );
        (inst, set)
    }

    #[test]
    fn repeated_crash_at_same_iteration_resumes_to_identical_design() {
        let _g = chaos_serial();
        let (inst, set) = fig1_iterating();
        let clean = solve_flexile(&inst, &set, &FlexileOptions::default());
        let dir = ckpt_dir("repeat");
        let opts = FlexileOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..Default::default()
        };
        // Two aborts armed for the same iteration: the resume replays back
        // to iteration 2 and dies there a second time before completing.
        let kills =
            [KillPoint::Abort { iteration: 2 }, KillPoint::Abort { iteration: 2 }];
        let report = run_with_kills(&inst, &set, &opts, &kills).expect("cycle completes");
        assert_eq!(report.aborts, vec![2, 2]);
        assert_eq!(report.resumes, 2);
        assert_eq!(report.scratch_restarts, 0);
        assert_eq!(bits(&report.design), bits(&clean), "resumed design diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_first_checkpoint_restarts_from_scratch() {
        let _g = chaos_serial();
        let (inst, set) = fig1_iterating();
        let clean = solve_flexile(&inst, &set, &FlexileOptions::default());
        let dir = ckpt_dir("scratch");
        let opts = FlexileOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..Default::default()
        };
        let kills = [KillPoint::Abort { iteration: 1 }];
        let report = run_with_kills(&inst, &set, &opts, &kills).expect("cycle completes");
        assert_eq!(report.aborts, vec![1]);
        assert_eq!(report.scratch_restarts, 1);
        assert_eq!(report.resumes, 0);
        assert_eq!(bits(&report.design), bits(&clean));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_kills_mixed_with_aborts_still_converge() {
        let _g = chaos_serial();
        let (inst, set) = fig1_iterating();
        let dir = ckpt_dir("mixed");
        let opts = FlexileOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..Default::default()
        };
        let kills = [
            KillPoint::Worker { iteration: 1, scenario: 0 },
            KillPoint::Abort { iteration: 2 },
            KillPoint::Worker { iteration: 2, scenario: 1 },
        ];
        let report = run_with_kills(&inst, &set, &opts, &kills).expect("cycle completes");
        assert_eq!(report.aborts, vec![2]);
        assert!(report.design.penalty < 1e-6, "penalty {}", report.design.penalty);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
