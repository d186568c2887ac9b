//! Crash-safety acceptance tests: kill-point chaos, panic containment,
//! quarantine exhaustion, and checkpoint/resume bit-identity.
//!
//! * **Worker kill sweep** — a worker panic at any (iteration, scenario) is
//!   contained, quarantined, retried from its donor basis on a rebuilt
//!   model, and the decomposition still converges; a panic in iteration 1
//!   (where every solve is a first solve from the donor anyway) leaves the
//!   output bit-identical.
//! * **Abort + resume** — an abort that unwinds the whole decomposition
//!   mid-iteration (simulated process death) leaves a valid checkpoint from
//!   the previous boundary, and [`decompose_resume`] continues to a final
//!   design bit-identical to an uninterrupted run — including across a
//!   different thread count — because the checkpoint stores each resident
//!   slot's warm basis and resume reinstalls it without solving. One
//!   input has more scenarios than the pool keeps warm bases for and
//!   checkpoints after a contained worker panic, so its checkpoint stores
//!   a quarantined-and-rebuilt slot next to evicted and retired ones.
//! * **Zero-fault identity** — checkpointing on (any cadence) vs. off does
//!   not perturb the trajectory by a single bit.
//!
//! Kill-points and the obs sink are process-global, so every test here
//! serializes on one mutex.

use flexile_core::checkpoint::{checkpoint_path, read_checkpoint};
use flexile_core::{
    decompose_resume, solve_flexile, CheckpointError, DecompositionAborted, FlexileDesign,
    FlexileOptions, KillPoint, PoolPolicy, MAX_PANIC_RETRIES,
};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
use flexile_traffic::{ClassConfig, Instance};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, Once};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialize the test and silence the default panic printer for *chaos*
/// panics only (armed kill-points fire dozens of times per sweep; real
/// assertion failures still print).
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<DecompositionAborted>().is_some() {
                return;
            }
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.starts_with("chaos kill-point")) {
                return;
            }
            prev(info);
        }));
    });
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

/// The paper's Fig. 1 triangle with the explicit 99% requirement.
fn fig1_setup() -> (Instance, ScenarioSet) {
    let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
    let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
    let mut inst = Instance {
        topo,
        pairs,
        classes: vec![ClassConfig::single()],
        tunnels: vec![tunnels],
        demands: vec![vec![1.0, 1.0]],
    };
    inst.classes[0].beta = 0.99;
    let units = link_units(&inst.topo, &[0.01, 0.01, 0.01]);
    let set = enumerate_scenarios(
        &units,
        3,
        &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
    );
    (inst, set)
}

/// The Fig. 1 set repeated 600 times at 1/600 of each probability: 4 800
/// scenarios, 4 200 of them never perfect, so after iteration 1 more
/// warm bases are live than the pool's residency budget (4 096) keeps.
fn fig1_wide_setup() -> (Instance, ScenarioSet) {
    let (inst, mut set) = fig1_setup();
    let copies = 600;
    let once = std::mem::take(&mut set.scenarios);
    set.scenarios = (0..copies)
        .flat_map(|_| once.iter().cloned())
        .map(|mut s| {
            s.prob /= copies as f64;
            s
        })
        .collect();
    (inst, set)
}

/// Trimmed Sprint instance (same shape as tests/pool.rs): real topology,
/// β below max-feasible so the decomposition actually iterates.
fn sprint_setup() -> (Instance, ScenarioSet) {
    let topo = flexile_topo::topology_by_name("Sprint").expect("Sprint is in the zoo");
    let probs = flexile_scenario::link_failure_probs(
        topo.num_links(),
        flexile_scenario::weibull::DEFAULT_SHAPE,
        flexile_scenario::weibull::DEFAULT_MEDIAN,
        42,
    );
    let units = link_units(&topo, &probs);
    let set = enumerate_scenarios(
        &units,
        topo.num_links(),
        &EnumOptions { prob_cutoff: 1e-6, max_scenarios: 12, coverage_target: 0.9999 },
    );
    let mut inst = Instance::single_class(topo, 7, 0.95, Some(6));
    inst.classes[0].beta = 0.99;
    (inst, set)
}

fn design_bits(d: &FlexileDesign) -> (u64, Vec<Vec<bool>>, Vec<u64>, Vec<u64>) {
    (
        d.penalty.to_bits(),
        d.critical.clone(),
        d.alpha.iter().map(|v| v.to_bits()).collect(),
        d.offline_loss.iter().flatten().map(|v| v.to_bits()).collect(),
    )
}

fn assert_monotone(d: &FlexileDesign, what: &str) {
    for w in d.iterations.windows(2) {
        assert!(w[1].penalty <= w[0].penalty + 1e-12, "{what}: incumbent worsened");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("flexile-crash-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run the decomposition expecting an armed Abort to unwind it; returns the
/// fired iteration from the typed panic payload.
fn run_until_abort(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions) -> usize {
    let err = panic::catch_unwind(AssertUnwindSafe(|| solve_flexile(inst, set, opts)))
        .expect_err("armed abort must unwind the decomposition");
    err.downcast_ref::<DecompositionAborted>()
        .expect("abort payload must be DecompositionAborted")
        .iteration
}

// ---------------------------------------------------------------------------
// Worker kill sweep
// ---------------------------------------------------------------------------

#[test]
fn worker_kill_sweep_fig1() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let opts = FlexileOptions::default();
    let reference = solve_flexile(&inst, &set, &opts);
    let ref_bits = design_bits(&reference);
    assert!(reference.penalty < 1e-6);
    let iters = reference.iterations.len();
    let nq = set.scenarios.len();

    let mut fired = 0usize;
    for it in 1..=iters {
        for q in 0..nq {
            let guard = flexile_core::killpoints::arm(&[KillPoint::Worker {
                iteration: it,
                scenario: q,
            }]);
            let d = solve_flexile(&inst, &set, &opts);
            // A kill aimed at a pruned scenario never fires; count the ones
            // that did so the sweep provably exercised containment.
            if flexile_core::killpoints::disarm().is_empty() {
                fired += 1;
            }
            drop(guard);
            assert!(
                d.penalty < 1e-6,
                "kill (it {it}, scen {q}): penalty {} after containment",
                d.penalty
            );
            assert_monotone(&d, "worker kill");
            if it == 1 {
                // In iteration 1 every scenario makes its first solve, a
                // dual restart from its demand factor's donor basis. The
                // quarantined retry restarts from the same donor on a
                // rebuilt model and repeats that solve, so the whole run
                // is bit-identical.
                assert_eq!(
                    design_bits(&d),
                    ref_bits,
                    "iteration-1 kill (scen {q}) must not perturb the output"
                );
            }
        }
    }
    assert!(fired >= nq, "sweep must actually fire kill-points (fired {fired})");
}

#[test]
fn worker_kill_sprint_emits_containment_telemetry() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { max_iterations: 3, ..Default::default() };
    let reference = solve_flexile(&inst, &set, &opts);
    assert!(reference.iterations.len() >= 2, "setup must iterate");

    for (it, q) in [(1usize, 0usize), (2, 0), (2, 5), (2, 11)] {
        let _k = flexile_core::killpoints::arm(&[KillPoint::Worker { iteration: it, scenario: q }]);
        flexile_obs::enable();
        let d = solve_flexile(&inst, &set, &opts);
        flexile_obs::disable();
        let t = flexile_obs::drain();
        let fired = flexile_core::killpoints::disarm().is_empty();
        assert!(d.penalty.is_finite() && d.penalty >= 0.0);
        assert_monotone(&d, "sprint kill");
        if it == 1 {
            assert_eq!(design_bits(&d), design_bits(&reference), "first-iteration kill");
        }
        if fired {
            let counter = |n: &str| t.counters.get(n).copied().unwrap_or(0);
            assert_eq!(counter("flexile.worker_panic"), 1, "kill (it {it}, scen {q})");
            assert_eq!(counter("flexile.scenario_quarantined"), 1);
            assert_eq!(counter("flexile.scenario_poisoned"), 0, "one panic must not poison");
            assert_eq!(counter("obs.flight_dump"), 2, "panic + quarantine each dump");
            let dump = flexile_obs::flight::last().expect("flight dump retained");
            assert!(dump.starts_with("{\"type\":\"flight\",\"reason\":\"scenario_quarantined\""));
            if it == 2 {
                // By iteration 2 the rings hold real pre-crash history:
                // completed subproblem spans from iteration 1.
                assert!(
                    dump.contains("\"flexile.subproblem\""),
                    "iteration-2 black box holds pre-crash spans (it {it}, scen {q})"
                );
            }
            flexile_obs::flight::clear_last();
        }
    }
}

#[test]
fn retry_exhaustion_poisons_scenario_but_run_survives() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let p = KillPoint::Worker { iteration: 1, scenario: 0 };
    // One more armed panic than the pool retries: every attempt dies.
    let kills = vec![p; MAX_PANIC_RETRIES as usize + 1];
    let _k = flexile_core::killpoints::arm(&kills);
    flexile_obs::flight::clear_last();
    flexile_obs::enable();
    let d = solve_flexile(&inst, &set, &FlexileOptions::default());
    flexile_obs::disable();
    let t = flexile_obs::drain();
    assert!(
        flexile_core::killpoints::disarm().is_empty(),
        "all armed kills must have fired"
    );
    let counter = |n: &str| t.counters.get(n).copied().unwrap_or(0);
    assert_eq!(counter("flexile.worker_panic"), MAX_PANIC_RETRIES as u64 + 1);
    assert_eq!(counter("flexile.scenario_quarantined"), MAX_PANIC_RETRIES as u64 + 1);
    assert_eq!(counter("flexile.scenario_poisoned"), 1);
    // Every contained failure ships its black box: a flight-recorder dump
    // per worker_panic and per quarantine, holding the pre-crash events.
    assert_eq!(counter("obs.flight_dump"), 2 * (MAX_PANIC_RETRIES as u64 + 1));
    let dump = flexile_obs::flight::last().expect("crash produced a flight dump");
    // The kill fires on the very first solve, before any span completed:
    // the black box honestly reports its (empty) pre-crash history. The
    // iteration-2 Sprint kills below exercise a populated ring.
    assert!(dump.starts_with("{\"type\":\"flight\",\"reason\":\"scenario_quarantined\""));
    flexile_obs::flight::clear_last();
    // Degraded, not dead: the run completed, losses for the poisoned
    // scenario were pessimistic for that iteration, stats stay monotone.
    assert!(d.penalty.is_finite() && (0.0..=1.0 + 1e-9).contains(&d.penalty));
    assert_monotone(&d, "poisoned run");
    assert!(!d.iterations.is_empty());
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

#[test]
fn checkpointing_does_not_perturb_trajectory() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let plain = design_bits(&solve_flexile(&inst, &set, &FlexileOptions::default()));
    for every in [1usize, 5] {
        let dir = temp_dir(&format!("zerofault-{every}"));
        let opts = FlexileOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: every,
            ..Default::default()
        };
        let d = solve_flexile(&inst, &set, &opts);
        assert_eq!(design_bits(&d), plain, "checkpoint_every={every} perturbed the run");
        // The final (done) checkpoint is always written; resuming from it
        // reconstructs the same design without solving anything.
        let resumed = decompose_resume(&inst, &set, &opts).expect("resume done state");
        assert_eq!(design_bits(&resumed), plain, "done-state resume");
        assert_eq!(resumed.iterations, d.iterations);
        let ck = read_checkpoint(&checkpoint_path(&dir)).expect("final checkpoint");
        assert!(ck.done);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn abort_and_resume_is_bit_identical_fig1() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let dir = temp_dir("fig1-ref");
    let mk = |d: &PathBuf| FlexileOptions {
        checkpoint_dir: Some(d.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    let reference = solve_flexile(&inst, &set, &mk(&dir));
    let ref_bits = design_bits(&reference);
    let _ = std::fs::remove_dir_all(&dir);
    let iters = reference.iterations.len();
    assert!(iters >= 2, "fig1 must iterate for the abort sweep");

    for ab in 2..=iters {
        let dir = temp_dir(&format!("fig1-ab{ab}"));
        let opts = mk(&dir);
        let _k = flexile_core::killpoints::arm(&[KillPoint::Abort { iteration: ab }]);
        let fired_at = run_until_abort(&inst, &set, &opts);
        assert_eq!(fired_at, ab);
        // The checkpoint on disk is from the *previous* boundary.
        let ck = read_checkpoint(&checkpoint_path(&dir)).expect("boundary checkpoint");
        assert_eq!(ck.it, ab - 1);
        assert!(!ck.done);

        flexile_obs::enable();
        let resumed = decompose_resume(&inst, &set, &opts).expect("resume");
        flexile_obs::disable();
        let t = flexile_obs::drain();
        assert_eq!(design_bits(&resumed), ref_bits, "resume after abort at it {ab}");
        assert_eq!(resumed.iterations, reference.iterations, "stat trajectory spliced");
        assert_monotone(&resumed, "resumed run");
        assert!(t.counters.get("flexile.checkpoint_restore").copied().unwrap_or(0) >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn abort_and_resume_is_bit_identical_sprint_across_threads() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let dir = temp_dir("sprint-ref");
    let mk = |d: &PathBuf, threads: usize| FlexileOptions {
        max_iterations: 3,
        threads,
        checkpoint_dir: Some(d.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    let reference = solve_flexile(&inst, &set, &mk(&dir, 8));
    let ref_bits = design_bits(&reference);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(reference.iterations.len() >= 2, "setup must iterate");

    for ab in 2..=reference.iterations.len() {
        let dir = temp_dir(&format!("sprint-ab{ab}"));
        let _k = flexile_core::killpoints::arm(&[KillPoint::Abort { iteration: ab }]);
        assert_eq!(run_until_abort(&inst, &set, &mk(&dir, 8)), ab);
        // Resume under a *different* thread count: scenario state is
        // per-scenario, not per-worker, so the restored warm bases — and
        // the continuation — are identical anyway. (Thread count is
        // excluded from the options fingerprint for exactly this reason.)
        let resumed = decompose_resume(&inst, &set, &mk(&dir, 1)).expect("resume");
        assert_eq!(design_bits(&resumed), ref_bits, "abort at it {ab}, resumed 1-threaded");
        assert_eq!(resumed.iterations, reference.iterations);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_after_quarantine_and_eviction_is_bit_identical() {
    let _g = exclusive();
    let (inst, set) = fig1_wide_setup();
    let mk = |d: &PathBuf, threads: usize| FlexileOptions {
        threads,
        checkpoint_dir: Some(d.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    // The uninterrupted run takes the same contained panic: the last copy
    // of scenario 1 (the lowest indices are the ones evicted) has its
    // first solve retried from its donor basis on a rebuilt model.
    let q = set.scenarios.len() - 7;
    let kill = KillPoint::Worker { iteration: 1, scenario: q };
    let dir = temp_dir("wide-ref");
    let reference = {
        let _k = flexile_core::killpoints::arm(&[kill]);
        let d = solve_flexile(&inst, &set, &mk(&dir, 4));
        assert!(flexile_core::killpoints::disarm().is_empty(), "the worker kill fired");
        d
    };
    let _ = std::fs::remove_dir_all(&dir);
    assert!(reference.iterations.len() >= 2, "setup must iterate");

    let dir = temp_dir("wide");
    {
        let _k = flexile_core::killpoints::arm(&[kill, KillPoint::Abort { iteration: 2 }]);
        assert_eq!(run_until_abort(&inst, &set, &mk(&dir, 4)), 2);
        assert!(flexile_core::killpoints::disarm().is_empty(), "both kills fired");
    }
    let ck_path = checkpoint_path(&dir);
    let ck = read_checkpoint(&ck_path).expect("iteration-1 checkpoint");
    assert_eq!(ck.it, 1);
    assert!(matches!(ck.bases[q], Some(Some(_))), "the retried slot is stored warm");
    let absent = |perfect: bool| {
        (0..ck.nq).filter(|&s| ck.bases[s].is_none() && ck.perfect[s] == perfect).count()
    };
    assert!(absent(true) > 0, "retired slots are stored absent");
    assert!(absent(false) > 0, "evicted slots are stored absent");

    for threads in [1, 4] {
        // Each resume continues from its own copy: a resume overwrites the
        // checkpoint it finishes.
        let run = temp_dir(&format!("wide-t{threads}"));
        std::fs::create_dir_all(&run).expect("dir");
        std::fs::copy(&ck_path, checkpoint_path(&run)).expect("copy checkpoint");
        flexile_obs::enable();
        let resumed = decompose_resume(&inst, &set, &mk(&run, threads)).expect("resume");
        flexile_obs::disable();
        let t = flexile_obs::drain();
        assert_eq!(design_bits(&resumed), design_bits(&reference), "resumed at {threads} threads");
        assert_eq!(resumed.iterations, reference.iterations);
        // Before the first resumed iteration, the only LPs solved are the
        // donors: reinstalling the stored bases solves nothing.
        let first_iteration = t.events_named("flexile.iteration").map(|e| e.ts_us).min();
        let donors: Vec<(u64, u64)> =
            t.events_named("flexile.donor").map(|d| (d.ts_us, d.ts_us + d.dur_us)).collect();
        assert!(!donors.is_empty());
        for s in t.events_named("lp.solve").filter(|e| Some(e.ts_us) < first_iteration) {
            assert!(
                donors.iter().any(|&(from, to)| from <= s.ts_us && s.ts_us + s.dur_us <= to),
                "an LP outside the donor solves ran before the first resumed iteration"
            );
        }
        let _ = std::fs::remove_dir_all(&run);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_before_first_checkpoint_leaves_nothing_to_resume() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let dir = temp_dir("ab1");
    let opts = FlexileOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    let _k = flexile_core::killpoints::arm(&[KillPoint::Abort { iteration: 1 }]);
    assert_eq!(run_until_abort(&inst, &set, &opts), 1);
    match decompose_resume(&inst, &set, &opts) {
        Err(CheckpointError::Io(_)) => {}
        other => panic!("expected Io (no checkpoint yet), got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_mismatched_problem_or_options() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let dir = temp_dir("mismatch");
    let opts = FlexileOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    // Leave a mid-run checkpoint behind.
    let _k = flexile_core::killpoints::arm(&[KillPoint::Abort { iteration: 2 }]);
    assert_eq!(run_until_abort(&inst, &set, &opts), 2);

    // Different problem: harden the SLO → different β → different design.
    let mut other_inst = inst.clone();
    other_inst.classes[0].beta = 0.95;
    assert!(matches!(
        decompose_resume(&other_inst, &set, &opts),
        Err(CheckpointError::ProblemMismatch { .. })
    ));

    // A different γ: the search component names the drift.
    let other_opts = FlexileOptions { gamma: Some(0.2), ..opts.clone() };
    assert!(matches!(
        decompose_resume(&inst, &set, &other_opts),
        Err(CheckpointError::OptionsMismatch { component: "search" })
    ));

    // A different pool policy: the pool_policy component names the drift.
    let colder = FlexileOptions { pool: PoolPolicy::Cold, ..opts.clone() };
    assert!(matches!(
        decompose_resume(&inst, &set, &colder),
        Err(CheckpointError::OptionsMismatch { component: "pool_policy" })
    ));

    // No directory configured at all.
    let bare = FlexileOptions::default();
    assert!(matches!(
        decompose_resume(&inst, &set, &bare),
        Err(CheckpointError::NoCheckpointConfigured)
    ));

    // The matching configuration still resumes fine.
    let resumed = decompose_resume(&inst, &set, &opts).expect("matching resume");
    assert!(resumed.penalty < 1e-6);
    let _ = std::fs::remove_dir_all(&dir);
}
