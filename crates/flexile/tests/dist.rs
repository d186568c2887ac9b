//! Distributed-substrate acceptance tests: the coordinator/worker fleet
//! must produce designs **bit-identical** to the in-process pool at any
//! worker count, and keep doing so while workers die (SIGKILL-equivalent
//! aborts), hang (heartbeat stalls), or corrupt frames mid-iteration.
//!
//! * **Parity** — `solve_flexile_dist` at 1/2/3 workers equals
//!   `solve_flexile` bit for bit (penalty, criticality, α, losses).
//! * **Chaos** — process death, a whole-process stall, and result-frame
//!   corruption at iteration 2 (warm templates in play, so the chain
//!   replay is exercised) all converge to the same bits, with the
//!   expected robustness counters fired.
//! * **Degradation** — zero workers, or every worker quarantined
//!   mid-wave, falls back to in-process solving and still converges to
//!   the same bits (`flexile.dist_fallback`).
//! * **Resume + handshake hygiene** — `decompose_resume_dist` continues a
//!   checkpoint bit-identically; a changed pool policy is
//!   refused by both resume engines and by the worker handshake with a
//!   typed error naming the component, in both directions.
//!
//! Workers are this test binary re-exec'd with `--exact dist_worker_main`
//! (the hook below), so the suite needs no auxiliary binary. The obs sink
//! is process-global; every test serializes on one mutex.

use flexile_core::checkpoint::{options_fingerprint_parts, problem_fingerprint_parts};
use flexile_core::dist::frame::{Hello, WireKnobs, WireProblem};
use flexile_core::dist::verify_hello;
use flexile_core::killpoints::{arm, to_env};
use flexile_core::{
    decompose_resume, decompose_resume_dist, solve_flexile, solve_flexile_dist, CheckpointError,
    DecompositionAborted, DistError, DistOptions, FlexileDesign, FlexileOptions, KillPoint,
    PoolPolicy, WorkerSpec, ANY_SCENARIO,
};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{NodeId, Topology, TunnelClass, TunnelSet};
use flexile_traffic::{ClassConfig, Instance};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    flexile_obs::disable();
    let _ = flexile_obs::drain();
    guard
}

/// Worker-process hook: the coordinator re-execs this test binary with
/// `--exact dist_worker_main`, so in a spawned worker the dist environment
/// is set and this "test" becomes the worker's main. In a normal suite run
/// the environment is absent and it is a no-op pass.
#[test]
fn dist_worker_main() {
    if std::env::var(flexile_core::dist::CONNECT_ENV).is_err() {
        return;
    }
    if let Err(e) = flexile_core::worker_entry() {
        eprintln!("dist worker exited with error: {e}");
    }
}

fn worker_spec() -> WorkerSpec {
    WorkerSpec::CurrentExe {
        args: vec!["--exact".into(), "dist_worker_main".into(), "--nocapture".into()],
    }
}

/// The paper's Fig. 1 triangle with the explicit 99% requirement (same
/// shape as tests/crash.rs, so iteration structure is known to iterate).
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

/// Trimmed Sprint instance: β below max-feasible so the decomposition
/// iterates and iteration 2 carries warm templates (chain replay on
/// reassignment is actually exercised).
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

fn counter(t: &flexile_obs::Telemetry, name: &str) -> u64 {
    t.counters.get(name).copied().unwrap_or(0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("flexile-dist-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    d
}

// ---------------------------------------------------------------------------
// Parity
// ---------------------------------------------------------------------------

#[test]
fn parity_matches_in_process_at_any_worker_count() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let opts = FlexileOptions::default();
    let reference = solve_flexile(&inst, &set, &opts);
    let ref_bits = design_bits(&reference);
    for workers in 1..=3usize {
        let dopts = DistOptions::new(workers, worker_spec());
        let d = solve_flexile_dist(&inst, &set, &opts, &dopts)
            .unwrap_or_else(|e| panic!("dist solve with {workers} workers: {e}"));
        assert_eq!(design_bits(&d), ref_bits, "{workers}-worker fleet diverged from in-process");
        assert_eq!(
            format!("{:.17e}", d.penalty),
            format!("{:.17e}", reference.penalty),
            "penalty string mismatch at {workers} workers"
        );
    }
}

// ---------------------------------------------------------------------------
// Chaos: death, hang, corruption
// ---------------------------------------------------------------------------

#[test]
fn worker_death_mid_iteration_is_bit_identical() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { max_iterations: 3, ..Default::default() };
    let reference = solve_flexile(&inst, &set, &opts);
    assert!(reference.iterations.len() >= 2, "setup must iterate");

    let mut dopts = DistOptions::new(3, worker_spec());
    // Slot 0 aborts its process on the first assignment it handles in
    // iteration 2 — the dist equivalent of SIGKILL mid-solve.
    dopts.chaos =
        vec![(0, to_env(&[KillPoint::ProcExit { iteration: 2, scenario: ANY_SCENARIO }]))];
    flexile_obs::enable();
    let d = solve_flexile_dist(&inst, &set, &opts, &dopts).expect("dist solve under kill");
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(design_bits(&d), design_bits(&reference), "worker death changed the design");
    assert_eq!(counter(&t, "flexile.dist_worker_dead"), 1, "exactly one death: {:?}", t.counters);
    assert_eq!(counter(&t, "flexile.dist_worker_restart"), 1, "the dead slot respawns once");
    assert!(counter(&t, "flexile.dist_reassigned") >= 1, "its pending share must move");
    assert_eq!(counter(&t, "flexile.dist_workers_spawned"), 4, "3 initial + 1 respawn");
    assert_eq!(counter(&t, "flexile.dist_fallback"), 0);
}

#[test]
fn heartbeat_stall_is_detected_and_bit_identical() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { max_iterations: 3, ..Default::default() };
    let reference = solve_flexile(&inst, &set, &opts);

    let mut dopts = DistOptions::new(3, worker_spec());
    dopts.heartbeat = std::time::Duration::from_millis(25);
    dopts.deadline = std::time::Duration::from_millis(600);
    // Slot 0 hangs (heartbeats stop, main loop sleeps forever) at its
    // first iteration-2 assignment; only the deadline can catch this.
    dopts.chaos = vec![(0, to_env(&[KillPoint::HeartbeatStall { iteration: 2 }]))];
    flexile_obs::enable();
    let d = solve_flexile_dist(&inst, &set, &opts, &dopts).expect("dist solve under stall");
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(design_bits(&d), design_bits(&reference), "stall changed the design");
    assert_eq!(counter(&t, "flexile.dist_heartbeat_stall"), 1, "{:?}", t.counters);
    assert_eq!(counter(&t, "flexile.dist_worker_dead"), 1, "the hung worker is killed");
    assert!(counter(&t, "flexile.dist_reassigned") >= 1);
    assert_eq!(counter(&t, "flexile.dist_fallback"), 0);
}

#[test]
fn corrupted_result_frame_is_contained_and_bit_identical() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { max_iterations: 3, ..Default::default() };
    let reference = solve_flexile(&inst, &set, &opts);

    let mut dopts = DistOptions::new(3, worker_spec());
    // Slot 0 flips a checksum byte in its first iteration-2 result frame;
    // the coordinator's frame validation must catch it, condemn the
    // connection, and re-derive the scenario elsewhere.
    dopts.chaos =
        vec![(0, to_env(&[KillPoint::FrameCorrupt { iteration: 2, scenario: ANY_SCENARIO }]))];
    flexile_obs::enable();
    let d = solve_flexile_dist(&inst, &set, &opts, &dopts).expect("dist solve under corruption");
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(design_bits(&d), design_bits(&reference), "corruption changed the design");
    assert_eq!(counter(&t, "flexile.dist_frame_corrupt"), 1, "{:?}", t.counters);
    assert_eq!(counter(&t, "flexile.dist_worker_dead"), 1, "corrupt stream is condemned");
    assert!(counter(&t, "flexile.dist_reassigned") >= 1, "the corrupted result is re-derived");
    assert_eq!(counter(&t, "flexile.dist_fallback"), 0);
}

// ---------------------------------------------------------------------------
// Degradation
// ---------------------------------------------------------------------------

#[test]
fn zero_workers_degrades_and_converges() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let opts = FlexileOptions::default();
    let reference = solve_flexile(&inst, &set, &opts);

    let dopts = DistOptions::new(0, worker_spec());
    flexile_obs::enable();
    let d = solve_flexile_dist(&inst, &set, &opts, &dopts).expect("degraded solve");
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(design_bits(&d), design_bits(&reference), "degraded path diverged");
    assert_eq!(counter(&t, "flexile.dist_fallback"), 1, "{:?}", t.counters);
    assert_eq!(counter(&t, "flexile.dist_workers_spawned"), 0);
}

#[test]
fn losing_every_worker_mid_run_degrades_and_converges() {
    let _g = exclusive();
    let (inst, set) = sprint_setup();
    let opts = FlexileOptions { max_iterations: 3, ..Default::default() };
    let reference = solve_flexile(&inst, &set, &opts);

    let mut dopts = DistOptions::new(2, worker_spec());
    dopts.max_restarts = 0;
    let spec = to_env(&[KillPoint::ProcExit { iteration: 2, scenario: ANY_SCENARIO }]);
    dopts.chaos = vec![(0, spec.clone()), (1, spec)];
    flexile_obs::enable();
    let d = solve_flexile_dist(&inst, &set, &opts, &dopts).expect("solve surviving total loss");
    flexile_obs::disable();
    let t = flexile_obs::drain();

    assert_eq!(design_bits(&d), design_bits(&reference), "total worker loss changed the design");
    assert_eq!(counter(&t, "flexile.dist_worker_dead"), 2, "{:?}", t.counters);
    assert_eq!(counter(&t, "flexile.dist_worker_quarantined"), 2, "max_restarts=0 quarantines");
    assert_eq!(counter(&t, "flexile.dist_worker_restart"), 0);
    assert_eq!(counter(&t, "flexile.dist_fallback"), 1, "coordinator re-warms in-process");
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

/// Leave a mid-run checkpoint behind by aborting the in-process run.
fn abort_at(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions, it: usize) {
    let _k = arm(&[KillPoint::Abort { iteration: it }]);
    let err = panic::catch_unwind(AssertUnwindSafe(|| solve_flexile(inst, set, opts)))
        .expect_err("armed abort must unwind");
    assert_eq!(
        err.downcast_ref::<DecompositionAborted>().expect("typed abort payload").iteration,
        it
    );
}

#[test]
fn resume_dist_continues_bit_identically() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let dir = temp_dir("resume");
    let mk = |d: Option<PathBuf>| FlexileOptions {
        checkpoint_dir: d,
        checkpoint_every: 1,
        ..Default::default()
    };
    let reference = solve_flexile(&inst, &set, &mk(None));
    assert!(reference.iterations.len() >= 2, "fig1 must iterate");

    abort_at(&inst, &set, &mk(Some(dir.clone())), 2);
    let dopts = DistOptions::new(2, worker_spec());
    let resumed = decompose_resume_dist(&inst, &set, &mk(Some(dir.clone())), &dopts)
        .expect("dist resume from checkpoint");
    assert_eq!(
        design_bits(&resumed),
        design_bits(&reference),
        "dist resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_resume_engines_refuse_pool_config_drift() {
    let _g = exclusive();
    let (inst, set) = fig1_setup();
    let dir = temp_dir("drift");
    let base = FlexileOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    abort_at(&inst, &set, &base, 2);

    let colder = FlexileOptions { pool: PoolPolicy::Cold, ..base.clone() };

    // In-process resume names the diverging pool-config component...
    assert!(matches!(
        decompose_resume(&inst, &set, &colder),
        Err(CheckpointError::PoolConfigMismatch { component: "pool_policy" })
    ));
    // ...and the distributed engine surfaces the identical typed error.
    let dopts = DistOptions::new(1, worker_spec());
    assert!(matches!(
        decompose_resume_dist(&inst, &set, &colder, &dopts),
        Err(DistError::Checkpoint(CheckpointError::PoolConfigMismatch {
            component: "pool_policy"
        }))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// A coordinator-faithful hello for the fig1 problem and given options.
fn hello_for(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions) -> Hello {
    Hello {
        problem_parts: problem_fingerprint_parts(inst, set),
        options_parts: options_fingerprint_parts(opts),
        problem: WireProblem { inst: inst.clone(), set: set.clone(), loss_ub: None },
        knobs: WireKnobs {
            max_iterations: opts.max_iterations as u64,
            prune: opts.prune,
            gamma: opts.gamma,
            hamming_limit: opts.master.hamming_limit as u64,
            exact_threshold: opts.master.exact_threshold as u64,
            pool: match opts.pool {
                PoolPolicy::PerScenario => 0,
                PoolPolicy::Cold => 2,
            },
            basis_residency: opts.basis_residency as u64,
            watchdog_millis: None,
            heartbeat_millis: 100,
        },
    }
}

#[test]
fn handshake_rejects_knob_drift_in_both_directions() {
    let (inst, set) = fig1_setup();
    let opts = FlexileOptions::default();
    let good = hello_for(&inst, &set, &opts);
    assert!(verify_hello(&good).is_ok(), "faithful hello must verify");

    // Direction 1: the shipped knobs drift from the declared fingerprint
    // (a worker built against different pool configuration).
    let mut h = good.clone();
    h.knobs.pool = 2; // Cold, while the fingerprint says PerScenario
    assert!(matches!(
        verify_hello(&h),
        Err(CheckpointError::PoolConfigMismatch { component: "pool_policy" })
    ));

    // Direction 2: the declared fingerprint is stale while the knobs are
    // honest (a coordinator advertising options it is not running).
    let mut h = good.clone();
    h.options_parts[2] ^= 1; // pool_policy component
    assert!(matches!(
        verify_hello(&h),
        Err(CheckpointError::PoolConfigMismatch { component: "pool_policy" })
    ));
    let mut h = good.clone();
    h.problem_parts[0] ^= 1; // structural shape
    assert!(matches!(
        verify_hello(&h),
        Err(CheckpointError::ProblemMismatch { component: "shape" })
    ));

    // An unknown pool tag (including 1, the retired striped scheduler) is
    // malformed, not silently defaulted.
    for tag in [1, 7] {
        let mut h = good.clone();
        h.knobs.pool = tag;
        assert!(matches!(verify_hello(&h), Err(CheckpointError::Malformed("pool policy tag"))));
    }
}
