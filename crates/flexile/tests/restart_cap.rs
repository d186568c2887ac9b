//! The warm-restart pivot cap at decomposition scale.
//!
//! The LP layer abandons a warm dual restart past `rows + cols` pivots and
//! finishes it with the cold solve. The cap is a function of the model's
//! shape and pivot counts are deterministic, so a design whose wave hits
//! the cap must stay bit-identical wherever the same solve chain runs:
//!
//! * across pool thread counts and batch widths (the batch kernel's
//!   per-member fallback runs the same scalar restart);
//! * through an abort and checkpoint resume, whose chain replay re-runs
//!   the abandoned restarts;
//! * through the distributed coordinator's in-process fallback.
//!
//! The instance is InternetMCI at 20 pairs, MLU 0.9 and 60 scenarios: the
//! smallest Table-2 input found whose wave abandons a restart, small
//! enough for a debug build. `lp.restart_abandoned` proves the path ran.
//!
//! Kill-points and the obs sink are process-global, so every test here
//! serializes on one mutex.

use flexile_core::killpoints::arm;
use flexile_core::{
    decompose_resume, solve_flexile, solve_flexile_dist, DecompositionAborted, DistOptions,
    FlexileDesign, FlexileOptions, KillPoint, WorkerSpec,
};
use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions, ScenarioSet};
use flexile_topo::{topology_by_name, zoo};
use flexile_traffic::Instance;
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

/// InternetMCI with the failure probabilities and gravity matrix the
/// `repro` harness derives from its default seed.
fn setup() -> (Instance, ScenarioSet) {
    const SEED: u64 = 7;
    let name = "InternetMCI";
    let topo = topology_by_name(name).expect("Table-2 topology");
    let probs = flexile_scenario::link_failure_probs(
        topo.num_links(),
        flexile_scenario::weibull::DEFAULT_SHAPE,
        flexile_scenario::weibull::DEFAULT_MEDIAN,
        SEED ^ zoo::fnv1a(name).rotate_left(17),
    );
    let units = link_units(&topo, &probs);
    let set = enumerate_scenarios(
        &units,
        topo.num_links(),
        &EnumOptions { prob_cutoff: 1e-6, max_scenarios: 60, coverage_target: 0.9999 },
    );
    let inst = Instance::single_class(topo, SEED ^ zoo::fnv1a(name), 0.9, Some(20));
    (inst, set)
}

fn options(threads: usize, batch_width: usize) -> FlexileOptions {
    FlexileOptions { threads, batch_width, ..Default::default() }
}

fn design_bits(d: &FlexileDesign) -> (u64, Vec<Vec<bool>>, Vec<u64>, Vec<u64>) {
    (
        d.penalty.to_bits(),
        d.critical.clone(),
        d.alpha.iter().map(|v| v.to_bits()).collect(),
        d.offline_loss.iter().flatten().map(|v| v.to_bits()).collect(),
    )
}

/// Solve with the obs sink on; returns the design and its abandoned
/// restarts.
fn traced(inst: &Instance, set: &ScenarioSet, opts: &FlexileOptions) -> (FlexileDesign, u64) {
    flexile_obs::enable();
    let d = solve_flexile(inst, set, opts);
    flexile_obs::disable();
    let t = flexile_obs::drain();
    (d, t.counters.get("lp.restart_abandoned").copied().unwrap_or(0))
}

#[test]
fn abandoned_restarts_are_bit_identical_across_threads_and_widths() {
    let _g = exclusive();
    let (inst, set) = setup();
    let (reference, abandoned) = traced(&inst, &set, &options(1, 0));
    assert!(abandoned > 0, "the wave must hit the restart cap");
    assert!(reference.iterations.len() >= 2, "the design must warm-restart");
    for threads in [1usize, 2] {
        for batch_width in [0usize, 16] {
            let (d, a) = traced(&inst, &set, &options(threads, batch_width));
            let at = format!("threads={threads} batch_width={batch_width}");
            assert_eq!(design_bits(&d), design_bits(&reference), "design diverged at {at}");
            assert_eq!(d.iterations, reference.iterations, "iteration stats diverged at {at}");
            assert_eq!(a, abandoned, "abandoned restarts diverged at {at}");
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("flexile-cap-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn abandoned_restarts_replay_exactly_on_resume() {
    let _g = exclusive();
    let (inst, set) = setup();
    let mk = |dir: &PathBuf| FlexileOptions {
        checkpoint_dir: Some(dir.clone()),
        ..options(2, 16)
    };
    let reference = solve_flexile(&inst, &set, &options(2, 16));
    for ab in 2..=reference.iterations.len() {
        let dir = temp_dir(&format!("ab{ab}"));
        let _k = arm(&[KillPoint::Abort { iteration: ab }]);
        let err = panic::catch_unwind(AssertUnwindSafe(|| solve_flexile(&inst, &set, &mk(&dir))))
            .expect_err("armed abort must unwind");
        assert_eq!(err.downcast_ref::<DecompositionAborted>().map(|a| a.iteration), Some(ab));
        let resumed = decompose_resume(&inst, &set, &mk(&dir)).expect("resume");
        assert_eq!(design_bits(&resumed), design_bits(&reference), "resume after abort at {ab}");
        assert_eq!(resumed.iterations, reference.iterations, "resume after abort at {ab}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn abandoned_restarts_match_in_process_fallback() {
    let _g = exclusive();
    let (inst, set) = setup();
    let opts = options(2, 16);
    let reference = solve_flexile(&inst, &set, &opts);
    // No workers: the coordinator degrades to solving in-process.
    let dopts = DistOptions::new(0, WorkerSpec::CurrentExe { args: Vec::new() });
    flexile_obs::enable();
    let d = solve_flexile_dist(&inst, &set, &opts, &dopts).expect("degraded solve");
    flexile_obs::disable();
    let t = flexile_obs::drain();
    let counter = |n: &str| t.counters.get(n).copied().unwrap_or(0);
    assert_eq!(counter("flexile.dist_fallback"), 1, "{:?}", t.counters);
    assert!(counter("lp.restart_abandoned") > 0, "the fallback must hit the restart cap");
    assert_eq!(design_bits(&d), design_bits(&reference), "in-process fallback diverged");
}
