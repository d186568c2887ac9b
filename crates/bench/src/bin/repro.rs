//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment> [--seed N] [--max-pairs N] [--max-scenarios N]
//!                    [--threads N] [--limit N] [--full] [--quiet]
//!                    [--obs DIR] [--checkpoint DIR] [--every N] [--resume]
//!                    [--kill-iter N] [--kill-scenario I:K]
//!
//! experiments:
//!   motivation   §3 / Propositions 1-2 on the Fig. 1 triangle
//!   table2       the 20-topology inventory
//!   fig5         IBM CDF of percentile flow loss (Teavar/ScenBest/Flexile)
//!   fig6         IBM ScenLoss penalty CDF vs the per-scenario optimum
//!   fig9a        emulation: Flexile vs SWAN-Maxmin (2 classes, 5 runs)
//!   fig9b        emulation: Flexile vs SMORE vs Teavar (1 class, 5 runs)
//!   fig9c        emulation-vs-model loss agreement + Pearson correlation
//!   fig10        20-topology sweep: Flexile vs SWAN variants (2 classes)
//!   fig11        20-topology CDF: Teavar / Cvar-Flow-St / -Ad / Flexile
//!   fig12        richly connected sweep: Teavar / SMORE / Flexile
//!   fig13        Sprint per-scenario worst-flow loss CDFs (2 classes)
//!   fig14        optimality gap per decomposition iteration vs IP
//!   fig15        offline solve time vs topology size (IP vs Flexile)
//!   fig18        max low-priority scale with zero 99%-ile loss
//!   checkpoint   crash-safety guard: checkpoint cadence sweep + overhead bound
//!   crash_resume process-level kill/resume driver (see flags below)
//!   summary      headline results incl. the FFC baseline and SLO compliance
//!   all          every experiment above, in order
//! ```
//!
//! The `crash_resume` experiment drives a real process-death cycle for the
//! CI smoke test: `--checkpoint DIR` selects the checkpoint directory,
//! `--kill-iter N` arms an abort so the run dies at iteration N (exit
//! code 3), `--kill-scenario I:K` arms a contained worker panic, `--every N`
//! sets the checkpoint cadence, and `--resume` continues a killed run from
//! DIR in a fresh process. Penalties print at full precision so a resumed
//! run can be compared to an uninterrupted reference by string equality.
//!
//! Default caps keep runs laptop-sized; `--full` removes them (hours) and
//! is a usage error together with `--max-pairs` or `--max-scenarios`.
//! All randomness is seeded: identical arguments give identical output.
//!
//! Design time and failover reaction time are measured by `perfbench/`,
//! not here; CI gates the solver's deterministic counts with
//! `ci/check_counts.sh`.
//!
//! `--quiet` silences the stderr progress lines (figure data on stdout is
//! untouched). `--obs DIR` enables the telemetry sink and, per experiment,
//! writes into DIR:
//!
//! * `BENCH_<exp>.json`        machine-readable perf record (wall time,
//!   solver counters, histogram stats)
//! * `BENCH_<exp>_trace.json`  Chrome `trace_event` file (`chrome://tracing`
//!   or <https://ui.perfetto.dev>)
//! * `BENCH_<exp>_events.jsonl` one JSON object per event/counter/histogram
//!   (histogram lines carry their full bucket arrays)

use flexile_bench::checkpoint::CrashResumeArgs;
use flexile_bench::{figs_ibm, figs_motivation, figs_perf, figs_sweep, ExpConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    experiment: String,
    cfg: ExpConfig,
    limit: usize,
    obs: Option<PathBuf>,
    crash: CrashResumeArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = ExpConfig::default();
    let mut limit = 20usize;
    let mut experiment: Option<String> = None;
    let mut full = false;
    let mut capped = false;
    let mut obs: Option<PathBuf> = None;
    let mut crash = CrashResumeArgs { every: 1, ..Default::default() };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let next_val = |i: usize, flag: &str| -> Result<String, String> {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match argv[i].as_str() {
            "--seed" => {
                cfg.seed = next_val(i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--max-pairs" => {
                capped = true;
                cfg.max_pairs = Some(
                    next_val(i, "--max-pairs")?
                        .parse()
                        .map_err(|e| format!("--max-pairs: {e}"))?,
                );
                i += 1;
            }
            "--max-scenarios" => {
                capped = true;
                cfg.max_scenarios = next_val(i, "--max-scenarios")?
                    .parse()
                    .map_err(|e| format!("--max-scenarios: {e}"))?;
                i += 1;
            }
            "--threads" => {
                cfg.threads =
                    next_val(i, "--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
                i += 1;
            }
            "--limit" => {
                cfg_limit_check(&mut limit, &next_val(i, "--limit")?)?;
                i += 1;
            }
            "--full" => full = true,
            "--quiet" => cfg.quiet = true,
            "--obs" => {
                obs = Some(PathBuf::from(next_val(i, "--obs")?));
                i += 1;
            }
            "--checkpoint" => {
                crash.dir = Some(PathBuf::from(next_val(i, "--checkpoint")?));
                i += 1;
            }
            "--resume" => crash.resume = true,
            "--kill-iter" => {
                crash.kill_iter = Some(
                    next_val(i, "--kill-iter")?.parse().map_err(|e| format!("--kill-iter: {e}"))?,
                );
                i += 1;
            }
            "--kill-scenario" => {
                let v = next_val(i, "--kill-scenario")?;
                let (it, q) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--kill-scenario: expected I:K, got {v}"))?;
                crash.kill_scenario = Some((
                    it.parse().map_err(|e| format!("--kill-scenario: {e}"))?,
                    q.parse().map_err(|e| format!("--kill-scenario: {e}"))?,
                ));
                i += 1;
            }
            "--every" => {
                crash.every =
                    next_val(i, "--every")?.parse().map_err(|e| format!("--every: {e}"))?;
                i += 1;
            }
            "--help" | "-h" => return Err(String::new()),
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if full {
        if capped {
            return Err("--full lifts the caps; drop --max-pairs/--max-scenarios or --full".into());
        }
        cfg = cfg.full();
    }
    let experiment = experiment.ok_or_else(String::new)?;
    Ok(Args { experiment, cfg, limit, obs, crash })
}

fn cfg_limit_check(limit: &mut usize, s: &str) -> Result<(), String> {
    *limit = s.parse().map_err(|e| format!("--limit: {e}"))?;
    if *limit == 0 {
        return Err("--limit must be positive".into());
    }
    Ok(())
}

fn usage() {
    eprintln!(
        "usage: repro <experiment> [--seed N] [--max-pairs N] [--max-scenarios N] \
         [--threads N] [--limit N] [--full] [--quiet] [--obs DIR]\n\
         --full cannot be combined with --max-pairs or --max-scenarios\n\
         crash_resume flags: --checkpoint DIR [--every N] [--resume] \
         [--kill-iter N] [--kill-scenario I:K]\n\
         experiments: motivation table2 fig5 fig6 fig9a fig9b fig9c fig10 fig11 \
         fig12 fig13 fig14 fig15 fig18 checkpoint crash_resume summary all"
    );
}

fn run(experiment: &str, cfg: &ExpConfig, limit: usize) -> bool {
    match experiment {
        "motivation" => figs_motivation::run_motivation(),
        "table2" => figs_motivation::run_table2(),
        "fig5" => figs_ibm::run_fig5(cfg),
        "fig6" => figs_ibm::run_fig6(cfg),
        "fig9a" => figs_ibm::run_fig9a(cfg),
        "fig9b" => figs_ibm::run_fig9b(cfg),
        "fig9c" => figs_ibm::run_fig9c(cfg),
        "fig10" => figs_sweep::run_fig10(cfg, limit),
        "fig11" => figs_sweep::run_fig11(cfg, limit),
        "fig12" => figs_sweep::run_fig12(cfg, limit),
        "fig13" => figs_sweep::run_fig13(cfg),
        "fig14" => figs_perf::run_fig14(cfg),
        "fig15" => figs_perf::run_fig15(cfg, limit),
        "fig18" => figs_sweep::run_fig18(cfg),
        "checkpoint" => flexile_bench::checkpoint::run_checkpoint(cfg, limit),
        "summary" => flexile_bench::summary::run_summary(cfg),
        _ => return false,
    }
    true
}

/// Run one experiment (or `all`), optionally under the telemetry sink with
/// per-experiment artifacts written into `obs`. `Ok(false)` means the
/// experiment name is unknown; `Err` means an artifact failed to write.
fn run_traced(
    experiment: &str,
    cfg: &ExpConfig,
    limit: usize,
    obs: Option<&Path>,
) -> std::io::Result<bool> {
    if experiment == "all" {
        for e in [
            "motivation", "table2", "fig5", "fig6", "fig9a", "fig9b", "fig9c", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig18",
        ] {
            cfg.progress(format!("== {e} =="));
            run_traced(e, cfg, limit, obs)?;
        }
        return Ok(true);
    }
    let Some(dir) = obs else {
        return Ok(run(experiment, cfg, limit));
    };

    flexile_obs::enable();
    let t0 = std::time::Instant::now();
    let mut span = flexile_obs::span("bench.experiment", "bench")
        .field("experiment", experiment)
        .field("seed", cfg.seed)
        .field("max_scenarios", cfg.max_scenarios)
        .field("threads", cfg.threads);
    let ok = run(experiment, cfg, limit);
    span.set("ok", ok);
    drop(span);
    flexile_obs::disable();
    let t = flexile_obs::drain();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    if ok {
        write_artifacts(dir, experiment, cfg, wall_ms, &t)?;
        if !cfg.quiet {
            eprint!("{}", t.summary());
        }
    }
    Ok(ok)
}

/// Write `BENCH_<exp>.json` (perf record), the Chrome trace and the JSONL
/// event stream for one experiment run.
fn write_artifacts(
    dir: &Path,
    experiment: &str,
    cfg: &ExpConfig,
    wall_ms: f64,
    t: &flexile_obs::Telemetry,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("BENCH_{experiment}.json")),
        perf_record(experiment, cfg, wall_ms, t),
    )?;
    std::fs::write(
        dir.join(format!("BENCH_{experiment}_trace.json")),
        t.to_chrome_trace(),
    )?;
    std::fs::write(dir.join(format!("BENCH_{experiment}_events.jsonl")), t.to_jsonl())?;
    Ok(())
}

/// The machine-readable perf record: run identity, wall time, all solver
/// counters, and summary stats of every histogram. Hand-rolled JSON —
/// names are static identifiers, so no escaping is needed.
fn perf_record(experiment: &str, cfg: &ExpConfig, wall_ms: f64, t: &flexile_obs::Telemetry) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"experiment\":\"{experiment}\",\"seed\":{},\"max_scenarios\":{},\
         \"threads\":{},\"wall_ms\":{wall_ms:.3},\"events\":{},\"counters\":{{",
        cfg.seed,
        cfg.max_scenarios,
        cfg.threads,
        t.events.len()
    );
    for (i, (name, v)) in t.counters.iter().enumerate() {
        let _ = write!(s, "{}\"{name}\":{v}", if i > 0 { "," } else { "" });
    }
    s.push_str("},\"hists\":{");
    for (i, (name, h)) in t.hists.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\":{{\"count\":{},\"sum\":{:.3},\"mean\":{:.3},\
             \"p50\":{:.3},\"p99\":{:.3},\"max\":{:.3}}}",
            if i > 0 { "," } else { "" },
            h.count(),
            h.sum(),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max()
        );
    }
    s.push('}');
    // The checkpoint-cadence guard reports a per-run breakdown on top of
    // the global counters; embed it so the committed artifact is
    // self-contained.
    let ckpt_runs = flexile_bench::checkpoint::take_checkpoint_records();
    if !ckpt_runs.is_empty() {
        let _ = write!(s, ",\"checkpoint_runs\":[{}]", ckpt_runs.join(","));
    }
    s.push_str("}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    // `crash_resume` is exit-code driven (3 = armed kill fired) and may die
    // mid-run by design, so it bypasses the telemetry artifact plumbing.
    if args.experiment == "crash_resume" {
        return ExitCode::from(flexile_bench::checkpoint::run_crash_resume(&args.cfg, &args.crash));
    }
    match run_traced(&args.experiment, &args.cfg, args.limit, args.obs.as_deref()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: unknown experiment '{}'", args.experiment);
            usage();
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: writing telemetry artifacts: {e}");
            ExitCode::FAILURE
        }
    }
}
