//! Performance figures: Fig. 14 (convergence to the IP optimum) and
//! Fig. 15 (offline solve time, IP vs the decomposition).

use crate::setup::{pct, two_class_setup, ExpConfig};
use flexile_core::{solve_flexile, solve_ip, FlexileOptions};
use flexile_lp::MipOptions;
use flexile_topo::TABLE2;
use std::time::{Duration, Instant};

fn flexile_opts(cfg: &ExpConfig) -> FlexileOptions {
    FlexileOptions { threads: cfg.threads, ..Default::default() }
}

/// Timing variant: the production configuration uses the LP-rounding
/// master everywhere (the exact branch-and-bound master is an
/// optimality-measurement tool, not the deployed path).
fn flexile_timing_opts(cfg: &ExpConfig) -> FlexileOptions {
    FlexileOptions {
        threads: cfg.threads,
        master: flexile_core::master::MasterOptions { exact_threshold: 0, ..Default::default() },
        ..Default::default()
    }
}

/// Branch-and-bound budget for the Fig. 14 IP baseline: the default node
/// budget under a 120 s time limit.
fn ip_options() -> MipOptions {
    MipOptions { time_limit: Duration::from_secs(120), ..Default::default() }
}

/// Fig. 14: optimality gap (decomposition incumbent − IP optimum) after
/// each iteration, across the topologies where the IP is solvable
/// (two-class setting, like the paper).
pub fn run_fig14(cfg: &ExpConfig) {
    println!("topology,iteration,optimality_gap_pct,ip_optimal_proven");
    // The IP baseline needs small instances regardless of the sweep caps.
    let ip_cfg = ExpConfig {
        max_pairs: Some(cfg.max_pairs.map_or(12, |p| p.min(12))),
        max_scenarios: cfg.max_scenarios.min(10),
        ..cfg.clone()
    };
    for name in crate::IP_TOPOLOGIES {
        ip_cfg.progress(format!("# fig14 {name}"));
        let _t = flexile_obs::span("bench.topology", "bench")
            .field("figure", "fig14")
            .field("topology", name);
        let (inst, set) = two_class_setup(name, &ip_cfg);
        let ip = solve_ip(&inst, &set, &ip_options());
        let design = solve_flexile(&inst, &set, &flexile_opts(&ip_cfg));
        // Evaluate the IP's criticality with the same exact post-analysis
        // the decomposition uses, so both sides account the unenumerated
        // residual identically.
        let ip_eval = if ip.penalty.is_nan() {
            f64::INFINITY
        } else {
            flexile_core::decomposition::evaluate_criticality(&inst, &set, &ip.critical)
        };
        let reference = ip_eval.min(design.penalty);
        for stat in &design.iterations {
            let gap = (stat.penalty - reference).max(0.0);
            println!("{name},{},{},{}", stat.iteration, pct(gap), ip.optimal);
        }
    }
}

/// One offline-solve timing sample.
#[derive(Debug, Clone)]
pub struct SolveTiming {
    /// Topology name.
    pub name: &'static str,
    /// Number of links (the Fig. 15 x-axis).
    pub links: usize,
    /// Decomposition (5 iterations) wall time.
    pub flexile: Duration,
    /// IP wall time, `None` when skipped/timed out.
    pub ip: Option<Duration>,
    /// Teavar design wall time on the matching single-class instance (the
    /// paper reports Teavar is an order of magnitude slower on the largest
    /// topologies).
    pub teavar: Option<Duration>,
}

/// Fig. 15: offline solving time as topology size grows. The IP baseline
/// runs only on the small topologies (with a budget), mirroring the paper's
/// 1-hour truncation.
pub fn run_fig15(cfg: &ExpConfig, limit: usize) {
    println!("topology,links,flexile_seconds,ip_seconds,teavar_seconds");
    let mut entries: Vec<_> = TABLE2.iter().collect();
    entries.sort_by_key(|e| e.edges);
    for e in entries.into_iter().take(limit.max(1)) {
        let t = time_one(cfg, e);
        let fmt = |d: Option<Duration>| {
            d.map_or("timeout".to_string(), |d| format!("{:.3}", d.as_secs_f64()))
        };
        // Stream per topology so partial sweeps still record data.
        println!(
            "{},{},{:.3},{},{}",
            t.name,
            t.links,
            t.flexile.as_secs_f64(),
            fmt(t.ip),
            fmt(t.teavar),
        );
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
}

/// Gather timings for up to `limit` topologies (sorted by link count).
pub fn collect_timings(cfg: &ExpConfig, limit: usize) -> Vec<SolveTiming> {
    let mut entries: Vec<_> = TABLE2.iter().collect();
    entries.sort_by_key(|e| e.edges);
    entries.into_iter().take(limit.max(1)).map(|e| time_one(cfg, e)).collect()
}

/// Time one topology's offline solves.
fn time_one(cfg: &ExpConfig, e: &flexile_topo::ZooEntry) -> SolveTiming {
    {
        cfg.progress(format!("# fig15 {} ({} links)", e.name, e.edges));
        let mut span = flexile_obs::span("bench.topology", "bench")
            .field("figure", "fig15")
            .field("topology", e.name)
            .field("links", e.edges);
        let (inst, set) = two_class_setup(e.name, cfg);
        let t0 = Instant::now();
        let _ = solve_flexile(&inst, &set, &flexile_timing_opts(cfg));
        let flexile = t0.elapsed();
        // IP attempted only on small problems (a single node's LP already
        // scales with scenarios × (flows + links)); its budget mirrors the
        // paper's truncation.
        let ip = if inst.num_flows() * set.scenarios.len() <= 800 && set.scenarios.len() <= 15 {
            let t1 = Instant::now();
            let r = solve_ip(
                &inst,
                &set,
                &MipOptions {
                    max_nodes: 4_000,
                    time_limit: Duration::from_secs(60),
                    ..Default::default()
                },
            );
            if r.optimal {
                Some(t1.elapsed())
            } else {
                None
            }
        } else {
            None
        };
        // Teavar timing on the single-class instance of the same
        // topology, using the paper's bundled formulation (all scenario
        // rows materialized) with a row-count guard standing in for the
        // paper's hours-long timeout.
        let teavar = {
            let (sinst, sset) = crate::setup::single_class_setup(e.name, cfg);
            let rows = sinst.num_pairs() * sset.scenarios.len();
            if rows <= 40_000 {
                let beta = sset.max_feasible_beta(&sinst.tunnels[0]);
                let t2 = Instant::now();
                let _ = flexile_te::teavar::teavar_design_bundled(&sinst, &sset, beta);
                Some(t2.elapsed())
            } else {
                None
            }
        };
        span.set("flexile_ms", flexile.as_secs_f64() * 1e3);
        if let Some(d) = ip {
            span.set("ip_ms", d.as_secs_f64() * 1e3);
        }
        if let Some(d) = teavar {
            span.set("teavar_ms", d.as_secs_f64() * 1e3);
        }
        SolveTiming { name: e.name, links: e.edges, flexile, ip, teavar }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_converges_on_sprint() {
        let cfg = ExpConfig { max_pairs: Some(8), max_scenarios: 8, ..Default::default() };
        let (inst, set) = two_class_setup("Sprint", &cfg);
        let ip = solve_ip(&inst, &set, &ip_options());
        let design = solve_flexile(&inst, &set, &flexile_opts(&cfg));
        if ip.optimal {
            let last = design.iterations.last().unwrap();
            assert!(
                last.penalty <= ip.penalty + 0.05,
                "decomposition {} vs IP {}",
                last.penalty,
                ip.penalty
            );
        }
    }

    #[test]
    fn timings_are_collected() {
        let cfg = ExpConfig { max_pairs: Some(6), max_scenarios: 6, ..Default::default() };
        let t = collect_timings(&cfg, 1);
        assert_eq!(t.len(), 1);
        assert!(t[0].flexile.as_nanos() > 0);
    }
}
