//! Metric names, units and the printed report of one run.

use crate::ledger::DesignLedger;
use flexile_obs::Telemetry;

/// End-to-end metrics (untraced runs), all lower-is-better. The median
/// reaction is printed with every run but not gated: its IQR over median
/// across ten seeds read 0.08–0.32 on a shared 2-vCPU VM, against about
/// 0.05 for the p99 (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("design_s", "s"),
    ("design_penalty", "loss"),
    ("reaction_us_p99", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("setup.instance_s", "s"),
    ("setup.enumerate_s", "s"),
    ("setup.scenarios", "count"),
    ("decomp.iterations", "count"),
    ("decomp.solved", "count"),
    ("decomp.pruned", "count"),
    ("decomp.sub_lp_iters", "count"),
    ("decomp.warm_hits", "count"),
    ("decomp.dual_restarts", "count"),
    ("master.s", "s"),
    ("master.share", "ratio"),
    ("master.max_s", "s"),
    ("master.node_lps", "count"),
    ("master.node_lp_us_p50", "us"),
    ("wave.s", "s"),
    ("wave.share", "ratio"),
    ("wave.busy_s", "s"),
    ("wave.idle_s", "s"),
    ("wave.straggler_s", "s"),
    ("wave.warm_hit_ratio", "ratio"),
    ("wave.batch_divergence_ratio", "ratio"),
    ("lp.solves", "count"),
    ("lp.pivots.phase1", "count"),
    ("lp.pivots.phase2", "count"),
    ("lp.pivots.dual", "count"),
    ("lp.refactorizations", "count"),
    ("lp.bland_activations", "count"),
    ("lp.rung_failures", "count"),
    ("lp.solve_us_p50", "us"),
    ("lp.solve_us_p99", "us"),
    ("online.lookup_us_p50", "us"),
    ("online.allocate_us_p50", "us"),
    ("online.allocate_us_p99", "us"),
    ("online.lp_solves_per_reaction", "count"),
    ("online.solver_iters_per_reaction", "count"),
    ("online.planned_share", "ratio"),
    ("online.recovered", "count"),
    ("obs.overhead_share", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Everything one run prints: notes and the ledger as text, then the
/// metrics as the closing JSON line.
pub struct Report {
    header: String,
    lines: Vec<String>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Report {
            header: format!("== {workload} seed={seed} trace={}", trace as u8),
            lines: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, unit_of(name), value));
    }

    /// The self-time table of one traced design plus the reaction loop.
    pub fn ledger(&mut self, l: &DesignLedger, online: &Telemetry) {
        let mut rows: Vec<(String, String, u64, u64, u64)> = l
            .self_times
            .iter()
            .map(|(&(name, tid), s)| {
                let thread = if tid == l.main_tid {
                    "main".to_string()
                } else {
                    format!("t{tid}")
                };
                (name.to_string(), thread, s.count, s.total_us, s.self_us)
            })
            .collect();
        for ((name, _), s) in crate::ledger::self_times(online) {
            rows.push((
                name.to_string(),
                "online".into(),
                s.count,
                s.total_us,
                s.self_us,
            ));
        }
        rows.sort_by(|a, b| b.4.cmp(&a.4).then_with(|| a.0.cmp(&b.0)));
        self.note(format!(
            "self-time ledger of one traced design ({:.3} s) and the traced reactions:",
            l.solve_s
        ));
        self.note(format!(
            "  {:<28} {:<7} {:>9} {:>12} {:>12}",
            "span", "thread", "count", "total_s", "self_s"
        ));
        for (name, thread, count, total, own) in rows {
            self.note(format!(
                "  {name:<28} {thread:<7} {count:>9} {:>12.6} {:>12.6}",
                total as f64 * 1e-6,
                own as f64 * 1e-6
            ));
        }
    }

    /// Print the report; the JSON object is the last line.
    pub fn print(&self) {
        println!("{}", self.header);
        for line in &self.lines {
            println!("  {line}");
        }
        for (name, unit, value) in &self.metrics {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
            eprintln!("perfbench: check failed: {p}");
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
