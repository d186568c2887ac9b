//! Per-layer ledger rolled up from a drained [`Telemetry`] of one traced
//! offline design: self-time per span name per thread, plus the master,
//! wave and LP figures derived from the spans and counters the library
//! already emits.

use flexile_obs::{Event, EventKind, Telemetry, Value};
use std::collections::BTreeMap;

/// Exclusive time of one span name on one thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Self-time per `(span name, thread)`: each span's duration minus the
/// part of it covered by its direct children on the same thread.
pub fn self_times(t: &Telemetry) -> BTreeMap<(&'static str, u64), SelfTime> {
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in t.events.iter().filter(|e| e.kind == EventKind::Span) {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut out: BTreeMap<(&'static str, u64), SelfTime> = BTreeMap::new();
    for (tid, mut spans) in by_tid {
        // Parents start no later than, and outlast, their children.
        spans.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
        let mut self_us: Vec<u64> = spans.iter().map(|e| e.dur_us).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if spans[top].ts_us + spans[top].dur_us > e.ts_us {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                let parent_end = spans[parent].ts_us + spans[parent].dur_us;
                let covered = (e.ts_us + e.dur_us).min(parent_end) - e.ts_us;
                self_us[parent] = self_us[parent].saturating_sub(covered);
            }
            stack.push(i);
        }
        for (e, s) in spans.iter().zip(self_us) {
            let entry = out.entry((e.name, tid)).or_default();
            entry.count += 1;
            entry.total_us += e.dur_us;
            entry.self_us += s;
        }
    }
    out
}

/// Nearest-rank percentile of `xs` (`p` in `[0, 100]`); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the two middle values when even); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The design layers of the ledger (master, wave, LP engine).
#[derive(Debug, Clone, Default)]
pub struct DesignLedger {
    pub solve_s: f64,
    pub master_s: f64,
    pub master_max_s: f64,
    pub master_node_lps: u64,
    pub master_node_lp_us: Vec<f64>,
    pub wave_s: f64,
    pub wave_busy_s: f64,
    pub wave_idle_s: f64,
    pub wave_straggler_s: f64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub batch_members: f64,
    pub batch_divergences: u64,
    pub lp: LpLedger,
    pub self_times: BTreeMap<(&'static str, u64), SelfTime>,
    pub main_tid: u64,
}

/// LP-engine counts of one traced phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpLedger {
    pub solves: u64,
    pub pivots_phase1: u64,
    pub pivots_phase2: u64,
    pub pivots_dual: u64,
    pub refactorizations: u64,
    pub bland_activations: u64,
    pub rung_failures: u64,
    /// `lp.solve` span durations, for the latency percentiles.
    pub solve_us: Vec<f64>,
}

impl LpLedger {
    pub fn from_telemetry(t: &Telemetry) -> Self {
        let c = |name: &str| t.counters.get(name).copied().unwrap_or(0);
        let solve_us: Vec<f64> = t
            .events_named("lp.solve")
            .map(|e| e.dur_us as f64)
            .collect();
        LpLedger {
            solves: solve_us.len() as u64,
            pivots_phase1: c("lp.pivots.phase1"),
            pivots_phase2: c("lp.pivots.phase2"),
            pivots_dual: c("lp.pivots.dual"),
            refactorizations: c("lp.refactorizations"),
            bland_activations: c("lp.bland_activations"),
            rung_failures: t
                .events_named("lp.rung")
                .filter(|e| e.field("ok") == Some(&Value::Bool(false)))
                .count() as u64,
            solve_us,
        }
    }

    /// The deterministic part: every count, no timings.
    pub fn counts(&self) -> [u64; 7] {
        [
            self.solves,
            self.pivots_phase1,
            self.pivots_phase2,
            self.pivots_dual,
            self.refactorizations,
            self.bland_activations,
            self.rung_failures,
        ]
    }
}

fn end(e: &Event) -> u64 {
    e.ts_us + e.dur_us
}

fn within(e: &Event, outer: &Event) -> bool {
    e.ts_us >= outer.ts_us && end(e) <= end(outer)
}

impl DesignLedger {
    /// Roll up the telemetry of exactly one `solve_flexile` call.
    pub fn from_telemetry(t: &Telemetry) -> Self {
        let solve = t
            .events_named("flexile.solve")
            .next()
            .expect("traced design has a flexile.solve span");
        let main_tid = solve.tid;
        let c = |name: &str| t.counters.get(name).copied().unwrap_or(0);

        let masters: Vec<&Event> = t.events_named("flexile.master").collect();
        let main_lp: Vec<&Event> = t
            .events_named("lp.solve")
            .filter(|e| e.tid == main_tid)
            .collect();
        let node_lp_us: Vec<f64> = main_lp
            .iter()
            .filter(|e| masters.iter().any(|m| within(e, m)))
            .map(|e| e.dur_us as f64)
            .collect();

        // Scenario-wave workers: outermost spans on any other thread.
        let st = self_times(t);
        let worker_spans: Vec<&Event> = outermost(t, main_tid);
        let mut workers: Vec<u64> = worker_spans.iter().map(|e| e.tid).collect();
        workers.sort_unstable();
        workers.dedup();
        let mut wave_s = 0.0;
        let mut waves = 0u64;
        let mut straggler_us = 0u64;
        for wave in t.events_named("flexile.subproblems") {
            wave_s += wave.dur_us as f64 * 1e-6;
            waves += 1;
            let mut finish: BTreeMap<u64, u64> = workers.iter().map(|&w| (w, wave.ts_us)).collect();
            for e in worker_spans.iter().filter(|e| within(e, wave)) {
                let f = finish.entry(e.tid).or_insert(wave.ts_us);
                *f = (*f).max(end(e));
            }
            if let (Some(lo), Some(hi)) = (finish.values().min(), finish.values().max()) {
                straggler_us += hi - lo;
            }
        }

        // The pool observes one idle sample per worker per wave; busy time
        // is what the workers did not spend idle (template builds included,
        // which no span covers).
        let wait = t.hists.get("flexile.subproblem_wait");
        let idle_s = wait.map_or(0.0, |h| h.sum() * 1e-6);
        let pool_workers = wait.map_or(0, |h| h.count()) as f64 / waves.max(1) as f64;
        DesignLedger {
            solve_s: solve.dur_us as f64 * 1e-6,
            master_s: masters.iter().map(|m| m.dur_us as f64 * 1e-6).sum(),
            master_max_s: masters
                .iter()
                .map(|m| m.dur_us as f64 * 1e-6)
                .fold(0.0, f64::max),
            master_node_lps: node_lp_us.len() as u64,
            master_node_lp_us: node_lp_us,
            wave_s,
            wave_busy_s: (pool_workers * wave_s - idle_s).max(0.0),
            wave_idle_s: idle_s,
            wave_straggler_s: straggler_us as f64 * 1e-6,
            warm_hits: c("flexile.scenario_warm_hit"),
            warm_misses: c("flexile.scenario_warm_miss"),
            batch_members: t.hists.get("lp.batch_width").map_or(0.0, |h| h.sum()),
            batch_divergences: c("lp.batch_divergences"),
            lp: LpLedger::from_telemetry(t),
            self_times: st,
            main_tid,
        }
    }
}

/// Spans with no enclosing span on their own thread, off `main_tid`.
fn outermost(t: &Telemetry, main_tid: u64) -> Vec<&Event> {
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in t
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.tid != main_tid)
    {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut out = Vec::new();
    for (_, mut spans) in by_tid {
        spans.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
        let mut open_until = 0u64;
        for e in spans {
            if e.ts_us >= open_until {
                open_until = end(e);
                out.push(e);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, ts_us: u64, dur_us: u64) -> Event {
        Event {
            name,
            cat: "t",
            ts_us,
            dur_us,
            kind: EventKind::Span,
            tid,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let t = Telemetry {
            events: vec![
                span("outer", 0, 0, 100),
                span("inner", 0, 10, 30),
                span("leaf", 0, 15, 5),
                span("inner", 0, 50, 20),
                span("other_thread", 1, 0, 100),
            ],
            ..Default::default()
        };
        let st = self_times(&t);
        assert_eq!(st[&("outer", 0)].self_us, 50);
        assert_eq!(
            st[&("inner", 0)],
            SelfTime {
                count: 2,
                total_us: 50,
                self_us: 45
            }
        );
        assert_eq!(st[&("leaf", 0)].self_us, 5);
        assert_eq!(st[&("other_thread", 1)].self_us, 100);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
