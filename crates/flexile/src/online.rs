//! Critical-flow-aware online bandwidth allocation (§4.3).
//!
//! When a failure occurs, the controller looks up which flows are critical
//! in the observed scenario (decided offline) and solves one LP family:
//!
//! 1. **Reserve** — every critical flow is guaranteed the offline-promised
//!    bandwidth `(1 − α_k) · d_f` (a small elastic slack keeps the model
//!    feasible under numerical drift).
//! 2. **Classes in priority order** — within each class, max-min
//!    water-filling *on flow loss* over all flows of the class (critical
//!    flows may exceed their reservation). The water-fill is
//!    [`ScenAlloc::waterfill`], the kernel SWAN-Maxmin also runs. Unlike
//!    SWAN, lower-priority stages keep the higher classes' variables in the
//!    model and only pin their served amounts, re-optimizing the *routing*
//!    of both classes jointly (the paper's second §4.3 change).
//! 3. **Residual fill** — a final pass maximizes total served demand with
//!    lexicographic class weights.
//!
//! Demands are the scenario's ([`ScenAlloc::demand`], §4.4 traffic-matrix
//! scenarios) and losses follow the shared served→loss rule
//! ([`flexile_te::alloc::served_loss`]).
//!
//! ## Failure handling
//!
//! The controller sits on the critical path of failure reaction, so it must
//! return *some* valid allocation even when the solver itself misbehaves.
//! Every LP goes through [`flexile_lp::solve_robust`], whose escalation
//! ladder absorbs transient numerical faults; if a solve still fails
//! terminally, the controller degrades explicitly instead of silently
//! dropping stages:
//!
//! * **Frozen-share carry-forward** — if the caller supplies the previous
//!   control interval's loss vector, reuse it for pairs that are still
//!   connected (dead pairs go to loss 1).
//! * **Proportional share** — otherwise, a closed-form no-LP allocation:
//!   each live pair routes on its first live tunnel and every flow is
//!   scaled by the single factor that makes the worst link fit.
//!
//! Either way the result is a loss vector in `[0, 1]` for every flow,
//! tagged with a [`DegradationLevel`] and the per-solve
//! [`flexile_lp::SolveReport`]s so operators (and the chaos tests) can see
//! exactly what the controller fell back on.
//!
//! The result is the per-flow loss vector used by all Flexile
//! post-analysis (it is the loss the network would actually experience).

use crate::decomposition::FlexileDesign;
use flexile_lp::{solve_robust, LpError, Sense, SimplexOptions, SolveReport};
use flexile_scenario::{Scenario, ScenarioSet};
use flexile_te::alloc::ScenAlloc;
use flexile_te::types::{clamp_loss, SchemeResult};
use flexile_traffic::Instance;

/// How much of the normal LP pipeline survived an online allocation.
///
/// Ordered: greater means more degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Fault-free LP path; allocation identical to the nominal controller.
    None,
    /// The LP path produced the allocation, but only after the solver's
    /// escalation ladder recovered at least one attempt (or the optional
    /// residual-fill stage had to be skipped).
    SolverRecovered,
    /// The LP path failed terminally; the previous interval's shares were
    /// carried forward (dead pairs dropped to loss 1).
    FrozenCarryForward,
    /// The LP path failed terminally and no previous shares were available;
    /// the closed-form proportional-share allocation was used.
    ProportionalShare,
}

impl DegradationLevel {
    /// Stable lower-case name, used in telemetry events and reports.
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::None => "none",
            DegradationLevel::SolverRecovered => "solver_recovered",
            DegradationLevel::FrozenCarryForward => "frozen_carry_forward",
            DegradationLevel::ProportionalShare => "proportional_share",
        }
    }
}

/// Outcome of one online allocation: the loss vector plus how it was made.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Per-flow loss in `[0, 1]` (always valid, whatever happened).
    pub losses: Vec<f64>,
    /// Which fallback rung produced the allocation.
    pub level: DegradationLevel,
    /// Report of every robust solve performed, in execution order.
    pub reports: Vec<SolveReport>,
    /// Terminal solver errors encountered (each either degraded the
    /// allocation or skipped the optional residual stage).
    pub errors: Vec<LpError>,
}

/// Allocate bandwidth in `scen` given the flows' criticality and the
/// per-flow loss the offline phase promised in this scenario
/// (`promised_loss[f]`, §4.3: "assigns necessary bandwidth for critical
/// flows as pre-decided by the offline phase"). Critical flow `f` is
/// reserved `(1 − promised_loss[f]) · d_f`; non-critical entries are
/// ignored. Returns per-flow losses.
///
/// Thin wrapper over [`online_allocate_robust`] without carry-forward
/// state; see [`OnlineOutcome`] for the full degradation-aware interface.
pub fn online_allocate(
    inst: &Instance,
    scen: &Scenario,
    critical: &[bool],
    promised_loss: &[f64],
) -> Vec<f64> {
    online_allocate_robust(inst, scen, critical, promised_loss, None).losses
}

/// Degradation-aware online allocation (module docs).
///
/// `carry` is the previous control interval's per-flow loss vector, used
/// for frozen-share carry-forward if the LP path fails terminally; pass
/// `None` when no previous allocation exists (the controller then falls
/// straight to proportional share on terminal failure).
pub fn online_allocate_robust(
    inst: &Instance,
    scen: &Scenario,
    critical: &[bool],
    promised_loss: &[f64],
    carry: Option<&[f64]>,
) -> OnlineOutcome {
    let mut reports = Vec::new();
    let out = match lp_allocate(inst, scen, critical, promised_loss, &mut reports) {
        Ok((losses, skipped)) => {
            let recovered = reports.iter().any(|r| r.recovered());
            let level = if recovered || !skipped.is_empty() {
                DegradationLevel::SolverRecovered
            } else {
                DegradationLevel::None
            };
            OnlineOutcome { losses, level, reports, errors: skipped }
        }
        Err(e) => {
            let (losses, level) = match carry {
                Some(prev) if prev.len() == inst.num_flows() => {
                    (carry_forward_losses(inst, scen, prev), DegradationLevel::FrozenCarryForward)
                }
                _ => (proportional_share_losses(inst, scen), DegradationLevel::ProportionalShare),
            };
            OnlineOutcome { losses, level, reports, errors: vec![e] }
        }
    };
    if out.level != DegradationLevel::None && flexile_obs::enabled() {
        let mut ev = flexile_obs::event("online.degradation", "online")
            .field("level", out.level.name())
            .field("solves", out.reports.len())
            .field("solver_iterations", out.reports.iter().map(SolveReport::total_iterations).sum::<usize>());
        if let Some(e) = out.errors.first() {
            ev = ev.field("error", e.to_string());
        }
        drop(ev); // recorded on drop
    }
    out
}

/// The nominal LP pipeline. `Ok` carries the losses plus the terminal
/// errors of *skipped optional stages* (the residual fill); `Err` means a
/// mandatory stage failed terminally and the caller must degrade.
fn lp_allocate(
    inst: &Instance,
    scen: &Scenario,
    critical: &[bool],
    promised_loss: &[f64],
    reports: &mut Vec<SolveReport>,
) -> Result<(Vec<f64>, Vec<LpError>), LpError> {
    let nk = inst.num_classes();
    let np = inst.num_pairs();
    let mut alloc = ScenAlloc::new(inst, scen, Sense::Max);

    // Demand caps for every live flow.
    for k in 0..nk {
        for p in 0..np {
            if alloc.pair_alive[k][p] && alloc.demand(k, p) > 0.0 {
                let coeffs = alloc.served_coeffs(k, p);
                alloc.model.add_row_le(&coeffs, alloc.demand(k, p));
            }
        }
    }
    // Critical reservations with a shared elastic slack (penalized hard).
    let eps = alloc.model.add_var("eps", 0.0, 1.0, -1e5);
    for k in 0..nk {
        for p in 0..np {
            let f = inst.flow_index(k, p);
            let d = alloc.demand(k, p);
            if !critical[f] || d <= 0.0 || !alloc.pair_alive[k][p] {
                continue;
            }
            let floor = (1.0 - promised_loss[f].clamp(0.0, 1.0)) * d;
            if floor <= 0.0 {
                continue;
            }
            let mut coeffs = alloc.served_coeffs(k, p);
            coeffs.push((eps, d));
            alloc.model.add_row_ge(&coeffs, floor);
        }
    }

    let mut served = vec![0.0; inst.num_flows()];
    // Class-priority water-filling with joint routing.
    for k in 0..nk {
        let shares = alloc.waterfill(k, reports)?;
        for p in 0..np {
            served[inst.flow_index(k, p)] = shares[p];
        }
        // Pin this class's served amounts (routing stays free).
        for p in 0..np {
            if alloc.pair_alive[k][p] && alloc.demand(k, p) > 0.0 {
                let coeffs = alloc.served_coeffs(k, p);
                alloc.model.add_row_ge(&coeffs, shares[p] - 1e-7);
            }
        }
    }
    // Residual fill with lexicographic class preference. Optional: the
    // pinned water-filling shares are already a valid allocation, so a
    // terminal failure here is recorded and the stage skipped rather than
    // degrading the whole controller.
    let mut weight = 1.0;
    for k in (0..nk).rev() {
        for p in 0..np {
            if alloc.pair_alive[k][p] {
                for (v, _) in alloc.served_coeffs(k, p) {
                    alloc.model.set_obj(v, weight);
                }
            }
        }
        weight *= 100.0;
    }
    let mut skipped = Vec::new();
    let out = solve_robust(&alloc.model, &SimplexOptions::default(), None);
    reports.push(out.report);
    match out.result {
        Ok(sol) => {
            for k in 0..nk {
                for p in 0..np {
                    let f = inst.flow_index(k, p);
                    served[f] = served[f].max(alloc.served_at(&sol, k, p));
                }
            }
        }
        Err(e) => skipped.push(e),
    }

    let losses = (0..inst.num_flows())
        .map(|f| alloc.loss(inst.flow_class(f), inst.flow_pair(f), served[f]))
        .collect();
    Ok((losses, skipped))
}

/// Frozen-share carry-forward: keep the previous interval's loss for every
/// pair that is still connected in `scen`; disconnected pairs and dead
/// demands go to loss 1 and 0 respectively. No LP involved.
pub fn carry_forward_losses(inst: &Instance, scen: &Scenario, prev: &[f64]) -> Vec<f64> {
    let dead = scen.dead_mask();
    (0..inst.num_flows())
        .map(|f| {
            let k = inst.flow_class(f);
            let p = inst.flow_pair(f);
            if inst.demands[k][p] * scen.demand_factor <= 0.0 {
                0.0
            } else if !inst.tunnels[k].pair_alive(p, &dead) {
                1.0
            } else {
                clamp_loss(prev[f])
            }
        })
        .collect()
}

/// Closed-form proportional-share allocation, the controller's last-resort
/// fallback: each live pair routes its whole demand on its first live
/// tunnel, and every flow is scaled by the single factor
/// `θ = min(1, min_a cap_a / load_a)` that makes the most-loaded link fit.
/// Scaling all flows by the common θ keeps every link within capacity, so
/// the allocation is always feasible; the returned losses are `1 − θ` for
/// live pairs (1 for dead pairs, 0 for zero demands). No LP involved.
pub fn proportional_share_losses(inst: &Instance, scen: &Scenario) -> Vec<f64> {
    let dead = scen.dead_mask();
    let df = scen.demand_factor;
    let nk = inst.num_classes();
    let np = inst.num_pairs();
    let mut load = vec![0.0; inst.num_arcs()];
    for k in 0..nk {
        for p in 0..np {
            let d = inst.demands[k][p] * df;
            if d <= 0.0 {
                continue;
            }
            if let Some(path) = inst.tunnels[k].tunnels[p].iter().find(|t| t.alive(&dead)) {
                for a in inst.arc_ids(path) {
                    load[a] += d;
                }
            }
        }
    }
    let mut theta = 1.0f64;
    for (a, &l) in load.iter().enumerate() {
        if l > 0.0 {
            let cap = inst.arc_capacity(a) * scen.cap_factor[inst.arc_link(a)];
            theta = theta.min(cap / l);
        }
    }
    let theta = theta.clamp(0.0, 1.0);
    (0..inst.num_flows())
        .map(|f| {
            let k = inst.flow_class(f);
            let p = inst.flow_pair(f);
            if inst.demands[k][p] * df <= 0.0 {
                0.0
            } else if !inst.tunnels[k].pair_alive(p, &dead) {
                1.0
            } else {
                clamp_loss(1.0 - theta)
            }
        })
        .collect()
}

/// Per-scenario summary of a full post-analysis run over a scenario set.
#[derive(Debug, Clone, Default)]
pub struct OnlineRunReport {
    /// Degradation level of each scenario's allocation.
    pub levels: Vec<DegradationLevel>,
    /// `(scenario index, error)` for every terminal solver error.
    pub errors: Vec<(usize, LpError)>,
}

impl OnlineRunReport {
    /// Worst degradation level across the run.
    pub fn worst(&self) -> DegradationLevel {
        self.levels.iter().copied().max().unwrap_or(DegradationLevel::None)
    }

    /// Scenario count per degradation level, in enum order.
    pub fn counts(&self) -> [usize; 4] {
        let mut c = [0; 4];
        for l in &self.levels {
            c[*l as usize] += 1;
        }
        c
    }
}

/// Post-analysis of a Flexile design: run the online allocation in every
/// scenario and collect the loss matrix.
pub fn flexile_losses(inst: &Instance, set: &ScenarioSet, design: &FlexileDesign) -> SchemeResult {
    flexile_losses_with_report(inst, set, design).0
}

/// [`flexile_losses`] plus the per-scenario degradation report, so callers
/// can tell whether any loss column came from a fallback allocation rather
/// than the nominal LP pipeline.
pub fn flexile_losses_with_report(
    inst: &Instance,
    set: &ScenarioSet,
    design: &FlexileDesign,
) -> (SchemeResult, OnlineRunReport) {
    let nq = set.scenarios.len();
    let mut loss = vec![vec![0.0; nq]; inst.num_flows()];
    let mut report = OnlineRunReport::default();
    for (q, scen) in set.scenarios.iter().enumerate() {
        let critical: Vec<bool> = (0..inst.num_flows()).map(|f| design.critical[f][q]).collect();
        let promised: Vec<f64> =
            (0..inst.num_flows()).map(|f| design.offline_loss[f][q]).collect();
        // Scenario sets are not temporal, so there is no "previous interval"
        // to carry shares from; terminal failures fall to proportional share.
        let out = online_allocate_robust(inst, scen, &critical, &promised, None);
        for (f, &v) in out.losses.iter().enumerate() {
            loss[f][q] = v;
        }
        report.levels.push(out.level);
        report.errors.extend(out.errors.into_iter().map(|e| (q, e)));
    }
    (SchemeResult::new("Flexile", loss), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::{solve_flexile, FlexileOptions};
    use crate::subproblem::tests::{fig1_instance, fig1_scenarios};
    use flexile_lp::fault::{self, FaultInjector, FaultKind};
    use flexile_metrics::{perc_loss, LossMatrix};

    fn fig1_beta99() -> Instance {
        let mut inst = fig1_instance();
        inst.classes[0].beta = 0.99;
        inst
    }

    #[test]
    fn online_respects_critical_floors() {
        // Link A-B failed; f1 critical with alpha 0: it must receive its
        // full demand over the detour, squeezing non-critical f2.
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let l = online_allocate(&inst, scen, &[true, false], &[0.0, 1.0]);
        assert!(l[0] < 1e-5, "critical flow loss {l:?}");
        assert!(l[1] > 0.5, "non-critical flow should be squeezed: {l:?}");
    }

    #[test]
    fn online_uses_residual_for_noncritical() {
        // All alive: both flows fully served regardless of criticality.
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let l = online_allocate(&inst, &set.scenarios[0], &[true, false], &[0.0, 1.0]);
        assert!(l.iter().all(|&v| v < 1e-5), "{l:?}");
    }

    #[test]
    fn end_to_end_fig1_zero_percloss() {
        // Offline + online: the full pipeline achieves PercLoss 0 at 99%.
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let design = solve_flexile(&inst, &set, &FlexileOptions::default());
        let (r, report) = flexile_losses_with_report(&inst, &set, &design);
        let m = LossMatrix::new(r.loss.clone(), set.probs(), set.residual);
        let pl = perc_loss(&m, &[0, 1], 0.99);
        assert!(pl < 1e-6, "end-to-end PercLoss {pl}");
        // Fault-free run: every scenario on the nominal path.
        assert_eq!(report.worst(), DegradationLevel::None);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn online_no_criticals_degrades_to_maxmin() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let l = online_allocate(&inst, scen, &[false, false], &[1.0, 1.0]);
        // Fair split: both ~0.5 (the ScenBest outcome of Fig. 2).
        assert!((l[0] - 0.5).abs() < 1e-4, "{l:?}");
        assert!((l[1] - 0.5).abs() < 1e-4, "{l:?}");
    }

    #[test]
    fn single_fault_recovers_without_degrading_allocation() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let clean = online_allocate(&inst, scen, &[true, false], &[0.0, 1.0]);
        let (out, _) =
            fault::with_injector(FaultInjector::new().at(0, FaultKind::Numerical), || {
                online_allocate_robust(&inst, scen, &[true, false], &[0.0, 1.0], None)
            });
        assert_eq!(out.level, DegradationLevel::SolverRecovered);
        assert!(out.reports.iter().any(|r| r.recovered()));
        for (a, b) in clean.iter().zip(out.losses.iter()) {
            assert!((a - b).abs() < 1e-9, "recovered allocation drifted: {clean:?} vs {:?}", out.losses);
        }
    }

    #[test]
    fn persistent_faults_fall_to_proportional_share() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let (out, _) = fault::with_injector(FaultInjector::always(FaultKind::Numerical), || {
            online_allocate_robust(&inst, scen, &[true, false], &[0.0, 1.0], None)
        });
        assert_eq!(out.level, DegradationLevel::ProportionalShare);
        assert!(!out.errors.is_empty());
        assert!(out.losses.iter().all(|&l| (0.0..=1.0).contains(&l)), "{:?}", out.losses);
        assert_eq!(out.losses, proportional_share_losses(&inst, scen));
    }

    #[test]
    fn persistent_faults_use_carry_forward_when_available() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        let scen = set.scenarios.iter().find(|s| s.failed_units == vec![0]).unwrap();
        let prev = vec![0.1, 0.2];
        let (out, _) = fault::with_injector(FaultInjector::always(FaultKind::IterationLimit), || {
            online_allocate_robust(&inst, scen, &[true, false], &[0.0, 1.0], Some(&prev))
        });
        assert_eq!(out.level, DegradationLevel::FrozenCarryForward);
        // Both fig1 pairs stay connected when A-B fails (detour via C).
        assert_eq!(out.losses, vec![0.1, 0.2]);
    }

    #[test]
    fn proportional_share_is_feasible_and_in_range() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        for scen in &set.scenarios {
            let l = proportional_share_losses(&inst, scen);
            assert!(l.iter().all(|&v| (0.0..=1.0).contains(&v)), "{l:?}");
        }
    }

    #[test]
    fn carry_forward_drops_dead_pairs_to_full_loss() {
        let inst = fig1_beta99();
        let set = fig1_scenarios();
        // Both links of pair 0's tunnels failed => pair dead.
        if let Some(scen) =
            set.scenarios.iter().find(|s| s.failed_units.len() >= 2)
        {
            let prev = vec![0.0, 0.0];
            let l = carry_forward_losses(&inst, scen, &prev);
            let dead = scen.dead_mask();
            for f in 0..inst.num_flows() {
                let p = inst.flow_pair(f);
                if !inst.tunnels[0].pair_alive(p, &dead) {
                    assert_eq!(l[f], 1.0);
                }
            }
        }
    }
}
