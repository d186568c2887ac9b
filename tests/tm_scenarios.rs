//! §4.4 "More general scenarios": designing for a set of traffic matrices
//! with associated probabilities (demand levels crossed with failures).

use flexile::prelude::*;
use flexile::scenario::model::link_units;
use flexile::scenario::with_demand_levels;

fn fig1(beta: f64) -> (Instance, ScenarioSet) {
    let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
    let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
    let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
    let mut class = ClassConfig::single();
    class.beta = beta;
    let inst = Instance {
        topo,
        pairs,
        classes: vec![class],
        tunnels: vec![tunnels],
        // Base demands below capacity so only the surge level contends.
        demands: vec![vec![0.8, 0.8]],
    };
    let units = link_units(&inst.topo, &[0.01; 3]);
    let set = enumerate_scenarios(
        &units,
        3,
        &EnumOptions { prob_cutoff: 0.0, max_scenarios: 8, coverage_target: 2.0 },
    );
    (inst, set)
}

#[test]
fn surge_scenarios_increase_subproblem_loss() {
    use flexile::core::subproblem::SubproblemTemplate;
    let (inst, set) = fig1(0.99);
    let tm = with_demand_levels(&set, &[(1.0, 0.7), (2.0, 0.3)]);
    // Find the all-alive scenario at each level.
    let normal = tm
        .scenarios
        .iter()
        .find(|s| s.failed_units.is_empty() && s.demand_factor == 1.0)
        .unwrap();
    let surge = tm
        .scenarios
        .iter()
        .find(|s| s.failed_units.is_empty() && s.demand_factor == 2.0)
        .unwrap();
    let z = vec![true, true];
    let mut t1 = SubproblemTemplate::for_demand_factor(&inst, None, 1.0);
    let v_normal = t1.solve(&inst, normal, &z).unwrap().value;
    let mut t2 = SubproblemTemplate::for_demand_factor(&inst, None, 2.0);
    let v_surge = t2.solve(&inst, surge, &z).unwrap().value;
    // Normal load fits (0.8 per direct link); the 2× surge (1.6 per flow)
    // cannot: each flow has total path capacity 2 but they share links, so
    // some loss is unavoidable.
    assert!(v_normal < 1e-7, "normal-level value {v_normal}");
    assert!(v_surge > 0.05, "surge-level value {v_surge}");
}

#[test]
fn static_schemes_serve_no_more_than_the_cut_at_a_surge() {
    // All links alive at the 2× level: each flow wants 1.6, and both leave
    // A through its two unit links, so no scheme can serve more than 2 in
    // total. The static-split schemes reserve bandwidth for the base
    // demand; their post-analysis must charge the surge against it.
    use flexile::te::{cvar_flow, ffc, teavar};
    let (inst, set) = fig1(0.99);
    let tm = with_demand_levels(&set, &[(1.0, 0.7), (2.0, 0.3)]);
    let q = tm
        .scenarios
        .iter()
        .position(|s| s.failed_units.is_empty() && s.demand_factor == 2.0)
        .unwrap();
    let cvar = cvar_flow::CvarOptions::new(0.99);
    for r in [
        teavar::teavar(&inst, &tm, 0.99),
        cvar_flow::cvar_flow_st(&inst, &tm, &cvar),
        cvar_flow::cvar_flow_ad(&inst, &tm, &cvar),
        ffc::ffc(&inst, &tm, 0),
        ffc::ffc(&inst, &tm, 1),
    ] {
        let served: f64 =
            (0..inst.num_flows()).map(|f| (1.0 - r.loss[f][q]) * inst.flow_demand(f) * 2.0).sum();
        assert!(served <= 2.0 + 1e-6, "{}: serves {served} across a cut of 2", r.name);
    }
}

#[test]
fn template_factor_mismatch_is_rejected() {
    use flexile::core::subproblem::SubproblemTemplate;
    let (inst, set) = fig1(0.99);
    let tm = with_demand_levels(&set, &[(1.0, 0.5), (1.5, 0.5)]);
    let surge = tm.scenarios.iter().find(|s| s.demand_factor == 1.5).unwrap();
    let mut t = SubproblemTemplate::new(&inst, None); // factor 1.0
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = t.solve(&inst, surge, &[true, true]);
    }));
    assert!(res.is_err(), "factor mismatch must be rejected");
}

#[test]
fn flexile_designs_across_demand_levels() {
    // β = 0.95 with a 20%-probable 2× surge: the design may treat surge
    // states as non-critical for one of the flows and still cover β.
    let (inst, set) = fig1(0.95);
    let tm = with_demand_levels(&set, &[(1.0, 0.8), (2.0, 0.2)]);
    let design = solve_flexile(&inst, &tm, &FlexileOptions::default());
    // Coverage must hold per flow.
    for f in 0..inst.num_flows() {
        let mass: f64 = tm
            .scenarios
            .iter()
            .enumerate()
            .filter(|(q, _)| design.critical[f][*q])
            .map(|(_, s)| s.prob)
            .sum();
        assert!(mass + 1e-9 >= 0.95, "flow {f} covers {mass}");
    }
    // The normal level alone carries 0.97 × 0.8 ≈ 0.78 < β, so surge
    // scenarios must participate and the penalty reflects surge contention
    // but stays below the naive 2×-everywhere loss.
    assert!(design.penalty <= 0.65, "penalty {}", design.penalty);

    // Online allocation honors the surge demands end to end.
    let r = flexile_losses(&inst, &tm, &design);
    let m = LossMatrix::new(r.loss.clone(), tm.probs(), tm.residual);
    let pl = perc_loss(&m, &[0, 1], 0.95);
    assert!(pl <= design.penalty + 0.05, "online PercLoss {pl} vs offline {}", design.penalty);
}

#[test]
fn surge_scenario_losses_honor_the_demand_factor() {
    // All links alive at the 2× level: each flow wants 1.6 but A's two
    // unit links carry 2.0 in total, so every per-scenario scheme must
    // lose traffic in this scenario.
    use flexile::te::{mcf, swan};
    let (inst, set) = fig1(0.99);
    let tm = with_demand_levels(&set, &[(1.0, 0.7), (2.0, 0.3)]);
    let surge = tm
        .scenarios
        .iter()
        .find(|s| s.failed_units.is_empty() && s.demand_factor == 2.0)
        .unwrap();
    let worst = |l: &[f64]| l.iter().copied().fold(0.0, f64::max);
    let best = mcf::scen_best_scenario(&inst, surge, true);
    assert!(worst(&best) > 0.0, "ScenBest {best:?}");
    let maxmin = swan::swan_maxmin_scenario(&inst, surge);
    assert!(worst(&maxmin) > 0.0, "SWAN-Maxmin {maxmin:?}");
    let thr = swan::swan_throughput_scenario(&inst, surge);
    assert!(worst(&thr) > 0.0, "SWAN-Throughput {thr:?}");
    let opt = mcf::optimal_scen_loss(&inst, surge, true);
    assert!(opt > 0.0, "optimal ScenLoss {opt}");

    // The emulator's forwarding state admits what ScenBest serves, and no
    // flow more than its surge demand.
    let served: Vec<f64> =
        (0..inst.num_flows()).map(|f| (1.0 - best[f]) * inst.flow_demand(f) * 2.0).collect();
    let plans = flexile::emu::plans_from_served(&inst, surge, &served, 100);
    for f in 0..inst.num_flows() {
        let plan = &plans[inst.flow_class(f)][inst.flow_pair(f)];
        let (got, want) = (plan.admitted, served[f]);
        assert!((got - want).abs() < 1e-9, "flow {f} admitted {got}, served {want}");
        assert!(plan.admitted <= inst.flow_demand(f) * 2.0, "flow {f} admitted {}", plan.admitted);
    }
}

#[test]
fn cvar_flow_ad_designs_a_surge_like_doubled_demands() {
    // A 2× surge in every scenario is the same problem as doubled base
    // demands, so Cvar-Flow-Ad must give both the same losses: its design
    // LP has to scale each scenario's routing block by the demand factor,
    // as its oracle and post-analysis do. Unequal demands make each flow's
    // share of the surge loss depend on the design.
    use flexile::te::cvar_flow;
    let (mut inst, set) = fig1(0.99);
    inst.demands[0][1] = 0.4;
    let surge = with_demand_levels(&set, &[(2.0, 1.0)]);
    let mut doubled = inst.clone();
    doubled.demands[0].iter_mut().for_each(|d| *d *= 2.0);
    let opts = cvar_flow::CvarOptions::new(0.99);
    let surged = cvar_flow::cvar_flow_ad(&inst, &surge, &opts);
    let plain = cvar_flow::cvar_flow_ad(&doubled, &set, &opts);
    assert_eq!(surged.loss, plain.loss);
}
