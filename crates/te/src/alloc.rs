//! The per-scenario allocation layer every online scheme shares.
//!
//! Every online scheme (ScenBest, SWAN, Flexile's online phase) solves the
//! same kind of model per failure scenario: tunnel-bandwidth variables for
//! the live tunnels of each (class, pair), per-directed-arc capacity rows
//! scaled by the scenario's capacity factors, and per-pair "served
//! bandwidth" expressions. [`ScenAlloc`] builds that skeleton once per
//! scenario and lets schemes layer objectives and side constraints on top.
//!
//! It is also the one place that knows the per-scenario allocation
//! decisions the schemes share:
//!
//! * **Scenario demand and loss** — [`ScenAlloc::demand`] scales a
//!   (class, pair)'s demand by the scenario's demand factor (§4.4 traffic
//!   matrix scenarios), and [`served_loss`] is the one served→loss rule.
//! * **Max-min water-fill** — [`ScenAlloc::waterfill`], SWAN's iterative
//!   approximation (§4.3), run by SWAN-Maxmin and by Flexile's online
//!   controller.
//! * **Pinned hop-minimal routing** — [`ScenAlloc::route_pinned`] turns
//!   per-flow served amounts into per-tunnel rates; the emulator's
//!   forwarding state, the lexicographic design and SWAN's per-class
//!   capacity consumption read it.
//! * **Capacity consumption** — [`consume_capacity`] shrinks a scenario's
//!   capacity factors by one class's tunnel rates, for the schemes that
//!   allocate classes in strict priority order.

use crate::types::clamp_loss;
use flexile_lp::{solve_robust, LpError, Model, Sense, SimplexOptions, Solution, SolveReport, VarId};
use flexile_scenario::Scenario;
use flexile_traffic::Instance;

/// Solve rounds a water-fill may spend per class before freezing every
/// remaining pair at its last observed share.
const WATERFILL_ROUNDS: usize = 16;

/// The served→loss rule: a flow with no demand loses nothing, a
/// disconnected flow loses everything, and any other flow loses the unserved
/// share of its demand `d`, clamped to `[0, 1]`.
pub fn served_loss(d: f64, connected: bool, served: f64) -> f64 {
    if d <= 0.0 {
        0.0
    } else if !connected {
        1.0
    } else {
        clamp_loss(1.0 - served / d)
    }
}

/// Shrink `scen`'s capacity factors by the arc usage of class `k`'s tunnel
/// rates (`rates[p][t]`, as [`ScenAlloc::route_pinned`] returns them for
/// that class). A link keeps what its more-used direction leaves.
pub fn consume_capacity(inst: &Instance, k: usize, rates: &[Vec<f64>], scen: &mut Scenario) {
    let mut usage = vec![0.0; inst.num_arcs()];
    for (p, rp) in rates.iter().enumerate() {
        for (t, &amt) in rp.iter().enumerate() {
            if amt > 0.0 {
                for a in inst.arc_ids(&inst.tunnels[k].tunnels[p][t]) {
                    usage[a] += amt;
                }
            }
        }
    }
    for l in 0..inst.topo.num_links() {
        let cap = inst.arc_capacity(2 * l);
        let used = usage[2 * l].max(usage[2 * l + 1]);
        let left = (scen.cap_factor[l] * cap - used).max(0.0);
        scen.cap_factor[l] = if cap > 0.0 { left / cap } else { 0.0 };
    }
}

/// Per-scenario allocation model skeleton.
pub struct ScenAlloc<'a> {
    /// The underlying LP model (mutable access for scheme-specific rows).
    pub model: Model,
    /// The instance this allocates for.
    pub inst: &'a Instance,
    /// `x[k][p][t]`: bandwidth variable of tunnel `t` of pair `p`, class
    /// `k`. Dead tunnels get a fixed `[0,0]` variable so indexing stays
    /// uniform.
    pub x: Vec<Vec<Vec<VarId>>>,
    /// `tunnel_alive[k][p][t]` for this scenario.
    pub tunnel_alive: Vec<Vec<Vec<bool>>>,
    /// Whether pair `p` of class `k` has any live tunnel.
    pub pair_alive: Vec<Vec<bool>>,
    /// The scenario's demand factor; [`ScenAlloc::demand`] applies it.
    demand_factor: f64,
}

impl<'a> ScenAlloc<'a> {
    /// Build the skeleton: variables + capacity rows for `scen`.
    pub fn new(inst: &'a Instance, scen: &Scenario, sense: Sense) -> Self {
        let mut model = Model::new(sense);
        let dead = scen.dead_mask();
        let num_arcs = inst.num_arcs();
        let mut arc_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); num_arcs];
        let mut x = Vec::with_capacity(inst.num_classes());
        let mut tunnel_alive = Vec::with_capacity(inst.num_classes());
        let mut pair_alive = Vec::with_capacity(inst.num_classes());
        for k in 0..inst.num_classes() {
            let mut xk = Vec::with_capacity(inst.num_pairs());
            let mut ak = Vec::with_capacity(inst.num_pairs());
            let mut pk = Vec::with_capacity(inst.num_pairs());
            for p in 0..inst.num_pairs() {
                let tunnels = &inst.tunnels[k].tunnels[p];
                let mut xp = Vec::with_capacity(tunnels.len());
                let mut ap = Vec::with_capacity(tunnels.len());
                let mut any = false;
                for (t, path) in tunnels.iter().enumerate() {
                    let alive = path.alive(&dead);
                    any |= alive;
                    let ub = if alive { f64::INFINITY } else { 0.0 };
                    let v = model.add_var(&format!("x_{k}_{p}_{t}"), 0.0, ub, 0.0);
                    if alive {
                        for a in inst.arc_ids(path) {
                            arc_terms[a].push((v, 1.0));
                        }
                    }
                    xp.push(v);
                    ap.push(alive);
                }
                xk.push(xp);
                ak.push(ap);
                pk.push(any);
            }
            x.push(xk);
            tunnel_alive.push(ak);
            pair_alive.push(pk);
        }
        for (a, terms) in arc_terms.into_iter().enumerate() {
            if terms.is_empty() {
                continue;
            }
            let factor = scen.cap_factor[inst.arc_link(a)];
            model.add_row_le(&terms, inst.arc_capacity(a) * factor);
        }
        ScenAlloc { model, inst, x, tunnel_alive, pair_alive, demand_factor: scen.demand_factor }
    }

    /// Demand of `(class, pair)` in this scenario.
    pub fn demand(&self, k: usize, p: usize) -> f64 {
        self.inst.demands[k][p] * self.demand_factor
    }

    /// Coefficient list for the served bandwidth of `(class, pair)` over its
    /// live tunnels.
    pub fn served_coeffs(&self, k: usize, p: usize) -> Vec<(VarId, f64)> {
        self.x[k][p]
            .iter()
            .zip(self.tunnel_alive[k][p].iter())
            .filter(|(_, &alive)| alive)
            .map(|(&v, _)| (v, 1.0))
            .collect()
    }

    /// Served bandwidth of `(class, pair)` at a solution.
    pub fn served_at(&self, sol: &Solution, k: usize, p: usize) -> f64 {
        self.x[k][p]
            .iter()
            .zip(self.tunnel_alive[k][p].iter())
            .filter(|(_, &alive)| alive)
            .map(|(&v, _)| sol.value(v))
            .sum()
    }

    /// Loss of `(class, pair)` when it is served `served` ([`served_loss`]
    /// at this scenario's demand and connectivity).
    pub fn loss(&self, k: usize, p: usize, served: f64) -> f64 {
        served_loss(self.demand(k, p), self.pair_alive[k][p], served)
    }

    /// Per-flow losses at a solution, in the instance's flow order.
    pub fn losses_at(&self, sol: &Solution) -> Vec<f64> {
        (0..self.inst.num_flows())
            .map(|f| {
                let (k, p) = (self.inst.flow_class(f), self.inst.flow_pair(f));
                self.loss(k, p, self.served_at(sol, k, p))
            })
            .collect()
    }

    /// Max-min water-fill of class `k` on served fraction: repeatedly
    /// maximize the common fraction `t` every unfrozen pair is served, then
    /// freeze the pairs a throughput-maximizing pass at floor `t` cannot
    /// lift above it, until every pair is frozen or fully served.
    ///
    /// Each round's rows live on a copy of the model; the model itself only
    /// gains the class's `t` variable, so the caller decides what to pin
    /// afterwards. The caller adds the demand caps. Returns per-pair served
    /// amounts, or the terminal error of the first solve the
    /// [`solve_robust`] ladder could not rescue; every solve's report is
    /// appended to `reports`.
    pub fn waterfill(
        &mut self,
        k: usize,
        reports: &mut Vec<SolveReport>,
    ) -> Result<Vec<f64>, LpError> {
        let np = self.inst.num_pairs();
        let demands: Vec<f64> = (0..np).map(|p| self.demand(k, p)).collect();
        let mut frozen: Vec<Option<f64>> = (0..np)
            .map(|p| (demands[p] <= 0.0 || !self.pair_alive[k][p]).then_some(0.0))
            .collect();
        let t_var = self.model.add_var(&format!("t_{k}"), 0.0, 1.0, 0.0);
        let mut served = vec![0.0; np];
        for _round in 0..WATERFILL_ROUNDS {
            let unfrozen: Vec<usize> = (0..np).filter(|&p| frozen[p].is_none()).collect();
            if unfrozen.is_empty() {
                break;
            }
            let mut m = self.model.clone();
            m.set_obj(t_var, 1.0);
            for p in 0..np {
                match frozen[p] {
                    Some(fr) if demands[p] > 0.0 && self.pair_alive[k][p] => {
                        let coeffs = self.served_coeffs(k, p);
                        m.add_row_ge(&coeffs, fr * demands[p] - 1e-9);
                    }
                    None => {
                        let mut coeffs = self.served_coeffs(k, p);
                        coeffs.push((t_var, -demands[p]));
                        m.add_row_ge(&coeffs, 0.0);
                    }
                    _ => {}
                }
            }
            let out = solve_robust(&m, &SimplexOptions::default(), None);
            reports.push(out.report);
            let t = out.result?.value(t_var);
            if t >= 1.0 - 1e-9 {
                for &p in &unfrozen {
                    frozen[p] = Some(1.0);
                }
                break;
            }
            // Freeze detection on the same rows: hold the floor at t and
            // maximize the unfrozen pairs' throughput.
            m.set_obj(t_var, 0.0);
            m.set_bounds(t_var, (t - 1e-9).max(0.0), 1.0);
            for &p in &unfrozen {
                for (v, _) in self.served_coeffs(k, p) {
                    m.set_obj(v, 1.0);
                }
            }
            let out = solve_robust(&m, &SimplexOptions::default(), None);
            reports.push(out.report);
            let sol = out.result?;
            let mut newly = 0;
            for &p in &unfrozen {
                let got = self.served_at(&sol, k, p);
                served[p] = got;
                if got <= t * demands[p] + 1e-6 {
                    frozen[p] = Some(t);
                    newly += 1;
                }
            }
            if newly == 0 {
                for &p in &unfrozen {
                    frozen[p] = Some((served[p] / demands[p]).min(1.0));
                }
                break;
            }
        }
        for p in 0..np {
            if let Some(fr) = frozen[p] {
                served[p] = fr * demands[p];
            }
        }
        Ok(served)
    }

    /// Route per-flow served amounts (`served[f]`, instance flow order) on
    /// a fresh `Sense::Max` skeleton: each live flow gets at least
    /// `served − 1e-7` and at most its demand, and the routing minimizes
    /// total bandwidth·hops, so it is canonical and prefers short tunnels.
    /// A shared elastic slack, penalized far above any hop cost, keeps the
    /// LP feasible when a target is not achievable. Returns the per-tunnel
    /// rates `rates[k][p][t]`.
    pub fn route_pinned(mut self, served: &[f64]) -> Vec<Vec<Vec<f64>>> {
        let inst = self.inst;
        let eps = self.model.add_var("eps", 0.0, 1.0, -1e6);
        for k in 0..inst.num_classes() {
            for p in 0..inst.num_pairs() {
                let d = self.demand(k, p);
                if !self.pair_alive[k][p] || d <= 0.0 {
                    continue;
                }
                let coeffs = self.served_coeffs(k, p);
                self.model.add_row_le(&coeffs, d);
                let mut floor = coeffs;
                floor.push((eps, d));
                self.model.add_row_ge(&floor, (served[inst.flow_index(k, p)] - 1e-7).max(0.0));
                for (t, &v) in self.x[k][p].iter().enumerate() {
                    let hops = (inst.tunnels[k].tunnels[p][t].len() as f64).max(1.0);
                    self.model.set_obj(v, -hops);
                }
            }
        }
        let sol = self.model.solve().expect("elastic pinned-routing LP is always feasible");
        self.x
            .iter()
            .map(|xk| xk.iter().map(|xp| xp.iter().map(|&v| sol.value(v)).collect()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexile_scenario::{enumerate_scenarios, model::link_units, EnumOptions};
    use flexile_topo::topology_by_name;
    use flexile_traffic::Instance;

    fn sprint_instance() -> (Instance, flexile_scenario::ScenarioSet) {
        let topo = topology_by_name("Sprint").unwrap();
        let probs = vec![0.01; topo.num_links()];
        let units = link_units(&topo, &probs);
        let set = enumerate_scenarios(
            &units,
            topo.num_links(),
            &EnumOptions { prob_cutoff: 1e-4, max_scenarios: 30, coverage_target: 2.0 },
        );
        let inst = Instance::single_class(topo, 7, 0.6, Some(30));
        (inst, set)
    }

    #[test]
    fn skeleton_shapes() {
        let (inst, set) = sprint_instance();
        let alloc = ScenAlloc::new(&inst, &set.scenarios[0], Sense::Max);
        assert_eq!(alloc.x.len(), 1);
        assert_eq!(alloc.x[0].len(), inst.num_pairs());
        // All-alive scenario: every pair alive.
        assert!(alloc.pair_alive[0].iter().all(|&b| b));
    }

    #[test]
    fn dead_tunnels_are_fixed_to_zero() {
        let (inst, set) = sprint_instance();
        // Check every failure scenario: any tunnel crossing a dead link
        // must have its variable pinned to zero. Which scenarios actually
        // kill a tunnel depends on the (seeded) pair subsample, so require
        // only that the whole sweep exercises at least one dead tunnel.
        let mut saw_dead = false;
        for scen in set.scenarios.iter().filter(|s| !s.failed_units.is_empty()) {
            let alloc = ScenAlloc::new(&inst, scen, Sense::Max);
            for p in 0..inst.num_pairs() {
                for (t, &alive) in alloc.tunnel_alive[0][p].iter().enumerate() {
                    if !alive {
                        saw_dead = true;
                        let (lb, ub) = alloc.model.bounds(alloc.x[0][p][t]);
                        assert_eq!((lb, ub), (0.0, 0.0));
                    }
                }
            }
        }
        assert!(saw_dead, "expected some dead tunnel across the failure scenarios");
    }

    #[test]
    fn capacity_rows_bind_throughput() {
        let (inst, set) = sprint_instance();
        let mut alloc = ScenAlloc::new(&inst, &set.scenarios[0], Sense::Max);
        // Maximize total served, bounded by demand.
        let mut total = Vec::new();
        for p in 0..inst.num_pairs() {
            let coeffs = alloc.served_coeffs(0, p);
            alloc.model.add_row_le(&coeffs, inst.demands[0][p]);
            total.extend(coeffs);
        }
        for (v, _) in &total {
            alloc.model.set_obj(*v, 1.0);
        }
        let sol = alloc.model.solve().unwrap();
        let served: f64 = (0..inst.num_pairs()).map(|p| alloc.served_at(&sol, 0, p)).sum();
        let demand: f64 = inst.demands[0].iter().sum();
        // MLU 0.6 => the intact network can serve everything.
        assert!((served - demand).abs() / demand < 1e-6, "served {served} vs {demand}");
    }

    #[test]
    fn pinned_routing_realizes_scen_best_targets() {
        // Every caller of the pinned routing (emulator plans, lexicographic
        // design, SWAN's per-class usage) relies on these three properties.
        let (inst, set) = sprint_instance();
        for (q, scen) in set.scenarios.iter().enumerate() {
            let losses = crate::mcf::scen_best_scenario(&inst, scen, true);
            let alloc = ScenAlloc::new(&inst, scen, Sense::Max);
            let served: Vec<f64> =
                (0..inst.num_pairs()).map(|p| (1.0 - losses[p]) * alloc.demand(0, p)).collect();
            let alive = alloc.tunnel_alive.clone();
            let rates = alloc.route_pinned(&served);
            let mut usage = vec![0.0; inst.num_arcs()];
            for p in 0..inst.num_pairs() {
                let got: f64 = rates[0][p].iter().sum();
                let want = served[p];
                assert!((got - want).abs() <= 1e-6, "scenario {q} pair {p}: {got} vs {want}");
                for (t, &r) in rates[0][p].iter().enumerate() {
                    if !alive[0][p][t] {
                        assert_eq!(r, 0.0, "scenario {q} pair {p} dead tunnel {t}");
                    }
                    for a in inst.arc_ids(&inst.tunnels[0].tunnels[p][t]) {
                        usage[a] += r;
                    }
                }
            }
            for (a, &u) in usage.iter().enumerate() {
                let cap = inst.arc_capacity(a) * scen.cap_factor[inst.arc_link(a)];
                assert!(u <= cap + 1e-6 * (1.0 + cap), "scenario {q} arc {a}: {u} > {cap}");
            }
        }
    }
}
