//! Best-first branch-and-bound for mixed-integer programs.
//!
//! The Flexile formulation (I) and the decomposition master problem are MIPs
//! over binary `z_fq` variables. This module provides an exact solver for
//! small/medium instances: LP relaxation at every node, branching on the most
//! fractional integer variable, best-bound node selection.
//!
//! * **Warm nodes.** Only the root relaxation is solved cold (presolved when
//!   [`MipOptions::presolve`] is on). Every other node carries its parent's
//!   optimal basis, shared by both children. A branching bound change keeps
//!   that basis dual feasible, so the LP layer repairs it with a dual
//!   restart, capped at about a cold solve's cost (see [`crate::simplex`]).
//!   Warm nodes skip presolve: their basis addresses the full column space.
//! * **Incumbents.** Until one exists, a fix-and-resolve rounding heuristic
//!   (a cold solve with every integer fixed) runs at shallow nodes. At the
//!   root and every `DIVE_EVERY`th node a depth-first dive repeatedly fixes
//!   the most fractional integer to its nearest value within the node's
//!   bounds and warm re-solves, until the point is integral (a candidate
//!   incumbent), infeasible, or dominated by the incumbent.
//!
//! Node and time budgets make it safe to call on larger instances. When one
//! runs out, the result reports the incumbent with the best bound over the
//! unexplored frontier (`MipStatus::Feasible`, or `Unknown` without an
//! incumbent).

use crate::error::LpError;
use crate::model::{Model, Sense, VarId};
use crate::simplex::{Basis, SimplexOptions, Solution};
use crate::tol::INT_TOL;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A dive starts at the root and at every `DIVE_EVERY`th explored node.
const DIVE_EVERY: usize = 50;

/// Options for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Maximum number of explored nodes (dive re-solves not counted).
    pub max_nodes: usize,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Prune a node whose bound is within `abs_gap` of the incumbent.
    pub abs_gap: f64,
    /// Prune a node whose bound is within `rel_gap · |incumbent|` of the
    /// incumbent.
    pub rel_gap: f64,
    /// Run the LP presolve on the cold solves: the root relaxation and the
    /// rounding heuristic, whose fixed integer columns the presolve
    /// eliminates. Warm nodes and dives never presolve.
    pub presolve: bool,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            max_nodes: 20_000,
            time_limit: Duration::from_secs(60),
            abs_gap: 1e-6,
            rel_gap: 1e-6,
            presolve: true,
        }
    }
}

/// Terminal status of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proven optimal within the gap tolerances.
    Optimal,
    /// An incumbent exists but optimality was not proven (budget ran out).
    Feasible,
    /// No integer-feasible point exists.
    Infeasible,
    /// Budget ran out before any incumbent was found.
    Unknown,
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct MipResult {
    /// Terminal status.
    pub status: MipStatus,
    /// Best integer-feasible point found (structural variables).
    pub x: Vec<f64>,
    /// Objective of the incumbent (in the model's sense).
    pub objective: f64,
    /// Best proven bound on the optimum (lower bound for Min, upper for Max).
    pub bound: f64,
    /// Nodes explored.
    pub nodes: usize,
}

/// Bound override for an integer variable: `(var, lb, ub)`.
type Fix = (VarId, f64, f64);

struct Node {
    fixes: Vec<Fix>,
    /// The parent's optimal basis, shared with the sibling; `None` at the
    /// root, which solves cold.
    warm: Option<Rc<Basis>>,
}

struct HeapEntry {
    bound_min: f64,
    seq: usize,
    node: Node,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound_min == other.bound_min && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest minimization bound
        // first, so reverse. Tie-break on insertion order (DFS-ish).
        other
            .bound_min
            .partial_cmp(&self.bound_min)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The most fractional integer variable of `x`, with its value.
fn most_fractional(ints: &[VarId], x: &[f64]) -> Option<(VarId, f64)> {
    let mut branch = None;
    let mut best_frac = INT_TOL;
    for &v in ints {
        let val = x[v.index()];
        let frac = (val - val.round()).abs();
        if frac > best_frac {
            best_frac = frac;
            branch = Some((v, val));
        }
    }
    branch
}

/// `val` rounded to the nearest integer, clamped into `[lo, hi]`; `None`
/// when that range holds no integer.
fn round_within(val: f64, lo: f64, hi: f64) -> Option<f64> {
    let r = val.round().min(hi.floor()).max(lo.ceil());
    (r <= hi).then_some(r)
}

/// Set `v`'s override in `fixes` to `[lo, hi]`.
fn set_fix(fixes: &mut Vec<Fix>, v: VarId, lo: f64, hi: f64) {
    match fixes.iter_mut().find(|f| f.0 == v) {
        Some(f) => (f.1, f.2) = (lo, hi),
        None => fixes.push((v, lo, hi)),
    }
}

/// Search state shared by the node loop, the rounding heuristic and dives.
struct Search<'a> {
    work: Model,
    ints: Vec<VarId>,
    opts: &'a MipOptions,
    /// Options for cold solves (presolve as configured) and warm ones.
    cold: SimplexOptions,
    warm: SimplexOptions,
    /// `1` for Min, `-1` for Max: objectives are compared in Min form.
    min_sign: f64,
    start: Instant,
    /// Best integer point and its Min-form objective.
    incumbent: Option<(Vec<f64>, f64)>,
}

impl Search<'_> {
    fn to_min(&self, objective: f64) -> f64 {
        self.min_sign * objective
    }

    fn out_of_time(&self) -> bool {
        self.start.elapsed() >= self.opts.time_limit
    }

    /// Whether a relaxation bound (Min form) cannot beat the incumbent by
    /// more than the gap tolerances.
    fn dominated(&self, bound_min: f64) -> bool {
        self.incumbent.as_ref().is_some_and(|(_, inc)| {
            bound_min >= inc - self.opts.abs_gap.max(self.opts.rel_gap * inc.abs())
        })
    }

    fn offer(&mut self, x: &[f64], obj_min: f64) {
        if self
            .incumbent
            .as_ref()
            .is_none_or(|(_, inc)| obj_min < *inc)
        {
            self.incumbent = Some((x.to_vec(), obj_min));
        }
    }

    /// Bounds of `v` under `fixes`.
    fn bounds_under(&self, fixes: &[Fix], v: VarId) -> (f64, f64) {
        fixes
            .iter()
            .find(|f| f.0 == v)
            .map_or_else(|| self.work.bounds(v), |f| (f.1, f.2))
    }

    /// Solve the relaxation under `fixes`, cold or warm from `basis`, then
    /// restore the model's bounds. `None` means infeasible.
    fn solve_lp(
        &mut self,
        fixes: &[Fix],
        basis: Option<&Basis>,
    ) -> Result<Option<Solution>, LpError> {
        let saved: Vec<Fix> = fixes
            .iter()
            .map(|&(v, _, _)| {
                let (l, u) = self.work.bounds(v);
                (v, l, u)
            })
            .collect();
        for &(v, l, u) in fixes {
            self.work.set_bounds(v, l, u);
        }
        let opts = if basis.is_some() {
            &self.warm
        } else {
            &self.cold
        };
        let res = self.work.solve_with(opts, basis);
        for &(v, l, u) in &saved {
            self.work.set_bounds(v, l, u);
        }
        match res {
            Ok(sol) => Ok(Some(sol)),
            Err(LpError::Infeasible) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Rounding heuristic: fix every integer to its rounded relaxation value
    /// (within the model's bounds) and solve the rest cold.
    fn round_all(&mut self, x: &[f64]) -> Result<(), LpError> {
        let mut fixes = Vec::with_capacity(self.ints.len());
        for &v in &self.ints {
            let (lo, hi) = self.work.bounds(v);
            let Some(r) = round_within(x[v.index()], lo, hi) else {
                return Ok(());
            };
            fixes.push((v, r, r));
        }
        if let Some(h) = self.solve_lp(&fixes, None)? {
            let obj = self.to_min(h.objective);
            self.offer(&h.x, obj);
        }
        Ok(())
    }

    /// Depth-first dive from a node's relaxation optimum `sol` under
    /// `fixes`: fix the most fractional integer to its nearest value within
    /// the current bounds and warm re-solve, until the point is integral,
    /// infeasible or dominated.
    fn dive(&mut self, fixes: &[Fix], sol: &Solution) -> Result<(), LpError> {
        let mut fixes = fixes.to_vec();
        let mut last: Option<Solution> = None;
        loop {
            let cur = last.as_ref().unwrap_or(sol);
            let Some((v, val)) = most_fractional(&self.ints, &cur.x) else {
                let obj = self.to_min(cur.objective);
                self.offer(&cur.x, obj);
                return Ok(());
            };
            let (lo, hi) = self.bounds_under(&fixes, v);
            let Some(r) = round_within(val, lo, hi) else {
                return Ok(());
            };
            if self.out_of_time() {
                return Ok(());
            }
            set_fix(&mut fixes, v, r, r);
            match self.solve_lp(&fixes, Some(&cur.basis))? {
                Some(next) if !self.dominated(self.to_min(next.objective)) => last = Some(next),
                _ => return Ok(()),
            }
        }
    }
}

/// Solve a MIP by branch and bound. The `model`'s integer variables are
/// those marked via [`Model::add_binary`]/[`Model::set_integer`].
pub fn solve_mip(model: &Model, opts: &MipOptions) -> Result<MipResult, LpError> {
    let ints = model.integer_vars();
    if ints.is_empty() {
        let sol = model.solve()?;
        return Ok(MipResult {
            status: MipStatus::Optimal,
            x: sol.x,
            objective: sol.objective,
            bound: sol.objective,
            nodes: 1,
        });
    }

    let cold = SimplexOptions { presolve: opts.presolve, ..SimplexOptions::default() };
    let mut s = Search {
        work: model.clone(),
        ints,
        opts,
        cold,
        warm: SimplexOptions {
            presolve: false,
            ..cold
        },
        min_sign: match model.sense() {
            Sense::Min => 1.0,
            Sense::Max => -1.0,
        },
        start: Instant::now(),
        incumbent: None,
    };

    let mut heap = BinaryHeap::new();
    let mut seq = 0usize;
    let mut nodes = 0usize;
    let mut exhausted = false;
    heap.push(HeapEntry {
        bound_min: f64::NEG_INFINITY,
        seq,
        node: Node {
            fixes: Vec::new(),
            warm: None,
        },
    });

    while let Some(entry) = heap.pop() {
        if s.dominated(entry.bound_min) {
            continue;
        }
        if nodes >= opts.max_nodes || s.out_of_time() {
            // The node stays unexplored: its bound belongs to the frontier.
            heap.push(entry);
            exhausted = true;
            break;
        }
        nodes += 1;
        let node = entry.node;
        let Some(sol) = s.solve_lp(&node.fixes, node.warm.as_deref())? else {
            continue;
        };
        let obj_min = s.to_min(sol.objective);
        if s.dominated(obj_min) {
            continue;
        }
        let Some((v, val)) = most_fractional(&s.ints, &sol.x) else {
            s.offer(&sol.x, obj_min);
            continue;
        };
        if node.fixes.len() <= 1 && s.incumbent.is_none() {
            s.round_all(&sol.x)?;
        }
        if nodes == 1 || nodes.is_multiple_of(DIVE_EVERY) {
            s.dive(&node.fixes, &sol)?;
        }
        let warm = Rc::new(sol.basis);
        let (lo, hi) = s.bounds_under(&node.fixes, v);
        let floor = val.floor();
        for (lo, hi) in [(lo, floor), (floor + 1.0, hi)] {
            if lo > hi {
                continue;
            }
            let mut fixes = node.fixes.clone();
            set_fix(&mut fixes, v, lo, hi);
            seq += 1;
            heap.push(HeapEntry {
                bound_min: obj_min,
                seq,
                node: Node {
                    fixes,
                    warm: Some(Rc::clone(&warm)),
                },
            });
        }
    }

    // Best bound: the least over the unexplored frontier and the incumbent
    // (`+∞` in Min form when the search proved infeasibility).
    let frontier = heap
        .iter()
        .map(|e| e.bound_min)
        .fold(f64::INFINITY, f64::min);
    let min_sign = s.min_sign;
    Ok(match s.incumbent {
        Some((x, inc)) => MipResult {
            status: if exhausted {
                MipStatus::Feasible
            } else {
                MipStatus::Optimal
            },
            objective: min_sign * inc,
            bound: min_sign * frontier.min(inc),
            x,
            nodes,
        },
        None => MipResult {
            status: if exhausted {
                MipStatus::Unknown
            } else {
                MipStatus::Infeasible
            },
            objective: f64::NAN,
            bound: min_sign * frontier,
            x: Vec::new(),
            nodes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    /// max 10a + 6b + 4c st 5a + 4b + 3c <= 10, binaries -> a=b=1 (16).
    fn knapsack_model() -> (Model, f64) {
        let mut m = Model::new(Sense::Max);
        let a = m.add_binary("a", 10.0);
        let b = m.add_binary("b", 6.0);
        let c = m.add_binary("c", 4.0);
        m.add_row_le(&[(a, 5.0), (b, 4.0), (c, 3.0)], 10.0);
        (m, 16.0)
    }

    /// min x st 2x >= 3, x integer -> x = 2 (not 1.5 rounded to 1/2 naive).
    fn rounding_model() -> (Model, f64) {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.set_integer(x);
        m.add_row_ge(&[(x, 2.0)], 3.0);
        (m, 2.0)
    }

    /// min a + b + c st a+b>=1, b+c>=1, a+c>=1, binaries -> 2 (LP: 1.5).
    fn covering_model() -> (Model, f64) {
        let mut m = Model::new(Sense::Min);
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        let c = m.add_binary("c", 1.0);
        m.add_row_ge(&[(a, 1.0), (b, 1.0)], 1.0);
        m.add_row_ge(&[(b, 1.0), (c, 1.0)], 1.0);
        m.add_row_ge(&[(a, 1.0), (c, 1.0)], 1.0);
        (m, 2.0)
    }

    /// max 2i + x st i <= 2.5 (int), x <= 1.7, i + x <= 3.5 -> i=2, x=1.5.
    fn mixed_model() -> (Model, f64) {
        let mut m = Model::new(Sense::Max);
        let i = m.add_var("i", 0.0, 2.5, 2.0);
        m.set_integer(i);
        let x = m.add_var("x", 0.0, 1.7, 1.0);
        m.add_row_le(&[(i, 1.0), (x, 1.0)], 3.5);
        (m, 5.5)
    }

    fn solve(m: &Model) -> MipResult {
        solve_mip(m, &MipOptions::default()).unwrap()
    }

    fn assert_optimum((m, opt): (Model, f64)) -> MipResult {
        let r = solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - opt).abs() < 1e-6, "{} vs {opt}", r.objective);
        assert!((r.bound - opt).abs() < 1e-6, "bound {} vs {opt}", r.bound);
        r
    }

    #[test]
    fn knapsack() {
        let r = assert_optimum(knapsack_model());
        assert!((r.x[0] - 1.0).abs() < 1e-6);
        assert!((r.x[1] - 1.0).abs() < 1e-6);
        assert!(r.x[2].abs() < 1e-6);
    }

    #[test]
    fn pure_lp_shortcut() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        m.add_row_ge(&[(x, 1.0)], 2.5);
        let r = solve(&m);
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.objective - 2.5).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_not_valid() {
        assert_optimum(rounding_model());
    }

    #[test]
    fn covering_problem() {
        assert_optimum(covering_model());
    }

    #[test]
    fn mixed_integer_continuous() {
        assert_optimum(mixed_model());
    }

    #[test]
    fn infeasible_mip() {
        // a + b = 1 and a + b >= 2 over binaries.
        let mut m = Model::new(Sense::Min);
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        m.add_row_eq(&[(a, 1.0), (b, 1.0)], 1.0);
        m.add_row_ge(&[(a, 1.0), (b, 1.0)], 2.0);
        let r = solve(&m);
        assert_eq!(r.status, MipStatus::Infeasible);
    }

    #[test]
    fn dive_rounds_within_fractional_bounds() {
        // The root relaxation has i = 2.5 at its bound; rounding it to 3
        // would leave the feasible region.
        assert_eq!(round_within(2.5, 0.0, 2.5), Some(2.0));
        assert_eq!(round_within(0.4, 0.6, 3.0), Some(1.0));
        assert_eq!(round_within(1.5, 1.2, 1.8), None);
    }

    #[test]
    fn budget_exit_keeps_the_unexplored_node() {
        // max i st i <= 2.5 integer: the root's only child is i <= 2 (the
        // i >= 3 side is empty). After one node the heuristics hold i = 2,
        // but that child is unexplored, so optimality is not proven.
        let mut m = Model::new(Sense::Max);
        let i = m.add_var("i", 0.0, 2.5, 1.0);
        m.set_integer(i);
        let r = solve_mip(
            &m,
            &MipOptions {
                max_nodes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Feasible);
        assert_eq!(r.nodes, 1);
        assert!((r.objective - 2.0).abs() < 1e-9);
        assert!((r.bound - 2.5).abs() < 1e-9, "bound {}", r.bound);
        let r = solve_mip(
            &m,
            &MipOptions {
                max_nodes: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.status, MipStatus::Optimal);
        assert!((r.bound - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_limit_proves_nothing() {
        for (m, _) in [
            knapsack_model(),
            rounding_model(),
            covering_model(),
            mixed_model(),
        ] {
            let opts = MipOptions {
                time_limit: Duration::ZERO,
                ..Default::default()
            };
            let r = solve_mip(&m, &opts).unwrap();
            assert_eq!(r.status, MipStatus::Unknown);
            assert_eq!(r.nodes, 0);
            assert!(r.x.is_empty());
            // Nothing explored: the bound is the trivial one.
            let trivial = if m.sense() == Sense::Max {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            assert_eq!(r.bound, trivial);
        }
    }

    #[test]
    fn node_budgets_of_one_to_three_stay_sound() {
        for max_nodes in 1..=3 {
            for (m, opt) in [
                knapsack_model(),
                rounding_model(),
                covering_model(),
                mixed_model(),
            ] {
                let r = solve_mip(
                    &m,
                    &MipOptions {
                        max_nodes,
                        ..Default::default()
                    },
                )
                .unwrap();
                // Min form: bound <= optimum <= objective.
                let sign = if m.sense() == Sense::Max { -1.0 } else { 1.0 };
                assert!(
                    sign * r.bound <= sign * opt + 1e-9,
                    "bound {} vs {opt}",
                    r.bound
                );
                match r.status {
                    MipStatus::Optimal => assert!((r.objective - opt).abs() < 1e-6),
                    MipStatus::Feasible => {
                        assert_eq!(r.nodes, max_nodes);
                        assert!(sign * r.objective >= sign * opt - 1e-9);
                    }
                    MipStatus::Unknown => assert_eq!(r.nodes, max_nodes),
                    MipStatus::Infeasible => panic!("feasible MIP reported infeasible"),
                }
                if !r.x.is_empty() {
                    assert!(m.max_violation(&r.x) <= 1e-7);
                }
            }
        }
    }
}
