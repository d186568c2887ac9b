//! Best-first branch-and-bound for mixed-integer programs.
//!
//! The Flexile formulation (I) and the decomposition master problem are MIPs
//! over binary `z_fq` variables. This module provides an exact solver for
//! small/medium instances: LP relaxation at every node, branching on the most
//! fractional integer variable, best-bound node selection.
//!
//! * **Warm nodes.** Only the root relaxation is solved cold. Every other
//!   node carries its parent's optimal basis, shared by both children. A
//!   branching bound change keeps that basis dual feasible, so the LP layer
//!   repairs it with a dual restart, capped at about a cold solve's cost
//!   (see [`crate::simplex`]), without first scanning it for dual
//!   feasibility. Three things make that restart cheap. It starts from a
//!   copy of the LU factors the parent's solve ended on, kept for the
//!   `CARRY_KEPT` most recently branched nodes, instead of refactorizing
//!   the same basis. It stops as soon as its duals certify that the node's
//!   optimum reaches the incumbent's pruning threshold, since such a node
//!   is dropped whatever its optimum. And its pivot row is built over the
//!   non-zeros of `e_r B⁻¹` only. None of them changes a returned
//!   solution, so the search explores the same tree. The cold solves are
//!   presolved: the root, and the rounding heuristic, whose fixed integer
//!   columns presolve removes. Warm nodes and dives are not, since their
//!   basis addresses the full column space.
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
use crate::simplex::{Basis, NodeLp, SimplexOptions, Solution};
use crate::sparse::LuFactors;
use crate::tol::INT_TOL;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A dive starts at the root and at every `DIVE_EVERY`th explored node.
const DIVE_EVERY: usize = 50;

/// Branched nodes whose final LU factors are kept for their children (see
/// `Search::carry`). A child whose parent's factors were dropped
/// refactorizes instead. Each factorization of a master basis is a few KB.
const CARRY_KEPT: usize = 32;

#[cfg(test)]
thread_local! {
    /// Test-only switch that turns the node cutoff and the carried factors
    /// off, so tests can require the same search with and without them.
    static NODE_SHORTCUTS_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Test-only tally of warm node LPs: `(stopped at the cutoff, started
    /// from carried factors)`, so tests can tell the shortcuts fired.
    static SHORTCUTS_TAKEN: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Whether node LPs stop at the cutoff and start from carried factors.
fn node_shortcuts() -> bool {
    #[cfg(test)]
    if NODE_SHORTCUTS_OFF.with(|c| c.get()) {
        return false;
    }
    true
}

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
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            max_nodes: 20_000,
            time_limit: Duration::from_secs(60),
            abs_gap: 1e-6,
            rel_gap: 1e-6,
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

/// A warm start: an optimal basis and, while its owner is among the last
/// `CARRY_KEPT` branched nodes, the LU factors its solve ended on.
struct Warm {
    basis: Basis,
    factors: RefCell<Option<Box<LuFactors>>>,
}

/// A solved relaxation: its point, objective and warm start.
struct Relaxed {
    x: Vec<f64>,
    objective: f64,
    warm: Warm,
}

impl Relaxed {
    fn new(sol: Solution, factors: Option<Box<LuFactors>>) -> Self {
        Relaxed {
            x: sol.x,
            objective: sol.objective,
            warm: Warm {
                basis: sol.basis,
                factors: RefCell::new(factors),
            },
        }
    }
}

struct Node {
    fixes: Vec<Fix>,
    /// The parent's warm start, shared with the sibling; `None` at the
    /// root, which solves cold.
    warm: Option<Rc<Warm>>,
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
    /// Options for cold solves (presolved) and warm ones (not).
    cold: SimplexOptions,
    warm: SimplexOptions,
    /// `1` for Min, `-1` for Max: objectives are compared in Min form.
    min_sign: f64,
    start: Instant,
    /// Best integer point and its Min-form objective.
    incumbent: Option<(Vec<f64>, f64)>,
    /// The branched nodes whose warm starts still hold factors, with
    /// their children's bound, oldest first, at most `CARRY_KEPT`.
    carried: VecDeque<(f64, Rc<Warm>)>,
    /// Factor buffers to reuse. Boxed, like every kept `LuFactors`, so a
    /// warm start without factors stays small and a buffer moves without
    /// copying the factorization workspace held inline.
    #[allow(clippy::vec_box)]
    spares: Vec<Box<LuFactors>>,
}

impl Search<'_> {
    fn to_min(&self, objective: f64) -> f64 {
        self.min_sign * objective
    }

    fn out_of_time(&self) -> bool {
        self.start.elapsed() >= self.opts.time_limit
    }

    /// The Min-form bound at and above which a node cannot beat the
    /// incumbent by more than the gap tolerances; `None` without one.
    fn cutoff(&self) -> Option<f64> {
        self.incumbent
            .as_ref()
            .map(|(_, inc)| inc - self.opts.abs_gap.max(self.opts.rel_gap * inc.abs()))
    }

    /// Whether a relaxation bound (Min form) cannot beat the incumbent by
    /// more than the gap tolerances.
    fn dominated(&self, bound_min: f64) -> bool {
        self.cutoff().is_some_and(|cut| bound_min >= cut)
    }

    /// Keep `warm`'s factors for its children, whose bound (Min form) is
    /// `bound`. Past `CARRY_KEPT`, first drop the oldest kept factors that
    /// no unexplored node shares any more, else those whose children have
    /// the highest bound, which best-first search reaches last.
    fn carry(&mut self, warm: &Rc<Warm>, bound: f64) {
        if warm.factors.borrow().is_none() {
            return;
        }
        if self.carried.len() == CARRY_KEPT {
            let kept = &self.carried;
            let at = kept
                .iter()
                .position(|(_, w)| Rc::strong_count(w) == 1)
                .unwrap_or_else(|| {
                    (1..kept.len()).fold(0, |k, i| if kept[i].0 > kept[k].0 { i } else { k })
                });
            if let Some((_, old)) = self.carried.remove(at) {
                self.recycle(&old);
            }
        }
        self.carried.push_back((bound, Rc::clone(warm)));
    }

    /// Take `warm`'s factors, if any, back as a spare buffer.
    fn recycle(&mut self, warm: &Warm) {
        if let Some(f) = warm.factors.borrow_mut().take() {
            self.spares.push(f);
        }
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

    /// Solve the relaxation under `fixes`, cold or warm from `warm`, then
    /// restore the model's bounds. `None` means infeasible, or (warm only)
    /// that the relaxation's optimum certainly reaches the cutoff, so the
    /// node is dominated.
    fn solve_lp(&mut self, fixes: &[Fix], warm: Option<&Warm>) -> Result<Option<Relaxed>, LpError> {
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
        let res = match warm {
            None => self
                .work
                .solve_with(&self.cold, None)
                .map(|sol| Some(Relaxed::new(sol, None))),
            Some(w) => self.solve_node(w),
        };
        for &(v, l, u) in &saved {
            self.work.set_bounds(v, l, u);
        }
        match res {
            Err(LpError::Infeasible) => Ok(None),
            res => res,
        }
    }

    /// The warm node LP under the model's current bounds: `None` when it
    /// stopped at the cutoff, else the relaxation with the factors its
    /// solve ended on.
    fn solve_node(&mut self, warm: &Warm) -> Result<Option<Relaxed>, LpError> {
        let on = node_shortcuts();
        let factors = warm.factors.borrow();
        let mut node = NodeLp {
            cutoff: self.cutoff().filter(|_| on).unwrap_or(f64::INFINITY),
            factors: factors.as_deref().filter(|_| on),
            spare: self.spares.pop(),
            carried: None,
        };
        let res = crate::robust::solve_node(&self.work, &self.warm, &warm.basis, &mut node);
        if let Some(spare) = node.spare {
            self.spares.push(spare);
        }
        let carried = node.carried.filter(|_| on);
        #[cfg(test)]
        SHORTCUTS_TAKEN.with(|t| {
            let (cut, carry) = t.get();
            let cut = cut + usize::from(matches!(res, Ok(None)));
            t.set((cut, carry + usize::from(node.factors.is_some())));
        });
        #[cfg(test)]
        if let Ok(None) = res {
            // A cut-off node must be one the full solve drops too.
            match self.work.solve_with(&self.warm, Some(&warm.basis)) {
                Ok(sol) => assert!(
                    self.dominated(self.to_min(sol.objective)),
                    "cut off at {} but the optimum is {}",
                    node.cutoff,
                    self.to_min(sol.objective)
                ),
                Err(e) => assert_eq!(e, LpError::Infeasible, "cut-off node"),
            }
        }
        Ok(res?.map(|sol| Relaxed::new(sol, carried)))
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
    fn dive(&mut self, fixes: &[Fix], sol: &Relaxed) -> Result<(), LpError> {
        let mut fixes = fixes.to_vec();
        let mut last: Option<Relaxed> = None;
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
            match self.solve_lp(&fixes, Some(&cur.warm))? {
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

    let cold = SimplexOptions::default();
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
        carried: VecDeque::with_capacity(CARRY_KEPT),
        spares: Vec::new(),
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
            s.recycle(&sol.warm);
            continue;
        }
        let Some((v, val)) = most_fractional(&s.ints, &sol.x) else {
            s.offer(&sol.x, obj_min);
            s.recycle(&sol.warm);
            continue;
        };
        if node.fixes.len() <= 1 && s.incumbent.is_none() {
            s.round_all(&sol.x)?;
        }
        if nodes == 1 || nodes.is_multiple_of(DIVE_EVERY) {
            s.dive(&node.fixes, &sol)?;
        }
        let warm = Rc::new(sol.warm);
        s.carry(&warm, obj_min);
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

    /// Random small MIP: binaries, a few general integers and bounded
    /// continuous columns under mixed rows, plus a penalty-like column
    /// `t ∈ [0, ∞)` that the objective pushes down against `t ≥ ...` rows,
    /// as in the decomposition master. The rows hold at a random point of
    /// the box, so the relaxation is feasible; the MIP may not be.
    fn random_mip(seed: u64) -> Model {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let sense = if rng.random_range(0..2u32) == 0 {
            Sense::Min
        } else {
            Sense::Max
        };
        let sign = if sense == Sense::Min { 1.0 } else { -1.0 };
        let mut m = Model::new(sense);
        let t = m.add_var("t", 0.0, f64::INFINITY, sign);
        let mut vars = Vec::new();
        let mut point = Vec::new();
        for j in 0..rng.random_range(6..16usize) {
            vars.push(m.add_binary(&format!("b{j}"), rng.random_range(-4.0..4.0)));
            point.push(rng.random_range(0.0..1.0));
        }
        for j in 0..rng.random_range(0..3usize) {
            let hi = rng.random_range(1..4u32) as f64;
            let v = m.add_var(&format!("i{j}"), 0.0, hi, rng.random_range(-3.0..3.0));
            m.set_integer(v);
            vars.push(v);
            point.push(rng.random_range(0.0..hi));
        }
        for j in 0..rng.random_range(0..3usize) {
            let hi = rng.random_range(0.5..5.0);
            vars.push(m.add_var(&format!("c{j}"), 0.0, hi, rng.random_range(-2.0..2.0)));
            point.push(rng.random_range(0.0..hi));
        }
        let row = |rng: &mut StdRng| -> (Vec<(VarId, f64)>, f64) {
            let mut coeffs = Vec::new();
            let mut lhs = 0.0;
            for (&v, &x) in vars.iter().zip(&point) {
                if rng.random_range(0.0..1.0) < 0.5 {
                    let a = (rng.random_range(-6..7i32) as f64) * 0.5;
                    coeffs.push((v, a));
                    lhs += a * x;
                }
            }
            (coeffs, lhs)
        };
        for _ in 0..rng.random_range(2..6usize) {
            let (coeffs, lhs) = row(&mut rng);
            if rng.random_range(0..2u32) == 0 {
                m.add_row_le(&coeffs, lhs + rng.random_range(0.0..1.0));
            } else {
                m.add_row_ge(&coeffs, lhs - rng.random_range(0.0..1.0));
            }
        }
        for _ in 0..rng.random_range(1..4usize) {
            // t ≥ c − a·x, written t + a·x ≥ c.
            let (mut coeffs, lhs) = row(&mut rng);
            coeffs.push((t, 1.0));
            m.add_row_ge(&coeffs, lhs + rng.random_range(0.0..3.0));
        }
        m
    }

    /// Everything a search returns, floats as bits.
    fn result_bits(
        r: &Result<MipResult, LpError>,
    ) -> Result<(MipStatus, Vec<u64>, u64, u64, usize), LpError> {
        r.clone().map(|r| {
            let x = r.x.iter().map(|v| v.to_bits()).collect();
            (
                r.status,
                x,
                r.objective.to_bits(),
                r.bound.to_bits(),
                r.nodes,
            )
        })
    }

    /// `f` with the node cutoff and the carried factors off.
    fn without_shortcuts<T>(f: impl FnOnce() -> T) -> T {
        NODE_SHORTCUTS_OFF.with(|c| c.set(true));
        let out = f();
        NODE_SHORTCUTS_OFF.with(|c| c.set(false));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The node cutoff and the carried factors change no result: the
        /// same statuses, points, objectives, bounds and node counts to
        /// the bit. (Every cut-off node is also re-solved in full, in
        /// `Search::solve_node`, and must be dominated or infeasible.)
        #[test]
        fn node_shortcuts_keep_every_result(seed in 0u64..1_000_000) {
            let m = random_mip(seed);
            let on = solve_mip(&m, &MipOptions::default());
            let off = without_shortcuts(|| solve_mip(&m, &MipOptions::default()));
            proptest::prop_assert_eq!(result_bits(&on), result_bits(&off), "seed {}", seed);
        }
    }

    #[test]
    fn node_shortcuts_fire_on_random_mips() {
        SHORTCUTS_TAKEN.with(|t| t.set((0, 0)));
        for seed in 0..60 {
            let m = random_mip(seed);
            solve_mip(&m, &MipOptions::default()).expect("random MIP solves");
        }
        let (cut, carried) = SHORTCUTS_TAKEN.with(|t| t.get());
        assert!(cut > 0, "no node stopped at the cutoff");
        assert!(carried > 0, "no node started from carried factors");
        SHORTCUTS_TAKEN.with(|t| t.set((0, 0)));
        without_shortcuts(|| solve_mip(&random_mip(0), &MipOptions::default()).unwrap());
        assert_eq!(
            SHORTCUTS_TAKEN.with(|t| t.get()),
            (0, 0),
            "the switch turns both off"
        );
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
