//! # flexile-core — percentile-loss traffic engineering
//!
//! The paper's primary contribution: minimize, for each traffic class `k`,
//! the maximum across flows of the β_k-th percentile of flow loss
//! (**PercLoss**), by choosing per-flow *critical scenarios* — the failure
//! states in which the flow's bandwidth objective must hold — and
//! prioritizing critical flows when allocating bandwidth online.
//!
//! Components (paper section in parentheses):
//!
//! * [`subproblem`] (§4.2) — the per-scenario LP `S_q` in the reformulated
//!   form (17)/(18) whose left-hand side is scenario-independent, so one
//!   template model is re-solved per scenario with only RHS changes and a
//!   warm-started basis; its duals yield the Benders cuts (21)/(22).
//! * [`master`] (§4.2) — the cut-collecting master problem (M) with the
//!   per-flow coverage constraint (3) and the Hamming-distance stabilizer
//!   (23); solved exactly by branch-and-bound on small instances and by
//!   LP-relaxation + per-flow greedy rounding on large ones.
//! * [`decomposition`] (§4.2, Algorithm 1) — the iteration loop with the
//!   connected-flow starting heuristic (Proposition 1), perfect-scenario and
//!   unchanged-critical-set pruning, and parallel subproblem solving.
//! * [`model`] (§4.1) — the monolithic MIP formulation (I), the paper's `IP`
//!   baseline for optimality-gap experiments (Fig. 14).
//! * [`online`] (§4.3) — the critical-flow-aware online allocation: reserve
//!   the offline-promised bandwidth of critical flows, then loss max-min for
//!   everything else with strict class priority and *joint* re-routing of
//!   higher classes.
//! * [`capacity`] (§4.4/appendix D) — minimum-cost capacity augmentation to
//!   meet PercLoss targets.
//! * [`checkpoint`] / [`killpoints`] — crash safety: versioned, checksummed
//!   snapshots of the decomposition state written at iteration boundaries
//!   (resumed by [`decompose_resume`]), and deterministic kill-points for
//!   chaos-testing the panic-contained scenario pool.

#![warn(missing_docs)]

pub mod capacity;
pub mod checkpoint;
pub mod decomposition;
pub mod killpoints;
pub mod lexicographic;
pub mod master;
#[cfg(test)]
mod mip_oracle;
pub mod model;
pub mod online;
pub(crate) mod pool;
pub mod subproblem;

pub use checkpoint::{CheckpointError, CHECKPOINT_VERSION};
pub use decomposition::{
    decompose_resume, solve_flexile, FlexileDesign, FlexileOptions, IterationStat, PoolPolicy,
};
pub use killpoints::{DecompositionAborted, KillGuard, KillPoint};
pub use pool::{PoolError, MAX_PANIC_RETRIES};
pub use lexicographic::{solve_flexile_lexicographic, LexicographicDesign};
pub use model::{solve_ip, IpResult};
pub use online::{
    carry_forward_losses, flexile_losses, flexile_losses_with_report, online_allocate,
    online_allocate_robust, proportional_share_losses, DegradationLevel, OnlineOutcome,
    OnlineRunReport,
};

/// Compensate for imperfect failure-probability prediction (§4.4): design
/// for a slightly higher target so that even if the predicted scenario
/// probabilities overestimate reality by a relative `error_margin`, the
/// scenarios selected still cover the true SLO target.
///
/// If predictions can overstate each scenario's probability by a factor of
/// up to `1 + error_margin`, covering `β'` of predicted mass guarantees at
/// least `β' / (1 + error_margin)` of true mass, so we design for
/// `β' = min(β · (1 + error_margin), 1)`.
pub fn inflate_beta(beta: f64, error_margin: f64) -> f64 {
    assert!((0.0..=1.0).contains(&beta));
    assert!(error_margin >= 0.0);
    (beta * (1.0 + error_margin)).min(1.0)
}

/// Resolve each class's design target β: explicit positive values pass
/// through; zero placeholders are filled with the largest feasible target
/// (`ScenarioSet::max_feasible_beta` over the class's tunnels), matching §6.
pub fn effective_betas(
    inst: &flexile_traffic::Instance,
    set: &flexile_scenario::ScenarioSet,
) -> Vec<f64> {
    inst.classes
        .iter()
        .enumerate()
        .map(|(k, c)| {
            if c.beta > 0.0 {
                c.beta
            } else {
                set.max_feasible_beta(&inst.tunnels[k])
            }
        })
        .collect()
}
