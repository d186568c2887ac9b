//! # Flexile — meeting bandwidth objectives almost always
//!
//! A from-scratch Rust reproduction of the CoNEXT '22 paper
//! *"Flexile: Meeting bandwidth objectives almost always"* (Jiang, Li, Rao,
//! Tawarmalani): traffic engineering for cloud-provider WANs that minimizes
//! the **β-th percentile of per-flow bandwidth loss** across failure
//! scenarios by choosing *critical scenarios* per flow and prioritizing
//! critical flows online.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`lp`] | `flexile-lp` | bounded revised simplex, branch & bound, lazy rows |
//! | [`topo`] | `flexile-topo` | Table-2 topologies, Yen paths, tunnel selection |
//! | [`scenario`] | `flexile-scenario` | Weibull failures, SRLGs, scenario enumeration |
//! | [`traffic`] | `flexile-traffic` | gravity matrices, MLU scaling, instances |
//! | [`te`] | `flexile-te` | ScenBest/SMORE, SWAN, Teavar, CVaR variants |
//! | [`core`] | `flexile-core` | the Flexile decomposition + online allocation |
//! | [`emu`] | `flexile-emu` | the emulation-testbed substitute |
//! | [`metrics`] | `flexile-metrics` | FlowLoss / PercLoss / ScenLoss / CDFs |
//!
//! ## Quick start
//!
//! ```
//! use flexile::prelude::*;
//!
//! // The paper's Fig. 1 triangle: two unit flows, 1% link failures.
//! let topo = Topology::new("fig1", 3, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]);
//! let pairs = vec![(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))];
//! let tunnels = TunnelSet::build(&topo, &pairs, TunnelClass::SingleClass);
//! let mut class = ClassConfig::single();
//! class.beta = 0.99; // "1 unit, 99% of the time"
//! let inst = Instance {
//!     topo, pairs, classes: vec![class],
//!     tunnels: vec![tunnels], demands: vec![vec![1.0, 1.0]],
//! };
//! let units = flexile::scenario::model::link_units(&inst.topo, &[0.01; 3]);
//! let set = enumerate_scenarios(&units, 3, &EnumOptions::default());
//!
//! let design = solve_flexile(&inst, &set, &FlexileOptions::default());
//! assert!(design.penalty < 1e-6); // zero loss at the 99th percentile
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the `repro`
//! binary (`cargo run -p flexile-bench --bin repro`) for every figure of
//! the paper.

#![warn(missing_docs)]

pub use flexile_core as core;
pub use flexile_emu as emu;
pub use flexile_lp as lp;
pub use flexile_metrics as metrics;
pub use flexile_scenario as scenario;
pub use flexile_te as te;
pub use flexile_topo as topo;
pub use flexile_traffic as traffic;

/// One-stop imports for applications.
pub mod prelude {
    pub use flexile_core::{
        effective_betas, flexile_losses, flexile_losses_with_report, online_allocate,
        online_allocate_robust, solve_flexile, solve_ip, DegradationLevel, FlexileDesign,
        FlexileOptions, OnlineOutcome, PoolPolicy,
    };
    pub use flexile_emu::{emulate_scheme, run_chaos, ChaosReport, ChaosTrace, EmuConfig};
    pub use flexile_lp::MipOptions;
    pub use flexile_metrics::{flow_loss, perc_loss, scen_loss, Cdf, LossMatrix};
    pub use flexile_scenario::{
        enumerate_scenarios, link_failure_probs, EnumOptions, FailureUnit, Scenario, ScenarioSet,
    };
    pub use flexile_te::SchemeResult;
    pub use flexile_topo::{
        all_topologies, topology_by_name, LinkId, NodeId, Path, Topology, Tunnel, TunnelClass,
        TunnelSet,
    };
    pub use flexile_traffic::{gravity_matrix, min_mlu, scale_to_mlu, ClassConfig, Instance};
}
