//! # flexile-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6).
//! Each `figN` function prints CSV rows (`echo`-friendly, one series per
//! scheme) so results can be diffed, plotted or pasted into EXPERIMENTS.md.
//!
//! The default [`ExpConfig`] is sized to finish on a laptop in minutes by
//! capping pairs and scenarios (documented substitution #5 in DESIGN.md);
//! `--full` lifts the caps for the large topologies at the cost of hours.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod figs_ibm;
pub mod figs_motivation;
pub mod figs_perf;
pub mod figs_sweep;
pub mod lp_basis;
pub mod setup;
pub mod summary;

pub use setup::{loss_matrix, rich_setup, single_class_setup, two_class_setup, ExpConfig};

/// Names of the four topologies used in the Fig. 18 scale sweep.
pub const FIG18_TOPOLOGIES: [&str; 4] = ["IBM", "Sprint", "CWIX", "Quest"];

/// Topologies small enough for the exact IP baseline (Figs. 14/15).
pub const IP_TOPOLOGIES: [&str; 4] = ["Sprint", "B4", "Highwinds", "IBM"];
