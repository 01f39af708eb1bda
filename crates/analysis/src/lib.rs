//! Experiment harness for the PODC 2013 dual-graph broadcast reproduction.
//!
//! Every experiment describes its workloads as [`dradio_scenario`] values —
//! declarative (topology × algorithm × adversary × problem) specs — and
//! measures them with the parallel [`ScenarioRunner`]; this crate adds the
//! analysis layers on top:
//!
//! * [`stats`] — summary statistics (re-exported from the scenario crate);
//! * [`table`] — plain-text and CSV rendering of result tables;
//! * [`curves`] — bucketed rendering of the contention-over-time curves
//!   campaign cells can stream (`SweepGroup::curve`), as tables over a
//!   shared round axis;
//! * [`fit`] — least-squares fitting of measured round counts against the
//!   asymptotic growth shapes the paper predicts (`log² n`, `n / log n`,
//!   `√n / log n`, …), so each experiment can report *which* shape matches;
//! * [`sweep`] — the measurement entry point over scenario sweeps, built on
//!   the [`dradio_campaign`] engine (declarative
//!   [`CampaignSpec`]s executed with work-stealing
//!   parallelism across cells);
//! * [`experiments`] — the experiment definitions E1–E8, each mapping to one
//!   row (or supporting lemma) of Figure 1. `experiments::all()` is the
//!   registry used by the `repro` binary and the Criterion benches. The
//!   scenario-sweep experiments are thin campaign definitions; the `repro`
//!   binary can also run hand-written campaigns with a persistent, resumable
//!   result store (`repro campaign run --campaign <json>`).
//!
//! New workloads start from [`Scenario::on`](dradio_scenario::Scenario::on);
//! see the [`dradio_scenario`] crate docs for the builder API and the
//! [`dradio_campaign`] crate docs for sweeps.
//!
//! # Example
//!
//! ```
//! use dradio_analysis::experiments::{self, ExperimentConfig};
//! let cfg = ExperimentConfig::smoke();
//! let e1 = &experiments::all()[0];
//! let tables = e1.run(&cfg)?;
//! assert!(!tables.is_empty());
//! # Ok::<(), dradio_analysis::sweep::CampaignError>(())
//! ```
//!
//! [`ScenarioRunner`]: dradio_scenario::ScenarioRunner

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curves;
pub mod experiments;
pub mod fit;
pub mod stats;
pub mod sweep;
pub mod table;

pub use curves::contention_table;
pub use fit::{best_fit, GrowthModel};
pub use stats::Summary;
pub use sweep::{run_campaign, CampaignError, CampaignSpec, Measurement};
pub use table::Table;
