//! Declarative measurement campaigns over [`dradio_scenario`] sweeps, with a
//! persistent, resumable result store.
//!
//! The experiments of the PODC 2013 reproduction are *sweeps*: round
//! complexity measured across network size, density, adversary class, and
//! algorithm. This crate turns one sweep into a first-class value and gives
//! it durability:
//!
//! * [`CampaignSpec`] — a serializable description of a grid of cells: one or
//!   more [`SweepGroup`]s, each a cartesian product of topology × algorithm ×
//!   adversary × problem axes, plus trial counts ([`TrialPolicy`]) and round
//!   budgets ([`RoundsRule`]). [`CampaignSpec::expand`] turns it into a
//!   deterministic, duplicate-free cell list; every [`CellSpec`] carries a
//!   content-hash key.
//! * [`ResultStore`] — an append-only JSONL store of [`CellRecord`]s keyed by
//!   those content hashes; tolerant of the torn final line a killed run
//!   leaves behind.
//! * [`CampaignRunner`] — executes the cells missing from a store with
//!   work-stealing parallelism across cells and commits measurements in
//!   expansion order, so *partial run + resume* produces a store
//!   byte-for-byte identical to one uninterrupted run.
//! * Adaptive trial allocation — [`TrialPolicy::Adaptive`] keeps adding
//!   trials to a cell (doubling, up to a cap) until its [`StopRule`]'s
//!   target statistic is tighter than a requested width: the 95% confidence
//!   interval of the mean cost, or the Wilson score interval of the
//!   completion rate (the right target for lower-bound experiments).
//! * Typed multi-statistic measurements — cells record a rounds summary,
//!   exact completion counts, and (with [`SweepGroup::curve`]) a streamed
//!   mean contention-over-time curve from `CollisionsOnly` recording;
//!   stores written before these fields existed load, resume, and
//!   re-serialize byte-identically.
//!
//! # Example
//!
//! ```
//! use dradio_campaign::{CampaignRunner, CampaignSpec, RoundsRule, SweepGroup, TrialPolicy};
//! use dradio_core::algorithms::GlobalAlgorithm;
//! use dradio_scenario::{AdversarySpec, ProblemSpec, TopologySpec};
//!
//! let campaign = CampaignSpec::named("clique-sweep")
//!     .seed(1)
//!     .trials(TrialPolicy::Fixed(2))
//!     .group(
//!         SweepGroup::product(
//!             vec![TopologySpec::Clique { n: 8 }, TopologySpec::Clique { n: 16 }],
//!             vec![GlobalAlgorithm::Bgi.into(), GlobalAlgorithm::Permuted.into()],
//!             vec![AdversarySpec::StaticNone],
//!             vec![ProblemSpec::GlobalFrom(0)],
//!         )
//!         .rounds(RoundsRule::PerNode { per_node: 200, base: 0, min_nodes: 16 }),
//!     );
//!
//! let store = CampaignRunner::new(&campaign).run_in_memory()?;
//! assert_eq!(store.len(), 4);
//! // Rerunning skips everything — the store already holds every cell.
//! # let mut store = store;
//! let report = CampaignRunner::new(&campaign).run(&mut store)?;
//! assert_eq!(report.executed, 0);
//! # Ok::<(), dradio_campaign::CampaignError>(())
//! ```
//!
//! File-backed stores work the same way through [`ResultStore::open`]; the
//! `repro` binary's `campaign run/resume/report` subcommands are thin
//! wrappers over this API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod error;
pub mod runner;
pub mod spec;
pub mod store;

pub use check::{check, check_with_budget, format_bytes, CheckReport, CheckWarning, GroupBudget};
pub use error::{CampaignError, Result};
pub use runner::{execute_cell, CampaignRunner, RunReport};
pub use spec::{CampaignSpec, CellSpec, RoundsRule, StopRule, SweepGroup, TrialPolicy};
pub use store::{CellRecord, CompactReport, FsckReport, MergeReport, ResultStore};
