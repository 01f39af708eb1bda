//! Declarative scenarios for dual-graph radio network simulations.
//!
//! Every layer below this crate exposes one ingredient of a simulation — a
//! topology generator ([`dradio_graphs::topology`]), an execution engine
//! ([`dradio_sim`]), a link process ([`dradio_adversary`]), an algorithm and
//! a problem ([`dradio_core`]). This crate combines them behind a single
//! fluent entry point:
//!
//! ```
//! use dradio_core::algorithms::GlobalAlgorithm;
//! use dradio_scenario::{AdversarySpec, ProblemSpec, Scenario, TopologySpec};
//!
//! let scenario = Scenario::on(TopologySpec::DualClique { n: 64 })
//!     .algorithm(GlobalAlgorithm::Permuted)
//!     .adversary(AdversarySpec::Iid { p: 0.5 })
//!     .problem(ProblemSpec::GlobalFrom(0))
//!     .seed(1)
//!     .build()?;
//!
//! // One execution ...
//! let outcome = scenario.run();
//! assert!(outcome.completed && scenario.verify(&outcome.history));
//!
//! // ... or many independent trials, fanned out across threads with
//! // deterministic per-trial seeds.
//! let measurement = scenario.run_trials(8)?;
//! assert_eq!(measurement.rounds.count, 8);
//! # Ok::<(), dradio_scenario::ScenarioError>(())
//! ```
//!
//! # Scenarios are values
//!
//! A [`ScenarioSpec`] — the (topology × algorithm × adversary × problem ×
//! seed) tuple behind a built [`Scenario`] — is `Clone + Debug + PartialEq`
//! and serde-serializable. Specs can be printed, stored in experiment
//! manifests, diffed, and swept programmatically; rebuilding a spec
//! reproduces the original execution bit for bit. Hand-written components
//! (custom graphs, factories, link processes) attach through the builder's
//! `custom_*` escape hatches and are recorded by name in the spec.
//!
//! # Parallel trials
//!
//! [`ScenarioRunner::run_trials`] derives each trial's master seed from the
//! scenario seed with the engine's splitmix64 stream derivation and fans the
//! trials out over rayon. Aggregation depends only on the trial outcomes in
//! index order, so the parallel runner returns exactly the same
//! [`Measurement`] as its sequential mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod error;
pub mod problem;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod topology;

pub use adversary::AdversarySpec;
pub use error::{Result, ScenarioError};
pub use problem::{AlgorithmSpec, ProblemSpec, ResolvedProblem};
pub use runner::{Measurement, ScenarioRunner, TrialAccumulator, TrialOutcome, TRIAL_STREAM_BASE};
pub use scenario::{LinkBuilder, Scenario, ScenarioBuilder, ScenarioSpec};
pub use stats::{Completion, ContentionCurve, Moments, Summary};
pub use topology::{BuiltTopology, TopologySpec};

// Re-exported so campaign checks and bench banners can reason about graph
// layouts and their memory footprints without depending on `dradio-graphs`
// directly.
pub use dradio_graphs::{csr_bytes_estimate, dense_bytes_estimate, GraphBackend};

// Re-exported so scenario and campaign callers can select a record mode,
// read typed per-trial metrics, or hold a reusable executor without
// depending on `dradio-sim` directly.
pub use dradio_sim::{AdversaryClass, RecordMode, TrialExecutor, TrialMetrics};
