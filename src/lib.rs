//! # dradio — dual-graph radio network broadcast
//!
//! A Rust implementation and experimental reproduction of
//! **"The Cost of Radio Network Broadcast for Different Models of Unreliable
//! Links"** (Ghaffari, Lynch, Newport — PODC 2013).
//!
//! The facade crate re-exports the workspace members under short module
//! names so applications can depend on a single crate:
//!
//! * [`graphs`] — graph/dual-graph representations and topology generators
//!   (dual clique, bracelet, geographic unit-disk graphs with a grey zone, …);
//! * [`sim`] — the synchronous dual-graph radio network execution engine with
//!   structurally enforced adversary capability classes;
//! * [`adversary`] — oblivious, online adaptive and offline adaptive link
//!   processes, including every attacker used in the paper's lower bounds;
//! * [`core`] — the broadcast algorithms (Decay, Permuted Decay, BGI, the
//!   geographic local broadcast) plus the β-hitting game and the Theorem 3.1
//!   reduction;
//! * [`scenario`] — the declarative [`Scenario`](scenario::Scenario) API:
//!   every (topology × algorithm × adversary × problem) combination as a
//!   printable, storable value, with a parallel deterministic trial runner —
//!   **the entry point for running simulations**;
//! * [`campaign`] — declarative parameter sweeps over scenarios
//!   ([`CampaignSpec`](campaign::CampaignSpec)) executed with work-stealing
//!   parallelism across cells and streamed to a persistent, resumable JSONL
//!   result store — **the entry point for large measurement runs**;
//! * [`analysis`] — the experiment harness reproducing Figure 1 (experiments
//!   E1–E8), defined as campaigns over the scenario layer.
//!
//! # Quickstart
//!
//! ```
//! use dradio::prelude::*;
//!
//! // A 64-node network: two reliable cliques joined by one reliable bridge,
//! // every other pair connected by an unreliable link (the paper's "dual
//! // clique" lower-bound topology). Global broadcast from node 0 with the
//! // paper's permuted-decay algorithm, against an adversary that flips every
//! // unreliable link on and off independently each round.
//! let scenario = Scenario::on(TopologySpec::DualClique { n: 64 })
//!     .algorithm(GlobalAlgorithm::Permuted)
//!     .adversary(AdversarySpec::Iid { p: 0.5 })
//!     .problem(ProblemSpec::GlobalFrom(0))
//!     .seed(7)
//!     .max_rounds(20_000)
//!     .build()?;
//!
//! // One execution:
//! let outcome = scenario.run();
//! assert!(outcome.completed);
//! assert!(scenario.verify(&outcome.history));
//! println!("broadcast finished in {} rounds", outcome.cost());
//!
//! // Eight independent trials, fanned out across threads with
//! // deterministic per-trial seeds:
//! let measurement = scenario.run_trials(8)?;
//! assert_eq!(measurement.completion_rate(), 1.0);
//! # Ok::<(), dradio::scenario::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dradio_adversary as adversary;
pub use dradio_analysis as analysis;
pub use dradio_campaign as campaign;
pub use dradio_core as core;
pub use dradio_graphs as graphs;
pub use dradio_scenario as scenario;
pub use dradio_sim as sim;

/// A convenient set of the most commonly used items.
pub mod prelude {
    pub use dradio_adversary::{
        BraceletOblivious, DecayAwareOblivious, DenseSparseOnline, GilbertElliottLinks,
        GreedyCollisionOnline, IidLinks, OmniscientOffline, ScheduleLinks,
    };
    pub use dradio_analysis::experiments::{self, Experiment, ExperimentConfig};
    pub use dradio_campaign::{
        CampaignError, CampaignRunner, CampaignSpec, CellRecord, CellSpec, ResultStore, RoundsRule,
        RunReport, SweepGroup, TrialPolicy,
    };
    pub use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
    pub use dradio_core::problem::{GlobalBroadcastProblem, LocalBroadcastProblem};
    pub use dradio_graphs::{properties, topology, DualGraph, Graph, NodeId};
    pub use dradio_scenario::{
        AdversarySpec, AlgorithmSpec, GraphBackend, Measurement, ProblemSpec, Scenario,
        ScenarioRunner, ScenarioSpec, TopologySpec,
    };
    pub use dradio_sim::{
        Action, AdversaryClass, Assignment, ExecutionOutcome, Feedback, LinkFactory, LinkProcess,
        Message, MessageKind, Process, ProcessContext, ProcessFactory, RecordMode, Role, Round,
        SimConfig, Simulator, StaticLinks, StopCondition, TrialExecutor,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        let dual = topology::dual_clique(8).unwrap();
        assert_eq!(dual.len(), 8);
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        assert_eq!(problem.source(), NodeId::new(0));
        let _ = GlobalAlgorithm::all();
        let _ = LocalAlgorithm::all();
        let _ = ExperimentConfig::smoke();
    }

    #[test]
    fn prelude_builds_scenarios() {
        let scenario = Scenario::on(TopologySpec::Clique { n: 8 })
            .algorithm(GlobalAlgorithm::Bgi)
            .adversary(AdversarySpec::StaticNone)
            .problem(ProblemSpec::GlobalFrom(0))
            .build()
            .expect("valid scenario");
        let outcome = scenario.run();
        assert!(outcome.completed);
    }
}
