//! The round-by-round execution engine.

use std::sync::Arc;

use dradio_graphs::DualGraph;

use crate::config::SimConfig;
use crate::executor::{validated_contexts, TrialExecutor};
use crate::history::History;
use crate::link::LinkProcess;
use crate::metrics::Metrics;
use crate::process::{Assignment, ProcessFactory};
use crate::recorder::RecordMode;
use crate::round::Round;
use crate::stop::StopCondition;
use crate::Result;

/// The result of running an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// Whether the stop condition was satisfied before the horizon.
    pub completed: bool,
    /// Number of rounds actually executed.
    pub rounds_executed: usize,
    /// The round in which the stop condition became satisfied, if it did.
    pub completion_round: Option<Round>,
    /// Per-round history of the execution. Complete when [`record_mode`]
    /// is [`RecordMode::Full`]; empty otherwise.
    ///
    /// [`record_mode`]: ExecutionOutcome::record_mode
    pub history: History,
    /// Aggregate counters (identical under every record mode).
    pub metrics: Metrics,
    /// The record mode the execution was asked for: it decides only what
    /// this outcome carries. An adaptive adversary sees the same history
    /// under every mode (see [`AdversaryView::history`](crate::AdversaryView::history)).
    pub record_mode: RecordMode,
    /// Collisions per executed round; retained under [`RecordMode::Full`]
    /// and [`RecordMode::CollisionsOnly`], empty under [`RecordMode::None`].
    pub collisions_per_round: Vec<usize>,
}

impl ExecutionOutcome {
    /// Rounds until completion if the condition was met, otherwise the number
    /// of rounds executed (the horizon). Experiments use this as the measured
    /// cost, treating non-completion as a censored observation at the
    /// horizon.
    pub fn cost(&self) -> usize {
        match self.completion_round {
            Some(r) => r.index() + 1,
            None => self.rounds_executed,
        }
    }

    /// The typed per-trial measurement of this execution: cost, completion,
    /// aggregate collisions, and — when the record mode retained one — the
    /// per-round collision curve (cloned; use
    /// [`ExecutionOutcome::into_trial_metrics`] to take it without copying).
    pub fn trial_metrics(&self) -> crate::TrialMetrics {
        crate::TrialMetrics {
            rounds: self.cost(),
            completed: self.completed,
            collisions: self.metrics.collisions,
            collisions_per_round: self
                .record_mode
                .records_collisions()
                .then(|| self.collisions_per_round.clone()),
        }
    }

    /// Consumes the outcome into its [`TrialMetrics`](crate::TrialMetrics),
    /// moving the collision curve instead of cloning it.
    pub fn into_trial_metrics(self) -> crate::TrialMetrics {
        let rounds = self.cost();
        crate::TrialMetrics {
            rounds,
            completed: self.completed,
            collisions: self.metrics.collisions,
            collisions_per_round: self
                .record_mode
                .records_collisions()
                .then_some(self.collisions_per_round),
        }
    }
}

/// Derives a per-stream seed from the master seed (splitmix64 finalizer, so
/// adjacent stream indices get uncorrelated streams). The engine uses it for
/// per-node and adversary random streams; the scenario runner reuses it to
/// derive independent per-trial master seeds.
pub fn derive_stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A configured dual-graph radio network simulation.
///
/// A `Simulator` is single-shot: [`Simulator::run`] consumes it. Internally
/// it is a thin shell over [`TrialExecutor`] — the reusable harness callers
/// with many trials of the same configuration should use directly — so the
/// two produce identical executions by construction.
///
/// See the [crate documentation](crate) for the model and an end-to-end
/// example.
pub struct Simulator {
    dual: Arc<DualGraph>,
    link: Box<dyn LinkProcess>,
    config: SimConfig,
    factory: ProcessFactory,
    assignment: Assignment,
}

impl Simulator {
    /// Builds a simulation over `dual` (accepted owned or as a shared
    /// [`Arc`], so fan-out callers never copy the network). Processes and
    /// the deterministic per-node random streams are instantiated by
    /// [`Simulator::run`], derived from the configured master seed.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyNetwork`](crate::SimError::EmptyNetwork) if the
    ///   network has no nodes.
    /// * [`SimError::AssignmentSizeMismatch`](crate::SimError::AssignmentSizeMismatch)
    ///   if `assignment` covers a different number of nodes.
    /// * [`SimError::InvalidConfig`](crate::SimError::InvalidConfig) if the
    ///   configuration is invalid.
    pub fn new(
        dual: impl Into<Arc<DualGraph>>,
        factory: ProcessFactory,
        assignment: Assignment,
        link: Box<dyn LinkProcess>,
        config: SimConfig,
    ) -> Result<Self> {
        let dual = dual.into();
        // Only the checks matter here; `run` builds the contexts it needs.
        let _ = validated_contexts(&dual, &assignment, None, &config)?;
        Ok(Simulator {
            dual,
            link,
            config,
            factory,
            assignment,
        })
    }

    /// The network being simulated.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the execution until `stop` is satisfied or the round horizon is
    /// reached, consuming the simulator.
    ///
    /// How much of the execution is retained is governed by the
    /// configuration's [`RecordMode`] (default [`RecordMode::Full`]);
    /// behaviour and [`Metrics`] are identical under every mode.
    ///
    /// Implemented on top of [`TrialExecutor`]: the simulator wraps its
    /// parts into a single-shot executor and runs one trial with the
    /// configured seed and record mode, so the two entry points cannot
    /// diverge.
    ///
    /// # Panics
    ///
    /// Panics if `stop` references nodes outside the network (a programming
    /// error in the experiment setup, not a runtime condition).
    pub fn run(self, stop: StopCondition) -> ExecutionOutcome {
        let seed = self.config.seed();
        let record_mode = self.config.record_mode();
        let mut executor = TrialExecutor::single_shot(
            self.dual,
            self.factory,
            self.assignment,
            self.link,
            stop,
            self.config,
        )
        // lint: allow(D4) -- the same inputs passed Simulator::new validation already
        .expect("simulator inputs were validated at construction");
        executor.execute(seed, record_mode)
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("n", &self.dual.len())
            .field("link", &self.link.name())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::error::SimError;
    use crate::link::{AdversaryClass, AdversaryView, LinkDecision, StaticLinks};
    use crate::message::{Message, MessageKind};
    use crate::process::{Process, ProcessContext, Role};
    use dradio_graphs::{topology, Edge, NodeId};
    use rand::RngCore;
    use std::sync::Arc;

    const DATA: MessageKind = MessageKind::new(1);

    /// Source transmits every round; relays stay silent.
    struct Beacon {
        msg: Option<Message>,
    }

    impl Process for Beacon {
        fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
            match &self.msg {
                Some(m) => Action::Transmit(m.clone()),
                None => Action::Listen,
            }
        }
        fn transmit_probability(&self, _round: Round) -> f64 {
            if self.msg.is_some() {
                1.0
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "beacon"
        }
    }

    fn beacon_factory() -> ProcessFactory {
        Arc::new(|ctx: &ProcessContext| {
            let msg = (ctx.role == Role::Source).then(|| Message::plain(ctx.id, DATA, 7));
            Box::new(Beacon { msg }) as Box<dyn Process>
        })
    }

    /// Every broadcaster transmits every round (used to force collisions).
    fn all_broadcasters_factory() -> ProcessFactory {
        Arc::new(|ctx: &ProcessContext| {
            let msg = (ctx.role == Role::Broadcaster).then(|| Message::plain(ctx.id, DATA, 1));
            Box::new(Beacon { msg }) as Box<dyn Process>
        })
    }

    #[test]
    fn construction_validates_inputs() {
        let dual = topology::line(3).unwrap();
        let bad_assignment = Assignment::relays(2);
        let err = Simulator::new(
            dual.clone(),
            beacon_factory(),
            bad_assignment,
            Box::new(StaticLinks::none()),
            SimConfig::default(),
        )
        .expect_err("size mismatch must be rejected");
        assert!(matches!(err, SimError::AssignmentSizeMismatch { .. }));

        let err = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::relays(3),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(0),
        )
        .expect_err("zero horizon must be rejected");
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn single_transmitter_is_received_by_g_neighbors() {
        let dual = topology::star(5).unwrap(); // hub 0, leaves 1..4
        let sim = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::global(5, NodeId::new(0)),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(1),
        )
        .unwrap();
        let out = sim.run(StopCondition::max_rounds());
        assert_eq!(out.rounds_executed, 1);
        // All 4 leaves hear the hub in round 0.
        assert_eq!(out.metrics.deliveries, 4);
        for leaf in 1..5 {
            assert!(out.history.received_kind(NodeId::new(leaf), DATA));
        }
    }

    #[test]
    fn two_transmitting_neighbors_collide() {
        // Path 1 - 0 - 2 with broadcasters at 1 and 2: node 0 hears nothing.
        let dual = topology::star(3).unwrap();
        let sim = Simulator::new(
            dual,
            all_broadcasters_factory(),
            Assignment::local(3, &[NodeId::new(1), NodeId::new(2)]),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(3),
        )
        .unwrap();
        let out = sim.run(StopCondition::max_rounds());
        assert_eq!(out.metrics.deliveries, 0);
        assert!(out.metrics.collisions > 0);
        assert!(!out.history.received_any(NodeId::new(0)));
    }

    #[test]
    fn transmitters_do_not_receive() {
        // Two nodes, both broadcasters: each transmits every round, so
        // neither ever receives (half duplex).
        let dual = topology::line(2).unwrap();
        let sim = Simulator::new(
            dual,
            all_broadcasters_factory(),
            Assignment::local(2, &[NodeId::new(0), NodeId::new(1)]),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(5),
        )
        .unwrap();
        let out = sim.run(StopCondition::max_rounds());
        assert_eq!(out.metrics.deliveries, 0);
        assert_eq!(out.metrics.collisions, 0);
        assert_eq!(out.metrics.transmissions, 2 * 5);
    }

    #[test]
    fn dynamic_edges_change_reception() {
        // Dual clique n = 4: bridge (1, 2). Beacon at node 0 (side A, not the
        // bridge endpoint). With no dynamic links only side A hears it; with
        // all dynamic links every other node hears it.
        let dual = topology::dual_clique(4).unwrap();
        let assignment = Assignment::global(4, NodeId::new(0));

        let sim = Simulator::new(
            dual.clone(),
            beacon_factory(),
            assignment.clone(),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(1),
        )
        .unwrap();
        let out = sim.run(StopCondition::max_rounds());
        assert!(out.history.received_kind(NodeId::new(1), DATA));
        assert!(!out.history.received_kind(NodeId::new(2), DATA));
        assert!(!out.history.received_kind(NodeId::new(3), DATA));

        let sim = Simulator::new(
            dual,
            beacon_factory(),
            assignment,
            Box::new(StaticLinks::all()),
            SimConfig::default().with_max_rounds(1),
        )
        .unwrap();
        let out = sim.run(StopCondition::max_rounds());
        for other in [1usize, 2, 3] {
            assert!(out.history.received_kind(NodeId::new(other), DATA));
        }
    }

    #[test]
    fn stop_condition_ends_execution_early() {
        let dual = topology::star(6).unwrap();
        let sim = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::global(6, NodeId::new(0)),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(100),
        )
        .unwrap();
        let out = sim.run(StopCondition::global_broadcast(DATA, NodeId::new(0)));
        assert!(out.completed);
        assert_eq!(out.completion_round, Some(Round::new(0)));
        assert_eq!(out.rounds_executed, 1);
        assert_eq!(out.cost(), 1);
    }

    #[test]
    fn horizon_bounds_execution() {
        // A line where the source's message can never travel past the first
        // hop (source transmits forever, blocking nothing, but node 1 never
        // relays), so the global condition is unreachable.
        let dual = topology::line(4).unwrap();
        let sim = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::global(4, NodeId::new(0)),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(20),
        )
        .unwrap();
        let out = sim.run(StopCondition::global_broadcast(DATA, NodeId::new(0)));
        assert!(!out.completed);
        assert_eq!(out.rounds_executed, 20);
        assert_eq!(out.cost(), 20);
        assert_eq!(out.completion_round, None);
    }

    #[test]
    fn executions_are_deterministic_per_seed() {
        let make = |seed| {
            let dual = topology::dual_clique(8).unwrap();
            Simulator::new(
                dual,
                beacon_factory(),
                Assignment::global(8, NodeId::new(0)),
                Box::new(StaticLinks::all()),
                SimConfig::default().with_max_rounds(30).with_seed(seed),
            )
            .unwrap()
            .run(StopCondition::max_rounds())
        };
        let a = make(7);
        let b = make(7);
        assert_eq!(a.history, b.history);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    #[should_panic(expected = "stop condition references node")]
    fn stop_condition_out_of_range_panics() {
        let dual = topology::line(3).unwrap();
        let sim = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::relays(3),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(1),
        )
        .unwrap();
        let _ = sim.run(StopCondition::global_broadcast(DATA, NodeId::new(9)));
    }

    /// A malicious link process that proposes edges outside `E' \ E`; the
    /// engine must reject them and count the attempts.
    struct CheatingAdversary;
    impl LinkProcess for CheatingAdversary {
        fn class(&self) -> AdversaryClass {
            AdversaryClass::Oblivious
        }
        fn decide(&mut self, _view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
            // Propose a reliable edge (0,1) of the line — not a dynamic edge.
            LinkDecision::from_edges(vec![Edge::new(NodeId::new(0), NodeId::new(1))])
        }
    }

    #[test]
    fn non_dynamic_proposals_are_rejected_and_counted() {
        let dual = topology::line(3).unwrap();
        let sim = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::global(3, NodeId::new(0)),
            Box::new(CheatingAdversary),
            SimConfig::default().with_max_rounds(4),
        )
        .unwrap();
        let out = sim.run(StopCondition::max_rounds());
        assert_eq!(out.metrics.rejected_link_edges, 4);
        for record in out.history.records() {
            assert!(record.active_dynamic_edges.is_empty());
        }
        // The reliable edge still works: node 1 hears the source.
        assert!(out.history.received_kind(NodeId::new(1), DATA));
    }

    /// An online-adaptive adversary that records whether it was shown history
    /// and probabilities but not actions.
    struct ViewSpy {
        class: AdversaryClass,
        saw_history: bool,
        saw_probs: bool,
        saw_actions: bool,
    }
    impl LinkProcess for ViewSpy {
        fn class(&self) -> AdversaryClass {
            self.class
        }
        fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
            self.saw_history |= view.history().is_some();
            self.saw_probs |= view.transmit_probabilities().is_some();
            self.saw_actions |= view.actions().is_some();
            LinkDecision::none()
        }
    }

    fn spy_views(class: AdversaryClass) -> (bool, bool, bool) {
        // Box the spy, run, then inspect via a shared cell: simplest is to
        // run with a raw pointer-free approach — use Arc<Mutex<..>> free
        // alternative: we recreate the spy after the run by returning the
        // flags through a channel. Instead, we exploit that `run` consumes
        // the simulator, so we capture flags with a scoped static pattern:
        // store them in a Box and read back via Box::leak-free trick is
        // overkill; simply wrap flags in Arc<std::sync::Mutex<_>>.
        use std::sync::{Arc as SArc, Mutex};
        #[derive(Default)]
        struct Flags {
            history: bool,
            probs: bool,
            actions: bool,
        }
        struct SharedSpy {
            class: AdversaryClass,
            flags: SArc<Mutex<Flags>>,
        }
        impl LinkProcess for SharedSpy {
            fn class(&self) -> AdversaryClass {
                self.class
            }
            fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
                let mut f = self.flags.lock().unwrap();
                f.history |= view.history().is_some();
                f.probs |= view.transmit_probabilities().is_some();
                f.actions |= view.actions().is_some();
                LinkDecision::none()
            }
        }
        let flags = SArc::new(Mutex::new(Flags::default()));
        let dual = topology::line(3).unwrap();
        let sim = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::global(3, NodeId::new(0)),
            Box::new(SharedSpy {
                class,
                flags: flags.clone(),
            }),
            SimConfig::default().with_max_rounds(2),
        )
        .unwrap();
        let _ = sim.run(StopCondition::max_rounds());
        let f = flags.lock().unwrap();
        (f.history, f.probs, f.actions)
    }

    #[test]
    fn adversary_views_are_scoped_by_class() {
        // Silence the unused-struct warning for the illustrative ViewSpy.
        let _ = ViewSpy {
            class: AdversaryClass::Oblivious,
            saw_history: false,
            saw_probs: false,
            saw_actions: false,
        };

        assert_eq!(spy_views(AdversaryClass::Oblivious), (false, false, false));
        assert_eq!(
            spy_views(AdversaryClass::OnlineAdaptive),
            (true, true, false)
        );
        assert_eq!(
            spy_views(AdversaryClass::OfflineAdaptive),
            (true, true, true)
        );
    }

    /// A link process that proposes the same dynamic edge several times per
    /// round (plus one non-dynamic edge), to pin that a repeat is heard once
    /// and listed once; without `repeats`, it proposes each edge once.
    struct RepeatingAdversary {
        repeats: bool,
    }
    impl LinkProcess for RepeatingAdversary {
        fn class(&self) -> AdversaryClass {
            AdversaryClass::Oblivious
        }
        fn decide(&mut self, _view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
            // On the dual clique of 4 (sides {0,1} / {2,3}, bridge (1,2)),
            // (0,2) and (0,3) are dynamic; (0,1) is reliable.
            let dynamic = Edge::new(NodeId::new(0), NodeId::new(2));
            let other = Edge::new(NodeId::new(0), NodeId::new(3));
            let reliable = Edge::new(NodeId::new(0), NodeId::new(1));
            LinkDecision::from_edges(if self.repeats {
                vec![dynamic, other, dynamic, reliable, dynamic]
            } else {
                vec![dynamic, other, reliable]
            })
        }
    }

    #[test]
    fn repeated_link_edges_are_deduplicated_once_per_round() {
        use crate::recorder::RecordMode;
        let run = |repeats: bool, mode: RecordMode| {
            Simulator::new(
                topology::dual_clique(4).unwrap(),
                beacon_factory(),
                Assignment::global(4, NodeId::new(0)),
                Box::new(RepeatingAdversary { repeats }),
                SimConfig::default()
                    .with_max_rounds(3)
                    .with_record_mode(mode),
            )
            .unwrap()
            .run(StopCondition::max_rounds())
        };
        let out = run(true, RecordMode::Full);
        for record in out.history.records() {
            assert_eq!(
                record.active_dynamic_edges,
                vec![
                    Edge::new(NodeId::new(0), NodeId::new(2)),
                    Edge::new(NodeId::new(0), NodeId::new(3)),
                ],
                "duplicates dropped, first-occurrence order kept"
            );
        }
        // Only the reliable proposal is rejected; duplicates are not.
        assert_eq!(out.metrics.rejected_link_edges, 3);
        // The dynamic edges genuinely carry: both far-side nodes hear node 0.
        assert!(out.history.received_kind(NodeId::new(2), DATA));
        assert!(out.history.received_kind(NodeId::new(3), DATA));
        assert_eq!(out, run(false, RecordMode::Full), "repeats change nothing");
        // Hearing is idempotent in every mode, not only where the history
        // lists the edges: a repeat never turns a delivery into a collision.
        for mode in [RecordMode::CollisionsOnly, RecordMode::None] {
            let repeated = run(true, mode);
            assert_eq!(
                repeated.metrics, out.metrics,
                "{mode}: the Full run's metrics"
            );
            assert_eq!(repeated, run(false, mode), "{mode}: repeats change nothing");
        }
    }

    #[test]
    fn record_modes_agree_on_behaviour_and_metrics() {
        use crate::recorder::RecordMode;
        let run_with = |mode: RecordMode| {
            let dual = topology::dual_clique(8).unwrap();
            Simulator::new(
                dual,
                all_broadcasters_factory(),
                Assignment::local(8, &[NodeId::new(0), NodeId::new(1), NodeId::new(4)]),
                Box::new(StaticLinks::all()),
                SimConfig::default()
                    .with_max_rounds(12)
                    .with_seed(3)
                    .with_record_mode(mode),
            )
            .unwrap()
            .run(StopCondition::max_rounds())
        };
        let full = run_with(RecordMode::Full);
        let collisions_only = run_with(RecordMode::CollisionsOnly);
        let none = run_with(RecordMode::None);

        assert_eq!(full.metrics, collisions_only.metrics);
        assert_eq!(full.metrics, none.metrics);
        assert_eq!(full.rounds_executed, none.rounds_executed);
        assert_eq!(full.completion_round, none.completion_round);

        assert_eq!(full.record_mode, RecordMode::Full);
        assert_eq!(full.history.len(), 12);
        assert_eq!(full.collisions_per_round.len(), 12);
        assert_eq!(
            full.collisions_per_round.iter().sum::<usize>(),
            full.metrics.collisions
        );

        assert_eq!(collisions_only.record_mode, RecordMode::CollisionsOnly);
        assert!(collisions_only.history.is_empty());
        assert_eq!(
            collisions_only.collisions_per_round,
            full.collisions_per_round
        );

        assert_eq!(none.record_mode, RecordMode::None);
        assert!(none.history.is_empty());
        assert!(none.collisions_per_round.is_empty());
    }

    #[test]
    fn stop_conditions_fire_identically_without_recording() {
        use crate::recorder::RecordMode;
        let run_with = |mode: RecordMode| {
            let dual = topology::star(6).unwrap();
            Simulator::new(
                dual,
                beacon_factory(),
                Assignment::global(6, NodeId::new(0)),
                Box::new(StaticLinks::none()),
                SimConfig::default()
                    .with_max_rounds(100)
                    .with_record_mode(mode),
            )
            .unwrap()
            .run(StopCondition::global_broadcast(DATA, NodeId::new(0)))
        };
        let full = run_with(RecordMode::Full);
        let none = run_with(RecordMode::None);
        assert!(full.completed && none.completed);
        assert_eq!(full.completion_round, none.completion_round);
        assert_eq!(full.cost(), none.cost());
        assert_eq!(full.metrics, none.metrics);
    }

    #[test]
    fn adaptive_adversaries_see_history_in_every_record_mode() {
        use crate::recorder::RecordMode;
        // An online-adaptive adversary sees every earlier round (without
        // edges) whatever the caller asked to keep; the outcome carries
        // only what the requested mode retains.
        struct NeedsHistory;
        impl LinkProcess for NeedsHistory {
            fn class(&self) -> AdversaryClass {
                AdversaryClass::OnlineAdaptive
            }
            fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
                let history = view.history().expect("adaptive classes see history");
                assert_eq!(history.len(), view.round().index());
                for record in history.records() {
                    assert!(
                        record.active_dynamic_edges.is_empty(),
                        "the view shows no edge"
                    );
                }
                // Once node 1 heard the source, open the dynamic edge (0, 2).
                if history.received_any(NodeId::new(1)) {
                    LinkDecision::from_edges(vec![Edge::new(NodeId::new(0), NodeId::new(2))])
                } else {
                    LinkDecision::none()
                }
            }
        }
        let run = |mode: RecordMode| {
            use dradio_graphs::Graph;
            let dual = DualGraph::new(
                Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap(),
                Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap(),
            )
            .unwrap();
            Simulator::new(
                dual,
                beacon_factory(),
                Assignment::global(3, NodeId::new(0)),
                Box::new(NeedsHistory),
                SimConfig::default()
                    .with_max_rounds(5)
                    .with_record_mode(mode),
            )
            .unwrap()
            .run(StopCondition::max_rounds())
        };
        let full = run(RecordMode::Full);
        assert_eq!(full.record_mode, RecordMode::Full);
        assert_eq!(full.history.len(), 5);
        assert!(full.history.records()[1..]
            .iter()
            .all(|r| r.active_dynamic_edges.len() == 1));
        for mode in [RecordMode::CollisionsOnly, RecordMode::None] {
            let out = run(mode);
            assert_eq!(out.record_mode, mode, "the requested mode is returned");
            assert!(out.history.is_empty(), "{mode}: no history is returned");
            assert_eq!(out.metrics, full.metrics, "{mode}: same behaviour as Full");
            assert_eq!(out.rounds_executed, full.rounds_executed);
        }
    }

    #[test]
    fn empty_receiver_condition_completes_without_rounds() {
        let dual = topology::line(3).unwrap();
        let sim = Simulator::new(
            dual,
            beacon_factory(),
            Assignment::relays(3),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_max_rounds(10),
        )
        .unwrap();
        let out = sim.run(StopCondition::local_broadcast(vec![], vec![NodeId::new(0)]));
        assert!(out.completed);
        assert_eq!(out.rounds_executed, 0);
    }
}
