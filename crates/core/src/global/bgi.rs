//! The Bar-Yehuda–Goldreich–Itai (BGI) global broadcast algorithm, built on
//! the fixed-schedule Decay subroutine.
//!
//! This is the classic `O(D log n + log² n)` algorithm for the *static*
//! protocol model and the baseline against which the paper's permuted-decay
//! variant is compared. Its fixed probability schedule is exactly what the
//! oblivious dual-graph adversary can exploit (Section 4.1), which is
//! demonstrated by experiment E8.

use std::sync::Arc;

use dradio_sim::sampling::bernoulli;
use dradio_sim::{Action, Feedback, Message, Process, ProcessContext, ProcessFactory, Role, Round};
use rand::RngCore;

use crate::decay::DecaySchedule;
use crate::kinds;

/// Configuration for [`BgiGlobalBroadcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BgiConfig {
    /// Number of decay probability levels (defaults to `⌈log₂ n⌉`).
    pub levels: Option<usize>,
    /// Payload attached to the source message.
    pub payload: u64,
}

/// Constructor for the BGI global broadcast algorithm.
///
/// # Example
///
/// ```
/// use dradio_core::global::BgiGlobalBroadcast;
/// let factory = BgiGlobalBroadcast::factory(64);
/// // `factory` builds one process per node when handed to the simulator.
/// let _ = factory;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BgiGlobalBroadcast;

impl BgiGlobalBroadcast {
    /// Builds a process factory for a network of `n` nodes with default
    /// configuration.
    pub fn factory(n: usize) -> ProcessFactory {
        Self::factory_with(n, BgiConfig::default())
    }

    /// Builds a process factory with an explicit configuration.
    pub fn factory_with(n: usize, config: BgiConfig) -> ProcessFactory {
        let levels = config
            .levels
            .unwrap_or_else(|| DecaySchedule::for_network(n).levels());
        Arc::new(move |ctx: &ProcessContext| {
            Box::new(BgiProcess::new(
                ctx,
                DecaySchedule::new(levels),
                config.payload,
            )) as Box<dyn Process>
        })
    }
}

/// Per-node state of the BGI algorithm.
#[derive(Debug)]
pub struct BgiProcess {
    id: dradio_graphs::NodeId,
    role: Role,
    schedule: DecaySchedule,
    payload: u64,
    message: Option<Message>,
}

impl BgiProcess {
    /// The problem-level role of this node.
    pub fn role(&self) -> Role {
        self.role
    }
}

impl BgiProcess {
    /// Creates the process for one node.
    pub fn new(ctx: &ProcessContext, schedule: DecaySchedule, payload: u64) -> Self {
        BgiProcess {
            id: ctx.id,
            role: ctx.role,
            schedule,
            payload,
            message: None,
        }
    }

    /// The decay schedule in use.
    pub fn schedule(&self) -> DecaySchedule {
        self.schedule
    }
}

impl Process for BgiProcess {
    fn on_start(&mut self, _rng: &mut dyn RngCore) {
        if self.role == Role::Source {
            self.message = Some(Message::plain(self.id, kinds::DATA, self.payload));
        }
    }

    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.message {
            Some(m) if bernoulli(rng, self.schedule.probability(round.index())) => {
                Action::Transmit(m.clone())
            }
            _ => Action::Listen,
        }
    }

    fn on_feedback(&mut self, _round: Round, feedback: &Feedback, _rng: &mut dyn RngCore) {
        if self.message.is_none() {
            if let Some(m) = feedback.message() {
                if m.kind() == kinds::DATA {
                    self.message = Some(m.clone());
                }
            }
        }
    }

    fn transmit_probability(&self, round: Round) -> f64 {
        if self.message.is_some() {
            self.schedule.probability(round.index())
        } else {
            0.0
        }
    }

    fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    fn name(&self) -> &'static str {
        "bgi-decay"
    }

    /// Uninformed, the node only listens until it hears something.
    fn next_wake(&self, next: Round) -> Option<Round> {
        self.message.is_some().then_some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::GlobalBroadcastProblem;
    use dradio_graphs::{properties, topology, NodeId};
    use dradio_sim::{SimConfig, Simulator, StaticLinks, StopCondition};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ctx(role: Role, n: usize) -> ProcessContext {
        ProcessContext::new(NodeId::new(0), n, n - 1, role)
    }

    #[test]
    fn source_starts_informed_relays_do_not() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut source = BgiProcess::new(&ctx(Role::Source, 16), DecaySchedule::new(4), 5);
        source.on_start(&mut rng);
        assert!(source.is_informed());

        let mut relay = BgiProcess::new(&ctx(Role::Relay, 16), DecaySchedule::new(4), 5);
        relay.on_start(&mut rng);
        assert!(!relay.is_informed());
        assert_eq!(relay.transmit_probability(Round::ZERO), 0.0);
        assert_eq!(relay.on_round(Round::ZERO, &mut rng), Action::Listen);
    }

    #[test]
    fn relay_adopts_data_message_and_starts_decaying() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut relay = BgiProcess::new(&ctx(Role::Relay, 16), DecaySchedule::new(4), 0);
        relay.on_start(&mut rng);
        let m = Message::plain(NodeId::new(7), kinds::DATA, 3);
        relay.on_feedback(Round::ZERO, &Feedback::Received(m.clone()), &mut rng);
        assert!(relay.is_informed());
        assert!(relay.transmit_probability(Round::new(1)) > 0.0);
        // It forwards the same content it received.
        let mut transmitted = None;
        for r in 1..200 {
            if let Action::Transmit(sent) = relay.on_round(Round::new(r), &mut rng) {
                transmitted = Some(sent);
                break;
            }
        }
        assert_eq!(transmitted, Some(m));
    }

    #[test]
    fn non_data_messages_are_ignored() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut relay = BgiProcess::new(&ctx(Role::Relay, 16), DecaySchedule::new(4), 0);
        let m = Message::plain(NodeId::new(7), kinds::SEED, 3);
        relay.on_feedback(Round::ZERO, &Feedback::Received(m), &mut rng);
        assert!(!relay.is_informed());
    }

    #[test]
    fn transmit_probability_follows_decay_schedule() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut source = BgiProcess::new(&ctx(Role::Source, 16), DecaySchedule::new(4), 0);
        source.on_start(&mut rng);
        assert!((source.transmit_probability(Round::new(0)) - 0.5).abs() < 1e-12);
        assert!((source.transmit_probability(Round::new(1)) - 0.25).abs() < 1e-12);
        assert!((source.transmit_probability(Round::new(4)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn completes_global_broadcast_on_static_clique() {
        let dual = topology::clique(32);
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        let outcome = Simulator::new(
            dual.clone(),
            BgiGlobalBroadcast::factory(32),
            problem.assignment(32),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(5).with_max_rounds(5_000),
        )
        .unwrap()
        .run(problem.stop_condition());
        assert!(outcome.completed, "BGI should finish on a static clique");
        assert!(problem.verify(&dual, &outcome.history));
    }

    #[test]
    fn completes_on_multi_hop_static_network() {
        let dual = topology::line_of_cliques(6, 6).unwrap();
        let n = dual.len();
        let d = properties::diameter(dual.g()).unwrap();
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        let outcome = Simulator::new(
            dual.clone(),
            BgiGlobalBroadcast::factory(n),
            problem.assignment(n),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(7).with_max_rounds(50_000),
        )
        .unwrap()
        .run(problem.stop_condition());
        assert!(outcome.completed);
        // Crude sanity bound: cost should be far below n*D (the round robin
        // cost) for this size.
        assert!(
            outcome.cost() < n * d,
            "cost {} not better than round robin",
            outcome.cost()
        );
    }

    #[test]
    fn factory_respects_custom_levels() {
        let factory = BgiGlobalBroadcast::factory_with(
            1024,
            BgiConfig {
                levels: Some(3),
                payload: 9,
            },
        );
        let p = factory(&ctx(Role::Source, 1024));
        // The custom level count caps the schedule period at 3.
        assert!(
            (p.transmit_probability(Round::new(3)) - p.transmit_probability(Round::new(0))).abs()
                < 1e-12
        );
    }

    #[test]
    fn never_stops_early_by_itself() {
        // The process has no internal termination: it keeps decaying, which
        // is what the completion-time experiments rely on.
        let dual = topology::clique(8);
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        let outcome = Simulator::new(
            dual,
            BgiGlobalBroadcast::factory(8),
            problem.assignment(8),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(1).with_max_rounds(50),
        )
        .unwrap()
        .run(StopCondition::max_rounds());
        assert_eq!(outcome.rounds_executed, 50);
        assert!(outcome.metrics.transmissions > 0);
    }
}
