//! Deterministic round-robin global broadcast.
//!
//! Footnote 5 of the paper: broadcast among `n` nodes can always be solved by
//! round-robin transmission — node `i` transmits (if it holds the message) in
//! rounds congruent to `i` modulo `n`, so there is never a collision and the
//! message advances at least one hop every `n` rounds. This gives the
//! `O(n · D)` fallback used as the offline-adaptive upper bound context in
//! Figure 1.

use std::sync::Arc;

use dradio_sim::{Action, Feedback, Message, Process, ProcessContext, ProcessFactory, Role, Round};
use rand::RngCore;

use crate::kinds;

/// Constructor for the round-robin global broadcast algorithm.
///
/// # Example
///
/// ```
/// use dradio_core::global::RoundRobinGlobalBroadcast;
/// let factory = RoundRobinGlobalBroadcast::factory(16);
/// let _ = factory;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinGlobalBroadcast;

impl RoundRobinGlobalBroadcast {
    /// Builds a process factory for a network of `n` nodes.
    pub fn factory(n: usize) -> ProcessFactory {
        Arc::new(move |ctx: &ProcessContext| {
            Box::new(RoundRobinGlobalProcess::new(ctx, n)) as Box<dyn Process>
        })
    }
}

/// Per-node state of the round-robin global broadcast.
#[derive(Debug)]
pub struct RoundRobinGlobalProcess {
    id: dradio_graphs::NodeId,
    role: Role,
    n: usize,
    message: Option<Message>,
}

impl RoundRobinGlobalProcess {
    /// Creates the process for one node of an `n`-node network.
    pub fn new(ctx: &ProcessContext, n: usize) -> Self {
        RoundRobinGlobalProcess {
            id: ctx.id,
            role: ctx.role,
            n: n.max(1),
            message: None,
        }
    }

    fn my_slot(&self, round: Round) -> bool {
        round.index() % self.n == self.id.index()
    }
}

impl Process for RoundRobinGlobalProcess {
    fn on_start(&mut self, _rng: &mut dyn RngCore) {
        if self.role == Role::Source {
            self.message = Some(Message::plain(self.id, kinds::DATA, 0));
        }
    }

    fn on_round(&mut self, round: Round, _rng: &mut dyn RngCore) -> Action {
        match &self.message {
            Some(m) if self.my_slot(round) => Action::Transmit(m.clone()),
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
        if self.message.is_some() && self.my_slot(round) {
            1.0
        } else {
            0.0
        }
    }

    fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    fn name(&self) -> &'static str {
        "round-robin-global"
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
    use dradio_sim::{SimConfig, Simulator, StaticLinks};

    #[test]
    fn transmits_only_in_own_slot() {
        let ctx = ProcessContext::new(NodeId::new(2), 5, 4, Role::Source);
        let mut p = RoundRobinGlobalProcess::new(&ctx, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        use rand::SeedableRng;
        p.on_start(&mut rng);
        for r in 0..20 {
            let action = p.on_round(Round::new(r), &mut rng);
            if r % 5 == 2 {
                assert!(action.is_transmit(), "round {r} should be node 2's slot");
                assert_eq!(p.transmit_probability(Round::new(r)), 1.0);
            } else {
                assert_eq!(action, Action::Listen);
                assert_eq!(p.transmit_probability(Round::new(r)), 0.0);
            }
        }
    }

    #[test]
    fn never_collides_and_always_completes() {
        // Round robin is deterministic and collision free, so it finishes on
        // every connected static graph within n * D rounds.
        for dual in [
            topology::line(10).unwrap(),
            topology::clique(10),
            topology::ring(10).unwrap(),
        ] {
            let n = dual.len();
            let d = properties::diameter(dual.g()).unwrap().max(1);
            let problem = GlobalBroadcastProblem::new(NodeId::new(0));
            let outcome = Simulator::new(
                dual,
                RoundRobinGlobalBroadcast::factory(n),
                problem.assignment(n),
                Box::new(StaticLinks::none()),
                SimConfig::default().with_max_rounds(2 * n * d + n),
            )
            .unwrap()
            .run(problem.stop_condition());
            assert!(outcome.completed);
            assert_eq!(outcome.metrics.collisions, 0);
            assert!(outcome.cost() <= n * (d + 1));
        }
    }

    #[test]
    fn completes_even_with_all_dynamic_links_active() {
        // With one transmitter per round there are never collisions, so the
        // adversary activating every unreliable edge only helps.
        let dual = topology::dual_clique(16).unwrap();
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        let outcome = Simulator::new(
            dual,
            RoundRobinGlobalBroadcast::factory(16),
            problem.assignment(16),
            Box::new(StaticLinks::all()),
            SimConfig::default().with_max_rounds(16 * 16),
        )
        .unwrap()
        .run(problem.stop_condition());
        assert!(outcome.completed);
        assert_eq!(outcome.metrics.collisions, 0);
    }
}
