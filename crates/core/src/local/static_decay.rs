//! Decay-based local broadcast for the static protocol model.
//!
//! A slight tweak of the BGI strategy (as observed in the contention
//! management paper the authors cite as [8]) solves local broadcast in
//! `O(log n log Δ)` rounds in the static model: every broadcaster cycles
//! through the `⌈log₂ Δ⌉ + 1` decay probabilities `1/2, …, 1/(2Δ)`. For every
//! receiver there is a probability level matching the number of broadcasting
//! neighbors, and at that level the receiver hears a lone transmitter with
//! constant probability.
//!
//! Its fixed schedule makes it the natural *victim* algorithm for the
//! bracelet oblivious lower-bound experiment (E3): an adversary that knows
//! the schedule (but not the coins) can still do damage in non-geographic
//! topologies.

use std::sync::Arc;

use dradio_sim::process::log2_ceil;
use dradio_sim::sampling::bernoulli;
use dradio_sim::{Action, Message, Process, ProcessContext, ProcessFactory, Role, Round};
use rand::RngCore;

use crate::decay::DecaySchedule;
use crate::kinds;

/// Constructor for the static-model decay local broadcast.
///
/// # Example
///
/// ```
/// use dradio_core::local::StaticLocalBroadcast;
/// let factory = StaticLocalBroadcast::factory(128, 16);
/// let _ = factory;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticLocalBroadcast;

impl StaticLocalBroadcast {
    /// Builds a process factory for a network of `n` nodes with maximum
    /// degree `max_degree`.
    pub fn factory(_n: usize, max_degree: usize) -> ProcessFactory {
        let levels = log2_ceil(max_degree.max(2)) + 1;
        Arc::new(move |ctx: &ProcessContext| {
            Box::new(StaticLocalProcess::new(ctx, DecaySchedule::new(levels))) as Box<dyn Process>
        })
    }
}

/// Per-node state of the static decay local broadcast.
#[derive(Debug)]
pub struct StaticLocalProcess {
    message: Option<Message>,
    schedule: DecaySchedule,
}

impl StaticLocalProcess {
    /// Creates the process for one node; only broadcasters ever transmit.
    pub fn new(ctx: &ProcessContext, schedule: DecaySchedule) -> Self {
        let message = (ctx.role == Role::Broadcaster)
            .then(|| Message::plain(ctx.id, kinds::DATA, ctx.id.index() as u64));
        StaticLocalProcess { message, schedule }
    }
}

impl Process for StaticLocalProcess {
    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.message {
            Some(m) if bernoulli(rng, self.schedule.probability(round.index())) => {
                Action::Transmit(m.clone())
            }
            _ => Action::Listen,
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
        "static-decay-local"
    }

    /// Only a broadcaster ever transmits; feedback changes nothing.
    fn next_wake(&self, next: Round) -> Option<Round> {
        self.message.is_some().then_some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LocalBroadcastProblem;
    use dradio_graphs::{topology, NodeId};
    use dradio_sim::{Assignment, SimConfig, Simulator, StaticLinks};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn relays_never_transmit() {
        let ctx = ProcessContext::new(NodeId::new(1), 16, 4, Role::Relay);
        let mut p = StaticLocalProcess::new(&ctx, DecaySchedule::new(3));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for r in 0..100 {
            assert_eq!(p.on_round(Round::new(r), &mut rng), Action::Listen);
        }
        assert!(!p.is_informed());
    }

    #[test]
    fn broadcasters_follow_the_degree_schedule() {
        let ctx = ProcessContext::new(NodeId::new(1), 256, 16, Role::Broadcaster);
        let levels = log2_ceil(16) + 1; // 5
        let p = StaticLocalProcess::new(&ctx, DecaySchedule::new(levels));
        assert!((p.transmit_probability(Round::new(0)) - 0.5).abs() < 1e-12);
        assert!((p.transmit_probability(Round::new(levels)) - 0.5).abs() < 1e-12);
        assert!(p.transmit_probability(Round::new(levels - 1)) < 0.05);
    }

    #[test]
    fn solves_local_broadcast_on_a_static_star() {
        // Hub 0 with 15 leaves, all leaves broadcasting: the hub must hear
        // one of them.
        let n = 16;
        let dual = topology::star(n).unwrap();
        let broadcasters: Vec<NodeId> = (1..n).map(NodeId::new).collect();
        let problem = LocalBroadcastProblem::new(broadcasters.clone());
        let outcome = Simulator::new(
            dual.clone(),
            StaticLocalBroadcast::factory(n, dual.max_degree()),
            Assignment::local(n, &broadcasters),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(3).with_max_rounds(2_000),
        )
        .unwrap()
        .run(problem.stop_condition(&dual));
        assert!(outcome.completed);
        assert!(problem.verify(&dual, &outcome.history));
    }

    #[test]
    fn solves_local_broadcast_on_geometric_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dual =
            topology::random_geometric(&topology::GeometricConfig::new(60, 4.0, 1.5), &mut rng)
                .unwrap();
        let n = dual.len();
        let broadcasters: Vec<NodeId> = (0..n).step_by(3).map(NodeId::new).collect();
        let problem = LocalBroadcastProblem::new(broadcasters.clone());
        let outcome = Simulator::new(
            dual.clone(),
            StaticLocalBroadcast::factory(n, dual.max_degree()),
            Assignment::local(n, &broadcasters),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(6).with_max_rounds(5_000),
        )
        .unwrap()
        .run(problem.stop_condition(&dual));
        assert!(outcome.completed);
        assert!(problem.verify(&dual, &outcome.history));
    }
}
