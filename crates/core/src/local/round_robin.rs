//! Deterministic round-robin local broadcast.
//!
//! Footnote 4 of the paper: local broadcast can always be solved in `O(n)`
//! rounds by round-robin over the node identifiers — each broadcaster
//! transmits alone in its own slot, so every receiver hears its lowest-id
//! broadcasting neighbor within `n` rounds, under *any* link process. This is
//! the matching upper bound for the offline adaptive `Ω(n)` lower bound row
//! of Figure 1.

use std::sync::Arc;

use dradio_sim::{Action, Message, Process, ProcessContext, ProcessFactory, Role, Round};
use rand::RngCore;

use crate::kinds;

/// Constructor for the round-robin local broadcast algorithm.
///
/// # Example
///
/// ```
/// use dradio_core::local::RoundRobinLocalBroadcast;
/// let factory = RoundRobinLocalBroadcast::factory(16);
/// let _ = factory;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinLocalBroadcast;

impl RoundRobinLocalBroadcast {
    /// Builds a process factory for a network of `n` nodes.
    pub fn factory(n: usize) -> ProcessFactory {
        Arc::new(move |ctx: &ProcessContext| {
            Box::new(RoundRobinLocalProcess::new(ctx, n)) as Box<dyn Process>
        })
    }
}

/// Per-node state of the round-robin local broadcast.
#[derive(Debug)]
pub struct RoundRobinLocalProcess {
    id: dradio_graphs::NodeId,
    n: usize,
    message: Option<Message>,
}

impl RoundRobinLocalProcess {
    /// Creates the process for one node of an `n`-node network.
    pub fn new(ctx: &ProcessContext, n: usize) -> Self {
        let message = (ctx.role == Role::Broadcaster)
            .then(|| Message::plain(ctx.id, kinds::DATA, ctx.id.index() as u64));
        RoundRobinLocalProcess {
            id: ctx.id,
            n: n.max(1),
            message,
        }
    }
}

impl Process for RoundRobinLocalProcess {
    fn on_round(&mut self, round: Round, _rng: &mut dyn RngCore) -> Action {
        match &self.message {
            Some(m) if round.index() % self.n == self.id.index() => Action::Transmit(m.clone()),
            _ => Action::Listen,
        }
    }

    fn transmit_probability(&self, round: Round) -> f64 {
        if self.message.is_some() && round.index() % self.n == self.id.index() {
            1.0
        } else {
            0.0
        }
    }

    fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    fn name(&self) -> &'static str {
        "round-robin-local"
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

    #[test]
    fn completes_within_n_rounds_on_any_topology() {
        for dual in [
            topology::clique(12),
            topology::line(12).unwrap(),
            topology::dual_clique(12).unwrap(),
            topology::bracelet(3).unwrap().into_dual(),
        ] {
            let n = dual.len();
            let broadcasters: Vec<NodeId> = (0..n).step_by(2).map(NodeId::new).collect();
            let problem = LocalBroadcastProblem::new(broadcasters.clone());
            let outcome = Simulator::new(
                dual.clone(),
                RoundRobinLocalBroadcast::factory(n),
                Assignment::local(n, &broadcasters),
                Box::new(StaticLinks::all()),
                SimConfig::default().with_max_rounds(n + 1),
            )
            .unwrap()
            .run(problem.stop_condition(&dual));
            assert!(
                outcome.completed,
                "round robin must finish within n rounds on {}",
                dual.name()
            );
            assert!(outcome.cost() <= n);
            assert_eq!(outcome.metrics.collisions, 0);
            assert!(problem.verify(&dual, &outcome.history));
        }
    }

    #[test]
    fn only_broadcasters_use_their_slot() {
        let ctx = ProcessContext::new(NodeId::new(3), 6, 5, Role::Relay);
        let mut p = RoundRobinLocalProcess::new(&ctx, 6);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        use rand::SeedableRng;
        for r in 0..12 {
            assert_eq!(p.on_round(Round::new(r), &mut rng), Action::Listen);
        }
    }
}
