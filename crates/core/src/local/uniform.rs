//! Uniform-probability local broadcast baseline.
//!
//! Every broadcaster transmits with probability `1/Δ` in every round. When a
//! receiver neighbors `k ≤ Δ` broadcasters, the probability that exactly one
//! transmits is `k/Δ · (1 - 1/Δ)^{k-1} ≥ k/(eΔ)`, so the expected time to
//! hear someone is `O(Δ/k · 1) = O(Δ)` and `O(Δ log n)` suffices for all
//! receivers with high probability. This folklore baseline is slower than
//! decay when `k ≪ Δ` and serves as a contrast series in the local broadcast
//! experiments.

use std::sync::Arc;

use dradio_sim::sampling::bernoulli;
use dradio_sim::{Action, Message, Process, ProcessContext, ProcessFactory, Role, Round};
use rand::RngCore;

use crate::kinds;

/// Constructor for the uniform-probability local broadcast baseline.
///
/// # Example
///
/// ```
/// use dradio_core::local::UniformLocalBroadcast;
/// let factory = UniformLocalBroadcast::factory(128, 16);
/// let _ = factory;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformLocalBroadcast;

impl UniformLocalBroadcast {
    /// Builds a process factory for a network of `n` nodes with maximum
    /// degree `max_degree`.
    pub fn factory(_n: usize, max_degree: usize) -> ProcessFactory {
        let p = 1.0 / max_degree.max(2) as f64;
        Arc::new(move |ctx: &ProcessContext| {
            Box::new(UniformLocalProcess::new(ctx, p)) as Box<dyn Process>
        })
    }
}

/// Per-node state of the uniform local broadcast baseline.
#[derive(Debug)]
pub struct UniformLocalProcess {
    message: Option<Message>,
    p: f64,
}

impl UniformLocalProcess {
    /// Creates the process for one node with per-round transmit probability
    /// `p` (broadcasters only).
    pub fn new(ctx: &ProcessContext, p: f64) -> Self {
        let message = (ctx.role == Role::Broadcaster)
            .then(|| Message::plain(ctx.id, kinds::DATA, ctx.id.index() as u64));
        UniformLocalProcess { message, p }
    }
}

impl Process for UniformLocalProcess {
    fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.message {
            Some(m) if bernoulli(rng, self.p) => Action::Transmit(m.clone()),
            _ => Action::Listen,
        }
    }

    fn transmit_probability(&self, _round: Round) -> f64 {
        if self.message.is_some() {
            self.p
        } else {
            0.0
        }
    }

    fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    fn name(&self) -> &'static str {
        "uniform-local"
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
    fn probability_is_inverse_degree() {
        let factory = UniformLocalBroadcast::factory(100, 25);
        let ctx = ProcessContext::new(NodeId::new(0), 100, 25, Role::Broadcaster);
        let p = factory(&ctx);
        assert!((p.transmit_probability(Round::ZERO) - 0.04).abs() < 1e-12);
        let relay_ctx = ProcessContext::new(NodeId::new(1), 100, 25, Role::Relay);
        let relay = factory(&relay_ctx);
        assert_eq!(relay.transmit_probability(Round::ZERO), 0.0);
    }

    #[test]
    fn degenerate_degree_is_clamped() {
        let factory = UniformLocalBroadcast::factory(10, 0);
        let ctx = ProcessContext::new(NodeId::new(0), 10, 0, Role::Broadcaster);
        let p = factory(&ctx);
        assert!(p.transmit_probability(Round::ZERO) <= 0.5);
    }

    #[test]
    fn solves_local_broadcast_on_a_clique() {
        let n = 24;
        let dual = topology::clique(n);
        let broadcasters: Vec<NodeId> = (0..n / 2).map(NodeId::new).collect();
        let problem = LocalBroadcastProblem::new(broadcasters.clone());
        let outcome = Simulator::new(
            dual.clone(),
            UniformLocalBroadcast::factory(n, dual.max_degree()),
            Assignment::local(n, &broadcasters),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(2).with_max_rounds(10_000),
        )
        .unwrap()
        .run(problem.stop_condition(&dual));
        assert!(outcome.completed);
        assert!(problem.verify(&dual, &outcome.history));
    }
}
