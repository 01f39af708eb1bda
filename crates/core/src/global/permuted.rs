//! The paper's global broadcast algorithm for the oblivious dual graph model
//! (Section 4.1, Theorem 4.1).
//!
//! The algorithm is the BGI structure with one change: the source generates a
//! string `S` of random bits *after the execution begins* and appends it to
//! its message. Nodes holding the message use `S` to permute the order in
//! which they visit the decay probabilities, so an oblivious adversary — which
//! fixed its link schedule before seeing `S` — cannot align bad link behaviour
//! with the high- or low-probability rounds. Lemma 4.2 shows each permuted
//! decay call still delivers to every receiver with probability > 1/2.
//!
//! Implementation notes (documented deviations, none affecting the bound):
//!
//! * The paper has receivers wait for a round `≡ 0 (mod 16 log n)` before
//!   starting their permuted decay calls, purely to align the analysis
//!   blocks. Indexing the level selection by the *absolute* round number (as
//!   done here) gives the same per-round coordination property with no
//!   waiting.
//! * The paper sizes `S` at `32 log² n log log n` bits, enough to never reuse
//!   bits during the analysed window. We default to a smaller string and let
//!   the cursor wrap, which keeps long executions defined; the paper-exact
//!   size is available via [`PermutedConfig::paper`].

use std::sync::Arc;

use dradio_sim::process::log2_ceil;
use dradio_sim::sampling::bernoulli;
use dradio_sim::{
    Action, BitString, Feedback, Message, Process, ProcessContext, ProcessFactory, Role, Round,
};
use rand::RngCore;

use crate::decay::PermutedDecaySchedule;
use crate::kinds;

/// Configuration for [`PermutedGlobalBroadcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermutedConfig {
    /// Number of decay probability levels (defaults to `⌈log₂ n⌉`).
    pub levels: Option<usize>,
    /// Number of coordination bits the source generates and attaches.
    pub seed_bits: usize,
    /// Payload attached to the source message.
    pub payload: u64,
}

impl PermutedConfig {
    /// Scaled-down default: `4 log² n log log n` bits (minimum 128), enough
    /// for thousands of rounds before the cursor wraps.
    pub fn scaled(n: usize) -> Self {
        let log_n = log2_ceil(n).max(1);
        let log_log_n = log2_ceil(log_n).max(1);
        PermutedConfig {
            levels: None,
            seed_bits: (4 * log_n * log_n * log_log_n).max(128),
            payload: 0,
        }
    }

    /// The paper's constant: `32 log² n log log n` bits.
    pub fn paper(n: usize) -> Self {
        let log_n = log2_ceil(n).max(1);
        let log_log_n = log2_ceil(log_n).max(1);
        PermutedConfig {
            levels: None,
            seed_bits: (32 * log_n * log_n * log_log_n).max(128),
            payload: 0,
        }
    }
}

/// Constructor for the permuted-decay global broadcast algorithm.
///
/// # Example
///
/// ```
/// use dradio_core::global::{PermutedConfig, PermutedGlobalBroadcast};
/// let factory = PermutedGlobalBroadcast::factory_with(256, PermutedConfig::paper(256));
/// let _ = factory;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PermutedGlobalBroadcast;

impl PermutedGlobalBroadcast {
    /// Builds a process factory for a network of `n` nodes with the scaled
    /// default configuration.
    pub fn factory(n: usize) -> ProcessFactory {
        Self::factory_with(n, PermutedConfig::scaled(n))
    }

    /// Builds a process factory with an explicit configuration.
    pub fn factory_with(n: usize, config: PermutedConfig) -> ProcessFactory {
        let levels = config.levels.unwrap_or_else(|| log2_ceil(n).max(1));
        Arc::new(move |ctx: &ProcessContext| {
            Box::new(PermutedProcess::new(
                ctx,
                PermutedDecaySchedule::new(levels),
                config,
            )) as Box<dyn Process>
        })
    }
}

/// Per-node state of the permuted-decay global broadcast.
#[derive(Debug)]
pub struct PermutedProcess {
    id: dradio_graphs::NodeId,
    role: Role,
    schedule: PermutedDecaySchedule,
    config: PermutedConfig,
    message: Option<Message>,
}

impl PermutedProcess {
    /// Creates the process for one node.
    pub fn new(
        ctx: &ProcessContext,
        schedule: PermutedDecaySchedule,
        config: PermutedConfig,
    ) -> Self {
        PermutedProcess {
            id: ctx.id,
            role: ctx.role,
            schedule,
            config,
            message: None,
        }
    }

    /// The permuted schedule in use.
    pub fn schedule(&self) -> PermutedDecaySchedule {
        self.schedule
    }
}

impl Process for PermutedProcess {
    fn on_start(&mut self, rng: &mut dyn RngCore) {
        if self.role == Role::Source {
            // The coordination bits are generated *after the execution
            // begins*: an oblivious link process has already committed to its
            // schedule and cannot depend on them.
            let bits = BitString::random(self.config.seed_bits, rng);
            self.message = Some(Message::with_bits(
                self.id,
                kinds::DATA,
                self.config.payload,
                bits,
            ));
        }
    }

    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.message {
            Some(m) if bernoulli(rng, self.schedule.probability(m.bits(), round.index())) => {
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
        match &self.message {
            Some(m) => self.schedule.probability(m.bits(), round.index()),
            None => 0.0,
        }
    }

    fn is_informed(&self) -> bool {
        self.message.is_some()
    }

    fn name(&self) -> &'static str {
        "permuted-decay"
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
    use dradio_graphs::{topology, NodeId};
    use dradio_sim::{SimConfig, Simulator, StaticLinks};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ctx(role: Role, n: usize) -> ProcessContext {
        ProcessContext::new(NodeId::new(0), n, n - 1, role)
    }

    #[test]
    fn source_attaches_fresh_random_bits() {
        let n = 64;
        let cfg = PermutedConfig::scaled(n);
        let mut a = PermutedProcess::new(
            &ctx(Role::Source, n),
            PermutedDecaySchedule::for_network(n),
            cfg,
        );
        let mut b = PermutedProcess::new(
            &ctx(Role::Source, n),
            PermutedDecaySchedule::for_network(n),
            cfg,
        );
        a.on_start(&mut ChaCha8Rng::seed_from_u64(1));
        b.on_start(&mut ChaCha8Rng::seed_from_u64(2));
        let bits_a = a.message.as_ref().unwrap().bits().clone();
        let bits_b = b.message.as_ref().unwrap().bits().clone();
        assert_eq!(bits_a.len(), cfg.seed_bits);
        assert_ne!(
            bits_a, bits_b,
            "different executions must use different bits"
        );
    }

    #[test]
    fn paper_config_is_larger_than_scaled() {
        let scaled = PermutedConfig::scaled(1024);
        let paper = PermutedConfig::paper(1024);
        assert!(paper.seed_bits > scaled.seed_bits);
        // 32 * 10^2 * 4 = 12800 for n = 1024 (log log 1024 = ceil(log2 10) = 4).
        assert_eq!(paper.seed_bits, 12_800);
    }

    #[test]
    fn receivers_adopt_the_bits_and_stay_coordinated() {
        let n = 64;
        let cfg = PermutedConfig::scaled(n);
        let sched = PermutedDecaySchedule::for_network(n);
        let mut source = PermutedProcess::new(&ctx(Role::Source, n), sched, cfg);
        source.on_start(&mut ChaCha8Rng::seed_from_u64(3));
        let m = source.message.clone().unwrap();

        let mut relay = PermutedProcess::new(&ctx(Role::Relay, n), sched, cfg);
        relay.on_feedback(
            Round::ZERO,
            &Feedback::Received(m.clone()),
            &mut ChaCha8Rng::seed_from_u64(4),
        );
        assert!(relay.is_informed());
        // Both now quote identical transmit probabilities every round: the
        // coordination property Lemma 4.2 needs.
        for r in 0..200 {
            assert_eq!(
                source.transmit_probability(Round::new(r)),
                relay.transmit_probability(Round::new(r))
            );
        }
    }

    #[test]
    fn uninformed_nodes_listen() {
        let n = 32;
        let mut relay = PermutedProcess::new(
            &ctx(Role::Relay, n),
            PermutedDecaySchedule::for_network(n),
            PermutedConfig::scaled(n),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        relay.on_start(&mut rng);
        for r in 0..50 {
            assert_eq!(relay.on_round(Round::new(r), &mut rng), Action::Listen);
        }
    }

    #[test]
    fn completes_on_dual_clique_with_all_links_active() {
        // G' is a clique: even with every unreliable edge active the permuted
        // decay coordination lets the message escape collisions quickly.
        let dual = topology::dual_clique(64).unwrap();
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        let outcome = Simulator::new(
            dual.clone(),
            PermutedGlobalBroadcast::factory(64),
            problem.assignment(64),
            Box::new(StaticLinks::all()),
            SimConfig::default().with_seed(11).with_max_rounds(20_000),
        )
        .unwrap()
        .run(problem.stop_condition());
        assert!(outcome.completed);
        assert!(problem.verify(&dual, &outcome.history));
    }

    #[test]
    fn completes_on_static_line_of_cliques() {
        let dual = topology::line_of_cliques(5, 8).unwrap();
        let n = dual.len();
        let problem = GlobalBroadcastProblem::new(NodeId::new(0));
        let outcome = Simulator::new(
            dual,
            PermutedGlobalBroadcast::factory(n),
            problem.assignment(n),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(13).with_max_rounds(50_000),
        )
        .unwrap()
        .run(problem.stop_condition());
        assert!(outcome.completed);
    }

    #[test]
    fn transmit_probability_is_level_probability() {
        let n = 64;
        let cfg = PermutedConfig::scaled(n);
        let sched = PermutedDecaySchedule::for_network(n);
        let mut source = PermutedProcess::new(&ctx(Role::Source, n), sched, cfg);
        source.on_start(&mut ChaCha8Rng::seed_from_u64(6));
        let bits = source.message.as_ref().unwrap().bits().clone();
        for r in 0..50 {
            let expected = sched.probability(&bits, r);
            assert!((source.transmit_probability(Round::new(r)) - expected).abs() < 1e-12);
        }
    }
}
