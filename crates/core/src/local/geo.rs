//! The paper's local broadcast algorithm for the oblivious dual graph model
//! under the geographic constraint (Section 4.3, Theorem 4.6).
//!
//! The algorithm runs in two stages:
//!
//! 1. **Initialization** — `log Δ` phases of `O(log² n)` rounds. In each
//!    phase every still-*active* node elects itself leader with a probability
//!    that doubles phase by phase (`1/Δ, 2/Δ, …, 1/2`). A leader generates a
//!    seed of shared random bits, commits to it, and gossips it with
//!    probability `1/log n` per round for the rest of the phase; nodes that
//!    hear a seed commit to the first one they heard and become inactive.
//!    Because geographic graphs decompose into constant-degree regions of
//!    mutually adjacent nodes (Lemmas 4.7–4.9), with high probability every
//!    node ends the stage committed and no node neighbors more than
//!    `O(log n)` distinct seeds.
//! 2. **Broadcast** — broadcasters repeatedly run the permuted decay
//!    subroutine. For each iteration a broadcaster participates with
//!    probability `1/log n`, *using bits from its seed* to decide, so all
//!    broadcasters sharing a seed participate together and permute their
//!    decay levels identically. A receiver neighbors only `O(log n)` seed
//!    groups, so with probability `Ω(1/log n)` per iteration exactly one
//!    group participates and Lemma 4.2 delivers its message.
//!
//! Implementation notes (documented deviations): stage lengths and seed sizes
//! are configurable with scaled-down defaults (the paper's constants are
//! chosen for proof convenience); seed bits wrap when exhausted; leaders keep
//! gossiping until the end of their phase rather than becoming silent early.

use std::sync::Arc;

use dradio_sim::process::log2_ceil;
use dradio_sim::sampling::bernoulli;
use dradio_sim::{
    Action, BitString, Feedback, Message, Process, ProcessContext, ProcessFactory, Role, Round,
};
use rand::RngCore;

use crate::decay::PermutedDecaySchedule;
use crate::kinds;

/// Configuration for [`GeoLocalBroadcast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoConfig {
    /// Rounds per initialization phase (paper: `O(log² n)`).
    pub phase_rounds: usize,
    /// Number of initialization phases (paper: `log Δ`).
    pub num_phases: usize,
    /// Length of one broadcast-stage iteration in rounds (paper: `γ log n`).
    pub iteration_rounds: usize,
    /// Number of random bits in each seed.
    pub seed_bits: usize,
    /// Reciprocal of the leader-gossip and iteration-participation
    /// probability (paper: `log n`, i.e. probability `1/log n`).
    pub inverse_participation: usize,
    /// Number of decay probability levels (paper: `log n`).
    pub levels: usize,
}

impl GeoConfig {
    /// Scaled-down defaults suitable for simulation sweeps: phase length
    /// `2 log² n`, iteration length `2 log n`, seeds of `max(512, 4 log³ n)`
    /// bits.
    pub fn scaled(n: usize, max_degree: usize) -> Self {
        let log_n = log2_ceil(n).max(1);
        let log_delta = log2_ceil(max_degree.max(2)).max(1);
        GeoConfig {
            phase_rounds: (2 * log_n * log_n).max(4),
            num_phases: log_delta,
            iteration_rounds: (2 * log_n).max(2),
            seed_bits: (4 * log_n * log_n * log_n).max(512),
            inverse_participation: log_n,
            levels: log_n,
        }
    }

    /// Paper-faithful constants: phase length `8 log² n`, iteration length
    /// `16 log n`, seeds of `log³ n (log log n)²` bits (with a floor).
    pub fn paper(n: usize, max_degree: usize) -> Self {
        let log_n = log2_ceil(n).max(1);
        let log_log_n = log2_ceil(log_n).max(1);
        let log_delta = log2_ceil(max_degree.max(2)).max(1);
        GeoConfig {
            phase_rounds: (8 * log_n * log_n).max(8),
            num_phases: log_delta,
            iteration_rounds: (16 * log_n).max(2),
            seed_bits: (log_n * log_n * log_n * log_log_n * log_log_n).max(1024),
            inverse_participation: log_n,
            levels: log_n,
        }
    }

    /// Total number of initialization-stage rounds.
    pub fn init_rounds(&self) -> usize {
        self.phase_rounds * self.num_phases
    }
}

/// Which stage of the algorithm a given round belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoStage {
    /// Seed dissemination (leader election and gossip).
    Initialization {
        /// The phase index in `0..num_phases`.
        phase: usize,
    },
    /// Coordinated permuted-decay broadcasting.
    Broadcast {
        /// The iteration index (each iteration is one permuted decay call).
        iteration: usize,
    },
}

/// Constructor for the geographic local broadcast algorithm.
///
/// # Example
///
/// ```
/// use dradio_core::local::GeoLocalBroadcast;
/// let factory = GeoLocalBroadcast::factory(128, 12);
/// let _ = factory;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GeoLocalBroadcast;

impl GeoLocalBroadcast {
    /// Builds a process factory for a network of `n` nodes with maximum
    /// degree `max_degree`, using scaled defaults.
    pub fn factory(n: usize, max_degree: usize) -> ProcessFactory {
        Self::factory_with(GeoConfig::scaled(n, max_degree))
    }

    /// Builds a process factory with an explicit configuration.
    pub fn factory_with(config: GeoConfig) -> ProcessFactory {
        Arc::new(move |ctx: &ProcessContext| {
            Box::new(GeoProcess::new(ctx, config)) as Box<dyn Process>
        })
    }
}

/// Per-node state of the geographic local broadcast algorithm.
#[derive(Debug)]
pub struct GeoProcess {
    id: dradio_graphs::NodeId,
    role: Role,
    config: GeoConfig,
    schedule: PermutedDecaySchedule,
    /// Still active in the initialization stage (has not committed).
    active: bool,
    /// Elected leader in the current phase.
    is_leader: bool,
    /// The seed this node has committed to (its own if it was a leader or a
    /// stage survivor, otherwise the first one it heard).
    committed: Option<BitString>,
    /// First seed heard while active (committed to at phase end).
    heard_seed: Option<BitString>,
    /// The local broadcast payload (broadcasters only).
    payload: Option<Message>,
}

impl GeoProcess {
    /// Creates the process for one node.
    pub fn new(ctx: &ProcessContext, config: GeoConfig) -> Self {
        let payload = (ctx.role == Role::Broadcaster)
            .then(|| Message::plain(ctx.id, kinds::DATA, ctx.id.index() as u64));
        GeoProcess {
            id: ctx.id,
            role: ctx.role,
            config,
            schedule: PermutedDecaySchedule::new(config.levels),
            active: true,
            is_leader: false,
            committed: None,
            heard_seed: None,
            payload,
        }
    }

    /// The stage the algorithm is in at `round`.
    pub fn stage(&self, round: Round) -> GeoStage {
        let init = self.config.init_rounds();
        if round.index() < init {
            GeoStage::Initialization {
                phase: round.index() / self.config.phase_rounds.max(1),
            }
        } else {
            GeoStage::Broadcast {
                iteration: (round.index() - init) / self.config.iteration_rounds.max(1),
            }
        }
    }

    /// Whether this node has committed to a seed.
    pub fn has_committed(&self) -> bool {
        self.committed.is_some()
    }

    /// The problem-level role of this node.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Leader election probability for `phase` (`2^{-(num_phases - phase)}`,
    /// i.e. `1/Δ` in the first phase up to `1/2` in the last).
    fn election_probability(&self, phase: usize) -> f64 {
        let exponent = self.config.num_phases.saturating_sub(phase).max(1);
        0.5f64.powi(exponent.min(1024) as i32)
    }

    fn gossip_probability(&self) -> f64 {
        1.0 / self.config.inverse_participation.max(1) as f64
    }

    /// Closes the previous phase: leaders retire; active nodes that heard a
    /// seed commit to it and retire.
    fn finish_phase(&mut self) {
        if self.is_leader {
            self.is_leader = false;
            self.active = false;
        } else if self.active {
            if let Some(seed) = self.heard_seed.take() {
                self.committed = Some(seed);
                self.active = false;
            }
        }
    }

    /// At the end of the initialization stage every uncommitted node commits
    /// to a fresh private seed.
    fn finish_initialization(&mut self, rng: &mut dyn RngCore) {
        self.finish_phase();
        if self.committed.is_none() {
            self.committed = Some(BitString::random(self.config.seed_bits, rng));
        }
        self.active = false;
    }

    /// Deterministic participation decision for a broadcast iteration, shared
    /// by every node holding the same seed.
    fn participates(&self, seed: &BitString, iteration: usize) -> bool {
        let inv = self.config.inverse_participation.max(1) as u64;
        let width = log2_ceil(self.config.inverse_participation.max(2)).max(1) + 1;
        if seed.is_empty() || seed.len() < width {
            return (iteration as u64).is_multiple_of(inv);
        }
        let positions = seed.len() - width + 1;
        // Offset the participation bits away from the permutation bits by a
        // fixed stride so the two decisions are not read from identical
        // positions.
        let offset = ((iteration * width).wrapping_mul(2_654_435_761) % positions) % positions;
        // lint: allow(D4) -- offset is reduced mod positions on the line above
        let value = seed.value(offset, width).expect("offset within bounds");
        value.is_multiple_of(inv)
    }

    /// The transmit probability implied by the current state for `round`
    /// (exact except on the single boundary round where commitment happens).
    fn planned_probability(&self, round: Round) -> f64 {
        match self.stage(round) {
            GeoStage::Initialization { phase } => {
                let within = round.index() % self.config.phase_rounds.max(1);
                if within == 0 {
                    0.0
                } else if self.is_leader && phase < self.config.num_phases {
                    self.gossip_probability()
                } else {
                    0.0
                }
            }
            GeoStage::Broadcast { iteration } => {
                let Some(payload_seed) = self.committed.as_ref() else {
                    return 0.0;
                };
                if self.payload.is_none() {
                    return 0.0;
                }
                if !self.participates(payload_seed, iteration) {
                    return 0.0;
                }
                let step = round.index() - self.config.init_rounds();
                self.schedule.probability(payload_seed, step)
            }
        }
    }
}

impl Process for GeoProcess {
    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        let init_rounds = self.config.init_rounds();
        if round.index() < init_rounds {
            let phase = round.index() / self.config.phase_rounds.max(1);
            let within = round.index() % self.config.phase_rounds.max(1);
            if within == 0 {
                // Phase boundary: close the previous phase, then run this
                // phase's leader election among still-active nodes.
                if phase > 0 {
                    self.finish_phase();
                }
                if self.active && bernoulli(rng, self.election_probability(phase)) {
                    self.is_leader = true;
                    self.committed = Some(BitString::random(self.config.seed_bits, rng));
                }
                return Action::Listen;
            }
            if self.is_leader && bernoulli(rng, self.gossip_probability()) {
                let seed = self
                    .committed
                    .clone()
                    // lint: allow(D4) -- leaders commit their seed when elected, before this state
                    .expect("leaders committed at election");
                return Action::Transmit(Message::with_bits(self.id, kinds::SEED, 0, seed));
            }
            return Action::Listen;
        }

        // Broadcast stage.
        if round.index() == init_rounds || self.committed.is_none() {
            self.finish_initialization(rng);
        }
        let Some(payload) = self.payload.clone() else {
            return Action::Listen;
        };
        let seed = self
            .committed
            .clone()
            // lint: allow(D4) -- on_round commits a seed before any non-init round
            .expect("committed after initialization");
        let iteration = (round.index() - init_rounds) / self.config.iteration_rounds.max(1);
        if !self.participates(&seed, iteration) {
            return Action::Listen;
        }
        let step = round.index() - init_rounds;
        if bernoulli(rng, self.schedule.probability(&seed, step)) {
            Action::Transmit(payload)
        } else {
            Action::Listen
        }
    }

    fn on_feedback(&mut self, _round: Round, feedback: &Feedback, _rng: &mut dyn RngCore) {
        if let Some(m) = feedback.message() {
            if m.kind() == kinds::SEED
                && self.active
                && !self.is_leader
                && self.heard_seed.is_none()
            {
                self.heard_seed = Some(m.bits().clone());
            }
        }
    }

    fn transmit_probability(&self, round: Round) -> f64 {
        self.planned_probability(round)
    }

    fn is_informed(&self) -> bool {
        self.committed.is_some()
    }

    fn name(&self) -> &'static str {
        "geo-local"
    }

    /// A leader gossips all phase long, and an active node needs only the
    /// next phase boundary, where it commits or stands for election. A
    /// committed node without a payload never transmits again; one with a
    /// payload sleeps through the rest of initialization.
    fn next_wake(&self, next: Round) -> Option<Round> {
        let init = self.config.init_rounds();
        let r = next.index();
        if self.is_leader {
            return Some(next);
        }
        if self.active {
            if r >= init {
                return Some(next);
            }
            let phase = self.config.phase_rounds.max(1);
            return Some(Round::new((r.div_ceil(phase) * phase).min(init)));
        }
        if self.committed.is_none() {
            return Some(next);
        }
        self.payload.as_ref()?;
        Some(Round::new(r.max(init)))
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

    fn ctx(id: usize, role: Role, n: usize, delta: usize) -> ProcessContext {
        ProcessContext::new(NodeId::new(id), n, delta, role)
    }

    #[test]
    fn config_constructors_scale_with_parameters() {
        let small = GeoConfig::scaled(64, 8);
        let big = GeoConfig::scaled(4096, 8);
        assert!(big.phase_rounds > small.phase_rounds);
        assert_eq!(small.num_phases, 3);
        let paper = GeoConfig::paper(64, 8);
        assert!(paper.phase_rounds >= small.phase_rounds);
        assert!(paper.seed_bits >= small.seed_bits);
        assert_eq!(small.init_rounds(), small.phase_rounds * small.num_phases);
    }

    #[test]
    fn stage_boundaries_follow_configuration() {
        let cfg = GeoConfig {
            phase_rounds: 10,
            num_phases: 3,
            iteration_rounds: 5,
            seed_bits: 64,
            inverse_participation: 4,
            levels: 4,
        };
        let p = GeoProcess::new(&ctx(0, Role::Relay, 64, 8), cfg);
        assert_eq!(
            p.stage(Round::new(0)),
            GeoStage::Initialization { phase: 0 }
        );
        assert_eq!(
            p.stage(Round::new(25)),
            GeoStage::Initialization { phase: 2 }
        );
        assert_eq!(
            p.stage(Round::new(30)),
            GeoStage::Broadcast { iteration: 0 }
        );
        assert_eq!(
            p.stage(Round::new(41)),
            GeoStage::Broadcast { iteration: 2 }
        );
    }

    #[test]
    fn election_probability_doubles_per_phase() {
        let cfg = GeoConfig::scaled(256, 16); // num_phases = 4
        let p = GeoProcess::new(&ctx(0, Role::Relay, 256, 16), cfg);
        assert!((p.election_probability(0) - 1.0 / 16.0).abs() < 1e-12);
        assert!((p.election_probability(1) - 1.0 / 8.0).abs() < 1e-12);
        assert!((p.election_probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn everyone_commits_by_the_broadcast_stage() {
        let cfg = GeoConfig::scaled(64, 8);
        let mut p = GeoProcess::new(&ctx(3, Role::Broadcaster, 64, 8), cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for r in 0..=cfg.init_rounds() {
            let _ = p.on_round(Round::new(r), &mut rng);
        }
        assert!(p.has_committed());
    }

    #[test]
    fn hearing_a_seed_commits_to_it() {
        let cfg = GeoConfig::scaled(64, 8);
        let mut p = GeoProcess::new(&ctx(3, Role::Relay, 64, 8), cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let seed = BitString::random(cfg.seed_bits, &mut rng);
        let m = Message::with_bits(NodeId::new(9), kinds::SEED, 0, seed.clone());
        // The node hears a seed while active (and before any election round
        // could have made it a leader).
        p.on_feedback(Round::new(1), &Feedback::Received(m), &mut rng);
        assert!(p.heard_seed.is_some());
        // The commitment happens when the phase closes (first round of the
        // next phase).
        let _ = p.on_round(Round::new(cfg.phase_rounds), &mut rng);
        assert_eq!(p.committed, Some(seed));
        assert!(!p.active);
    }

    #[test]
    fn data_messages_do_not_trigger_seed_commitment() {
        let cfg = GeoConfig::scaled(64, 8);
        let mut p = GeoProcess::new(&ctx(3, Role::Relay, 64, 8), cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = Message::plain(NodeId::new(9), kinds::DATA, 0);
        p.on_feedback(Round::new(1), &Feedback::Received(m), &mut rng);
        assert!(p.heard_seed.is_none());
    }

    #[test]
    fn same_seed_nodes_make_identical_broadcast_decisions() {
        let cfg = GeoConfig::scaled(256, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let shared = BitString::random(cfg.seed_bits, &mut rng);
        let mut a = GeoProcess::new(&ctx(1, Role::Broadcaster, 256, 16), cfg);
        let mut b = GeoProcess::new(&ctx(2, Role::Broadcaster, 256, 16), cfg);
        a.committed = Some(shared.clone());
        b.committed = Some(shared);
        a.active = false;
        b.active = false;
        for r in cfg.init_rounds()..cfg.init_rounds() + 200 {
            assert_eq!(
                a.transmit_probability(Round::new(r)),
                b.transmit_probability(Round::new(r)),
                "round {r}"
            );
        }
    }

    #[test]
    fn participation_rate_is_roughly_one_over_log_n() {
        let cfg = GeoConfig::scaled(1024, 32); // inverse_participation = 10
        let p = GeoProcess::new(&ctx(0, Role::Broadcaster, 1024, 32), cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut participating = 0usize;
        let trials = 400;
        for t in 0..trials {
            let seed = BitString::random(cfg.seed_bits, &mut rng);
            if p.participates(&seed, t) {
                participating += 1;
            }
        }
        let rate = participating as f64 / trials as f64;
        let target = 1.0 / cfg.inverse_participation as f64;
        assert!(
            (rate - target).abs() < 0.08,
            "rate {rate} vs target {target}"
        );
    }

    #[test]
    fn relays_never_transmit_in_broadcast_stage() {
        let cfg = GeoConfig::scaled(64, 8);
        let mut p = GeoProcess::new(&ctx(3, Role::Relay, 64, 8), cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for r in cfg.init_rounds()..cfg.init_rounds() + 100 {
            assert_eq!(p.on_round(Round::new(r), &mut rng), Action::Listen);
            assert_eq!(p.transmit_probability(Round::new(r)), 0.0);
        }
    }

    #[test]
    fn solves_local_broadcast_on_geometric_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let dual =
            topology::random_geometric(&topology::GeometricConfig::new(60, 4.0, 1.5), &mut rng)
                .unwrap();
        let n = dual.len();
        let broadcasters: Vec<NodeId> = (0..n).step_by(4).map(NodeId::new).collect();
        let problem = LocalBroadcastProblem::new(broadcasters.clone());
        let outcome = Simulator::new(
            dual.clone(),
            GeoLocalBroadcast::factory(n, dual.max_degree()),
            Assignment::local(n, &broadcasters),
            Box::new(StaticLinks::all()),
            SimConfig::default().with_seed(8).with_max_rounds(20_000),
        )
        .unwrap()
        .run(problem.stop_condition(&dual));
        assert!(outcome.completed, "geo local broadcast should finish");
        assert!(problem.verify(&dual, &outcome.history));
    }

    #[test]
    fn seed_gossip_happens_during_initialization() {
        // On a small clique, with every node active, some leader is elected
        // and gossips SEED messages during the initialization stage.
        let n = 16;
        let dual = topology::clique(n);
        let broadcasters: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let outcome = Simulator::new(
            dual,
            GeoLocalBroadcast::factory(n, n - 1),
            Assignment::local(n, &broadcasters),
            Box::new(StaticLinks::none()),
            SimConfig::default()
                .with_seed(9)
                .with_max_rounds(GeoConfig::scaled(n, n - 1).init_rounds()),
        )
        .unwrap()
        .run(dradio_sim::StopCondition::max_rounds());
        let seed_deliveries = outcome
            .history
            .records()
            .iter()
            .flat_map(|r| r.deliveries.iter())
            .filter(|d| d.message.kind() == kinds::SEED)
            .count();
        assert!(seed_deliveries > 0, "expected some seed dissemination");
    }
}
