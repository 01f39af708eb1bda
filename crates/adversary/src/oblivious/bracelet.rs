//! The oblivious attacker of Theorem 4.3 (local broadcast lower bound in the
//! bracelet network).
//!
//! The key idea of the proof is that in the bracelet network the heads of the
//! `A` bands and of the `B` bands behave *independently* for the first
//! `√(n/2)` rounds (information needs that long to travel down a band and
//! back). An oblivious adversary can therefore predict their broadcast
//! behaviour before the execution begins: it builds, for every band, an
//! *isolated broadcast function* — a simulation of just that band fed with
//! fresh random bits — and uses the predicted number of broadcasting heads to
//! label each round **dense** or **sparse**. Lemma 4.5 shows these labels are
//! accurate for the real execution with high probability, regardless of the
//! actual coins used. The attacker then:
//!
//! * activates **all** head-to-head `G'` edges in predicted-dense rounds
//!   (every head collides with the many other broadcasting heads), and
//! * activates **none** in predicted-sparse rounds (heads can only talk down
//!   their own band, so no cross-side progress is made),
//!
//! which starves the receivers at the clasp of any delivery for
//! `Ω(√n / log n)` rounds.

use std::sync::Arc;

use dradio_graphs::topology::Bracelet;
use dradio_graphs::{DualGraph, NodeId};
use dradio_sim::{
    Action, AdversaryClass, AdversarySetup, AdversaryView, Feedback, LinkDecision, LinkProcess,
    ProcessContext, Round,
};
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of [`BraceletOblivious`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BraceletConfig {
    /// Constant `c` in the dense threshold `c · ln n` on the predicted number
    /// of broadcasting heads.
    pub density_factor: f64,
    /// Behaviour after the `√(n/2)`-round prediction horizon: `true`
    /// activates every dynamic edge (keep colliding), `false` activates none.
    pub after_horizon_all: bool,
}

impl Default for BraceletConfig {
    fn default() -> Self {
        BraceletConfig {
            density_factor: 1.0,
            after_horizon_all: true,
        }
    }
}

/// The isolated-broadcast-function attacker for the bracelet network.
#[derive(Debug, Clone)]
pub struct BraceletOblivious {
    bands: Vec<Vec<NodeId>>,
    config: BraceletConfig,
    /// Per-round label computed at `on_start`: `true` means dense.
    dense_rounds: Vec<bool>,
    dual: Option<Arc<DualGraph>>,
    horizon: usize,
}

impl BraceletOblivious {
    /// Creates the attacker for the given bracelet network.
    pub fn new(bracelet: &Bracelet) -> Self {
        Self::with_config(bracelet, BraceletConfig::default())
    }

    /// Creates the attacker with an explicit configuration.
    pub fn with_config(bracelet: &Bracelet, config: BraceletConfig) -> Self {
        let bands: Vec<Vec<NodeId>> = bracelet
            .bands_a()
            .iter()
            .chain(bracelet.bands_b().iter())
            .cloned()
            .collect();
        BraceletOblivious {
            bands,
            config,
            dense_rounds: Vec::new(),
            dual: None,
            horizon: bracelet.band_length(),
        }
    }

    /// The per-round dense/sparse labels predicted at the start of the
    /// execution (empty before `on_start`).
    pub fn predicted_dense(&self) -> &[bool] {
        &self.dense_rounds
    }

    /// Simulates one band in isolation for `horizon` rounds and returns the
    /// head's predicted broadcast indicator per round.
    fn isolated_broadcast_function(
        band: &[NodeId],
        setup: &AdversarySetup<'_>,
        horizon: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<bool> {
        let n = setup.dual.len();
        let max_degree = setup.dual.max_degree();
        let mut processes: Vec<_> = band
            .iter()
            .map(|&u| {
                let role = setup.assignment.role(u);
                (setup.factory)(&ProcessContext::new(u, n, max_degree, role))
            })
            .collect();
        // Fresh support sequences: independent random streams for the
        // prediction, exactly as in Lemma 4.4/4.5.
        let mut rngs: Vec<ChaCha8Rng> = band
            .iter()
            .map(|_| ChaCha8Rng::seed_from_u64(rng.next_u64()))
            .collect();
        for (p, r) in processes.iter_mut().zip(rngs.iter_mut()) {
            p.on_start(r);
        }

        let mut head_broadcasts = Vec::with_capacity(horizon);
        for round_index in 0..horizon {
            let round = Round::new(round_index);
            let actions: Vec<Action> = processes
                .iter_mut()
                .zip(rngs.iter_mut())
                .map(|(p, r)| p.on_round(round, r))
                .collect();
            head_broadcasts.push(actions[0].is_transmit());
            // Reception along the band path (positions i-1 and i+1 are the
            // only neighbors considered in the isolated execution).
            for i in 0..band.len() {
                if actions[i].is_transmit() {
                    processes[i].on_feedback(round, &Feedback::Transmitted, &mut rngs[i]);
                    continue;
                }
                let mut heard = None;
                let mut count = 0;
                if i > 0 && actions[i - 1].is_transmit() {
                    count += 1;
                    heard = actions[i - 1].message();
                }
                if i + 1 < band.len() && actions[i + 1].is_transmit() {
                    count += 1;
                    heard = actions[i + 1].message();
                }
                let feedback = if count == 1 {
                    // lint: allow(D4) -- `heard` is set whenever count reaches 1
                    Feedback::Received(heard.expect("count == 1").clone())
                } else {
                    Feedback::Silence
                };
                processes[i].on_feedback(round, &feedback, &mut rngs[i]);
            }
        }
        head_broadcasts
    }
}

impl LinkProcess for BraceletOblivious {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.dual = Some(Arc::clone(setup.dual));
        let horizon = self.horizon.min(setup.horizon);
        // Evaluate every band's isolated broadcast function on fresh support
        // sequences.
        let predictions: Vec<Vec<bool>> = self
            .bands
            .iter()
            .map(|band| Self::isolated_broadcast_function(band, setup, horizon, rng))
            .collect();
        let threshold = self.config.density_factor * (setup.dual.len().max(2) as f64).ln();
        self.dense_rounds = (0..horizon)
            .map(|r| {
                let predicted: usize = predictions.iter().filter(|p| p[r]).count();
                predicted as f64 > threshold
            })
            .collect();
    }

    fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        let r = view.round().index();
        let dense = match self.dense_rounds.get(r) {
            Some(&label) => label,
            None => self.config.after_horizon_all,
        };
        match &self.dual {
            Some(dual) if dense => LinkDecision::all_dynamic(dual),
            _ => LinkDecision::none(),
        }
    }

    fn reset(&mut self) -> bool {
        // `dual` and the dense-round labels are recomputed by
        // `on_start` (from the adversary stream of the next execution's
        // seed); the band structure and config are immutable.
        true
    }

    fn name(&self) -> &'static str {
        "bracelet-oblivious"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{setup_ctx, talker_factory};
    use dradio_graphs::topology;
    use dradio_sim::{Assignment, SimConfig, Simulator, StopCondition};

    fn setup_for(bracelet: &Bracelet) -> (BraceletOblivious, dradio_graphs::DualGraph) {
        (BraceletOblivious::new(bracelet), bracelet.dual().clone())
    }

    #[test]
    fn predictions_cover_the_band_horizon() {
        let bracelet = topology::bracelet(4).unwrap();
        let (mut attacker, dual) = setup_for(&bracelet);
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 100,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        attacker.on_start(&setup, &mut rng);
        assert_eq!(attacker.predicted_dense().len(), 4);
    }

    #[test]
    fn dense_rounds_activate_all_dynamic_edges() {
        let bracelet = topology::bracelet(3).unwrap();
        let (mut attacker, dual) = setup_for(&bracelet);
        // Talkers with probability 1 make every predicted round dense.
        let broadcasters: Vec<NodeId> = NodeId::all(dual.len()).collect();
        let factory = talker_factory(1.0);
        let assignment = Assignment::local(dual.len(), &broadcasters);
        let shared = std::sync::Arc::new(dual.clone());
        let setup = AdversarySetup {
            dual: &shared,
            factory: &factory,
            assignment: &assignment,
            horizon: 50,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        attacker.on_start(&setup, &mut rng);
        assert!(attacker.predicted_dense().iter().all(|&d| d));
        let decision = attacker.decide(
            &AdversaryView::new(Round::new(0), dual.len(), None, None, None),
            &mut rng,
        );
        assert_eq!(decision.len(), dual.dynamic_edges().len());
    }

    #[test]
    fn silent_algorithm_gives_sparse_rounds() {
        let bracelet = topology::bracelet(3).unwrap();
        let (mut attacker, dual) = setup_for(&bracelet);
        // Probability-0 talkers never broadcast: all rounds sparse.
        let factory = talker_factory(0.0);
        let assignment = Assignment::relays(dual.len());
        let shared = std::sync::Arc::new(dual.clone());
        let setup = AdversarySetup {
            dual: &shared,
            factory: &factory,
            assignment: &assignment,
            horizon: 50,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        attacker.on_start(&setup, &mut rng);
        assert!(attacker.predicted_dense().iter().all(|&d| !d));
        let decision = attacker.decide(
            &AdversaryView::new(Round::new(1), dual.len(), None, None, None),
            &mut rng,
        );
        assert!(decision.is_empty());
    }

    #[test]
    fn after_horizon_behaviour_is_configurable() {
        let bracelet = topology::bracelet(2).unwrap();
        let dual = bracelet.dual().clone();
        let mut all = BraceletOblivious::with_config(
            &bracelet,
            BraceletConfig {
                density_factor: 1.0,
                after_horizon_all: true,
            },
        );
        let mut none = BraceletOblivious::with_config(
            &bracelet,
            BraceletConfig {
                density_factor: 1.0,
                after_horizon_all: false,
            },
        );
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 100,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        all.on_start(&setup, &mut rng);
        none.on_start(&setup, &mut rng);
        let view = AdversaryView::new(Round::new(999), dual.len(), None, None, None);
        assert_eq!(
            all.decide(&view, &mut rng).len(),
            dual.dynamic_edges().len()
        );
        assert!(none.decide(&view, &mut rng).is_empty());
    }

    #[test]
    fn runs_inside_the_simulator() {
        let bracelet = topology::bracelet(3).unwrap();
        let dual = bracelet.dual().clone();
        let n = dual.len();
        let heads: Vec<NodeId> = bracelet.heads_a().into_iter().collect();
        let outcome = Simulator::new(
            dual,
            talker_factory(0.4),
            Assignment::local(n, &heads),
            Box::new(BraceletOblivious::new(&bracelet)),
            SimConfig::default().with_seed(4).with_max_rounds(20),
        )
        .unwrap()
        .run(StopCondition::max_rounds());
        assert_eq!(outcome.rounds_executed, 20);
    }
}
