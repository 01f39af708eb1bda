//! The online adaptive attacker of Theorem 3.1.
//!
//! The attacker computes, at the start of each round, the expected number of
//! transmitters `E[|X| | S]` from the processes' current state (information an
//! online adaptive link process is entitled to — it knows the algorithm and
//! the execution history, just not the round's coins). It labels the round
//! **dense** when the expectation exceeds `c · log₂ n` and **sparse**
//! otherwise, then:
//!
//! * dense round → activate **every** dynamic edge. With many expected
//!   transmitters the topology is (close to) complete and everyone collides;
//!   the only way the algorithm makes progress is the low-probability event
//!   that exactly one node transmits.
//! * sparse round → activate **no** dynamic edge. The few transmitters can
//!   only reach their reliable neighbors, so no progress is made across the
//!   dynamic-only cuts (e.g. between the two cliques of the dual clique
//!   network) unless a bridge endpoint happens to transmit.
//!
//! On the dual clique network this forces `Ω(n / log n)` rounds for both
//! global and local broadcast (Figure 1 row 2), which experiment E5 measures.

use std::sync::Arc;

use dradio_graphs::DualGraph;
use dradio_sim::process::log2_ceil;
use dradio_sim::{AdversaryClass, AdversarySetup, AdversaryView, LinkDecision, LinkProcess};
use rand::RngCore;

/// The expectation-threshold online adaptive attacker.
#[derive(Debug, Clone)]
pub struct DenseSparseOnline {
    density_factor: f64,
    threshold: f64,
    dual: Option<Arc<DualGraph>>,
    dense_rounds_seen: usize,
    sparse_rounds_seen: usize,
}

impl DenseSparseOnline {
    /// Creates the attacker with dense threshold `density_factor · log₂ n`
    /// (the factor defaults to 1; the paper's proof uses a sufficiently large
    /// constant `c`).
    pub fn new(density_factor: f64) -> Self {
        DenseSparseOnline {
            density_factor: density_factor.max(0.1),
            threshold: 0.0,
            dual: None,
            dense_rounds_seen: 0,
            sparse_rounds_seen: 0,
        }
    }

    /// The dense/sparse threshold computed at `on_start` (0 before that).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of rounds labelled dense so far.
    pub fn dense_rounds_seen(&self) -> usize {
        self.dense_rounds_seen
    }

    /// Number of rounds labelled sparse so far.
    pub fn sparse_rounds_seen(&self) -> usize {
        self.sparse_rounds_seen
    }
}

impl Default for DenseSparseOnline {
    fn default() -> Self {
        DenseSparseOnline::new(1.0)
    }
}

impl LinkProcess for DenseSparseOnline {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::OnlineAdaptive
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        self.dual = Some(Arc::clone(setup.dual));
        self.threshold = self.density_factor * log2_ceil(setup.dual.len().max(2)).max(1) as f64;
    }

    fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        let expected = view.expected_transmitters().unwrap_or(0.0);
        if expected > self.threshold {
            self.dense_rounds_seen += 1;
            match &self.dual {
                Some(dual) => LinkDecision::all_dynamic(dual),
                None => LinkDecision::none(),
            }
        } else {
            self.sparse_rounds_seen += 1;
            LinkDecision::none()
        }
    }

    fn reset(&mut self) -> bool {
        // The threshold and edge list are rewritten by `on_start`; only the
        // diagnostic round counters accumulate across decisions.
        self.dense_rounds_seen = 0;
        self.sparse_rounds_seen = 0;
        true
    }

    fn name(&self) -> &'static str {
        "dense-sparse-online"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{setup_ctx, talker_factory};
    use dradio_graphs::{topology, NodeId};
    use dradio_sim::{Assignment, Round, SimConfig, Simulator, StopCondition};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn threshold_scales_with_network_size() {
        let mut a = DenseSparseOnline::new(2.0);
        let dual = topology::dual_clique(256).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        a.on_start(&setup, &mut rng);
        assert!((a.threshold() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn dense_and_sparse_rounds_choose_opposite_extremes() {
        let dual = topology::dual_clique(16).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let mut a = DenseSparseOnline::default();
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        a.on_start(&setup, &mut rng);

        let high = vec![0.9; 16];
        let low = vec![0.01; 16];
        let history = dradio_sim::History::new(16);
        let dense_view = AdversaryView::new(Round::ZERO, 16, Some(&history), Some(&high), None);
        let sparse_view = AdversaryView::new(Round::ZERO, 16, Some(&history), Some(&low), None);
        assert_eq!(
            a.decide(&dense_view, &mut rng).len(),
            dual.dynamic_edges().len()
        );
        assert!(a.decide(&sparse_view, &mut rng).is_empty());
        assert_eq!(a.dense_rounds_seen(), 1);
        assert_eq!(a.sparse_rounds_seen(), 1);
    }

    #[test]
    fn missing_probabilities_default_to_sparse() {
        let dual = topology::dual_clique(8).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let mut a = DenseSparseOnline::default();
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        a.on_start(&setup, &mut rng);
        let view = AdversaryView::new(Round::ZERO, 8, None, None, None);
        assert!(a.decide(&view, &mut rng).is_empty());
    }

    #[test]
    fn slows_down_broadcast_across_the_dual_clique() {
        // All nodes of side A broadcast aggressively (expected count far above
        // the threshold): the attacker keeps every round dense, so side B
        // never hears anything (every transmission collides at B's nodes).
        let n = 32;
        let dual = topology::dual_clique(n).unwrap();
        let broadcasters: Vec<NodeId> = (0..n / 2).map(NodeId::new).collect();
        let outcome = Simulator::new(
            dual,
            talker_factory(0.5),
            Assignment::local(n, &broadcasters),
            Box::new(DenseSparseOnline::default()),
            SimConfig::default().with_seed(3).with_max_rounds(200),
        )
        .unwrap()
        .run(StopCondition::max_rounds());
        // No node of side B (other than the bridge endpoint, reachable over
        // the reliable bridge) ever receives anything.
        for b in (n / 2 + 1)..n {
            assert!(
                !outcome.history.received_any(NodeId::new(b)),
                "node {b} should be starved"
            );
        }
    }

    #[test]
    fn declares_online_adaptive_class() {
        let a = DenseSparseOnline::default();
        assert_eq!(a.class(), AdversaryClass::OnlineAdaptive);
        assert_eq!(a.name(), "dense-sparse-online");
    }
}
