//! A greedy frontier-collision online adaptive attacker.
//!
//! Unlike the dense/sparse attacker of Theorem 3.1 — which is tailored to
//! topologies whose dynamic edges form a complete cut — this adversary works
//! on arbitrary dual graphs. For every node that has not yet received a
//! message it estimates the expected number of its *reliable* neighbors that
//! will transmit this round (from the per-node transmit probabilities the
//! online adaptive class is entitled to). If that expectation sits in the
//! "danger zone" around 1, where a delivery is likely, it activates dynamic
//! edges from additional likely transmitters towards the node to push the
//! expectation up and provoke a collision instead.

use std::sync::Arc;

use dradio_graphs::{DualGraph, Edge, NodeId};
use dradio_sim::{AdversaryClass, AdversarySetup, AdversaryView, LinkDecision, LinkProcess};
use rand::RngCore;

/// Greedy collision-provoking online adaptive attacker.
#[derive(Debug, Clone)]
pub struct GreedyCollisionOnline {
    /// A receiver whose expected reliable-transmitter count lies in
    /// `[danger_low, danger_high]` is attacked.
    danger_low: f64,
    /// Upper end of the danger zone.
    danger_high: f64,
    /// Expected-transmitter level the attacker tries to reach when attacking.
    target: f64,
    dual: Option<Arc<DualGraph>>,
    /// One receiver's grey-zone transmitters `(p, v)`: scratch, cleared
    /// per receiver, so rounds reuse its capacity.
    candidates: Vec<(f64, NodeId)>,
}

impl GreedyCollisionOnline {
    /// Creates the attacker with default danger zone `[0.2, 1.8]` and overload
    /// target 3.
    pub fn new() -> Self {
        GreedyCollisionOnline {
            danger_low: 0.2,
            danger_high: 1.8,
            target: 3.0,
            dual: None,
            candidates: Vec::new(),
        }
    }

    /// Sets the danger zone bounds.
    pub fn with_danger_zone(mut self, low: f64, high: f64) -> Self {
        self.danger_low = low;
        self.danger_high = high.max(low);
        self
    }

    /// Sets the overload target.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = target.max(1.0);
        self
    }
}

impl Default for GreedyCollisionOnline {
    fn default() -> Self {
        GreedyCollisionOnline::new()
    }
}

impl LinkProcess for GreedyCollisionOnline {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::OnlineAdaptive
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        self.dual = Some(setup.dual.clone());
    }

    fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        let (Some(dual), Some(probs)) = (self.dual.as_ref(), view.transmit_probabilities()) else {
            return LinkDecision::none();
        };
        let history = view.history();
        let mut active: Vec<Edge> = Vec::new();
        for u in NodeId::all(dual.len()) {
            // Nodes that already received something are no longer interesting
            // frontier targets.
            if let Some(h) = history {
                if h.received_any(u) {
                    continue;
                }
            }
            let reliable_expectation: f64 =
                dual.g_neighbors(u).iter().map(|v| probs[v.index()]).sum();
            if reliable_expectation < self.danger_low || reliable_expectation > self.danger_high {
                continue;
            }
            // Add the likeliest grey-zone transmitters until the expectation
            // clears the target.
            let candidates = &mut self.candidates;
            candidates.clear();
            candidates.extend(
                dual.g_prime_neighbors(u)
                    .iter()
                    .filter(|v| !dual.g().has_edge(u, **v))
                    .map(|&v| (probs[v.index()], v))
                    .filter(|(p, _)| *p > 0.0),
            );
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut expectation = reliable_expectation;
            for &(p, v) in candidates.iter() {
                if expectation >= self.target {
                    break;
                }
                expectation += p;
                active.push(Edge::new(u, v));
            }
        }
        active.sort_unstable();
        active.dedup();
        LinkDecision::from_edges(active)
    }

    fn reset(&mut self) -> bool {
        // The cached handle is re-captured by `on_start` (an Arc bump, not
        // a graph copy); dropping it restores the just-constructed state.
        self.dual = None;
        true
    }

    fn name(&self) -> &'static str {
        "greedy-collision-online"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{setup_ctx, talker_factory};
    use dradio_graphs::topology;
    use dradio_sim::{Assignment, History, Round, SimConfig, Simulator, StopCondition};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn started(dual: &DualGraph) -> (GreedyCollisionOnline, ChaCha8Rng) {
        let (dual_clone, factory, assignment) = setup_ctx(dual);
        let mut a = GreedyCollisionOnline::new();
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        a.on_start(&setup, &mut rng);
        (a, rng)
    }

    #[test]
    fn attacks_receivers_in_the_danger_zone() {
        // Grid-geometric graph: node interior receivers have grey-zone
        // (diagonal) neighbors available to the attacker.
        let dual = topology::grid_geometric(4, 4, 1.0, 1.45).unwrap();
        let (mut a, mut rng) = started(&dual);
        let history = History::new(dual.len());
        // Everyone transmits with probability 0.5: reliable expectations land
        // in the danger zone and grey candidates exist.
        let probs = vec![0.5; dual.len()];
        let view = AdversaryView::new(Round::ZERO, dual.len(), Some(&history), Some(&probs), None);
        let decision = a.decide(&view, &mut rng);
        assert!(
            !decision.is_empty(),
            "expected the attacker to inject grey links"
        );
        for e in decision.edges() {
            let (u, v) = e.endpoints();
            assert!(!dual.g().has_edge(u, v));
            assert!(dual.g_prime().has_edge(u, v));
        }
    }

    #[test]
    fn quiet_rounds_are_left_alone() {
        let dual = topology::grid_geometric(4, 4, 1.0, 1.45).unwrap();
        let (mut a, mut rng) = started(&dual);
        let history = History::new(dual.len());
        let probs = vec![0.0; dual.len()];
        let view = AdversaryView::new(Round::ZERO, dual.len(), Some(&history), Some(&probs), None);
        assert!(a.decide(&view, &mut rng).is_empty());
    }

    #[test]
    fn missing_information_means_no_action() {
        let dual = topology::grid_geometric(3, 3, 1.0, 1.45).unwrap();
        let (mut a, mut rng) = started(&dual);
        let view = AdversaryView::new(Round::ZERO, dual.len(), None, None, None);
        assert!(a.decide(&view, &mut rng).is_empty());
    }

    #[test]
    fn delays_local_broadcast_relative_to_benign_links() {
        // On a grey-zone-rich geometric grid with all nodes broadcasting at a
        // moderate rate, the greedy attacker should cause at least as many
        // collisions as the benign no-dynamic-links baseline.
        let dual = topology::grid_geometric(5, 5, 1.0, 1.45).unwrap();
        let n = dual.len();
        let broadcasters: Vec<NodeId> = NodeId::all(n).collect();
        let run = |link: Box<dyn dradio_sim::LinkProcess>| {
            Simulator::new(
                dual.clone(),
                talker_factory(0.4),
                Assignment::local(n, &broadcasters),
                link,
                SimConfig::default().with_seed(5).with_max_rounds(60),
            )
            .unwrap()
            .run(StopCondition::max_rounds())
        };
        let attacked = run(Box::<GreedyCollisionOnline>::default());
        let benign = run(Box::new(dradio_sim::StaticLinks::none()));
        assert!(attacked.metrics.collisions >= benign.metrics.collisions);
    }

    #[test]
    fn builder_methods_clamp_values() {
        let a = GreedyCollisionOnline::new()
            .with_danger_zone(1.0, 0.5)
            .with_target(0.0);
        assert!(a.danger_high >= a.danger_low);
        assert!(a.target >= 1.0);
        assert_eq!(a.class(), AdversaryClass::OnlineAdaptive);
    }
}
