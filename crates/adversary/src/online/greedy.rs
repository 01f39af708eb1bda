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

use crate::scan;

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
    /// The round's nodes with a nonzero transmit probability, one bit per
    /// node: scratch, refilled per round.
    nonzero: Vec<u64>,
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
            nonzero: Vec::new(),
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
        // Only nodes with a nonzero probability are summed or become
        // candidates. A skipped ±0.0 term changes no partial sum but the
        // sign of a zero one, which no comparison below can tell apart; a
        // NaN is nonzero, so it still poisons its sums. With no such node
        // every candidate list is empty.
        let n = dual.len();
        if !scan::refill(&mut self.nonzero, n, probs, |&p| p != 0.0) {
            return LinkDecision::none();
        }
        let nonzero = &self.nonzero;
        let history = view.history();
        let mut active: Vec<Edge> = Vec::new();
        for u in NodeId::all(n) {
            // Nodes that already received something are no longer interesting
            // frontier targets.
            if history.is_some_and(|h| h.received_any(u)) {
                continue;
            }
            let reliable_expectation: f64 =
                scan::marked_neighbors(dual.g().neighbor_row(u), nonzero)
                    .map(|v| probs[v.index()])
                    .sum();
            if reliable_expectation < self.danger_low || reliable_expectation > self.danger_high {
                continue;
            }
            // Add the likeliest grey-zone transmitters until the expectation
            // clears the target.
            let candidates = &mut self.candidates;
            candidates.clear();
            candidates.extend(
                scan::marked_dynamic_neighbors(dual, u, nonzero)
                    .map(|v| (probs[v.index()], v))
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
    use crate::test_support::{arb_small_dual, random_history, setup_ctx, talker_factory};
    use dradio_graphs::{topology, GraphBackend};
    use dradio_sim::{Assignment, History, Round, SimConfig, Simulator, StopCondition};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The attack as first written: each receiver's expectation summed over
    /// its whole `G` row, its grey candidates found by filtering its `G'`
    /// row with edge queries.
    fn reference(
        attacker: &GreedyCollisionOnline,
        dual: &DualGraph,
        view: &AdversaryView<'_>,
    ) -> LinkDecision {
        let Some(probs) = view.transmit_probabilities() else {
            return LinkDecision::none();
        };
        let history = view.history();
        let mut active: Vec<Edge> = Vec::new();
        for u in NodeId::all(dual.len()) {
            if let Some(h) = history {
                if h.received_any(u) {
                    continue;
                }
            }
            let reliable_expectation: f64 =
                dual.g_neighbors(u).iter().map(|v| probs[v.index()]).sum();
            if reliable_expectation < attacker.danger_low
                || reliable_expectation > attacker.danger_high
            {
                continue;
            }
            let mut candidates: Vec<(f64, NodeId)> = dual
                .g_prime_neighbors(u)
                .iter()
                .filter(|v| !dual.g().has_edge(u, **v))
                .map(|&v| (probs[v.index()], v))
                .filter(|(p, _)| *p > 0.0)
                .collect();
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut expectation = reliable_expectation;
            for (p, v) in candidates {
                if expectation >= attacker.target {
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

    /// A transmit probability from a menu that holds every value the sums
    /// and masks must treat exactly: both zeros, NaN, negative values, tiny
    /// and ordinary ones, and values at or past the overload target.
    fn probability(rng: &mut ChaCha8Rng) -> f64 {
        match rng.gen_range(0..10u32) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => f64::NAN,
            4 => -rng.gen_range(0.0..1.0),
            5 => 3.0,
            6 => f64::INFINITY,
            7 => 1e-300,
            _ => rng.gen_range(0.0..1.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn decisions_match_the_list_reference(dual in arb_small_dual(), seed in any::<u64>()) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = dual.len();
            for layout in [GraphBackend::Dense, GraphBackend::Csr] {
                let dual = Arc::new(dual.with_graph_backend(layout));
                let (_, factory, assignment) = setup_ctx(&dual);
                let setup = AdversarySetup {
                    dual: &dual,
                    factory: &factory,
                    assignment: &assignment,
                    horizon: 10,
                };
                // The default zone, and one around zero with a low target.
                let attackers = [
                    GreedyCollisionOnline::new(),
                    GreedyCollisionOnline::new()
                        .with_danger_zone(-1.0, 2.5)
                        .with_target(1.5),
                ];
                for mut attacker in attackers {
                    attacker.on_start(&setup, &mut rng);
                    for round in 0..8 {
                        // Some rounds have no nonzero probability at all.
                        let quiet = round % 4 == 0;
                        let probs: Vec<f64> = (0..n)
                            .map(|_| if quiet { [0.0, -0.0][rng.gen_range(0..2usize)] } else { probability(&mut rng) })
                            .collect();
                        let history = (round % 3 != 0).then(|| random_history(n, &mut rng));
                        let view =
                            AdversaryView::new(Round::new(round), n, history.as_ref(), Some(&probs), None);
                        let decision = attacker.decide(&view, &mut rng);
                        prop_assert_eq!(
                            &decision,
                            &reference(&attacker, &dual, &view),
                            "{} on {} nodes, round {}", layout, n, round
                        );
                    }
                }
            }
        }
    }

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
