//! The omniscient offline adaptive blocker.
//!
//! An offline adaptive link process sees the actual transmit decisions of the
//! current round before fixing the links — the strongest of the three classes
//! and the one assumed by the earlier dual graph papers the paper builds on
//! (Figure 1 row 1, where both broadcast problems require `Ω(n)` rounds even
//! in constant-diameter graphs).
//!
//! The attacker implemented here blocks every delivery it *can* block: for
//! every listening node that is about to hear exactly one reliable neighbor,
//! it activates a dynamic edge from some other transmitter to that node,
//! turning the delivery into a collision. A delivery can only slip through
//! when there is no second transmitter anywhere within `G'` range — on the
//! dual clique network that means progress requires the globally lone
//! transmitter to be a bridge endpoint, which is exactly the `Ω(n)` dynamic
//! the lower bound formalizes.
//!
//! Optionally the attacker protects only a subset of nodes (e.g. the far side
//! of the dual clique), letting the algorithm proceed normally elsewhere —
//! useful for experiments that want to isolate the cross-cut delay.

use std::sync::Arc;

use dradio_graphs::{DualGraph, Edge, NodeId};
use dradio_sim::{
    Action, AdversaryClass, AdversarySetup, AdversaryView, LinkDecision, LinkProcess,
};
use rand::RngCore;

use crate::scan;

/// The omniscient offline adaptive blocker.
#[derive(Debug, Clone, Default)]
pub struct OmniscientOffline {
    /// If non-empty, only these nodes are protected from receiving.
    protect: Vec<NodeId>,
    dual: Option<Arc<DualGraph>>,
    /// The round's transmitters, one bit per node: scratch, refilled per
    /// round.
    transmitting: Vec<u64>,
}

impl OmniscientOffline {
    /// Creates the attacker protecting every node (blocking every blockable
    /// delivery anywhere in the network).
    pub fn new() -> Self {
        OmniscientOffline {
            protect: Vec::new(),
            dual: None,
            transmitting: Vec::new(),
        }
    }

    /// Creates the attacker protecting only the listed nodes.
    pub fn protecting(nodes: Vec<NodeId>) -> Self {
        OmniscientOffline {
            protect: nodes,
            dual: None,
            transmitting: Vec::new(),
        }
    }

    fn is_protected(&self, u: NodeId) -> bool {
        self.protect.is_empty() || self.protect.contains(&u)
    }
}

impl LinkProcess for OmniscientOffline {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::OfflineAdaptive
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        self.dual = Some(setup.dual.clone());
    }

    fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        let (Some(dual), Some(actions)) = (self.dual.as_ref(), view.actions()) else {
            return LinkDecision::none();
        };
        let n = dual.len();
        if !scan::refill(&mut self.transmitting, n, actions, Action::is_transmit) {
            return LinkDecision::none();
        }
        let transmitting = &self.transmitting;
        let mut active: Vec<Edge> = Vec::new();
        for u in NodeId::all(n) {
            if scan::is_marked(transmitting, u.index()) || !self.is_protected(u) {
                continue;
            }
            let reliable_transmitting =
                scan::marked_neighbors(dual.g().neighbor_row(u), transmitting)
                    .take(2)
                    .count();
            if reliable_transmitting != 1 {
                // Either already silent or already a collision: nothing to do.
                continue;
            }
            // The lowest-numbered second transmitter reachable over a
            // dynamic edge.
            if let Some(blocker) = scan::marked_dynamic_neighbors(dual, u, transmitting).next() {
                active.push(Edge::new(u, blocker));
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
        "omniscient-offline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{arb_small_dual, run_with_beacon, setup_ctx, talker_factory, DATA};
    use dradio_graphs::{topology, GraphBackend};
    use dradio_sim::{Assignment, Message, Round, SimConfig, Simulator, StopCondition};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The attack as first written: the round's transmitters listed in
    /// ascending order, each listener's transmitting `G` neighbours
    /// counted over its whole row, and its blocker found by edge queries
    /// down the list.
    fn reference(
        attacker: &OmniscientOffline,
        dual: &DualGraph,
        view: &AdversaryView<'_>,
    ) -> LinkDecision {
        let Some(actions) = view.actions() else {
            return LinkDecision::none();
        };
        let transmitters: Vec<NodeId> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_transmit())
            .map(|(i, _)| NodeId::new(i))
            .collect();
        if transmitters.is_empty() {
            return LinkDecision::none();
        }
        let mut active: Vec<Edge> = Vec::new();
        for u in NodeId::all(dual.len()) {
            if actions[u.index()].is_transmit() || !attacker.is_protected(u) {
                continue;
            }
            let reliable_transmitting = dual
                .g_neighbors(u)
                .iter()
                .filter(|v| actions[v.index()].is_transmit())
                .count();
            if reliable_transmitting != 1 {
                continue;
            }
            if let Some(&blocker) = transmitters
                .iter()
                .find(|&&t| dual.g_prime().has_edge(u, t) && !dual.g().has_edge(u, t))
            {
                active.push(Edge::new(u, blocker));
            }
        }
        active.sort_unstable();
        active.dedup();
        LinkDecision::from_edges(active)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn decisions_match_the_list_reference(dual in arb_small_dual(), seed in any::<u64>()) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = dual.len();
            let msg = Message::plain(NodeId::new(0), DATA, 0);
            for layout in [GraphBackend::Dense, GraphBackend::Csr] {
                let dual = Arc::new(dual.with_graph_backend(layout));
                let (_, factory, assignment) = setup_ctx(&dual);
                let setup = AdversarySetup {
                    dual: &dual,
                    factory: &factory,
                    assignment: &assignment,
                    horizon: 10,
                };
                // Every node protected, a random subset (with a node past
                // the network), and the empty list, which protects all.
                let subset: Vec<NodeId> = NodeId::all(n + 1).filter(|_| rng.gen_bool(0.5)).collect();
                let attackers = [
                    OmniscientOffline::new(),
                    OmniscientOffline::protecting(subset),
                    OmniscientOffline::protecting(Vec::new()),
                ];
                for mut attacker in attackers {
                    attacker.on_start(&setup, &mut rng);
                    for round in 0..8 {
                        // Nobody, one node in expectation, or a share of
                        // the network transmits.
                        let density = [0.0, 1.0 / n as f64, 0.1, 0.5, 0.9][round % 5];
                        let actions: Vec<Action> = (0..n)
                            .map(|_| {
                                if rng.gen_bool(density) {
                                    Action::Transmit(msg.clone())
                                } else {
                                    Action::Listen
                                }
                            })
                            .collect();
                        let view = AdversaryView::new(Round::new(round), n, None, None, Some(&actions));
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

    #[test]
    fn blocks_a_lone_reliable_delivery_when_a_second_transmitter_exists() {
        // Dual clique n = 4: A = {0,1}, B = {2,3}, bridge (0,2).
        // Node 1 transmits (reliable neighbor of 0); node 3 transmits too.
        // Node 0 would hear node 1; the attacker links 0-3 to collide.
        let dual = topology::dual_clique(4).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let mut a = OmniscientOffline::new();
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 5,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        a.on_start(&setup, &mut rng);

        let msg = Message::plain(NodeId::new(1), DATA, 0);
        let actions = vec![
            Action::Listen,
            Action::Transmit(msg.clone()),
            Action::Listen,
            Action::Transmit(msg),
        ];
        let view = AdversaryView::new(Round::ZERO, 4, None, None, Some(&actions));
        let decision = a.decide(&view, &mut rng);
        // Node 0 gets a blocking edge to node 3; node 2's reliable neighbors
        // in A... node 2's G-neighbors are {3, 0-bridge}; 3 transmits so
        // reliable count = 1 → blocked via an edge to node 1.
        assert!(decision
            .edges()
            .contains(&Edge::new(NodeId::new(0), NodeId::new(3))));
        assert!(!decision.is_empty());
    }

    #[test]
    fn cannot_block_a_globally_lone_transmitter() {
        let dual = topology::dual_clique(4).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let mut a = OmniscientOffline::new();
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 5,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        a.on_start(&setup, &mut rng);
        let msg = Message::plain(NodeId::new(1), DATA, 0);
        let actions = vec![
            Action::Listen,
            Action::Transmit(msg),
            Action::Listen,
            Action::Listen,
        ];
        let view = AdversaryView::new(Round::ZERO, 4, None, None, Some(&actions));
        assert!(a.decide(&view, &mut rng).is_empty());
    }

    #[test]
    fn protecting_a_subset_leaves_other_nodes_alone() {
        let dual = topology::dual_clique(8).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        // Protect only side B (nodes 4..8).
        let protected: Vec<NodeId> = (4..8).map(NodeId::new).collect();
        let mut a = OmniscientOffline::protecting(protected.clone());
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 5,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        a.on_start(&setup, &mut rng);
        let msg = Message::plain(NodeId::new(1), DATA, 0);
        // Nodes 1 and 2 (side A) transmit.
        let mut actions = vec![Action::Listen; 8];
        actions[1] = Action::Transmit(msg.clone());
        actions[2] = Action::Transmit(msg);
        let view = AdversaryView::new(Round::ZERO, 8, None, None, Some(&actions));
        let decision = a.decide(&view, &mut rng);
        // Every activated edge must touch a protected node.
        for e in decision.edges() {
            let (u, v) = e.endpoints();
            assert!(protected.contains(&u) || protected.contains(&v));
        }
    }

    #[test]
    fn starves_the_far_clique_under_a_randomized_flooder() {
        // With many side-A broadcasters transmitting randomly, the attacker
        // keeps side B uninformed for a long horizon (the Omega(n) dynamic).
        let n = 24;
        let dual = topology::dual_clique(n).unwrap();
        let broadcasters: Vec<NodeId> = (0..n / 2).map(NodeId::new).collect();
        let outcome = Simulator::new(
            dual,
            talker_factory(0.3),
            Assignment::local(n, &broadcasters),
            Box::new(OmniscientOffline::new()),
            SimConfig::default().with_seed(7).with_max_rounds(60),
        )
        .unwrap()
        .run(StopCondition::max_rounds());
        // Nodes of side B other than the bridge endpoint stay uninformed: the
        // attacker blocks every delivery that has an alternative transmitter.
        let starved = ((n / 2 + 1)..n)
            .filter(|&b| !outcome.history.received_any(NodeId::new(b)))
            .count();
        assert!(
            starved >= n / 2 - 2,
            "most of side B should be starved, {starved} were"
        );
    }

    #[test]
    fn without_action_visibility_it_does_nothing() {
        let dual = topology::dual_clique(6).unwrap();
        let outcome = run_with_beacon(&dual, Box::new(OmniscientOffline::new()), 5, 3);
        // It still runs (class OfflineAdaptive gives it actions inside the
        // engine), so the only check here is that the direct call without
        // actions is a no-op.
        assert!(outcome.rounds_executed == 5);
        let mut a = OmniscientOffline::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let view = AdversaryView::new(Round::ZERO, 6, None, None, None);
        assert!(a.decide(&view, &mut rng).is_empty());
        assert_eq!(a.class(), AdversaryClass::OfflineAdaptive);
    }
}
