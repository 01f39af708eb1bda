//! The schedule-aware oblivious attack on fixed-order Decay.
//!
//! Section 4.1 of the paper observes that the classic Decay subroutine "can
//! be attacked by an oblivious adversary because the fixed schedule of
//! broadcast probabilities allows it to calculate in advance the expected
//! broadcast behaviour, and choose dynamic link behaviour accordingly". This
//! link process implements that attack.
//!
//! It knows (from the algorithm description) that in round `r` every message
//! holder transmits with probability `2^{-level(r)}` where
//! `level(r) = (r mod L) + 1` is the *fixed* decay schedule. For every
//! potential receiver `u` it therefore chooses how many of `u`'s grey-zone
//! (dynamic) broadcaster links to activate so that the expected number of
//! transmitting neighbors of `u` is pushed far away from 1:
//!
//! * if enough broadcasters are reachable it activates enough of them that
//!   the expected count is ≥ `overload` (default 4), making a collision
//!   overwhelmingly likely;
//! * otherwise it activates none, leaving only the reliable neighbors, whose
//!   expected count at this level is far below 1 — the rare lone transmission
//!   is the only leak.
//!
//! Against *Permuted* Decay the same adversary misjudges which level each
//! round uses (the permutation bits are generated after it committed), so
//! the mismatch fails and Lemma 4.2 applies. Experiment E8 measures exactly
//! this gap.

use std::sync::Arc;

use dradio_graphs::{DualGraph, NodeId};
use dradio_sim::process::log2_ceil;
use dradio_sim::{AdversaryClass, AdversarySetup, AdversaryView, LinkDecision, LinkProcess, Role};
use rand::RngCore;

/// The schedule-aware oblivious attacker on fixed-order Decay.
#[derive(Debug, Clone)]
pub struct DecayAwareOblivious {
    /// Number of decay levels the victim algorithm cycles through.
    levels: usize,
    /// Target expected number of transmitting neighbors when overloading.
    overload: f64,
    /// Nodes the attacker assumes may transmit (its model of the informed
    /// set); `None` means it is derived from the role assignment at
    /// `on_start`.
    assumed_transmitters: Option<Vec<NodeId>>,
    /// The network under attack, from `on_start`.
    dual: Option<Arc<DualGraph>>,
    /// Per-node flag: may this node transmit (rebuilt by `on_start`).
    broadcasters: Vec<bool>,
    /// Receiver `u`'s dynamic links to a broadcaster, as canonical
    /// dynamic-edge indices: `grey[grey_offsets[u]..grey_offsets[u + 1]]`.
    grey: Vec<u32>,
    grey_offsets: Vec<usize>,
    /// Per-receiver count of reliable broadcaster neighbors.
    reliable_broadcasters: Vec<usize>,
    /// The dynamic edges chosen in the current round, one bit per canonical
    /// index; all zero between rounds.
    chosen: Vec<u64>,
}

impl DecayAwareOblivious {
    /// Creates the attacker assuming the victim cycles through `levels` decay
    /// probabilities (use `⌈log₂ n⌉` for the global algorithms and
    /// `⌈log₂ Δ⌉ + 1` for the local ones).
    pub fn new(levels: usize) -> Self {
        DecayAwareOblivious {
            levels: levels.max(1),
            overload: 4.0,
            assumed_transmitters: None,
            dual: None,
            broadcasters: Vec::new(),
            grey: Vec::new(),
            grey_offsets: Vec::new(),
            reliable_broadcasters: Vec::new(),
            chosen: Vec::new(),
        }
    }

    /// Creates the attacker sized for a network of `n` nodes (matching the
    /// global broadcast algorithms' `⌈log₂ n⌉` levels).
    pub fn for_network(n: usize) -> Self {
        DecayAwareOblivious::new(log2_ceil(n).max(1))
    }

    /// Sets the expected-transmitter target used when overloading a receiver
    /// (default 4).
    pub fn with_overload(mut self, overload: f64) -> Self {
        self.overload = overload.max(1.0);
        self
    }

    /// Fixes the attacker's model of *which nodes may transmit*.
    ///
    /// An oblivious adversary knows the topology and the algorithm, so it may
    /// reason about which nodes can plausibly hold the message: for a global
    /// broadcast on the dual clique, for example, the source's side of the
    /// clique informs itself almost immediately while the far side stays
    /// silent until the bridge carries the message across. Feeding that
    /// prediction in sharpens the attack considerably (and is exactly the
    /// kind of reasoning the paper's Section 4.1 attack sketch performs).
    pub fn assuming_transmitters(mut self, nodes: Vec<NodeId>) -> Self {
        self.assumed_transmitters = Some(nodes);
        self
    }

    /// The fixed decay probability the attacker assumes for round `r`.
    pub fn assumed_probability(&self, round: usize) -> f64 {
        0.5f64.powi(((round % self.levels) + 1).min(1024) as i32)
    }

    /// Indexes, per receiver, its reliable broadcaster neighbors (counted)
    /// and its grey links to broadcasters (as canonical indices), into the
    /// reused vectors.
    fn index_broadcasters(&mut self, dual: &DualGraph) {
        let index = dual.dynamic_index();
        let broadcasters = &self.broadcasters;
        self.grey.clear();
        self.grey_offsets.clear();
        self.grey_offsets.push(0);
        self.reliable_broadcasters.clear();
        for u in NodeId::all(dual.len()) {
            self.reliable_broadcasters.push(
                dual.g_neighbors(u)
                    .iter()
                    .filter(|v| broadcasters[v.index()])
                    .count(),
            );
            self.grey.extend(
                index
                    .incident(u)
                    .iter()
                    .filter(|&&(v, _)| broadcasters[v as usize])
                    .map(|&(_, k)| k),
            );
            self.grey_offsets.push(self.grey.len());
        }
        self.chosen.clear();
        self.chosen.resize(index.len().div_ceil(64), 0);
    }
}

impl LinkProcess for DecayAwareOblivious {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        // The oblivious adversary knows the algorithm and the problem roles.
        // For a *local* broadcast problem the potential transmitters are the
        // broadcaster set; for a *global* broadcast (flooding) problem every
        // node may eventually hold and relay the message, so every node is a
        // potential transmitter.
        let n = setup.dual.len();
        self.broadcasters.clear();
        match &self.assumed_transmitters {
            Some(nodes) => {
                self.broadcasters.resize(n, false);
                for u in nodes {
                    if u.index() < n {
                        self.broadcasters[u.index()] = true;
                    }
                }
            }
            None => {
                let is_global = setup
                    .assignment
                    .iter()
                    .any(|(_, role)| role == Role::Source);
                self.broadcasters.extend(
                    setup
                        .assignment
                        .iter()
                        .map(|(_, role)| is_global || role == Role::Broadcaster),
                );
                if !self.broadcasters.contains(&true) {
                    self.broadcasters.fill(true);
                }
            }
        }
        self.index_broadcasters(setup.dual);
        self.dual = Some(Arc::clone(setup.dual));
    }

    fn decide(&mut self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> LinkDecision {
        let Some(dual) = &self.dual else {
            return LinkDecision::none();
        };
        let p = self.assumed_probability(view.round().index());
        let mut chosen = 0usize;
        for (u, bounds) in self.grey_offsets.windows(2).enumerate() {
            let reliable = self.reliable_broadcasters[u] as f64;
            let grey = &self.grey[bounds[0]..bounds[1]];
            if grey.is_empty() {
                continue;
            }
            if reliable == 0.0 {
                // A receiver with no reliable transmitter neighbor can only
                // ever hear through grey links the attacker controls;
                // activating none starves it completely, which is strictly
                // better for the attacker than any overloading gamble.
                continue;
            }
            if reliable * p >= self.overload {
                // The reliable neighbors alone already overload the receiver.
                continue;
            }
            // Either saturate the neighborhood (expected transmitters well
            // above 1, so a collision is near-certain) or leave it untouched
            // (the reliable neighbors alone have expectation far below 1, so
            // the only leak is the rare lone transmission). Anything in
            // between would bring the expectation closer to 1 and *help* the
            // algorithm.
            if (reliable + grey.len() as f64) * p >= self.overload {
                for &k in grey {
                    let (word, bit) = (k as usize / 64, 1u64 << (k % 64));
                    chosen += usize::from(self.chosen[word] & bit == 0);
                    self.chosen[word] |= bit;
                }
            }
        }
        // Each chosen edge once, in canonical order (which is edge order).
        let edges = dual.dynamic_index().edges();
        if chosen == 0 {
            LinkDecision::none()
        } else if chosen == edges.len() {
            self.chosen.fill(0);
            LinkDecision::all_dynamic(dual)
        } else {
            let mut active = Vec::with_capacity(chosen);
            for (w, word) in self.chosen.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    active.push(edges[w * 64 + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
            LinkDecision::from_edges(active)
        }
    }

    fn reset(&mut self) -> bool {
        // The network, the broadcaster flags and both per-receiver indexes
        // are rebuilt by `on_start`, and `decide` leaves no edge chosen; the
        // attack parameters are immutable.
        true
    }

    fn name(&self) -> &'static str {
        "decay-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{setup_ctx, talker_factory};
    use dradio_graphs::{topology, Edge};
    use dradio_sim::{AdversarySetup, Assignment, Round};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The attack as first written: per-receiver lists of grey broadcaster
    /// edges found by edge queries, concatenated, sorted and deduplicated
    /// every round.
    struct Reference {
        attacker: DecayAwareOblivious,
        grey: Vec<Vec<Edge>>,
        reliable: Vec<usize>,
    }

    impl Reference {
        fn new(attacker: &DecayAwareOblivious, dual: &DualGraph, broadcasters: &[bool]) -> Self {
            let n = dual.len();
            let mut grey = vec![Vec::new(); n];
            let mut reliable = vec![0; n];
            for u in NodeId::all(n) {
                reliable[u.index()] = dual
                    .g_neighbors(u)
                    .iter()
                    .filter(|v| broadcasters[v.index()])
                    .count();
                for &v in dual.g_prime_neighbors(u) {
                    if broadcasters[v.index()] && !dual.g().has_edge(u, v) {
                        grey[u.index()].push(Edge::new(u, v));
                    }
                }
            }
            Reference {
                attacker: attacker.clone(),
                grey,
                reliable,
            }
        }

        fn decide(&self, round: usize) -> Vec<Edge> {
            let p = self.attacker.assumed_probability(round);
            let overload = self.attacker.overload;
            let mut active = Vec::new();
            for (grey, &reliable) in self.grey.iter().zip(&self.reliable) {
                let reliable = reliable as f64;
                if grey.is_empty() || reliable == 0.0 || reliable * p >= overload {
                    continue;
                }
                if (reliable + grey.len() as f64) * p >= overload {
                    active.extend_from_slice(grey);
                }
            }
            active.sort_unstable();
            active.dedup();
            active
        }
    }

    #[test]
    fn decisions_match_the_sorting_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let random =
            topology::random_geometric(&topology::GeometricConfig::new(120, 6.0, 1.8), &mut rng)
                .unwrap();
        let networks = [
            topology::grid_geometric(7, 6, 1.0, 1.5).unwrap(),
            topology::dual_clique(16).unwrap(),
            topology::dual_clique(64).unwrap(),
            random,
        ];
        let (mut all_dynamic_rounds, mut near_misses) = (0, 0);
        for dual in networks {
            let dual = Arc::new(dual);
            let n = dual.len();
            let evens: Vec<NodeId> = NodeId::all(n).filter(|u| u.index() % 2 == 0).collect();
            let half: Vec<NodeId> = NodeId::all(n / 2).collect();
            // Each assignment with the transmitters it implies: every node
            // for a global problem or one without broadcasters, else the
            // broadcasters.
            let assignments = [
                (Assignment::global(n, NodeId::new(0)), vec![true; n]),
                (
                    Assignment::local(n, &evens),
                    NodeId::all(n).map(|u| u.index() % 2 == 0).collect(),
                ),
                (Assignment::relays(n), vec![true; n]),
            ];
            let mut cases: Vec<(DecayAwareOblivious, &Assignment, Vec<bool>)> = assignments
                .iter()
                .map(|(assignment, derived)| {
                    let attacker = DecayAwareOblivious::for_network(n);
                    (attacker, assignment, derived.clone())
                })
                .collect();
            // Assumed sets: one reaching past the network (ignored there),
            // and one leaving out both ends of a dual clique's dynamic edge
            // (0, n − 1), which no round can then choose.
            let ends: Vec<NodeId> = NodeId::all(n)
                .filter(|u| ![0, n - 1].contains(&u.index()))
                .collect();
            for nodes in [half.clone(), vec![NodeId::new(1), NodeId::new(n + 5)], ends] {
                let flags = NodeId::all(n).map(|u| nodes.contains(&u)).collect();
                let attacker = DecayAwareOblivious::new(5)
                    .with_overload(2.5)
                    .assuming_transmitters(nodes);
                cases.push((attacker, &assignments[0].0, flags));
            }
            for (attacker, assignment, broadcasters) in cases {
                let reference = Reference::new(&attacker, &dual, &broadcasters);
                let mut attacker = attacker;
                let factory = talker_factory(0.3);
                let setup = AdversarySetup {
                    dual: &dual,
                    factory: &factory,
                    assignment,
                    horizon: 100,
                };
                // Two executions through one reused attacker.
                for _ in 0..2 {
                    attacker.on_start(&setup, &mut rng);
                    for r in 0..3 * attacker.levels {
                        let view = AdversaryView::new(Round::new(r), n, None, None, None);
                        let decision = attacker.decide(&view, &mut rng);
                        let expected = reference.decide(r);
                        assert_eq!(decision.edges(), expected, "{} round {r}", dual.name());
                        let every =
                            !expected.is_empty() && expected.len() == dual.dynamic_index().len();
                        assert_eq!(decision.is_all_dynamic_of(&dual), every, "round {r}");
                        all_dynamic_rounds += usize::from(every);
                        near_misses +=
                            usize::from(expected.len() + 1 == dual.dynamic_index().len());
                    }
                }
            }
        }
        assert!(
            all_dynamic_rounds > 0,
            "some round chooses every dynamic edge"
        );
        assert!(
            near_misses > 0,
            "some round chooses all dynamic edges but one"
        );
    }

    #[test]
    fn assumed_probability_follows_fixed_schedule() {
        let a = DecayAwareOblivious::new(4);
        assert!((a.assumed_probability(0) - 0.5).abs() < 1e-12);
        assert!((a.assumed_probability(3) - 1.0 / 16.0).abs() < 1e-12);
        assert!((a.assumed_probability(4) - 0.5).abs() < 1e-12);
        assert_eq!(DecayAwareOblivious::for_network(256).levels, 8);
    }

    #[test]
    fn overload_is_clamped() {
        let a = DecayAwareOblivious::new(4).with_overload(0.1);
        assert!(a.overload >= 1.0);
    }

    #[test]
    fn activates_more_links_in_high_probability_rounds() {
        // Grid-geometric network: grey-zone diagonal links exist. In a round
        // with probability 1/2 the attacker needs ~8 transmitters per
        // receiver (overload 4), so it activates many grey links; in a deep
        // level round it activates none.
        let dual = topology::grid_geometric(6, 6, 1.0, 1.4).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let mut attacker = DecayAwareOblivious::for_network(dual.len());
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 100,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        attacker.on_start(&setup, &mut rng);

        let levels = attacker.levels;
        let high = attacker.decide(
            &AdversaryView::new(Round::new(0), dual.len(), None, None, None),
            &mut rng,
        );
        let deep = attacker.decide(
            &AdversaryView::new(Round::new(levels - 1), dual.len(), None, None, None),
            &mut rng,
        );
        assert!(high.len() >= deep.len());
    }

    #[test]
    fn activated_edges_are_genuine_dynamic_edges() {
        let dual = topology::grid_geometric(5, 5, 1.0, 1.4).unwrap();
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let mut attacker = DecayAwareOblivious::for_network(dual.len());
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 100,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        attacker.on_start(&setup, &mut rng);
        for r in 0..10 {
            let decision = attacker.decide(
                &AdversaryView::new(Round::new(r), dual.len(), None, None, None),
                &mut rng,
            );
            for e in decision.edges() {
                let (u, v) = e.endpoints();
                assert!(dual.g_prime().has_edge(u, v));
                assert!(!dual.g().has_edge(u, v));
            }
        }
    }

    #[test]
    fn no_grey_links_means_no_decisions() {
        // A static network has no dynamic edges at all.
        let dual = topology::clique(8);
        let (dual_clone, factory, assignment) = setup_ctx(&dual);
        let mut attacker = DecayAwareOblivious::for_network(8);
        let setup = AdversarySetup {
            dual: &dual_clone,
            factory: &factory,
            assignment: &assignment,
            horizon: 10,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        attacker.on_start(&setup, &mut rng);
        for r in 0..5 {
            assert!(attacker
                .decide(
                    &AdversaryView::new(Round::new(r), 8, None, None, None),
                    &mut rng
                )
                .is_empty());
        }
    }
}
