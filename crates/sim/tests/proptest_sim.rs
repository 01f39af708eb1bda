//! Property-based tests for the execution engine: reception-rule invariants,
//! determinism, and history consistency.

use std::sync::Arc;

use dradio_graphs::topology::{self, GeometricConfig};
use dradio_graphs::{DualGraph, GraphBackend, NodeId};
use dradio_sim::sampling::bernoulli;
use dradio_sim::{
    Action, AdversaryClass, AdversarySetup, AdversaryView, Assignment, ExecutionOutcome,
    LinkDecision, LinkProcess, Message, MessageKind, Process, ProcessContext, ProcessFactory, Role,
    Round, SimConfig, Simulator, StaticLinks, StopCondition,
};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DATA: MessageKind = MessageKind::new(1);

/// A process that transmits with a fixed probability every round; sources and
/// broadcasters use probability `p`, relays stay silent.
struct RandomTalker {
    p: f64,
    msg: Option<Message>,
}

impl Process for RandomTalker {
    fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.msg {
            Some(m) if (rng.next_u64() as f64 / u64::MAX as f64) < self.p => {
                Action::Transmit(m.clone())
            }
            _ => Action::Listen,
        }
    }
    fn transmit_probability(&self, _round: Round) -> f64 {
        if self.msg.is_some() {
            self.p
        } else {
            0.0
        }
    }
}

fn talker_factory(p: f64) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| {
        let msg =
            (ctx.role != Role::Relay).then(|| Message::plain(ctx.id, DATA, ctx.id.index() as u64));
        Box::new(RandomTalker { p, msg }) as Box<dyn Process>
    })
}

/// Strategy over small networks of various shapes.
fn arb_network() -> impl Strategy<Value = DualGraph> {
    prop_oneof![
        (4usize..20).prop_map(|n| topology::dual_clique(2 * (n / 2).max(2)).unwrap()),
        (3usize..20).prop_map(|n| topology::line(n).unwrap()),
        (3usize..12).prop_map(|n| topology::star(n).unwrap()),
        (2usize..5).prop_map(|k| topology::bracelet(k).unwrap().into_dual()),
        (10usize..40, 0u64..100).prop_map(|(n, seed)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            topology::random_geometric(&GeometricConfig::new(n, 3.0, 1.5), &mut rng)
                .unwrap_or_else(|_| topology::line(n).unwrap())
        }),
    ]
}

/// [`arb_network`], plus dual cliques and random geometric networks whose
/// adjacency rows span two or three 64-bit words.
fn arb_wide_network() -> impl Strategy<Value = DualGraph> {
    prop_oneof![
        arb_network(),
        (33usize..80).prop_map(|half| topology::dual_clique(2 * half).unwrap()),
        (65usize..180, 0u64..100).prop_map(|(n, seed)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let side = (n as f64 / 3.0).sqrt();
            topology::random_geometric(&GeometricConfig::new(n, side, 1.5), &mut rng)
                .unwrap_or_else(|_| topology::line(n).unwrap())
        }),
    ]
}

/// Every node transmits its own message with probability `lo` in even
/// rounds and `hi` in odd ones, so short rounds (a few transmitters,
/// which reception pushes) alternate with crowded ones (which reception
/// pulls once the transmitters' rows reach every node).
struct Alternating {
    lo: f64,
    hi: f64,
    msg: Message,
}

impl Process for Alternating {
    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        let p = if round.index().is_multiple_of(2) {
            self.lo
        } else {
            self.hi
        };
        if bernoulli(rng, p) {
            Action::Transmit(self.msg.clone())
        } else {
            Action::Listen
        }
    }
}

/// An oblivious link process that lists a random half of the dynamic
/// edges each round, drawn from its own stream.
#[derive(Default)]
struct SubsetLinks(Option<Arc<DualGraph>>);

impl LinkProcess for SubsetLinks {
    fn class(&self) -> AdversaryClass {
        AdversaryClass::Oblivious
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, _rng: &mut dyn RngCore) {
        self.0 = Some(Arc::clone(setup.dual));
    }

    fn decide(&mut self, _view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        let Some(dual) = &self.0 else {
            return LinkDecision::none();
        };
        let edges = dual.dynamic_edges().iter().copied();
        LinkDecision::from_edges(edges.filter(|_| rng.next_u32() & 1 == 1).collect())
    }
}

/// Runs [`Alternating`] talkers on every node for 12 recorded rounds, with
/// no (`links == 0`), every (`1`) or a random listed half (`2`) of the
/// dynamic edges on.
fn run_alternating(dual: DualGraph, lo: f64, hi: f64, seed: u64, links: u8) -> ExecutionOutcome {
    let n = dual.len();
    let factory: ProcessFactory = Arc::new(move |ctx: &ProcessContext| {
        let msg = Message::plain(ctx.id, DATA, ctx.id.index() as u64);
        Box::new(Alternating { lo, hi, msg }) as Box<dyn Process>
    });
    let link: Box<dyn LinkProcess> = match links {
        0 => Box::new(StaticLinks::none()),
        1 => Box::new(StaticLinks::all()),
        _ => Box::<SubsetLinks>::default(),
    };
    Simulator::new(
        dual,
        factory,
        Assignment::relays(n),
        link,
        SimConfig::default().with_seed(seed).with_max_rounds(12),
    )
    .expect("valid simulation")
    .run(StopCondition::max_rounds())
}

fn run(
    dual: DualGraph,
    p: f64,
    seed: u64,
    rounds: usize,
    all_links: bool,
) -> dradio_sim::ExecutionOutcome {
    let n = dual.len();
    let broadcasters: Vec<NodeId> = NodeId::all(n).filter(|u| u.index() % 2 == 0).collect();
    let assignment = Assignment::local(n, &broadcasters);
    let link: Box<dyn dradio_sim::LinkProcess> = if all_links {
        Box::new(StaticLinks::all())
    } else {
        Box::new(StaticLinks::none())
    };
    Simulator::new(
        dual,
        talker_factory(p),
        assignment,
        link,
        SimConfig::default().with_seed(seed).with_max_rounds(rounds),
    )
    .expect("valid simulation")
    .run(StopCondition::max_rounds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The collision rule, both ways: in every round, the deliveries are
    /// exactly the listeners with one transmitting neighbour in the round
    /// topology (`G` plus the round's active dynamic edges), each from that
    /// neighbour, and the collisions are exactly the listeners with two or
    /// more. The network runs in both layouts, which must agree outcome for
    /// outcome, under no, all, or a random listed subset of its dynamic
    /// edges; the alternating transmit probabilities mix pushed and pulled
    /// rounds within one execution.
    #[test]
    fn deliveries_respect_collision_rule(
        dual in arb_wide_network(),
        seed in 0u64..1000,
        lo in 0.0f64..0.15,
        hi in 0.3f64..0.9,
        links in 0u8..3,
    ) {
        let n = dual.len();
        let dense = run_alternating(dual.with_graph_backend(GraphBackend::Dense), lo, hi, seed, links);
        let csr = run_alternating(dual.with_graph_backend(GraphBackend::Csr), lo, hi, seed, links);
        prop_assert_eq!(&dense, &csr, "the two layouts disagree");
        let records = dense.history.records();
        prop_assert_eq!(records.len(), 12);
        prop_assert_eq!(dense.collisions_per_round.len(), 12);
        for (record, &collisions) in records.iter().zip(&dense.collisions_per_round) {
            let transmits = |v: NodeId| record.transmitters.binary_search(&v).is_ok();
            // Each listener's transmitting neighbours in the round topology.
            let mut senders: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for u in NodeId::all(n).filter(|&u| !transmits(u)) {
                senders[u.index()].extend(dual.g().neighbors(u).iter().filter(|&&v| transmits(v)));
            }
            for edge in &record.active_dynamic_edges {
                let (a, b) = edge.endpoints();
                prop_assert!(dual.g_prime().has_edge(a, b) && !dual.g().has_edge(a, b));
                match (transmits(a), transmits(b)) {
                    (true, false) => senders[b.index()].push(a),
                    (false, true) => senders[a.index()].push(b),
                    _ => {}
                }
            }
            let want: Vec<(NodeId, NodeId)> = NodeId::all(n)
                .filter(|u| senders[u.index()].len() == 1)
                .map(|u| (u, senders[u.index()][0]))
                .collect();
            let got: Vec<(NodeId, NodeId)> =
                record.deliveries.iter().map(|d| (d.receiver, d.sender)).collect();
            prop_assert_eq!(got, want, "round {}", record.round);
            for d in &record.deliveries {
                prop_assert_eq!(d.message.source(), d.sender);
            }
            let colliding = senders.iter().filter(|s| s.len() >= 2).count();
            prop_assert_eq!(collisions, colliding, "round {}", record.round);
        }
        prop_assert_eq!(dense.metrics.collisions, dense.collisions_per_round.iter().sum::<usize>());
    }

    /// Identical seeds give identical executions; different seeds are allowed
    /// to differ (and usually do, but we do not assert that).
    #[test]
    fn executions_are_deterministic(
        dual in arb_network(),
        seed in 0u64..1000,
        p in 0.1f64..0.9,
    ) {
        let a = run(dual.clone(), p, seed, 10, true);
        let b = run(dual, p, seed, 10, true);
        prop_assert_eq!(a.history, b.history);
        prop_assert_eq!(a.metrics, b.metrics);
    }

    /// Metrics agree with the recorded history.
    #[test]
    fn metrics_match_history(
        dual in arb_network(),
        seed in 0u64..1000,
        p in 0.05f64..0.9,
    ) {
        let outcome = run(dual, p, seed, 15, false);
        let tx_from_history: usize = outcome.history.records().iter().map(|r| r.transmitters.len()).sum();
        let rx_from_history: usize = outcome.history.records().iter().map(|r| r.deliveries.len()).sum();
        prop_assert_eq!(outcome.metrics.transmissions, tx_from_history);
        prop_assert_eq!(outcome.metrics.deliveries, rx_from_history);
        prop_assert_eq!(outcome.metrics.rounds, outcome.history.len());
        prop_assert_eq!(outcome.history.total_deliveries(), rx_from_history);
    }

    /// With the `StaticLinks::none()` adversary the round topology never
    /// contains dynamic edges; with `StaticLinks::all()` it contains all of
    /// them in every round.
    #[test]
    fn static_link_processes_are_constant(
        dual in arb_network(),
        seed in 0u64..500,
    ) {
        let none = run(dual.clone(), 0.5, seed, 5, false);
        for record in none.history.records() {
            prop_assert!(record.active_dynamic_edges.is_empty());
        }
        let expected = dual.dynamic_edges().len();
        let all = run(dual, 0.5, seed, 5, true);
        for record in all.history.records() {
            prop_assert_eq!(record.active_dynamic_edges.len(), expected);
        }
    }

    /// Random bit strings round-trip through readers: reading `len` bits one
    /// at a time reproduces the string.
    #[test]
    fn bitstring_reader_round_trip(len in 0usize..300, seed in 0u64..1000) {
        let bits = dradio_sim::BitString::random(len, &mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert_eq!(bits.len(), len);
        let mut reader = bits.reader();
        let mut collected = Vec::with_capacity(len);
        while let Some(b) = reader.take(1) {
            collected.push(b == 1);
        }
        prop_assert_eq!(collected.len(), len);
        let rebuilt = dradio_sim::BitString::from_bools(collected);
        prop_assert_eq!(rebuilt, bits);
    }

    /// A lone broadcaster in a static star delivers to every leaf in one
    /// round regardless of the seed (sanity anchor for the collision rule).
    #[test]
    fn lone_transmitter_always_delivers(n in 3usize..12, seed in 0u64..200) {
        let dual = topology::star(n).unwrap();
        let assignment = Assignment::local(n, &[NodeId::new(1)]);
        let outcome = Simulator::new(
            dual,
            talker_factory(1.0),
            assignment,
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(seed).with_max_rounds(1),
        )
        .unwrap()
        .run(StopCondition::max_rounds());
        // Leaf 1 transmits every round; only the hub is its neighbor.
        prop_assert!(outcome.history.received_kind(NodeId::new(0), DATA));
        prop_assert_eq!(outcome.metrics.deliveries, 1);
    }

    /// Sampling determinism for the random talker factory: the declared
    /// transmit probability matches empirical behaviour within a loose bound.
    #[test]
    fn transmit_probability_matches_behaviour(seed in 0u64..50) {
        let p = 0.3;
        let dual = topology::line(2).unwrap();
        let assignment = Assignment::local(2, &[NodeId::new(0)]);
        let rounds = 400;
        let outcome = Simulator::new(
            dual,
            talker_factory(p),
            assignment,
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(seed).with_max_rounds(rounds),
        )
        .unwrap()
        .run(StopCondition::max_rounds());
        let tx = outcome.history.transmissions_of(NodeId::new(0)) as f64;
        let rate = tx / rounds as f64;
        prop_assert!((rate - p).abs() < 0.12, "empirical rate {rate} too far from {p}");
    }
}

/// Non-proptest integration check: a deterministic relay chain floods a line
/// in exactly `n - 1` rounds under the static model.
#[test]
fn relay_chain_floods_line() {
    struct Relay {
        have: Option<Message>,
        sent: bool,
    }
    impl Process for Relay {
        fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
            match (&self.have, self.sent) {
                (Some(m), false) => {
                    self.sent = true;
                    Action::Transmit(m.clone())
                }
                _ => Action::Listen,
            }
        }
        fn on_feedback(
            &mut self,
            _round: Round,
            feedback: &dradio_sim::Feedback,
            _rng: &mut dyn RngCore,
        ) {
            if let Some(m) = feedback.message() {
                if self.have.is_none() {
                    self.have = Some(m.clone());
                }
            }
        }
        fn is_informed(&self) -> bool {
            self.have.is_some()
        }
    }

    let n = 12;
    let factory: ProcessFactory = Arc::new(|ctx: &ProcessContext| {
        let have = (ctx.role == Role::Source).then(|| Message::plain(ctx.id, DATA, 0));
        Box::new(Relay { have, sent: false }) as Box<dyn Process>
    });
    let dual = topology::line(n).unwrap();
    let outcome = Simulator::new(
        dual,
        factory,
        Assignment::global(n, NodeId::new(0)),
        Box::new(StaticLinks::none()),
        SimConfig::default().with_max_rounds(100),
    )
    .unwrap()
    .run(StopCondition::global_broadcast(DATA, NodeId::new(0)));
    assert!(outcome.completed);
    // The message advances one hop per round along the line.
    assert_eq!(outcome.cost(), n - 1);
}

/// The per-node random streams really are independent of the master stream
/// order: changing one node's behaviour does not perturb another node's coin
/// sequence (regression guard for seed derivation).
#[test]
fn per_node_streams_are_stable() {
    let dual = topology::line(3).unwrap();
    let run_with = |p: f64| {
        let factory = talker_factory(p);
        Simulator::new(
            dual.clone(),
            factory,
            Assignment::local(3, &[NodeId::new(0), NodeId::new(2)]),
            Box::new(StaticLinks::none()),
            SimConfig::default().with_seed(11).with_max_rounds(50),
        )
        .unwrap()
        .run(StopCondition::max_rounds())
    };
    let a = run_with(0.5);
    let b = run_with(0.5);
    assert_eq!(a.history, b.history);
    // A hygiene check on the seed derivation itself.
    let mut r0 = ChaCha8Rng::seed_from_u64(1);
    let mut r1 = ChaCha8Rng::seed_from_u64(2);
    assert_ne!(r0.gen::<u64>(), r1.gen::<u64>());
}
