//! Shared fixtures for adversary unit tests.

// lint: allow-file(D4) -- compiled only for unit tests, whose fixtures are
// fixed known-good networks; a broken fixture should fail the test loudly

use std::sync::Arc;

use dradio_graphs::topology::{self, GeometricConfig};
use dradio_graphs::{DualGraph, Graph, NodeId};
use dradio_sim::sampling::bernoulli;
use dradio_sim::{
    Action, Assignment, Delivery, ExecutionOutcome, History, LinkProcess, Message, MessageKind,
    Process, ProcessContext, ProcessFactory, Role, Round, RoundRecord, SimConfig, Simulator,
    StopCondition,
};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub const DATA: MessageKind = MessageKind::new(1);

/// A process that transmits a payload with fixed probability every round
/// (broadcasters and sources only).
pub struct Talker {
    p: f64,
    msg: Option<Message>,
}

impl Process for Talker {
    fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
        match &self.msg {
            Some(m) if bernoulli(rng, self.p) => Action::Transmit(m.clone()),
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
    fn name(&self) -> &'static str {
        "talker"
    }
}

/// Factory for [`Talker`] processes with probability `p`.
pub fn talker_factory(p: f64) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| {
        let msg =
            (ctx.role != Role::Relay).then(|| Message::plain(ctx.id, DATA, ctx.id.index() as u64));
        Box::new(Talker { p, msg }) as Box<dyn Process>
    })
}

/// Returns a shared handle to the network plus a simple factory/assignment
/// pair, for tests that need to call `on_start` directly (the
/// `AdversarySetup` borrows the `Arc`, as the engine's does).
pub fn setup_ctx(dual: &DualGraph) -> (Arc<DualGraph>, ProcessFactory, Assignment) {
    let n = dual.len();
    let broadcasters: Vec<NodeId> = NodeId::all(n).collect();
    (
        Arc::new(dual.clone()),
        talker_factory(0.3),
        Assignment::local(n, &broadcasters),
    )
}

/// Runs `rounds` rounds of a talker workload (every node a broadcaster with
/// probability 0.3) under the given link process and returns the outcome.
pub fn run_with_beacon(
    dual: &DualGraph,
    link: Box<dyn LinkProcess>,
    rounds: usize,
    seed: u64,
) -> ExecutionOutcome {
    let n = dual.len();
    let broadcasters: Vec<NodeId> = NodeId::all(n).collect();
    Simulator::new(
        dual.clone(),
        talker_factory(0.3),
        Assignment::local(n, &broadcasters),
        link,
        SimConfig::default().with_seed(seed).with_max_rounds(rounds),
    )
    .expect("valid simulation")
    .run(StopCondition::max_rounds())
}

/// Small networks for the reference tests: dual cliques whose rows span one
/// to three words, bracelets, grid-geometric and random geometric
/// deployments, and arbitrary `G ⊆ G'` ([`arbitrary_dual`]).
pub fn arb_small_dual() -> impl Strategy<Value = DualGraph> {
    prop_oneof![
        (2usize..75).prop_map(|half| topology::dual_clique(2 * half).unwrap()),
        (2usize..5).prop_map(|k| topology::bracelet(k).unwrap().into_dual()),
        (2usize..10, 2usize..10)
            .prop_map(|(cols, rows)| topology::grid_geometric(cols, rows, 1.0, 1.5).unwrap()),
        (10usize..150, any::<u64>()).prop_map(|(n, seed)| {
            let side = (n as f64 / 3.0).sqrt();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            topology::random_geometric(&GeometricConfig::new(n, side, 1.5), &mut rng)
                .unwrap_or_else(|_| arbitrary_dual(n, seed))
        }),
        (2usize..150, any::<u64>()).prop_map(|(n, seed)| arbitrary_dual(n, seed)),
    ]
}

/// An arbitrary dual graph on `n` nodes: each pair joins `G'` with one
/// probability and then `G` with another, each drawn from a few levels, so
/// `G` may be empty or all of `G'`, and either layer may be disconnected.
pub fn arbitrary_dual(n: usize, seed: u64) -> DualGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let p_prime = [0.03, 0.3, 0.9][rng.gen_range(0..3usize)];
    let p_reliable = [0.0, 0.4, 1.0][rng.gen_range(0..3usize)];
    let (mut g, mut g_prime) = (Vec::new(), Vec::new());
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p_prime) {
                g_prime.push((u, v));
                if rng.gen_bool(p_reliable) {
                    g.push((u, v));
                }
            }
        }
    }
    DualGraph::new(
        Graph::from_edges(n, g).unwrap(),
        Graph::from_edges(n, g_prime).unwrap(),
    )
    .unwrap()
}

/// A history of one round in which exactly the nodes `rng` picks, at a
/// density it also picks, received something.
pub fn random_history(n: usize, rng: &mut impl Rng) -> History {
    let density = [0.0, 0.2, 0.7, 1.0][rng.gen_range(0..4usize)];
    let deliveries = NodeId::all(n)
        .filter(|_| rng.gen_bool(density))
        .map(|u| Delivery {
            receiver: u,
            sender: u,
            message: Message::plain(u, DATA, 0),
        })
        .collect();
    let mut history = History::new(n);
    history.push(RoundRecord {
        round: Round::ZERO,
        transmitters: Vec::new(),
        active_dynamic_edges: Vec::new(),
        deliveries,
    });
    history
}
