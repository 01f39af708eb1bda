//! Shared fixtures for the root integration suites: one topology per
//! registered family, the one way to run a topology in a forced graph
//! layout, a stateless fixed-rate beacon field, and the reference loop of
//! trials through one reused executor.

use std::sync::Arc;

use dradio::core::kinds;
use dradio::prelude::*;
use dradio::scenario::{BuiltTopology, ScenarioBuilder, TrialOutcome};
use dradio::sim::sampling;

/// A fixed-rate beacon field: nodes holding a problem role (the global
/// source or a local broadcaster) send their DATA message with probability
/// 1/2 each round, every other node its own at 1/8. Stateless and
/// feedback-blind: every node may transmit in every round, whatever it has
/// heard, unlike the registered algorithms, whose uninformed nodes only
/// listen.
struct Beacon {
    msg: Message,
    rate: f64,
}

impl Process for Beacon {
    fn on_round(&mut self, _round: Round, rng: &mut dyn rand::RngCore) -> Action {
        if sampling::bernoulli(rng, self.rate) {
            Action::Transmit(self.msg.clone())
        } else {
            Action::Listen
        }
    }
}

fn beacon_factory() -> ProcessFactory {
    Arc::new(|ctx: &ProcessContext| {
        let rate = if ctx.role == Role::Relay { 0.125 } else { 0.5 };
        let msg = Message::plain(ctx.id, kinds::DATA, ctx.id.index() as u64);
        Box::new(Beacon { msg, rate }) as Box<dyn Process>
    })
}

/// One topology per registered declarative family ([`TopologySpec`] minus
/// the runtime-attached `Custom`), with a problem that fits it.
pub fn families() -> Vec<(TopologySpec, ProblemSpec)> {
    let from0 = ProblemSpec::GlobalFrom(0);
    let local = ProblemSpec::LocalRandom { count: 4, seed: 6 };
    vec![
        (TopologySpec::Clique { n: 10 }, from0.clone()),
        (TopologySpec::DualClique { n: 12 }, from0.clone()),
        (
            TopologySpec::DualCliqueWithBridge {
                n: 12,
                t_a: 2,
                t_b: 8,
            },
            from0.clone(),
        ),
        (TopologySpec::Bracelet { k: 2 }, ProblemSpec::LocalHeadsA),
        (
            TopologySpec::BraceletWithClasp { k: 2, t: 1 },
            ProblemSpec::LocalHeadsA,
        ),
        (TopologySpec::Line { n: 9 }, from0.clone()),
        (TopologySpec::Ring { n: 9 }, from0.clone()),
        (TopologySpec::Star { n: 9 }, from0.clone()),
        (
            TopologySpec::LineOfCliques {
                cliques: 3,
                clique_size: 4,
            },
            from0.clone(),
        ),
        (TopologySpec::Grid { cols: 4, rows: 5 }, from0.clone()),
        (TopologySpec::Torus { cols: 4, rows: 4 }, from0.clone()),
        (
            TopologySpec::BalancedTree {
                branching: 2,
                depth: 3,
            },
            from0.clone(),
        ),
        (
            TopologySpec::RandomGeometric {
                n: 20,
                side: 2.0,
                r: 1.5,
                seed: 5,
            },
            local.clone(),
        ),
        (
            TopologySpec::GridGeometric {
                cols: 4,
                rows: 4,
                spacing: 1.0,
                r: 1.5,
            },
            local,
        ),
        (
            TopologySpec::ErdosRenyiDual {
                n: 14,
                p_reliable: 0.4,
                p_dynamic: 0.3,
                seed: 3,
            },
            from0.clone(),
        ),
        (
            TopologySpec::SparseErdosRenyi {
                n: 40,
                p: 0.2,
                seed: 7,
            },
            from0,
        ),
    ]
}

/// A builder for `topology` whose network is built, converted to `layout`
/// with [`DualGraph::with_graph_backend`], and attached with
/// [`ScenarioBuilder::with_topology`]. The layout is the dual graph's own
/// decision everywhere else; this is how the suites run one network in
/// both row formats.
pub fn on_layout(topology: &TopologySpec, layout: GraphBackend) -> ScenarioBuilder {
    let built = topology.build().expect("registry topologies build");
    let dual = Arc::new(built.dual.with_graph_backend(layout));
    assert_eq!(dual.graph_backend(), layout);
    Scenario::on(topology.clone()).with_topology(BuiltTopology { dual, ..built })
}

/// The beacon field on `topology` solving `problem`, with the adversary
/// still to choose, in the forced `layout` (`None`: the automatic one).
pub fn beacon_builder(
    topology: &TopologySpec,
    problem: &ProblemSpec,
    layout: Option<GraphBackend>,
    seed: u64,
) -> ScenarioBuilder {
    match layout {
        Some(layout) => on_layout(topology, layout),
        None => Scenario::on(topology.clone()),
    }
    .custom_algorithm("beacon", beacon_factory())
    .problem(problem.clone())
    .seed(seed)
    .max_rounds(200)
}

/// The beacon field on `topology` under `adversary`, solving `problem`.
pub fn beacon_scenario(
    topology: &TopologySpec,
    adversary: &AdversarySpec,
    problem: &ProblemSpec,
    layout: Option<GraphBackend>,
    seed: u64,
) -> Scenario {
    beacon_builder(topology, problem, layout, seed)
        .adversary(adversary.clone())
        .build()
        .expect("beacon scenarios build")
}

/// The reference loop: trials `0..trials` in order through one reused
/// [`TrialExecutor`].
pub fn scalar_loop(runner: &ScenarioRunner<'_>, trials: usize) -> Vec<TrialOutcome> {
    let mut executor = runner.executor();
    (0..trials)
        .map(|t| runner.run_trial_on(&mut executor, t))
        .collect()
}
