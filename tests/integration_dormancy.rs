//! Declared process dormancy. A registered algorithm states, through
//! `Process::next_wake`, the rounds in which it needs no call; the executor
//! then skips its calls, hears silence for it unnoticed, and resolves sparse
//! rounds from the transmitters' side. These suites pin that dormant path
//! against the reference path — the same algorithm behind a wrapper that
//! hides the declaration, so every process runs every round — outcome for
//! outcome, on every family, registered algorithm and adversary, under
//! every record mode, both layouts and both collision settings, with
//! horizons past Geo's initialization so its broadcast-stage declarations
//! run too. They also pin that the dormant path engages, and that hearing
//! stays idempotent when every proposed edge arrives twice.

#[allow(dead_code)]
mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dradio::core::local::GeoConfig;
use dradio::graphs::Edge;
use dradio::prelude::*;
use dradio::scenario::BuiltTopology;
use dradio::sim::{AdversarySetup, AdversaryView, LinkDecision};
use rand::RngCore;
use support::{families, on_layout};

/// Forwards every [`Process`] method except [`Process::next_wake`], which
/// keeps its always-awake default: this is the reference path.
struct Awake<P: ?Sized>(Box<P>);

impl<P: Process + ?Sized> Process for Awake<P> {
    fn on_start(&mut self, rng: &mut dyn RngCore) {
        self.0.on_start(rng)
    }

    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        self.0.on_round(round, rng)
    }

    fn on_feedback(&mut self, round: Round, feedback: &Feedback, rng: &mut dyn RngCore) {
        self.0.on_feedback(round, feedback, rng)
    }

    fn transmit_probability(&self, round: Round) -> f64 {
        self.0.transmit_probability(round)
    }

    fn is_informed(&self) -> bool {
        self.0.is_informed()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// `factory` with every process behind [`Awake`].
fn awake(factory: ProcessFactory) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| Box::new(Awake(factory(ctx))) as Box<dyn Process>)
}

/// Every registered algorithm for `problem`'s kind.
fn algorithms(problem: &ProblemSpec) -> Vec<AlgorithmSpec> {
    if problem.is_global() {
        GlobalAlgorithm::all().into_iter().map(Into::into).collect()
    } else {
        LocalAlgorithm::all().into_iter().map(Into::into).collect()
    }
}

/// Every registered adversary that builds on `built`.
fn adversaries(built: &BuiltTopology) -> Vec<AdversarySpec> {
    vec![
        AdversarySpec::StaticNone,
        AdversarySpec::StaticAll,
        AdversarySpec::Iid { p: 0.5 },
        AdversarySpec::GilbertElliott {
            p_fail: 0.2,
            p_recover: 0.3,
        },
        AdversarySpec::Schedule {
            rounds: vec![vec![(0, 1), (1, 2)], vec![]],
        },
        AdversarySpec::DecayAware {
            levels: None,
            assumed_transmitters: Vec::new(),
        },
        AdversarySpec::BraceletAttack,
        AdversarySpec::DenseSparse {
            density_factor: None,
        },
        AdversarySpec::GreedyCollision,
        AdversarySpec::Omniscient,
    ]
    .into_iter()
    .filter(|spec| spec.build(built).is_ok())
    .collect()
}

/// Rounds enough to pass Geo's initialization on `built` by four
/// broadcast iterations.
fn horizon(built: &BuiltTopology) -> usize {
    let config = GeoConfig::scaled(built.len(), built.max_degree());
    config.init_rounds() + 4 * config.iteration_rounds
}

const MODES: [RecordMode; 3] = [
    RecordMode::None,
    RecordMode::CollisionsOnly,
    RecordMode::Full,
];

/// Each (layout, collision detection) pair a combination runs under. The
/// two rows alternate between combinations, so every combination meets
/// both layouts and both collision settings, and the suite meets all four
/// pairs.
const SETTINGS: [[(GraphBackend, bool); 2]; 2] = [
    [(GraphBackend::Dense, false), (GraphBackend::Csr, true)],
    [(GraphBackend::Dense, true), (GraphBackend::Csr, false)],
];

/// An executor for `scenario`'s network, roles and adversary that runs
/// `factory` to the horizon whatever the stop condition says, so Geo's
/// broadcast stage runs for several iterations even where its seed gossip
/// already satisfied the problem.
fn to_horizon(
    scenario: &Scenario,
    factory: ProcessFactory,
    adversary: &AdversarySpec,
    collision_detection: bool,
) -> TrialExecutor {
    let (spec, built) = (adversary.clone(), scenario.topology().clone());
    let link: LinkFactory =
        Arc::new(move || spec.build(&built).expect("the adversary builds here"));
    TrialExecutor::new(
        Arc::clone(&scenario.topology().dual),
        factory,
        scenario.assignment().clone(),
        link,
        StopCondition::max_rounds(),
        SimConfig::default()
            .with_max_rounds(scenario.max_rounds())
            .with_collision_detection(collision_detection),
    )
    .expect("the scenario's parts build an executor")
}

#[test]
fn declared_dormancy_matches_the_awake_reference_everywhere() {
    let mut combination = 0usize;
    for (topology, problem) in families() {
        let built = topology.build().expect("registry topologies build");
        let rounds = horizon(&built);
        for algorithm in algorithms(&problem) {
            let factory = algorithm
                .factory(built.len(), built.max_degree())
                .expect("registered algorithms build");
            for adversary in adversaries(&built) {
                for (layout, collision_detection) in SETTINGS[combination % 2] {
                    let builder = || {
                        on_layout(&topology, layout)
                            .adversary(adversary.clone())
                            .problem(problem.clone())
                            .collision_detection(collision_detection)
                            .seed(combination as u64)
                            .max_rounds(rounds)
                    };
                    let dormant = builder()
                        .algorithm(algorithm.clone())
                        .build()
                        .expect("family scenarios build");
                    let reference = builder()
                        .custom_algorithm("awake", awake(factory.clone()))
                        .build()
                        .expect("family scenarios build");
                    let pairs = [
                        ("stop", dormant.executor(), reference.executor()),
                        (
                            "horizon",
                            to_horizon(&dormant, factory.clone(), &adversary, collision_detection),
                            to_horizon(
                                &dormant,
                                awake(factory.clone()),
                                &adversary,
                                collision_detection,
                            ),
                        ),
                    ];
                    for (run, mut fast, mut slow) in pairs {
                        for mode in MODES {
                            assert_eq!(
                                fast.execute(0, mode),
                                slow.execute(0, mode),
                                "{}/{}/{}/{layout:?}/cd {collision_detection}/{run}: the dormant \
                                 path diverged from the awake reference under {mode}",
                                topology.label(),
                                algorithm.name(),
                                adversary.label()
                            );
                        }
                    }
                }
                combination += 1;
            }
        }
    }
}

/// Forwards everything to the wrapped link process (its profile stays
/// hidden, so `decide` runs) but proposes every edge of every decision
/// twice, the second time reversed.
struct Twice(Box<dyn LinkProcess>);

impl LinkProcess for Twice {
    fn class(&self) -> AdversaryClass {
        self.0.class()
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.0.on_start(setup, rng)
    }

    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        let decision = self.0.decide(view, rng);
        let edges = decision
            .edges()
            .iter()
            .flat_map(|&edge| {
                let (u, v) = edge.endpoints();
                [edge, Edge::new(v, u)]
            })
            .collect();
        LinkDecision::from_edges(edges)
    }

    fn reset(&mut self) -> bool {
        self.0.reset()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[test]
fn every_edge_proposed_twice_is_heard_once() {
    for (family, (topology, problem)) in families().into_iter().enumerate() {
        let built = topology.build().expect("registry topologies build");
        let rounds = horizon(&built);
        let layout = if family % 2 == 0 {
            GraphBackend::Dense
        } else {
            GraphBackend::Csr
        };
        for algorithm in algorithms(&problem) {
            for adversary in adversaries(&built) {
                let builder = || {
                    on_layout(&topology, layout)
                        .algorithm(algorithm.clone())
                        .problem(problem.clone())
                        .seed(family as u64)
                        .max_rounds(rounds)
                };
                let once = builder()
                    .adversary(adversary.clone())
                    .build()
                    .expect("family scenarios build");
                let (spec, topology_for_link) = (adversary.clone(), built.clone());
                let twice = builder()
                    .custom_adversary("twice", move || {
                        Box::new(Twice(
                            spec.build(&topology_for_link)
                                .expect("the adversary built above"),
                        ))
                    })
                    .build()
                    .expect("family scenarios build");
                let mut once = once.executor();
                let mut twice = twice.executor();
                for mode in [RecordMode::None, RecordMode::Full] {
                    let mut expected = once.execute(1, mode);
                    // Only a rejected proposal is counted per proposal.
                    expected.metrics.rejected_link_edges *= 2;
                    assert_eq!(
                        twice.execute(1, mode),
                        expected,
                        "{}/{}/{}/{layout:?}: a repeated edge changed the outcome under {mode}",
                        topology.label(),
                        algorithm.name(),
                        adversary.label()
                    );
                }
            }
        }
    }
}

/// Forwards every [`Process`] method, `next_wake` included, counting
/// `on_round` calls.
struct Counted {
    inner: Box<dyn Process>,
    calls: Arc<AtomicUsize>,
}

impl Process for Counted {
    fn on_start(&mut self, rng: &mut dyn RngCore) {
        self.inner.on_start(rng)
    }

    fn on_round(&mut self, round: Round, rng: &mut dyn RngCore) -> Action {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.on_round(round, rng)
    }

    fn on_feedback(&mut self, round: Round, feedback: &Feedback, rng: &mut dyn RngCore) {
        self.inner.on_feedback(round, feedback, rng)
    }

    fn transmit_probability(&self, round: Round) -> f64 {
        self.inner.transmit_probability(round)
    }

    fn next_wake(&self, next: Round) -> Option<Round> {
        self.inner.next_wake(next)
    }
}

/// `factory` with every process behind [`Counted`].
fn counted(factory: ProcessFactory, calls: &Arc<AtomicUsize>) -> ProcessFactory {
    let calls = Arc::clone(calls);
    Arc::new(move |ctx: &ProcessContext| {
        Box::new(Counted {
            inner: factory(ctx),
            calls: Arc::clone(&calls),
        }) as Box<dyn Process>
    })
}

#[test]
fn dormancy_engages_exactly_where_it_is_declared() {
    // Geo's initialization: only the phase's leaders gossip, and the other
    // active nodes need only the phase boundaries.
    let topology = TopologySpec::RandomGeometric {
        n: 256,
        side: 32f64.sqrt(),
        r: 1.5,
        seed: 9,
    };
    let built = topology.build().expect("the topology builds");
    let (n, delta) = (built.len(), built.max_degree());
    let rounds = GeoConfig::scaled(n, delta).init_rounds();
    let geo = LocalAlgorithm::Geo.factory(n, delta);
    let run = |factory: ProcessFactory| {
        let calls = Arc::new(AtomicUsize::new(0));
        let scenario = Scenario::on(topology.clone())
            .with_topology(built.clone())
            .custom_algorithm("counted", counted(factory, &calls))
            .adversary(AdversarySpec::Iid { p: 0.5 })
            .problem(ProblemSpec::LocalRandom { count: 64, seed: 3 })
            .seed(5)
            .max_rounds(rounds)
            .build()
            .expect("the scenario builds");
        let outcome = scenario.executor().execute(1, RecordMode::None);
        assert_eq!(
            outcome.rounds_executed, rounds,
            "no DATA before the stage ends"
        );
        (outcome, calls.load(Ordering::Relaxed))
    };
    let node_rounds = n * rounds;
    let (dormant, dormant_calls) = run(geo.clone());
    assert!(
        dormant_calls * 20 < node_rounds,
        "{dormant_calls} on_round calls over {node_rounds} node-rounds: dormancy is off"
    );
    assert!(dormant_calls > 0);
    let (reference, awake_calls) = run(awake(geo));
    assert_eq!(
        awake_calls, node_rounds,
        "an awake process runs every round"
    );
    assert_eq!(dormant, reference);
}
