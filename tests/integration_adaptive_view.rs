//! Adaptive rounds pay only for what the adversary reads. The record mode
//! decides only what an outcome carries: an adaptive adversary's view shows
//! every earlier round's transmitters and deliveries, never an edge, in
//! every mode. And a `LinkDecision::all_dynamic` over the executor's own
//! network is folded over `G'`'s rows instead of being validated edge by
//! edge. These suites pin
//!
//! * the fold against the validated path, outcome for outcome, across every
//!   registered family, algorithm, layout and record mode;
//! * the view contract, snapshot for snapshot;
//! * the history's O(1) `received_any` against a full scan.

#[allow(dead_code)]
mod support;

use std::sync::{Arc, Mutex};

use dradio::core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio::graphs::NodeId;
use dradio::prelude::*;
use dradio::sim::{
    AdversarySetup, AdversaryView, Delivery, History, LinkDecision, MessageKind, RoundRecord,
    StaticLinks,
};
use proptest::prelude::*;
use rand::RngCore;
use support::{families, on_layout};

const MODES: [RecordMode; 3] = [
    RecordMode::None,
    RecordMode::CollisionsOnly,
    RecordMode::Full,
];

const LAYOUTS: [GraphBackend; 2] = [GraphBackend::Dense, GraphBackend::Csr];

/// The adversary under test behind a wrapper that forwards everything but
/// [`LinkProcess::link_profile`], which stays `Opaque`, so the engine calls
/// `decide` in every record mode. With `materialise`, every decision is
/// handed over as an explicit edge list
/// (`LinkDecision::from_edges(d.edges().to_vec())`), which the executor
/// validates edge by edge: the reference path the `G'` fold is checked
/// against. Without it, decisions pass through as decided.
struct Explicit<L: ?Sized> {
    inner: Box<L>,
    materialise: bool,
}

impl<L: LinkProcess + ?Sized> LinkProcess for Explicit<L> {
    fn class(&self) -> AdversaryClass {
        self.inner.class()
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.inner.on_start(setup, rng)
    }

    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        let decision = self.inner.decide(view, rng);
        if self.materialise {
            LinkDecision::from_edges(decision.edges().to_vec())
        } else {
            decision
        }
    }

    fn reset(&mut self) -> bool {
        self.inner.reset()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Builds a fresh link process.
type MakeLink = fn() -> Box<dyn LinkProcess>;

/// The adversaries whose decisions reach the fold: the two online adaptive
/// attackers, the offline blocker, and static all-links.
fn adversaries() -> Vec<(&'static str, MakeLink)> {
    vec![
        ("dense-sparse", || Box::new(DenseSparseOnline::default())),
        (
            "greedy-collision",
            || Box::new(GreedyCollisionOnline::new()),
        ),
        ("omniscient", || Box::new(OmniscientOffline::new())),
        ("static-all", || Box::new(StaticLinks::all())),
    ]
}

/// Every registered algorithm that solves `problem`'s kind.
fn algorithms_for(problem: &ProblemSpec) -> Vec<AlgorithmSpec> {
    if problem.is_global() {
        GlobalAlgorithm::all().into_iter().map(Into::into).collect()
    } else {
        LocalAlgorithm::all().into_iter().map(Into::into).collect()
    }
}

/// One execution of `algorithm` on `topology`, converted to `layout`, under
/// `link` (made by the scenario's factory, so each execution gets a fresh
/// process).
fn run(
    topology: &TopologySpec,
    layout: GraphBackend,
    algorithm: &AlgorithmSpec,
    problem: &ProblemSpec,
    link: impl Fn() -> Box<dyn LinkProcess> + Send + Sync + 'static,
    seed: u64,
    mode: RecordMode,
) -> ExecutionOutcome {
    on_layout(topology, layout)
        .algorithm(algorithm.clone())
        .custom_adversary("under-test", link)
        .problem(problem.clone())
        .seed(seed)
        .max_rounds(40)
        .build()
        .expect("registry scenarios build")
        .run_with(seed, mode)
}

#[test]
fn g_prime_fold_matches_the_validated_path_everywhere() {
    for (topology, problem) in families() {
        for layout in LAYOUTS {
            for algorithm in algorithms_for(&problem) {
                for (name, make) in adversaries() {
                    for mode in MODES {
                        for seed in [3u64, 11] {
                            let label = format!(
                                "{} × {} × {name} ({layout}, {mode}, seed {seed})",
                                topology.label(),
                                algorithm.name()
                            );
                            let at = |link: MakeLink, materialise| {
                                run(
                                    &topology,
                                    layout,
                                    &algorithm,
                                    &problem,
                                    move || {
                                        Box::new(Explicit {
                                            inner: link(),
                                            materialise,
                                        })
                                    },
                                    seed,
                                    mode,
                                )
                            };
                            let reference = at(make, true);
                            let folded = at(make, false);
                            let plain =
                                run(&topology, layout, &algorithm, &problem, make, seed, mode);
                            assert_eq!(folded, reference, "{label}: fold vs validated path");
                            assert_eq!(plain, reference, "{label}: as registered");
                            assert_eq!(reference.record_mode, mode, "{label}");
                        }
                    }
                }
            }
        }
    }
}

/// Forwards everything to an adaptive adversary, first snapshotting the
/// history its view shows into a shared sink.
struct Probe {
    inner: Box<dyn LinkProcess>,
    sink: Arc<Mutex<Vec<Vec<RoundRecord>>>>,
}

impl LinkProcess for Probe {
    fn class(&self) -> AdversaryClass {
        self.inner.class()
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.inner.on_start(setup, rng)
    }

    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        let history = view.history().expect("adaptive classes see history");
        self.sink.lock().unwrap().push(history.records().to_vec());
        self.inner.decide(view, rng)
    }
}

#[test]
fn adaptive_views_show_the_same_edge_free_rounds_in_every_mode() {
    let cases = [
        (
            TopologySpec::DualClique { n: 16 },
            ProblemSpec::GlobalFrom(0),
        ),
        (
            TopologySpec::GridGeometric {
                cols: 4,
                rows: 4,
                spacing: 1.0,
                r: 1.5,
            },
            ProblemSpec::LocalRandom { count: 6, seed: 2 },
        ),
        (
            TopologySpec::RandomGeometric {
                n: 20,
                side: 2.0,
                r: 1.5,
                seed: 5,
            },
            ProblemSpec::GlobalFrom(0),
        ),
    ];
    for (topology, problem) in cases {
        let algorithm = algorithms_for(&problem).remove(0);
        for (name, make) in adversaries()
            .into_iter()
            .filter(|(_, make)| make().class() != AdversaryClass::Oblivious)
        {
            for seed in [1u64, 7] {
                let label = format!("{} × {name}, seed {seed}", topology.label());
                let snapshots = |mode| {
                    let sink = Arc::new(Mutex::new(Vec::new()));
                    let probe_sink = Arc::clone(&sink);
                    let outcome = run(
                        &topology,
                        GraphBackend::Dense,
                        &algorithm,
                        &problem,
                        move || {
                            Box::new(Probe {
                                inner: make(),
                                sink: Arc::clone(&probe_sink),
                            })
                        },
                        seed,
                        mode,
                    );
                    let seen = std::mem::take(&mut *sink.lock().unwrap());
                    (outcome, seen)
                };
                let (full, seen_full) = snapshots(RecordMode::Full);
                assert_eq!(seen_full.len(), full.rounds_executed, "{label}");
                for (round, seen) in seen_full.iter().enumerate() {
                    assert_eq!(seen.len(), round, "{label}: rounds before {round}");
                    for (record, kept) in seen.iter().zip(full.history.records()) {
                        assert!(record.active_dynamic_edges.is_empty(), "{label}");
                        assert_eq!(record.round, kept.round, "{label}");
                        assert_eq!(record.transmitters, kept.transmitters, "{label}");
                        assert_eq!(record.deliveries, kept.deliveries, "{label}");
                    }
                }
                for mode in [RecordMode::None, RecordMode::CollisionsOnly] {
                    let (outcome, seen) = snapshots(mode);
                    assert_eq!(seen, seen_full, "{label}: the {mode} view");
                    assert_eq!(outcome.metrics, full.metrics, "{label}: {mode}");
                    assert!(outcome.history.is_empty(), "{label}: {mode}");
                }
            }
        }
    }
}

/// Deliveries to `receivers`, all from node 0.
fn deliveries(receivers: &[usize]) -> Vec<Delivery> {
    let sender = NodeId::new(0);
    receivers
        .iter()
        .map(|&v| Delivery {
            receiver: NodeId::new(v),
            sender,
            message: Message::plain(sender, MessageKind::new(1), 0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `received_any` reads the set `push` keeps; it must answer what a
    /// scan of every recorded delivery answers, after every round, for
    /// histories sized to the network and for the size-less default.
    #[test]
    fn received_any_matches_a_full_scan(
        n in 1usize..200,
        rounds in proptest::collection::vec(proptest::collection::vec(0usize..1000, 0..6), 0..12),
        sized in any::<bool>(),
    ) {
        let mut history = if sized { History::new(n) } else { History::default() };
        for (r, receivers) in rounds.iter().enumerate() {
            let receivers: Vec<usize> = receivers.iter().map(|v| v % n).collect();
            history.push(RoundRecord {
                round: Round::new(r),
                transmitters: vec![NodeId::new(0)],
                active_dynamic_edges: Vec::new(),
                deliveries: deliveries(&receivers),
            });
            for v in 0..n + 70 {
                let node = NodeId::new(v);
                let scanned = history
                    .records()
                    .iter()
                    .any(|record| record.deliveries.iter().any(|d| d.receiver == node));
                prop_assert_eq!(history.received_any(node), scanned, "node {} after round {}", v, r);
            }
        }
    }
}
