//! Engine-evaluated link profiles. An adversary that declares
//! `LinkProfile::Iid` lets the executors skip `decide` and read only the
//! coins of dynamic edges between a transmitter and a listener, seeking the
//! adversary stream to where `decide` would have drawn them. These suites
//! pin that this profile path equals the reference path — the same adversary
//! behind a wrapper that hides its profile, so `decide` runs — outcome for
//! outcome, on the scalar executor and on every batch lane, and that both
//! paths match closed-form rates.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dradio::graphs::{Graph, GraphBuilder};
use dradio::prelude::*;
use dradio::scenario::ScenarioBuilder;
use dradio::sim::{
    AdversarySetup, AdversaryView, BatchExecutor, BatchProfile, LinkDecision, LinkProfile,
};
use proptest::prelude::*;
use rand::RngCore;
use support::{beacon_builder, beacon_scenario, families, on_layout, scalar_loop};

/// Forwards everything to the wrapped process except
/// [`LinkProcess::link_profile`], which stays `Opaque`: the engine must call
/// `decide`, so this is the reference path.
struct Opaque<L: ?Sized>(Box<L>);

impl<L: LinkProcess + ?Sized> LinkProcess for Opaque<L> {
    fn class(&self) -> AdversaryClass {
        self.0.class()
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.0.on_start(setup, rng)
    }

    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        self.0.decide(view, rng)
    }

    fn reset(&mut self) -> bool {
        self.0.reset()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Every adversary that declares an `Iid` profile, with the link process
/// it builds.
fn profiled() -> Vec<AdversarySpec> {
    vec![
        AdversarySpec::Iid { p: 0.0 },
        AdversarySpec::Iid { p: 0.3 },
        AdversarySpec::Iid { p: 0.5 },
        AdversarySpec::Iid { p: 1.0 },
        AdversarySpec::StaticAll,
        AdversarySpec::StaticNone,
    ]
}

fn link_for(spec: &AdversarySpec) -> Box<dyn LinkProcess> {
    match spec {
        AdversarySpec::Iid { p } => Box::new(IidLinks::new(*p)),
        AdversarySpec::StaticAll => Box::new(StaticLinks::all()),
        AdversarySpec::StaticNone => Box::new(StaticLinks::none()),
        other => panic!("{} declares no profile", other.label()),
    }
}

/// `builder` with `adversary` hidden behind [`Opaque`].
fn reference(builder: ScenarioBuilder, adversary: &AdversarySpec) -> Scenario {
    let spec = adversary.clone();
    builder
        .custom_adversary("opaque", move || Box::new(Opaque(link_for(&spec))))
        .build()
        .expect("reference scenarios build")
}

/// Both executors of a (profile, reference) pair agree execution for
/// execution under `mode`.
fn assert_scalar_paths_agree(label: &str, profile: &Scenario, opaque: &Scenario, trials: u64) {
    let mut fast = profile.executor();
    let mut slow = opaque.executor();
    for mode in [RecordMode::None, RecordMode::CollisionsOnly] {
        for seed in 0..trials {
            assert_eq!(
                fast.execute(seed, mode),
                slow.execute(seed, mode),
                "{label}: profile and reference diverged at seed {seed} under {mode}"
            );
        }
    }
}

const LAYOUTS: [GraphBackend; 2] = [GraphBackend::Dense, GraphBackend::Csr];

#[test]
fn registered_algorithms_match_the_reference_on_every_family() {
    for (topology, problem) in families() {
        for layout in LAYOUTS {
            let algorithms: Vec<AlgorithmSpec> = if problem.is_global() {
                GlobalAlgorithm::all().into_iter().map(Into::into).collect()
            } else {
                LocalAlgorithm::all().into_iter().map(Into::into).collect()
            };
            for algorithm in algorithms {
                for adversary in profiled() {
                    let builder = || {
                        on_layout(&topology, layout)
                            .algorithm(algorithm.clone())
                            .problem(problem.clone())
                            .seed(31)
                            .max_rounds(60)
                    };
                    let profile = builder()
                        .adversary(adversary.clone())
                        .build()
                        .expect("family scenarios build");
                    let opaque = reference(builder(), &adversary);
                    let label = format!(
                        "{}/{}/{}/{layout:?}",
                        topology.label(),
                        algorithm.name(),
                        adversary.label()
                    );
                    assert_scalar_paths_agree(&label, &profile, &opaque, 2);
                }
            }
        }
    }
}

#[test]
fn batch_lanes_match_the_reference_on_every_family() {
    for (family, (topology, problem)) in families().into_iter().enumerate() {
        for layout in LAYOUTS.map(Some) {
            for adversary in profiled() {
                let label = format!("{}/{}/{layout:?}", topology.label(), adversary.label());
                let profile = beacon_scenario(&topology, &adversary, &problem, layout, 32);
                let opaque = reference(beacon_builder(&topology, &problem, layout, 32), &adversary);
                assert_scalar_paths_agree(&label, &profile, &opaque, 3);
                // One full lane group plus a ragged one on the first family;
                // a partial group everywhere else.
                let trials = if family == 0 { 70 } else { 9 };
                for curve in [false, true] {
                    let fast = ScenarioRunner::new(&profile).sequential().curve(curve);
                    assert!(fast.uses_batch(), "{label}: the beacon takes the kernel");
                    let slow = ScenarioRunner::new(&opaque).sequential().curve(curve);
                    assert!(!slow.uses_batch(), "a custom adversary runs scalar");
                    assert_eq!(
                        fast.collect_trials(trials).unwrap(),
                        scalar_loop(&slow, trials),
                        "{label}: kernel lanes diverged from the reference (curve {curve})"
                    );
                }
            }
        }
    }
}

#[test]
fn full_recording_calls_decide_and_measures_the_same() {
    for (topology, problem) in families().into_iter().take(6) {
        for adversary in profiled() {
            let label = format!("{}/{}", topology.label(), adversary.label());
            let profile = beacon_scenario(&topology, &adversary, &problem, None, 33);
            let opaque = reference(beacon_builder(&topology, &problem, None, 33), &adversary);
            let mut fast = profile.executor();
            let mut slow = opaque.executor();
            for seed in 0..3 {
                let full = fast.execute(seed, RecordMode::Full);
                assert_eq!(
                    full,
                    slow.execute(seed, RecordMode::Full),
                    "{label}: histories"
                );
                // The history-free profile path measures exactly what the
                // recorded `decide` path measured.
                let none = fast.execute(seed, RecordMode::None);
                assert_eq!(full.metrics, none.metrics, "{label}");
                assert_eq!(full.completion_round, none.completion_round, "{label}");
            }
        }
    }
}

/// `IidLinks`, profile included, counting `decide` calls and claiming
/// `class`.
struct Counted {
    inner: IidLinks,
    class: AdversaryClass,
    decides: Arc<AtomicUsize>,
}

impl LinkProcess for Counted {
    fn class(&self) -> AdversaryClass {
        self.class
    }

    fn on_start(&mut self, setup: &AdversarySetup<'_>, rng: &mut dyn RngCore) {
        self.inner.on_start(setup, rng)
    }

    fn decide(&mut self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> LinkDecision {
        self.decides.fetch_add(1, Ordering::Relaxed);
        self.inner.decide(view, rng)
    }

    fn link_profile(&self) -> LinkProfile {
        self.inner.link_profile()
    }
}

fn counted_executor(class: AdversaryClass, decides: &Arc<AtomicUsize>) -> TrialExecutor {
    let counter = Arc::clone(decides);
    let link: LinkFactory = Arc::new(move || {
        Box::new(Counted {
            inner: IidLinks::new(0.5),
            class,
            decides: Arc::clone(&counter),
        })
    });
    TrialExecutor::new(
        topology::dual_clique(12).unwrap(),
        Arc::new(|ctx: &ProcessContext| {
            let msg = Message::plain(ctx.id, MessageKind::new(1), 1);
            Box::new(Chatter(msg)) as Box<dyn Process>
        }),
        Assignment::relays(12),
        link,
        StopCondition::max_rounds(),
        SimConfig::default().with_max_rounds(10),
    )
    .unwrap()
}

/// Transmits its own message every other round, starting at round 0 for
/// even nodes and round 1 for odd ones.
struct Chatter(Message);

impl Process for Chatter {
    fn on_round(&mut self, round: Round, _rng: &mut dyn RngCore) -> Action {
        if (round.index() + self.0.source().index()).is_multiple_of(2) {
            Action::Transmit(self.0.clone())
        } else {
            Action::Listen
        }
    }
}

#[test]
fn the_profile_path_engages_exactly_where_it_may() {
    let decides = Arc::new(AtomicUsize::new(0));
    let mut oblivious = counted_executor(AdversaryClass::Oblivious, &decides);
    for mode in [RecordMode::None, RecordMode::CollisionsOnly] {
        let _ = oblivious.execute(1, mode);
        assert_eq!(decides.load(Ordering::Relaxed), 0, "{mode}: no decide call");
    }
    let _ = oblivious.execute(1, RecordMode::Full);
    assert_eq!(decides.swap(0, Ordering::Relaxed), 10, "Full calls decide");

    let mut adaptive = counted_executor(AdversaryClass::OnlineAdaptive, &decides);
    let _ = adaptive.execute(1, RecordMode::None);
    assert_eq!(
        decides.load(Ordering::Relaxed),
        10,
        "adaptive classes call decide"
    );
}

/// A star whose spokes are all dynamic: `G` has no edge, `G'` joins the
/// hub 0 to every leaf.
fn dynamic_star(leaves: usize) -> DualGraph {
    let g_prime = GraphBuilder::new(leaves + 1)
        .edges((1..=leaves).map(|leaf| (0, leaf)))
        .build()
        .unwrap();
    DualGraph::new(Graph::empty(leaves + 1), g_prime).unwrap()
}

/// The hub transmits every round; leaves listen.
struct Hub(Option<Message>);

impl Process for Hub {
    fn on_round(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Action {
        match &self.0 {
            Some(m) => Action::Transmit(m.clone()),
            None => Action::Listen,
        }
    }

    fn batch_profile(&self) -> BatchProfile {
        BatchProfile::FixedRate {
            rate: if self.0.is_some() { 1.0 } else { 0.0 },
            message: self.0.clone(),
        }
    }
}

fn hub_factory() -> ProcessFactory {
    Arc::new(|ctx: &ProcessContext| {
        let msg = (ctx.id.index() == 0).then(|| Message::plain(ctx.id, MessageKind::new(1), 1));
        Box::new(Hub(msg)) as Box<dyn Process>
    })
}

/// Asserts `successes` out of `draws` Bernoulli(p) trials lies in the
/// two-sided 99.9 % normal interval.
fn assert_binomial(label: &str, successes: usize, draws: usize, p: f64) {
    let mean = draws as f64 * p;
    let half_width = 3.291 * (draws as f64 * p * (1.0 - p)).sqrt();
    assert!(
        (successes as f64 - mean).abs() <= half_width,
        "{label}: {successes} of {draws} outside {mean:.1} ± {half_width:.1}"
    );
}

#[test]
fn a_hub_beacon_over_dynamic_spokes_delivers_binomially() {
    const LEAVES: usize = 120;
    const ROUNDS: usize = 40;
    const TRIALS: u64 = 8;
    let dual = Arc::new(dynamic_star(LEAVES));
    for p in [0.2, 0.5, 0.85] {
        let link: LinkFactory = Arc::new(move || Box::new(IidLinks::new(p)));
        let build = || {
            TrialExecutor::new(
                Arc::clone(&dual),
                hub_factory(),
                Assignment::global(LEAVES + 1, NodeId::new(0)),
                Arc::clone(&link),
                StopCondition::max_rounds(),
                SimConfig::default().with_max_rounds(ROUNDS),
            )
            .unwrap()
        };
        let mut executor = build();
        let draws = LEAVES * ROUNDS * TRIALS as usize;
        let mut profile = 0;
        let mut full = 0;
        for seed in 0..TRIALS {
            let fast = executor.execute(seed, RecordMode::None);
            let slow = executor.execute(seed, RecordMode::Full);
            // Every leaf listens to the hub alone: no collision, ever.
            assert_eq!(fast.metrics.collisions, 0);
            assert_eq!(fast.metrics, slow.metrics, "p {p} seed {seed}");
            profile += fast.metrics.deliveries;
            full += slow
                .history
                .records()
                .iter()
                .map(|r| r.active_dynamic_edges.len())
                .sum::<usize>();
        }
        assert_eq!(profile, full, "each active spoke carries one delivery");
        assert_binomial(&format!("scalar p {p}"), profile, draws, p);

        let mut batch = BatchExecutor::new(
            Arc::clone(&dual),
            hub_factory(),
            Assignment::global(LEAVES + 1, NodeId::new(0)),
            Arc::clone(&link),
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(ROUNDS),
        )
        .unwrap();
        let seeds: Vec<u64> = (0..TRIALS).collect();
        let lanes: usize = batch
            .execute_group(&seeds, RecordMode::None)
            .unwrap()
            .iter()
            .map(|outcome| outcome.metrics.deliveries)
            .sum();
        assert_eq!(lanes, profile, "p {p}: batch lanes replay the scalar coins");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any probability, seed, family and layout: the profile path equals
    /// the reference, on the scalar executor and on batch lanes.
    #[test]
    fn any_probability_matches_the_reference(
        p in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
        seed in 0u64..10_000,
        family in 0usize..1000,
        csr in any::<bool>(),
    ) {
        let mut all = families();
        let (topology, problem) = all.swap_remove(family % all.len());
        let layout = Some(if csr { GraphBackend::Csr } else { GraphBackend::Dense });
        let adversary = AdversarySpec::Iid { p };
        let profile = beacon_scenario(&topology, &adversary, &problem, layout, seed);
        let opaque = reference(beacon_builder(&topology, &problem, layout, seed), &adversary);
        let mut fast = profile.executor();
        let mut slow = opaque.executor();
        for trial in 0..3 {
            prop_assert_eq!(
                fast.execute(trial, RecordMode::None),
                slow.execute(trial, RecordMode::None)
            );
        }
        let fast = ScenarioRunner::new(&profile).sequential();
        prop_assert!(fast.uses_batch());
        prop_assert_eq!(
            fast.collect_trials(5).unwrap(),
            scalar_loop(&ScenarioRunner::new(&opaque).sequential(), 5)
        );
    }
}
