//! Engine-evaluated link profiles. An adversary that declares
//! `LinkProfile::Iid` lets the executor skip `decide` and read only the
//! coins of dynamic edges between a transmitter and a listener, seeking the
//! adversary stream to where `decide` would have drawn them; one that
//! declares `LinkProfile::GilbertElliott` lets it run every edge's chain
//! itself over coins read in bulk. These suites pin that this profile path
//! equals the reference path — the same adversary behind a wrapper that
//! hides its profile, so `decide` runs — outcome for outcome, through a
//! reused executor and through the runner's fan-out, and that both paths
//! match closed-form rates.

#[allow(dead_code)]
mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dradio::graphs::{Graph, GraphBuilder};
use dradio::prelude::*;
use dradio::scenario::ScenarioBuilder;
use dradio::sim::{AdversarySetup, AdversaryView, LinkDecision, LinkProfile};
use proptest::prelude::*;
use rand::RngCore;
use support::{beacon_builder, families, on_layout, scalar_loop};

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

/// An adversary that declares a link profile: a spec, or a Gilbert–Elliott
/// chain with a start probability no spec carries.
#[derive(Debug, Clone)]
enum Profiled {
    Spec(AdversarySpec),
    Starting {
        p_fail: f64,
        p_recover: f64,
        p_start_good: f64,
    },
}

impl Profiled {
    fn label(&self) -> String {
        match self {
            Profiled::Spec(spec) => spec.label(),
            Profiled::Starting {
                p_fail,
                p_recover,
                p_start_good,
            } => format!("bursty({p_fail},{p_recover},start {p_start_good})"),
        }
    }

    /// The link process it builds.
    fn link(&self) -> Box<dyn LinkProcess> {
        match self {
            Profiled::Spec(AdversarySpec::Iid { p }) => Box::new(IidLinks::new(*p)),
            Profiled::Spec(AdversarySpec::StaticAll) => Box::new(StaticLinks::all()),
            Profiled::Spec(AdversarySpec::StaticNone) => Box::new(StaticLinks::none()),
            Profiled::Spec(AdversarySpec::GilbertElliott { p_fail, p_recover }) => {
                Box::new(GilbertElliottLinks::new(*p_fail, *p_recover))
            }
            Profiled::Spec(other) => panic!("{} declares no profile", other.label()),
            Profiled::Starting {
                p_fail,
                p_recover,
                p_start_good,
            } => Box::new(
                GilbertElliottLinks::new(*p_fail, *p_recover).with_start_probability(*p_start_good),
            ),
        }
    }

    /// `builder` under this adversary, through its spec where it has one.
    fn scenario(&self, builder: ScenarioBuilder) -> Scenario {
        match self {
            Profiled::Spec(spec) => builder.adversary(spec.clone()),
            starting => {
                let starting = starting.clone();
                builder.custom_adversary("bursty-start", move || starting.link())
            }
        }
        .build()
        .expect("profile scenarios build")
    }
}

/// Every adversary that declares a profile.
fn profiled() -> Vec<Profiled> {
    let bursty =
        |p_fail, p_recover| Profiled::Spec(AdversarySpec::GilbertElliott { p_fail, p_recover });
    let starting = |p_start_good| Profiled::Starting {
        p_fail: 0.3,
        p_recover: 0.6,
        p_start_good,
    };
    vec![
        Profiled::Spec(AdversarySpec::Iid { p: 0.0 }),
        Profiled::Spec(AdversarySpec::Iid { p: 0.3 }),
        Profiled::Spec(AdversarySpec::Iid { p: 0.5 }),
        Profiled::Spec(AdversarySpec::Iid { p: 1.0 }),
        Profiled::Spec(AdversarySpec::StaticAll),
        Profiled::Spec(AdversarySpec::StaticNone),
        bursty(0.1, 0.1),
        bursty(0.3, 0.6),
        starting(0.0),
        starting(0.3),
        starting(1.0),
    ]
}

/// `builder` with `adversary` hidden behind [`Opaque`].
fn reference(builder: ScenarioBuilder, adversary: &Profiled) -> Scenario {
    let adversary = adversary.clone();
    builder
        .custom_adversary("opaque", move || Box::new(Opaque(adversary.link())))
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
                    let profile = adversary.scenario(builder());
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
fn runner_fan_out_matches_the_reference_on_every_family() {
    for (family, (topology, problem)) in families().into_iter().enumerate() {
        for layout in LAYOUTS.map(Some) {
            for adversary in profiled() {
                let label = format!("{}/{}/{layout:?}", topology.label(), adversary.label());
                let builder = || beacon_builder(&topology, &problem, layout, 32);
                let profile = adversary.scenario(builder());
                let opaque = reference(builder(), &adversary);
                assert_scalar_paths_agree(&label, &profile, &opaque, 3);
                // A longer run on the first family.
                let trials = if family == 0 { 70 } else { 9 };
                for curve in [false, true] {
                    let fast = ScenarioRunner::new(&profile).sequential().curve(curve);
                    let slow = ScenarioRunner::new(&opaque).sequential().curve(curve);
                    assert_eq!(
                        fast.collect_trials(trials).unwrap(),
                        scalar_loop(&slow, trials),
                        "{label}: the fan-out diverged from the reference (curve {curve})"
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
            let builder = || beacon_builder(&topology, &problem, None, 33);
            let profile = adversary.scenario(builder());
            let opaque = reference(builder(), &adversary);
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

/// A link process, profile included, counting `decide` calls and claiming
/// `class`.
struct Counted {
    inner: Box<dyn LinkProcess>,
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

fn counted_executor(
    inner: fn() -> Box<dyn LinkProcess>,
    class: AdversaryClass,
    decides: &Arc<AtomicUsize>,
) -> TrialExecutor {
    let counter = Arc::clone(decides);
    let link: LinkFactory = Arc::new(move || {
        Box::new(Counted {
            inner: inner(),
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
    let profiled: [fn() -> Box<dyn LinkProcess>; 2] = [
        || Box::new(IidLinks::new(0.5)),
        || Box::new(GilbertElliottLinks::new(0.1, 0.1)),
    ];
    for inner in profiled {
        let mut oblivious = counted_executor(inner, AdversaryClass::Oblivious, &decides);
        for mode in [RecordMode::None, RecordMode::CollisionsOnly] {
            let _ = oblivious.execute(1, mode);
            assert_eq!(decides.load(Ordering::Relaxed), 0, "{mode}: no decide call");
        }
        let _ = oblivious.execute(1, RecordMode::Full);
        assert_eq!(decides.swap(0, Ordering::Relaxed), 10, "Full calls decide");

        let mut adaptive = counted_executor(inner, AdversaryClass::OnlineAdaptive, &decides);
        let _ = adaptive.execute(1, RecordMode::None);
        assert_eq!(
            decides.swap(0, Ordering::Relaxed),
            10,
            "adaptive classes call decide"
        );
    }

    // Chains with a transition probability of 0 or 1 declare no profile.
    let degenerate: [fn() -> Box<dyn LinkProcess>; 4] = [
        || Box::new(GilbertElliottLinks::new(0.0, 0.1)),
        || Box::new(GilbertElliottLinks::new(1.0, 0.1)),
        || Box::new(GilbertElliottLinks::new(0.1, 0.0)),
        || Box::new(GilbertElliottLinks::new(0.1, 1.0)),
    ];
    for inner in degenerate {
        assert_eq!(inner().link_profile(), LinkProfile::Opaque);
        let mut oblivious = counted_executor(inner, AdversaryClass::Oblivious, &decides);
        let _ = oblivious.execute(1, RecordMode::None);
        assert_eq!(decides.swap(0, Ordering::Relaxed), 10, "degenerate chains");
    }
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
        let mut executor = TrialExecutor::new(
            Arc::clone(&dual),
            hub_factory(),
            Assignment::global(LEAVES + 1, NodeId::new(0)),
            link,
            StopCondition::max_rounds(),
            SimConfig::default().with_max_rounds(ROUNDS),
        )
        .unwrap();
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
        assert_binomial(&format!("p {p}"), profile, draws, p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any probability, seed, family and layout: the profile path equals
    /// the reference, through a reused executor and the runner's fan-out.
    /// `p` is an `Iid` presence probability, or a Gilbert–Elliott start
    /// probability with any open transition probabilities.
    #[test]
    fn any_probability_matches_the_reference(
        p in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
        (p_fail, p_recover) in (0.001f64..0.999, 0.001f64..0.999),
        bursty in any::<bool>(),
        seed in 0u64..10_000,
        family in 0usize..1000,
        csr in any::<bool>(),
    ) {
        let mut all = families();
        let (topology, problem) = all.swap_remove(family % all.len());
        let layout = Some(if csr { GraphBackend::Csr } else { GraphBackend::Dense });
        let adversary = if bursty {
            Profiled::Starting { p_fail, p_recover, p_start_good: p }
        } else {
            Profiled::Spec(AdversarySpec::Iid { p })
        };
        let builder = || beacon_builder(&topology, &problem, layout, seed);
        let profile = adversary.scenario(builder());
        let opaque = reference(builder(), &adversary);
        let mut fast = profile.executor();
        let mut slow = opaque.executor();
        for trial in 0..3 {
            prop_assert_eq!(
                fast.execute(trial, RecordMode::None),
                slow.execute(trial, RecordMode::None)
            );
        }
        prop_assert_eq!(
            ScenarioRunner::new(&profile).sequential().collect_trials(5).unwrap(),
            scalar_loop(&ScenarioRunner::new(&opaque).sequential(), 5)
        );
    }
}
