//! Property tests for record-mode correctness at the scenario layer: for
//! random declarative scenarios, `RecordMode::None` and `RecordMode::Full`
//! produce identical `TrialOutcome`s, and adaptive adversary classes, which
//! read every earlier round under every mode, return only what was
//! requested.

use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_scenario::{
    AdversarySpec, AlgorithmSpec, ProblemSpec, RecordMode, Scenario, ScenarioRunner, TopologySpec,
};
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (3usize..10).prop_map(|half| TopologySpec::DualClique { n: 2 * half }),
        (6usize..20).prop_map(|n| TopologySpec::Clique { n }),
        (3usize..6, 3usize..6).prop_map(|(cols, rows)| TopologySpec::Grid { cols, rows }),
        (12usize..28, 0u64..20).prop_map(|(n, seed)| TopologySpec::RandomGeometric {
            n,
            side: 2.0,
            r: 1.5,
            seed,
        }),
    ]
}

fn arb_adversary() -> impl Strategy<Value = AdversarySpec> {
    prop_oneof![
        Just(AdversarySpec::StaticNone),
        Just(AdversarySpec::StaticAll),
        (1u32..99).prop_map(|p| AdversarySpec::Iid {
            p: f64::from(p) / 100.0
        }),
        (1u32..99, 1u32..99).prop_map(|(f, r)| AdversarySpec::GilbertElliott {
            p_fail: f64::from(f) / 100.0,
            p_recover: f64::from(r) / 100.0,
        }),
        Just(AdversarySpec::DenseSparse {
            density_factor: None
        }),
        Just(AdversarySpec::GreedyCollision),
        Just(AdversarySpec::Omniscient),
    ]
}

fn arb_algorithm_problem() -> impl Strategy<Value = (AlgorithmSpec, ProblemSpec)> {
    prop_oneof![
        (0usize..3).prop_map(|i| (
            AlgorithmSpec::Global(GlobalAlgorithm::all()[i]),
            ProblemSpec::GlobalFrom(0),
        )),
        (0usize..4, 1usize..5, 0u64..50).prop_map(|(i, count, seed)| (
            AlgorithmSpec::Local(LocalAlgorithm::all()[i]),
            ProblemSpec::LocalRandom { count, seed },
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The satellite-task property: identical `TrialOutcome`s across record
    /// modes for random scenarios.
    #[test]
    fn record_mode_never_changes_trial_outcomes(
        topology in arb_topology(),
        adversary in arb_adversary(),
        (algorithm, problem) in arb_algorithm_problem(),
        seed in 0u64..1_000,
    ) {
        let scenario = Scenario::on(topology)
            .algorithm(algorithm)
            .adversary(adversary)
            .problem(problem)
            .seed(seed)
            .max_rounds(300)
            .build()
            .expect("declarative scenarios build");
        let runner = ScenarioRunner::new(&scenario);
        let fast = runner.collect_trials(2).expect("trials > 0");
        let full = runner
            .record_mode(RecordMode::Full)
            .collect_trials(2)
            .expect("trials > 0");
        prop_assert_eq!(fast, full);
    }

    /// Adaptive adversary classes force the engine to retain every round's
    /// transmitters and deliveries while it runs, for their view, even when
    /// the scenario asks for no recording; the outcome still carries only
    /// what the requested mode keeps (no history under `None`), and every
    /// class measures exactly what the `Full` run measures.
    #[test]
    fn adaptive_classes_force_history_retention(
        adversary in arb_adversary(),
        seed in 0u64..200,
    ) {
        let class = adversary.class().expect("declarative specs know their class");
        let scenario = Scenario::on(TopologySpec::DualClique { n: 12 })
            .algorithm(GlobalAlgorithm::Permuted)
            .adversary(adversary)
            .problem(ProblemSpec::GlobalFrom(0))
            .seed(seed)
            .max_rounds(200)
            .record_mode(RecordMode::None)
            .build()
            .expect("valid scenario");
        let outcome = scenario.run();
        let full = scenario.run_with(scenario.seed(), RecordMode::Full);
        prop_assert_eq!(outcome.record_mode, RecordMode::None, "{} adversary", class);
        prop_assert!(outcome.history.is_empty());
        prop_assert_eq!(outcome.metrics, full.metrics);
        prop_assert_eq!(outcome.completion_round, full.completion_round);
        prop_assert_eq!(full.history.len(), full.rounds_executed);
    }
}
