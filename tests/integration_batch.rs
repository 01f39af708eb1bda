//! Integration tests for bit-sliced batch trial execution. Batching is the
//! runner's own decision: a trial fan-out takes the fixed-rate kernel
//! exactly when the adversary is oblivious, no history is recorded, and
//! every process declares a `FixedRate` profile. These suites pin that rule,
//! pin that the kernel's outcomes equal a scalar `TrialExecutor` loop trial
//! for trial in both graph layouts, and pin that ragged lane groups (1–63
//! live lanes) behave exactly like full words.

mod support;

use dradio::prelude::*;
use proptest::prelude::*;
use support::{beacon_scenario, families, scalar_loop};

/// Every oblivious adversary spec that fits any topology, including the
/// schedule- and algorithm-aware ones (the bracelet attack needs a bracelet
/// and is added per family).
fn oblivious_adversaries() -> Vec<(&'static str, AdversarySpec)> {
    vec![
        ("static-none", AdversarySpec::StaticNone),
        ("static-all", AdversarySpec::StaticAll),
        ("iid", AdversarySpec::Iid { p: 0.5 }),
        (
            "gilbert-elliott",
            AdversarySpec::GilbertElliott {
                p_fail: 0.3,
                p_recover: 0.4,
            },
        ),
        (
            "schedule",
            AdversarySpec::Schedule {
                rounds: vec![vec![(0, 4)], vec![], vec![(1, 5), (0, 4)]],
            },
        ),
        (
            "decay-aware",
            AdversarySpec::DecayAware {
                levels: None,
                assumed_transmitters: Vec::new(),
            },
        ),
    ]
}

/// The runner must take the kernel on its own, and its outcomes must equal
/// the scalar loop trial for trial.
fn assert_kernel_matches_scalar(label: &str, scenario: &Scenario, trials: usize) {
    let runner = ScenarioRunner::new(scenario).sequential();
    assert!(
        runner.uses_batch(),
        "{label}: expected the kernel (fixed-rate processes, oblivious adversary, no history)"
    );
    assert!(
        scenario.batch_executor().is_ok(),
        "{label}: the kernel must accept what the rule selects"
    );
    assert_eq!(
        runner.collect_trials(trials).unwrap(),
        scalar_loop(&runner, trials),
        "{label}: kernel and scalar trial outcomes diverged"
    );
}

/// A registered algorithm must stay on the scalar path and still match the
/// scalar loop.
fn assert_runs_scalar(label: &str, scenario: &Scenario, trials: usize) {
    let runner = ScenarioRunner::new(scenario).sequential();
    assert!(
        !runner.uses_batch(),
        "{label}: a registered algorithm entered the kernel"
    );
    assert_eq!(
        runner.collect_trials(trials).unwrap(),
        scalar_loop(&runner, trials),
        "{label}: runner and scalar loop diverged"
    );
}

#[test]
fn every_topology_family_takes_the_kernel_on_both_backends() {
    for (topology, problem) in families() {
        let mut adversaries = oblivious_adversaries();
        if matches!(
            topology,
            TopologySpec::Bracelet { .. } | TopologySpec::BraceletWithClasp { .. }
        ) {
            adversaries.push(("bracelet-attack", AdversarySpec::BraceletAttack));
        }
        for (name, adversary) in adversaries {
            let label = format!("{}/{name}", topology.label());
            let dense = beacon_scenario(
                &topology,
                &adversary,
                &problem,
                Some(GraphBackend::Dense),
                21,
            );
            let csr = beacon_scenario(&topology, &adversary, &problem, Some(GraphBackend::Csr), 21);
            assert_eq!(csr.dual().graph_backend(), GraphBackend::Csr);
            assert_kernel_matches_scalar(&format!("{label}/dense"), &dense, 9);
            assert_kernel_matches_scalar(&format!("{label}/csr"), &csr, 9);
            assert_eq!(
                ScenarioRunner::new(&dense)
                    .sequential()
                    .collect_trials(9)
                    .unwrap(),
                ScenarioRunner::new(&csr)
                    .sequential()
                    .collect_trials(9)
                    .unwrap(),
                "{label}: kernel outcomes diverged across backends"
            );
        }
    }
}

/// Every oblivious global combination: each registered algorithm runs scalar
/// (no paper algorithm declares a profile yet), the fixed-rate beacon takes
/// the kernel, and both match the scalar loop.
#[test]
fn every_batchable_global_combination_matches_scalar() {
    let topology = TopologySpec::DualClique { n: 16 };
    let problem = ProblemSpec::GlobalFrom(0);
    for (name, adversary) in oblivious_adversaries() {
        for algorithm in GlobalAlgorithm::all() {
            let scenario = Scenario::on(topology.clone())
                .algorithm(algorithm)
                .adversary(adversary.clone())
                .problem(problem.clone())
                .seed(11)
                .max_rounds(400)
                .build()
                .expect("valid scenario");
            assert_runs_scalar(&format!("{algorithm:?}/{name}/global"), &scenario, 9);
        }
        let beacon = beacon_scenario(&topology, &adversary, &problem, None, 11);
        assert_kernel_matches_scalar(&format!("beacon/{name}/global"), &beacon, 9);
    }
}

/// The local counterpart: every registered local algorithm runs scalar, the
/// beacon takes the kernel, on a random geometric deployment.
#[test]
fn every_batchable_local_combination_matches_scalar() {
    let topology = TopologySpec::RandomGeometric {
        n: 24,
        side: 2.0,
        r: 1.5,
        seed: 5,
    };
    let problem = ProblemSpec::LocalRandom { count: 4, seed: 6 };
    for (name, adversary) in oblivious_adversaries() {
        for algorithm in LocalAlgorithm::all() {
            let scenario = Scenario::on(topology.clone())
                .algorithm(algorithm)
                .adversary(adversary.clone())
                .problem(problem.clone())
                .seed(12)
                .max_rounds(400)
                .build()
                .expect("dense deployments connect");
            assert_runs_scalar(&format!("{algorithm:?}/{name}/local"), &scenario, 9);
        }
        let beacon = beacon_scenario(&topology, &adversary, &problem, None, 12);
        assert_kernel_matches_scalar(&format!("beacon/{name}/local"), &beacon, 9);
    }
}

#[test]
fn bracelet_attack_batches_and_matches_scalar() {
    let topology = TopologySpec::Bracelet { k: 3 };
    let adversary = AdversarySpec::BraceletAttack;
    let problem = ProblemSpec::LocalHeadsA;
    // The attack's dense rounds are all-dynamic decisions, which lanes hear
    // without validation: pin them on the automatic layout and on CSR rows.
    let beacon = beacon_scenario(&topology, &adversary, &problem, None, 13);
    assert_kernel_matches_scalar("beacon/bracelet-attack/local", &beacon, 9);
    let csr = beacon_scenario(&topology, &adversary, &problem, Some(GraphBackend::Csr), 13);
    assert_kernel_matches_scalar("beacon/bracelet-attack/local/csr", &csr, 9);
    let decay = Scenario::on(topology)
        .algorithm(LocalAlgorithm::StaticDecay)
        .adversary(adversary)
        .problem(problem)
        .seed(13)
        .max_rounds(300)
        .build()
        .expect("valid scenario");
    assert_runs_scalar("static-decay/bracelet-attack/local", &decay, 9);
}

#[test]
fn batch_measurements_agree_with_and_without_curves() {
    let scenario = beacon_scenario(
        &TopologySpec::DualClique { n: 16 },
        &AdversarySpec::Iid { p: 0.5 },
        &ProblemSpec::GlobalFrom(0),
        None,
        14,
    );
    let runner = ScenarioRunner::new(&scenario);
    assert!(runner.uses_batch());
    assert_eq!(
        runner.run_trials(70).unwrap(),
        Measurement::from_trials(&scalar_loop(&runner, 70)).unwrap()
    );
    // Curve streaming over lane groups must fold like the scalar loop.
    let curved = runner.curve(true);
    assert!(curved.uses_batch(), "CollisionsOnly keeps no history");
    let mut acc = curved.accumulator();
    let mut executor = curved.executor();
    for t in 0..70 {
        curved.run_trial_into(&mut executor, t, &mut acc);
    }
    assert_eq!(curved.run_trials(70).unwrap(), acc.finish().unwrap());
}

#[test]
fn adaptive_adversaries_and_full_recording_fall_back_to_scalar() {
    let topology = TopologySpec::DualClique { n: 12 };
    let problem = ProblemSpec::GlobalFrom(0);
    for adversary in [
        AdversarySpec::DenseSparse {
            density_factor: None,
        },
        AdversarySpec::GreedyCollision,
        AdversarySpec::Omniscient,
    ] {
        let adaptive = beacon_scenario(&topology, &adversary, &problem, None, 15);
        assert_runs_scalar(&format!("beacon/{}", adversary.label()), &adaptive, 5);
    }

    let oblivious = beacon_scenario(
        &topology,
        &AdversarySpec::Iid { p: 0.5 },
        &problem,
        None,
        16,
    );
    let full = ScenarioRunner::new(&oblivious).record_mode(RecordMode::Full);
    assert!(!full.uses_batch(), "history recording cannot batch");
    assert_eq!(full.collect_trials(5).unwrap(), scalar_loop(&full, 5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged lane groups: any trial count — below one word, exactly one
    /// word, or a full word plus a ragged tail — matches the scalar loop
    /// outcome for outcome.
    #[test]
    fn ragged_lane_groups_match_scalar(
        n in 8usize..20,
        trials in 1usize..150,
        seed in 0u64..500,
    ) {
        let scenario = beacon_scenario(
            &TopologySpec::DualClique { n: 2 * (n / 2) },
            &AdversarySpec::Iid { p: 0.5 },
            &ProblemSpec::GlobalFrom(0),
            None,
            seed,
        );
        let runner = ScenarioRunner::new(&scenario).sequential();
        prop_assert!(runner.uses_batch());
        prop_assert_eq!(
            runner.collect_trials(trials).unwrap(),
            scalar_loop(&runner, trials)
        );
    }
}
