//! Integration tests for the two graph layouts: CSR rows alone, and rows
//! with the bit matrix the dual graph attaches to dense networks. The
//! layout is purely a memory/row-scan decision, so the same network run in
//! either layout (converted with `DualGraph::with_graph_backend`) must give
//! identical trial outcomes and byte-identical serialized measurements —
//! across every registered declarative topology family, on oblivious and
//! adaptive adversaries, for registered algorithms and a busy fixed-rate
//! beacon field, and against what the campaign cell executor stores.

mod support;

use dradio::prelude::*;
use proptest::prelude::*;
use support::{beacon_scenario, families, on_layout, scalar_loop};

/// The registered algorithm that fits `problem`'s kind.
fn algorithm_for(problem: &ProblemSpec) -> AlgorithmSpec {
    if problem.is_global() {
        GlobalAlgorithm::Permuted.into()
    } else {
        LocalAlgorithm::StaticDecay.into()
    }
}

/// The adversary classes every backend must agree under: oblivious static,
/// oblivious randomized, and the three adaptive attacks, which scan rows
/// in the layout's shape themselves.
fn adversaries() -> Vec<(&'static str, AdversarySpec)> {
    vec![
        ("static-none", AdversarySpec::StaticNone),
        ("static-all", AdversarySpec::StaticAll),
        ("iid", AdversarySpec::Iid { p: 0.5 }),
        (
            "dense-sparse",
            AdversarySpec::DenseSparse {
                density_factor: None,
            },
        ),
        ("greedy-collision", AdversarySpec::GreedyCollision),
        ("omniscient", AdversarySpec::Omniscient),
    ]
}

fn build(
    topology: &TopologySpec,
    algorithm: &AlgorithmSpec,
    adversary: &AdversarySpec,
    problem: &ProblemSpec,
    layout: GraphBackend,
) -> Scenario {
    on_layout(topology, layout)
        .algorithm(algorithm.clone())
        .adversary(adversary.clone())
        .problem(problem.clone())
        .seed(21)
        .max_rounds(300)
        .build()
        .expect("registry scenarios build in every layout")
}

#[test]
fn every_registered_topology_and_adversary_agrees_across_backends() {
    for (topology, problem) in families() {
        let algorithm = algorithm_for(&problem);
        for (name, adversary) in adversaries() {
            let label = format!("{}/{name}", topology.label());
            let dense = build(
                &topology,
                &algorithm,
                &adversary,
                &problem,
                GraphBackend::Dense,
            );
            let csr = build(
                &topology,
                &algorithm,
                &adversary,
                &problem,
                GraphBackend::Csr,
            );
            // The helper really converts the storage, and only the storage.
            assert_eq!(dense.dual().graph_backend(), GraphBackend::Dense);
            assert_eq!(csr.dual().g_prime().backend(), GraphBackend::Csr);
            assert_eq!(dense.dual(), csr.dual());

            // Trial-for-trial outcome equality on the scalar path...
            let dense_runner = ScenarioRunner::new(&dense).sequential();
            let csr_runner = ScenarioRunner::new(&csr).sequential();
            assert_eq!(
                dense_runner.collect_trials(4).unwrap(),
                csr_runner.collect_trials(4).unwrap(),
                "{label}: scalar outcomes diverged across backends"
            );

            // ...byte-identical serialized measurements...
            let dense_m = dense_runner.run_trials(4).unwrap();
            let csr_m = csr_runner.run_trials(4).unwrap();
            assert_eq!(dense_m, csr_m, "{label}: measurements diverged");
            assert_eq!(
                serde_json::to_string(&dense_m).unwrap(),
                serde_json::to_string(&csr_m).unwrap(),
                "{label}: measurement bytes diverged across backends"
            );

            // ...and a fixed-rate beacon field, whose every node may
            // transmit in every round: the CSR fan-out against the dense
            // reference loop.
            let dense_beacon = beacon_scenario(
                &topology,
                &adversary,
                &problem,
                Some(GraphBackend::Dense),
                21,
            );
            let csr_beacon =
                beacon_scenario(&topology, &adversary, &problem, Some(GraphBackend::Csr), 21);
            assert_eq!(
                scalar_loop(&ScenarioRunner::new(&dense_beacon), 4),
                ScenarioRunner::new(&csr_beacon)
                    .sequential()
                    .collect_trials(4)
                    .unwrap(),
                "{label}: CSR beacon fan-out diverged from the dense loop"
            );
        }
    }
}

#[test]
fn bracelet_attack_agrees_across_backends() {
    // The one adversary bound to a single topology family.
    let topology = TopologySpec::Bracelet { k: 3 };
    let algorithm: AlgorithmSpec = LocalAlgorithm::StaticDecay.into();
    let adversary = AdversarySpec::BraceletAttack;
    let problem = ProblemSpec::LocalHeadsA;
    let dense = build(
        &topology,
        &algorithm,
        &adversary,
        &problem,
        GraphBackend::Dense,
    );
    let csr = build(
        &topology,
        &algorithm,
        &adversary,
        &problem,
        GraphBackend::Csr,
    );
    assert_eq!(
        ScenarioRunner::new(&dense)
            .sequential()
            .collect_trials(6)
            .unwrap(),
        ScenarioRunner::new(&csr)
            .sequential()
            .collect_trials(6)
            .unwrap(),
    );
}

#[test]
fn campaign_cells_store_identical_bytes_under_every_backend() {
    use dradio::campaign::execute_cell;

    let scenario = ScenarioSpec {
        topology: TopologySpec::Grid { cols: 6, rows: 5 },
        algorithm: GlobalAlgorithm::Permuted.into(),
        adversary: AdversarySpec::Iid { p: 0.5 },
        problem: ProblemSpec::GlobalFrom(0),
        seed: 9,
        max_rounds: Some(400),
        collision_detection: false,
    };
    let cell = CellSpec {
        scenario: scenario.clone(),
        trials: TrialPolicy::Fixed(3),
        record_mode: RecordMode::None,
        curve: false,
    };
    let stored = execute_cell(&cell, false).unwrap();
    assert_eq!(stored.key, cell.key());

    // The cell executor measures the automatic (dense) layout; the same
    // cell measured on each forced layout gives the same bytes.
    for layout in [GraphBackend::Dense, GraphBackend::Csr] {
        let forced = on_layout(&scenario.topology, layout)
            .algorithm(scenario.algorithm.clone())
            .adversary(scenario.adversary.clone())
            .problem(scenario.problem.clone())
            .seed(scenario.seed)
            .max_rounds(400)
            .build()
            .unwrap();
        assert_eq!(forced.spec(), &scenario, "{layout}: the spec is unchanged");
        let runner = ScenarioRunner::new(&forced).sequential();
        let measurement = Measurement::from_trials(&runner.collect_trials(3).unwrap()).unwrap();
        assert_eq!(measurement, stored.measurement, "{layout}");
        assert_eq!(
            serde_json::to_string(&measurement).unwrap(),
            serde_json::to_string(&stored.measurement).unwrap(),
            "{layout}: measurement bytes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged degrees: sparse Erdős–Rényi networks have wildly uneven rows
    /// (including isolated nodes), so CSR row walks and scratch sizing face
    /// non-uniform shapes. Outcomes must still match the dense backend trial
    /// for trial, for a registered algorithm and for a fixed-rate beacon
    /// field.
    #[test]
    fn ragged_degree_networks_agree_across_backends(
        n in 8usize..48,
        p in 0.05f64..0.6,
        seed in 0u64..200,
        trials in 1usize..40,
    ) {
        let topology = TopologySpec::SparseErdosRenyi { n, p, seed };
        let algorithm: AlgorithmSpec = GlobalAlgorithm::Permuted.into();
        let adversary = AdversarySpec::Iid { p: 0.5 };
        let problem = ProblemSpec::GlobalFrom(0);
        let dense = build(&topology, &algorithm, &adversary, &problem, GraphBackend::Dense);
        let csr = build(&topology, &algorithm, &adversary, &problem, GraphBackend::Csr);
        let dense_runner = ScenarioRunner::new(&dense).sequential();
        let csr_runner = ScenarioRunner::new(&csr).sequential();
        let expected = dense_runner.collect_trials(trials).unwrap();
        prop_assert_eq!(&expected, &csr_runner.collect_trials(trials).unwrap());
        // Ragged trial counts over ragged rows, every node a transmitter.
        let dense_beacon =
            beacon_scenario(&topology, &adversary, &problem, Some(GraphBackend::Dense), 21);
        let csr_beacon =
            beacon_scenario(&topology, &adversary, &problem, Some(GraphBackend::Csr), 21);
        prop_assert_eq!(
            scalar_loop(&ScenarioRunner::new(&dense_beacon), trials),
            ScenarioRunner::new(&csr_beacon).sequential().collect_trials(trials).unwrap()
        );
    }

    /// Star graphs are the extreme ragged shape — one hub of degree n-1,
    /// n-1 leaves of degree 1 — and grids exercise the streamed row builder.
    #[test]
    fn extreme_degree_skew_agrees_across_backends(
        n in 4usize..32,
        seed in 0u64..100,
    ) {
        for topology in [
            TopologySpec::Star { n },
            TopologySpec::Grid { cols: n, rows: 3 },
        ] {
            let algorithm: AlgorithmSpec = GlobalAlgorithm::Permuted.into();
            let adversary = AdversarySpec::Iid { p: 0.5 };
            let problem = ProblemSpec::GlobalFrom(0);
            let dense = on_layout(&topology, GraphBackend::Dense)
                .algorithm(algorithm.clone())
                .adversary(adversary.clone())
                .problem(problem.clone())
                .seed(seed)
                .max_rounds(200)
                .build()
                .unwrap();
            let csr = on_layout(&topology, GraphBackend::Csr)
                .algorithm(algorithm)
                .adversary(adversary)
                .problem(problem)
                .seed(seed)
                .max_rounds(200)
                .build()
                .unwrap();
            prop_assert_eq!(
                ScenarioRunner::new(&dense).sequential().collect_trials(5).unwrap(),
                ScenarioRunner::new(&csr).sequential().collect_trials(5).unwrap()
            );
        }
    }
}
