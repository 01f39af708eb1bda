//! Executor-reuse equivalence across the entire registry: a single
//! [`TrialExecutor`] executing many seeds produces, for every registered
//! algorithm × adversary × problem spec class (and the custom escape
//! hatches), byte-for-byte the same [`ExecutionOutcome`] a fresh
//! single-shot simulator produces for each seed. Reuse is an amortization
//! decision, never a behavioural one; this suite is the proof the scenario
//! runner and the campaign layer lean on when they fan trials out over
//! per-worker executors.

use dradio::prelude::*;

const TRIALS: usize = 3;

/// Every declarative adversary spec that builds on a plain dual clique /
/// geometric topology (the bracelet attack needs bracelet metadata and gets
/// its own combination below).
fn general_adversaries() -> Vec<AdversarySpec> {
    vec![
        AdversarySpec::StaticNone,
        AdversarySpec::StaticAll,
        AdversarySpec::Iid { p: 0.5 },
        AdversarySpec::GilbertElliott {
            p_fail: 0.2,
            p_recover: 0.3,
        },
        AdversarySpec::Schedule {
            rounds: vec![vec![(0, 9)], vec![]],
        },
        AdversarySpec::DecayAware {
            levels: None,
            assumed_transmitters: vec![0, 1],
        },
        AdversarySpec::DenseSparse {
            density_factor: None,
        },
        AdversarySpec::GreedyCollision,
        AdversarySpec::Omniscient,
    ]
}

/// Every (algorithm spec × problem spec class) combination on a topology
/// that supports it, crossed later with every adversary.
fn algorithm_problem_topologies() -> Vec<(AlgorithmSpec, ProblemSpec, TopologySpec)> {
    let mut combos: Vec<(AlgorithmSpec, ProblemSpec, TopologySpec)> = Vec::new();
    for algorithm in GlobalAlgorithm::all() {
        combos.push((
            algorithm.into(),
            ProblemSpec::GlobalFrom(0),
            TopologySpec::DualClique { n: 16 },
        ));
    }
    for algorithm in LocalAlgorithm::all() {
        combos.push((
            algorithm.into(),
            ProblemSpec::Local {
                broadcasters: vec![0, 3, 9],
            },
            TopologySpec::DualClique { n: 16 },
        ));
        combos.push((
            algorithm.into(),
            ProblemSpec::LocalRandom { count: 4, seed: 5 },
            TopologySpec::RandomGeometric {
                n: 24,
                side: 2.0,
                r: 1.5,
                seed: 11,
            },
        ));
        combos.push((
            algorithm.into(),
            ProblemSpec::LocalSideA,
            TopologySpec::DualCliqueWithBridge {
                n: 16,
                t_a: 2,
                t_b: 11,
            },
        ));
    }
    combos
}

/// One reused executor, every record mode, several seeds — each execution
/// must equal the corresponding fresh single-shot run outcome for outcome.
/// Interleaving modes on the same executor also proves trial results do not
/// depend on what the executor ran before.
fn assert_executor_matches_fresh(label: &str, scenario: &Scenario) {
    let runner = scenario.runner();
    let mut executor = scenario.executor();
    for mode in [RecordMode::None, RecordMode::Full] {
        for trial in 0..TRIALS {
            let seed = runner.trial_seed(trial);
            let reused = executor.execute(seed, mode);
            let fresh = scenario.run_with(seed, mode);
            assert_eq!(
                reused, fresh,
                "{label}: trial {trial} under {mode} diverged between the reused executor \
                 and a fresh simulator"
            );
        }
    }
}

#[test]
fn every_algorithm_adversary_problem_combination_executes_identically() {
    for (algorithm, problem, topology) in algorithm_problem_topologies() {
        for adversary in general_adversaries() {
            let label = format!(
                "{} × {} × {}",
                algorithm.name(),
                adversary.label(),
                problem.label()
            );
            let scenario = Scenario::on(topology.clone())
                .algorithm(algorithm.clone())
                .adversary(adversary.clone())
                .problem(problem.clone())
                .seed(47)
                .max_rounds(400)
                .build()
                .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
            assert_executor_matches_fresh(&label, &scenario);
        }
    }
}

#[test]
fn bracelet_attack_combination_executes_identically() {
    let scenario = Scenario::on(TopologySpec::Bracelet { k: 3 })
        .algorithm(LocalAlgorithm::StaticDecay)
        .adversary(AdversarySpec::BraceletAttack)
        .problem(ProblemSpec::LocalHeadsA)
        .seed(47)
        .max_rounds(400)
        .build()
        .expect("bracelet scenario builds");
    assert_executor_matches_fresh("static-decay × bracelet-attack × local-heads-a", &scenario);
}

#[test]
fn custom_components_execute_identically() {
    // The escape hatches: a hand-written process factory and a hand-written
    // link recipe (which does not override `reset`, so the executor must
    // fall back to rebuilding it per trial).
    use dradio::sim::sampling::bernoulli;
    use rand::RngCore;
    use std::sync::Arc;

    struct Chatter {
        msg: Message,
    }
    impl Process for Chatter {
        fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
            if bernoulli(rng, 0.3) {
                Action::Transmit(self.msg.clone())
            } else {
                Action::Listen
            }
        }
        fn transmit_probability(&self, _round: Round) -> f64 {
            0.3
        }
    }
    let factory: ProcessFactory = Arc::new(|ctx: &ProcessContext| {
        Box::new(Chatter {
            msg: Message::plain(ctx.id, MessageKind::new(7), 0),
        }) as Box<dyn Process>
    });
    let scenario = Scenario::on(TopologySpec::DualClique { n: 12 })
        .custom_algorithm("chatter", factory)
        .custom_adversary("all-links", || Box::new(StaticLinks::all()))
        .problem(ProblemSpec::GlobalFrom(0))
        .seed(9)
        .max_rounds(400)
        .build()
        .expect("custom scenario builds");
    assert_executor_matches_fresh("chatter × all-links × global-from(0)", &scenario);
}

#[test]
fn adaptive_adversaries_keep_the_requested_mode_on_reused_executors_too() {
    // The record mode decides only what an outcome carries, per execution:
    // an adaptive adversary reads the same rounds either way, so on the
    // first trial and on every reused one a RecordMode::None execution
    // returns no history and measures exactly what a Full one does.
    let scenario = Scenario::on(TopologySpec::DualClique { n: 16 })
        .algorithm(GlobalAlgorithm::Permuted)
        .adversary(AdversarySpec::DenseSparse {
            density_factor: None,
        })
        .problem(ProblemSpec::GlobalFrom(0))
        .seed(5)
        .max_rounds(400)
        .build()
        .expect("adaptive scenario builds");
    let runner = scenario.runner();
    let mut executor = scenario.executor();
    for trial in 0..TRIALS {
        let seed = runner.trial_seed(trial);
        let outcome = executor.execute(seed, RecordMode::None);
        assert_eq!(
            outcome.record_mode,
            RecordMode::None,
            "trial {trial}: the requested mode is returned"
        );
        assert!(outcome.history.is_empty(), "trial {trial}");
        let full = executor.execute(seed, RecordMode::Full);
        assert_eq!(full.history.len(), full.rounds_executed);
        assert_eq!(outcome.metrics, full.metrics, "trial {trial}");
        assert_eq!(outcome.completion_round, full.completion_round);
    }
}

#[test]
fn parallel_fan_out_equals_fresh_per_trial_measurements() {
    // End to end: the runner's executor-per-worker fan-out (parallel and
    // sequential) aggregates to exactly the measurement obtained from one
    // fresh simulator per trial.
    let scenario = Scenario::on(TopologySpec::DualClique { n: 16 })
        .algorithm(GlobalAlgorithm::Permuted)
        .adversary(AdversarySpec::Iid { p: 0.5 })
        .problem(ProblemSpec::GlobalFrom(0))
        .seed(29)
        .max_rounds(20_000)
        .build()
        .expect("valid scenario");
    let runner = scenario.runner();
    let trials = 8;
    let fresh: Vec<_> = (0..trials).map(|t| runner.run_trial(t)).collect();
    assert_eq!(runner.collect_trials(trials).unwrap(), fresh);
    assert_eq!(runner.sequential().collect_trials(trials).unwrap(), fresh);
    assert_eq!(
        scenario.run_trials(trials).unwrap(),
        Measurement::from_trials(&fresh).unwrap()
    );
}
