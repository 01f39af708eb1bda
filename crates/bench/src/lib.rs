//! Benchmark support library for the PODC 2013 reproduction.
//!
//! The crate has two entry points:
//!
//! * the `repro` binary (`cargo run -p dradio-bench --bin repro --release`),
//!   which regenerates every experiment table (E1–E8, covering all rows of
//!   the paper's Figure 1 plus the checkable lemmas) and can also run ad-hoc
//!   serialized scenarios (`--scenario <json>`);
//! * the Criterion benches in `benches/` (one per experiment), which time a
//!   representative workload from each experiment so performance regressions
//!   in the simulator or the algorithms are visible.
//!
//! The functions here are the small shared workloads the Criterion benches
//! time, all built through the [`dradio_scenario`] API. They are deliberately
//! compact (single simulation runs, fixed sizes) so `cargo bench` completes
//! in minutes; the full sweeps live in [`dradio_analysis::experiments`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// lint: allow-file(D4) -- bench workloads run fixed known-good specs under a
// timing harness; aborting loudly on a broken fixture is the desired behavior
// (a Result would be swallowed by Criterion's closure signature)

use std::sync::Arc;

use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_core::global::BgiGlobalBroadcast;
use dradio_core::hitting::{play, HittingGame, SweepPlayer};
use dradio_core::reduction::{run_reduction, ReductionConfig};
use dradio_scenario::{AdversarySpec, ProblemSpec, Scenario, TopologySpec};
use dradio_sim::{
    Action, Assignment, ExecutionOutcome, LinkFactory, Message, MessageKind, Process,
    ProcessContext, ProcessFactory, RecordMode, Round, SimConfig, Simulator, StopCondition,
    TrialExecutor,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Message kind used by the [`engine_workload`] broadcasters.
pub const ENGINE_BENCH_KIND: MessageKind = MessageKind::new(40);

/// A process that transmits with a fixed probability every round — the
/// steady-state contention workload the engine benches time. Unlike the real
/// algorithms it never completes, so a fixed horizon measures exactly
/// `horizon` rounds of engine work.
struct UniformBeacon {
    p: f64,
    msg: Message,
}

impl Process for UniformBeacon {
    fn on_round(&mut self, _round: Round, rng: &mut dyn RngCore) -> Action {
        if dradio_sim::sampling::bernoulli(rng, self.p) {
            Action::Transmit(self.msg.clone())
        } else {
            Action::Listen
        }
    }
    fn transmit_probability(&self, _round: Round) -> f64 {
        self.p
    }
    fn name(&self) -> &'static str {
        "uniform-beacon"
    }
}

/// One [`UniformBeacon`] per node, each sending its own message at rate `p`.
fn beacon_factory(p: f64) -> ProcessFactory {
    Arc::new(move |ctx: &ProcessContext| {
        Box::new(UniformBeacon {
            p,
            msg: Message::plain(ctx.id, ENGINE_BENCH_KIND, ctx.id.index() as u64),
        }) as Box<dyn Process>
    })
}

/// Runs exactly `rounds` rounds of the engine on a pre-built topology with
/// every node transmitting i.i.d. with probability `p` under `adversary`,
/// and returns the outcome. This is the hot-path microbenchmark workload: it
/// exercises simulator construction, action collection, link filtering,
/// reception, feedback, and recording, with none of the algorithm-level
/// early termination that would make the round count depend on the seed —
/// and none of the topology-generation cost, which callers hoist out of the
/// timed region.
pub fn engine_workload(
    built: &dradio_scenario::BuiltTopology,
    adversary: &AdversarySpec,
    p: f64,
    rounds: usize,
    seed: u64,
    record_mode: RecordMode,
) -> ExecutionOutcome {
    let link = adversary.build(built).expect("bench adversary builds");
    let n = built.dual.len();
    Simulator::new(
        std::sync::Arc::clone(&built.dual),
        beacon_factory(p),
        Assignment::relays(n),
        link,
        SimConfig::default()
            .with_seed(seed)
            .with_max_rounds(rounds)
            .with_record_mode(record_mode),
    )
    .expect("bench simulator builds")
    .run(StopCondition::max_rounds())
}

/// A reusable [`TrialExecutor`] over the [`engine_workload`] configuration:
/// same processes, adversary recipe, and horizon, but built once so the
/// per-trial cost is the execution alone. `executor.execute(seed, mode)`
/// produces exactly the outcome of `engine_workload(..., seed, mode)`; the
/// trials/sec benches compare the two to measure setup amortization.
pub fn engine_executor(
    built: &dradio_scenario::BuiltTopology,
    adversary: &AdversarySpec,
    p: f64,
    rounds: usize,
) -> TrialExecutor {
    let n = built.dual.len();
    let spec = adversary.clone();
    let topology = built.clone();
    let link: LinkFactory =
        Arc::new(move || spec.build(&topology).expect("bench adversary builds"));
    TrialExecutor::new(
        Arc::clone(&built.dual),
        beacon_factory(p),
        Assignment::relays(n),
        link,
        StopCondition::max_rounds(),
        SimConfig::default()
            .with_max_rounds(rounds)
            .with_record_mode(RecordMode::None),
    )
    .expect("bench executor builds")
}

/// Measured cost (rounds to completion, or the budget if censored) of one
/// global broadcast run on a (dual) clique.
pub fn run_global_once(
    n: usize,
    algorithm: GlobalAlgorithm,
    adversary: AdversarySpec,
    static_model: bool,
    seed: u64,
) -> usize {
    let topology = if static_model {
        TopologySpec::Clique { n }
    } else {
        TopologySpec::DualClique { n }
    };
    Scenario::on(topology)
        .algorithm(algorithm)
        .adversary(adversary)
        .problem(ProblemSpec::GlobalFrom(0))
        .seed(seed)
        .max_rounds(200 * n + 2_000)
        .build()
        .expect("valid scenario")
        .run()
        .cost()
}

/// Measured cost of one local broadcast run on a random geometric deployment.
pub fn run_geo_local_once(n: usize, algorithm: LocalAlgorithm, seed: u64) -> usize {
    let side = (n as f64 / 8.0).sqrt().max(1.5);
    Scenario::on(TopologySpec::RandomGeometric {
        n,
        side,
        r: 1.5,
        seed,
    })
    .algorithm(algorithm)
    .adversary(AdversarySpec::Iid { p: 0.5 })
    .problem(ProblemSpec::LocalRandom {
        count: (n / 4).max(1),
        seed: seed + 1,
    })
    .seed(seed)
    .max_rounds(40 * n + 4_000)
    .build()
    .expect("dense deployments connect")
    .run()
    .cost()
}

/// Measured cost of one local broadcast run on the bracelet network under the
/// isolated-broadcast-function attacker.
pub fn run_bracelet_once(k: usize, seed: u64) -> usize {
    let n = 2 * k * k;
    Scenario::on(TopologySpec::Bracelet { k })
        .algorithm(LocalAlgorithm::StaticDecay)
        .adversary(AdversarySpec::BraceletAttack)
        .problem(ProblemSpec::LocalHeadsA)
        .seed(seed)
        .max_rounds(300 + 40 * n)
        .build()
        .expect("valid scenario")
        .run()
        .cost()
}

/// Convenience adversary specs for the benches, by short name.
pub fn adversary(name: &str, n: usize) -> AdversarySpec {
    match name {
        "none" => AdversarySpec::StaticNone,
        "all" => AdversarySpec::StaticAll,
        "iid" => AdversarySpec::Iid { p: 0.5 },
        "decay-aware" => {
            // Assume the source side (the first half of a dual clique) is the
            // transmitting set — the strongest oblivious prediction for the
            // global broadcast workloads these benches run.
            AdversarySpec::DecayAware {
                levels: None,
                assumed_transmitters: (0..n / 2).collect(),
            }
        }
        "online" => AdversarySpec::DenseSparse {
            density_factor: None,
        },
        "offline" => AdversarySpec::Omniscient,
        other => panic!("unknown adversary {other}"),
    }
}

/// One sweep-player hitting game (the E7 baseline workload).
pub fn run_hitting_once(beta: u64, seed: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut game = HittingGame::with_random_target(beta, &mut rng).expect("beta >= 2");
    let mut player = SweepPlayer::new(beta);
    play(&mut game, &mut player, beta as usize, &mut rng).unwrap_or(beta as usize)
}

/// One Theorem 3.1 reduction run (the E7 reduction workload).
pub fn run_reduction_once(beta: usize, seed: u64) -> usize {
    let factory = BgiGlobalBroadcast::factory(2 * beta);
    run_reduction(
        beta,
        beta / 2 + 1,
        &factory,
        &ReductionConfig::default(),
        seed,
    )
    .expect("valid game")
    .total_guesses
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_workload_completes() {
        let cost = run_global_once(
            32,
            GlobalAlgorithm::Permuted,
            adversary("iid", 32),
            false,
            1,
        );
        assert!(cost > 0);
        assert!(cost < 200 * 32 + 2_000);
    }

    #[test]
    fn engine_executor_matches_engine_workload() {
        let built = TopologySpec::DualClique { n: 16 }.build().unwrap();
        let adversary = AdversarySpec::Iid { p: 0.5 };
        let mut executor = engine_executor(&built, &adversary, 0.2, 12);
        for seed in 0..5u64 {
            let reused = executor.execute(seed, RecordMode::None);
            let fresh = engine_workload(&built, &adversary, 0.2, 12, seed, RecordMode::None);
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn geo_local_workload_completes() {
        let cost = run_geo_local_once(48, LocalAlgorithm::Geo, 2);
        assert!(cost > 0);
    }

    #[test]
    fn bracelet_workload_runs() {
        let cost = run_bracelet_once(3, 3);
        assert!(cost > 0);
    }

    #[test]
    fn hitting_workloads_run() {
        assert!(run_hitting_once(64, 4) <= 64);
        assert!(run_reduction_once(8, 5) > 0);
    }

    #[test]
    #[should_panic(expected = "unknown adversary")]
    fn unknown_adversary_panics() {
        let _ = adversary("bogus", 8);
    }
}
