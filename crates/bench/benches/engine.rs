//! Engine hot-path benches.
//!
//! * `round/*` times a fixed number of simulator rounds (steady-state
//!   uniform-probability broadcasters, so every seed runs exactly the same
//!   number of rounds) on clique, grid, and random geometric topologies at
//!   n ∈ {64, 256, 1024}, plus three history-free link paths: the online
//!   adaptive dense/sparse attacker on the 256-node dual clique, whose every
//!   round is one all-dynamic decision folded over `G'`; Gilbert–Elliott
//!   links on the same network, an opaque listed decision whose every edge
//!   is validated and heard at its listener; and `Iid` links on a 4096-node
//!   random geometric network, whose automatic layout is CSR. The printed
//!   mean is for `ROUNDS` rounds; divide by `ROUNDS` for the per-round cost.
//!   Those beacons never sleep; `geo_local_init/1024` instead runs the
//!   registered Geo algorithm for the first `GEO_ROUNDS` rounds of its
//!   initialization on the 1024-node random geometric network under `Iid`
//!   links, where most processes are dormant and most rounds are resolved
//!   by pushing the few transmitters' rows (mean per `GEO_ROUNDS` rounds).
//!   `dual_clique_greedy_collision/256` and `dual_clique_omniscient/256` run
//!   the registered Bgi broadcast from node 0 on the dual clique for
//!   `BGI_ROUNDS` rounds under the greedy and omniscient attacks, which
//!   decide from each round's transmit probabilities and actions (mean per
//!   `BGI_ROUNDS` rounds).
//! * `trials_per_sec/*` times many *short* executions (the shape of most
//!   campaign cells) through a reused [`dradio_sim::TrialExecutor`] versus a
//!   fresh simulator per trial — isolating per-trial setup amortization,
//!   which is what dominates once the round loop itself is cheap. The
//!   printed mean is for `TRIALS` trials; trials/sec = `TRIALS` / mean. The
//!   `*_curve` variant runs the same reused-executor trials under
//!   `RecordMode::CollisionsOnly` and streams each trial's collision curve
//!   into a `ContentionCurve` — the cost a `"curve": true` campaign cell
//!   pays over the history-free default, pinning the cheap-by-default
//!   instrumentation claim with numbers.
//! * `campaign/*` times the campaign orchestration overhead per cell:
//!   expansion, content-hash keying, and store appends — the costs that must
//!   stay invisible next to the simulation itself.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use dradio_bench::{engine_executor, engine_workload};
use dradio_campaign::{CampaignSpec, CellRecord, ResultStore, RoundsRule, SweepGroup, TrialPolicy};
use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_core::local::GeoConfig;
use dradio_graphs::NodeId;
use dradio_scenario::{
    AdversarySpec, BuiltTopology, Completion, ContentionCurve, GraphBackend, Measurement,
    ProblemSpec, RecordMode, Summary, TopologySpec,
};
use dradio_sim::{
    derive_stream_seed, Assignment, ExecutionOutcome, ProcessFactory, SimConfig, Simulator,
    StopCondition,
};

/// Rounds per measured workload run.
const ROUNDS: usize = 32;

/// Transmit probability of every node (steady contention, no completion).
const P: f64 = 0.1;

fn grid_side(n: usize) -> usize {
    (n as f64).sqrt().round() as usize
}

fn topologies(n: usize) -> Vec<(&'static str, TopologySpec, AdversarySpec)> {
    vec![
        (
            "clique",
            TopologySpec::Clique { n },
            AdversarySpec::StaticNone,
        ),
        (
            "grid",
            TopologySpec::Grid {
                cols: grid_side(n),
                rows: grid_side(n),
            },
            AdversarySpec::StaticNone,
        ),
        (
            "random",
            TopologySpec::RandomGeometric {
                n,
                side: (n as f64 / 8.0).sqrt().max(1.5),
                r: 1.5,
                seed: 9,
            },
            AdversarySpec::Iid { p: 0.5 },
        ),
    ]
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_round");
    group.sample_size(10);
    for n in [64usize, 256, 1024] {
        for (name, topology, adversary) in topologies(n) {
            // Topology generation is hoisted out of the timed region: the
            // bench times the engine (simulator construction + ROUNDS
            // rounds), not the graph builders.
            let built = topology.build().expect("bench topology builds");
            for (suffix, mode) in [("full", RecordMode::Full), ("none", RecordMode::None)] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}_{suffix}"), n),
                    &n,
                    |b, _| {
                        let mut seed = 0u64;
                        b.iter(|| {
                            seed += 1;
                            engine_workload(&built, &adversary, P, ROUNDS, seed, mode)
                                .metrics
                                .deliveries
                        });
                    },
                );
            }
        }
    }
    // P · 256 = 25.6 expected transmitters clear the attacker's log2 256 = 8
    // threshold, so every round activates every dynamic edge.
    let n = 256;
    let built = TopologySpec::DualClique { n }
        .build()
        .expect("bench topology builds");
    let dense_sparse = AdversarySpec::DenseSparse {
        density_factor: None,
    };
    bench_history_free(
        &mut group,
        "dual_clique_dense_sparse",
        &built,
        &dense_sparse,
    );
    // Bursty links on the same network: each round is an opaque listed
    // decision of about half its 16 383 dynamic edges (the chains start and
    // stay at availability 1/2), every edge validated and heard.
    let gilbert_elliott = AdversarySpec::GilbertElliott {
        p_fail: 0.1,
        p_recover: 0.1,
    };
    bench_history_free(
        &mut group,
        "dual_clique_gilbert_elliott",
        &built,
        &gilbert_elliott,
    );
    // The greedy and omniscient attacks against the registered Bgi
    // broadcast from node 0, the shape of the benchmark's adaptive cells.
    // Not through the uniform beacons: at P = 0.1 every receiver's reliable
    // expectation is about 12.7, outside the greedy attack's danger zone,
    // so its candidate path would never run.
    for (name, adversary) in [
        (
            "dual_clique_greedy_collision",
            AdversarySpec::GreedyCollision,
        ),
        ("dual_clique_omniscient", AdversarySpec::Omniscient),
    ] {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let factory = GlobalAlgorithm::Bgi.factory(n, built.dual.max_degree());
                let assignment = Assignment::global(n, NodeId::new(0));
                registered_workload(&built, factory, assignment, &adversary, BGI_ROUNDS, seed)
                    .metrics
                    .deliveries
            });
        });
    }
    // The random geometric network's automatic layout is CSR rows alone
    // (its edges fill far less than 1/16 of a matrix): reception walks
    // sorted rows while `Iid` coins are heard at their listeners.
    let (_, random, iid) = topologies(4096)
        .into_iter()
        .find(|(name, ..)| *name == "random")
        .expect("the random family is registered");
    let built = random.build().expect("bench topology builds");
    assert_eq!(built.dual.graph_backend(), GraphBackend::Csr);
    bench_history_free(&mut group, "random_csr", &built, &iid);
    // The registered Geo algorithm on the random geometric network at
    // n = 1024: its first GEO_ROUNDS rounds lie inside the initialization
    // stage, where only the phase's leaders and the nodes that heard
    // something are awake, so most rounds are dormant and pushed.
    let (_, random, iid) = topologies(1024)
        .into_iter()
        .find(|(name, ..)| *name == "random")
        .expect("the random family is registered");
    let built = random.build().expect("bench topology builds");
    let n = built.dual.len();
    assert!(GeoConfig::scaled(n, built.dual.max_degree()).init_rounds() > GEO_ROUNDS);
    // Every fourth node a broadcaster.
    let broadcasters: Vec<NodeId> = (0..n).step_by(4).map(NodeId::new).collect();
    group.bench_with_input(BenchmarkId::new("geo_local_init", n), &n, |b, _| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let factory = LocalAlgorithm::Geo.factory(n, built.dual.max_degree());
            let assignment = Assignment::local(n, &broadcasters);
            registered_workload(&built, factory, assignment, &iid, GEO_ROUNDS, seed)
                .metrics
                .deliveries
        });
    });
    group.finish();
}

/// Rounds of the Geo initialization bench.
const GEO_ROUNDS: usize = 200;

/// Rounds of the adaptive-attack benches: the benchmark's adaptive horizon.
const BGI_ROUNDS: usize = 256;

/// `rounds` rounds of a registered algorithm's processes (`factory`, with
/// roles from `assignment`) on `built` under `adversary` from round 0,
/// keeping no history.
fn registered_workload(
    built: &BuiltTopology,
    factory: ProcessFactory,
    assignment: Assignment,
    adversary: &AdversarySpec,
    rounds: usize,
    seed: u64,
) -> ExecutionOutcome {
    Simulator::new(
        Arc::clone(&built.dual),
        factory,
        assignment,
        adversary.build(built).expect("bench adversary builds"),
        SimConfig::default()
            .with_seed(seed)
            .with_max_rounds(rounds)
            .with_record_mode(RecordMode::None),
    )
    .expect("bench simulator builds")
    .run(StopCondition::max_rounds())
}

/// Times `ROUNDS` rounds of the uniform broadcasters on `built` under
/// `adversary`, keeping no history.
fn bench_history_free(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    built: &BuiltTopology,
    adversary: &AdversarySpec,
) {
    let n = built.dual.len();
    group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            engine_workload(built, adversary, P, ROUNDS, seed, RecordMode::None)
                .metrics
                .deliveries
        });
    });
}

/// Rounds per trial in the trials/sec group: short on purpose, so per-trial
/// setup (the quantity the executor amortizes away) dominates the fresh
/// baseline the way it dominates short campaign cells.
const SHORT_ROUNDS: usize = 4;

/// Trials per measured iteration of the trials/sec group.
const TRIALS: usize = 16;

fn bench_trials_per_sec(c: &mut Criterion) {
    let mut group = c.benchmark_group("trials_per_sec");
    group.sample_size(10);
    for n in [64usize, 256, 1024] {
        for (name, topology, adversary) in topologies(n) {
            let built = topology.build().expect("bench topology builds");
            // Reused: one executor, per-trial cost is the execution alone.
            group.bench_with_input(BenchmarkId::new(format!("{name}_reused"), n), &n, |b, _| {
                let mut executor = engine_executor(&built, &adversary, P, SHORT_ROUNDS);
                let mut batch = 0u64;
                b.iter(|| {
                    batch += 1;
                    (0..TRIALS as u64)
                        .map(|t| {
                            let seed = derive_stream_seed(batch, t);
                            executor.execute(seed, RecordMode::None).metrics.deliveries
                        })
                        .sum::<usize>()
                });
            });
            // Curve: the reused executor under CollisionsOnly recording,
            // with each trial's per-round collision counts streamed into a
            // shared contention curve — what a curve-requesting campaign
            // cell pays per trial over the history-free default.
            group.bench_with_input(BenchmarkId::new(format!("{name}_curve"), n), &n, |b, _| {
                let mut executor = engine_executor(&built, &adversary, P, SHORT_ROUNDS);
                let mut batch = 0u64;
                b.iter(|| {
                    batch += 1;
                    let mut curve = ContentionCurve::new();
                    let total: usize = (0..TRIALS as u64)
                        .map(|t| {
                            let seed = derive_stream_seed(batch, t);
                            let outcome = executor.execute(seed, RecordMode::CollisionsOnly);
                            curve.push_trial(&outcome.collisions_per_round);
                            outcome.metrics.deliveries
                        })
                        .sum();
                    total + curve.len()
                });
            });
            // Fresh: the pre-reuse fan-out shape — every trial copies the
            // network and constructs a simulator from scratch (identical
            // outcomes, pinned by the lib tests).
            group.bench_with_input(BenchmarkId::new(format!("{name}_fresh"), n), &n, |b, _| {
                let mut batch = 0u64;
                b.iter(|| {
                    batch += 1;
                    (0..TRIALS as u64)
                        .map(|t| {
                            let seed = derive_stream_seed(batch, t);
                            let per_trial =
                                dradio_scenario::BuiltTopology::plain(built.dual.as_ref().clone());
                            engine_workload(
                                &per_trial,
                                &adversary,
                                P,
                                SHORT_ROUNDS,
                                seed,
                                RecordMode::None,
                            )
                            .metrics
                            .deliveries
                        })
                        .sum::<usize>()
                });
            });
        }
    }
    group.finish();
}

fn example_sweep() -> CampaignSpec {
    CampaignSpec::named("bench-sweep")
        .seed(3)
        .trials(TrialPolicy::Fixed(2))
        .group(
            SweepGroup::product(
                (3..9).map(|k| TopologySpec::Clique { n: 1 << k }).collect(),
                vec![
                    GlobalAlgorithm::Bgi.into(),
                    GlobalAlgorithm::Permuted.into(),
                    GlobalAlgorithm::RoundRobin.into(),
                ],
                vec![AdversarySpec::StaticNone, AdversarySpec::Iid { p: 0.5 }],
                vec![ProblemSpec::GlobalFrom(0)],
            )
            .rounds(RoundsRule::PerNode {
                per_node: 100,
                base: 1_000,
                min_nodes: 8,
            }),
        )
}

fn bench_campaign_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_overhead");
    group.sample_size(50);

    let spec = example_sweep();
    let cells = spec.expand().expect("bench sweep expands");
    group.bench_with_input(
        BenchmarkId::new("expand", cells.len()),
        &cells.len(),
        |b, _| {
            b.iter(|| spec.expand().expect("bench sweep expands").len());
        },
    );

    group.bench_with_input(
        BenchmarkId::new("key", cells.len()),
        &cells.len(),
        |b, _| {
            b.iter(|| cells.iter().map(|cell| cell.key().len()).sum::<usize>());
        },
    );

    let records: Vec<CellRecord> = cells
        .iter()
        .map(|cell| CellRecord {
            key: cell.key(),
            cell: cell.clone(),
            trials_run: 2,
            measurement: Measurement {
                rounds: Summary::from_counts(&[10, 12]),
                completion: Completion {
                    completed: 2,
                    trials: 2,
                },
                mean_collisions: 3.5,
                contention: None,
            },
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("store_append", records.len()),
        &records.len(),
        |b, _| {
            b.iter(|| {
                let mut store = ResultStore::in_memory();
                for record in &records {
                    store.append(record.clone()).expect("in-memory append");
                }
                store.len()
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_rounds,
    bench_trials_per_sec,
    bench_campaign_overhead
);
criterion_main!(benches);
