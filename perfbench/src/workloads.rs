//! The four workloads: fixed campaigns of registered topology × algorithm ×
//! adversary × problem cells from the paper's experiments.
//!
//! Every cell runs a `Fixed` trial count, so a run does identical,
//! deterministic work for a given seed. Where the paper's completion times
//! have a heavy tail (the adaptive and geometric cells), the group also fixes
//! a round horizon below the typical completion time, so nearly every trial
//! runs exactly that many rounds and the work per run hardly depends on the
//! seed; the link-free and oblivious global cells finish on their own.
//!
//! Trial counts are small so that one campaign pass takes about a second: a
//! timed run repeats many passes and reports their median. Where a workload
//! sweeps topologies of different sizes, the largest comes first, so the
//! runner's threads do not wait on one large cell at the end of a pass.
//!
//! One workload seed derives the campaign seed (and with it every trial
//! seed) and every topology and problem seed, through the engine's own
//! stream derivation.

use dradio_campaign::{CampaignSpec, RoundsRule, SweepGroup, TrialPolicy};
use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_scenario::{AdversarySpec, AlgorithmSpec, ProblemSpec, TopologySpec};
use dradio_sim::derive_stream_seed;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "oblivious-global",
    "geo-local",
    "adaptive-global",
    "geo-scale-csr",
];

/// The workload seed the store digests and work counters are pinned at.
pub const DEFAULT_SEED: u64 = 9;

/// How many campaigns a timed run cycles through. Trial lengths depend on
/// the seed, so one campaign's work does too; a run that measures this many
/// campaigns of different seeds does nearly the same work at every seed.
pub const PASS_SEEDS: u64 = 8;

/// The seed of the `j`-th campaign a timed run at `seed` cycles through:
/// `seed` itself for `j = 0`, so the pins and the traced check apply to
/// that campaign, and streams of `seed` the workload seeds do not use after.
pub fn pass_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        seed
    } else {
        derive_stream_seed(seed, 2 + j)
    }
}

/// How big each workload's cells are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A few seconds for all four workloads together, for the benchmark's
    /// own tests. Same cells and backends, smaller networks and trial counts.
    Smoke,
}

impl Size {
    /// Parses `full` or `smoke`.
    pub fn parse(text: &str) -> Option<Size> {
        match text {
            "full" => Some(Size::Full),
            "smoke" => Some(Size::Smoke),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// The seeds one workload seed derives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// The campaign seed: every cell's scenario seed, hence every trial seed.
    pub campaign: u64,
    /// The seed of every random topology.
    pub topology: u64,
    /// The seed of every random broadcaster set.
    pub problem: u64,
}

impl Seeds {
    /// Derives the campaign, topology and problem seeds from `seed`.
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            campaign: derive_stream_seed(seed, 0),
            topology: derive_stream_seed(seed, 1),
            problem: derive_stream_seed(seed, 2),
        }
    }
}

/// The campaign of `workload` at `seed` and `size`, or `None` for an unknown
/// workload name.
pub fn campaign(workload: &str, seed: u64, size: Size) -> Option<CampaignSpec> {
    let seeds = Seeds::derive(seed);
    let smoke = size == Size::Smoke;
    let spec = CampaignSpec::named(format!("perfbench-{workload}")).seed(seeds.campaign);
    let global = || -> Vec<AlgorithmSpec> {
        vec![
            GlobalAlgorithm::Bgi.into(),
            GlobalAlgorithm::Permuted.into(),
        ]
    };
    let spec = match workload {
        // E2/E8: the oblivious link processes on the dual clique, plus
        // link-free cells where only processes and reception run.
        "oblivious-global" => {
            let (n, side, trials) = if smoke { (32, 4, 4) } else { (256, 16, 16) };
            spec.trials(TrialPolicy::Fixed(trials))
                .group(SweepGroup::product(
                    vec![TopologySpec::DualClique { n }],
                    global(),
                    vec![
                        AdversarySpec::StaticNone,
                        AdversarySpec::StaticAll,
                        AdversarySpec::Iid { p: 0.5 },
                        AdversarySpec::GilbertElliott {
                            p_fail: 0.1,
                            p_recover: 0.1,
                        },
                        AdversarySpec::DecayAware {
                            levels: None,
                            assumed_transmitters: Vec::new(),
                        },
                    ],
                    vec![ProblemSpec::GlobalFrom(0)],
                ))
                .group(SweepGroup::product(
                    vec![TopologySpec::Grid {
                        cols: side,
                        rows: side,
                    }],
                    global(),
                    vec![AdversarySpec::StaticNone],
                    vec![ProblemSpec::GlobalFrom(0)],
                ))
        }
        // E4: local broadcast on the random geometric network, dense backend.
        "geo-local" => {
            let (n, count, trials, horizon) = if smoke {
                (128, 32, 2, 200)
            } else {
                (1024, 256, 2, 1200)
            };
            spec.trials(TrialPolicy::Fixed(trials)).group(
                SweepGroup::product(
                    vec![random_geometric(n, seeds.topology)],
                    vec![
                        LocalAlgorithm::Geo.into(),
                        LocalAlgorithm::StaticDecay.into(),
                    ],
                    vec![AdversarySpec::Iid { p: 0.5 }],
                    vec![ProblemSpec::LocalRandom {
                        count,
                        seed: seeds.problem,
                    }],
                )
                .rounds(RoundsRule::Fixed(horizon)),
            )
        }
        // E5/E6: the online and offline adaptive link processes.
        "adaptive-global" => {
            let (sizes, trials, horizon) = if smoke {
                (vec![32, 16], 2, 64)
            } else {
                (vec![256, 128], 8, 256)
            };
            spec.trials(TrialPolicy::Fixed(trials)).group(
                SweepGroup::product(
                    sizes
                        .into_iter()
                        .map(|n| TopologySpec::DualClique { n })
                        .collect(),
                    global(),
                    vec![
                        AdversarySpec::DenseSparse {
                            density_factor: None,
                        },
                        AdversarySpec::GreedyCollision,
                        AdversarySpec::Omniscient,
                    ],
                    vec![ProblemSpec::GlobalFrom(0)],
                )
                .rounds(RoundsRule::Fixed(horizon)),
            )
        }
        // E4 at scale: large enough that the automatic backend picks CSR.
        "geo-scale-csr" => {
            let (n, count, trials, horizon) = if smoke {
                (2560, 640, 1, 16)
            } else {
                (16384, 4096, 2, 32)
            };
            spec.trials(TrialPolicy::Fixed(trials)).group(
                SweepGroup::cell(
                    random_geometric(n, seeds.topology),
                    LocalAlgorithm::StaticDecay,
                    AdversarySpec::Iid { p: 0.5 },
                    ProblemSpec::LocalRandom {
                        count,
                        seed: seeds.problem,
                    },
                )
                .rounds(RoundsRule::Fixed(horizon)),
            )
        }
        _ => return None,
    };
    Some(spec)
}

/// A random geometric network at the E4 density of 8 nodes per unit area:
/// reliable links within distance 1, grey-zone links out to `r = 1.5`.
fn random_geometric(n: usize, seed: u64) -> TopologySpec {
    TopologySpec::RandomGeometric {
        n,
        side: (n as f64 / 8.0).sqrt(),
        r: 1.5,
        seed,
    }
}
