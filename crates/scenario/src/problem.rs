//! Declarative problem and algorithm specifications.

use dradio_core::algorithms::{GlobalAlgorithm, LocalAlgorithm};
use dradio_core::problem::{GlobalBroadcastProblem, LocalBroadcastProblem};
use dradio_graphs::NodeId;
use dradio_sim::{Assignment, History, StopCondition};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::error::{Result, ScenarioError};
use crate::topology::BuiltTopology;

/// Both problems of [`dradio_core::problem`], as pure serializable values.
///
/// A problem resolves — against a concrete topology — to the role
/// [`Assignment`], the [`StopCondition`] and the correctness verifier the
/// simulator needs.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// Global broadcast from the given source node index.
    GlobalFrom(usize),
    /// Local broadcast from an explicit broadcaster set (node indices).
    Local {
        /// The broadcaster set `B`.
        broadcasters: Vec<usize>,
    },
    /// Local broadcast from `count` broadcasters sampled uniformly (without
    /// replacement) using the given dedicated seed.
    LocalRandom {
        /// Number of broadcasters to sample.
        count: usize,
        /// Seed of the sampling stream (independent of the execution seed).
        seed: u64,
    },
    /// Local broadcast from side A of a dual clique (requires a
    /// [`TopologySpec::DualCliqueWithBridge`](crate::TopologySpec::DualCliqueWithBridge)
    /// topology).
    LocalSideA,
    /// Local broadcast from the band heads of side A of a bracelet (requires
    /// a bracelet topology).
    LocalHeadsA,
}

serde::serde_enum!(ProblemSpec {
    GlobalFrom(usize),
    Local { broadcasters: Vec<usize> },
    LocalRandom { count: usize, seed: u64 },
    LocalSideA,
    LocalHeadsA,
});

impl ProblemSpec {
    /// A short human-readable label for tables and traces.
    pub fn label(&self) -> String {
        match self {
            ProblemSpec::GlobalFrom(source) => format!("global-from({source})"),
            ProblemSpec::Local { broadcasters } => format!("local({} nodes)", broadcasters.len()),
            ProblemSpec::LocalRandom { count, seed } => {
                format!("local-random({count}, seed {seed})")
            }
            ProblemSpec::LocalSideA => "local-side-a".into(),
            ProblemSpec::LocalHeadsA => "local-heads-a".into(),
        }
    }

    /// Returns `true` for the global broadcast problem.
    pub fn is_global(&self) -> bool {
        matches!(self, ProblemSpec::GlobalFrom(_))
    }

    /// Resolves the spec against a topology.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Incompatible`] if the spec needs construction
    /// metadata the topology does not carry, or references out-of-range
    /// nodes.
    pub fn resolve(&self, topology: &BuiltTopology) -> Result<ResolvedProblem> {
        let n = topology.len();
        let out_of_range = |what: &str, index: usize| ScenarioError::Incompatible {
            reason: format!("{what} {index} is out of range for the {n}-node network"),
        };
        match self {
            ProblemSpec::GlobalFrom(source) => {
                if *source >= n {
                    return Err(out_of_range("global broadcast source", *source));
                }
                Ok(ResolvedProblem::Global(GlobalBroadcastProblem::new(
                    NodeId::new(*source),
                )))
            }
            ProblemSpec::Local { broadcasters } => {
                if let Some(&bad) = broadcasters.iter().find(|&&b| b >= n) {
                    return Err(out_of_range("broadcaster", bad));
                }
                let nodes: Vec<NodeId> = broadcasters.iter().map(|&b| NodeId::new(b)).collect();
                Ok(ResolvedProblem::Local(LocalBroadcastProblem::new(nodes)))
            }
            ProblemSpec::LocalRandom { count, seed } => {
                if *count > n {
                    return Err(ScenarioError::Incompatible {
                        reason: format!("cannot sample {count} broadcasters from {n} nodes"),
                    });
                }
                let mut rng = ChaCha8Rng::seed_from_u64(*seed);
                Ok(ResolvedProblem::Local(LocalBroadcastProblem::random(
                    &topology.dual,
                    *count,
                    &mut rng,
                )))
            }
            ProblemSpec::LocalSideA => {
                let dc =
                    topology
                        .dual_clique
                        .as_ref()
                        .ok_or_else(|| ScenarioError::Incompatible {
                            reason:
                                "the side-A broadcaster set needs a dual clique topology built \
                                 with an explicit bridge"
                                    .into(),
                        })?;
                Ok(ResolvedProblem::Local(LocalBroadcastProblem::new(
                    dc.side_a().to_vec(),
                )))
            }
            ProblemSpec::LocalHeadsA => {
                let bracelet =
                    topology
                        .bracelet
                        .as_ref()
                        .ok_or_else(|| ScenarioError::Incompatible {
                            reason: "the heads-of-side-A broadcaster set needs a bracelet topology"
                                .into(),
                        })?;
                Ok(ResolvedProblem::Local(LocalBroadcastProblem::new(
                    bracelet.heads_a(),
                )))
            }
        }
    }
}

/// A problem resolved against a concrete topology.
#[derive(Debug, Clone)]
pub enum ResolvedProblem {
    /// A global broadcast problem.
    Global(GlobalBroadcastProblem),
    /// A local broadcast problem.
    Local(LocalBroadcastProblem),
}

impl ResolvedProblem {
    /// The role assignment for the given topology.
    pub fn assignment(&self, topology: &BuiltTopology) -> Assignment {
        match self {
            ResolvedProblem::Global(p) => p.assignment(topology.len()),
            ResolvedProblem::Local(p) => p.assignment(topology.len()),
        }
    }

    /// The completion condition for the given topology.
    pub fn stop_condition(&self, topology: &BuiltTopology) -> StopCondition {
        match self {
            ResolvedProblem::Global(p) => p.stop_condition(),
            ResolvedProblem::Local(p) => p.stop_condition(&topology.dual),
        }
    }

    /// Checks the recorded history against the problem's correctness
    /// criterion.
    pub fn verify(&self, topology: &BuiltTopology, history: &History) -> bool {
        match self {
            ResolvedProblem::Global(p) => p.verify(&topology.dual, history),
            ResolvedProblem::Local(p) => p.verify(&topology.dual, history),
        }
    }
}

/// A broadcast algorithm: one of the registry enums of
/// [`dradio_core::algorithms`].
///
/// Global algorithms pair with [`ProblemSpec::GlobalFrom`]; local algorithms
/// pair with the local problems. [`ScenarioBuilder::build`] rejects
/// mismatches.
///
/// [`ScenarioBuilder::build`]: crate::ScenarioBuilder::build
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// A global (source-to-all) broadcast algorithm.
    Global(GlobalAlgorithm),
    /// A local (to-all-neighbors) broadcast algorithm.
    Local(LocalAlgorithm),
    /// A process factory supplied directly through
    /// [`ScenarioBuilder::custom_algorithm`](crate::ScenarioBuilder::custom_algorithm).
    ///
    /// The name is recorded for serialized specs; the factory itself is not
    /// serialized, so building a deserialized `Custom` spec fails with
    /// [`ScenarioError::CustomUnavailable`]
    /// unless re-attached.
    Custom {
        /// Descriptive name of the attached algorithm.
        name: String,
    },
}

serde::serde_enum!(AlgorithmSpec {
    Global(GlobalAlgorithm),
    Local(LocalAlgorithm),
    Custom { name: String },
});

impl AlgorithmSpec {
    /// Short name used in tables.
    pub fn name(&self) -> &str {
        match self {
            AlgorithmSpec::Global(a) => a.name(),
            AlgorithmSpec::Local(a) => a.name(),
            AlgorithmSpec::Custom { name } => name,
        }
    }

    /// Whether the algorithm targets the global problem (`None` when the
    /// spec is custom and its problem kind is unknown).
    pub fn is_global(&self) -> Option<bool> {
        match self {
            AlgorithmSpec::Global(_) => Some(true),
            AlgorithmSpec::Local(_) => Some(false),
            AlgorithmSpec::Custom { .. } => None,
        }
    }

    /// Builds the process factory for a network with `n` nodes and maximum
    /// degree `max_degree`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::CustomUnavailable`] for [`AlgorithmSpec::Custom`]:
    /// custom factories live on the builder, not on the spec.
    pub fn factory(&self, n: usize, max_degree: usize) -> Result<dradio_sim::ProcessFactory> {
        match self {
            AlgorithmSpec::Global(a) => Ok(a.factory(n, max_degree)),
            AlgorithmSpec::Local(a) => Ok(a.factory(n, max_degree)),
            AlgorithmSpec::Custom { .. } => {
                Err(ScenarioError::CustomUnavailable { what: "algorithm" })
            }
        }
    }
}

impl From<GlobalAlgorithm> for AlgorithmSpec {
    fn from(a: GlobalAlgorithm) -> Self {
        AlgorithmSpec::Global(a)
    }
}

impl From<LocalAlgorithm> for AlgorithmSpec {
    fn from(a: LocalAlgorithm) -> Self {
        AlgorithmSpec::Local(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologySpec;

    #[test]
    fn global_problem_resolves_with_assignment_and_stop() {
        let topo = TopologySpec::DualClique { n: 8 }.build().unwrap();
        let resolved = ProblemSpec::GlobalFrom(0).resolve(&topo).unwrap();
        let assignment = resolved.assignment(&topo);
        assert_eq!(assignment.source(), Some(NodeId::new(0)));
        assert!(resolved.stop_condition(&topo).max_node_index().is_some());
    }

    #[test]
    fn out_of_range_problems_are_rejected() {
        let topo = TopologySpec::Line { n: 4 }.build().unwrap();
        assert!(ProblemSpec::GlobalFrom(4).resolve(&topo).is_err());
        assert!(ProblemSpec::Local {
            broadcasters: vec![0, 9]
        }
        .resolve(&topo)
        .is_err());
        assert!(ProblemSpec::LocalRandom { count: 5, seed: 0 }
            .resolve(&topo)
            .is_err());
    }

    #[test]
    fn metadata_problems_need_their_topology() {
        let line = TopologySpec::Line { n: 4 }.build().unwrap();
        assert!(ProblemSpec::LocalSideA.resolve(&line).is_err());
        assert!(ProblemSpec::LocalHeadsA.resolve(&line).is_err());

        let dc = TopologySpec::DualCliqueWithBridge {
            n: 8,
            t_a: 0,
            t_b: 4,
        }
        .build()
        .unwrap();
        match ProblemSpec::LocalSideA.resolve(&dc).unwrap() {
            ResolvedProblem::Local(p) => assert_eq!(p.broadcasters().len(), 4),
            other => panic!("unexpected {other:?}"),
        }

        let bracelet = TopologySpec::Bracelet { k: 3 }.build().unwrap();
        match ProblemSpec::LocalHeadsA.resolve(&bracelet).unwrap() {
            ResolvedProblem::Local(p) => assert_eq!(p.broadcasters().len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn random_broadcasters_are_reproducible_from_the_spec_seed() {
        let topo = TopologySpec::Clique { n: 20 }.build().unwrap();
        let spec = ProblemSpec::LocalRandom { count: 6, seed: 9 };
        let a = match spec.resolve(&topo).unwrap() {
            ResolvedProblem::Local(p) => p.broadcasters().to_vec(),
            other => panic!("unexpected {other:?}"),
        };
        let b = match spec.resolve(&topo).unwrap() {
            ResolvedProblem::Local(p) => p.broadcasters().to_vec(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn algorithm_spec_converts_and_names() {
        let g: AlgorithmSpec = GlobalAlgorithm::Permuted.into();
        assert_eq!(g.is_global(), Some(true));
        assert_eq!(g.name(), "permuted-decay");
        assert!(g.factory(8, 4).is_ok());
        let l: AlgorithmSpec = LocalAlgorithm::Geo.into();
        assert_eq!(l.is_global(), Some(false));
        assert_eq!(l.name(), "geo-seeded");
        let c = AlgorithmSpec::Custom {
            name: "shared-decay".into(),
        };
        assert_eq!(c.is_global(), None);
        assert!(c.factory(8, 4).is_err());
    }

    #[test]
    fn specs_round_trip_through_serde() {
        let specs = vec![
            ProblemSpec::GlobalFrom(3),
            ProblemSpec::Local {
                broadcasters: vec![1, 2],
            },
            ProblemSpec::LocalRandom { count: 4, seed: 8 },
            ProblemSpec::LocalSideA,
            ProblemSpec::LocalHeadsA,
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ProblemSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
        let algo: AlgorithmSpec = LocalAlgorithm::Uniform.into();
        let back: AlgorithmSpec =
            serde_json::from_str(&serde_json::to_string(&algo).unwrap()).unwrap();
        assert_eq!(algo, back);
    }
}
