//! Declarative topology specifications.
//!
//! A [`TopologySpec`] is a pure value naming one of the generators in
//! [`dradio_graphs::topology`] together with its parameters. Randomized
//! generators carry their own seed so that the spec alone pins the network
//! down exactly: the same spec always builds the same [`DualGraph`].

use std::sync::Arc;

use dradio_graphs::topology::{self, Bracelet, DualClique, GeometricConfig};
use dradio_graphs::{
    auto_backend, csr_bytes_estimate, dense_bytes_estimate, DualGraph, GraphBackend,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::error::{Result, ScenarioError};

/// Every topology generator of [`dradio_graphs::topology`], as a pure,
/// serializable value.
///
/// Randomized families ([`TopologySpec::RandomGeometric`],
/// [`TopologySpec::ErdosRenyiDual`]) embed a dedicated seed, independent of
/// the scenario's execution seed, so a stored spec reproduces its network
/// byte for byte while trial seeds vary freely.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// A reliable clique on `n` nodes (`G = G'`); the static-model baseline.
    Clique {
        /// Number of nodes.
        n: usize,
    },
    /// The paper's Section 3 lower-bound network: two reliable cliques of
    /// size `n/2` joined by one reliable bridge, all cross pairs unreliable.
    DualClique {
        /// Number of nodes (must be even, ≥ 4).
        n: usize,
    },
    /// A dual clique with an explicit bridge `(t_a, t_b)`; exposes the side
    /// metadata used by side-A broadcaster problems.
    DualCliqueWithBridge {
        /// Number of nodes (must be even, ≥ 4).
        n: usize,
        /// Bridge endpoint on side A (index into `0..n/2`).
        t_a: usize,
        /// Bridge endpoint on side B (index into `n/2..n`).
        t_b: usize,
    },
    /// The Theorem 4.3 bracelet with `2k` bands of `k` nodes.
    Bracelet {
        /// Band length (`k ≥ 2`); the network has `2k²` nodes.
        k: usize,
    },
    /// A bracelet with the clasp fixed at band pair `t`.
    BraceletWithClasp {
        /// Band length (`k ≥ 2`).
        k: usize,
        /// Index of the band pair carrying the clasp.
        t: usize,
    },
    /// A path of `n` nodes.
    Line {
        /// Number of nodes (≥ 2).
        n: usize,
    },
    /// A cycle of `n` nodes.
    Ring {
        /// Number of nodes (≥ 3).
        n: usize,
    },
    /// A star: hub 0 with `n - 1` leaves.
    Star {
        /// Number of nodes (≥ 2).
        n: usize,
    },
    /// A chain of reliable cliques joined by single bridges.
    LineOfCliques {
        /// Number of cliques (≥ 1).
        cliques: usize,
        /// Nodes per clique (≥ 1).
        clique_size: usize,
    },
    /// A `cols × rows` grid.
    Grid {
        /// Number of columns.
        cols: usize,
        /// Number of rows.
        rows: usize,
    },
    /// A `cols × rows` torus (grid with wraparound).
    Torus {
        /// Number of columns.
        cols: usize,
        /// Number of rows.
        rows: usize,
    },
    /// A balanced tree.
    BalancedTree {
        /// Children per internal node (≥ 1).
        branching: usize,
        /// Tree depth (root is depth 0).
        depth: usize,
    },
    /// A random geometric (unit-disk with grey zone) deployment: `n` points
    /// uniform in a `side × side` square, reliable within distance 1,
    /// unreliable within distance `r`.
    RandomGeometric {
        /// Number of nodes.
        n: usize,
        /// Side length of the deployment square.
        side: f64,
        /// Grey-zone radius (`r ≥ 1`).
        r: f64,
        /// Seed of the deployment's own random stream.
        seed: u64,
    },
    /// A regular grid of points with geometric (distance-based) dual edges.
    GridGeometric {
        /// Number of columns.
        cols: usize,
        /// Number of rows.
        rows: usize,
        /// Distance between adjacent grid points.
        spacing: f64,
        /// Grey-zone radius (`r ≥ 1`).
        r: f64,
    },
    /// A random dual graph: connected `G(n, p_reliable)` reliable layer plus
    /// i.i.d. dynamic edges with probability `p_dynamic` on the absent pairs.
    ErdosRenyiDual {
        /// Number of nodes.
        n: usize,
        /// Reliable-layer edge probability.
        p_reliable: f64,
        /// Dynamic-layer edge probability.
        p_dynamic: f64,
        /// Seed of the sampling random stream.
        seed: u64,
    },
    /// A *static* sparse Erdős–Rényi network (`G = G'`) sampled by geometric
    /// skip sampling in expected `O(n + m)` time — the scalable counterpart
    /// of [`TopologySpec::ErdosRenyiDual`] for million-node sweeps. No
    /// connectivity retry loop (see
    /// [`topology::sparse_erdos_renyi_dual`]).
    SparseErdosRenyi {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Seed of the sampling random stream.
        seed: u64,
    },
    /// A topology supplied directly as a [`DualGraph`] value through
    /// [`ScenarioBuilder::custom_dual`](crate::ScenarioBuilder::custom_dual).
    ///
    /// The name is recorded so serialized specs stay meaningful, but the
    /// graph itself is not serialized: building a deserialized `Custom` spec
    /// fails with [`ScenarioError::CustomUnavailable`] unless the graph is
    /// re-attached.
    Custom {
        /// Descriptive name of the attached graph.
        name: String,
    },
}

serde::serde_enum!(TopologySpec {
    Clique { n: usize },
    DualClique { n: usize },
    DualCliqueWithBridge { n: usize, t_a: usize, t_b: usize },
    Bracelet { k: usize },
    BraceletWithClasp { k: usize, t: usize },
    Line { n: usize },
    Ring { n: usize },
    Star { n: usize },
    LineOfCliques { cliques: usize, clique_size: usize },
    Grid { cols: usize, rows: usize },
    Torus { cols: usize, rows: usize },
    BalancedTree { branching: usize, depth: usize },
    RandomGeometric { n: usize, side: f64, r: f64, seed: u64 },
    GridGeometric { cols: usize, rows: usize, spacing: f64, r: f64 },
    ErdosRenyiDual { n: usize, p_reliable: f64, p_dynamic: f64, seed: u64 },
    SparseErdosRenyi { n: usize, p: f64, seed: u64 },
    Custom { name: String },
});

impl TopologySpec {
    /// A short human-readable label for tables and traces.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Clique { n } => format!("clique({n})"),
            TopologySpec::DualClique { n } => format!("dual-clique({n})"),
            TopologySpec::DualCliqueWithBridge { n, t_a, t_b } => {
                format!("dual-clique({n}, bridge {t_a}-{t_b})")
            }
            TopologySpec::Bracelet { k } => format!("bracelet({k})"),
            TopologySpec::BraceletWithClasp { k, t } => format!("bracelet({k}, clasp {t})"),
            TopologySpec::Line { n } => format!("line({n})"),
            TopologySpec::Ring { n } => format!("ring({n})"),
            TopologySpec::Star { n } => format!("star({n})"),
            TopologySpec::LineOfCliques {
                cliques,
                clique_size,
            } => {
                format!("line-of-cliques({cliques}x{clique_size})")
            }
            TopologySpec::Grid { cols, rows } => format!("grid({cols}x{rows})"),
            TopologySpec::Torus { cols, rows } => format!("torus({cols}x{rows})"),
            TopologySpec::BalancedTree { branching, depth } => {
                format!("tree({branching}^{depth})")
            }
            TopologySpec::RandomGeometric { n, side, r, seed } => {
                format!("geometric({n}, side {side:.2}, r {r:.2}, seed {seed})")
            }
            TopologySpec::GridGeometric {
                cols,
                rows,
                spacing,
                r,
            } => {
                format!("grid-geometric({cols}x{rows}, spacing {spacing:.2}, r {r:.2})")
            }
            TopologySpec::ErdosRenyiDual {
                n,
                p_reliable,
                p_dynamic,
                seed,
            } => {
                format!("er-dual({n}, p {p_reliable:.2}/{p_dynamic:.2}, seed {seed})")
            }
            TopologySpec::SparseErdosRenyi { n, p, seed } => {
                format!("sparse-er({n}, p {p:.4}, seed {seed})")
            }
            TopologySpec::Custom { name } => format!("custom({name})"),
        }
    }

    /// The number of nodes the spec describes, computable without building
    /// the network (`None` for [`TopologySpec::Custom`], whose size lives in
    /// the attached graph). Campaign round-budget rules use this to scale
    /// per-cell budgets with the network size before any topology is built.
    pub fn node_count(&self) -> Option<usize> {
        match *self {
            TopologySpec::Clique { n }
            | TopologySpec::DualClique { n }
            | TopologySpec::DualCliqueWithBridge { n, .. }
            | TopologySpec::Line { n }
            | TopologySpec::Ring { n }
            | TopologySpec::Star { n }
            | TopologySpec::RandomGeometric { n, .. }
            | TopologySpec::ErdosRenyiDual { n, .. }
            | TopologySpec::SparseErdosRenyi { n, .. } => Some(n),
            TopologySpec::Bracelet { k } | TopologySpec::BraceletWithClasp { k, .. } => {
                Some(2 * k * k)
            }
            TopologySpec::LineOfCliques {
                cliques,
                clique_size,
            } => Some(cliques * clique_size),
            TopologySpec::Grid { cols, rows }
            | TopologySpec::Torus { cols, rows }
            | TopologySpec::GridGeometric { cols, rows, .. } => Some(cols * rows),
            TopologySpec::BalancedTree { branching, depth } => {
                // 1 + b + b² + … + b^depth nodes.
                let mut total = 1usize;
                let mut level = 1usize;
                for _ in 0..depth {
                    level = level.saturating_mul(branching);
                    total = total.saturating_add(level);
                }
                Some(total)
            }
            TopologySpec::Custom { .. } => None,
        }
    }

    /// An estimate of the edge count of the *unreliable* layer `G'` (the
    /// larger of the two layers, so the memory-relevant one), computable
    /// without building the network. Exact for the deterministic families,
    /// an expectation for the randomized ones, `None` for
    /// [`TopologySpec::Custom`]. Feeds [`TopologySpec::memory_estimate`]
    /// — never the network itself, so a loose estimate can never change a
    /// measurement.
    pub fn expected_edges(&self) -> Option<u64> {
        let pairs = |n: usize| (n.saturating_mul(n.saturating_sub(1)) / 2) as u64;
        match *self {
            // The lower-bound constructions are genuinely dense: G' carries
            // all (or essentially all) cross pairs.
            TopologySpec::Clique { n }
            | TopologySpec::DualClique { n }
            | TopologySpec::DualCliqueWithBridge { n, .. } => Some(pairs(n)),
            // Bands are k-cliques and every node sees O(k) nodes of the
            // neighbor bands: degree ≤ ~3k over n = 2k² nodes.
            TopologySpec::Bracelet { k } | TopologySpec::BraceletWithClasp { k, .. } => {
                Some(3 * (k as u64).saturating_pow(3))
            }
            TopologySpec::Line { n } | TopologySpec::Star { n } => Some(n.saturating_sub(1) as u64),
            TopologySpec::Ring { n } => Some(n as u64),
            TopologySpec::LineOfCliques {
                cliques,
                clique_size,
            } => Some(
                (cliques as u64).saturating_mul(pairs(clique_size))
                    + cliques.saturating_sub(1) as u64,
            ),
            TopologySpec::Grid { cols, rows } => Some(
                ((cols.saturating_sub(1)).saturating_mul(rows)
                    + cols.saturating_mul(rows.saturating_sub(1))) as u64,
            ),
            TopologySpec::Torus { cols, rows } => Some(2 * cols.saturating_mul(rows) as u64),
            TopologySpec::BalancedTree { .. } => Some(self.node_count()?.saturating_sub(1) as u64),
            // Expected G' degree is the nodes within radius r: n·πr²/side².
            TopologySpec::RandomGeometric { n, side, r, .. } => {
                let density = (n as f64) * std::f64::consts::PI * r * r / (side * side);
                Some(((n as f64 * density / 2.0) as u64).min(pairs(n)))
            }
            // ~π(r/s)² in-radius grid points per node.
            TopologySpec::GridGeometric {
                cols,
                rows,
                spacing,
                r,
            } => {
                let n = cols.saturating_mul(rows);
                let per_node = std::f64::consts::PI * (r / spacing) * (r / spacing);
                Some(((n as f64 * per_node / 2.0) as u64).min(pairs(n)))
            }
            // G' edge probability: reliable, or dynamic on the absent pairs.
            TopologySpec::ErdosRenyiDual {
                n,
                p_reliable,
                p_dynamic,
                ..
            } => {
                let p = p_reliable + (1.0 - p_reliable) * p_dynamic;
                Some((pairs(n) as f64 * p.clamp(0.0, 1.0)) as u64)
            }
            TopologySpec::SparseErdosRenyi { n, p, .. } => {
                Some((pairs(n) as f64 * p.clamp(0.0, 1.0)) as u64)
            }
            TopologySpec::Custom { .. } => None,
        }
    }

    /// The layout the built network will use — [`auto_backend`] applied to
    /// the spec's size and [`expected_edges`](TopologySpec::expected_edges),
    /// the rule [`DualGraph`]'s constructors apply to the real edge count —
    /// and the estimated bytes both layers occupy in it. `None` when the
    /// spec's size is not derivable ([`TopologySpec::Custom`]). Campaign
    /// checks and fleet banners use this to surface memory budgets before
    /// anything is built.
    pub fn memory_estimate(&self) -> Option<(GraphBackend, u64)> {
        let n = self.node_count()?;
        let m = self.expected_edges()?;
        let backend = auto_backend(n, m);
        let per_layer = match backend {
            GraphBackend::Dense => dense_bytes_estimate(n, m),
            GraphBackend::Csr => csr_bytes_estimate(n, m),
        };
        Some((backend, per_layer.saturating_mul(2)))
    }

    /// Builds the network this spec describes.
    ///
    /// # Errors
    ///
    /// * [`ScenarioError::Topology`] if the underlying generator rejects the
    ///   parameters.
    /// * [`ScenarioError::CustomUnavailable`] for [`TopologySpec::Custom`],
    ///   which can only be built with the graph attached via the builder.
    pub fn build(&self) -> Result<BuiltTopology> {
        let built = match *self {
            TopologySpec::Clique { n } => BuiltTopology::plain(topology::clique(n)),
            TopologySpec::DualClique { n } => BuiltTopology::plain(topology::dual_clique(n)?),
            TopologySpec::DualCliqueWithBridge { n, t_a, t_b } => {
                let dc = topology::dual_clique_with_bridge(n, t_a, t_b)?;
                BuiltTopology {
                    dual: Arc::new(dc.dual().clone()),
                    bracelet: None,
                    dual_clique: Some(dc),
                }
            }
            TopologySpec::Bracelet { k } => {
                let b = topology::bracelet(k)?;
                BuiltTopology {
                    dual: Arc::new(b.dual().clone()),
                    bracelet: Some(b),
                    dual_clique: None,
                }
            }
            TopologySpec::BraceletWithClasp { k, t } => {
                let b = topology::bracelet_with_clasp(k, t)?;
                BuiltTopology {
                    dual: Arc::new(b.dual().clone()),
                    bracelet: Some(b),
                    dual_clique: None,
                }
            }
            TopologySpec::Line { n } => BuiltTopology::plain(topology::line(n)?),
            TopologySpec::Ring { n } => BuiltTopology::plain(topology::ring(n)?),
            TopologySpec::Star { n } => BuiltTopology::plain(topology::star(n)?),
            TopologySpec::LineOfCliques {
                cliques,
                clique_size,
            } => BuiltTopology::plain(topology::line_of_cliques(cliques, clique_size)?),
            TopologySpec::Grid { cols, rows } => BuiltTopology::plain(topology::grid(cols, rows)?),
            TopologySpec::Torus { cols, rows } => {
                BuiltTopology::plain(topology::torus(cols, rows)?)
            }
            TopologySpec::BalancedTree { branching, depth } => {
                BuiltTopology::plain(topology::balanced_tree(branching, depth)?)
            }
            TopologySpec::RandomGeometric { n, side, r, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                BuiltTopology::plain(topology::random_geometric(
                    &GeometricConfig::new(n, side, r),
                    &mut rng,
                )?)
            }
            TopologySpec::GridGeometric {
                cols,
                rows,
                spacing,
                r,
            } => BuiltTopology::plain(topology::grid_geometric(cols, rows, spacing, r)?),
            TopologySpec::ErdosRenyiDual {
                n,
                p_reliable,
                p_dynamic,
                seed,
            } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                BuiltTopology::plain(topology::erdos_renyi_dual(
                    n, p_reliable, p_dynamic, &mut rng,
                )?)
            }
            TopologySpec::SparseErdosRenyi { n, p, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                BuiltTopology::plain(topology::sparse_erdos_renyi_dual(n, p, &mut rng)?)
            }
            TopologySpec::Custom { .. } => {
                return Err(ScenarioError::CustomUnavailable { what: "topology" });
            }
        };
        Ok(built)
    }
}

/// A resolved topology: the [`DualGraph`] to simulate plus the construction
/// metadata some adversaries and problems need (the bracelet band structure
/// for [`BraceletOblivious`](dradio_adversary::BraceletOblivious), the clique
/// sides for side-A broadcaster sets).
///
/// The network is held behind an [`Arc`] so that everything downstream — the
/// [`Scenario`](crate::Scenario), every [`Simulator`](dradio_sim::Simulator)
/// and [`TrialExecutor`](dradio_sim::TrialExecutor) built from it, and the
/// campaign layer's topology cache — shares one graph instance instead of
/// copying the adjacency structure per trial or per cell.
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    /// The network, shared by every execution over this topology.
    pub dual: Arc<DualGraph>,
    /// Band/clasp metadata when the spec was a bracelet.
    pub bracelet: Option<Bracelet>,
    /// Side/bridge metadata when the spec was a dual clique with an explicit
    /// bridge.
    pub dual_clique: Option<DualClique>,
}

impl BuiltTopology {
    /// Wraps a bare dual graph (owned or already shared) with no
    /// construction metadata.
    pub fn plain(dual: impl Into<Arc<DualGraph>>) -> Self {
        BuiltTopology {
            dual: dual.into(),
            bracelet: None,
            dual_clique: None,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.dual.len()
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.dual.len() == 0
    }

    /// Maximum degree of the unreliable layer `G'`.
    pub fn max_degree(&self) -> usize {
        self.dual.max_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declarative_spec_builds() {
        let specs = vec![
            TopologySpec::Clique { n: 8 },
            TopologySpec::DualClique { n: 8 },
            TopologySpec::DualCliqueWithBridge {
                n: 8,
                t_a: 0,
                t_b: 4,
            },
            TopologySpec::Bracelet { k: 3 },
            TopologySpec::BraceletWithClasp { k: 3, t: 1 },
            TopologySpec::Line { n: 5 },
            TopologySpec::Ring { n: 5 },
            TopologySpec::Star { n: 5 },
            TopologySpec::LineOfCliques {
                cliques: 3,
                clique_size: 4,
            },
            TopologySpec::Grid { cols: 3, rows: 4 },
            TopologySpec::Torus { cols: 3, rows: 4 },
            TopologySpec::BalancedTree {
                branching: 2,
                depth: 3,
            },
            TopologySpec::RandomGeometric {
                n: 30,
                side: 2.0,
                r: 1.5,
                seed: 5,
            },
            TopologySpec::GridGeometric {
                cols: 4,
                rows: 4,
                spacing: 0.9,
                r: 1.5,
            },
            TopologySpec::ErdosRenyiDual {
                n: 12,
                p_reliable: 0.5,
                p_dynamic: 0.3,
                seed: 7,
            },
            TopologySpec::SparseErdosRenyi {
                n: 40,
                p: 0.2,
                seed: 7,
            },
        ];
        for spec in specs {
            let built = spec
                .build()
                .unwrap_or_else(|e| panic!("{} failed: {e}", spec.label()));
            assert!(!built.is_empty(), "{} is empty", spec.label());
            assert!(!spec.label().is_empty());
            assert_eq!(
                spec.node_count(),
                Some(built.len()),
                "{} predicted the wrong node count",
                spec.label()
            );
        }
        assert_eq!(
            TopologySpec::Custom { name: "x".into() }.node_count(),
            None,
            "custom topologies have no derivable size"
        );
    }

    #[test]
    fn randomized_specs_are_reproducible() {
        let spec = TopologySpec::RandomGeometric {
            n: 40,
            side: 2.2,
            r: 1.5,
            seed: 11,
        };
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.dual, b.dual);

        let other = TopologySpec::RandomGeometric {
            n: 40,
            side: 2.2,
            r: 1.5,
            seed: 12,
        };
        let c = other.build().unwrap();
        assert_ne!(
            a.dual, c.dual,
            "different seeds should give different deployments"
        );
    }

    #[test]
    fn huge_deployments_fail_to_connect_instead_of_overflowing() {
        let spec: TopologySpec =
            serde_json::from_str(r#"{"RandomGeometric":{"n":10,"side":1e300,"r":1.5,"seed":1}}"#)
                .unwrap();
        assert!(
            spec.build().is_err(),
            "ten points across 1e300 never connect"
        );
    }

    #[test]
    fn metadata_is_attached_where_available() {
        let b = TopologySpec::Bracelet { k: 3 }.build().unwrap();
        assert!(b.bracelet.is_some());
        assert_eq!(b.len(), 2 * 3 * 3);

        let dc = TopologySpec::DualCliqueWithBridge {
            n: 8,
            t_a: 0,
            t_b: 4,
        }
        .build()
        .unwrap();
        assert!(dc.dual_clique.is_some());
        assert_eq!(dc.dual_clique.unwrap().side_a().len(), 4);
    }

    #[test]
    fn custom_spec_refuses_to_build_without_the_graph() {
        let err = TopologySpec::Custom {
            name: "grey-star".into(),
        }
        .build()
        .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::CustomUnavailable { what: "topology" }
        ));
    }

    #[test]
    fn specs_round_trip_through_serde() {
        for spec in [
            TopologySpec::RandomGeometric {
                n: 40,
                side: 2.2,
                r: 1.5,
                seed: 11,
            },
            TopologySpec::SparseErdosRenyi {
                n: 500,
                p: 0.01,
                seed: 3,
            },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: TopologySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn forced_layouts_convert_networks_without_changing_them() {
        // A small grid gets CSR rows; forcing the matrix on and off again
        // never changes the network.
        let spec = TopologySpec::Grid { cols: 6, rows: 5 };
        let auto = spec.build().unwrap();
        assert_eq!(auto.dual.graph_backend(), GraphBackend::Csr);
        let forced = auto.dual.with_graph_backend(GraphBackend::Dense);
        assert_eq!(forced.graph_backend(), GraphBackend::Dense);
        assert_eq!(forced.g_prime().backend(), GraphBackend::Dense);
        // Structurally the same network, differently stored.
        assert_eq!(auto.dual.as_ref(), &forced);
        let back = forced.with_graph_backend(GraphBackend::Csr);
        assert_eq!(back.graph_backend(), GraphBackend::Csr);
        assert_eq!(back.g_prime().backend(), GraphBackend::Csr);
        assert_eq!(back, forced);
        // Construction metadata is structural, not storage-dependent.
        let bracelet = TopologySpec::Bracelet { k: 3 }.build().unwrap();
        let csr = BuiltTopology {
            dual: Arc::new(bracelet.dual.with_graph_backend(GraphBackend::Csr)),
            ..bracelet.clone()
        };
        assert_eq!(csr.dual, bracelet.dual);
        assert_eq!(
            csr.bracelet.map(|b| b.heads_a()),
            bracelet.bracelet.map(|b| b.heads_a())
        );
        // Check reports and fleet banners print the layouts by these names.
        assert_eq!(GraphBackend::Dense.to_string(), "dense");
        assert_eq!(GraphBackend::Csr.to_string(), "csr");
    }

    #[test]
    fn memory_estimates_resolve_the_heuristic() {
        // A dual clique keeps the matrix and a small grid does not; a
        // million-node grid resolves to CSR too, and the same grid with the
        // matrix attached would be astronomically larger.
        let clique = TopologySpec::DualClique { n: 64 };
        assert_eq!(clique.memory_estimate().unwrap().0, GraphBackend::Dense);
        let small = TopologySpec::Grid { cols: 6, rows: 5 };
        assert_eq!(small.memory_estimate().unwrap().0, GraphBackend::Csr);
        let big = TopologySpec::Grid {
            cols: 1000,
            rows: 1000,
        };
        let (backend, csr_bytes) = big.memory_estimate().unwrap();
        assert_eq!(backend, GraphBackend::Csr);
        let m = big.expected_edges().unwrap();
        assert_eq!(csr_bytes, 2 * csr_bytes_estimate(1_000_000, m));
        assert!(csr_bytes < 1 << 30, "CSR grid fits in memory: {csr_bytes}");
        assert!(
            2 * dense_bytes_estimate(1_000_000, m) > 100 * (1u64 << 30),
            "a dense million-node matrix is >100 GiB"
        );
        // The estimate predicts the layout the dual graph picks when it
        // builds the network, on both sides of the density floor.
        for spec in [
            clique,
            small,
            TopologySpec::Line { n: 3000 },
            TopologySpec::Grid { cols: 50, rows: 50 },
            TopologySpec::Bracelet { k: 33 },
        ] {
            assert_eq!(
                spec.memory_estimate().unwrap().0,
                spec.build().unwrap().dual.graph_backend(),
                "{}",
                spec.label()
            );
        }
        // Custom topologies have no derivable estimate.
        assert!(TopologySpec::Custom { name: "x".into() }
            .memory_estimate()
            .is_none());
        // Expected edges are exact for deterministic families.
        assert_eq!(
            TopologySpec::Grid { cols: 6, rows: 5 }.expected_edges(),
            Some((5 * 5 + 6 * 4) as u64)
        );
    }
}
