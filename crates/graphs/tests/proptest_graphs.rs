//! Property-based tests for the graph substrate.

use dradio_graphs::properties;
use dradio_graphs::topology::{self, GeometricConfig};
use std::collections::BTreeSet;

use dradio_graphs::{DualGraph, Graph, GraphBackend, NodeId, RegionDecomposition};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy producing a small random graph as (n, list of index pairs).
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..60);
        (Just(n), edges)
    })
}

fn build_graph(n: usize, pairs: &[(usize, usize)]) -> Graph {
    Graph::from_edges(n, pairs.iter().copied().filter(|&(u, v)| u != v)).unwrap()
}

proptest! {
    /// Adjacency is always symmetric and degree sums equal twice the edge count.
    #[test]
    fn handshake_lemma((n, pairs) in arb_edge_list()) {
        let g = build_graph(n, &pairs);
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
                prop_assert!(g.neighbors(v).contains(&u));
            }
        }
    }

    /// Edge enumeration agrees with membership queries.
    #[test]
    fn edges_match_membership((n, pairs) in arb_edge_list()) {
        let g = build_graph(n, &pairs);
        let edges = g.edges();
        prop_assert_eq!(edges.len(), g.edge_count());
        for e in &edges {
            let (u, v) = e.endpoints();
            prop_assert!(g.has_edge(u, v));
            prop_assert!(u < v);
        }
    }

    /// Rows built from an edge list are exactly the sorted, deduplicated
    /// neighbor sets of the listed pairs, and the dense layout a dual graph
    /// attaches answers every membership query like the rows do.
    #[test]
    fn edge_list_rows_match_a_set_reference((n, pairs) in arb_edge_list()) {
        let g = build_graph(n, &pairs);
        let mut rows = vec![BTreeSet::new(); n];
        for &(u, v) in pairs.iter().filter(|(u, v)| u != v) {
            rows[u].insert(NodeId::new(v));
            rows[v].insert(NodeId::new(u));
        }
        for u in g.nodes() {
            let want: Vec<NodeId> = rows[u.index()].iter().copied().collect();
            prop_assert_eq!(g.neighbors(u), want.as_slice());
        }
        let dual = DualGraph::static_model(g.clone());
        prop_assert_eq!(dual.graph_backend(), GraphBackend::Dense);
        prop_assert_eq!(dual.g(), &g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(dual.g().has_edge(u, v), g.has_edge(u, v));
            }
        }
    }

    /// Layers are unioned by chaining pair lists into one edge-list
    /// constructor: a list chained with itself builds the same graph, and
    /// two chained lists build an upper bound of both graphs with no other
    /// edge.
    #[test]
    fn union_properties((n, pairs) in arb_edge_list(), (_, other_pairs) in arb_edge_list()) {
        let a = build_graph(n, &pairs);
        let doubled: Vec<(usize, usize)> = pairs.iter().chain(&pairs).copied().collect();
        prop_assert_eq!(build_graph(n, &doubled), a.clone());
        let other: Vec<(usize, usize)> = other_pairs.iter().map(|&(u, v)| (u % n, v % n)).collect();
        let b = build_graph(n, &other);
        let both: Vec<(usize, usize)> = pairs.iter().chain(&other).copied().collect();
        let u = build_graph(n, &both);
        prop_assert!(a.is_subgraph_of(&u));
        prop_assert!(b.is_subgraph_of(&u));
        for e in u.edges() {
            let (x, y) = e.endpoints();
            prop_assert!(a.has_edge(x, y) || b.has_edge(x, y));
        }
    }

    /// BFS distances satisfy the triangle-ish property along edges: distances
    /// of adjacent nodes differ by at most 1.
    #[test]
    fn bfs_distances_are_lipschitz((n, pairs) in arb_edge_list()) {
        let g = build_graph(n, &pairs);
        let dist = properties::bfs_distances(&g, NodeId::new(0));
        for e in g.edges() {
            let (u, v) = e.endpoints();
            if let (Some(du), Some(dv)) = (dist[u.index()], dist[v.index()]) {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // If one endpoint is reachable the other must be too.
                prop_assert!(dist[u.index()].is_none() && dist[v.index()].is_none());
            }
        }
    }

    /// Connected components partition the vertex set.
    #[test]
    fn components_partition((n, pairs) in arb_edge_list()) {
        let g = build_graph(n, &pairs);
        let comps = properties::connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n);
        let mut seen = vec![false; n];
        for comp in &comps {
            for u in comp {
                prop_assert!(!seen[u.index()]);
                seen[u.index()] = true;
            }
        }
    }

    /// Dual clique construction is valid for all even sizes and the dynamic
    /// edge count matches the closed form.
    #[test]
    fn dual_clique_invariants(half in 2usize..40) {
        let n = 2 * half;
        let dual = topology::dual_clique(n).unwrap();
        prop_assert!(dual.is_valid());
        prop_assert_eq!(dual.len(), n);
        // G edges: two cliques plus the bridge.
        let clique_edges = half * (half - 1) / 2;
        prop_assert_eq!(dual.g().edge_count(), 2 * clique_edges + 1);
        // G' is complete.
        prop_assert_eq!(dual.g_prime().edge_count(), n * (n - 1) / 2);
        prop_assert_eq!(dual.dynamic_edges().len(), n * (n - 1) / 2 - 2 * clique_edges - 1);
    }

    /// Bracelet construction is valid and its reliable layer is connected.
    #[test]
    fn bracelet_invariants(k in 2usize..8) {
        let b = topology::bracelet(k).unwrap();
        prop_assert_eq!(b.len(), 2 * k * k);
        prop_assert!(b.dual().is_valid());
        prop_assert!(properties::is_connected(b.dual().g()));
        prop_assert_eq!(b.heads_a().len(), k);
        prop_assert_eq!(b.heads_b().len(), k);
    }

    /// Random geometric graphs always satisfy the geographic constraint and
    /// region decompositions cover every node exactly once.
    #[test]
    fn geometric_constraint_and_regions(seed in 0u64..50, n in 20usize..60) {
        let r = 1.5;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cfg = GeometricConfig::new(n, 3.5, r);
        let dual: DualGraph = match topology::random_geometric(&cfg, &mut rng) {
            Ok(d) => d,
            Err(_) => return Ok(()), // sparse sample failed to connect; nothing to check
        };
        prop_assert!(dual.satisfies_geographic_constraint(r).unwrap());
        let rd = RegionDecomposition::build(&dual, r).unwrap();
        prop_assert_eq!(rd.node_count(), n);
        let total: usize = rd.regions().map(|reg| rd.members(reg).len()).sum();
        prop_assert_eq!(total, n);
        prop_assert!(rd.max_region_neighbors() <= RegionDecomposition::gamma_bound(r));
    }

    /// Line-of-cliques diameter grows linearly with the number of cliques.
    #[test]
    fn line_of_cliques_diameter(cliques in 1usize..10, size in 1usize..6) {
        let dual = topology::line_of_cliques(cliques, size).unwrap();
        let d = properties::diameter(dual.g()).unwrap();
        if size == 1 {
            prop_assert_eq!(d, cliques - 1);
        } else {
            prop_assert!(d + 1 >= cliques);
            prop_assert!(d <= 2 * cliques);
        }
    }
}
