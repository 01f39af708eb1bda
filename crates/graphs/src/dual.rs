//! The dual graph `(G, G')` network model.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::GraphError;
use crate::geometry::Embedding;
use crate::graph::{auto_backend, row_difference, Edge, Graph, GraphBackend};
use crate::node::NodeId;
use crate::Result;

/// A dual graph network `(G, G')` with `E ⊆ E'` over a common vertex set.
///
/// * Edges of `G` are **reliable**: they are present in the communication
///   topology of every round.
/// * Edges of `G' \ G` are **dynamic**: an adversarial link process decides,
///   round by round, which of them are present.
///
/// When `G = G'` the model degenerates to the classic static protocol model,
/// which is how the static baselines of Figure 1 (row 4) are simulated.
///
/// The dual graph decides the layout of both layers: its constructors apply
/// [`auto_backend`] to `n` and `|E'|` and attach the bit matrix to `G` and
/// `G'` when it says dense, so every network of a given shape is stored the
/// same way whichever generator built it.
///
/// An optional Euclidean [`Embedding`] records node positions for networks
/// that satisfy the paper's *geographic constraint* (Section 2): nodes at
/// distance `≤ 1` are connected in `G` and nodes at distance `> r` are not
/// connected in `G'`.
///
/// # Example
///
/// ```
/// use dradio_graphs::{DualGraph, GraphBuilder};
/// let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build()?;
/// let g_prime = GraphBuilder::new(3).edge(0, 1).edge(1, 2).edge(0, 2).build()?;
/// let dual = DualGraph::new(g, g_prime)?;
/// assert_eq!(dual.len(), 3);
/// assert_eq!(dual.dynamic_edges().len(), 1); // only (0, 2) is dynamic
/// assert_eq!(dual.dynamic_index().edges(), dual.dynamic_edges());
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
#[derive(Clone)]
pub struct DualGraph {
    g: Graph,
    g_prime: Graph,
    embedding: Option<Embedding>,
    name: String,
    /// The dynamic-edge index, built on first use and shared by clones
    /// (both layers are immutable once the dual graph exists).
    dynamic: OnceLock<Arc<DynamicEdgeIndex>>,
}

impl PartialEq for DualGraph {
    /// Structural equality of the layers, embedding and name; the lazily
    /// built dynamic-edge index is derived data and takes no part.
    fn eq(&self, other: &Self) -> bool {
        self.g == other.g
            && self.g_prime == other.g_prime
            && self.embedding == other.embedding
            && self.name == other.name
    }
}

impl fmt::Debug for DualGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DualGraph")
            .field("g", &self.g)
            .field("g_prime", &self.g_prime)
            .field("embedding", &self.embedding)
            .field("name", &self.name)
            .finish()
    }
}

/// The dynamic edges `E' \ E` of a [`DualGraph`] in canonical order, plus
/// each node's incident dynamic edges.
///
/// Canonical order is the order of [`DualGraph::dynamic_edges`]: ascending
/// by lower endpoint, then by higher endpoint. Edge `k` of that list has
/// *canonical index* `k`, which is how link processes that draw one coin
/// per dynamic edge per round address their coins.
///
/// Built once per graph by [`DualGraph::dynamic_index`] and shared by every
/// trial that runs on the graph, so no link process copies the list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicEdgeIndex {
    edges: Vec<Edge>,
    /// `offsets[u]..offsets[u + 1]` delimits node `u`'s entries in
    /// `incidences`.
    offsets: Vec<usize>,
    /// `(neighbour, canonical index)` per incident dynamic edge, ascending
    /// by neighbour (and so by canonical index) within each node.
    incidences: Vec<(u32, u32)>,
}

impl DynamicEdgeIndex {
    /// Builds the index of `g_prime \ g`, walking each node's two sorted
    /// rows together, so the edges come out in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if the network or its dynamic-edge count does not fit in
    /// `u32`.
    fn build(g: &Graph, g_prime: &Graph) -> Self {
        let n = g_prime.len();
        let mut edges = Vec::new();
        let mut degree = vec![0usize; n];
        for u in g_prime.nodes() {
            for v in row_difference(g_prime.neighbors(u), g.neighbors(u)).filter(|&v| u < v) {
                edges.push(Edge::new(u, v));
                degree[u.index()] += 1;
                degree[v.index()] += 1;
            }
        }
        assert!(
            n <= u32::MAX as usize && edges.len() <= u32::MAX as usize,
            "the dynamic-edge index addresses nodes and edges with u32"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for d in &degree {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut incidences = vec![(0u32, 0u32); 2 * edges.len()];
        for (k, edge) in edges.iter().enumerate() {
            let (u, v) = edge.endpoints();
            incidences[cursor[u.index()]] = (v.index() as u32, k as u32);
            cursor[u.index()] += 1;
            incidences[cursor[v.index()]] = (u.index() as u32, k as u32);
            cursor[v.index()] += 1;
        }
        DynamicEdgeIndex {
            edges,
            offsets,
            incidences,
        }
    }

    /// The dynamic edges in canonical order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of dynamic edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the network has no dynamic edge.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The dynamic edges at `u` as `(neighbour, canonical index)` pairs,
    /// ascending by neighbour. Out-of-range nodes have none.
    pub fn incident(&self, u: NodeId) -> &[(u32, u32)] {
        match self.offsets.get(u.index()..u.index().saturating_add(2)) {
            Some(&[start, end]) => &self.incidences[start..end],
            _ => &[],
        }
    }
}

impl DualGraph {
    /// Creates a dual graph from a reliable layer `g` and an unreliable layer
    /// `g_prime`, both in the layout [`auto_backend`] picks for `g_prime`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::LayerSizeMismatch`] if the layers have different vertex
    ///   counts.
    /// * [`GraphError::NotContained`] if some edge of `g` is missing from
    ///   `g_prime`.
    pub fn new(g: Graph, g_prime: Graph) -> Result<Self> {
        if g.len() != g_prime.len() {
            return Err(GraphError::LayerSizeMismatch {
                g: g.len(),
                g_prime: g_prime.len(),
            });
        }
        if let Some(missing) = g.first_missing_in(&g_prime) {
            return Err(GraphError::NotContained { missing });
        }
        let layout = auto_backend(g_prime.len(), g_prime.edge_count() as u64);
        Ok(DualGraph::from_layers(
            g.with_backend(layout),
            g_prime.with_backend(layout),
            "dual",
        ))
    }

    /// Creates a *static* dual graph with `G = G'`, i.e. the classic protocol
    /// model over `g`, in the layout [`auto_backend`] picks for `g`.
    pub fn static_model(g: Graph) -> Self {
        let layout = auto_backend(g.len(), g.edge_count() as u64);
        let g = g.with_backend(layout);
        DualGraph::from_layers(g.clone(), g, "static")
    }

    fn from_layers(g: Graph, g_prime: Graph, name: &str) -> Self {
        DualGraph {
            g,
            g_prime,
            embedding: None,
            name: String::from(name),
            dynamic: OnceLock::new(),
        }
    }

    /// Attaches a Euclidean embedding (used by geographic topologies).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LayerSizeMismatch`] if the embedding has a
    /// different number of points than the graph has vertices.
    pub fn with_embedding(mut self, embedding: Embedding) -> Result<Self> {
        if embedding.len() != self.len() {
            return Err(GraphError::LayerSizeMismatch {
                g: self.len(),
                g_prime: embedding.len(),
            });
        }
        self.embedding = Some(embedding);
        Ok(self)
    }

    /// Sets a human-readable name used in experiment tables.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reliable layer `G`.
    pub fn g(&self) -> &Graph {
        &self.g
    }

    /// The unreliable layer `G'`.
    pub fn g_prime(&self) -> &Graph {
        &self.g_prime
    }

    /// The Euclidean embedding, if the topology has one.
    pub fn embedding(&self) -> Option<&Embedding> {
        self.embedding.as_ref()
    }

    /// Number of vertices `n`.
    pub fn len(&self) -> usize {
        self.g.len()
    }

    /// Returns `true` if the network has no vertices.
    pub fn is_empty(&self) -> bool {
        self.g.is_empty()
    }

    /// Maximum degree `Δ` measured in `G'`, as defined in Section 2 of the
    /// paper (processes are assumed to know this value).
    pub fn max_degree(&self) -> usize {
        self.g_prime.max_degree()
    }

    /// Returns `true` if `G = G'`, i.e. there are no dynamic links.
    pub fn is_static(&self) -> bool {
        self.g.edge_count() == self.g_prime.edge_count()
    }

    /// The layout of both layers.
    pub fn graph_backend(&self) -> GraphBackend {
        self.g.backend()
    }

    /// Returns this network with both layers in the `backend` layout instead
    /// of the automatic one — the bit matrix attached or dropped, the rows
    /// unchanged; name, embedding and a built dynamic-edge index carry over.
    /// Simulation outcomes are layout-independent — only memory footprint
    /// and row-scan strategy change — which is what the equivalence suites
    /// that call this check.
    pub fn with_graph_backend(&self, backend: GraphBackend) -> DualGraph {
        DualGraph {
            g: self.g.clone().with_backend(backend),
            g_prime: self.g_prime.clone().with_backend(backend),
            embedding: self.embedding.clone(),
            name: self.name.clone(),
            dynamic: self.dynamic.clone(),
        }
    }

    /// The dynamic-edge index: `E' \ E` in canonical order with per-node
    /// incidences. Built and validated on first use, once per graph (clones
    /// share it); later calls are a pointer read.
    pub fn dynamic_index(&self) -> &DynamicEdgeIndex {
        self.dynamic
            .get_or_init(|| Arc::new(DynamicEdgeIndex::build(&self.g, &self.g_prime)))
    }

    /// The dynamic edges `E' \ E` in canonical order:
    /// [`dynamic_index`](DualGraph::dynamic_index)`.edges()`.
    pub fn dynamic_edges(&self) -> &[Edge] {
        self.dynamic_index().edges()
    }

    /// Returns `true` if the containment invariant `E ⊆ E'` holds.
    ///
    /// Constructors already enforce the invariant; this is exposed so tests
    /// and property checks can assert it cheaply after transformations.
    pub fn is_valid(&self) -> bool {
        self.g.len() == self.g_prime.len() && self.g.is_subgraph_of(&self.g_prime)
    }

    /// Neighbors of `u` in the reliable layer `G`.
    pub fn g_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.g.neighbors(u)
    }

    /// Neighbors of `u` in the unreliable layer `G'` (written `N_{G'}(u)` in
    /// the paper).
    pub fn g_prime_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.g_prime.neighbors(u)
    }

    /// Checks the geographic constraint of Section 2 against the attached
    /// embedding: for all `u ≠ v`, `d(u,v) ≤ 1 ⇒ (u,v) ∈ G` and
    /// `d(u,v) > r ⇒ (u,v) ∉ G'`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEmbedding`] if the dual graph has no
    /// embedding attached.
    pub fn satisfies_geographic_constraint(&self, r: f64) -> Result<bool> {
        let emb = self
            .embedding
            .as_ref()
            .ok_or(GraphError::MissingEmbedding)?;
        for u in self.g.nodes() {
            for v in self.g.nodes() {
                if u >= v {
                    continue;
                }
                let d = emb.distance(u, v);
                if d <= 1.0 && !self.g.has_edge(u, v) {
                    return Ok(false);
                }
                if d > r && self.g_prime.has_edge(u, v) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

impl fmt::Display for DualGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (n = {}, |E| = {}, |E'| = {}, Δ = {})",
            self.name,
            self.len(),
            self.g.edge_count(),
            self.g_prime.edge_count(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn triangle_line() -> (Graph, Graph) {
        let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build().unwrap();
        let gp = GraphBuilder::new(3)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
            .unwrap();
        (g, gp)
    }

    #[test]
    fn construction_enforces_containment() {
        let (g, gp) = triangle_line();
        assert!(DualGraph::new(g.clone(), gp).is_ok());
        // Reversed layers violate E ⊆ E'.
        let gp_small = GraphBuilder::new(3).edge(0, 1).build().unwrap();
        let err = DualGraph::new(g, gp_small).unwrap_err();
        assert!(matches!(err, GraphError::NotContained { .. }));
    }

    #[test]
    fn construction_enforces_size_match() {
        let g = Graph::empty(3);
        let gp = Graph::empty(4);
        assert!(matches!(
            DualGraph::new(g, gp),
            Err(GraphError::LayerSizeMismatch { g: 3, g_prime: 4 })
        ));
    }

    #[test]
    fn static_model_has_no_dynamic_edges() {
        let g = Graph::complete(5);
        let dual = DualGraph::static_model(g);
        assert!(dual.is_static());
        assert!(dual.dynamic_edges().is_empty());
        assert!(dual.is_valid());
    }

    #[test]
    fn dynamic_edges_are_exactly_the_difference() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        let dyn_edges = dual.dynamic_edges();
        assert_eq!(dyn_edges.len(), 1);
        assert_eq!(dyn_edges[0].endpoints(), (NodeId::new(0), NodeId::new(2)));
        assert!(!dual.is_static());
    }

    #[test]
    fn dynamic_index_lists_the_difference_with_incidences() {
        use crate::topology;
        for dual in [
            topology::dual_clique(10).unwrap(),
            topology::dual_clique(10)
                .unwrap()
                .with_graph_backend(GraphBackend::Csr),
            {
                use rand::SeedableRng;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
                let config = topology::GeometricConfig::new(30, 2.0, 1.5);
                topology::random_geometric(&config, &mut rng).unwrap()
            },
        ] {
            let index = dual.dynamic_index();
            assert_eq!(index.edges(), dual.dynamic_edges());
            assert_eq!(index.len(), dual.dynamic_edges().len());
            let mut seen = vec![0usize; index.len()];
            for u in dual.g().nodes() {
                let incident = index.incident(u);
                assert!(incident.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &(w, k) in incident {
                    let edge = index.edges()[k as usize];
                    assert_eq!(edge, Edge::new(u, NodeId::new(w as usize)));
                    seen[k as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 2), "each edge at both ends");
            assert!(index.incident(NodeId::new(dual.len())).is_empty());
            assert!(index.incident(NodeId::new(usize::MAX)).is_empty());
        }
    }

    #[test]
    fn dynamic_index_is_shared_and_outside_equality() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        let untouched = dual.clone();
        let built = dual.dynamic_index() as *const DynamicEdgeIndex;
        assert_eq!(dual, untouched, "building the index changes no identity");
        let cloned = dual.clone();
        assert!(
            std::ptr::eq(cloned.dynamic_index(), built),
            "clones share it"
        );
        let csr = dual.with_graph_backend(GraphBackend::Csr);
        assert!(
            std::ptr::eq(csr.dynamic_index(), built),
            "backends share it"
        );
        assert_eq!(format!("{dual:?}"), format!("{untouched:?}"));
        let empty = DualGraph::static_model(Graph::complete(4));
        assert!(empty.dynamic_index().is_empty());
    }

    #[test]
    fn constructors_apply_the_automatic_layout_to_both_layers() {
        use crate::topology;
        // Small networks are dense whichever generator built them.
        let (g, gp) = triangle_line();
        assert_eq!(
            g.backend(),
            GraphBackend::Csr,
            "bare layers hold rows alone"
        );
        for dual in [
            DualGraph::new(g, gp).unwrap(),
            DualGraph::static_model(Graph::complete(4)),
            topology::line(9).unwrap(),
        ] {
            assert_eq!(dual.graph_backend(), GraphBackend::Dense);
            assert_eq!(dual.g_prime().backend(), GraphBackend::Dense);
        }
        // Past the floor, a sparse network keeps its rows alone ...
        let line = topology::line(3000).unwrap();
        assert_eq!(line.graph_backend(), GraphBackend::Csr);
        assert_eq!(line.g_prime().backend(), GraphBackend::Csr);
        // ... and layers handed in with a matrix lose it, while a forced
        // layout converts both layers without changing the network.
        let rebuilt = DualGraph::new(
            line.with_graph_backend(GraphBackend::Dense).g().clone(),
            line.g_prime().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.graph_backend(), GraphBackend::Csr);
        assert_eq!(rebuilt.g(), line.g());
        let forced = line.with_graph_backend(GraphBackend::Dense);
        assert_eq!(forced.graph_backend(), GraphBackend::Dense);
        assert_eq!(forced.g_prime().backend(), GraphBackend::Dense);
        assert_eq!(forced, line);
    }

    #[test]
    fn max_degree_is_measured_in_g_prime() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        assert_eq!(dual.max_degree(), 2);
        assert_eq!(dual.g().max_degree(), 2);
    }

    #[test]
    fn neighbors_accessors_distinguish_layers() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        assert_eq!(dual.g_neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(
            dual.g_prime_neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn geographic_check_requires_embedding() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        assert_eq!(
            dual.satisfies_geographic_constraint(2.0),
            Err(GraphError::MissingEmbedding)
        );
    }

    #[test]
    fn name_and_display() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap().with_name("toy");
        assert_eq!(dual.name(), "toy");
        let shown = dual.to_string();
        assert!(shown.contains("toy"));
        assert!(shown.contains("n = 3"));
    }

    #[test]
    fn embedding_size_is_validated() {
        use crate::geometry::{Embedding, Point};
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        let short = Embedding::new(vec![Point::new(0.0, 0.0)]);
        assert!(dual.with_embedding(short).is_err());
    }
}
