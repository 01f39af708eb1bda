//! Simple immutable undirected graphs: sorted compressed sparse rows for
//! every graph, with an optional packed bit matrix for dense networks.

use std::fmt;

use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// An undirected edge between two nodes, stored in canonical (sorted) order.
///
/// # Example
///
/// ```
/// use dradio_graphs::{Edge, NodeId};
/// let e = Edge::new(NodeId::new(3), NodeId::new(1));
/// assert_eq!(e.endpoints(), (NodeId::new(1), NodeId::new(3)));
/// assert!(e.touches(NodeId::new(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    lo: NodeId,
    hi: NodeId,
}

impl Edge {
    /// Creates an edge between `u` and `v`, normalizing endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`; the radio model has no self-loops.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loops are not allowed in radio network graphs");
        if u < v {
            Edge { lo: u, hi: v }
        } else {
            Edge { lo: v, hi: u }
        }
    }

    /// Returns the endpoints in canonical (ascending) order.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo, self.hi)
    }

    /// Returns `true` if `node` is one of the endpoints.
    pub fn touches(self, node: NodeId) -> bool {
        self.lo == node || self.hi == node
    }

    /// Returns the endpoint opposite to `node`, or `None` if `node` is not an
    /// endpoint of this edge.
    pub fn other(self, node: NodeId) -> Option<NodeId> {
        if node == self.lo {
            Some(self.hi)
        } else if node == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

/// The row format a [`Graph`] exposes to the reception loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphBackend {
    /// Sorted rows plus an attached row-aligned adjacency bit matrix: O(n²)
    /// extra bits, O(1) edge queries, and word-parallel row scans. The right
    /// choice for the paper's small dense networks.
    Dense,
    /// Sorted rows alone (compressed sparse rows: offsets + targets): O(n + m)
    /// memory, O(log deg) edge queries. The only layout that fits
    /// million-node sparse topologies.
    Csr,
}

impl fmt::Display for GraphBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphBackend::Dense => write!(f, "dense"),
            GraphBackend::Csr => write!(f, "csr"),
        }
    }
}

/// Largest vertex count for which [`auto_backend`] always picks
/// [`GraphBackend::Dense`]. Below this floor the whole bit matrix is at most
/// half a megabyte, every registered campaign store was produced dense, and
/// the word-parallel reception scans are fastest — so small networks never
/// change layout out from under existing byte-stability pins.
pub const DENSE_AUTO_MAX_NODES: usize = 2048;

/// Picks the layout for an `n`-vertex network whose unreliable layer
/// carries `expected_edges` undirected edges: dense below the
/// [`DENSE_AUTO_MAX_NODES`] floor (bit-exact compatibility with existing
/// stores, fastest at that scale), dense above it only when rows are full
/// enough that word scans beat list walks (m ≥ n²/16), CSR otherwise.
/// [`DualGraph`](crate::DualGraph)'s constructors apply it to every network.
pub fn auto_backend(n: usize, expected_edges: u64) -> GraphBackend {
    if n <= DENSE_AUTO_MAX_NODES {
        return GraphBackend::Dense;
    }
    let dense_pays = expected_edges.saturating_mul(16) >= (n as u64).saturating_mul(n as u64);
    if dense_pays {
        GraphBackend::Dense
    } else {
        GraphBackend::Csr
    }
}

/// Estimated resident bytes of the dense layout for an `n`-vertex graph:
/// the CSR rows plus the row-aligned bit matrix (which dominates).
pub fn dense_bytes_estimate(n: usize, expected_edges: u64) -> u64 {
    let n64 = n as u64;
    csr_bytes_estimate(n, expected_edges) + n64 * n64.div_ceil(64) * 8
}

/// Estimated resident bytes of the CSR layout for an `n`-vertex graph with
/// `expected_edges` undirected edges: one offset per vertex plus two stored
/// targets per edge.
pub fn csr_bytes_estimate(n: usize, expected_edges: u64) -> u64 {
    (n as u64 + 1) * 8 + 2 * expected_edges * 8
}

/// One adjacency row, in the shape the graph's layout scans fastest.
///
/// Hot-path consumers (the scalar reception strategies and the batch
/// executor's word algebra) match on this once per listener and run the
/// layout-appropriate scan: word intersection against a packed transmitter
/// bitset for [`NeighborRow::Dense`], a sorted neighbor walk for
/// [`NeighborRow::Sparse`]. Both enumerate the same neighbor set in the same
/// ascending order.
#[derive(Debug, Clone, Copy)]
pub enum NeighborRow<'a> {
    /// A packed bitset row (dense layout): bit `v` (word `v / 64`, bit
    /// `v % 64`) is set iff the edge `(u, v)` is present.
    Dense(&'a [u64]),
    /// The sorted neighbor ids of the row (CSR layout).
    Sparse(&'a [NodeId]),
}

/// A simple, immutable undirected graph over the vertex set `{0, ..., n-1}`.
///
/// Every graph stores its adjacency as sorted compressed sparse rows — one
/// offset per vertex into one flat target array — so `neighbors`, `degree`,
/// `edges` and equality have a single body. A [`DualGraph`](crate::DualGraph)
/// additionally attaches a packed bit matrix to both of its layers when
/// [`auto_backend`] says dense: [`Graph::neighbor_row`] then hands out whole
/// rows as word slices, which the simulator intersects with its packed
/// transmitter bitset to resolve reception 64 candidates at a time, and
/// [`Graph::has_edge`] answers in O(1). [`Graph::backend`] reports which of
/// the two shapes is in use.
///
/// # Example
///
/// ```
/// use dradio_graphs::{Graph, NodeId};
/// let g = Graph::from_edges(4, [(0, 1), (1, 2)])?;
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbors(NodeId::new(1)), &[NodeId::new(0), NodeId::new(2)]);
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` delimits row `u` in `targets`; there are
    /// `n + 1` offsets.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor rows.
    targets: Vec<NodeId>,
    /// Row-aligned bit matrix, present exactly under the dense layout: bit
    /// `v` of row `u` (word `u·row_words + v/64`) is set iff the edge
    /// `(u, v)` is present.
    bits: Option<Vec<u64>>,
}

impl PartialEq for Graph {
    /// Structural equality: same vertex set and same edge set, whichever
    /// layout each side uses.
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            bits: None,
        }
    }

    /// Creates a complete graph (clique) on `n` vertices.
    pub fn complete(n: usize) -> Self {
        let mut rows = CsrBuilder::with_edge_capacity(n, n * n.saturating_sub(1) / 2);
        for u in 0..n {
            rows.row((0..n).filter(|&v| v != u).map(NodeId::new));
        }
        rows.build()
            // lint: allow(D4) -- row u is 0..n without u: sorted, in range, symmetric
            .expect("complete rows are valid")
    }

    /// Builds a graph from an undirected edge list. Duplicate pairs (in
    /// either orientation) collapse to one edge; rows come out sorted. The
    /// list is walked twice — once to count degrees, once to scatter each
    /// pair into both of its rows — and every row is then sorted and
    /// deduplicated in place, so construction is O(n + m) and holds no
    /// buffer beyond the rows themselves.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] if
    /// any pair is invalid.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Graph>
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        // Count each degree one slot to the right, then prefix-sum: offsets[u]
        // becomes the start of row u.
        let mut offsets = vec![0usize; n + 1];
        for (u, v) in edges.clone() {
            if let Some(node) = [u, v].into_iter().find(|&w| w >= n) {
                return Err(GraphError::NodeOutOfRange {
                    node: NodeId::new(node),
                    n,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop {
                    node: NodeId::new(u),
                });
            }
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        // Scatter with offsets[u] as row u's cursor; afterwards it holds the
        // end of row u.
        let mut targets = vec![NodeId::new(0); offsets[n]];
        for (u, v) in edges {
            targets[offsets[u]] = NodeId::new(v);
            offsets[u] += 1;
            targets[offsets[v]] = NodeId::new(u);
            offsets[v] += 1;
        }
        // Sort each row, then compact it leftwards without its duplicates
        // (a pair listed twice), restoring offsets[u] to the row's new start.
        let (mut start, mut len) = (0, 0);
        for offset in &mut offsets[..n] {
            let end = *offset;
            targets[start..end].sort_unstable();
            *offset = len;
            for i in start..end {
                if i == start || targets[i] != targets[i - 1] {
                    targets[len] = targets[i];
                    len += 1;
                }
            }
            start = end;
        }
        offsets[n] = len;
        targets.truncate(len);
        Ok(Graph {
            offsets,
            targets,
            bits: None,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Which layout this graph uses: [`GraphBackend::Dense`] when a bit
    /// matrix is attached, [`GraphBackend::Csr`] when it holds rows alone.
    pub fn backend(&self) -> GraphBackend {
        if self.bits.is_some() {
            GraphBackend::Dense
        } else {
            GraphBackend::Csr
        }
    }

    /// Number of `u64` words in each adjacency-row bitset (`⌈n / 64⌉`).
    ///
    /// Defined for both layouts — simulator bitsets (transmitter sets, lane
    /// masks) are sized from it regardless of how adjacency is stored.
    #[inline]
    pub fn row_words(&self) -> usize {
        self.len().div_ceil(64)
    }

    // Row access: the scalar and batch reception loops and the adaptive
    // adversaries call these once per listener (or candidate edge) per
    // round; no allocation permitted, and each is `#[inline]` so it inlines
    // across crates into those loops.
    // lint: hot-path

    /// The adjacency row of `u` in the layout's native shape — the packed
    /// bitset under the dense layout, the sorted neighbor slice under CSR.
    /// Out-of-range nodes have an empty sparse row.
    #[inline]
    pub fn neighbor_row(&self, u: NodeId) -> NeighborRow<'_> {
        match &self.bits {
            Some(bits) if u.index() < self.len() => {
                let words = self.row_words();
                let start = u.index() * words;
                NeighborRow::Dense(&bits[start..start + words])
            }
            _ => NeighborRow::Sparse(self.neighbors(u)),
        }
    }

    /// Returns `true` if the undirected edge `(u, v)` is present.
    ///
    /// O(1) under the dense layout, O(log deg(u)) under CSR. Out-of-range
    /// endpoints simply report `false`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.len() || v.index() >= self.len() || u == v {
            return false;
        }
        match &self.bits {
            Some(bits) => {
                let idx = u.index() * self.row_words() * 64 + v.index();
                bits[idx / 64] >> (idx % 64) & 1 == 1
            }
            None => self.neighbors(u).binary_search(&v).is_ok(),
        }
    }

    /// Returns the neighbors of `u` in ascending order.
    ///
    /// Out-of-range nodes have no neighbors.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        if u.index() >= self.len() {
            return &[];
        }
        &self.targets[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }

    /// Degree of `u` (0 for out-of-range nodes).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    // lint: end-hot-path

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all vertices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        NodeId::all(self.len())
    }

    /// Iterates over all edges in canonical order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in self.nodes() {
            for &v in self.neighbors(u) {
                if u < v {
                    out.push(Edge::new(u, v));
                }
            }
        }
        out
    }

    /// Returns this graph in the `backend` layout: the bit matrix is built
    /// from the rows (dense) or dropped (CSR); the rows never change.
    pub(crate) fn with_backend(mut self, backend: GraphBackend) -> Graph {
        match backend {
            GraphBackend::Dense if self.bits.is_none() => self.bits = Some(self.bit_matrix()),
            GraphBackend::Dense => {}
            GraphBackend::Csr => self.bits = None,
        }
        self
    }

    fn bit_matrix(&self) -> Vec<u64> {
        let words = self.row_words();
        let mut bits = vec![0u64; self.len().saturating_mul(words)];
        for u in self.nodes() {
            for &v in self.neighbors(u) {
                bits[u.index() * words + v.index() / 64] |= 1u64 << (v.index() % 64);
            }
        }
        bits
    }

    /// Returns `true` if every edge of `self` is also an edge of `other`.
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        self.len() == other.len() && self.first_missing_in(other).is_none()
    }

    /// Returns the first edge of `self`, in canonical order, that is missing
    /// from `other`, if any. Walks each node's two sorted rows together.
    pub fn first_missing_in(&self, other: &Graph) -> Option<(NodeId, NodeId)> {
        self.nodes().find_map(|u| {
            row_difference(self.neighbors(u), other.neighbors(u))
                .find(|&v| u < v)
                .map(|v| (u, v))
        })
    }
}

/// The entries of the sorted row `a` missing from the sorted row `b`, in
/// ascending order: one merged walk over both rows.
pub(crate) fn row_difference<'a>(
    a: &'a [NodeId],
    b: &'a [NodeId],
) -> impl Iterator<Item = NodeId> + 'a {
    let mut j = 0;
    a.iter().copied().filter(move |&v| {
        while b.get(j).is_some_and(|&w| w < v) {
            j += 1;
        }
        b.get(j) != Some(&v)
    })
}

/// Streaming row-by-row construction of a [`Graph`] — the path the topology
/// generators with closed-form rows use, so no edge is ever inserted twice.
///
/// Rows must be pushed for every vertex in index order, each sorted
/// ascending; [`CsrBuilder::build`] validates shape, range, self-loops and
/// symmetry once at the end.
///
/// # Example
///
/// ```
/// use dradio_graphs::{CsrBuilder, NodeId};
/// // A path 0 – 1 – 2, one row per vertex.
/// let mut b = CsrBuilder::new(3);
/// b.row([NodeId::new(1)]);
/// b.row([NodeId::new(0), NodeId::new(2)]);
/// b.row([NodeId::new(1)]);
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(NodeId::new(1), NodeId::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl CsrBuilder {
    /// Starts a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        CsrBuilder::with_edge_capacity(n, 0)
    }

    /// Starts a builder pre-allocated for `edges` undirected edges.
    pub fn with_edge_capacity(n: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        CsrBuilder {
            n,
            offsets,
            targets: Vec::with_capacity(2 * edges),
        }
    }

    /// Appends the next vertex's neighbor row (sorted ascending).
    pub fn row<I: IntoIterator<Item = NodeId>>(&mut self, neighbors: I) -> &mut Self {
        self.targets.extend(neighbors);
        self.offsets.push(self.targets.len());
        self
    }

    /// Finishes the graph, validating one row per vertex, sorted unique
    /// in-range neighbors, no self-loops, and symmetry.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] for shape violations (row count,
    /// unsorted or asymmetric rows), [`GraphError::NodeOutOfRange`] /
    /// [`GraphError::SelfLoop`] for bad entries.
    pub fn build(self) -> Result<Graph> {
        let CsrBuilder {
            n,
            offsets,
            targets,
        } = self;
        if offsets.len() != n + 1 {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "CSR builder for {n} vertices was given {} rows",
                    offsets.len() - 1
                ),
            });
        }
        for u in 0..n {
            let row = &targets[offsets[u]..offsets[u + 1]];
            let mut prev: Option<NodeId> = None;
            for &v in row {
                if v.index() >= n {
                    return Err(GraphError::NodeOutOfRange { node: v, n });
                }
                if v.index() == u {
                    return Err(GraphError::SelfLoop {
                        node: NodeId::new(u),
                    });
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(GraphError::InvalidParameter {
                        reason: format!("CSR row {u} is not sorted strictly ascending"),
                    });
                }
                prev = Some(v);
            }
        }
        // Symmetry: every stored arc must have its reverse.
        for u in 0..n {
            for &v in &targets[offsets[u]..offsets[u + 1]] {
                let back = &targets[offsets[v.index()]..offsets[v.index() + 1]];
                if back.binary_search(&NodeId::new(u)).is_err() {
                    return Err(GraphError::InvalidParameter {
                        reason: format!("CSR rows are asymmetric: ({u}, {v}) has no reverse"),
                    });
                }
            }
        }
        Ok(Graph {
            offsets,
            targets,
            bits: None,
        })
    }
}

/// Incremental builder for [`Graph`].
///
/// The builder accepts raw `usize` indices in either orientation, and
/// [`GraphBuilder::build`] deduplicates and validates them once through
/// [`Graph::from_edges`], which keeps hand-built test networks short.
///
/// # Example
///
/// ```
/// use dradio_graphs::GraphBuilder;
/// let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).edge(0, 1).build().unwrap();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge by raw index; duplicates are ignored.
    pub fn edge(mut self, u: usize, v: usize) -> Self {
        self.edges.push((u, v));
        self
    }

    /// Adds every edge from an iterator of index pairs.
    pub fn edges<I: IntoIterator<Item = (usize, usize)>>(mut self, iter: I) -> Self {
        self.edges.extend(iter);
        self
    }

    /// Builds the graph, validating all endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] if
    /// any recorded edge is invalid.
    pub fn build(self) -> Result<Graph> {
        Graph::from_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `g` with its bit matrix attached.
    fn dense(g: Graph) -> Graph {
        g.with_backend(GraphBackend::Dense)
    }

    #[test]
    fn edge_normalizes_order() {
        let e = Edge::new(NodeId::new(5), NodeId::new(2));
        assert_eq!(e.endpoints(), (NodeId::new(2), NodeId::new(5)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(NodeId::new(1), NodeId::new(1));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(NodeId::new(1), NodeId::new(2));
        assert_eq!(e.other(NodeId::new(1)), Some(NodeId::new(2)));
        assert_eq!(e.other(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(e.other(NodeId::new(3)), None);
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        // Rows alone until a dual graph attaches the matrix.
        assert_eq!(g.backend(), GraphBackend::Csr);
        assert_eq!(dense(g).backend(), GraphBackend::Dense);
    }

    #[test]
    fn zero_vertex_graph_is_empty() {
        let g = Graph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.edges().len(), 0);
        assert!(dense(g).is_empty());
    }

    #[test]
    fn edge_list_is_symmetric_and_idempotent() {
        // The same pair in both orientations, twice, is one edge.
        let g = Graph::from_edges(4, [(0, 2), (2, 0), (0, 2)]).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(2)]);
        assert_eq!(g.neighbors(NodeId::new(2)), &[NodeId::new(0)]);
    }

    #[test]
    fn edge_list_rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 1), (0, 7)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(7),
                n: 3
            }
        );
    }

    #[test]
    fn edge_list_rejects_self_loop() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3)]).unwrap();
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, vec![0, 3, 4]);
    }

    #[test]
    fn complete_graph_degrees() {
        let g = Graph::complete(6);
        assert_eq!(g.edge_count(), 15);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 5);
        }
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn edges_enumeration_matches_count() {
        let g = Graph::complete(7);
        assert_eq!(g.edges().len(), g.edge_count());
    }

    #[test]
    fn union_combines_edges() {
        // The edge-list constructor is how layers are unioned: G' is built
        // from G's pairs chained with the extra ones.
        let a = [(0, 1)];
        let b = [(2, 3)];
        let u = Graph::from_edges(4, a.iter().chain(&b).copied()).unwrap();
        assert!(u.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(u.has_edge(NodeId::new(2), NodeId::new(3)));
        assert_eq!(u.edge_count(), 2);
    }

    #[test]
    fn subgraph_detection() {
        let small = GraphBuilder::new(4).edge(0, 1).build().unwrap();
        let big = GraphBuilder::new(4).edge(0, 1).edge(1, 2).build().unwrap();
        assert!(small.is_subgraph_of(&big));
        assert!(!big.is_subgraph_of(&small));
        assert_eq!(
            big.first_missing_in(&small),
            Some((NodeId::new(1), NodeId::new(2)))
        );
        assert_eq!(small.first_missing_in(&big), None);
        // The row walk reports the first missing edge in canonical order.
        let g = Graph::from_edges(5, [(3, 4), (0, 4), (1, 2), (0, 1)]).unwrap();
        let h = Graph::from_edges(5, [(0, 1), (3, 4)]).unwrap();
        assert_eq!(
            g.first_missing_in(&h),
            Some((NodeId::new(0), NodeId::new(4)))
        );
        assert!(
            !g.is_subgraph_of(&Graph::complete(4)),
            "vertex counts differ"
        );
    }

    #[test]
    fn builder_deduplicates_and_validates() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (1, 0), (1, 2)])
            .build()
            .unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(GraphBuilder::new(2).edge(0, 5).build().is_err());
    }

    #[test]
    fn neighbor_bits_mirror_the_adjacency_lists() {
        // 70 nodes forces two words per row.
        let g = dense(Graph::from_edges(70, [(3, 65), (3, 0)]).unwrap());
        assert_eq!(g.row_words(), 2);
        let NeighborRow::Dense(row) = g.neighbor_row(NodeId::new(3)) else {
            panic!("the dense layout exposes bit rows");
        };
        assert_eq!(row, &[1u64, 1u64 << 1]); // bit 0; bit 65 = word 1, bit 1
                                             // Every row agrees with the adjacency list, for every node.
        for u in g.nodes() {
            let NeighborRow::Dense(row) = g.neighbor_row(u) else {
                panic!("every in-range row is a bit row");
            };
            for v in g.nodes() {
                let from_bits = row[v.index() / 64] >> (v.index() % 64) & 1 == 1;
                assert_eq!(from_bits, g.neighbors(u).contains(&v), "({u}, {v})");
                assert_eq!(from_bits, g.has_edge(u, v), "({u}, {v})");
            }
        }
    }

    #[test]
    fn has_edge_is_false_for_out_of_range() {
        for g in [Graph::complete(3), dense(Graph::complete(3))] {
            assert!(!g.has_edge(NodeId::new(0), NodeId::new(10)));
            assert!(!g.has_edge(NodeId::new(10), NodeId::new(0)));
            assert!(!g.has_edge(NodeId::new(1), NodeId::new(1)));
        }
    }

    #[test]
    fn csr_round_trips_and_equals_its_dense_source() {
        let csr = Graph::from_edges(70, [(3, 65), (3, 0), (64, 65)]).unwrap();
        let dense = dense(csr.clone());
        assert_eq!(csr.backend(), GraphBackend::Csr);
        assert_eq!(dense.backend(), GraphBackend::Dense);
        assert_eq!(csr, dense, "cross-layout structural equality");
        assert_eq!(csr.edge_count(), dense.edge_count());
        assert_eq!(csr.row_words(), dense.row_words());
        assert_eq!(csr.max_degree(), dense.max_degree());
        assert_eq!(csr.edges(), dense.edges());
        for u in dense.nodes() {
            assert_eq!(csr.neighbors(u), dense.neighbors(u));
            assert_eq!(csr.degree(u), dense.degree(u));
            for v in dense.nodes() {
                assert_eq!(csr.has_edge(u, v), dense.has_edge(u, v), "({u}, {v})");
            }
        }
        // And back: dropping the matrix leaves exactly the rows.
        let back = dense.clone().with_backend(GraphBackend::Csr);
        assert_eq!(back.backend(), GraphBackend::Csr);
        assert_eq!(back, csr);
        // Converting to the layout a graph already has keeps it.
        assert_eq!(dense.clone().with_backend(GraphBackend::Dense), dense);
    }

    #[test]
    fn neighbor_row_exposes_the_native_shape() {
        let csr = Graph::from_edges(5, [(1, 3)]).unwrap();
        match dense(csr.clone()).neighbor_row(NodeId::new(1)) {
            NeighborRow::Dense(words) => assert_eq!(words, &[0b1000]),
            NeighborRow::Sparse(_) => panic!("dense graphs expose bit rows"),
        }
        match csr.neighbor_row(NodeId::new(1)) {
            NeighborRow::Sparse(row) => assert_eq!(row, &[NodeId::new(3)]),
            NeighborRow::Dense(_) => panic!("CSR graphs expose sorted rows"),
        }
        // Out-of-range rows are empty sparse rows under both layouts.
        for g in [csr.clone(), dense(csr)] {
            match g.neighbor_row(NodeId::new(42)) {
                NeighborRow::Sparse(row) => assert!(row.is_empty()),
                NeighborRow::Dense(_) => panic!("out-of-range rows are sparse-empty"),
            }
        }
    }

    #[test]
    fn csr_builder_streams_rows() {
        // A 2×2 grid: 0-1, 0-2, 1-3, 2-3.
        let mut b = CsrBuilder::with_edge_capacity(4, 4);
        b.row([NodeId::new(1), NodeId::new(2)]);
        b.row([NodeId::new(0), NodeId::new(3)]);
        b.row([NodeId::new(0), NodeId::new(3)]);
        b.row([NodeId::new(1), NodeId::new(2)]);
        let g = b.build().unwrap();
        assert_eq!(g.backend(), GraphBackend::Csr);
        assert_eq!(g.edge_count(), 4);
        let listed = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(g, listed);
    }

    #[test]
    fn csr_builder_validates_shape_and_symmetry() {
        // Wrong row count.
        let mut b = CsrBuilder::new(3);
        b.row([NodeId::new(1)]);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidParameter { .. })
        ));
        // Unsorted row.
        let mut b = CsrBuilder::new(3);
        b.row([NodeId::new(2), NodeId::new(1)]);
        b.row([NodeId::new(0)]);
        b.row([NodeId::new(0)]);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidParameter { .. })
        ));
        // Self-loop.
        let mut b = CsrBuilder::new(2);
        b.row([NodeId::new(0)]);
        b.row([NodeId::new(0)]);
        assert!(matches!(b.build(), Err(GraphError::SelfLoop { .. })));
        // Out of range.
        let mut b = CsrBuilder::new(2);
        b.row([NodeId::new(5)]);
        b.row([]);
        assert!(matches!(b.build(), Err(GraphError::NodeOutOfRange { .. })));
        // Asymmetric.
        let mut b = CsrBuilder::new(2);
        b.row([NodeId::new(1)]);
        b.row([]);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn csr_from_edges_sorts_and_deduplicates() {
        let g = Graph::from_edges(5, [(4, 2), (0, 2), (2, 3), (2, 0)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, vec![0, 3, 4]);
        // Rows before and after a deduplicated one keep their own entries.
        assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(2)]);
        assert_eq!(g.neighbors(NodeId::new(3)), &[NodeId::new(2)]);
        assert_eq!(g.neighbors(NodeId::new(4)), &[NodeId::new(2)]);
        assert!(g.neighbors(NodeId::new(1)).is_empty());
        assert!(Graph::from_edges(3, [(0, 3)]).is_err());
        assert!(Graph::from_edges(3, [(1, 1)]).is_err());
        assert_eq!(Graph::from_edges(4, []).unwrap(), Graph::empty(4));
    }

    #[test]
    fn csr_union_merges_sorted_rows() {
        // Overlapping lists chained into one constructor merge into sorted
        // rows holding each shared edge once.
        let a = [(0, 1), (1, 2)];
        let b = [(2, 3), (1, 2)];
        let merged = Graph::from_edges(4, a.iter().chain(&b).copied()).unwrap();
        assert_eq!(merged.edge_count(), 3);
        assert_eq!(
            merged.neighbors(NodeId::new(1)),
            &[NodeId::new(0), NodeId::new(2)]
        );
        assert_eq!(
            merged.neighbors(NodeId::new(2)),
            &[NodeId::new(1), NodeId::new(3)]
        );
        // Chain order does not matter.
        assert_eq!(
            Graph::from_edges(4, b.iter().chain(&a).copied()).unwrap(),
            merged
        );
    }

    #[test]
    fn auto_backend_keeps_small_and_dense_graphs_dense() {
        // Everything at or below the floor stays dense, no matter how sparse.
        assert_eq!(auto_backend(8, 1), GraphBackend::Dense);
        assert_eq!(auto_backend(DENSE_AUTO_MAX_NODES, 10), GraphBackend::Dense);
        // Above the floor, sparse graphs go CSR ...
        assert_eq!(auto_backend(1_000_000, 2_000_000), GraphBackend::Csr);
        assert_eq!(auto_backend(100_000, 400_000), GraphBackend::Csr);
        // ... while near-complete ones stay dense.
        let n = 4096u64;
        assert_eq!(auto_backend(4096, n * (n - 1) / 2), GraphBackend::Dense);
    }

    #[test]
    fn byte_estimates_rank_the_backends_correctly() {
        // Million-node grid: the dense matrix alone is ~116 GiB; CSR fits
        // in well under a gigabyte.
        let n = 1_000_000;
        let m = 2_000_000u64;
        assert!(dense_bytes_estimate(n, m) > 110u64 * (1 << 30));
        assert!(csr_bytes_estimate(n, m) < 1u64 << 30);
        // The dense layout is the CSR rows plus the matrix.
        assert_eq!(
            dense_bytes_estimate(n, m) - csr_bytes_estimate(n, m),
            1_000_000 * 15_625 * 8
        );
        // Tiny clique: both estimates are tiny and of the same order.
        assert!(dense_bytes_estimate(64, 2016) < 64 * 1024);
    }
}
