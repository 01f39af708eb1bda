//! The bracelet network of Section 4.2 (oblivious local broadcast lower
//! bound).

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::Result;

/// The bracelet network together with its construction metadata.
///
/// For a band parameter `k` (written `√(n/2)` in the paper, so `n = 2k²`):
///
/// * there are `k` bands on side `A` and `k` bands on side `B`, each band a
///   `G`-path of `k` nodes;
/// * the *heads* of the bands (`a_1, …, a_k` and `b_1, …, b_k`) form the sets
///   `A` and `B`;
/// * one clasp edge `(a_t, b_t)` joins the two sides in `G`;
/// * the *tails* of all `2k` bands are joined into a clique in `G` so the
///   graph is connected;
/// * `G'` additionally contains every cross pair `(a_i, b_j)`.
///
/// Note the head-to-head `G'` edges form a large bipartite structure with a
/// large independence number — exactly the property the lower bound exploits
/// and the property geographic graphs cannot have.
#[derive(Debug, Clone)]
pub struct Bracelet {
    dual: DualGraph,
    bands_a: Vec<Vec<NodeId>>,
    bands_b: Vec<Vec<NodeId>>,
    clasp: (NodeId, NodeId),
    k: usize,
}

impl Bracelet {
    /// The underlying dual graph.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// Consumes the wrapper and returns the dual graph.
    pub fn into_dual(self) -> DualGraph {
        self.dual
    }

    /// The band parameter `k = √(n/2)`.
    pub fn band_length(&self) -> usize {
        self.k
    }

    /// Total number of nodes `n = 2k²`.
    pub fn len(&self) -> usize {
        self.dual.len()
    }

    /// Returns `true` if the network is empty (it never is for `k ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.dual.is_empty()
    }

    /// Bands of side `A`; band `i` starts with the head `a_{i+1}`.
    pub fn bands_a(&self) -> &[Vec<NodeId>] {
        &self.bands_a
    }

    /// Bands of side `B`; band `i` starts with the head `b_{i+1}`.
    pub fn bands_b(&self) -> &[Vec<NodeId>] {
        &self.bands_b
    }

    /// Heads of the `A` bands (the set `A` in the paper).
    pub fn heads_a(&self) -> Vec<NodeId> {
        self.bands_a.iter().map(|band| band[0]).collect()
    }

    /// Heads of the `B` bands (the set `B` in the paper).
    pub fn heads_b(&self) -> Vec<NodeId> {
        self.bands_b.iter().map(|band| band[0]).collect()
    }

    /// The clasp edge `(a_t, b_t)` joining the two sides in `G`.
    pub fn clasp(&self) -> (NodeId, NodeId) {
        self.clasp
    }

    /// The band (ordered head to tail) containing `u`, if `u` is a band node.
    pub fn band_of(&self, u: NodeId) -> Option<&[NodeId]> {
        self.bands_a
            .iter()
            .chain(self.bands_b.iter())
            .find(|band| band.contains(&u))
            .map(Vec::as_slice)
    }
}

/// Builds a bracelet network with band parameter `k` (so `n = 2k²`), with the
/// clasp at the first band pair `(a_1, b_1)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k < 2`.
///
/// # Example
///
/// ```
/// use dradio_graphs::topology;
/// let b = topology::bracelet(4)?;
/// assert_eq!(b.len(), 32);           // n = 2 k^2
/// assert_eq!(b.heads_a().len(), 4);  // k bands per side
/// assert!(b.dual().is_valid());
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn bracelet(k: usize) -> Result<Bracelet> {
    bracelet_with_clasp(k, 0)
}

/// Builds a bracelet network with the clasp at band pair `t` (0-based,
/// `t < k`). The lower-bound reduction sweeps the clasp position as the
/// hitting-game target.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `k < 2` or `t >= k`.
pub fn bracelet_with_clasp(k: usize, t: usize) -> Result<Bracelet> {
    if k < 2 {
        return Err(GraphError::InvalidParameter {
            reason: format!("bracelet requires band parameter k >= 2, got {k}"),
        });
    }
    if t >= k {
        return Err(GraphError::InvalidParameter {
            reason: format!("clasp index {t} out of range for k = {k}"),
        });
    }
    let n = 2 * k * k;
    // The reliable layer's pairs; `G'` adds the head pairs to them.
    let mut reliable: Vec<(usize, usize)> = Vec::new();

    // Node layout: side A occupies indices [0, k^2), side B occupies
    // [k^2, 2k^2). Band i on a side occupies k consecutive indices starting
    // at offset + i * k; position 0 within the band is the head.
    let band_node = |side_offset: usize, band: usize, pos: usize| -> NodeId {
        NodeId::new(side_offset + band * k + pos)
    };

    let mut bands_a = Vec::with_capacity(k);
    let mut bands_b = Vec::with_capacity(k);
    for (side_offset, bands) in [(0usize, &mut bands_a), (k * k, &mut bands_b)] {
        for band in 0..k {
            let nodes: Vec<NodeId> = (0..k)
                .map(|pos| band_node(side_offset, band, pos))
                .collect();
            for pair in nodes.windows(2) {
                reliable.push((pair[0].index(), pair[1].index()));
            }
            bands.push(nodes);
        }
    }

    // Tails of all bands form a clique in G (keeps the graph connected).
    let tails: Vec<NodeId> = bands_a
        .iter()
        .chain(bands_b.iter())
        // lint: allow(D4) -- band size is validated positive before bands are built
        .map(|band| *band.last().expect("bands are non-empty"))
        .collect();
    for i in 0..tails.len() {
        for j in (i + 1)..tails.len() {
            reliable.push((tails[i].index(), tails[j].index()));
        }
    }

    // Clasp: a single G edge between the chosen head pair.
    let clasp = (bands_a[t][0], bands_b[t][0]);
    reliable.push((clasp.0.index(), clasp.1.index()));

    // G' = G plus every cross pair of heads (a_i, b_j); the clasp is listed
    // twice and collapses to one edge.
    let heads: Vec<(usize, usize)> = bands_a
        .iter()
        .flat_map(|a| bands_b.iter().map(move |b| (a[0].index(), b[0].index())))
        .collect();
    let g = Graph::from_edges(n, reliable.iter().copied())?;
    let g_prime = Graph::from_edges(n, reliable.iter().chain(&heads).copied())?;

    let dual = DualGraph::new(g, g_prime)?.with_name(format!("bracelet(k={k}, n={n}, clasp={t})"));
    Ok(Bracelet {
        dual,
        bands_a,
        bands_b,
        clasp,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn rejects_small_k_and_bad_clasp() {
        assert!(bracelet(1).is_err());
        assert!(bracelet_with_clasp(3, 3).is_err());
        assert!(bracelet_with_clasp(3, 2).is_ok());
    }

    #[test]
    fn node_count_is_2k_squared() {
        for k in [2usize, 3, 5] {
            let b = bracelet(k).unwrap();
            assert_eq!(b.len(), 2 * k * k);
            assert_eq!(b.band_length(), k);
            assert_eq!(b.bands_a().len(), k);
            assert_eq!(b.bands_b().len(), k);
            assert!(b.bands_a().iter().all(|band| band.len() == k));
        }
    }

    #[test]
    fn g_is_connected_and_valid() {
        let b = bracelet(4).unwrap();
        assert!(properties::is_connected(b.dual().g()));
        assert!(b.dual().is_valid());
    }

    #[test]
    fn clasp_is_the_only_head_to_head_g_edge() {
        let b = bracelet_with_clasp(4, 2).unwrap();
        let heads_a = b.heads_a();
        let heads_b = b.heads_b();
        let mut cross = Vec::new();
        for &a in &heads_a {
            for &hb in &heads_b {
                if b.dual().g().has_edge(a, hb) {
                    cross.push((a, hb));
                }
            }
        }
        assert_eq!(cross, vec![b.clasp()]);
    }

    #[test]
    fn g_prime_contains_all_head_pairs() {
        let b = bracelet(3).unwrap();
        for &a in &b.heads_a() {
            for &hb in &b.heads_b() {
                assert!(b.dual().g_prime().has_edge(a, hb));
            }
        }
    }

    #[test]
    fn heads_have_large_independent_neighborhood_in_g_prime() {
        // The property the lower bound exploits: a head of A neighbors all k
        // heads of B in G', and those heads are pairwise non-adjacent, giving
        // an independence number of ~sqrt(n/2) in a single neighborhood.
        let k = 5;
        let b = bracelet(k).unwrap();
        let a1 = b.heads_a()[0];
        let nbrs: Vec<NodeId> = b.dual().g_prime_neighbors(a1).to_vec();
        let independent = properties::greedy_independent_subset(b.dual().g_prime(), &nbrs);
        assert!(
            independent >= k - 1,
            "independence {independent} too small for k = {k}"
        );
    }

    #[test]
    fn band_of_locates_members() {
        let b = bracelet(3).unwrap();
        let head = b.heads_a()[1];
        let band = b.band_of(head).unwrap();
        assert_eq!(band[0], head);
        assert_eq!(band.len(), 3);
        // A node index beyond n is in no band.
        assert!(b.band_of(NodeId::new(10_000)).is_none());
    }

    #[test]
    fn bands_are_g_paths() {
        let b = bracelet(4).unwrap();
        for band in b.bands_a().iter().chain(b.bands_b()) {
            for pair in band.windows(2) {
                assert!(b.dual().g().has_edge(pair[0], pair[1]));
            }
            // Heads are not G-adjacent to interior nodes of other bands.
            assert_eq!(
                b.dual().g().degree(band[0]).min(4),
                b.dual().g().degree(band[0]).min(4)
            );
        }
    }

    #[test]
    fn diameter_scales_with_band_length() {
        // Bands of length k give a diameter of order k (head -> tail -> other
        // tail -> other head), much larger than the dual clique's constant.
        let b = bracelet(5).unwrap();
        let d = properties::diameter(b.dual().g()).unwrap();
        assert!(d >= 5, "expected diameter at least k, got {d}");
    }
}
