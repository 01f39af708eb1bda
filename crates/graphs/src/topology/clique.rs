//! Cliques and the dual clique lower-bound network of Section 3.

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::graph::{CsrBuilder, Graph};
use crate::node::NodeId;
use crate::Result;

/// A static clique on `n` nodes (protocol model: `G = G'`).
///
/// # Example
///
/// ```
/// use dradio_graphs::topology;
/// let dual = topology::clique(5);
/// assert!(dual.is_static());
/// assert_eq!(dual.max_degree(), 4);
/// ```
pub fn clique(n: usize) -> DualGraph {
    DualGraph::static_model(Graph::complete(n)).with_name(format!("clique(n={n})"))
}

/// The dual clique network together with its construction metadata.
///
/// The network partitions the `n` nodes into two equal halves `A` and `B`,
/// each forming a clique in `G`; one bridge edge `(t_A, t_B)` joins the
/// halves in `G`; and `G'` is the complete graph. The graph has constant
/// diameter and is the network in which the paper proves that broadcast with
/// an (online or offline) adaptive adversary requires `Ω(n / log n)` rounds.
#[derive(Debug, Clone)]
pub struct DualClique {
    dual: DualGraph,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    bridge: (NodeId, NodeId),
}

impl DualClique {
    /// The underlying dual graph.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// Consumes the wrapper and returns the dual graph.
    pub fn into_dual(self) -> DualGraph {
        self.dual
    }

    /// Nodes of side `A` (contains the global broadcast source by
    /// convention).
    pub fn side_a(&self) -> &[NodeId] {
        &self.a
    }

    /// Nodes of side `B`.
    pub fn side_b(&self) -> &[NodeId] {
        &self.b
    }

    /// The single reliable bridge `(t_A, t_B)` with `t_A ∈ A`, `t_B ∈ B`.
    pub fn bridge(&self) -> (NodeId, NodeId) {
        self.bridge
    }
}

/// Builds the dual clique network on `n` nodes with the bridge at the default
/// position `(n/2 - 1, n/2)` — i.e. the last node of side `A` and the first
/// node of side `B`.
///
/// The default deliberately does *not* place the bridge at node 0, which is
/// the conventional global broadcast source: the lower-bound constructions of
/// the paper rely on the bridge being some a-priori unremarkable node of `A`,
/// and a source that happens to sit on the bridge would trivialize the
/// adversary's task of isolating side `B`. Use [`dual_clique_with_bridge`] to
/// place the bridge explicitly.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `n` is even and `n ≥ 4`.
///
/// # Example
///
/// ```
/// use dradio_graphs::topology;
/// use dradio_graphs::properties;
/// let dc = topology::dual_clique(16)?;
/// assert_eq!(dc.len(), 16);
/// assert!(properties::diameter(dc.g())? <= 3);
/// // G' is complete: the adversary may connect any pair.
/// assert_eq!(dc.g_prime().edge_count(), 16 * 15 / 2);
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn dual_clique(n: usize) -> Result<DualGraph> {
    if n < 4 || !n.is_multiple_of(2) {
        return Err(GraphError::InvalidParameter {
            reason: format!("dual clique requires even n >= 4, got {n}"),
        });
    }
    dual_clique_with_bridge(n, n / 2 - 1, n / 2).map(DualClique::into_dual)
}

/// Builds the dual clique network on `n` nodes with an explicit bridge
/// `(t_a, t_b)` (raw indices; `t_a` must lie in `[0, n/2)` and `t_b` in
/// `[n/2, n)`).
///
/// The lower-bound proof of Theorem 3.1 places the hitting-game target at the
/// bridge; experiments that re-enact the proof use this constructor to sweep
/// the target.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n` is odd, `n < 4`, or the
/// bridge endpoints are on the wrong sides.
pub fn dual_clique_with_bridge(n: usize, t_a: usize, t_b: usize) -> Result<DualClique> {
    if n < 4 || !n.is_multiple_of(2) {
        return Err(GraphError::InvalidParameter {
            reason: format!("dual clique requires even n >= 4, got {n}"),
        });
    }
    let half = n / 2;
    if t_a >= half || t_b < half || t_b >= n {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "bridge endpoints must satisfy t_a in [0, {half}) and t_b in [{half}, {n}), got ({t_a}, {t_b})"
            ),
        });
    }
    // Each node's row is its own half without itself; the bridge partner
    // sits on the other side, so it goes first on side B and last on side A.
    let mut rows = CsrBuilder::with_edge_capacity(n, half * (half - 1) + 1);
    for u in 0..n {
        let side = if u < half { 0..half } else { half..n };
        let partner = if u == t_a {
            Some(t_b)
        } else if u == t_b {
            Some(t_a)
        } else {
            None
        };
        rows.row(
            partner
                .filter(|&w| w < u)
                .into_iter()
                .chain(side.filter(|&w| w != u))
                .chain(partner.filter(|&w| w > u))
                .map(NodeId::new),
        );
    }
    let g = rows.build()?;
    let g_prime = Graph::complete(n);
    let dual =
        DualGraph::new(g, g_prime)?.with_name(format!("dual-clique(n={n}, bridge=({t_a},{t_b}))"));
    Ok(DualClique {
        dual,
        a: (0..half).map(NodeId::new).collect(),
        b: (half..n).map(NodeId::new).collect(),
        bridge: (NodeId::new(t_a), NodeId::new(t_b)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn clique_is_static_and_complete() {
        let c = clique(6);
        assert!(c.is_static());
        assert_eq!(c.g().edge_count(), 15);
        assert_eq!(properties::diameter(c.g()).unwrap(), 1);
    }

    #[test]
    fn dual_clique_rejects_bad_sizes() {
        assert!(dual_clique(3).is_err());
        assert!(dual_clique(7).is_err());
        assert!(dual_clique(2).is_err());
        assert!(dual_clique(4).is_ok());
    }

    #[test]
    fn dual_clique_structure() {
        let dc = dual_clique_with_bridge(12, 2, 8).unwrap();
        let dual = dc.dual();
        assert!(dual.is_valid());
        assert_eq!(dc.side_a().len(), 6);
        assert_eq!(dc.side_b().len(), 6);
        // Bridge is a G edge.
        let (ta, tb) = dc.bridge();
        assert!(dual.g().has_edge(ta, tb));
        // The only G edge between A and B is the bridge.
        let mut cross = 0;
        for &a in dc.side_a() {
            for &b in dc.side_b() {
                if dual.g().has_edge(a, b) {
                    cross += 1;
                }
            }
        }
        assert_eq!(cross, 1);
        // G' is complete.
        assert_eq!(dual.g_prime().edge_count(), 12 * 11 / 2);
    }

    #[test]
    fn dual_clique_has_constant_diameter() {
        for n in [8usize, 16, 32, 64] {
            let dual = dual_clique(n).unwrap();
            let d = properties::diameter(dual.g()).unwrap();
            assert!(d <= 3, "dual clique of size {n} has diameter {d} > 3");
        }
    }

    #[test]
    fn dual_clique_bridge_validation() {
        assert!(dual_clique_with_bridge(8, 5, 6).is_err()); // t_a on wrong side
        assert!(dual_clique_with_bridge(8, 1, 2).is_err()); // t_b on wrong side
        assert!(dual_clique_with_bridge(8, 3, 7).is_ok());
    }

    #[test]
    fn dual_clique_g_is_connected() {
        let dual = dual_clique(20).unwrap();
        assert!(properties::is_connected(dual.g()));
    }
}
