//! Balanced tree topologies.

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::graph::CsrBuilder;
use crate::node::NodeId;
use crate::Result;

/// A static complete `branching`-ary tree of the given `depth` (depth 0 is a
/// single root).
///
/// Trees give logarithmic diameter with controllable degree, a useful middle
/// point between cliques (constant diameter) and lines (linear diameter) for
/// the global broadcast scaling experiments.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `branching == 0` or if the
/// requested tree would exceed `2^22` nodes (guards against accidental
/// exponential blow-up in sweeps).
///
/// # Example
///
/// ```
/// use dradio_graphs::{properties, topology};
/// let dual = topology::balanced_tree(2, 3)?;
/// assert_eq!(dual.len(), 15); // 1 + 2 + 4 + 8
/// assert_eq!(properties::diameter(dual.g())?, 6);
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn balanced_tree(branching: usize, depth: usize) -> Result<DualGraph> {
    if branching == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "balanced_tree requires branching >= 1".into(),
        });
    }
    // Count nodes: sum_{d=0..=depth} branching^d, with an overflow guard.
    let mut n: usize = 0;
    let mut level: usize = 1;
    for _ in 0..=depth {
        n = n
            .checked_add(level)
            .ok_or_else(|| GraphError::InvalidParameter {
                reason: "tree too large".into(),
            })?;
        level = level.saturating_mul(branching);
        if n > (1 << 22) {
            return Err(GraphError::InvalidParameter {
                reason: format!("tree with branching {branching} and depth {depth} is too large"),
            });
        }
    }
    // In a complete branching-ary tree laid out in BFS order, node i >= 1
    // has parent (i - 1) / branching and node i has children
    // i·branching + 1 ..= i·branching + branching: parent first, then
    // children, is already ascending.
    let mut b = CsrBuilder::with_edge_capacity(n, n - 1);
    for i in 0..n {
        let parent = i.checked_sub(1).map(|p| p / branching);
        let first_child = i.saturating_mul(branching).saturating_add(1).min(n);
        let children = first_child..first_child.saturating_add(branching).min(n);
        b.row(parent.into_iter().chain(children).map(NodeId::new));
    }
    Ok(DualGraph::static_model(b.build()?).with_name(format!("tree(b={branching}, d={depth})")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn binary_tree_counts() {
        let d = balanced_tree(2, 3).unwrap();
        assert_eq!(d.len(), 15);
        assert_eq!(d.g().edge_count(), 14);
        assert!(properties::is_connected(d.g()));
    }

    #[test]
    fn depth_zero_is_single_node() {
        let d = balanced_tree(3, 0).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.g().edge_count(), 0);
    }

    #[test]
    fn unary_tree_is_a_path() {
        let d = balanced_tree(1, 5).unwrap();
        assert_eq!(d.len(), 6);
        assert_eq!(properties::diameter(d.g()).unwrap(), 5);
    }

    #[test]
    fn root_degree_equals_branching() {
        let d = balanced_tree(4, 2).unwrap();
        assert_eq!(d.g().degree(NodeId::new(0)), 4);
        // Internal nodes have branching + 1 neighbors.
        assert_eq!(d.g().degree(NodeId::new(1)), 5);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(balanced_tree(0, 3).is_err());
        assert!(balanced_tree(2, 40).is_err());
    }
}
