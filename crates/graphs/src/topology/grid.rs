//! Grid and torus topologies.

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::graph::CsrBuilder;
use crate::node::NodeId;
use crate::Result;

/// A static 4-neighbor grid of `cols × rows` nodes.
///
/// Node `(c, r)` has index `r * cols + c`. Each node's (already sorted)
/// neighbor row streams straight into the graph, so construction is
/// O(n + m) at every size; the dual graph attaches the bit matrix only when
/// [`auto_backend`](crate::auto_backend) says dense — a 1000×1000 grid
/// builds in ~50 MB instead of the ~116 GiB its matrix would need.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either dimension is zero.
///
/// # Example
///
/// ```
/// use dradio_graphs::{properties, topology};
/// let dual = topology::grid(4, 3)?;
/// assert_eq!(dual.len(), 12);
/// assert_eq!(properties::diameter(dual.g())?, 5);
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn grid(cols: usize, rows: usize) -> Result<DualGraph> {
    if cols == 0 || rows == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "grid requires both dimensions >= 1".into(),
        });
    }
    let edges = (cols - 1) * rows + cols * (rows - 1);
    let mut b = CsrBuilder::with_edge_capacity(cols * rows, edges);
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            // Ascending: up (idx - cols), left, right, down.
            b.row(
                [
                    (r > 0).then(|| NodeId::new(idx - cols)),
                    (c > 0).then(|| NodeId::new(idx - 1)),
                    (c + 1 < cols).then(|| NodeId::new(idx + 1)),
                    (r + 1 < rows).then(|| NodeId::new(idx + cols)),
                ]
                .into_iter()
                .flatten(),
            );
        }
    }
    Ok(DualGraph::static_model(b.build()?).with_name(format!("grid({cols}x{rows})")))
}

/// A static 4-neighbor torus (grid with wraparound) of `cols × rows` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either dimension is less
/// than 3 (smaller wraparounds create multi-edges).
pub fn torus(cols: usize, rows: usize) -> Result<DualGraph> {
    if cols < 3 || rows < 3 {
        return Err(GraphError::InvalidParameter {
            reason: "torus requires both dimensions >= 3".into(),
        });
    }
    let mut b = CsrBuilder::with_edge_capacity(cols * rows, 2 * cols * rows);
    for r in 0..rows {
        for c in 0..cols {
            // With both dimensions >= 3 the four wrapped neighbors differ.
            let mut row = [
                r * cols + (c + cols - 1) % cols,
                r * cols + (c + 1) % cols,
                (r + rows - 1) % rows * cols + c,
                (r + 1) % rows * cols + c,
            ];
            row.sort_unstable();
            b.row(row.map(NodeId::new));
        }
    }
    Ok(DualGraph::static_model(b.build()?).with_name(format!("torus({cols}x{rows})")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn grid_shape() {
        let d = grid(5, 4).unwrap();
        assert_eq!(d.len(), 20);
        // 5x4 grid: horizontal edges = 4*4 = 16, vertical = 5*3 = 15, total 31.
        assert_eq!(d.g().edge_count(), 31);
        assert_eq!(properties::diameter(d.g()).unwrap(), 4 + 3);
        assert!(grid(0, 4).is_err());
    }

    #[test]
    fn grid_degrees() {
        let d = grid(3, 3).unwrap();
        // Corner degree 2, edge degree 3, center degree 4.
        assert_eq!(d.g().degree(NodeId::new(0)), 2);
        assert_eq!(d.g().degree(NodeId::new(1)), 3);
        assert_eq!(d.g().degree(NodeId::new(4)), 4);
    }

    #[test]
    fn torus_is_regular() {
        let d = torus(4, 5).unwrap();
        for u in d.g().nodes() {
            assert_eq!(d.g().degree(u), 4);
        }
        assert!(properties::is_connected(d.g()));
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn single_row_grid_is_a_line() {
        let d = grid(7, 1).unwrap();
        assert_eq!(properties::diameter(d.g()).unwrap(), 6);
        assert_eq!(d.max_degree(), 2);
    }
}
