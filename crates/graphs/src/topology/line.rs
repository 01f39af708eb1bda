//! Lines, rings, stars, and lines of cliques (diameter-controlled families).

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::graph::CsrBuilder;
use crate::node::NodeId;
use crate::Result;

/// A static path (line) on `n` nodes: diameter `n - 1`, max degree 2.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`.
///
/// # Example
///
/// ```
/// use dradio_graphs::{properties, topology};
/// let dual = topology::line(10)?;
/// assert_eq!(properties::diameter(dual.g())?, 9);
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn line(n: usize) -> Result<DualGraph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "line requires n >= 1".into(),
        });
    }
    let mut b = CsrBuilder::with_edge_capacity(n, n - 1);
    for i in 0..n {
        b.row(
            [i.checked_sub(1), (i + 1 < n).then_some(i + 1)]
                .into_iter()
                .flatten()
                .map(NodeId::new),
        );
    }
    Ok(DualGraph::static_model(b.build()?).with_name(format!("line(n={n})")))
}

/// A static cycle (ring) on `n ≥ 3` nodes: diameter `⌊n/2⌋`, degree 2.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`.
pub fn ring(n: usize) -> Result<DualGraph> {
    if n < 3 {
        return Err(GraphError::InvalidParameter {
            reason: "ring requires n >= 3".into(),
        });
    }
    let mut b = CsrBuilder::with_edge_capacity(n, n);
    for i in 0..n {
        // With n >= 3 the two neighbors differ.
        let mut row = [(i + n - 1) % n, (i + 1) % n];
        row.sort_unstable();
        b.row(row.map(NodeId::new));
    }
    Ok(DualGraph::static_model(b.build()?).with_name(format!("ring(n={n})")))
}

/// A static star on `n ≥ 2` nodes: node 0 is the hub, diameter 2 (1 for
/// `n = 2`), max degree `n - 1`.
///
/// Stars are the canonical *single-hop* contention scenario used by the
/// decay-subroutine experiments (Lemma 4.2): many broadcasters, one receiver.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`.
pub fn star(n: usize) -> Result<DualGraph> {
    if n < 2 {
        return Err(GraphError::InvalidParameter {
            reason: "star requires n >= 2".into(),
        });
    }
    let mut b = CsrBuilder::with_edge_capacity(n, n - 1);
    b.row((1..n).map(NodeId::new));
    for _ in 1..n {
        b.row([NodeId::new(0)]);
    }
    Ok(DualGraph::static_model(b.build()?).with_name(format!("star(n={n})")))
}

/// A static "line of cliques": `cliques` cliques of `clique_size` nodes each,
/// consecutive cliques joined by a single bridge edge.
///
/// This family lets experiments control diameter (`≈ 2·cliques`) and local
/// contention (`clique_size`) independently — the regime where the
/// `O(D log n + log² n)` global broadcast bound is interesting.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either parameter is zero.
///
/// # Example
///
/// ```
/// use dradio_graphs::{properties, topology};
/// let dual = topology::line_of_cliques(5, 4)?;
/// assert_eq!(dual.len(), 20);
/// assert!(properties::is_connected(dual.g()));
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn line_of_cliques(cliques: usize, clique_size: usize) -> Result<DualGraph> {
    if cliques == 0 || clique_size == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "line_of_cliques requires both parameters >= 1".into(),
        });
    }
    let n = cliques * clique_size;
    let mut b = CsrBuilder::with_edge_capacity(
        n,
        cliques * clique_size * (clique_size - 1) / 2 + cliques - 1,
    );
    for u in 0..n {
        let base = u - u % clique_size;
        let end = base + clique_size;
        // Bridges join the last node of each clique to the first node of
        // the next: before the row on a clique's first node, after it on
        // its last.
        let prev = (u == base && base > 0).then(|| base - 1);
        let next = (u + 1 == end && end < n).then_some(end);
        b.row(
            prev.into_iter()
                .chain((base..end).filter(|&v| v != u))
                .chain(next)
                .map(NodeId::new),
        );
    }
    Ok(DualGraph::static_model(b.build()?)
        .with_name(format!("line-of-cliques(c={cliques}, s={clique_size})")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn line_shape() {
        let d = line(6).unwrap();
        assert_eq!(d.len(), 6);
        assert_eq!(d.g().edge_count(), 5);
        assert_eq!(properties::diameter(d.g()).unwrap(), 5);
        assert_eq!(d.max_degree(), 2);
        assert!(line(0).is_err());
        assert!(line(1).is_ok());
    }

    #[test]
    fn ring_shape() {
        let d = ring(8).unwrap();
        assert_eq!(d.g().edge_count(), 8);
        assert_eq!(properties::diameter(d.g()).unwrap(), 4);
        assert!(ring(2).is_err());
    }

    #[test]
    fn star_shape() {
        let d = star(9).unwrap();
        assert_eq!(d.g().edge_count(), 8);
        assert_eq!(d.max_degree(), 8);
        assert_eq!(properties::diameter(d.g()).unwrap(), 2);
        assert!(star(1).is_err());
    }

    #[test]
    fn line_of_cliques_shape() {
        let d = line_of_cliques(4, 5).unwrap();
        assert_eq!(d.len(), 20);
        assert!(properties::is_connected(d.g()));
        let diam = properties::diameter(d.g()).unwrap();
        assert!(
            (4..=2 * 4 + 2).contains(&diam),
            "diameter {diam} out of expected range"
        );
        assert!(line_of_cliques(0, 3).is_err());
        assert!(line_of_cliques(3, 0).is_err());
    }

    #[test]
    fn line_of_cliques_degenerates_to_line() {
        let d = line_of_cliques(5, 1).unwrap();
        assert_eq!(d.g().edge_count(), 4);
        assert_eq!(properties::diameter(d.g()).unwrap(), 4);
    }

    #[test]
    fn all_are_static_models() {
        assert!(line(5).unwrap().is_static());
        assert!(ring(5).unwrap().is_static());
        assert!(star(5).unwrap().is_static());
        assert!(line_of_cliques(2, 3).unwrap().is_static());
    }
}
