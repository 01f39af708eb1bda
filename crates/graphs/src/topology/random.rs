//! Random (Erdős–Rényi) dual graphs.

use rand::Rng;

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;
use crate::properties;
use crate::Result;

/// Samples an Erdős–Rényi graph `G(n, p)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]`.
///
/// # Example
///
/// ```
/// use dradio_graphs::topology;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let g = topology::gnp(20, 0.3, &mut rng)?;
/// assert_eq!(g.len(), 20);
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must be in [0, 1], got {p}"),
        });
    }
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(n, edges)
}

/// Samples a random dual graph: the reliable layer is `G(n, p_reliable)`
/// re-sampled until connected (at most 200 attempts), and every absent pair
/// is added to `G'` independently with probability `p_dynamic`.
///
/// This family models "unstructured" unreliability and is used as a
/// non-geographic workload in the oblivious global broadcast experiments.
///
/// # Errors
///
/// * [`GraphError::InvalidParameter`] if a probability is out of range or
///   `n == 0`.
/// * [`GraphError::Disconnected`] if no connected reliable layer was sampled
///   within the attempt budget (choose a larger `p_reliable`).
pub fn erdos_renyi_dual<R: Rng + ?Sized>(
    n: usize,
    p_reliable: f64,
    p_dynamic: f64,
    rng: &mut R,
) -> Result<DualGraph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "n must be >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&p_dynamic) {
        return Err(GraphError::InvalidParameter {
            reason: format!("dynamic edge probability must be in [0, 1], got {p_dynamic}"),
        });
    }
    let mut g = None;
    for _ in 0..200 {
        let candidate = gnp(n, p_reliable, rng)?;
        if properties::is_connected(&candidate) {
            g = Some(candidate);
            break;
        }
    }
    let g = g.ok_or(GraphError::Disconnected)?;
    // G' is G plus each absent pair with probability p_dynamic: one coin
    // per absent pair, in canonical pair order.
    let mut dynamic = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if !g.has_edge(NodeId::new(i), NodeId::new(j)) && rng.gen_bool(p_dynamic) {
                dynamic.push((i, j));
            }
        }
    }
    let reliable = g.edges().into_iter().map(|e| {
        let (u, v) = e.endpoints();
        (u.index(), v.index())
    });
    let g_prime = Graph::from_edges(n, reliable.chain(dynamic))?;
    DualGraph::new(g, g_prime).map(|d| {
        d.with_name(format!(
            "erdos-renyi(n={n}, p={p_reliable:.2}, q={p_dynamic:.2})"
        ))
    })
}

/// Samples `G(n, p)` in expected `O(n + m)` time via geometric skip
/// sampling: instead of flipping a coin for each of the `n(n-1)/2` pairs,
/// the gap to the next present edge is drawn directly as
/// `⌊ln(1-u) / ln(1-p)⌋` over the canonical pair enumeration.
///
/// This draws a *different RNG stream* than [`gnp`] (one `f64` per edge
/// rather than one Bernoulli per pair), so for a fixed seed the two
/// samplers produce different — equally distributed — graphs. The sampled
/// pairs build the rows directly, so sparse million-node samples never
/// touch an n×n matrix.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]`.
pub fn sparse_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must be in [0, 1], got {p}"),
        });
    }
    // p = 0 must short-circuit: ln(1-u)/ln(1) is -inf/0 = NaN, and a NaN
    // cast to usize saturates to 0, which would emit *every* pair.
    if n < 2 || p <= 0.0 {
        return Ok(Graph::empty(n));
    }
    let ln_q = (1.0 - p).ln(); // -inf when p = 1, making every skip 0.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let (mut i, mut j) = (0usize, 1usize);
    // Walk the canonical enumeration (0,1), (0,2), …, (n-2,n-1), jumping
    // `skip` absent pairs at a time. Returns false when the walk runs off
    // the final row.
    let advance = |i: &mut usize, j: &mut usize, mut steps: usize| loop {
        let row_left = n - *j;
        if steps < row_left {
            *j += steps;
            return true;
        }
        steps -= row_left;
        *i += 1;
        if *i >= n - 1 {
            return false;
        }
        *j = *i + 1;
    };
    let mut first = true;
    loop {
        let u: f64 = rng.gen();
        let skip = ((1.0 - u).ln() / ln_q) as usize;
        // The first present pair lies `skip` steps from (0,1) inclusive;
        // afterwards it lies `skip` steps past the previous edge.
        let steps = if first { skip } else { skip + 1 };
        first = false;
        if !advance(&mut i, &mut j, steps) {
            break;
        }
        edges.push((i, j));
    }
    Graph::from_edges(n, edges)
}

/// Samples a *static* dual graph (`G = G'`) over [`sparse_gnp`].
///
/// Unlike [`erdos_renyi_dual`] there is no connectivity retry loop — at
/// million-node scale a retry costs a full resample, and the intended
/// regime (`p` a few multiples of `ln n / n`) is connected with high
/// probability. Callers that need certainty check
/// [`properties::is_connected`] themselves.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is out of range or
/// `n == 0`.
pub fn sparse_erdos_renyi_dual<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
) -> Result<DualGraph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "n must be >= 1".into(),
        });
    }
    let g = sparse_gnp(n, p, rng)?;
    Ok(DualGraph::static_model(g).with_name(format!("sparse-erdos-renyi(n={n}, p={p:.4})")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gnp_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let empty = gnp(10, 0.0, &mut rng).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = gnp(10, 1.0, &mut rng).unwrap();
        assert_eq!(full.edge_count(), 45);
        assert!(gnp(10, 1.5, &mut rng).is_err());
        assert!(gnp(10, -0.1, &mut rng).is_err());
    }

    #[test]
    fn gnp_is_deterministic_for_fixed_seed() {
        let a = gnp(30, 0.2, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        let b = gnp(30, 0.2, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn erdos_renyi_dual_is_valid_and_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dual = erdos_renyi_dual(40, 0.2, 0.1, &mut rng).unwrap();
        assert!(dual.is_valid());
        assert!(properties::is_connected(dual.g()));
        assert_eq!(dual.len(), 40);
    }

    #[test]
    fn erdos_renyi_dual_adds_dynamic_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let dual = erdos_renyi_dual(30, 0.3, 0.5, &mut rng).unwrap();
        assert!(!dual.dynamic_edges().is_empty());
    }

    #[test]
    fn erdos_renyi_dual_rejects_bad_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(erdos_renyi_dual(0, 0.5, 0.5, &mut rng).is_err());
        assert!(erdos_renyi_dual(10, 0.5, 1.5, &mut rng).is_err());
        // Extremely sparse reliable layer on a large graph: likely to fail to
        // connect, which must surface as an error rather than a panic.
        assert!(matches!(
            erdos_renyi_dual(200, 0.0, 0.1, &mut rng),
            Err(GraphError::Disconnected) | Ok(_)
        ));
    }

    #[test]
    fn zero_dynamic_probability_gives_static_model() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dual = erdos_renyi_dual(25, 0.4, 0.0, &mut rng).unwrap();
        assert!(dual.is_static());
    }

    #[test]
    fn sparse_gnp_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // p = 0 must yield no edges (the NaN-skip hazard case).
        assert_eq!(sparse_gnp(10, 0.0, &mut rng).unwrap().edge_count(), 0);
        // p = 1 must yield every pair (ln_q = -inf, every skip 0).
        let full = sparse_gnp(10, 1.0, &mut rng).unwrap();
        assert_eq!(full.edge_count(), 45);
        assert_eq!(full, Graph::complete(10));
        assert!(sparse_gnp(10, 1.5, &mut rng).is_err());
        assert!(sparse_gnp(10, -0.1, &mut rng).is_err());
        assert_eq!(sparse_gnp(1, 0.5, &mut rng).unwrap().edge_count(), 0);
        assert_eq!(sparse_gnp(0, 0.5, &mut rng).unwrap().len(), 0);
    }

    #[test]
    fn sparse_gnp_is_deterministic_and_plausibly_distributed() {
        let a = sparse_gnp(5000, 0.002, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        let b = sparse_gnp(5000, 0.002, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
        // E[m] = 0.002 * 5000*4999/2 ≈ 25_000; a 3x window is
        // astronomically safe.
        assert!(a.edge_count() > 8_000 && a.edge_count() < 75_000);
        // Past DENSE_AUTO_MAX_NODES, the dual graph keeps sparse samples on
        // CSR rows; small or dense parameters get the bit matrix.
        let dual = sparse_erdos_renyi_dual(5000, 0.002, &mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        assert_eq!(dual.g(), &a);
        assert_eq!(dual.graph_backend(), crate::GraphBackend::Csr);
        let small = sparse_erdos_renyi_dual(50, 0.5, &mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        assert_eq!(small.graph_backend(), crate::GraphBackend::Dense);
    }

    #[test]
    fn sparse_dual_is_static_and_named() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dual = sparse_erdos_renyi_dual(300, 0.05, &mut rng).unwrap();
        assert!(dual.is_static());
        assert!(dual.is_valid());
        assert_eq!(dual.name(), "sparse-erdos-renyi(n=300, p=0.0500)");
        assert!(sparse_erdos_renyi_dual(0, 0.5, &mut rng).is_err());
    }
}
