//! Geographic (unit-disk style) dual graphs with a grey zone.
//!
//! These topologies satisfy the geographic constraint of Section 2 of the
//! paper: nodes at distance `≤ 1` are connected in `G`, nodes at distance
//! `> r` are not connected in `G'`, and pairs in the *grey zone* `(1, r]`
//! are connected in `G'` but not `G` — their links exist but are unreliable.

use std::collections::BTreeMap;

use rand::Rng;

use crate::dual::DualGraph;
use crate::error::GraphError;
use crate::geometry::{Embedding, Point};
use crate::graph::Graph;
use crate::properties;
use crate::Result;

/// Parameters for [`random_geometric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricConfig {
    /// Number of nodes.
    pub n: usize,
    /// Side length of the square deployment area.
    pub side: f64,
    /// Geographic parameter `r ≥ 1`: pairs farther than `r` share no `G'`
    /// edge; pairs in `(1, r]` are grey-zone (dynamic) links.
    pub r: f64,
    /// Maximum number of placement attempts to obtain a connected reliable
    /// layer.
    pub max_attempts: usize,
}

impl GeometricConfig {
    /// Creates a configuration with the default attempt budget (200).
    pub fn new(n: usize, side: f64, r: f64) -> Self {
        GeometricConfig {
            n,
            side,
            r,
            max_attempts: 200,
        }
    }

    /// Sets the attempt budget for sampling a connected deployment.
    pub fn with_max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.n == 0 {
            return Err(GraphError::InvalidParameter {
                reason: "n must be >= 1".into(),
            });
        }
        if self.r < 1.0 {
            return Err(GraphError::InvalidParameter {
                reason: format!("geographic parameter r must be >= 1, got {}", self.r),
            });
        }
        if self.side <= 0.0 {
            return Err(GraphError::InvalidParameter {
                reason: format!("deployment side must be positive, got {}", self.side),
            });
        }
        if self.max_attempts == 0 {
            return Err(GraphError::InvalidParameter {
                reason: "max_attempts must be >= 1".into(),
            });
        }
        Ok(())
    }
}

/// Classifies all node pairs at distance `≤ 1` (reliable) and in `(1, r]`
/// (grey zone) in ~`O(n + m)` expected time via a spatial hash with cell
/// size `r`: partners within distance `r` can only live in the 3×3 cell
/// neighborhood, so the quadratic all-pairs scan is never needed.
///
/// A `BTreeMap` keys the buckets so iteration order is deterministic
/// (hash-map iteration would vary run to run). Pairs are emitted in bucket
/// order, not lexicographic order; [`Graph::from_edges`] sorts every row,
/// so the resulting graphs are identical to the old scan's.
///
/// A coordinate too large for an `i64` cell index saturates to the last
/// cell (an infinite one too), which only merges cells, and the
/// neighbourhood of the last cell has no cell beyond it.
type PairList = Vec<(usize, usize)>;

fn classify_pairs(points: &[Point], r: f64) -> (PairList, PairList) {
    let mut buckets: BTreeMap<(i64, i64), Vec<u32>> = BTreeMap::new();
    let cell = |p: &Point| ((p.x / r).floor() as i64, (p.y / r).floor() as i64);
    for (i, p) in points.iter().enumerate() {
        buckets.entry(cell(p)).or_default().push(i as u32);
    }
    let mut reliable = Vec::new();
    let mut grey = Vec::new();
    for (&(cx, cy), members) in &buckets {
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                let Some(key) = cx.checked_add(dx).zip(cy.checked_add(dy)) else {
                    continue;
                };
                let Some(other) = buckets.get(&key) else {
                    continue;
                };
                for &i in members {
                    for &j in other {
                        if j <= i {
                            // Cross-bucket pairs are visited from both ends;
                            // keep exactly the lo→hi orientation.
                            continue;
                        }
                        let d = points[i as usize].distance(points[j as usize]);
                        if d <= 1.0 {
                            reliable.push((i as usize, j as usize));
                        } else if d <= r {
                            grey.push((i as usize, j as usize));
                        }
                    }
                }
            }
        }
    }
    (reliable, grey)
}

/// Builds the dual graph induced by a set of points under the geographic
/// constraint with parameter `r`.
///
/// Pair discovery runs through a spatial hash (expected `O(n + m)` instead
/// of the former all-pairs `O(n²)` scan), both layers are built from the
/// two pair lists in place, and the dual graph attaches a bit matrix only
/// when [`auto_backend`](crate::auto_backend) says dense, so million-point
/// deployments build without ever materializing an adjacency matrix.
pub fn dual_from_points(points: Vec<Point>, r: f64, name: impl Into<String>) -> Result<DualGraph> {
    if r < 1.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("geographic parameter r must be >= 1, got {r}"),
        });
    }
    let n = points.len();
    // The pair lists are dropped before the dual graph is assembled.
    let (g, g_prime) = {
        let (reliable, grey) = classify_pairs(&points, r);
        (
            Graph::from_edges(n, reliable.iter().copied())?,
            Graph::from_edges(n, reliable.iter().chain(&grey).copied())?,
        )
    };
    DualGraph::new(g, g_prime)?
        .with_embedding(Embedding::new(points))
        .map(|d| d.with_name(name))
}

/// Samples a random geographic dual graph: `n` points placed uniformly in a
/// `side × side` square, re-sampled until the reliable layer is connected.
///
/// # Errors
///
/// * [`GraphError::InvalidParameter`] for invalid configuration values.
/// * [`GraphError::Disconnected`] if no connected deployment was found within
///   the attempt budget (decrease `side` or increase `n`).
///
/// # Example
///
/// ```
/// use dradio_graphs::topology::{random_geometric, GeometricConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// let mut rng = ChaCha8Rng::seed_from_u64(11);
/// let dual = random_geometric(&GeometricConfig::new(60, 4.0, 2.0), &mut rng)?;
/// assert!(dual.satisfies_geographic_constraint(2.0)?);
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
pub fn random_geometric<R: Rng + ?Sized>(
    config: &GeometricConfig,
    rng: &mut R,
) -> Result<DualGraph> {
    config.validate()?;
    for _ in 0..config.max_attempts {
        let points: Vec<Point> = (0..config.n)
            .map(|_| {
                Point::new(
                    rng.gen_range(0.0..config.side),
                    rng.gen_range(0.0..config.side),
                )
            })
            .collect();
        let dual = dual_from_points(
            points,
            config.r,
            format!(
                "geometric(n={}, side={:.1}, r={:.1})",
                config.n, config.side, config.r
            ),
        )?;
        if properties::is_connected(dual.g()) {
            return Ok(dual);
        }
    }
    Err(GraphError::Disconnected)
}

/// Builds a deterministic geographic dual graph on a `cols × rows` grid of
/// points with the given `spacing` between adjacent grid positions.
///
/// With `spacing ≤ 1` horizontally/vertically adjacent nodes are reliable
/// neighbors; diagonal or farther pairs within distance `r` are grey-zone
/// links. The family gives reproducible diameter sweeps for the geographic
/// experiments (no sampling, no connectivity retries).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for zero dimensions, non-positive
/// spacing, spacing greater than 1 (the grid would be disconnected in `G`),
/// or `r < 1`.
pub fn grid_geometric(cols: usize, rows: usize, spacing: f64, r: f64) -> Result<DualGraph> {
    if cols == 0 || rows == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "grid_geometric requires both dimensions >= 1".into(),
        });
    }
    if spacing <= 0.0 || spacing > 1.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("spacing must be in (0, 1], got {spacing}"),
        });
    }
    let mut points = Vec::with_capacity(cols * rows);
    for row in 0..rows {
        for col in 0..cols {
            points.push(Point::new(col as f64 * spacing, row as f64 * spacing));
        }
    }
    dual_from_points(
        points,
        r,
        format!("grid-geometric({cols}x{rows}, s={spacing:.2}, r={r:.1})"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn config_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(random_geometric(&GeometricConfig::new(0, 2.0, 1.5), &mut rng).is_err());
        assert!(random_geometric(&GeometricConfig::new(10, 2.0, 0.5), &mut rng).is_err());
        assert!(random_geometric(&GeometricConfig::new(10, -1.0, 1.5), &mut rng).is_err());
        assert!(random_geometric(
            &GeometricConfig::new(10, 2.0, 1.5).with_max_attempts(0),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn random_geometric_satisfies_constraint() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let r = 1.8;
        let dual = random_geometric(&GeometricConfig::new(70, 4.0, r), &mut rng).unwrap();
        assert!(dual.is_valid());
        assert!(dual.satisfies_geographic_constraint(r).unwrap());
        assert!(properties::is_connected(dual.g()));
        assert!(dual.embedding().is_some());
    }

    #[test]
    fn random_geometric_is_deterministic_per_seed() {
        let cfg = GeometricConfig::new(40, 3.0, 1.5);
        let a = random_geometric(&cfg, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let b = random_geometric(&cfg, &mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        assert_eq!(a.g().edges(), b.g().edges());
        assert_eq!(a.g_prime().edges(), b.g_prime().edges());
    }

    #[test]
    fn sparse_deployment_reports_disconnected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // 3 nodes in a 100x100 area will essentially never form a connected
        // unit-disk graph.
        let cfg = GeometricConfig::new(3, 100.0, 1.0).with_max_attempts(5);
        assert_eq!(
            random_geometric(&cfg, &mut rng).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn grid_geometric_structure() {
        let dual = grid_geometric(5, 4, 1.0, 1.5).unwrap();
        assert_eq!(dual.len(), 20);
        assert!(dual.is_valid());
        assert!(dual.satisfies_geographic_constraint(1.5).unwrap());
        // Diagonal neighbors are at distance sqrt(2) ~ 1.414 <= r, so they are
        // grey-zone (dynamic) links.
        assert!(!dual.dynamic_edges().is_empty());
        assert!(properties::is_connected(dual.g()));
    }

    #[test]
    fn grid_geometric_rejects_bad_parameters() {
        assert!(grid_geometric(0, 3, 1.0, 1.5).is_err());
        assert!(grid_geometric(3, 3, 0.0, 1.5).is_err());
        assert!(grid_geometric(3, 3, 1.2, 1.5).is_err());
        assert!(grid_geometric(3, 3, 1.0, 0.9).is_err());
    }

    #[test]
    fn tighter_r_removes_grey_zone_edges() {
        let wide = grid_geometric(4, 4, 1.0, 2.5).unwrap();
        let narrow = grid_geometric(4, 4, 1.0, 1.0).unwrap();
        assert!(wide.dynamic_edges().len() > narrow.dynamic_edges().len());
        // r = 1 means G' = G (no grey zone at all).
        assert!(narrow.is_static());
    }

    /// The pre-spatial-hash all-pairs scan, kept as the reference
    /// implementation the hash-based generator is pinned against.
    fn quadratic_reference(points: Vec<Point>, r: f64) -> DualGraph {
        let n = points.len();
        let mut reliable = Vec::new();
        let mut all = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = points[i].distance(points[j]);
                if d <= 1.0 {
                    reliable.push((i, j));
                }
                if d <= r {
                    all.push((i, j));
                }
            }
        }
        DualGraph::new(
            Graph::from_edges(n, reliable).unwrap(),
            Graph::from_edges(n, all).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn spatial_hash_matches_quadratic_scan_for_existing_seeds() {
        // Same seeds and configs as the long-standing generator tests: the
        // spatial hash must reproduce the historical edge sets exactly.
        for (seed, n, side, r) in [
            (5u64, 40usize, 3.0, 1.5),
            (11, 60, 4.0, 2.0),
            (42, 70, 4.0, 1.8),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let fast = dual_from_points(points.clone(), r, "fast").unwrap();
            let slow = quadratic_reference(points, r);
            assert_eq!(fast.g().edges(), slow.g().edges());
            assert_eq!(fast.g_prime().edges(), slow.g_prime().edges());
        }
    }

    #[test]
    fn dual_from_points_respects_thresholds() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(2.4, 0.0),
        ];
        let dual = dual_from_points(points, 1.6, "manual").unwrap();
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert!(dual.g().has_edge(a, b)); // distance 0.9 <= 1
        assert!(!dual.g().has_edge(b, c)); // distance 1.5 > 1 ...
        assert!(dual.g_prime().has_edge(b, c)); // ... but <= r: grey zone
        assert!(!dual.g_prime().has_edge(a, c)); // distance 2.4 > r
    }

    #[test]
    fn huge_and_infinite_coordinates_build_without_overflow() {
        // Cell indices saturate at the i64 range; the last cell has no
        // neighbour beyond it.
        let far = 1e300;
        let points = vec![
            Point::new(far, far),
            Point::new(far, far),
            Point::new(-far, -far),
            Point::new(f64::INFINITY, 0.0),
            Point::new(0.0, f64::NEG_INFINITY),
            Point::new(0.5, 0.0),
        ];
        let dual = dual_from_points(points, 1.5, "far").unwrap();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(
            dual.g().has_edge(a, b),
            "coincident far points are adjacent"
        );
        assert_eq!(dual.g_prime().edge_count(), 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sparse = random_geometric(&GeometricConfig::new(10, 1e300, 1.5), &mut rng);
        assert!(matches!(sparse, Err(GraphError::Disconnected)));
    }
}
