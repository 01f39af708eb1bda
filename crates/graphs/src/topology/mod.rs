//! Topology generators.
//!
//! Each generator returns a [`DualGraph`](crate::DualGraph) (or a richer
//! wrapper carrying construction metadata) with a descriptive name attached,
//! ready to be handed to the simulator.
//!
//! The generators cover:
//!
//! * the lower-bound constructions of the paper — [`dual_clique`] (Section 3)
//!   and [`bracelet`] (Section 4.2);
//! * geographic networks satisfying the constraint of Section 2 —
//!   [`random_geometric`] and [`grid_geometric`];
//! * classic families used as static baselines and diameter/degree sweeps —
//!   [`line()`], [`ring`], [`star`], [`grid`], [`balanced_tree`],
//!   [`line_of_cliques`], [`erdos_renyi_dual`].

mod bracelet;
mod clique;
mod geometric;
mod grid;
mod line;
mod random;
mod tree;

pub use bracelet::{bracelet, bracelet_with_clasp, Bracelet};
pub use clique::{clique, dual_clique, dual_clique_with_bridge, DualClique};
pub use geometric::{dual_from_points, grid_geometric, random_geometric, GeometricConfig};
pub use grid::{grid, torus};
pub use line::{line, line_of_cliques, ring, star};
pub use random::{erdos_renyi_dual, gnp, sparse_erdos_renyi_dual, sparse_gnp};
pub use tree::balanced_tree;
