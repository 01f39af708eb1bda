//! Graph and dual-graph representations for radio network simulation.
//!
//! This crate provides the *structural* substrate of the dual graph radio
//! network model of Ghaffari, Lynch and Newport (PODC 2013):
//!
//! * [`Graph`] — a simple, immutable undirected graph over [`NodeId`]s:
//!   sorted compressed rows for every graph, plus a packed bit matrix for
//!   O(1) edge queries and word-parallel row scans when the network is
//!   dense.
//! * [`DualGraph`] — a pair `(G, G')` of graphs over the same vertex set with
//!   `E ⊆ E'`. Edges of `G` are *reliable*; edges of `G' \ E` are *dynamic*
//!   and controlled by an adversarial link process at simulation time. The
//!   dual graph decides the layout of both layers ([`auto_backend`]).
//! * [`topology`] — generators for every network used in the paper (dual
//!   clique, bracelet, geographic/unit-disk graphs with a grey zone) plus
//!   standard families (lines, rings, grids, trees, stars, Erdős–Rényi).
//! * [`geometry`] and [`regions`] — Euclidean embeddings and the constant
//!   density region decomposition used by the geographic local broadcast
//!   algorithm (Section 4.3 of the paper).
//! * [`properties`] — BFS, diameters, connectivity, degree statistics.
//!
//! # Example
//!
//! ```
//! use dradio_graphs::topology;
//! use dradio_graphs::properties;
//!
//! // The dual clique network from Section 3 of the paper: two cliques of
//! // size n/2 joined by a single reliable bridge, with every cross edge
//! // present (but unreliable) in G'.
//! let dual = topology::dual_clique(64).expect("even n >= 4");
//! assert_eq!(dual.len(), 64);
//! assert!(dual.is_valid());
//! // G has constant diameter (here 3: across either clique and the bridge).
//! assert!(properties::diameter(dual.g()).unwrap() <= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dual;
pub mod error;
pub mod geometry;
pub mod graph;
pub mod node;
pub mod properties;
pub mod regions;
pub mod topology;

pub use dual::{DualGraph, DynamicEdgeIndex};
pub use error::GraphError;
pub use geometry::{Embedding, Point};
pub use graph::{
    auto_backend, csr_bytes_estimate, dense_bytes_estimate, CsrBuilder, Edge, Graph, GraphBackend,
    GraphBuilder, NeighborRow,
};
pub use node::NodeId;
pub use regions::RegionDecomposition;

/// Convenient result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
