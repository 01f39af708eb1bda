//! Error types for graph construction and queries.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;

/// Errors produced by graph construction, topology generation, and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node identifier referenced a vertex outside `0..n`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `(u, u)` was requested; the radio model forbids them.
    SelfLoop {
        /// The node for which a self-loop was requested.
        node: NodeId,
    },
    /// A dual graph was built whose reliable edge set is not contained in
    /// the unreliable edge set (`E ⊄ E'`).
    NotContained {
        /// A witness edge present in `G` but missing from `G'`.
        missing: (NodeId, NodeId),
    },
    /// The two layers of a dual graph have different vertex counts.
    LayerSizeMismatch {
        /// Number of vertices in `G`.
        g: usize,
        /// Number of vertices in `G'`.
        g_prime: usize,
    },
    /// A topology generator was asked for an unsupported parameter value.
    InvalidParameter {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// An operation requiring a connected graph was called on a disconnected
    /// graph.
    Disconnected,
    /// An operation requiring a Euclidean embedding was called on a graph
    /// without one.
    MissingEmbedding,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} vertices")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop requested at {node}"),
            GraphError::NotContained { missing } => write!(
                f,
                "reliable edge ({}, {}) missing from the unreliable layer",
                missing.0, missing.1
            ),
            GraphError::LayerSizeMismatch { g, g_prime } => write!(
                f,
                "dual graph layers disagree on vertex count: |V(G)| = {g}, |V(G')| = {g_prime}"
            ),
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid topology parameter: {reason}")
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::MissingEmbedding => {
                write!(
                    f,
                    "operation requires a Euclidean embedding but none is attached"
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<GraphError> = vec![
            GraphError::NodeOutOfRange {
                node: NodeId::new(9),
                n: 4,
            },
            GraphError::SelfLoop {
                node: NodeId::new(1),
            },
            GraphError::NotContained {
                missing: (NodeId::new(0), NodeId::new(1)),
            },
            GraphError::LayerSizeMismatch { g: 3, g_prime: 4 },
            GraphError::InvalidParameter {
                reason: "n must be even".to_string(),
            },
            GraphError::Disconnected,
            GraphError::MissingEmbedding,
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("dual"));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_e: E) {}
        takes_error(GraphError::Disconnected);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GraphError::Disconnected, GraphError::Disconnected);
        assert_ne!(GraphError::Disconnected, GraphError::MissingEmbedding);
    }
}
