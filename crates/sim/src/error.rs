//! Simulator error types.

use std::error::Error;
use std::fmt;

/// Errors produced when configuring or constructing a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The role assignment covers a different number of nodes than the
    /// network has.
    AssignmentSizeMismatch {
        /// Nodes in the network.
        network: usize,
        /// Nodes covered by the assignment.
        assignment: usize,
    },
    /// The network has no nodes.
    EmptyNetwork,
    /// A configuration value is invalid.
    InvalidConfig {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// A stop condition references nodes outside the network.
    InvalidStopCondition {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::AssignmentSizeMismatch {
                network,
                assignment,
            } => write!(
                f,
                "role assignment covers {assignment} nodes but the network has {network}"
            ),
            SimError::EmptyNetwork => write!(f, "cannot simulate an empty network"),
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::InvalidStopCondition { reason } => {
                write!(f, "invalid stop condition: {reason}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::AssignmentSizeMismatch {
            network: 5,
            assignment: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));
        assert!(!SimError::EmptyNetwork.to_string().is_empty());
        assert!(SimError::InvalidConfig { reason: "x".into() }
            .to_string()
            .contains('x'));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync>(_e: E) {}
        assert_error(SimError::EmptyNetwork);
    }
}
