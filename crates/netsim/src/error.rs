//! Error types for the simulation substrate.

use crate::node::NodeId;
use std::error::Error;
use std::fmt;

/// Errors raised while building or operating a simulated sensor network.
#[derive(Debug, Clone, PartialEq)]
pub enum NetsimError {
    /// A deployment was requested with zero nodes.
    EmptyDeployment,
    /// The requested average node degree cannot be realized (non-positive).
    InvalidDensity {
        /// The offending target average degree.
        target_degree: f64,
    },
    /// The radio range is non-positive or not finite.
    InvalidRadioRange {
        /// The offending radio range in meters.
        range: f64,
    },
    /// A node id outside the deployed network was referenced.
    UnknownNode {
        /// The offending id.
        id: NodeId,
    },
    /// Two deployed nodes carry the same id.
    DuplicateNode {
        /// The repeated id.
        id: NodeId,
    },
    /// The deployed unit-disk graph is not connected, so network-wide
    /// routing guarantees do not hold.
    Disconnected {
        /// Number of nodes in the largest connected component.
        largest_component: usize,
        /// Total number of deployed nodes.
        total: usize,
    },
}

impl fmt::Display for NetsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetsimError::EmptyDeployment => write!(f, "deployment must contain at least one node"),
            NetsimError::InvalidDensity { target_degree } => {
                write!(f, "target average degree must be positive, got {target_degree}")
            }
            NetsimError::InvalidRadioRange { range } => {
                write!(f, "radio range must be positive and finite, got {range}")
            }
            NetsimError::UnknownNode { id } => write!(f, "unknown node id {id}"),
            NetsimError::DuplicateNode { id } => write!(f, "node id {id} is deployed twice"),
            NetsimError::Disconnected { largest_component, total } => write!(
                f,
                "network is disconnected: largest component has {largest_component} of {total} nodes"
            ),
        }
    }
}

impl Error for NetsimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetsimError::InvalidRadioRange { range: -1.0 };
        assert!(e.to_string().contains("radio range"));
        let e = NetsimError::Disconnected { largest_component: 3, total: 10 };
        assert!(e.to_string().contains("3 of 10"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetsimError>();
    }
}
