//! Error types for the Pool storage scheme.

use pool_netsim::node::NodeId;
use std::error::Error;
use std::fmt;

/// Errors raised by Pool's data structures and mechanisms.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// An event failed validation (wrong arity or out-of-range values).
    InvalidEvent {
        /// Human-readable reason.
        reason: String,
    },
    /// A query failed validation.
    InvalidQuery {
        /// Human-readable reason.
        reason: String,
    },
    /// A configuration parameter is out of range.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// The grid cannot host the requested pool layout.
    LayoutDoesNotFit {
        /// Number of pools requested.
        pools: usize,
        /// Pool side length in cells.
        side: u32,
        /// Grid columns available.
        grid_cols: u32,
        /// Grid rows available.
        grid_rows: u32,
    },
    /// A query or event arity does not match the system's dimensionality.
    DimensionMismatch {
        /// The system's configured number of dimensions.
        expected: usize,
        /// The arity that was supplied.
        got: usize,
    },
    /// An underlying routing failure.
    Routing(String),
    /// A [`NodeId`] that does not exist in the deployment was passed to an
    /// operation that requires a real node (e.g. failing a node that was
    /// never deployed).
    UnknownNode {
        /// The id that is out of range.
        node: NodeId,
        /// Number of nodes the deployment actually has.
        nodes: usize,
    },
    /// A packet could not be delivered over the lossy link layer (or the
    /// destination sits in another network partition) after exhausting the
    /// retry budget.
    Undeliverable {
        /// The node the packet started from.
        from: NodeId,
        /// The destination the packet never reached.
        to: NodeId,
        /// Transmissions spent (and charged) before giving up.
        transmissions: u64,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::InvalidEvent { reason } => write!(f, "invalid event: {reason}"),
            PoolError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            PoolError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            PoolError::LayoutDoesNotFit { pools, side, grid_cols, grid_rows } => write!(
                f,
                "cannot place {pools} pools of side {side} on a {grid_cols}x{grid_rows} grid"
            ),
            PoolError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: system is {expected}-dimensional, got {got}")
            }
            PoolError::UnknownNode { node, nodes } => {
                write!(f, "unknown node {node}: the deployment has {nodes} nodes")
            }
            PoolError::Routing(msg) => write!(f, "routing failure: {msg}"),
            PoolError::Undeliverable { from, to, transmissions } => write!(
                f,
                "undeliverable: {from} -> {to} gave up after {transmissions} transmissions"
            ),
        }
    }
}

impl Error for PoolError {}

impl From<pool_gpsr::RouteError> for PoolError {
    fn from(e: pool_gpsr::RouteError) -> Self {
        PoolError::Routing(e.to_string())
    }
}

impl From<pool_transport::UnknownNode> for PoolError {
    fn from(e: pool_transport::UnknownNode) -> Self {
        PoolError::UnknownNode { node: e.node, nodes: e.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PoolError::DimensionMismatch { expected: 3, got: 2 };
        assert!(e.to_string().contains("3-dimensional"));
        let e = PoolError::LayoutDoesNotFit { pools: 3, side: 10, grid_cols: 5, grid_rows: 5 };
        assert!(e.to_string().contains("5x5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<PoolError>();
    }
}
