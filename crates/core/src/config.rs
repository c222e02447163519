//! System configuration.

use crate::error::PoolError;
use crate::grid::CellCoord;
use pool_transport::{
    FaultPlan, LossyConfig, OpRetryPolicy, RecoveryConfig, Substrate, TransportKind,
};

/// Workload-sharing policy (§4.2): when an index node's stored-event count
/// reaches `capacity`, subsequent events for its cells are delegated to a
/// nearby node, chaining as needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingPolicy {
    /// Maximum events a node stores before delegating.
    pub capacity: usize,
}

impl SharingPolicy {
    /// Creates a policy with the given per-node capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sharing capacity must be positive");
        SharingPolicy { capacity }
    }
}

/// Configuration for a [`crate::system::PoolSystem`].
///
/// Defaults mirror the paper's §5.1 settings: `α = 5` m cells, pool side
/// `l = 10`, `k = 3` dimensions, no workload sharing, and the paper's radio
/// ([`Substrate::default`]: plain GPSR over Gabriel planarization,
/// loss-free).
///
/// # Examples
///
/// ```
/// use pool_core::config::PoolConfig;
///
/// let config = PoolConfig::paper()
///     .with_dims(4)
///     .with_pool_side(8)
///     .with_seed(7);
/// assert_eq!(config.dims, 4);
/// assert_eq!(config.pool_side, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Cell size `α` in meters.
    pub alpha: f64,
    /// Pool side length `l` in cells.
    pub pool_side: u32,
    /// Event dimensionality `k` (= number of pools).
    pub dims: usize,
    /// Seed for random pivot placement. It also seeds the perfect-link
    /// stand-in a fault plan runs over when [`Substrate::lossy`] is `None`.
    pub seed: u64,
    /// How the system reaches the radio: routing substrate, lossy link
    /// layer, fault plan, adaptive recovery and operation retry.
    pub substrate: Substrate,
    /// Optional workload sharing (§4.2).
    pub sharing: Option<SharingPolicy>,
    /// Explicit pivot cells (overrides random placement when set).
    pub pivots: Option<Vec<CellCoord>>,
    /// Whether query replies are aggregated at splitters (§3.2.3). When
    /// false, every matching event is charged as its own reply message per
    /// hop — the unaggregated ablation.
    pub aggregate_replies: bool,
    /// Whether every event keeps one backup copy at a neighbor of its
    /// index node, enabling recovery after index-node failure (+1 message
    /// per insertion).
    pub replicate: bool,
}

impl PoolConfig {
    /// The paper's §5.1 parameters.
    pub fn paper() -> Self {
        PoolConfig {
            alpha: 5.0,
            pool_side: 10,
            dims: 3,
            seed: 0,
            substrate: Substrate::default(),
            sharing: None,
            pivots: None,
            aggregate_replies: true,
            replicate: false,
        }
    }

    /// Sets the cell size `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the pool side length `l`.
    pub fn with_pool_side(mut self, side: u32) -> Self {
        self.pool_side = side;
        self
    }

    /// Sets the event dimensionality `k`.
    pub fn with_dims(mut self, dims: usize) -> Self {
        self.dims = dims;
        self
    }

    /// Sets the pivot-placement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets [`Substrate::kind`] (a shim the benchmark package calls).
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.substrate.kind = transport;
        self
    }

    /// Enables workload sharing.
    pub fn with_sharing(mut self, policy: SharingPolicy) -> Self {
        self.sharing = Some(policy);
        self
    }

    /// Pins the pool pivots (e.g. to reproduce Figure 2).
    pub fn with_pivots(mut self, pivots: Vec<CellCoord>) -> Self {
        self.pivots = Some(pivots);
        self
    }

    /// Disables reply aggregation (ablation).
    pub fn without_reply_aggregation(mut self) -> Self {
        self.aggregate_replies = false;
        self
    }

    /// Enables one-backup-copy replication for failure recovery.
    pub fn with_replication(mut self) -> Self {
        self.replicate = true;
        self
    }

    /// Sets [`Substrate::lossy`] (a shim the benchmark package calls).
    pub fn with_lossy(mut self, lossy: LossyConfig) -> Self {
        self.substrate.lossy = Some(lossy);
        self
    }

    /// Sets [`Substrate::faults`] (a shim the benchmark package calls).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.substrate.faults = Some(plan);
        self
    }

    /// Sets [`Substrate::recovery`] (a shim the benchmark package calls).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.substrate.recovery = Some(recovery);
        self
    }

    /// Sets [`Substrate::op_retry`] (a shim the benchmark package calls).
    pub fn with_op_retry(mut self, policy: OpRetryPolicy) -> Self {
        self.substrate.op_retry = Some(policy);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::InvalidConfig`] when a parameter is out of
    /// range or the pivot count disagrees with `dims`.
    pub fn validate(&self) -> Result<(), PoolError> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(PoolError::InvalidConfig { reason: format!("α = {}", self.alpha) });
        }
        if self.pool_side == 0 {
            return Err(PoolError::InvalidConfig { reason: "pool side l = 0".into() });
        }
        if self.dims < 2 {
            return Err(PoolError::InvalidConfig {
                reason: format!("k = {} (pool placement needs k ≥ 2)", self.dims),
            });
        }
        if let Some(pivots) = &self.pivots {
            if pivots.len() != self.dims {
                return Err(PoolError::InvalidConfig {
                    reason: format!("{} pivots for k = {}", pivots.len(), self.dims),
                });
            }
        }
        Ok(())
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = PoolConfig::paper();
        assert_eq!(c.alpha, 5.0);
        assert_eq!(c.pool_side, 10);
        assert_eq!(c.dims, 3);
        assert!(c.aggregate_replies);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let c = PoolConfig::paper().with_alpha(2.5).with_dims(5).with_seed(9);
        assert_eq!(c.alpha, 2.5);
        assert_eq!(c.dims, 5);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(PoolConfig::paper().with_alpha(-1.0).validate().is_err());
        assert!(PoolConfig::paper().with_pool_side(0).validate().is_err());
        assert!(PoolConfig::paper().with_dims(1).validate().is_err());
        let mismatched = PoolConfig::paper().with_pivots(vec![CellCoord::new(0, 0)]);
        assert!(mismatched.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_policy_panics() {
        let _ = SharingPolicy::new(0);
    }
}
