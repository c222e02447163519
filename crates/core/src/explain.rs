//! Query plans: an inspectable "EXPLAIN" for Pool queries.
//!
//! [`PoolSystem::explain`] performs the resolving phase of §3.2 without
//! touching the network and reports, per pool, the derived ranges of
//! Theorem 3.2, the pruning decision, the relevant cells with their
//! Equation-1 ranges, the splitter, and the paper's headline statistic:
//! what fraction of index nodes the query will *not* visit.

use crate::grid::CellCoord;
use crate::interval::Interval;
use crate::query::RangeQuery;
use crate::resolve::{derived_ranges, relevant_offsets_fast};
use crate::system::PoolSystem;
use crate::PoolError;
use pool_netsim::node::NodeId;
use std::fmt;

/// One relevant cell in a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCell {
    /// The cell's grid coordinate.
    pub cell: CellCoord,
    /// Equation 1 horizontal range.
    pub range_h: Interval,
    /// Equation 1 vertical range.
    pub range_v: Interval,
    /// The index node that will be visited.
    pub index_node: NodeId,
}

/// The plan for one pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolPlan {
    /// Pool dimension (0-based; the paper's `P_{dim+1}`).
    pub dim: usize,
    /// Theorem 3.2's `R_H` for this pool.
    pub r_h: Interval,
    /// Theorem 3.2's `R_V` for this pool.
    pub r_v: Interval,
    /// Whether the whole pool is pruned (empty derived range).
    pub pruned: bool,
    /// The splitter that would receive the query.
    pub splitter: Option<NodeId>,
    /// The relevant cells (empty if pruned).
    pub cells: Vec<PlannedCell>,
}

/// A complete query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The query as issued.
    pub query: RangeQuery,
    /// The §2 rewrite actually resolved.
    pub rewritten: Vec<(f64, f64)>,
    /// Per-pool plans, in dimension order.
    pub pools: Vec<PoolPlan>,
    /// Total cells in all pools (`k · l²`).
    pub total_cells: usize,
}

impl QueryPlan {
    /// Number of relevant cells across all pools.
    pub fn relevant_cells(&self) -> usize {
        self.pools.iter().map(|p| p.cells.len()).sum()
    }

    /// Fraction of cells pruned — the effectiveness claim of §3.2.
    pub fn pruned_fraction(&self) -> f64 {
        1.0 - self.relevant_cells() as f64 / self.total_cells as f64
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan for {}", self.query)?;
        writeln!(
            f,
            "  rewritten: {}",
            self.rewritten
                .iter()
                .map(|(l, u)| format!("[{l}, {u}]"))
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        for pool in &self.pools {
            if pool.pruned {
                writeln!(
                    f,
                    "  P{}: pruned (R_H = {}, R_V = {})",
                    pool.dim + 1,
                    pool.r_h,
                    pool.r_v
                )?;
                continue;
            }
            writeln!(
                f,
                "  P{}: R_H = {}, R_V = {}, splitter {} -> {} cell(s)",
                pool.dim + 1,
                pool.r_h,
                pool.r_v,
                pool.splitter.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                pool.cells.len()
            )?;
            for c in &pool.cells {
                writeln!(f, "    {} H={} V={} @ {}", c.cell, c.range_h, c.range_v, c.index_node)?;
            }
        }
        write!(
            f,
            "  {} of {} cells relevant ({:.1}% pruned)",
            self.relevant_cells(),
            self.total_cells,
            self.pruned_fraction() * 100.0
        )
    }
}

impl PoolSystem {
    /// Computes the query plan a given sink would execute, without sending
    /// anything (no messages are charged).
    ///
    /// # Errors
    ///
    /// [`PoolError::DimensionMismatch`] if the query arity is wrong.
    pub fn explain(&self, sink: NodeId, query: &RangeQuery) -> Result<QueryPlan, PoolError> {
        if query.dims() != self.config().dims {
            return Err(PoolError::DimensionMismatch {
                expected: self.config().dims,
                got: query.dims(),
            });
        }
        let rewritten = query.rewritten();
        let mut pools = Vec::new();
        let mut total_cells = 0usize;
        for pool in self.layout().pools() {
            total_cells += (pool.side * pool.side) as usize;
            let ranges = derived_ranges(&rewritten, pool.dim);
            let offsets = relevant_offsets_fast(pool, &rewritten);
            let pruned = offsets.is_empty();
            let cells = offsets
                .into_iter()
                .map(|(ho, vo)| {
                    let cell = pool.cell_at(ho, vo);
                    PlannedCell {
                        cell,
                        range_h: pool.range_h(ho),
                        range_v: pool.range_v(ho, vo),
                        index_node: self.index_node_of(cell).expect("pool cell has index node"),
                    }
                })
                .collect::<Vec<_>>();
            pools.push(PoolPlan {
                dim: pool.dim,
                r_h: ranges.r_h,
                r_v: ranges.r_v,
                pruned,
                splitter: (!pruned).then(|| self.splitter_of(pool.dim, sink)),
                cells,
            });
        }
        Ok(QueryPlan { query: query.clone(), rewritten, pools, total_cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use crate::grid::CellCoord;
    use pool_netsim::deployment::Deployment;
    use pool_netsim::geometry::Rect;
    use pool_netsim::topology::Topology;

    fn figure2_system() -> PoolSystem {
        // A dense synthetic network over a 100 m field so Figure 2's exact
        // pivots fit.
        let mut seed = 50u64;
        loop {
            let dep = Deployment::new(
                Rect::square(100.0),
                200,
                pool_netsim::deployment::Placement::Uniform,
                seed,
            );
            let topo = Topology::build(dep.nodes(), 30.0).unwrap();
            if topo.is_connected() {
                let config = PoolConfig::paper().with_pool_side(5).with_pivots(vec![
                    CellCoord::new(1, 2),
                    CellCoord::new(2, 10),
                    CellCoord::new(7, 3),
                ]);
                return PoolSystem::build(topo, Rect::square(100.0), config).unwrap();
            }
            seed += 1;
        }
    }

    #[test]
    fn plan_matches_example_3_1() {
        let pool = figure2_system();
        let q = RangeQuery::exact(vec![(0.2, 0.3), (0.25, 0.35), (0.21, 0.24)]).unwrap();
        let plan = pool.explain(NodeId(0), &q).unwrap();
        assert_eq!(plan.pools.len(), 3);
        assert_eq!(plan.pools[0].cells.len(), 1);
        assert_eq!(plan.pools[0].cells[0].cell, CellCoord::new(2, 5));
        assert_eq!(plan.pools[1].cells.len(), 2);
        assert!(plan.pools[2].pruned, "P3 must be pruned (Figure 4)");
        assert_eq!(plan.relevant_cells(), 3);
        assert!(plan.pruned_fraction() > 0.9);
    }

    #[test]
    fn plan_display_is_readable() {
        let pool = figure2_system();
        let q = RangeQuery::from_bounds(vec![None, None, Some((0.8, 0.84))]).unwrap();
        let plan = pool.explain(NodeId(3), &q).unwrap();
        let text = plan.to_string();
        assert!(text.contains("plan for <*, *, [0.8, 0.84]>"));
        assert!(text.contains("pruned)"));
        assert!(text.contains("P1:"));
    }

    #[test]
    fn explain_charges_no_messages() {
        let pool = figure2_system();
        let before = pool.ledger().total_messages();
        let q = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
        let _ = pool.explain(NodeId(0), &q).unwrap();
        assert_eq!(pool.ledger().total_messages(), before);
    }

    #[test]
    fn plan_agrees_with_execution() {
        let mut pool = figure2_system();
        let q = RangeQuery::exact(vec![(0.1, 0.6), (0.2, 0.5), (0.0, 0.9)]).unwrap();
        let plan = pool.explain(NodeId(7), &q).unwrap();
        let result = pool.query_from(NodeId(7), &q).unwrap();
        assert_eq!(plan.relevant_cells(), result.relevant_cells);
        let planned_pools = plan.pools.iter().filter(|p| !p.pruned).count();
        assert_eq!(planned_pools, result.pools_visited);
    }

    #[test]
    fn explain_rejects_wrong_arity() {
        let pool = figure2_system();
        let q = RangeQuery::exact(vec![(0.0, 1.0)]).unwrap();
        assert!(matches!(pool.explain(NodeId(0), &q), Err(PoolError::DimensionMismatch { .. })));
    }
}
