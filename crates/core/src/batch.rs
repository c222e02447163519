//! Multi-query batching.
//!
//! Sinks often issue several related queries at once (a dashboard refresh,
//! a sweep over thresholds). Issued separately, each query pays its own
//! sink→splitter legs and revisits shared cells. A *batch* shares both: it
//! walks the splitter tree once ([`crate::forward`]) over the deduplicated
//! union of its queries' relevant cells, keeping every stored event that
//! any of the queries matches, and splits the answer per query at the sink.
//! Every relevant cell is visited once (even when several queries select
//! it), and one combined reply returns per participating cell and pool.
//!
//! Batching never changes answers — only the bill. Theorem 3.2 is sound:
//! every event a query matches lives in one of its relevant cells, so the
//! union scan returns exactly the union of the answers. On a lossy radio a
//! batch degrades like a query does, and its completeness covers the union.

use crate::event::Event;
use crate::forward::{Completeness, Payload};
use crate::query::RangeQuery;
use crate::system::{PoolSystem, QueryCost};
use crate::PoolError;
use pool_netsim::node::NodeId;
use pool_transport::trace::TraceOp;

/// The outcome of a query batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Per-query answer sets, in input order.
    pub per_query: Vec<Vec<Event>>,
    /// The shared message bill for the whole batch.
    pub cost: QueryCost,
    /// Distinct cells visited across the batch (after dedup).
    pub cells_visited: usize,
    /// Which cells of the union fully answered (always complete on a
    /// loss-free radio).
    pub completeness: Completeness,
}

impl PoolSystem {
    /// Processes `queries` from `sink` as one batch.
    ///
    /// A batch of one query is [`PoolSystem::query_from`]: the same legs,
    /// cost and completeness.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidQuery`] for an empty batch,
    /// [`PoolError::DimensionMismatch`] if any query has the wrong arity,
    /// and [`PoolError::Routing`] on pathological (non-delivery) routing
    /// failures.
    pub fn query_batch(
        &mut self,
        sink: NodeId,
        queries: &[RangeQuery],
    ) -> Result<BatchResult, PoolError> {
        if queries.is_empty() {
            return Err(PoolError::InvalidQuery { reason: "empty batch".into() });
        }
        // The union of relevant cells, deduplicated and grouped by pool for
        // the walk (one query's cells already come in this order).
        let mut union = Vec::new();
        for q in queries {
            union.extend(self.relevant_to(q, None)?);
        }
        union.sort_unstable();
        union.dedup();

        let scan = Payload::Scan(|e: &Event| queries.iter().any(|q| q.matches(e)));
        let walked = self.walk(TraceOp::Batch, sink, &union, scan, false)?;
        let per_query = queries
            .iter()
            .map(|q| walked.events.iter().filter(|e| q.matches(e)).cloned().collect())
            .collect();
        Ok(BatchResult {
            per_query,
            cost: walked.cost,
            cells_visited: union.len(),
            completeness: Completeness::of(&union, &walked.reached),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use pool_netsim::deployment::Deployment;
    use pool_netsim::topology::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64) -> PoolSystem {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(300, 40.0, 20.0, s).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                return PoolSystem::build(topo, dep.field(), PoolConfig::paper()).unwrap();
            }
            s += 1000;
        }
    }

    fn load(pool: &mut PoolSystem, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            pool.insert_from(NodeId(rng.gen_range(0..300)), e).unwrap();
        }
    }

    fn sample_queries() -> Vec<RangeQuery> {
        vec![
            RangeQuery::exact(vec![(0.2, 0.5), (0.0, 0.6), (0.0, 1.0)]).unwrap(),
            RangeQuery::exact(vec![(0.3, 0.6), (0.1, 0.7), (0.0, 1.0)]).unwrap(), // overlaps q0
            RangeQuery::from_bounds(vec![None, Some((0.8, 0.9)), None]).unwrap(),
        ]
    }

    #[test]
    fn batch_answers_match_individual_queries() {
        let mut batched = build(1);
        load(&mut batched, 300, 9);
        let mut single = build(1);
        load(&mut single, 300, 9);
        let queries = sample_queries();
        let batch = batched.query_batch(NodeId(7), &queries).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let mut individual = single.query_from(NodeId(7), q).unwrap().events;
            let mut from_batch = batch.per_query[qi].clone();
            let key = |e: &Event| e.values().iter().map(|v| (v * 1e9) as i64).collect::<Vec<_>>();
            individual.sort_by_key(key);
            from_batch.sort_by_key(key);
            assert_eq!(from_batch, individual, "query {qi}");
        }
    }

    #[test]
    fn batching_is_cheaper_than_separate_queries() {
        let mut batched = build(2);
        load(&mut batched, 300, 10);
        let mut single = build(2);
        load(&mut single, 300, 10);
        let queries = sample_queries();
        let batch_cost = batched.query_batch(NodeId(11), &queries).unwrap().cost.total();
        let separate: u64 =
            queries.iter().map(|q| single.query_from(NodeId(11), q).unwrap().cost.total()).sum();
        assert!(batch_cost < separate, "batch {batch_cost} should beat separate {separate}");
    }

    #[test]
    fn overlapping_queries_share_cell_visits() {
        let mut pool = build(3);
        let queries = vec![
            RangeQuery::exact(vec![(0.2, 0.4), (0.0, 1.0), (0.0, 1.0)]).unwrap(),
            RangeQuery::exact(vec![(0.2, 0.4), (0.0, 1.0), (0.0, 1.0)]).unwrap(),
        ];
        let batch = pool.query_batch(NodeId(0), &queries).unwrap();
        // Identical queries resolve to the same cells; dedup means the
        // batch visits them once.
        let one = pool.explain(NodeId(0), &queries[0]).unwrap().relevant_cells();
        assert_eq!(batch.cells_visited, one);
    }

    #[test]
    fn empty_batch_rejected() {
        let mut pool = build(4);
        assert!(matches!(pool.query_batch(NodeId(0), &[]), Err(PoolError::InvalidQuery { .. })));
    }

    #[test]
    fn batch_validates_arity() {
        let mut pool = build(5);
        let bad = RangeQuery::exact(vec![(0.0, 1.0)]).unwrap();
        assert!(matches!(
            pool.query_batch(NodeId(0), &[bad]),
            Err(PoolError::DimensionMismatch { .. })
        ));
    }
}
