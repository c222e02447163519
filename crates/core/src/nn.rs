//! Nearest-neighbor queries in event space — the paper's §6 extension
//! ("continuous monitoring of the nearest neighbor queries" is named as
//! ongoing work; this module provides the one-shot primitive).
//!
//! Given a probe point `p ∈ [0,1]^k`, find the stored event minimizing the
//! Euclidean distance to `p`. Pool's Equation-1 ranges give each cell a
//! sound *lower bound* on the distance of any event it can store:
//!
//! * events in cell `(ho, vo)` of pool `Pᵢ` have `Vᵢ ∈ Range_H(ho)`, and
//! * every other attribute is at most `Range_V(ho, vo).hi` (the cell's
//!   vertical range bounds the second-greatest value, which dominates all
//!   non-`i` attributes).
//!
//! The search visits cells in ascending lower-bound order and stops as soon
//! as the best event found is closer than the next cell's bound — a
//! classic best-first branch-and-bound, distributed over index nodes.

use crate::event::Event;
use crate::grid::CellCoord;
use crate::interval::Interval;
use crate::layout::PoolSpec;
use crate::system::{PoolSystem, QueryCost};
use crate::PoolError;
use pool_netsim::node::NodeId;
use pool_transport::metrics::LedgerSnapshot;
use pool_transport::trace::TraceOp;
use pool_transport::TrafficLayer;

/// Result of a nearest-neighbor query.
#[derive(Debug, Clone, PartialEq)]
pub struct NnResult {
    /// The nearest stored events, closest first (empty if nothing stored).
    pub neighbors: Vec<(Event, f64)>,
    /// Message cost of the distributed search.
    pub cost: QueryCost,
    /// Number of cells actually visited (pruning quality indicator).
    pub cells_visited: usize,
}

/// Distance from `v` to the closest point of `interval` (0 when inside).
fn point_to_interval(v: f64, interval: Interval) -> f64 {
    if v < interval.lo() {
        interval.lo() - v
    } else if v > interval.hi() {
        v - interval.hi()
    } else {
        0.0
    }
}

/// Sound lower bound on the Euclidean distance between `probe` and any
/// event that Theorem 3.1 could place in cell `(ho, vo)` of `pool`.
pub fn cell_distance_lower_bound(pool: &PoolSpec, ho: u32, vo: u32, probe: &[f64]) -> f64 {
    let range_h = pool.range_h(ho);
    let range_v = pool.range_v(ho, vo);
    let mut acc = point_to_interval(probe[pool.dim], range_h).powi(2);
    for (j, &p_j) in probe.iter().enumerate() {
        if j == pool.dim {
            continue;
        }
        // Every non-i attribute is ≤ the cell's vertical upper bound.
        let over = (p_j - range_v.hi()).max(0.0);
        acc += over * over;
    }
    acc.sqrt()
}

/// Euclidean distance between a probe and an event.
pub fn event_distance(probe: &[f64], event: &Event) -> f64 {
    probe.iter().zip(event.values()).map(|(p, v)| (p - v) * (p - v)).sum::<f64>().sqrt()
}

impl PoolSystem {
    /// Finds the `count` stored events nearest to `probe` (Euclidean, in
    /// event space), issuing the distributed search from `sink`.
    ///
    /// Message model: the sink unicasts the probe to each candidate cell's
    /// index node in ascending bound order, one cell after the other; each
    /// visited node returns its best matches along the reverse path
    /// (aggregated, one message per hop). Legs follow
    /// [`pool_transport::Substrate::op_retry`], and the result's
    /// `cost.elapsed` is the whole serial search.
    ///
    /// # Errors
    ///
    /// [`PoolError::DimensionMismatch`] if the probe arity is wrong,
    /// [`PoolError::InvalidQuery`] if any value is outside `[0, 1]`,
    /// [`PoolError::Undeliverable`] when a probe or reply leg is lost (a
    /// partial search could return wrong neighbours), and
    /// [`PoolError::Routing`] on pathological routing failures.
    pub fn k_nearest(
        &mut self,
        sink: NodeId,
        probe: &[f64],
        count: usize,
    ) -> Result<NnResult, PoolError> {
        if probe.len() != self.config().dims {
            return Err(PoolError::DimensionMismatch {
                expected: self.config().dims,
                got: probe.len(),
            });
        }
        if probe.iter().any(|v| !(0.0..=1.0).contains(v)) {
            return Err(PoolError::InvalidQuery {
                reason: "probe values must be normalized into [0, 1]".into(),
            });
        }
        // Rank every pool cell by its distance lower bound.
        let mut candidates: Vec<(f64, usize, CellCoord)> = Vec::new();
        for pool in self.layout().pools() {
            for ho in 0..pool.side {
                for vo in 0..pool.side {
                    let bound = cell_distance_lower_bound(pool, ho, vo, probe);
                    candidates.push((bound, pool.dim, pool.cell_at(ho, vo)));
                }
            }
        }
        candidates
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bounds are finite").then(a.2.cmp(&b.2)));

        let ledger_before = LedgerSnapshot::of(self.transport.ledger());
        // The search is serial in virtual time: each cell's answer decides
        // whether the next cell is worth visiting.
        let op_start = self.transport.clock().now();
        let mut best: Vec<(Event, f64)> = Vec::new();
        let mut cost = QueryCost::default();
        let mut cells_visited = 0usize;
        for (bound, _, cell) in candidates {
            let kth_best = best.get(count.saturating_sub(1)).map(|(_, d)| *d);
            if let Some(kth) = kth_best {
                if bound >= kth {
                    break; // no unvisited cell can improve the answer
                }
            }
            cells_visited += 1;
            let index_node = self.index_node_of(cell).expect("candidate cells are pool cells");
            let spent = cost.total();
            let Some(leg) =
                self.send(TraceOp::Nearest, sink, index_node, TrafficLayer::Forward, &mut cost)?
            else {
                let transmissions = cost.total() - spent;
                return Err(PoolError::Undeliverable { from: sink, to: index_node, transmissions });
            };
            let local: Vec<(Event, f64)> = self
                .store()
                .events_in(cell)
                .iter()
                .map(|s| (s.event.clone(), event_distance(probe, &s.event)))
                .collect();
            if !local.is_empty() {
                // One aggregated reply retracing the forward leg.
                let spent = cost.total();
                if self.retrace(TraceOp::Nearest, leg.path(), 1, &mut cost) == 0 {
                    let transmissions = cost.total() - spent;
                    return Err(PoolError::Undeliverable {
                        from: index_node,
                        to: sink,
                        transmissions,
                    });
                }
                best.extend(local);
                best.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"));
                best.truncate(count);
            }
        }
        cost.elapsed = self.transport.clock().now() - op_start;
        ledger_before.debug_assert_layers(
            self.transport.ledger(),
            "k_nearest",
            &[
                (TrafficLayer::Forward, cost.forward_messages),
                (TrafficLayer::Reply, cost.reply_messages),
                (TrafficLayer::Retransmit, cost.retransmit_messages),
            ],
        );
        Ok(NnResult { neighbors: best, cost, cells_visited })
    }

    /// Convenience wrapper: the single nearest event.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoolSystem::k_nearest`].
    pub fn nearest(
        &mut self,
        sink: NodeId,
        probe: &[f64],
    ) -> Result<(Option<(Event, f64)>, QueryCost), PoolError> {
        let result = self.k_nearest(sink, probe, 1)?;
        Ok((result.neighbors.into_iter().next(), result.cost))
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

    fn build_system(seed: u64) -> PoolSystem {
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

    fn load_random(pool: &mut PoolSystem, count: usize, seed: u64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for _ in 0..count {
            let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            pool.insert_from(NodeId(rng.gen_range(0..300)), e.clone()).unwrap();
            events.push(e);
        }
        events
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut pool = build_system(1);
        let events = load_random(&mut pool, 200, 10);
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..25 {
            let probe = [rng.gen(), rng.gen(), rng.gen()];
            let (got, _) = pool.nearest(NodeId(5), &probe).unwrap();
            let want =
                events.iter().map(|e| event_distance(&probe, e)).fold(f64::INFINITY, f64::min);
            let got = got.expect("store is non-empty");
            assert!(
                (got.1 - want).abs() < 1e-12,
                "probe {probe:?}: got {} at {}, brute force {}",
                got.0,
                got.1,
                want
            );
        }
    }

    #[test]
    fn k_nearest_matches_brute_force_ordering() {
        let mut pool = build_system(2);
        let events = load_random(&mut pool, 150, 11);
        let probe = [0.4, 0.6, 0.2];
        let result = pool.k_nearest(NodeId(9), &probe, 5).unwrap();
        assert_eq!(result.neighbors.len(), 5);
        let mut brute: Vec<f64> = events.iter().map(|e| event_distance(&probe, e)).collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, (_, d)) in result.neighbors.iter().enumerate() {
            assert!((d - brute[i]).abs() < 1e-12, "rank {i}: {d} vs {}", brute[i]);
        }
        // Distances are non-decreasing.
        for w in result.neighbors.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn pruning_visits_a_fraction_of_cells() {
        let mut pool = build_system(3);
        load_random(&mut pool, 300, 12);
        let total_cells = 3 * 10 * 10;
        let result = pool.k_nearest(NodeId(0), &[0.5, 0.3, 0.1], 1).unwrap();
        assert!(
            result.cells_visited < total_cells / 2,
            "visited {} of {total_cells} cells",
            result.cells_visited
        );
    }

    #[test]
    fn empty_store_returns_none() {
        let mut pool = build_system(4);
        let (got, cost) = pool.nearest(NodeId(0), &[0.5, 0.5, 0.5]).unwrap();
        assert!(got.is_none());
        // Without any events the search must scan every cell (no reply
        // traffic though).
        assert_eq!(cost.reply_messages, 0);
    }

    #[test]
    fn probe_validation() {
        let mut pool = build_system(5);
        assert!(matches!(
            pool.nearest(NodeId(0), &[0.5, 0.5]),
            Err(PoolError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            pool.nearest(NodeId(0), &[0.5, 0.5, 1.5]),
            Err(PoolError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn lower_bound_is_sound() {
        // For random events and probes, the bound of the event's own cell
        // never exceeds the true distance.
        let mut rng = StdRng::seed_from_u64(7);
        let grid =
            crate::grid::Grid::over(pool_netsim::geometry::Rect::square(200.0), 5.0).unwrap();
        let layout = crate::layout::PoolLayout::random(&grid, 3, 10, 3).unwrap();
        for _ in 0..500 {
            let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            let probe = [rng.gen(), rng.gen(), rng.gen()];
            for placement in crate::insert::candidate_cells(&layout, &e) {
                let pool = layout.pool(placement.pool_dim);
                let (ho, vo) = pool.offsets_of(placement.cell).unwrap();
                let bound = cell_distance_lower_bound(pool, ho, vo, &probe);
                let actual = event_distance(&probe, &e);
                assert!(
                    bound <= actual + 1e-9,
                    "bound {bound} exceeds distance {actual} for {e} probe {probe:?}"
                );
            }
        }
    }
}
