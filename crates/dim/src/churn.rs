//! Churn support for the DIM baseline: epoch-stepped joins, deaths, and
//! waypoint moves with incremental, budgeted zone handoffs.
//!
//! Mirrors [`pool_core::dynamics`] so benchmark drivers can replay the
//! *same* [`EpochPlan`] stream against Pool and DIM. DIM keeps no
//! replicas, so a dead owner's events are lost outright; a zone whose
//! owner changed hands while the old owner survives (a deposed or moved
//! owner) hands its events off under the per-epoch message budget — until
//! the handoff lands those events are parked in the [`DimRepairQueue`] and
//! honestly invisible to queries. A failure burst
//! ([`DimSystem::fail_nodes`]) is the deaths-only epoch with no budget.

use crate::system::DimSystem;
use pool_core::event::Event;
use pool_core::failure::FailureReport;
use pool_core::PoolError;
use pool_netsim::node::NodeId;
use pool_transport::metrics::LedgerSnapshot;
use pool_transport::trace::TraceOp;
use pool_transport::{EpochPlan, Leg, Price, Repair, RepairQueue, TrafficLayer};
use std::collections::HashSet;
use std::sync::Arc;

/// One queued DIM zone handoff.
#[derive(Debug, Clone, PartialEq)]
pub struct DimHandoff {
    zone_idx: usize,
    event: Event,
    /// The surviving ex-owner still physically holding the event.
    from: NodeId,
}

/// DIM's carry-over queue of zone handoffs deferred by the per-epoch
/// budget: parked events are not query-visible until their handoff is
/// delivered.
pub type DimRepairQueue = RepairQueue<DimHandoff>;

impl DimSystem {
    /// Applies one epoch of churn: joins, moves, then deaths (one
    /// transport refresh), re-elects the owners of dead or displaced
    /// zones, and drains the handoff queue FIFO under `budget` radio
    /// messages.
    ///
    /// The drain is the one Pool and GHT use too
    /// ([`pool_transport::RepairQueue::drain`]): a budget of 0 pauses
    /// handoffs entirely, a handoff whose loss-free route alone exceeds the
    /// budget is abandoned as unreachable, and one whose zone swung back to
    /// its holder lands for free. The report's `cells_*` fields count
    /// *zones*.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownNode`] if the plan names a node that was never
    /// deployed (nothing is applied).
    pub fn apply_epoch(
        &mut self,
        plan: &EpochPlan,
        queue: &mut DimRepairQueue,
        budget: u64,
    ) -> Result<FailureReport, PoolError> {
        let ledger_before = LedgerSnapshot::of(self.transport.ledger());
        let mut report = FailureReport { epochs: 1, ..FailureReport::default() };

        // Joins, moves, then deaths, written in place once the plan is
        // validated; the transport refreshes over the rows they dirtied.
        let change = pool_transport::apply_change(
            Arc::make_mut(&mut self.topology),
            self.transport.as_mut(),
            plan,
        )?;
        report.failed_nodes = change.victims.len();
        report.partitioned = change.partitioned;

        // Re-elect the owners of dead and displaced zones.
        let changed = self.tree.re_elect_owners(&self.topology, &change.displaced);
        report.cells_reassigned = changed.len();
        if report.partitioned {
            let main: HashSet<NodeId> =
                self.topology.largest_component_members().into_iter().collect();
            report.nodes_unreachable = self.topology.alive_count() - main.len();
            report.cells_unreachable =
                self.tree.zones().iter().filter(|z| !main.contains(&z.owner)).count();
        }

        // Carried-over handoffs whose source died while queued are lost
        // (DIM keeps no replicas to fall back to).
        let carried = queue.tasks.len();
        let topology = &self.topology;
        queue.tasks.retain(|t| topology.is_alive(t.from));
        report.events_lost += carried - queue.tasks.len();

        // Triage the reassigned zones: a dead ex-owner's events are lost;
        // a surviving ex-owner's events leave the store and queue as
        // budgeted handoffs (invisible to queries until they land).
        for (zone_idx, old_owner, _) in changed {
            let Some(events) = self.store.remove(&zone_idx) else { continue };
            if self.topology.is_alive(old_owner) {
                for event in events {
                    queue.tasks.push_back(DimHandoff { zone_idx, event, from: old_owner });
                }
            } else {
                report.events_lost += events.len();
            }
        }
        report.events_retained = self.stored_events();

        let spent = queue.drain(budget, &mut Drain { dim: self, report: &mut report });
        report.repair_messages += spent;
        report.deferred_repairs = queue.len() as u64;
        ledger_before.debug_assert_sum(
            self.transport.ledger(),
            "dim apply_epoch",
            report.repair_messages,
            &[TrafficLayer::Repair, TrafficLayer::Retransmit],
        );
        Ok(report)
    }
}

/// DIM's side of the shared repair drain: a handoff is priced by its route
/// to the zone's current owner, or lands for free when ownership swung back
/// to the holder while it waited.
struct Drain<'a> {
    dim: &'a mut DimSystem,
    report: &'a mut FailureReport,
}

impl Repair for Drain<'_> {
    type Task = DimHandoff;

    fn price(&mut self, task: &DimHandoff) -> Price {
        let owner = self.dim.tree.zones()[task.zone_idx].owner;
        if owner == task.from {
            return Price::Home;
        }
        match self.dim.transport.route_to_node(&self.dim.topology, task.from, owner) {
            Ok(route) => Price::Route(Leg::Route(route)),
            Err(_) => Price::NoRoute,
        }
    }

    fn land(&mut self, task: DimHandoff, leg: Option<Leg>, _: &mut DimRepairQueue) -> u64 {
        let outcome = leg
            .map(|leg| self.dim.deliver_traced(TraceOp::Repair, leg.path(), TrafficLayer::Repair));
        if outcome.as_ref().is_none_or(|o| o.delivered) {
            self.report.events_migrated += 1;
            self.dim.store.entry(task.zone_idx).or_default().push(task.event);
        } else {
            self.report.events_unreachable += 1;
        }
        outcome.map_or(0, |o| o.transmissions)
    }

    fn unreachable(&mut self, _: DimHandoff) {
        self.report.events_unreachable += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_core::dynamics::{ChurnConfig, ChurnPlanner};
    use pool_core::query::RangeQuery;
    use pool_netsim::deployment::Deployment;
    use pool_netsim::geometry::{Point, Rect};
    use pool_netsim::topology::Topology;
    use pool_transport::Substrate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(n: usize, seed: u64) -> (DimSystem, Rect) {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(n, 40.0, 20.0, s).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                return (
                    DimSystem::build(topo, dep.field(), 3, &Substrate::default()).unwrap(),
                    dep.field(),
                );
            }
            s += 1000;
        }
    }

    fn load(dim: &mut DimSystem, count: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = dim.topology().len() as u32;
        for _ in 0..count {
            let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            let mut src = NodeId(rng.gen_range(0..n));
            while !dim.topology().is_alive(src) {
                src = NodeId(rng.gen_range(0..n));
            }
            dim.insert_from(src, e).unwrap();
        }
    }

    fn all_query() -> RangeQuery {
        RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap()
    }

    #[test]
    fn epochs_keep_dim_queryable_and_owners_alive() {
        let (mut dim, field) = build(300, 41);
        load(&mut dim, 120, 1);
        let config = ChurnConfig::new(3).with_rates(2, 3, 3);
        let mut planner = ChurnPlanner::new(config);
        let mut queue = DimRepairQueue::default();
        let mut merged = FailureReport::default();
        for _ in 0..6 {
            let plan = planner.plan(dim.topology(), field);
            let report = dim.apply_epoch(&plan, &mut queue, u64::MAX).unwrap();
            merged = merged.merge(&report);
            for z in dim.tree().zones() {
                assert!(dim.topology().is_alive(z.owner), "owner {} is dead", z.owner);
            }
            let sink = dim.topology().largest_component_members()[0];
            let got = dim.query_from(sink, &all_query()).unwrap();
            assert!(got.events.len() <= dim.stored_events());
        }
        assert_eq!(merged.epochs, 6);
        assert!(merged.failed_nodes > 0);
        assert_eq!(queue.len(), 0, "an unbounded budget leaves nothing deferred");
    }

    #[test]
    fn budget_bounds_dim_handoff_traffic_per_epoch() {
        let (mut dim, field) = build(300, 42);
        load(&mut dim, 150, 2);
        let budget = 20u64;
        let config = ChurnConfig::new(7).with_rates(1, 8, 6);
        let mut planner = ChurnPlanner::new(config);
        let mut queue = DimRepairQueue::default();
        for _ in 0..10 {
            let plan = planner.plan(dim.topology(), field);
            let before = dim.ledger().layer_total(TrafficLayer::Repair);
            let report = dim.apply_epoch(&plan, &mut queue, budget).unwrap();
            let after = dim.ledger().layer_total(TrafficLayer::Repair);
            assert!(after - before <= budget, "epoch spent {} > {budget}", after - before);
            assert_eq!(report.repair_messages, after - before);
            assert_eq!(report.deferred_repairs as usize, queue.len());
        }
    }

    #[test]
    fn deferred_dim_events_return_once_the_budget_allows() {
        let (mut dim, field) = build(300, 43);
        load(&mut dim, 100, 3);
        let before = dim.stored_events();
        let config = ChurnConfig::new(19).with_rates(0, 5, 5);
        let mut planner = ChurnPlanner::new(config);
        let mut queue = DimRepairQueue::default();
        let plan = planner.plan(dim.topology(), field);
        let report = dim.apply_epoch(&plan, &mut queue, 0).unwrap();
        assert_eq!(
            dim.stored_events() + queue.len() + report.events_lost,
            before,
            "every event is visible, queued, or lost: {report:?}"
        );
        let sink = dim.topology().largest_component_members()[0];
        let got = dim.query_from(sink, &all_query()).unwrap();
        assert_eq!(got.events.len(), dim.stored_events(), "queries see only the visible store");
        if !queue.is_empty() {
            let report = dim.apply_epoch(&EpochPlan::empty(), &mut queue, u64::MAX).unwrap();
            assert_eq!(queue.len(), 0);
            assert!(report.events_migrated > 0);
            let got = dim.query_from(sink, &all_query()).unwrap();
            assert_eq!(got.events.len(), dim.stored_events());
        }
    }

    #[test]
    fn unknown_plan_nodes_are_typed_errors() {
        let (mut dim, _) = build(300, 44);
        let mut queue = DimRepairQueue::default();
        let plan = EpochPlan { joins: vec![], deaths: vec![NodeId(900)], moves: vec![] };
        let err = dim.apply_epoch(&plan, &mut queue, u64::MAX).unwrap_err();
        assert!(matches!(err, PoolError::UnknownNode { node: NodeId(900), nodes: 300 }));
        let plan = EpochPlan {
            joins: vec![],
            deaths: vec![],
            moves: vec![(NodeId(301), Point::new(0.0, 0.0))],
        };
        assert!(dim.apply_epoch(&plan, &mut queue, u64::MAX).is_err());
        assert_eq!(dim.topology().len(), 300);
    }

    /// Regression: `DimSystem::fail_nodes` overlaid its victims' rows and
    /// never compacted them.
    #[test]
    fn dim_failures_and_epochs_leave_no_overlay_rows() {
        let (mut dim, field) = build(300, 46);
        load(&mut dim, 50, 5);
        let victim = dim.tree().zones()[0].owner;
        dim.fail_nodes(&[victim]).unwrap();
        assert_eq!(dim.topology().patched_rows(), 0, "fail_nodes must compact");
        let mut planner = ChurnPlanner::new(ChurnConfig::new(23).with_rates(2, 3, 3));
        let plan = planner.plan(dim.topology(), field);
        dim.apply_epoch(&plan, &mut DimRepairQueue::default(), u64::MAX).unwrap();
        assert_eq!(dim.topology().patched_rows(), 0, "apply_epoch must compact");
    }

    #[test]
    fn dim_fail_nodes_is_double_kill_safe() {
        let (mut dim, _) = build(300, 45);
        load(&mut dim, 50, 4);
        let victim = dim.tree().zones()[0].owner;
        let first = dim.fail_nodes(&[victim, victim]).unwrap();
        assert_eq!((first.failed_nodes, first.epochs), (1, 0), "duplicates count once");
        let generation = dim.transport().generation();
        let second = dim.fail_nodes(&[victim]).unwrap();
        assert_eq!(second, FailureReport::default());
        assert_eq!(dim.transport().generation(), generation, "a corpse is not refreshed for");
        let err = dim.fail_nodes(&[NodeId(300)]).unwrap_err();
        assert!(matches!(err, PoolError::UnknownNode { node: NodeId(300), nodes: 300 }));
    }
}
