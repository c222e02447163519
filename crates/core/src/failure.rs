//! Node failure injection and recovery.
//!
//! Sensor nodes die — batteries drain, hardware fails. This module adds
//! fault tolerance on top of the paper's design:
//!
//! * **Re-election**: when a cell's index node dies, the live node nearest
//!   the cell center takes over (the same rule that elected the original,
//!   §2, applied to the surviving population).
//! * **Replication** ([`crate::config::PoolConfig::with_replication`]):
//!   each insertion leaves one backup copy at a neighbor of the index
//!   node (+1 message). After a failure, the new index node recovers the
//!   dead node's events from the surviving backups, and only the copies
//!   that died are re-created.
//! * **Repair accounting**: every migration/recovery/re-backup hop is
//!   charged to the traffic ledger, so experiments can price fault
//!   tolerance.
//!
//! A failure burst is the deaths-only churn epoch with no message budget
//! ([`crate::dynamics`]): one engine repairs both. Without replication,
//! events held by dead nodes are lost — the paper's (implicit) baseline
//! behaviour.

use crate::dynamics::{EpochPlan, RepairQueue};
use crate::system::PoolSystem;
use crate::PoolError;
use pool_netsim::node::NodeId;
use std::collections::HashSet;

/// Outcome of a failure-injection step (or of a run of churn epochs, when
/// produced by [`crate::dynamics::ChurnScenario`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FailureReport {
    /// Nodes newly failed in this step.
    pub failed_nodes: usize,
    /// Pool cells whose index node changed.
    pub cells_reassigned: usize,
    /// Events that survived in place (holder still alive, cell untouched).
    pub events_retained: usize,
    /// Events migrated from a surviving holder to a new index node.
    pub events_migrated: usize,
    /// Events recovered from backup copies.
    pub events_recovered: usize,
    /// Events permanently lost.
    pub events_lost: usize,
    /// Radio messages spent on repair (migration + recovery + re-backup).
    pub repair_messages: u64,
    /// Whether the surviving network is split into several components.
    /// Repair proceeds anyway (degraded mode); queries issued afterwards
    /// report the cells they cannot reach via
    /// [`crate::forward::Completeness`].
    pub partitioned: bool,
    /// Survivors outside the largest connected component (0 when not
    /// partitioned).
    pub nodes_unreachable: usize,
    /// Pool cells whose re-elected index node sits outside the largest
    /// component.
    pub cells_unreachable: usize,
    /// Events whose repair route (migration or recovery) could not be
    /// delivered; they are dropped from the store rather than restored,
    /// keeping stored state consistent with what queries can see.
    pub events_unreachable: usize,
    /// Churn epochs this report spans (0 for `fail_nodes`).
    pub epochs: usize,
    /// Failures caused by a battery draining to zero rather than a
    /// scripted kill (only churn scenarios with an energy model set this).
    pub energy_deaths: usize,
    /// Repairs still queued when the report was taken — work the per-epoch
    /// message budget pushed into later epochs (0 after `fail_nodes`,
    /// which is unbudgeted).
    pub deferred_repairs: u64,
}

impl FailureReport {
    /// Combines two reports (e.g. successive failure rounds): counters add
    /// up, the partition flag is sticky, and `deferred_repairs` — a queue
    /// length, not a count of events — takes the later report's value.
    pub fn merge(&self, other: &FailureReport) -> FailureReport {
        FailureReport {
            failed_nodes: self.failed_nodes + other.failed_nodes,
            cells_reassigned: self.cells_reassigned + other.cells_reassigned,
            events_retained: self.events_retained + other.events_retained,
            events_migrated: self.events_migrated + other.events_migrated,
            events_recovered: self.events_recovered + other.events_recovered,
            events_lost: self.events_lost + other.events_lost,
            repair_messages: self.repair_messages + other.repair_messages,
            partitioned: self.partitioned || other.partitioned,
            nodes_unreachable: self.nodes_unreachable + other.nodes_unreachable,
            cells_unreachable: self.cells_unreachable + other.cells_unreachable,
            events_unreachable: self.events_unreachable + other.events_unreachable,
            epochs: self.epochs + other.epochs,
            energy_deaths: self.energy_deaths + other.energy_deaths,
            deferred_repairs: other.deferred_repairs,
        }
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} node(s) failed: {} cells reassigned; events {} retained, \
             {} migrated, {} recovered, {} lost; {} repair messages",
            self.failed_nodes,
            self.cells_reassigned,
            self.events_retained,
            self.events_migrated,
            self.events_recovered,
            self.events_lost,
            self.repair_messages,
        )?;
        if self.epochs > 0 {
            write!(f, " over {} epoch(s)", self.epochs)?;
        }
        if self.energy_deaths > 0 {
            write!(f, "; {} death(s) from battery depletion", self.energy_deaths)?;
        }
        if self.deferred_repairs > 0 {
            write!(f, "; {} repair(s) still deferred", self.deferred_repairs)?;
        }
        if self.partitioned {
            write!(
                f,
                "; network partitioned ({} nodes, {} cells, {} events unreachable)",
                self.nodes_unreachable, self.cells_unreachable, self.events_unreachable,
            )?;
        }
        Ok(())
    }
}

impl PoolSystem {
    /// Fails `dead` nodes and repairs the system completely: the
    /// deaths-only [`PoolSystem::apply_epoch`] with no message budget (the
    /// report's `epochs` is 0). Index nodes are re-elected, routing is
    /// refreshed over the survivors, affected events are migrated or
    /// recovered, the backups that died are re-created, and continuous
    /// queries whose sinks died are dropped.
    ///
    /// A failure that splits the surviving network does not abort: repair
    /// proceeds in degraded mode, [`FailureReport::partitioned`] is set and
    /// the casualties are tallied (`nodes_unreachable`, `cells_unreachable`,
    /// `events_unreachable`). An event whose repair route cannot be
    /// delivered is dropped, so the store never claims what no query could
    /// produce.
    ///
    /// Failing an *already-dead* node is an idempotent no-op: duplicates
    /// and corpses are filtered out before counting, and a burst that
    /// kills nobody returns an all-zero report without touching the
    /// network.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownNode`] if any id was never deployed (nothing is
    /// applied); [`PoolError::Routing`] only for pathological routing
    /// failures.
    pub fn fail_nodes(&mut self, dead: &[NodeId]) -> Result<FailureReport, PoolError> {
        let Some(plan) = EpochPlan::deaths_only(&self.topology, dead) else {
            return Ok(FailureReport::default());
        };
        let report = self.apply_epoch(&plan, &mut RepairQueue::default(), u64::MAX)?;
        Ok(FailureReport { epochs: 0, ..report })
    }

    /// Fills in a partitioned report's casualty tallies from one
    /// component search: live nodes outside the largest component, and
    /// pool cells whose index node sits outside it.
    pub(crate) fn tally_partition(&self, report: &mut FailureReport) {
        let main: HashSet<NodeId> = self.topology.largest_component_members().into_iter().collect();
        report.nodes_unreachable = self.topology.alive_count() - main.len();
        report.cells_unreachable = self
            .layout
            .pools()
            .iter()
            .flat_map(|p| p.cells())
            .filter(|&c| self.index_node_of(c).is_none_or(|n| !main.contains(&n)))
            .count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use crate::event::Event;
    use crate::query::RangeQuery;
    use pool_netsim::deployment::Deployment;
    use pool_netsim::topology::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build_system(seed: u64, config: PoolConfig) -> PoolSystem {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(400, 40.0, 20.0, s).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                return PoolSystem::build(topo, dep.field(), config).unwrap();
            }
            s += 1000;
        }
    }

    fn all_query() -> RangeQuery {
        RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap()
    }

    fn load(pool: &mut PoolSystem, count: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..count {
            let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            pool.insert_from(NodeId(rng.gen_range(0..400)), e).unwrap();
        }
    }

    /// The index nodes currently holding events (failure targets).
    fn loaded_nodes(pool: &PoolSystem) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> =
            (0..400u32).map(NodeId).filter(|&n| pool.store().count_at(n) > 0).collect();
        nodes.sort_unstable();
        nodes
    }

    #[test]
    fn failure_without_replication_loses_only_dead_holders_events() {
        let mut pool = build_system(1, PoolConfig::paper());
        load(&mut pool, 300, 10);
        let before = pool.store().len();
        let victims: Vec<NodeId> = loaded_nodes(&pool).into_iter().take(3).collect();
        let at_risk: usize = victims.iter().map(|&v| pool.store().count_at(v)).sum();
        let report = pool.fail_nodes(&victims).unwrap();
        assert_eq!(report.failed_nodes, 3);
        assert_eq!(report.events_lost, at_risk);
        assert_eq!(pool.store().len(), before - at_risk);
        // The survivors are still fully queryable.
        let got = pool.query_from(NodeId(399), &all_query()).unwrap();
        assert_eq!(got.events.len(), before - at_risk);
    }

    #[test]
    fn replication_recovers_everything() {
        let mut pool = build_system(2, PoolConfig::paper().with_replication());
        load(&mut pool, 300, 12);
        let before = pool.store().len();
        let victims: Vec<NodeId> = loaded_nodes(&pool).into_iter().take(4).collect();
        let report = pool.fail_nodes(&victims).unwrap();
        assert_eq!(report.events_lost, 0, "replication must prevent loss: {report:?}");
        assert!(report.events_recovered > 0, "some events were on dead nodes");
        assert!(report.repair_messages > 0);
        assert_eq!(pool.store().len(), before);
        let got = pool.query_from(NodeId(399), &all_query()).unwrap();
        assert_eq!(got.events.len(), before);
    }

    #[test]
    fn index_nodes_are_reelected_to_nearest_survivor() {
        let mut pool = build_system(3, PoolConfig::paper());
        load(&mut pool, 50, 12);
        let victims: Vec<NodeId> = loaded_nodes(&pool).into_iter().take(2).collect();
        pool.fail_nodes(&victims).unwrap();
        for pool_spec in pool.layout().pools().to_vec() {
            for cell in pool_spec.cells() {
                let index = pool.index_node_of(cell).unwrap();
                assert!(pool.topology().is_alive(index));
                assert_eq!(index, pool.topology().nearest_node(pool.grid().center(cell)));
            }
        }
    }

    #[test]
    fn inserts_and_queries_work_after_cascading_failures() {
        let mut pool = build_system(4, PoolConfig::paper().with_replication());
        load(&mut pool, 100, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let mut combined = FailureReport::default();
        for round in 0..3 {
            let victims: Vec<NodeId> =
                loaded_nodes(&pool).into_iter().filter(|_| rng.gen_bool(0.3)).take(2).collect();
            if victims.is_empty() {
                continue;
            }
            let report = pool.fail_nodes(&victims).unwrap();
            combined = combined.merge(&report);
            assert_eq!(report.events_lost, 0, "round {round}: {report:?}");
            // New insertions land on live index nodes.
            let mut src = NodeId(rng.gen_range(0..400));
            while !pool.topology().is_alive(src) {
                src = NodeId(rng.gen_range(0..400));
            }
            let receipt = pool
                .insert_from(src, Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap())
                .unwrap();
            assert!(pool.topology().is_alive(receipt.holder));
        }
        let got = pool.query_from(loaded_nodes(&pool)[0], &all_query()).unwrap();
        assert_eq!(got.events.len(), pool.store().len());
        // The merged report sums the rounds.
        assert!(combined.failed_nodes >= 2);
        assert_eq!(combined.events_lost, 0);
        assert!(!combined.partitioned);
    }

    #[test]
    fn merged_reports_sum_counters_and_keep_the_partition_flag() {
        let a = FailureReport {
            failed_nodes: 2,
            events_migrated: 3,
            repair_messages: 10,
            partitioned: true,
            nodes_unreachable: 5,
            ..FailureReport::default()
        };
        let b = FailureReport {
            failed_nodes: 1,
            events_recovered: 4,
            repair_messages: 7,
            ..FailureReport::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.failed_nodes, 3);
        assert_eq!(m.events_migrated, 3);
        assert_eq!(m.events_recovered, 4);
        assert_eq!(m.repair_messages, 17);
        assert!(m.partitioned, "partition flag must be sticky");
        assert_eq!(m.nodes_unreachable, 5);
        // merge is symmetric.
        assert_eq!(m, b.merge(&a));
    }

    #[test]
    fn report_display_is_informative() {
        let healthy = FailureReport { failed_nodes: 2, events_migrated: 3, ..Default::default() };
        let text = healthy.to_string();
        assert!(text.contains("2 node(s) failed"), "{text}");
        assert!(!text.contains("partitioned"), "{text}");
        assert!(!text.contains("epoch"), "{text}");
        assert!(!text.contains("deferred"), "{text}");
        let split = FailureReport { partitioned: true, nodes_unreachable: 7, ..Default::default() };
        let text = split.to_string();
        assert!(text.contains("partitioned"), "{text}");
        assert!(text.contains("7 nodes"), "{text}");
        let churned = FailureReport {
            epochs: 4,
            energy_deaths: 2,
            deferred_repairs: 9,
            ..Default::default()
        };
        let text = churned.to_string();
        assert!(text.contains("4 epoch(s)"), "{text}");
        assert!(text.contains("2 death(s) from battery depletion"), "{text}");
        assert!(text.contains("9 repair(s) still deferred"), "{text}");
    }

    #[test]
    fn merge_sums_the_churn_fields() {
        let a = FailureReport {
            epochs: 2,
            energy_deaths: 1,
            deferred_repairs: 5,
            ..Default::default()
        };
        let b = FailureReport { epochs: 3, deferred_repairs: 2, ..Default::default() };
        let m = a.merge(&b);
        assert_eq!(m.epochs, 5);
        assert_eq!(m.energy_deaths, 1);
        assert_eq!(m.deferred_repairs, 2, "a queue length: the later report's, not a sum");
        assert_eq!(b.merge(&a).deferred_repairs, 5);
    }

    /// A burst with nobody left to kill — only corpses, or nobody at all —
    /// is a no-op: no epoch runs, so the transport is not even refreshed.
    #[test]
    fn killing_only_corpses_touches_nothing() {
        let mut pool = build_system(10, PoolConfig::paper().with_replication());
        load(&mut pool, 50, 20);
        let first = pool.fail_nodes(&[NodeId(8), NodeId(8)]).unwrap();
        assert_eq!((first.failed_nodes, first.epochs), (1, 0));
        let generation = pool.transport().generation();
        let messages = pool.ledger().total_messages();
        assert_eq!(pool.fail_nodes(&[NodeId(8)]).unwrap(), FailureReport::default());
        assert_eq!(pool.fail_nodes(&[]).unwrap(), FailureReport::default());
        assert_eq!(pool.transport().generation(), generation, "no refresh without a victim");
        assert_eq!(pool.ledger().total_messages(), messages);
    }

    /// Satellite regression: double-killing is idempotent, and unknown ids
    /// are a typed error. Neither can inflate the casualty counters.
    #[test]
    fn double_kill_is_idempotent_and_unknown_nodes_are_typed_errors() {
        let mut pool = build_system(8, PoolConfig::paper());
        load(&mut pool, 200, 18);
        let victim = loaded_nodes(&pool)[0];
        let first = pool.fail_nodes(&[victim]).unwrap();
        assert_eq!(first.failed_nodes, 1);
        assert!(first.events_lost > 0, "the victim held events");
        let stored = pool.store().len();
        let alive = pool.topology().alive_count();

        // Killing the same node again must not double-count anything or
        // touch the network.
        let second = pool.fail_nodes(&[victim]).unwrap();
        assert_eq!(second, FailureReport::default(), "double-kill must be a no-op");
        assert_eq!(pool.store().len(), stored);
        assert_eq!(pool.topology().alive_count(), alive);

        // A duplicated victim in one call counts once.
        let next = loaded_nodes(&pool).into_iter().find(|&n| n != victim).unwrap();
        let dup = pool.fail_nodes(&[next, next, victim]).unwrap();
        assert_eq!(dup.failed_nodes, 1, "duplicates and corpses are filtered: {dup:?}");

        // An id that was never deployed is a typed error, not a panic, and
        // nothing happens.
        let stored = pool.store().len();
        let err = pool.fail_nodes(&[NodeId(400), next]).unwrap_err();
        assert!(
            matches!(err, PoolError::UnknownNode { node: NodeId(400), nodes: 400 }),
            "got {err:?}"
        );
        assert_eq!(pool.store().len(), stored);
        assert!(err.to_string().contains("unknown node"), "{err}");
    }

    /// Regression: `fail_nodes` failed the nodes on a fresh copy of the
    /// topology and never compacted it, so every failure's rows stayed in
    /// the overlay for the life of the system and each later lookup on them
    /// paid the indirection.
    #[test]
    fn failures_and_epochs_leave_no_overlay_rows() {
        use crate::dynamics::{EpochPlan, RepairQueue};
        let mut pool = build_system(9, PoolConfig::paper().with_replication());
        load(&mut pool, 100, 19);
        let victims: Vec<NodeId> = loaded_nodes(&pool).into_iter().take(3).collect();
        pool.fail_nodes(&victims).unwrap();
        assert_eq!(pool.topology().patched_rows(), 0, "fail_nodes must compact");
        let mover = loaded_nodes(&pool)[0];
        let plan = EpochPlan {
            joins: vec![pool.field().center()],
            deaths: vec![loaded_nodes(&pool)[1]],
            moves: vec![(mover, pool.field().center())],
        };
        pool.apply_epoch(&plan, &mut RepairQueue::default(), u64::MAX).unwrap();
        assert_eq!(pool.topology().patched_rows(), 0, "apply_epoch must compact");
        let got = pool.query_from(mover, &all_query()).unwrap();
        assert_eq!(got.events.len(), pool.store().len());
    }

    #[test]
    fn monitors_of_dead_sinks_are_dropped() {
        let mut pool = build_system(5, PoolConfig::paper());
        let q = RangeQuery::exact(vec![(0.4, 0.6), (0.0, 1.0), (0.0, 1.0)]).unwrap();
        let sink = NodeId(17);
        pool.install_monitor(sink, q.clone()).unwrap();
        let other = pool.install_monitor(NodeId(30), q).unwrap().id;
        pool.fail_nodes(&[sink]).unwrap();
        assert_eq!(pool.monitors().len(), 1);
        assert!(pool.monitors().get(other).is_some());
    }

    #[test]
    fn disconnecting_failure_degrades_instead_of_aborting() {
        // Kill a vertical stripe through the middle of the field so the
        // survivors split into (at least) an east and a west component.
        let mut pool = build_system(6, PoolConfig::paper());
        load(&mut pool, 120, 16);
        let field = pool.field();
        let mid_x = field.center().x;
        let victims: Vec<NodeId> = pool
            .topology()
            .nodes()
            .iter()
            .filter(|n| (n.position.x - mid_x).abs() < 45.0)
            .map(|n| n.id)
            .collect();
        let report = pool.fail_nodes(&victims).unwrap();
        assert!(report.partitioned, "stripe failure must partition: {report:?}");
        assert!(report.nodes_unreachable > 0, "{report:?}");
        assert!(report.cells_unreachable > 0, "{report:?}");
        // Regression: the tally used `len()`, which counts the stripe's own
        // corpses as survivors cut off from the main component.
        assert_eq!(
            report.nodes_unreachable,
            pool.topology().alive_count() - pool.topology().largest_component_members().len(),
            "{} corpses must not be counted: {report:?}",
            victims.len()
        );
        // Queries from the largest component still answer, reporting the
        // cells they could not reach instead of erroring.
        let main = pool.topology().largest_component_members();
        let sink = main[0];
        let got = pool.query_from(sink, &all_query()).unwrap();
        assert!(
            !got.completeness.is_complete(),
            "a partition must surface as missing cells: {:?}",
            got.completeness
        );
        assert_eq!(
            got.completeness.cells_reached + got.completeness.unreached_cells.len(),
            got.completeness.cells_relevant
        );
        assert!(got.completeness.ratio() < 1.0);
    }

    #[test]
    fn replication_charges_one_extra_message_per_insert() {
        let mut plain = build_system(7, PoolConfig::paper());
        let mut replicated = build_system(7, PoolConfig::paper().with_replication());
        let e = Event::new(vec![0.3, 0.7, 0.2]).unwrap();
        let a = plain.insert_from(NodeId(5), e.clone()).unwrap();
        let b = replicated.insert_from(NodeId(5), e).unwrap();
        assert_eq!(b.messages, a.messages + 1);
    }
}
