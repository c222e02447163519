//! Churn support for the geographic hash table: epoch-stepped joins,
//! deaths, and moves with budgeted incremental re-homing.
//!
//! A topology change moves key homes: the home node of a key is wherever
//! GPSR delivers a packet addressed to the key's hashed location, so a
//! death, join, or move near that location re-homes every key it served.
//! Values at dead nodes are lost (plain GHT keeps no replicas). Values
//! whose home moved while their holder survives are *re-homed* under a
//! per-epoch message budget; until the handoff lands, a `get` routes to
//! the new home and honestly misses them.
//!
//! This module is deliberately free of `pool-core` types: an epoch is the
//! same [`EpochPlan`] Pool and DIM take, from `pool-transport`.

use crate::table::GhtTable;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::{
    apply_change, EpochPlan, Leg, Price, Repair, RepairQueue, TrafficLayer, Transport, UnknownNode,
};

/// Outcome of one GHT churn epoch (counters add across epochs via
/// [`GhtChurnReport::merge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GhtChurnReport {
    /// Nodes newly failed this epoch.
    pub failed_nodes: usize,
    /// Values that stayed at their (unchanged) home.
    pub values_retained: usize,
    /// Values handed off to their new home this epoch.
    pub values_rehomed: usize,
    /// Values lost with their dead holders.
    pub values_lost: usize,
    /// Values whose re-homing route could not be delivered (or could never
    /// fit the budget); they are dropped.
    pub values_unreachable: usize,
    /// Radio messages spent on re-homing.
    pub repair_messages: u64,
    /// Handoffs still queued when the epoch ended.
    pub deferred_repairs: u64,
    /// Whether the surviving network is split into several components.
    pub partitioned: bool,
}

impl GhtChurnReport {
    /// Combines two epoch reports: counters add, the partition flag is
    /// sticky, and `deferred_repairs` takes the later value.
    pub fn merge(&self, other: &GhtChurnReport) -> GhtChurnReport {
        GhtChurnReport {
            failed_nodes: self.failed_nodes + other.failed_nodes,
            values_retained: self.values_retained + other.values_retained,
            values_rehomed: self.values_rehomed + other.values_rehomed,
            values_lost: self.values_lost + other.values_lost,
            values_unreachable: self.values_unreachable + other.values_unreachable,
            repair_messages: self.repair_messages + other.repair_messages,
            deferred_repairs: other.deferred_repairs,
            partitioned: self.partitioned || other.partitioned,
        }
    }
}

/// One queued GHT re-homing handoff.
#[derive(Debug, Clone)]
pub struct GhtHandoff<V> {
    key: String,
    value: V,
    /// The surviving node still physically holding the value.
    from: NodeId,
}

/// GHT's carry-over queue of re-homing handoffs deferred by the per-epoch
/// budget; parked values are not visible to `get` until delivered.
pub type GhtRepairQueue<V> = RepairQueue<GhtHandoff<V>>;

impl<V: Clone> GhtTable<V> {
    /// Grows the per-node storage to address `n` nodes (joins give the
    /// network new dense ids; existing values are untouched).
    pub fn grow_to(&mut self, n: usize) {
        if n > self.storage.len() {
            self.storage.resize(n, std::collections::HashMap::new());
        }
    }

    /// Applies one epoch of churn to the table and its network: `plan`'s
    /// joins (new nodes at the given positions), moves (waypoint
    /// relocations of live nodes), then deaths — one transport refresh for
    /// the whole batch. Every surviving value whose key no longer homes at its
    /// holder is handed off to the new home, FIFO under `budget` radio
    /// messages (charged to [`TrafficLayer::Repair`]); the remainder waits
    /// in `queue`. A budget of 0 pauses re-homing; a handoff whose
    /// loss-free route alone exceeds the budget is dropped as unreachable.
    ///
    /// `topology` and `transport` are updated in place; values at dead
    /// nodes are lost (plain GHT keeps no replicas).
    ///
    /// # Errors
    ///
    /// [`UnknownNode`] if the plan's deaths or moves name a node that was
    /// never deployed; nothing is applied.
    pub fn apply_epoch(
        &mut self,
        topology: &mut Topology,
        transport: &mut dyn Transport,
        plan: &EpochPlan,
        queue: &mut GhtRepairQueue<V>,
        budget: u64,
    ) -> Result<GhtChurnReport, UnknownNode> {
        // Joins, moves, then deaths, written in place once every id is
        // known; the transport refreshes over the rows they dirtied.
        let change = apply_change(topology, transport, plan)?;
        let victims = change.victims;
        let mut report = GhtChurnReport {
            failed_nodes: victims.len(),
            partitioned: change.partitioned,
            ..GhtChurnReport::default()
        };
        self.grow_to(topology.len());

        // Values at dead nodes are gone; carried handoffs whose holder
        // died are gone with it.
        for &v in &victims {
            let lost: usize = self.storage[v.index()].values().map(Vec::len).sum();
            report.values_lost += lost;
            self.storage[v.index()].clear();
        }
        let carried = queue.tasks.len();
        queue.tasks.retain(|t| topology.is_alive(t.from));
        report.values_lost += carried - queue.tasks.len();

        // Re-home walk: every key held by a survivor whose home moved
        // leaves the table and queues as a handoff. Keys are visited in
        // (node, key) order — HashMap iteration order is not
        // deterministic, and the drain cutoff must be.
        for i in 0..self.storage.len() {
            let holder = NodeId(i as u32);
            if !topology.is_alive(holder) || self.storage[i].is_empty() {
                continue;
            }
            let mut keys: Vec<String> = self.storage[i].keys().cloned().collect();
            keys.sort_unstable();
            for key in keys {
                let loc = self.key_location(topology, &key);
                let home = match transport.route_to_location(topology, holder, loc) {
                    Ok(route) => route.delivered,
                    // No route from here (partition): the values stay put
                    // and this key's gets will miss them — honest degraded
                    // mode, retried next epoch.
                    Err(_) => continue,
                };
                if home == holder {
                    report.values_retained += self.storage[i][&key].len();
                } else {
                    let values = self.storage[i].remove(&key).expect("key exists");
                    for value in values {
                        queue.tasks.push_back(GhtHandoff { key: key.clone(), value, from: holder });
                    }
                }
            }
        }

        let mut drain = Drain { table: self, topology, transport, report: &mut report };
        let spent = queue.drain(budget, &mut drain);
        report.repair_messages += spent;
        report.deferred_repairs = queue.len() as u64;
        Ok(report)
    }
}

/// GHT's side of the shared repair drain: a handoff is priced by its route
/// toward the key's location, and lands for free when that route now ends
/// at the holder (the home swung back while it waited).
struct Drain<'a, V> {
    table: &'a mut GhtTable<V>,
    topology: &'a Topology,
    transport: &'a mut dyn Transport,
    report: &'a mut GhtChurnReport,
}

impl<V: Clone> Repair for Drain<'_, V> {
    type Task = GhtHandoff<V>;

    fn price(&mut self, task: &GhtHandoff<V>) -> Price {
        let loc = self.table.key_location(self.topology, &task.key);
        match self.transport.route_to_location(self.topology, task.from, loc) {
            Ok(route) if route.delivered == task.from => Price::Home,
            Ok(route) => Price::Route(Leg::Route(route)),
            Err(_) => Price::NoRoute,
        }
    }

    fn land(&mut self, task: GhtHandoff<V>, leg: Option<Leg>, _: &mut GhtRepairQueue<V>) -> u64 {
        let ends_at = |leg: &Leg| *leg.path().last().expect("a route holds its source");
        let home = leg.as_ref().map_or(task.from, ends_at);
        let outcome =
            leg.map(|leg| self.transport.deliver(self.topology, leg.path(), TrafficLayer::Repair));
        if outcome.as_ref().is_none_or(|o| o.delivered) {
            self.table.storage[home.index()].entry(task.key).or_default().push(task.value);
            self.report.values_rehomed += 1;
        } else {
            self.report.values_unreachable += 1;
        }
        outcome.map_or(0, |o| o.transmissions)
    }

    fn unreachable(&mut self, _: GhtHandoff<V>) {
        self.report.values_unreachable += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_gpsr::Planarization;
    use pool_netsim::deployment::Deployment;
    use pool_netsim::geometry::Point;
    use pool_transport::TransportKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (Topology, Box<dyn Transport>) {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(250, 40.0, 20.0, s).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                let transport = TransportKind::Gpsr.build(&topo, Planarization::Gabriel);
                return (topo, transport);
            }
            s += 1;
        }
    }

    fn load(ght: &mut GhtTable<u32>, topo: &Topology, t: &mut dyn Transport, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = topo.len() as u32;
        for i in 0..n {
            let src = NodeId(rng.gen_range(0..count));
            ght.put(topo, t, src, &format!("key-{i}"), i as u32).unwrap();
        }
    }

    #[test]
    fn deaths_rehome_keys_and_gets_stay_honest() {
        let (mut topo, mut t) = setup(201);
        let mut ght: GhtTable<u32> = GhtTable::new(&topo);
        load(&mut ght, &topo, t.as_mut(), 80, 1);
        let before = ght.total_stored();
        let mut queue = GhtRepairQueue::default();
        // Kill the ten busiest homes.
        let mut homes: Vec<(usize, NodeId)> = (0..topo.len())
            .map(|i| (ght.stored_at(NodeId(i as u32)), NodeId(i as u32)))
            .filter(|&(c, _)| c > 0)
            .collect();
        homes.sort_unstable_by(|a, b| b.cmp(a));
        let victims: Vec<NodeId> = homes.iter().take(10).map(|&(_, n)| n).collect();
        let plan = EpochPlan { deaths: victims, ..EpochPlan::empty() };
        let report = ght.apply_epoch(&mut topo, t.as_mut(), &plan, &mut queue, u64::MAX).unwrap();
        assert_eq!(report.failed_nodes, 10);
        assert!(report.values_lost > 0, "dead homes lose their values: {report:?}");
        assert_eq!(
            ght.total_stored() + queue.len() + report.values_lost + report.values_unreachable,
            before
        );
        // Surviving keys are still gettable; lost keys miss honestly.
        let sink = topo.largest_component_members()[0];
        let mut found = 0;
        for i in 0..80 {
            let (values, receipt) = ght.get(&topo, t.as_mut(), sink, &format!("key-{i}")).unwrap();
            assert!(receipt.messages > 0 || values.is_empty());
            found += usize::from(!values.is_empty());
        }
        assert_eq!(found, ght.total_stored().min(80), "gets see exactly the stored values");
    }

    #[test]
    fn budget_bounds_rehoming_traffic_and_defers_the_rest() {
        let (mut topo, mut t) = setup(202);
        let mut ght: GhtTable<u32> = GhtTable::new(&topo);
        load(&mut ght, &topo, t.as_mut(), 120, 2);
        let mut queue = GhtRepairQueue::default();
        let mut rng = StdRng::seed_from_u64(9);
        let budget = 15u64;
        for _ in 0..8 {
            let victims: Vec<NodeId> = (0..topo.len() as u32)
                .map(NodeId)
                .filter(|&n| topo.is_alive(n) && rng.gen_bool(0.02))
                .collect();
            let before = t.ledger().layer_total(TrafficLayer::Repair);
            let plan = EpochPlan { deaths: victims, ..EpochPlan::empty() };
            let report = ght.apply_epoch(&mut topo, t.as_mut(), &plan, &mut queue, budget).unwrap();
            let after = t.ledger().layer_total(TrafficLayer::Repair);
            assert!(after - before <= budget, "epoch spent {} > {budget}", after - before);
            assert_eq!(report.repair_messages, after - before);
            assert_eq!(report.deferred_repairs as usize, queue.len());
        }
        // Calm epochs eventually drain (or drop as unreachable) the queue.
        for _ in 0..300 {
            if queue.is_empty() {
                break;
            }
            ght.apply_epoch(&mut topo, t.as_mut(), &EpochPlan::empty(), &mut queue, budget)
                .unwrap();
        }
        assert!(queue.is_empty(), "the queue must drain when churn stops");
    }

    #[test]
    fn joins_and_moves_rehome_without_loss_under_unbounded_budget() {
        let (mut topo, mut t) = setup(203);
        let mut ght: GhtTable<u32> = GhtTable::new(&topo);
        load(&mut ght, &topo, t.as_mut(), 60, 3);
        let before = ght.total_stored();
        let mut queue = GhtRepairQueue::default();
        let plan = EpochPlan {
            joins: vec![Point::new(100.0, 100.0), topo.bounds().center()],
            deaths: vec![],
            moves: vec![(NodeId(5), Point::new(20.0, 20.0)), (NodeId(9), topo.bounds().center())],
        };
        let report = ght.apply_epoch(&mut topo, t.as_mut(), &plan, &mut queue, u64::MAX).unwrap();
        assert_eq!(report.failed_nodes, 0);
        assert_eq!(report.values_lost, 0, "nobody died: {report:?}");
        assert_eq!(
            ght.total_stored() + report.values_unreachable,
            before,
            "no loss under an unbounded budget: {report:?}"
        );
        assert_eq!(topo.len(), 252);
        // Every key now lives at its current home: a fresh walk is a no-op.
        let report = ght
            .apply_epoch(&mut topo, t.as_mut(), &EpochPlan::empty(), &mut queue, u64::MAX)
            .unwrap();
        assert_eq!(report.values_rehomed, 0, "{report:?}");
        assert_eq!(report.repair_messages, 0);
    }

    #[test]
    fn merge_adds_counters_and_keeps_the_partition_flag() {
        let a = GhtChurnReport {
            failed_nodes: 2,
            values_rehomed: 5,
            repair_messages: 9,
            deferred_repairs: 3,
            partitioned: true,
            ..Default::default()
        };
        let b = GhtChurnReport {
            failed_nodes: 1,
            values_lost: 2,
            repair_messages: 4,
            deferred_repairs: 1,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.failed_nodes, 3);
        assert_eq!(m.values_rehomed, 5);
        assert_eq!(m.values_lost, 2);
        assert_eq!(m.repair_messages, 13);
        assert_eq!(m.deferred_repairs, 1, "deferred takes the latest snapshot");
        assert!(m.partitioned);
    }

    /// The GHT twin of Pool's and DIM's test: an id that was never deployed
    /// is a typed error raised before the first write — even when valid
    /// joins and moves precede it in the plan — not a panic mid-mutation.
    #[test]
    fn unknown_nodes_in_a_plan_are_typed_errors_and_nothing_applies() {
        let (mut topo, mut t) = setup(204);
        let mut ght: GhtTable<u32> = GhtTable::new(&topo);
        load(&mut ght, &topo, t.as_mut(), 40, 4);
        let stored = ght.total_stored();
        let reference = topo.clone();
        let mut queue = GhtRepairQueue::default();
        let joins = vec![Point::new(10.0, 10.0)];
        let moves = vec![(NodeId(3), Point::new(50.0, 50.0))];
        let plan = EpochPlan { joins: joins.clone(), deaths: vec![NodeId(9999)], moves };
        let err = ght.apply_epoch(&mut topo, t.as_mut(), &plan, &mut queue, 50).unwrap_err();
        assert_eq!(err, UnknownNode { node: NodeId(9999), nodes: 251 });
        assert!(err.to_string().contains("unknown node"), "{err}");
        let bad_move = vec![(NodeId(251), Point::new(1.0, 1.0))];
        let plan = EpochPlan { joins, deaths: vec![], moves: bad_move };
        let err = ght.apply_epoch(&mut topo, t.as_mut(), &plan, &mut queue, 50).unwrap_err();
        assert_eq!(err.node, NodeId(251), "a mover may not name this epoch's joiner + 1");
        // Nothing applied: no joiner, no move, no refresh, no value touched.
        assert_eq!(topo.len(), reference.len());
        assert_eq!(topo.position(NodeId(3)), reference.position(NodeId(3)));
        assert_eq!(topo.patched_rows(), 0);
        assert_eq!(t.generation(), 0);
        assert_eq!(ght.total_stored(), stored);
        assert!(queue.is_empty());
    }
}
