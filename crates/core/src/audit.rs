//! Whole-system invariant auditing.
//!
//! [`PoolSystem::audit`] sweeps the deployed system and checks every
//! structural invariant the design relies on. Every churn epoch (and so
//! every failure burst) ends with it in debug builds; experiments call it
//! after heavy mutation (bulk insertion, workload sharing) to turn silent
//! corruption into loud failure; the integration suite calls it as a final
//! gate.

use crate::dynamics::{backup_pending, RepairQueue};
use crate::insert::candidate_cells;
use crate::system::PoolSystem;
use std::fmt;

/// One violated invariant found by an audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// The outcome of a system audit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// All violations found (empty = healthy).
    pub violations: Vec<AuditViolation>,
    /// Number of events checked.
    pub events_checked: usize,
    /// Number of cells checked.
    pub cells_checked: usize,
}

impl AuditReport {
    /// Whether the system passed every check.
    pub fn is_healthy(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, invariant: &'static str, detail: String) {
        self.violations.push(AuditViolation { invariant, detail });
    }
}

impl PoolSystem {
    /// Audits every structural invariant:
    ///
    /// 1. every stored event sits in a cell that Theorem 3.1 (with §4.1 tie
    ///    handling) could have assigned it;
    /// 2. every pool cell's index node is the live node nearest the cell
    ///    center;
    /// 3. every event holder is alive and is either the cell's index node
    ///    or on the cell's delegation chain;
    /// 4. delegation chains contain no duplicates and only live nodes;
    /// 5. under a sharing policy, no node holds more than `capacity`
    ///    events;
    /// 6. every backup copy sits on a live node other than the event's
    ///    holder (one node holding both copies is no replica);
    /// 7. under replication, an event with no backup has a re-backup task
    ///    in `pending` — unless none could have been made: its cell's index
    ///    node has no live neighbour, or the link layer has lost a hop (a
    ///    copy lost in flight is re-queued by the next epoch's store walk).
    ///
    /// `pending` is the repair queue carried between epochs; outside churn,
    /// pass an empty one.
    pub fn audit(&self, pending: &RepairQueue) -> AuditReport {
        let mut report = AuditReport::default();
        let copies_lost_in_flight = self.transport().delivery_stats().hops_failed > 0;

        // (2) index-node election.
        for pool in self.layout().pools() {
            for cell in pool.cells() {
                report.cells_checked += 1;
                let Some(index) = self.index_node_of(cell) else {
                    report.violate("index-node-exists", format!("{cell} has no index node"));
                    continue;
                };
                if !self.topology().is_alive(index) {
                    report.violate("index-node-alive", format!("{cell} -> dead {index}"));
                }
                let nearest = self.topology().nearest_node(self.grid().center(cell));
                if nearest != index {
                    report.violate(
                        "index-node-nearest",
                        format!("{cell}: elected {index}, nearest is {nearest}"),
                    );
                }
            }
        }

        // (1), (3), (6), (7) stored events.
        for (cell, stored) in self.store().iter() {
            let chain: Vec<_> = {
                let mut c = Vec::new();
                if let Some(index) = self.index_node_of(*cell) {
                    c.push(index);
                }
                c.extend_from_slice(self.delegates_of(*cell));
                c
            };
            for s in stored {
                report.events_checked += 1;
                let legal_cells = candidate_cells(self.layout(), &s.event);
                if !legal_cells.iter().any(|p| p.cell == *cell) {
                    report.violate(
                        "placement-theorem-3-1",
                        format!("{} stored in {cell}, legal: {legal_cells:?}", s.event),
                    );
                }
                if !self.topology().is_alive(s.holder) {
                    report
                        .violate("holder-alive", format!("{} held by dead {}", s.event, s.holder));
                }
                if !chain.contains(&s.holder) {
                    report.violate(
                        "holder-on-chain",
                        format!("{} held by {} outside chain {chain:?}", s.event, s.holder),
                    );
                }
                match s.backup.get() {
                    Some(b) if !self.topology().is_alive(b) => {
                        report.violate("backup-alive", format!("{} backed by dead {b}", s.event));
                    }
                    Some(b) if b == s.holder => report.violate(
                        "backup-not-holder",
                        format!("{} held and backed by {b}", s.event),
                    ),
                    None if self.config().replicate
                        && !copies_lost_in_flight
                        && self
                            .index_node_of(*cell)
                            .and_then(|i| self.backup_target(i))
                            .is_some()
                        && !backup_pending(pending, *cell, &s.event) =>
                    {
                        report.violate(
                            "unbacked-queued",
                            format!("{} in {cell} has no backup and no re-backup task", s.event),
                        );
                    }
                    _ => {}
                }
            }
        }

        // (4) delegation chains.
        for pool in self.layout().pools() {
            for cell in pool.cells() {
                let chain = self.delegates_of(cell);
                for (i, d) in chain.iter().enumerate() {
                    if !self.topology().is_alive(*d) {
                        report.violate("delegate-alive", format!("{cell} delegate {d} dead"));
                    }
                    if chain[i + 1..].contains(d) {
                        report.violate("delegate-unique", format!("{cell} repeats {d}"));
                    }
                }
            }
        }

        // (5) sharing capacity.
        if let Some(policy) = self.config().sharing {
            for node in self.topology().nodes() {
                let load = self.store().count_at(node.id);
                if load > policy.capacity {
                    report.violate(
                        "sharing-capacity",
                        format!("{} holds {load} > capacity {}", node.id, policy.capacity),
                    );
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PoolConfig, SharingPolicy};
    use crate::event::Event;
    use pool_netsim::deployment::Deployment;
    use pool_netsim::node::NodeId;
    use pool_netsim::topology::Topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(seed: u64, config: PoolConfig) -> PoolSystem {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(300, 40.0, 20.0, s).unwrap();
            let topo = Topology::build(dep.nodes(), 40.0).unwrap();
            if topo.is_connected() {
                return PoolSystem::build(topo, dep.field(), config).unwrap();
            }
            s += 1000;
        }
    }

    #[test]
    fn fresh_system_is_healthy() {
        let pool = build(1, PoolConfig::paper());
        let report = pool.audit(&RepairQueue::default());
        assert!(report.is_healthy(), "{:?}", report.violations);
        assert!(report.cells_checked >= 300);
    }

    #[test]
    fn loaded_system_is_healthy() {
        let mut pool = build(2, PoolConfig::paper());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..250 {
            let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            pool.insert_from(NodeId(rng.gen_range(0..300)), e).unwrap();
        }
        let report = pool.audit(&RepairQueue::default());
        assert!(report.is_healthy(), "{:?}", report.violations);
        assert_eq!(report.events_checked, 250);
    }

    #[test]
    fn sharing_system_stays_within_capacity() {
        let mut pool = build(3, PoolConfig::paper().with_sharing(SharingPolicy::new(7)));
        for i in 0..60u32 {
            pool.insert_from(NodeId(i % 300), Event::new(vec![0.91, 0.07, 0.03]).unwrap()).unwrap();
        }
        let report = pool.audit(&RepairQueue::default());
        assert!(report.is_healthy(), "{:?}", report.violations);
    }

    #[test]
    fn audit_stays_healthy_through_failures() {
        let mut pool = build(4, PoolConfig::paper().with_replication());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let e = Event::new(vec![rng.gen(), rng.gen(), rng.gen()]).unwrap();
            pool.insert_from(NodeId(rng.gen_range(0..300)), e).unwrap();
        }
        // Fail a few loaded nodes (keeping connectivity).
        let victims: Vec<NodeId> = (0..300u32)
            .map(NodeId)
            .filter(|&n| pool.store().count_at(n) > 0)
            .filter(|&n| {
                let mut without = pool.topology().clone();
                without.fail_nodes(&[n]);
                without.is_connected()
            })
            .take(3)
            .collect();
        pool.fail_nodes(&victims).unwrap();
        let report = pool.audit(&RepairQueue::default());
        assert!(report.is_healthy(), "{:?}", report.violations);
    }

    #[test]
    fn violation_display_is_informative() {
        let v = AuditViolation { invariant: "holder-alive", detail: "x".into() };
        assert_eq!(v.to_string(), "holder-alive: x");
    }
}
