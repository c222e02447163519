//! Dynamic deployments: continuous churn, mobility, and incremental repair.
//!
//! Real deployments churn *continuously*: nodes join, batteries die
//! mid-experiment, and mobile nodes relocate. This module advances a
//! deployment through virtual-time **epochs** — each epoch applies a batch
//! of joins, deaths, and waypoint moves, then repairs the index
//! *incrementally* under a bounded per-epoch message budget. Repairs that
//! do not fit the budget are carried over in a [`RepairQueue`] and drained
//! in later epochs; until then the affected events are simply not
//! query-visible, so mid-churn queries stay honest
//! ([`crate::forward::Completeness`] never over-claims). A failure burst
//! ([`PoolSystem::fail_nodes`]) is the deaths-only epoch with no budget.
//!
//! The pieces:
//!
//! * [`ChurnConfig`] — rates (joins/deaths/moves per epoch), mobility
//!   distance, the repair budget, and an optional [`EnergyBudget`] that
//!   makes deaths *energy-driven*: batteries drain from the actual per-node
//!   sends (the message ledger) and receptions (the virtual clock), and a
//!   node fails when its battery hits zero.
//! * [`ChurnPlanner`] — deterministic (seeded) generator of per-epoch
//!   [`EpochPlan`]s against the current topology. It is system-agnostic so
//!   benchmark drivers can replay the *same* plan stream against Pool, DIM,
//!   and GHT.
//! * [`PoolSystem::apply_epoch`] — applies one plan to a live Pool system:
//!   one transport refresh for the whole batch, zero-message index
//!   re-election, store triage (retain / migrate / recover / lose), and a
//!   budgeted FIFO drain of the repair queue.
//! * [`ChurnScenario`] — the orchestrator tying planner, energy ledger,
//!   and carry-over queue together across epochs.

use crate::event::Event;
use crate::failure::FailureReport;
use crate::grid::CellCoord;
use crate::monitor::MonitorId;
use crate::storage::StoredEvent;
use crate::system::PoolSystem;
use crate::PoolError;
use pool_netsim::energy::{EnergyLedger, EnergyModel};
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::metrics::LedgerSnapshot;
use pool_transport::trace::TraceOp;
use pool_transport::{Leg, Price, Repair, TrafficLayer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One epoch's worth of scripted churn. It lives beside
/// [`pool_transport::apply_change`], which applies it for every scheme;
/// this path stays because the benchmark package imports it from here.
pub use pool_transport::EpochPlan;

/// Battery provisioning for energy-driven deaths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBudget {
    /// Initial battery capacity per node, in joules. Joiners start with a
    /// full battery.
    pub capacity: f64,
    /// Radio energy model draining the batteries from send and receive
    /// counts.
    pub model: EnergyModel,
}

impl EnergyBudget {
    /// A battery of `capacity` joules drained by the default radio model.
    pub fn joules(capacity: f64) -> Self {
        EnergyBudget { capacity, model: EnergyModel::default() }
    }
}

/// Parameters of a churn scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Number of epochs a full [`ChurnScenario::run`] advances.
    pub epochs: usize,
    /// New nodes deployed (at uniform random field positions) per epoch.
    pub joins_per_epoch: usize,
    /// Scripted node deaths per epoch (energy deaths come on top).
    pub deaths_per_epoch: usize,
    /// Waypoint moves per epoch.
    pub moves_per_epoch: usize,
    /// Maximum per-axis waypoint displacement, in meters. Destinations are
    /// clamped to the deployment field.
    pub move_distance: f64,
    /// Per-epoch repair message budget. Repairs that do not fit are
    /// deferred to later epochs via the [`RepairQueue`].
    pub repair_budget: u64,
    /// When set, batteries drain from real send and receive counts and
    /// depleted nodes die at the next epoch boundary.
    pub energy: Option<EnergyBudget>,
    /// Seed for the deterministic churn plan stream.
    pub seed: u64,
}

impl ChurnConfig {
    /// A gentle default scenario: 8 epochs of light churn with a
    /// 200-message repair budget and no energy model.
    pub fn new(seed: u64) -> Self {
        ChurnConfig {
            epochs: 8,
            joins_per_epoch: 2,
            deaths_per_epoch: 2,
            moves_per_epoch: 2,
            move_distance: 60.0,
            repair_budget: 200,
            energy: None,
            seed,
        }
    }

    /// Sets the per-epoch join/death/move counts.
    pub fn with_rates(mut self, joins: usize, deaths: usize, moves: usize) -> Self {
        self.joins_per_epoch = joins;
        self.deaths_per_epoch = deaths;
        self.moves_per_epoch = moves;
        self
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the per-epoch repair message budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.repair_budget = budget;
        self
    }

    /// Enables energy-driven deaths.
    pub fn with_energy(mut self, energy: EnergyBudget) -> Self {
        self.energy = Some(energy);
        self
    }
}

/// Deterministic generator of [`EpochPlan`]s.
///
/// The planner is system-agnostic: it only looks at a [`Topology`] and the
/// deployment field, so benchmark drivers can generate one plan stream and
/// replay it against Pool, DIM, and GHT for an apples-to-apples churn
/// comparison.
#[derive(Debug, Clone)]
pub struct ChurnPlanner {
    config: ChurnConfig,
    rng: StdRng,
}

impl ChurnPlanner {
    /// Creates a planner seeded from `config.seed`.
    pub fn new(config: ChurnConfig) -> Self {
        ChurnPlanner { config, rng: StdRng::seed_from_u64(config.seed ^ 0xC4A2_11E5) }
    }

    /// Plans the next epoch against the current `topology`. Victims and
    /// movers are distinct live nodes; at least one node is always left
    /// alive (a deployment with zero nodes cannot host an index).
    pub fn plan(&mut self, topology: &Topology, field: Rect) -> EpochPlan {
        let mut joins = Vec::with_capacity(self.config.joins_per_epoch);
        for _ in 0..self.config.joins_per_epoch {
            joins.push(Point::new(
                self.rng.gen_range(field.min.x..=field.max.x),
                self.rng.gen_range(field.min.y..=field.max.y),
            ));
        }
        // Sample deaths and moves from the live population without
        // replacement, so a node never moves and dies in the same epoch.
        let mut candidates: Vec<NodeId> =
            topology.nodes().iter().map(|n| n.id).filter(|&n| topology.is_alive(n)).collect();
        let mut deaths = Vec::with_capacity(self.config.deaths_per_epoch);
        for _ in 0..self.config.deaths_per_epoch {
            // Joiners do not offset deaths (they are not yet deployed when
            // the reaper comes): keep at least one pre-epoch survivor.
            if candidates.len() <= 1 {
                break;
            }
            let i = self.rng.gen_range(0..candidates.len());
            deaths.push(candidates.swap_remove(i));
        }
        let mut moves = Vec::with_capacity(self.config.moves_per_epoch);
        for _ in 0..self.config.moves_per_epoch {
            if candidates.is_empty() {
                break;
            }
            let i = self.rng.gen_range(0..candidates.len());
            let id = candidates.swap_remove(i);
            let at = topology.position(id);
            let d = self.config.move_distance;
            let dest =
                Point::new(at.x + self.rng.gen_range(-d..=d), at.y + self.rng.gen_range(-d..=d));
            moves.push((id, field.clamp(dest)));
        }
        EpochPlan { joins, deaths, moves }
    }
}

/// What a queued repair does when it finally runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskKind {
    /// Move the primary copy from a surviving (deposed) holder to the
    /// cell's current index node.
    Migrate,
    /// Copy the payload from a surviving backup holder to the cell's
    /// current index node.
    Recover,
    /// Re-create the backup copy of an event whose primary sits at
    /// `source`.
    Backup,
}

/// One queued Pool repair: a handoff, a recovery, or a re-backup of one
/// event.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairTask {
    cell: CellCoord,
    event: Event,
    /// Where the payload physically sits right now.
    source: NodeId,
    kind: TaskKind,
    /// The live node holding the event's backup copy, which stays its
    /// backup wherever the primary ends up (`None` for [`TaskKind::Backup`]:
    /// the task exists because there is none).
    backup: Option<NodeId>,
}

/// Pool's carry-over queue of repairs deferred by the per-epoch message
/// budget. Events parked here are *not* in the query-visible store — a
/// query over their cell honestly misses them until the handoff lands.
/// [`RepairQueue::len`] counts re-backup tasks too.
pub type RepairQueue = pool_transport::RepairQueue<RepairTask>;

impl PoolSystem {
    /// Applies one epoch of churn and repairs incrementally under `budget`.
    ///
    /// The epoch proceeds in phases:
    ///
    /// 1. **Mutate the radio network**: joins (dense new ids), waypoint
    ///    moves, then deaths — one [`pool_transport::apply_change`] for the
    ///    whole batch, whose [`pool_transport::Transport::refresh`]
    ///    re-planarizes only the rows the batch dirtied (generation bump,
    ///    memo invalidation, ledger and clock growth).
    /// 2. **Re-elect** the index node of every pool cell from the new live
    ///    population (§2's nearest-to-center rule; a purely local,
    ///    zero-message election).
    /// 3. **Triage the store**: events whose holder survives as the cell's
    ///    index stay put; everything else becomes queue work — handoffs
    ///    from deposed holders, recoveries from backups, re-backups of
    ///    retained events whose backup died. Events with neither a live
    ///    holder nor a live backup are lost. Carried-over tasks from
    ///    earlier epochs are refreshed against the new topology first (a
    ///    queued source that died is replaced by a surviving backup, or
    ///    the event is lost). A cell the epoch did not touch — every
    ///    event still on the cell's index node, its backup on a live node —
    ///    is counted and left where it lies, so the triage costs what
    ///    changed, not what is stored.
    /// 4. **Drain the queue** ([`pool_transport::RepairQueue::drain`], the
    ///    rules DIM and GHT share) until the next task would exceed
    ///    `budget` radio messages; the remainder waits for the next epoch
    ///    ([`FailureReport::deferred_repairs`]). On a loss-free radio the
    ///    bound is strict; with ARQ the last task may overshoot by its
    ///    retransmissions (the budget check uses the loss-free route
    ///    length). A budget of 0 pauses repair entirely, and a repair
    ///    whose route alone exceeds the budget is abandoned as
    ///    unreachable (it could never fit any epoch).
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownNode`] if the plan names a node that was never
    /// deployed (nothing is applied); [`PoolError::Routing`] only for
    /// pathological routing failures.
    pub fn apply_epoch(
        &mut self,
        plan: &EpochPlan,
        queue: &mut RepairQueue,
        budget: u64,
    ) -> Result<FailureReport, PoolError> {
        let ledger_before = LedgerSnapshot::of(self.transport.ledger());
        let mut report = FailureReport { epochs: 1, ..FailureReport::default() };

        // Phase 1: joins, then moves, then deaths, written into the
        // topology in place (`O(degree)` overlay patches per event, one
        // compaction) once the plan is validated; the transport refreshes
        // over the rows the epoch dirtied.
        let change = pool_transport::apply_change(
            Arc::make_mut(&mut self.topology),
            self.transport.as_mut(),
            plan,
        )?;
        report.failed_nodes = change.victims.len();
        report.partitioned = change.partitioned;

        // Phase 2: re-elect every cell's index node locally. Queries must
        // never find a pool cell without a live index node mid-churn.
        report.cells_reassigned = self.elect_index_nodes();
        if report.partitioned {
            self.tally_partition(&mut report);
        }

        // Phase 3: triage.
        self.delegates.clear();

        // 3a. Refresh the carried-over queue against the new topology.
        let carried = std::mem::take(&mut queue.tasks);
        for mut task in carried {
            let alive = self.topology.is_alive(task.source);
            if !alive && task.kind == TaskKind::Backup {
                // The primary this Backup task was going to copy died; the
                // store walk below re-triages that event.
                continue;
            }
            // A sound task keeps the event's surviving backup attached; a
            // Migrate/Recover whose payload source died while waiting falls
            // back to that backup, or the event is lost.
            task.backup = task.backup.filter(|&b| self.topology.is_alive(b));
            if !alive {
                let Some(copy_at) = task.backup else {
                    report.events_lost += 1;
                    continue;
                };
                task.source = copy_at;
                task.kind = TaskKind::Recover;
            }
            queue.tasks.push_back(task);
        }

        // 3b. Walk the store: retain, hand off, recover, or lose. Cells
        // are visited in coordinate order — the walk feeds the FIFO repair
        // queue, and the budget cutoff must not depend on HashMap
        // iteration order (the determinism contract covers churn). An
        // untouched cell would come out of the per-event walk exactly as it
        // went in, so it stays where it is; any other cell is taken out of
        // the store and each event moves to where it goes next (only a
        // re-backup task takes a copy of its own).
        for cell in self.store.occupied_cells() {
            let index_node = self.index_node_of(cell).expect("pool cells keep index nodes");
            let stored = self.store.events_in(cell);
            if self.cell_untouched(stored, index_node) {
                report.events_retained += stored.len();
                continue;
            }
            for StoredEvent { event, holder, backup } in self.store.take_cell(cell) {
                // A surviving backup stays the event's backup wherever the
                // primary ends up (in place, handed off, or recovered).
                let backup = backup.get().filter(|&b| self.topology.is_alive(b));
                if !self.topology.is_alive(holder) {
                    // Holder died: recover from the surviving backup, if any.
                    match backup {
                        Some(source) => queue.tasks.push_back(RepairTask {
                            cell,
                            event,
                            source,
                            kind: TaskKind::Recover,
                            backup,
                        }),
                        None => report.events_lost += 1,
                    }
                } else if holder == index_node {
                    report.events_retained += 1;
                    // A Backup task for this event may already sit in the
                    // carried-over queue (budget starvation); re-discovering
                    // it here must not duplicate the repair, or starved
                    // queues grow without bound.
                    if backup.is_none()
                        && self.config.replicate
                        && !backup_pending(queue, cell, &event)
                    {
                        queue.tasks.push_back(RepairTask {
                            cell,
                            event: event.clone(),
                            source: index_node,
                            kind: TaskKind::Backup,
                            backup: None,
                        });
                    }
                    self.store
                        .insert_stored(cell, StoredEvent { event, holder, backup: backup.into() });
                } else {
                    // Deposed holder: the event leaves the query-visible
                    // store until its handoff lands.
                    queue.tasks.push_back(RepairTask {
                        cell,
                        event,
                        source: holder,
                        kind: TaskKind::Migrate,
                        backup,
                    });
                }
            }
        }

        // Phase 4: budgeted FIFO drain.
        let spent = queue.drain(budget, &mut Drain { pool: self, report: &mut report });
        report.repair_messages += spent;

        // Dead sinks can never receive another notification.
        let monitors = self.monitors.iter();
        let orphaned: Vec<MonitorId> =
            monitors.filter(|m| !self.topology.is_alive(m.sink)).map(|m| m.id).collect();
        for id in orphaned {
            self.monitors.remove(id);
        }
        report.deferred_repairs = queue.len() as u64;
        ledger_before.debug_assert_sum(
            self.transport.ledger(),
            "apply_epoch",
            report.repair_messages,
            &[TrafficLayer::Repair, TrafficLayer::Replication, TrafficLayer::Retransmit],
        );
        if cfg!(debug_assertions) {
            // Triage drops every delegation chain and repair lands each
            // event at its cell's index node, so the sharing capacity is
            // the one invariant an epoch does not keep.
            let audit = self.audit(queue);
            let broken: Vec<_> =
                audit.violations.iter().filter(|v| v.invariant != "sharing-capacity").collect();
            assert!(broken.is_empty(), "apply_epoch: {broken:?}");
        }
        Ok(report)
    }
}

/// Whether `queue` holds a re-backup task for `event` in `cell`.
pub(crate) fn backup_pending(queue: &RepairQueue, cell: CellCoord, event: &Event) -> bool {
    queue.tasks.iter().any(|t| t.kind == TaskKind::Backup && t.cell == cell && t.event == *event)
}

/// Pool's side of the shared repair drain: a handoff or recovery is priced
/// by its route to the cell's index node, a re-backup by the one hop to the
/// neighbour that will hold the copy.
struct Drain<'a> {
    pool: &'a mut PoolSystem,
    report: &'a mut FailureReport,
}

impl Repair for Drain<'_> {
    type Task = RepairTask;

    fn price(&mut self, task: &RepairTask) -> Price {
        let pool = &mut *self.pool;
        if task.kind == TaskKind::Backup {
            return pool
                .backup_target(task.source)
                .map_or(Price::NoRoute, |to| Price::Route(Leg::Hop([task.source, to])));
        }
        let index_node = pool.index_node_of(task.cell).expect("pool cells keep index nodes");
        match pool.transport.route_to_node(&pool.topology, task.source, index_node) {
            Ok(route) => Price::Route(Leg::Route(route)),
            Err(_) => Price::NoRoute,
        }
    }

    fn land(&mut self, task: RepairTask, leg: Option<Leg>, queue: &mut RepairQueue) -> u64 {
        let path = leg.as_ref().expect("pool repairs are priced by a leg").path();
        let pool = &mut *self.pool;
        if task.kind == TaskKind::Backup {
            let (sent, copy_at) = pool.replicate_to(path[0], path[1]);
            if let Some(copy_at) = copy_at {
                pool.record_backup(&task, copy_at, queue);
            }
            return sent;
        }
        let outcome = pool.deliver_traced(TraceOp::Repair, path, TrafficLayer::Repair);
        if !outcome.delivered {
            // ARQ exhausted mid-route: the repair is spent and the event
            // dropped.
            self.report.events_unreachable += 1;
            return outcome.transmissions;
        }
        if task.kind == TaskKind::Migrate {
            self.report.events_migrated += 1;
        } else {
            self.report.events_recovered += 1;
        }
        let index_node = *path.last().expect("a leg ends at the cell's index node");
        // The re-elected index node may be the very neighbour that held the
        // backup: one node holding both copies is no replica, so the event
        // is re-backed like one that lost its backup.
        let backup = task.backup.filter(|&b| b != index_node);
        if pool.config.replicate && backup.is_none() {
            queue.tasks.push_back(RepairTask {
                cell: task.cell,
                event: task.event.clone(),
                source: index_node,
                kind: TaskKind::Backup,
                backup: None,
            });
        }
        let stored = StoredEvent { event: task.event, holder: index_node, backup: backup.into() };
        pool.store.insert_stored(task.cell, stored);
        outcome.transmissions
    }

    fn unreachable(&mut self, task: RepairTask) {
        // A re-backup with nowhere to go leaves its event stored and
        // visible; only a handoff or recovery strands one.
        if task.kind != TaskKind::Backup {
            self.report.events_unreachable += 1;
        }
    }
}

/// A deterministic multi-epoch churn run over one Pool deployment.
///
/// Owns the plan stream, the carry-over [`RepairQueue`], and (when
/// configured) the battery ledger. Each [`ChurnScenario::advance`] call is
/// one epoch; interleave insertions and queries between calls to model a
/// live workload under churn.
#[derive(Debug)]
pub struct ChurnScenario {
    config: ChurnConfig,
    planner: ChurnPlanner,
    queue: RepairQueue,
    energy: Option<EnergyLedger>,
    prev_tx: Vec<u64>,
    prev_rx: Vec<u64>,
    epochs_run: usize,
}

impl ChurnScenario {
    /// Creates a scenario from `config`. Batteries (if any) are
    /// provisioned lazily at the first epoch, sized to the network.
    pub fn new(config: ChurnConfig) -> Self {
        ChurnScenario {
            planner: ChurnPlanner::new(config),
            config,
            queue: RepairQueue::default(),
            energy: None,
            prev_tx: Vec::new(),
            prev_rx: Vec::new(),
            epochs_run: 0,
        }
    }

    /// Advances `pool` by one epoch: drains batteries from the message
    /// ledger's per-node sends and the virtual clock's receptions
    /// (energy-driven deaths join the scripted ones), applies the next
    /// plan, and repairs under the budget.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolSystem::apply_epoch`] errors (a planner-produced
    /// plan never names unknown nodes, so in practice only pathological
    /// routing failures).
    pub fn advance(&mut self, pool: &mut PoolSystem) -> Result<FailureReport, PoolError> {
        let mut plan = self.planner.plan(pool.topology(), pool.field());
        let mut energy_deaths = 0usize;
        if let Some(budget) = self.config.energy {
            let ledger = self
                .energy
                .get_or_insert_with(|| EnergyLedger::new(0, budget.capacity, budget.model));
            let tx = pool.ledger().node_loads();
            let rx = pool.transport().clock().rx_counts();
            let n = tx.len();
            ledger.grow_to(n);
            self.prev_tx.resize(n, 0);
            self.prev_rx.resize(n, 0);
            // Both counts are cumulative; charge this epoch's delta only.
            let dtx: Vec<u64> = tx.iter().zip(&self.prev_tx).map(|(c, p)| c - p).collect();
            let drx: Vec<u64> = rx.iter().zip(&self.prev_rx).map(|(c, p)| c - p).collect();
            self.prev_tx = tx;
            self.prev_rx = rx.to_vec();
            ledger.charge_counts(&dtx, &drx);
            let mut live_left = pool.topology().alive_count() - plan.deaths.len();
            // O(1) duplicate lookup: `plan.deaths.contains()` inside this
            // loop was O(scripted-deaths × depleted) per epoch, which
            // dominates once deployments (and so depleted sets) are large.
            let mut dying = vec![false; pool.topology().len()];
            for d in &plan.deaths {
                dying[d.index()] = true;
            }
            for id in ledger.depleted_nodes() {
                // Leave at least one live node standing, as the planner
                // does for scripted deaths.
                if live_left <= 1 {
                    break;
                }
                if pool.topology().is_alive(id) && !dying[id.index()] {
                    dying[id.index()] = true;
                    plan.deaths.push(id);
                    energy_deaths += 1;
                    live_left -= 1;
                }
            }
        }
        let mut report = pool.apply_epoch(&plan, &mut self.queue, self.config.repair_budget)?;
        report.energy_deaths = energy_deaths;
        self.epochs_run += 1;
        Ok(report)
    }

    /// Runs all configured epochs against `pool`, returning the merged
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ChurnScenario::advance`] error.
    pub fn run(&mut self, pool: &mut PoolSystem) -> Result<FailureReport, PoolError> {
        let mut merged = FailureReport::default();
        for _ in 0..self.config.epochs {
            merged = merged.merge(&self.advance(pool)?);
        }
        Ok(merged)
    }

    /// Repairs still deferred by the budget.
    pub fn pending_repairs(&self) -> usize {
        self.queue.len()
    }

    /// Epochs advanced so far.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// The battery ledger, once provisioned (None without an energy model
    /// or before the first epoch).
    pub fn energy(&self) -> Option<&EnergyLedger> {
        self.energy.as_ref()
    }

    /// The scenario's configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }
}

impl PoolSystem {
    /// Whether the epoch left a cell alone: every event `stored` in it is
    /// held by the cell's (re-elected, live) `index_node` and its backup —
    /// present exactly when replication is on — sits on a live node. The
    /// per-event walk of [`PoolSystem::apply_epoch`] would retain each such
    /// event with the same holder and backup, in the same order, and queue
    /// nothing, so the cell may stay in the store as it is.
    fn cell_untouched(&self, stored: &[StoredEvent], index_node: NodeId) -> bool {
        #[cfg(test)]
        if self.walk_every_cell {
            return false;
        }
        stored.iter().all(|s| {
            s.holder == index_node
                && match s.backup.get() {
                    Some(copy_at) => self.topology.is_alive(copy_at),
                    None => !self.config.replicate,
                }
        })
    }

    /// Records that the copy a drained [`TaskKind::Backup`] `task` sent
    /// now sits at `copy_at`: on the stored event it backs, or — when that
    /// event was deposed after the task was queued and is itself waiting
    /// in `queue` — on its pending handoff.
    fn record_backup(&mut self, task: &RepairTask, copy_at: NodeId, queue: &mut RepairQueue) {
        let mut stored = self.store.backups_in_mut(task.cell);
        if let Some((_, slot)) =
            stored.find(|(event, slot)| slot.get().is_none() && **event == task.event)
        {
            *slot = Some(copy_at).into();
        } else if let Some(waiting) = queue.tasks.iter_mut().find(|t| {
            t.kind != TaskKind::Backup
                && t.cell == task.cell
                && t.backup.is_none()
                && t.event == task.event
        }) {
            waiting.backup = Some(copy_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use crate::query::RangeQuery;
    use crate::system::testkit::{build_system, ev};
    use pool_transport::TrafficLayer;
    use std::collections::HashMap;

    fn all_query() -> RangeQuery {
        RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap()
    }

    fn load(pool: &mut PoolSystem, count: usize, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = pool.topology().len() as u32;
        for _ in 0..count {
            let e = ev(&[rng.gen(), rng.gen(), rng.gen()]);
            let mut src = NodeId(rng.gen_range(0..n));
            while !pool.topology().is_alive(src) {
                src = NodeId(rng.gen_range(0..n));
            }
            pool.insert_from(src, e).unwrap();
        }
    }

    fn live_sink(pool: &PoolSystem) -> NodeId {
        let members = pool.topology().largest_component_members();
        members[0]
    }

    #[test]
    fn planner_is_deterministic_and_respects_rates() {
        let pool = build_system(300, 31, PoolConfig::paper());
        let config = ChurnConfig::new(9).with_rates(3, 2, 4);
        let mut a = ChurnPlanner::new(config);
        let mut b = ChurnPlanner::new(config);
        let pa = a.plan(pool.topology(), pool.field());
        let pb = b.plan(pool.topology(), pool.field());
        assert_eq!(pa, pb, "same seed, same plan");
        assert_eq!(pa.joins.len(), 3);
        assert_eq!(pa.deaths.len(), 2);
        assert_eq!(pa.moves.len(), 4);
        // Victims and movers are distinct.
        for (id, _) in &pa.moves {
            assert!(!pa.deaths.contains(id));
        }
        for &p in &pa.joins {
            assert!(pool.field().contains(p));
        }
        // A different seed gives a different plan.
        let mut c = ChurnPlanner::new(ChurnConfig::new(10).with_rates(3, 2, 4));
        assert_ne!(pa, c.plan(pool.topology(), pool.field()));
    }

    #[test]
    fn joins_grow_the_deployment_and_are_immediately_usable() {
        let mut pool = build_system(300, 32, PoolConfig::paper());
        load(&mut pool, 40, 1);
        let before = pool.topology().len();
        let plan = EpochPlan {
            joins: vec![pool.field().center(), Point::new(30.0, 30.0)],
            deaths: vec![],
            moves: vec![],
        };
        let mut queue = RepairQueue::default();
        let report = pool.apply_epoch(&plan, &mut queue, u64::MAX).unwrap();
        assert_eq!(pool.topology().len(), before + 2);
        assert_eq!(report.failed_nodes, 0);
        assert_eq!(report.events_lost, 0);
        assert_eq!(report.epochs, 1);
        // The joiners can insert and query right away.
        let joiner = NodeId(before as u32);
        pool.insert_from(joiner, ev(&[0.5, 0.5, 0.5])).unwrap();
        let got = pool.query_from(joiner, &all_query()).unwrap();
        assert_eq!(got.events.len(), pool.store().len());
        assert!(got.completeness.is_complete());
    }

    #[test]
    fn unknown_nodes_in_a_plan_are_typed_errors_and_nothing_applies() {
        let mut pool = build_system(300, 33, PoolConfig::paper());
        load(&mut pool, 20, 2);
        let stored = pool.store().len();
        let alive = pool.topology().alive_count();
        let mut queue = RepairQueue::default();
        let plan = EpochPlan { joins: vec![], deaths: vec![NodeId(999)], moves: vec![] };
        let err = pool.apply_epoch(&plan, &mut queue, u64::MAX).unwrap_err();
        assert!(matches!(err, PoolError::UnknownNode { node: NodeId(999), nodes: 300 }));
        let plan = EpochPlan {
            joins: vec![],
            deaths: vec![],
            moves: vec![(NodeId(700), Point::new(1.0, 1.0))],
        };
        let err = pool.apply_epoch(&plan, &mut queue, u64::MAX).unwrap_err();
        assert!(matches!(err, PoolError::UnknownNode { node: NodeId(700), .. }));
        assert_eq!(pool.store().len(), stored);
        assert_eq!(pool.topology().alive_count(), alive);
        assert!(queue.is_empty());
    }

    /// Acceptance pin: the per-epoch Repair-layer traffic never exceeds
    /// the configured budget on a loss-free radio, and deferred work
    /// carries over until it eventually drains.
    #[test]
    fn repair_traffic_per_epoch_is_bounded_by_the_budget() {
        let mut pool = build_system(300, 34, PoolConfig::paper().with_replication());
        load(&mut pool, 200, 3);
        let budget = 25u64;
        let config = ChurnConfig::new(5).with_rates(2, 10, 8).with_epochs(12).with_budget(budget);
        let mut scenario = ChurnScenario::new(config);
        let mut deferred_seen = false;
        for _ in 0..config.epochs {
            let repair_before = pool.ledger().layer_total(TrafficLayer::Repair)
                + pool.ledger().layer_total(TrafficLayer::Replication);
            let report = scenario.advance(&mut pool).unwrap();
            let repair_after = pool.ledger().layer_total(TrafficLayer::Repair)
                + pool.ledger().layer_total(TrafficLayer::Replication);
            assert!(
                repair_after - repair_before <= budget,
                "epoch spent {} > budget {budget}",
                repair_after - repair_before,
            );
            assert_eq!(report.repair_messages, repair_after - repair_before);
            deferred_seen |= report.deferred_repairs > 0;
            // Mid-churn queries never panic and stay honest.
            let got = pool.query_from(live_sink(&pool), &all_query()).unwrap();
            assert!(got.events.len() <= pool.store().len());
        }
        assert!(deferred_seen, "a 25-message budget must defer some repairs");
        // Repair-only epochs eventually drain the queue.
        let calm = ChurnConfig::new(5).with_rates(0, 0, 0).with_budget(budget);
        let mut queue_drainer = ChurnScenario::new(calm);
        queue_drainer.queue = scenario.queue.clone();
        for _ in 0..200 {
            if queue_drainer.pending_repairs() == 0 {
                break;
            }
            queue_drainer.advance(&mut pool).unwrap();
        }
        assert_eq!(queue_drainer.pending_repairs(), 0, "the queue must drain when churn stops");
    }

    /// Deferred handoffs leave the store (queries honestly miss them) and
    /// reappear once the budget lets them land.
    #[test]
    fn deferred_events_are_invisible_until_their_handoff_lands() {
        let mut pool = build_system(300, 35, PoolConfig::paper());
        load(&mut pool, 80, 4);
        let before = pool.store().len();
        // A tiny budget defers essentially all handoffs.
        let config = ChurnConfig::new(77).with_rates(0, 6, 4).with_budget(0);
        let mut scenario = ChurnScenario::new(config);
        let report = scenario.advance(&mut pool).unwrap();
        let visible = pool.store().len();
        assert_eq!(
            visible + scenario.pending_repairs() + report.events_lost + report.events_unreachable,
            before,
            "every event is visible, queued, unreachable, or lost: {report:?}"
        );
        let got = pool.query_from(live_sink(&pool), &all_query()).unwrap();
        assert_eq!(got.events.len(), visible, "queries see exactly the visible store");
        if scenario.pending_repairs() > 0 {
            // Now lift the budget: the queue drains and the events return.
            let calm = ChurnConfig::new(78).with_rates(0, 0, 0).with_budget(u64::MAX);
            let mut drainer = ChurnScenario::new(calm);
            drainer.queue = scenario.queue.clone();
            let report = drainer.advance(&mut pool).unwrap();
            assert_eq!(drainer.pending_repairs(), 0);
            assert!(report.events_migrated + report.events_recovered > 0);
            let got = pool.query_from(live_sink(&pool), &all_query()).unwrap();
            assert_eq!(got.events.len(), pool.store().len());
        }
    }

    #[test]
    fn moves_relocate_nodes_and_keep_the_system_queryable() {
        let mut pool = build_system(300, 36, PoolConfig::paper().with_replication());
        load(&mut pool, 60, 5);
        let config = ChurnConfig::new(21).with_rates(0, 0, 8).with_budget(u64::MAX);
        let mut scenario = ChurnScenario::new(config);
        for _ in 0..4 {
            let report = scenario.advance(&mut pool).unwrap();
            assert_eq!(report.failed_nodes, 0, "moves kill nobody");
            assert_eq!(report.events_lost, 0, "moves lose nothing: {report:?}");
            let got = pool.query_from(live_sink(&pool), &all_query()).unwrap();
            assert_eq!(got.events.len(), pool.store().len());
        }
        assert_eq!(pool.topology().len(), 300, "moves neither add nor remove nodes");
    }

    #[test]
    fn energy_model_kills_busy_nodes_and_reports_them() {
        let mut pool = build_system(300, 37, PoolConfig::paper());
        load(&mut pool, 150, 6);
        // A battery so small that the workload already drained it.
        let config = ChurnConfig::new(50)
            .with_rates(0, 0, 0)
            .with_budget(u64::MAX)
            .with_energy(EnergyBudget::joules(0.002));
        let mut scenario = ChurnScenario::new(config);
        let report = scenario.advance(&mut pool).unwrap();
        assert!(report.energy_deaths > 0, "busy relays must drain: {report:?}");
        assert_eq!(report.failed_nodes, report.energy_deaths, "only energy kills here");
        let ledger = scenario.energy().expect("provisioned at first advance");
        for id in ledger.depleted_nodes() {
            if pool.topology().len() > id.index() {
                // Every depleted pre-epoch node is now dead (modulo the
                // last-survivor guard, which cannot trigger at 300 nodes).
                assert!(!pool.topology().is_alive(id), "{id} drained but lives");
            }
        }
        // Subsequent epochs only charge the delta: an idle network causes
        // no further deaths.
        let report = scenario.advance(&mut pool).unwrap();
        assert_eq!(report.energy_deaths, 0, "no traffic, no new drain: {report:?}");
    }

    /// High-churn energy soak pinning the merged report. Captured from the
    /// seed implementation (the `plan.deaths.contains()` linear scan); the
    /// bitmap lookup that replaced it must reproduce every number exactly.
    /// Re-pinned once since, when a handoff or recovery landing on the
    /// event's own backup holder started re-backing the event: 222 → 220
    /// lost, 105 → 111 migrated, 206 → 210 recovered.
    #[test]
    fn energy_soak_results_are_pinned_across_death_lookup_rewrite() {
        let mut pool = build_system(300, 39, PoolConfig::paper().with_replication());
        load(&mut pool, 300, 8);
        let config = ChurnConfig::new(91)
            .with_rates(3, 6, 5)
            .with_epochs(10)
            .with_budget(500)
            .with_energy(EnergyBudget::joules(0.004));
        let mut scenario = ChurnScenario::new(config);
        let report = scenario.run(&mut pool).unwrap();
        assert!(report.energy_deaths > 0, "the soak must exercise the depleted-node loop");
        assert_eq!(
            (report.epochs, report.failed_nodes, report.energy_deaths),
            (10, 104, 44),
            "full report: {report:?}"
        );
        assert_eq!(
            (report.events_lost, report.events_migrated, report.events_recovered),
            (220, 111, 210),
            "full report: {report:?}"
        );
        assert_eq!(pool.store().len(), 78);
        for (cell, stored) in pool.store().iter() {
            assert!(stored.iter().all(|s| s.backup.get() != Some(s.holder)), "{cell}: {stored:?}");
        }
    }

    /// A backup copy as the store walk knew it before the holder moved
    /// onto [`StoredEvent::backup`]: an `(event, holder)` pair in a per-cell
    /// list, claimed by `Event` equality.
    type Copies = HashMap<CellCoord, Vec<(Event, NodeId)>>;

    fn take_copy(
        copies: &mut Copies,
        cell: CellCoord,
        event: &Event,
        topology: &Topology,
    ) -> Option<NodeId> {
        let list = copies.get_mut(&cell)?;
        let at = list.iter().position(|(e, holder)| e == event && topology.is_alive(*holder))?;
        Some(list.swap_remove(at).1)
    }

    fn sorted_copies(copies: Copies) -> Vec<(CellCoord, Vec<(Event, NodeId)>)> {
        let mut cells: Vec<_> = copies.into_iter().filter(|(_, list)| !list.is_empty()).collect();
        cells.sort_unstable_by_key(|&(cell, _)| cell);
        for (_, list) in &mut cells {
            list.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        }
        cells
    }

    /// Everything phase 3 decides, in the shape both the system and the
    /// reference walk can be read into.
    #[derive(Debug, PartialEq)]
    struct Triage {
        store: Vec<(CellCoord, Vec<(Event, NodeId)>)>,
        copies: Vec<(CellCoord, Vec<(Event, NodeId)>)>,
        queue: Vec<(CellCoord, Event, NodeId, TaskKind)>,
    }

    /// The system's stored events, live backup copies (stored and queued)
    /// and queue, as a [`Triage`] plus the raw copy lists.
    fn triage_of(pool: &PoolSystem, queue: &RepairQueue) -> (Triage, Copies) {
        let mut copies = Copies::new();
        let mut store = Vec::new();
        for cell in pool.store.occupied_cells() {
            let stored = pool.store.events_in(cell);
            store.push((cell, stored.iter().map(|s| (s.event.clone(), s.holder)).collect()));
            for s in stored {
                if let Some(at) = s.backup.get() {
                    copies.entry(cell).or_default().push((s.event.clone(), at));
                }
            }
        }
        for t in &queue.tasks {
            if let Some(at) = t.backup {
                copies.entry(t.cell).or_default().push((t.event.clone(), at));
            }
        }
        let tasks = queue.tasks.iter().map(|t| (t.cell, t.event.clone(), t.source, t.kind));
        let triage =
            Triage { store, copies: sorted_copies(copies.clone()), queue: tasks.collect() };
        (triage, copies)
    }

    /// The store walk as it stood before the untouched-cell shortcut and
    /// before backups rode on their events: every event of every cell
    /// claims its copy by equality from per-cell lists. Runs on the state
    /// `before` an epoch against the topology and index nodes `after` it,
    /// and returns what phase 3 must leave (events retained, events lost,
    /// store, surviving copies as multisets, queue in order).
    fn reference_walk(before: (Triage, Copies), after: &PoolSystem) -> (usize, usize, Triage) {
        let (Triage { store: old_store, queue: carried, .. }, mut old_copies) = before;
        let topology = after.topology();
        let (mut retained, mut lost) = (0usize, 0usize);
        let mut kept = Copies::new();
        let mut queue: Vec<(CellCoord, Event, NodeId, TaskKind)> = Vec::new();
        for (cell, event, mut source, mut kind) in carried {
            let alive = topology.is_alive(source);
            if !alive && kind == TaskKind::Backup {
                continue;
            }
            let copy_at = take_copy(&mut old_copies, cell, &event, topology);
            if !alive {
                let Some(at) = copy_at else {
                    lost += 1;
                    continue;
                };
                source = at;
                kind = TaskKind::Recover;
            }
            if let Some(at) = copy_at {
                kept.entry(cell).or_default().push((event.clone(), at));
            }
            queue.push((cell, event, source, kind));
        }
        let mut store = Vec::new();
        for (cell, stored) in old_store {
            let index_node = after.index_node_of(cell).unwrap();
            let mut staying = Vec::new();
            for (event, holder) in stored {
                let copy_at = take_copy(&mut old_copies, cell, &event, topology);
                if let Some(at) = copy_at {
                    kept.entry(cell).or_default().push((event.clone(), at));
                }
                if !topology.is_alive(holder) {
                    match copy_at {
                        Some(at) => queue.push((cell, event, at, TaskKind::Recover)),
                        None => lost += 1,
                    }
                } else if holder == index_node {
                    retained += 1;
                    if copy_at.is_none()
                        && after.config().replicate
                        && !queue
                            .iter()
                            .any(|t| t.3 == TaskKind::Backup && t.0 == cell && t.1 == event)
                    {
                        queue.push((cell, event.clone(), index_node, TaskKind::Backup));
                    }
                    staying.push((event, holder));
                } else {
                    queue.push((cell, event, holder, TaskKind::Migrate));
                }
            }
            if !staying.is_empty() {
                store.push((cell, staying));
            }
        }
        (retained, lost, Triage { store, copies: sorted_copies(kept), queue })
    }

    /// Oracle for the untouched-cell shortcut. Two identical systems — one
    /// walking every cell event by event — go through the same random
    /// history: inserts between epochs, budgets of 0 / starved / ample so
    /// Backup tasks carry over, an epoch with an empty plan, and a stripe
    /// of deaths that partitions the field. After every epoch they must
    /// agree on the report, the queue in order, every cell of the store in
    /// order (holders and backups included), per-node loads, and the ledger
    /// layer by layer. On the budget-0 epochs, where nothing drains and
    /// the state after the epoch is the state after triage, both must
    /// also match [`reference_walk`].
    #[test]
    fn untouched_cells_stay_put_exactly_as_the_full_walk_leaves_them() {
        use crate::config::SharingPolicy;
        use pool_transport::LossyConfig;
        let configs = [
            PoolConfig::paper(),
            PoolConfig::paper().with_replication(),
            PoolConfig::paper().with_replication().with_sharing(SharingPolicy::new(4)),
            PoolConfig::paper().with_replication().with_lossy(LossyConfig::fixed(0.85, 3)),
        ];
        let budgets = [0, 12, u64::MAX, 0, 40, 0];
        let mut seen = FailureReport::default();
        for (history, config) in configs.into_iter().enumerate() {
            let seed = 60 + history as u64;
            let mut fast = build_system(300, seed, config.clone());
            let mut full = build_system(300, seed, config);
            full.walk_every_cell = true;
            load(&mut fast, 150, seed);
            load(&mut full, 150, seed);
            let (mut fast_queue, mut full_queue) = (RepairQueue::default(), RepairQueue::default());
            let mut planner = ChurnPlanner::new(ChurnConfig::new(seed).with_rates(2, 5, 5));
            let mut rng = StdRng::seed_from_u64(seed);
            for epoch in 0..12 {
                let live = fast.topology().largest_component_members();
                for _ in 0..25 {
                    let source = live[rng.gen_range(0..live.len())];
                    let event = ev(&[rng.gen(), rng.gen(), rng.gen()]);
                    let a = fast.insert_from(source, event.clone()).map(|r| r.holder).ok();
                    let b = full.insert_from(source, event).map(|r| r.holder).ok();
                    assert_eq!(a, b, "history {history} epoch {epoch}: insert");
                }
                let plan = match epoch {
                    4 => EpochPlan::empty(),
                    7 => {
                        let mid_x = fast.field().center().x;
                        let stripe = fast.topology().nodes().iter().filter(|n| {
                            fast.topology().is_alive(n.id) && (n.position.x - mid_x).abs() < 45.0
                        });
                        EpochPlan { deaths: stripe.map(|n| n.id).collect(), ..EpochPlan::empty() }
                    }
                    _ => planner.plan(fast.topology(), fast.field()),
                };
                let budget = budgets[epoch % budgets.len()];
                let before = triage_of(&fast, &fast_queue);
                let report = fast.apply_epoch(&plan, &mut fast_queue, budget).unwrap();
                let when = format!("history {history} epoch {epoch} budget {budget}");
                assert_eq!(
                    report,
                    full.apply_epoch(&plan, &mut full_queue, budget).unwrap(),
                    "{when}"
                );
                assert_eq!(fast_queue, full_queue, "{when}: queue");
                let cells = fast.store.occupied_cells();
                assert_eq!(cells, full.store.occupied_cells(), "{when}: occupied cells");
                for &cell in &cells {
                    assert_eq!(
                        fast.store.events_in(cell),
                        full.store.events_in(cell),
                        "{when}: {cell}"
                    );
                }
                assert_eq!(fast.store.len(), full.store.len(), "{when}");
                for node in fast.topology().nodes() {
                    assert_eq!(
                        fast.store.count_at(node.id),
                        full.store.count_at(node.id),
                        "{when}: load of {}",
                        node.id
                    );
                }
                assert_eq!(fast.ledger().by_layer(), full.ledger().by_layer(), "{when}: ledger");
                assert!(report.partitioned || epoch != 7, "{when}: the stripe must partition");
                if budget == 0 {
                    let (retained, lost, want) = reference_walk(before, &fast);
                    assert_eq!((report.events_retained, report.events_lost), (retained, lost));
                    assert_eq!(triage_of(&fast, &fast_queue).0, want, "{when}: reference walk");
                }
                seen = seen.merge(&report);
            }
        }
        // The histories must have exercised every branch of the walk.
        assert!(seen.events_retained > 0 && seen.events_lost > 0, "{seen:?}");
        assert!(seen.events_migrated > 0 && seen.events_recovered > 0, "{seen:?}");
        assert!(seen.deferred_repairs > 0 && seen.events_unreachable > 0, "{seen:?}");
    }

    #[test]
    fn scenario_run_merges_epochs_and_preserves_replication_safety() {
        let mut pool = build_system(300, 38, PoolConfig::paper().with_replication());
        load(&mut pool, 100, 7);
        let config = ChurnConfig::new(13).with_rates(2, 2, 2).with_epochs(6).with_budget(u64::MAX);
        let mut scenario = ChurnScenario::new(config);
        let report = scenario.run(&mut pool).unwrap();
        assert_eq!(report.epochs, 6);
        assert!(report.failed_nodes > 0);
        // With an unbounded budget nothing stays deferred at the end of an
        // epoch, and replication keeps losses at zero absent partitions.
        assert_eq!(scenario.pending_repairs(), 0);
        if !report.partitioned {
            assert_eq!(report.events_lost, 0, "replication must prevent loss: {report:?}");
        }
        let got = pool.query_from(live_sink(&pool), &all_query()).unwrap();
        assert_eq!(got.events.len(), pool.store().len());
        // Every event is held twice, on two different nodes.
        for (cell, stored) in pool.store().iter() {
            for s in stored {
                let backup = s.backup.get();
                assert!(backup.is_some_and(|b| b != s.holder), "{cell}: {s:?}");
            }
        }
    }
}
