//! One batch of topology change, applied once, and one budgeted repair
//! drain.
//!
//! Every scheme's churn epoch (a failure burst is the deaths-only epoch)
//! starts with the same step: check the batch names only deployed nodes,
//! write joins, moves and deaths into the topology, fold the mutation
//! overlay, test connectivity, and bring the routing substrate up to date.
//! [`apply_change`] is that step. Because it sees both the compaction and
//! the transport, it is also where the rows an epoch dirtied
//! ([`Topology::compact`]'s return value) reach [`Transport::refresh`], so
//! the substrate re-planarizes `O(churn)` rows instead of all `n`.
//!
//! Every epoch ends the same way too: the repair work the change caused
//! drains FIFO under a message budget. [`RepairQueue::drain`] is that
//! loop; a scheme supplies only how a task is priced and what landing it
//! does ([`Repair`]).

use crate::{Leg, Transport};
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// A batch named a node id that was never deployed. Nothing was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownNode {
    /// The id that is out of range.
    pub node: NodeId,
    /// Number of nodes the deployment would have had after the batch's joins.
    pub nodes: usize,
}

impl fmt::Display for UnknownNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown node {}: the deployment has {} nodes", self.node, self.nodes)
    }
}

impl Error for UnknownNode {}

/// What one applied batch did to the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkChange {
    /// Every node whose neighbor table the batch wrote, ascending — the
    /// rows the transport re-planarized.
    pub dirty: Vec<NodeId>,
    /// The nodes the batch killed: the live members of `deaths`, ascending,
    /// without duplicates.
    pub victims: Vec<NodeId>,
    /// The live nodes the batch relocated, in `moves` order.
    pub displaced: Vec<NodeId>,
    /// Whether the surviving network is split into several components.
    pub partitioned: bool,
}

/// One epoch's worth of scripted churn, referencing the topology it was
/// planned against: `deaths` and `moves` name pre-epoch nodes; `joins` are
/// field positions for new nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// Deployment positions for the nodes joining this epoch.
    pub joins: Vec<Point>,
    /// Nodes dying this epoch (scripted and energy-driven).
    pub deaths: Vec<NodeId>,
    /// Waypoint moves: `(node, destination)`.
    pub moves: Vec<(NodeId, Point)>,
}

impl EpochPlan {
    /// A plan that changes nothing (repair-only epoch: the queue still
    /// drains under the budget).
    pub fn empty() -> Self {
        EpochPlan { joins: Vec::new(), deaths: Vec::new(), moves: Vec::new() }
    }

    /// The failure burst `dead` as a deaths-only plan, or `None` when it
    /// would kill nobody (an empty list, or only deployed nodes already
    /// dead): a double kill must touch neither the network nor the
    /// transport. An id that was never deployed still makes a plan, which
    /// [`apply_change`] refuses as [`UnknownNode`].
    pub fn deaths_only(topology: &Topology, dead: &[NodeId]) -> Option<EpochPlan> {
        let corpse = |d: &NodeId| d.index() < topology.len() && !topology.is_alive(*d);
        (!dead.iter().all(corpse))
            .then(|| EpochPlan { deaths: dead.to_vec(), ..EpochPlan::empty() })
    }
}

/// Applies `plan` to `topology` in place — its joins (dense new ids), then
/// its moves (of live nodes; a dead mover is skipped), then its deaths —
/// compacts it once, and refreshes `transport` over exactly the rows that
/// changed.
///
/// The refresh always happens — an empty batch still bumps the generation,
/// empties the memo and resets adaptive link state, as one rebuild per epoch
/// always did.
///
/// # Errors
///
/// [`UnknownNode`] if a move or a death names an id beyond the deployment
/// and this batch's joiners; it is checked before the first write, so
/// neither the topology nor the transport is touched.
pub fn apply_change(
    topology: &mut Topology,
    transport: &mut dyn Transport,
    plan: &EpochPlan,
) -> Result<NetworkChange, UnknownNode> {
    let nodes = topology.len() + plan.joins.len();
    let mut named = plan.moves.iter().map(|&(id, _)| id).chain(plan.deaths.iter().copied());
    if let Some(node) = named.find(|id| id.index() >= nodes) {
        return Err(UnknownNode { node, nodes });
    }
    for &at in &plan.joins {
        topology.add_node(at);
    }
    let mut displaced = Vec::new();
    for &(id, to) in &plan.moves {
        if topology.is_alive(id) {
            topology.move_node(id, to);
            displaced.push(id);
        }
    }
    let mut victims: Vec<NodeId> =
        plan.deaths.iter().copied().filter(|&d| topology.is_alive(d)).collect();
    victims.sort_unstable();
    victims.dedup();
    topology.fail_nodes(&victims);
    let dirty = topology.compact();
    let partitioned = !topology.is_connected();
    transport.refresh(topology, &dirty);
    Ok(NetworkChange { dirty, victims, displaced, partitioned })
}

/// What a queued repair costs, as its scheme prices it against the current
/// network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Price {
    /// Deliverable along this leg; the budget is charged its loss-free hop
    /// count.
    Route(Leg),
    /// Already where it belongs: lands for nothing, under any positive
    /// budget.
    Home,
    /// No route at all (a partition): dropped, uncharged, as unreachable.
    NoRoute,
}

/// One scheme's side of [`RepairQueue::drain`]: how a queued task is
/// priced, and what landing it does.
pub trait Repair {
    /// The scheme's unit of queued repair work.
    type Task;

    /// Prices `task`, the head of the queue.
    fn price(&mut self, task: &Self::Task) -> Price;

    /// Lands `task`, which the budget admitted, over `leg` (`None` when it
    /// was priced [`Price::Home`]) and returns the radio messages it spent.
    /// Follow-up work goes onto `queue`, behind everything already waiting.
    fn land(
        &mut self,
        task: Self::Task,
        leg: Option<Leg>,
        queue: &mut RepairQueue<Self::Task>,
    ) -> u64;

    /// Records `task` as dropped unreachable: it had no route, or its route
    /// alone exceeds the whole budget.
    fn unreachable(&mut self, task: Self::Task);
}

/// Carry-over queue of repairs deferred by a per-epoch message budget.
///
/// FIFO: the oldest task drains first. Work parked here is not in its
/// scheme's query-visible store until it lands, so a query honestly misses
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairQueue<T> {
    /// The waiting tasks, oldest first. A scheme re-triages them against
    /// each epoch's topology before the drain.
    pub tasks: VecDeque<T>,
}

impl<T> Default for RepairQueue<T> {
    fn default() -> Self {
        RepairQueue { tasks: VecDeque::new() }
    }
}

impl<T> RepairQueue<T> {
    /// Number of tasks still waiting for budget.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task is waiting.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Drains the queue front to back under `budget` radio messages and
    /// returns the messages spent. The rules are the same for every scheme:
    ///
    /// * a budget of 0 pauses repair: nothing is priced, popped or charged;
    /// * a task priced [`Price::NoRoute`] is dropped uncharged as
    ///   unreachable;
    /// * a task whose estimate alone exceeds the budget could never fit any
    ///   epoch, so it is dropped as unreachable instead of blocking the head;
    /// * the drain stops at the first task with `spent + estimate > budget`,
    ///   so nothing behind it jumps the FIFO order;
    /// * a [`Price::Home`] task lands at zero cost under any positive budget.
    ///
    /// The estimate is the leg's loss-free hop count: on a lossy radio the
    /// last admitted task may overshoot by its retransmissions. Work a
    /// landing queues runs in the same drain if the budget allows.
    pub fn drain<R: Repair<Task = T>>(&mut self, budget: u64, scheme: &mut R) -> u64 {
        let mut spent = 0u64;
        if budget == 0 {
            return spent;
        }
        while let Some(head) = self.tasks.front() {
            let leg = match scheme.price(head) {
                Price::Home => None,
                Price::Route(leg) => {
                    let estimate = leg.path().windows(2).filter(|w| w[0] != w[1]).count() as u64;
                    if estimate > budget {
                        scheme.unreachable(self.pop_head());
                        continue;
                    }
                    if spent + estimate > budget {
                        break;
                    }
                    Some(leg)
                }
                Price::NoRoute => {
                    scheme.unreachable(self.pop_head());
                    continue;
                }
            };
            let task = self.pop_head();
            spent += scheme.land(task, leg, self);
        }
        spent
    }

    fn pop_head(&mut self) -> T {
        self.tasks.pop_front().expect("the head was just priced")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CachedTransport, Fault, FaultPlan, FaultyTransport, GpsrTransport, LossyConfig,
        RecoveryConfig, TrafficLayer, TransportKind,
    };
    use pool_gpsr::Planarization;
    use pool_netsim::deployment::Deployment;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const METHODS: [Planarization; 2] =
        [Planarization::Gabriel, Planarization::RelativeNeighborhood];

    const NODES: usize = 500;
    /// The relay the faulty-wrapper test keeps paused.
    const PAUSED: NodeId = NodeId(2);

    fn deployed(seed: u64) -> Topology {
        let deployment = Deployment::paper_setting(NODES, 40.0, 20.0, seed).expect("deployment");
        Topology::build(deployment.nodes(), 40.0).expect("topology")
    }

    /// One epoch's batch against the current `topology`: 2 joins, 3 moves,
    /// 2 deaths, anywhere in the field (dead movers and corpses included —
    /// `apply_change` must skip them).
    fn batch(topology: &Topology, rng: &mut StdRng) -> EpochPlan {
        let side = topology.bounds().max.x;
        let mut at = || Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let joins: Vec<Point> = (0..2).map(|_| at()).collect();
        let moves: Vec<Point> = (0..3).map(|_| at()).collect();
        let mut id = || NodeId(rng.gen_range(0..topology.len() as u32));
        let moves = moves.into_iter().map(|to| (id(), to)).collect();
        let deaths = (0..2).map(|_| id()).collect();
        EpochPlan { joins, deaths, moves }
    }

    /// 200 random endpoint pairs (dead nodes and joiners included) route to
    /// the same `Result` on `refreshed` as on a transport of `kind` built
    /// fresh over `topology`.
    fn assert_routes_like_fresh(
        refreshed: &mut dyn Transport,
        topology: &Topology,
        kind: TransportKind,
        method: Planarization,
        rng: &mut StdRng,
    ) {
        let mut fresh = kind.build(topology, method);
        let n = topology.len() as u32;
        for _ in 0..200 {
            let (from, to) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
            assert_eq!(
                refreshed.route_to_node(topology, from, to),
                fresh.route_to_node(topology, from, to),
                "{kind} {method:?}: {from} -> {to}"
            );
            let target = topology.position(to);
            assert_eq!(
                refreshed.route_to_location(topology, from, target),
                fresh.route_to_location(topology, from, target),
                "{kind} {method:?}: {from} -> {target}"
            );
        }
    }

    /// After every refresh the ledger and clock address every node, joiners
    /// included, and a delivery from the newest one is charged.
    fn assert_joiners_addressable(transport: &mut dyn Transport, topology: &Topology) {
        assert_eq!(transport.ledger().nodes(), topology.len());
        assert_eq!(transport.clock().rx_counts().len(), topology.len());
        let joiner = NodeId(topology.len() as u32 - 1);
        if let Some(&nb) = topology.neighbors(joiner).iter().find(|&&nb| nb != PAUSED) {
            let before = transport.ledger().total_messages();
            assert!(transport.deliver(topology, &[joiner, nb], TrafficLayer::Insert).delivered);
            assert_eq!(transport.ledger().total_messages(), before + 1);
        }
    }

    #[test]
    fn refreshed_substrates_route_like_fresh_ones() {
        for method in METHODS {
            let mut rng = StdRng::seed_from_u64(61);
            let mut topology = deployed(61);
            let mut gpsr = GpsrTransport::new(&topology, method);
            let mut cached = CachedTransport::new(&topology, method);
            for epoch in 1..=4u64 {
                let plan = batch(&topology, &mut rng);
                let mut mirror = topology.clone();
                let change = apply_change(&mut topology, &mut gpsr, &plan).unwrap();
                assert_eq!(apply_change(&mut mirror, &mut cached, &plan).unwrap(), change);
                assert_eq!(topology.patched_rows(), 0);
                assert!(
                    !change.dirty.is_empty() && change.dirty.len() < topology.len() / 2,
                    "some rows are recomputed and most are carried over"
                );
                assert_eq!(gpsr.generation(), epoch);
                assert_eq!(cached.generation(), epoch);
                assert_eq!(cached.cached_routes(), 0, "the memo is emptied every refresh");
                assert_eq!(
                    gpsr.gpsr().planar(),
                    pool_gpsr::Gpsr::new(&topology, method).planar(),
                    "{method:?}: refreshed rows differ from a full build"
                );
                assert_routes_like_fresh(
                    &mut gpsr,
                    &topology,
                    TransportKind::Gpsr,
                    method,
                    &mut rng,
                );
                assert_routes_like_fresh(
                    &mut cached,
                    &topology,
                    TransportKind::Cached,
                    method,
                    &mut rng,
                );
                assert!(cached.cached_routes() > 0, "routes memoize again after the refresh");
                assert_joiners_addressable(&mut gpsr, &topology);
                assert_joiners_addressable(&mut cached, &topology);
            }
        }
    }

    /// The decorator forwards the refresh to its substrate and forgets its
    /// adaptive state, exactly as it does for a rebuild.
    #[test]
    fn faulty_wrapper_forwards_the_refresh_and_resets_adaptive_state() {
        let method = Planarization::Gabriel;
        let mut rng = StdRng::seed_from_u64(62);
        let mut topology = deployed(62);
        // A paused relay gives the decorator a suspicion to forget.
        let plan = FaultPlan::new().with(Fault::Pause { node: PAUSED, from: 0.0, until: 1e9 });
        let mut faulty = FaultyTransport::wrap_adaptive(
            TransportKind::Cached.build(&topology, method),
            LossyConfig::fixed(1.0, 62),
            plan,
            RecoveryConfig::default(),
        );
        let mut planted = 0;
        for epoch in 1..=3u64 {
            if let Some(&nb) = topology.neighbors(PAUSED).first() {
                planted += 1;
                for _ in 0..RecoveryConfig::default().suspect_after {
                    assert!(
                        !faulty.deliver(&topology, &[nb, PAUSED], TrafficLayer::Forward).delivered
                    );
                }
                assert!(faulty.adaptive().expect("adaptive wrapper").is_suspect(PAUSED));
            }
            let plan = batch(&topology, &mut rng);
            apply_change(&mut topology, &mut faulty, &plan).unwrap();
            assert_eq!(faulty.generation(), epoch);
            assert_eq!(faulty.adaptive().expect("adaptive wrapper").suspects().count(), 0);
            assert_routes_like_fresh(
                &mut faulty,
                &topology,
                TransportKind::Cached,
                method,
                &mut rng,
            );
            assert_joiners_addressable(&mut faulty, &topology);
        }
        assert!(planted > 0, "the paused relay was reachable at least once");
    }

    /// `rebuild` is the refresh with every row dirty: it lands on the same
    /// graph from any starting point, including an unrelated topology.
    #[test]
    fn rebuild_is_the_all_dirty_refresh() {
        let method = Planarization::Gabriel;
        let mut rng = StdRng::seed_from_u64(63);
        let (elsewhere, topology) = (deployed(63), deployed(64));
        let mut cached = CachedTransport::new(&elsewhere, method);
        cached.rebuild(&topology);
        assert_eq!(cached.generation(), 1);
        assert_routes_like_fresh(&mut cached, &topology, TransportKind::Cached, method, &mut rng);
    }

    #[test]
    fn unknown_ids_are_refused_before_anything_is_written() {
        let mut topology = deployed(65);
        let mut transport = GpsrTransport::new(&topology, Planarization::Gabriel);
        let joins = vec![Point::new(5.0, 5.0)];
        let moves = vec![(NodeId(0), Point::new(9.0, 9.0)), (NodeId(900), Point::new(1.0, 1.0))];
        let plan = EpochPlan { joins: joins.clone(), deaths: vec![NodeId(999)], moves };
        let err = apply_change(&mut topology, &mut transport, &plan);
        assert_eq!(
            err,
            Err(UnknownNode { node: NodeId(900), nodes: NODES + 1 }),
            "moves come first"
        );
        let plan = EpochPlan { deaths: vec![NodeId(3), NodeId(500)], ..EpochPlan::empty() };
        let err = apply_change(&mut topology, &mut transport, &plan);
        assert_eq!(err, Err(UnknownNode { node: NodeId(500), nodes: NODES }));
        assert_eq!(topology.len(), NODES);
        assert_eq!(topology.alive_count(), NODES);
        assert_eq!(topology.patched_rows(), 0);
        assert_eq!(transport.generation(), 0);
        // A joiner's id is known to the same batch's moves and deaths.
        let plan = EpochPlan { joins, deaths: vec![NodeId(500)], moves: vec![] };
        let change = apply_change(&mut topology, &mut transport, &plan).unwrap();
        assert_eq!(change.victims, vec![NodeId(500)]);
    }

    /// A toy repair: an id, a price, and the follow-up task landing it
    /// queues.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        id: u32,
        cost: Cost,
        follow_up: Option<Box<Toy>>,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Cost {
        Hops(u32),
        Home,
        NoRoute,
    }

    fn toy(id: u32, cost: Cost) -> Toy {
        Toy { id, cost, follow_up: None }
    }

    /// Prices each task by its [`Cost`] (a route of that many hops) and
    /// records what happened to it. A landing spends the hops plus
    /// `overshoot`, like ARQ retransmissions would.
    #[derive(Default)]
    struct Toys {
        priced: usize,
        landed: Vec<(u32, Option<usize>)>,
        unreachable: Vec<u32>,
        overshoot: u64,
    }

    impl Repair for Toys {
        type Task = Toy;

        fn price(&mut self, task: &Toy) -> Price {
            self.priced += 1;
            match task.cost {
                Cost::Hops(hops) => {
                    let path: Vec<NodeId> = (0..=hops).map(NodeId).collect();
                    let route = pool_gpsr::Route {
                        delivered: NodeId(hops),
                        path,
                        greedy_hops: hops as usize,
                        perimeter_hops: 0,
                    };
                    Price::Route(Leg::Route(std::sync::Arc::new(route)))
                }
                Cost::Home => Price::Home,
                Cost::NoRoute => Price::NoRoute,
            }
        }

        fn land(&mut self, task: Toy, leg: Option<Leg>, queue: &mut RepairQueue<Toy>) -> u64 {
            let hops = leg.map(|leg| leg.path().len() - 1);
            self.landed.push((task.id, hops));
            if let Some(next) = task.follow_up {
                queue.tasks.push_back(*next);
            }
            hops.map_or(0, |h| h as u64 + self.overshoot)
        }

        fn unreachable(&mut self, task: Toy) {
            self.unreachable.push(task.id);
        }
    }

    fn queue_of(tasks: Vec<Toy>) -> RepairQueue<Toy> {
        RepairQueue { tasks: tasks.into() }
    }

    fn ids(queue: &RepairQueue<Toy>) -> Vec<u32> {
        queue.tasks.iter().map(|t| t.id).collect()
    }

    #[test]
    fn a_zero_budget_pauses_the_drain() {
        let mut queue = queue_of(vec![toy(1, Cost::Hops(1)), toy(2, Cost::Home)]);
        let mut toys = Toys::default();
        assert_eq!(queue.drain(0, &mut toys), 0);
        assert_eq!(ids(&queue), vec![1, 2], "nothing popped");
        assert_eq!((toys.priced, toys.landed.len(), toys.unreachable.len()), (0, 0, 0));
    }

    #[test]
    fn unreachable_tasks_are_dropped_uncharged_and_the_next_one_runs() {
        let mut queue = queue_of(vec![
            toy(1, Cost::Hops(6)),
            toy(2, Cost::NoRoute),
            toy(3, Cost::Hops(5)),
            toy(4, Cost::Hops(2)),
        ]);
        let mut toys = Toys::default();
        assert_eq!(queue.drain(5, &mut toys), 5, "only the fitting legs are charged");
        assert_eq!(toys.unreachable, vec![1, 2], "over budget alone, then no route");
        assert_eq!(toys.landed, vec![(3, Some(5))]);
        assert_eq!(ids(&queue), vec![4], "4 waits for the next epoch");
        assert!(queue.drain(5, &mut toys) == 2 && queue.is_empty());
    }

    #[test]
    fn the_cutoff_is_strict_and_keeps_fifo_order() {
        let mut queue =
            queue_of(vec![toy(1, Cost::Hops(3)), toy(2, Cost::Hops(4)), toy(3, Cost::Hops(1))]);
        let mut toys = Toys::default();
        assert_eq!(queue.drain(7, &mut toys), 7, "spent + estimate == budget still fits");
        assert_eq!(ids(&queue), vec![3]);
        let mut queue =
            queue_of(vec![toy(1, Cost::Hops(3)), toy(2, Cost::Hops(5)), toy(3, Cost::Hops(1))]);
        let mut toys = Toys::default();
        assert_eq!(queue.drain(7, &mut toys), 3);
        assert_eq!(ids(&queue), vec![2, 3], "3 would fit, but may not pass 2");
        assert_eq!(toys.priced, 2, "the drain stops at the first task over the line");
    }

    #[test]
    fn a_task_already_home_lands_under_any_positive_budget() {
        let mut queue = queue_of(vec![toy(1, Cost::Home)]);
        let mut toys = Toys::default();
        assert_eq!(queue.drain(1, &mut toys), 0);
        assert_eq!(toys.landed, vec![(1, None)]);
        // Even after a landing overshot the budget with retransmissions.
        let mut queue =
            queue_of(vec![toy(1, Cost::Hops(2)), toy(2, Cost::Home), toy(3, Cost::Hops(1))]);
        let mut toys = Toys { overshoot: 3, ..Toys::default() };
        assert_eq!(queue.drain(2, &mut toys), 5);
        assert_eq!(toys.landed, vec![(1, Some(2)), (2, None)]);
        assert_eq!(ids(&queue), vec![3]);
    }

    #[test]
    fn follow_up_work_queues_behind_everything_waiting() {
        let spawner =
            Toy { id: 1, cost: Cost::Hops(1), follow_up: Some(Box::new(toy(3, Cost::Hops(1)))) };
        let mut queue = queue_of(vec![spawner, toy(2, Cost::Hops(1))]);
        let mut toys = Toys::default();
        assert_eq!(queue.drain(2, &mut toys), 2);
        assert_eq!(ids(&queue), vec![3], "the follow-up waits behind 2");
        assert_eq!(queue.drain(u64::MAX, &mut toys), 1);
        let order: Vec<u32> = toys.landed.iter().map(|&(id, _)| id).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
