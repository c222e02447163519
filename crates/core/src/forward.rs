//! Query forwarding over the splitter tree (§3.2.3).
//!
//! The sink sends one packet per relevant pool to that pool's *splitter*
//! (the pool's index node closest to the sink); each splitter fans the
//! packet out to the relevant cells and their delegation chains; replies
//! retrace the same paths, aggregated at the splitter. One walk owns that
//! tree, and every Pool fan-out travels it: one-shot and pool-restricted
//! queries, aggregates, multi-query batches ([`crate::batch`]), and
//! standing-query installation and removal, which stop at each cell's
//! index node and expect no reply.
//!
//! Every leg is routed and charged through the system's
//! [`pool_transport::Transport`] under [`Substrate::op_retry`]:
//! forwarding under [`TrafficLayer::Forward`], replies under
//! [`TrafficLayer::Reply`], and monitor control traffic under
//! [`TrafficLayer::Monitor`]. A leg that has no route or exhausts its retry
//! budget marks the cells behind it unreached instead of failing the
//! operation.
//!
//! [`Substrate::op_retry`]: pool_transport::Substrate::op_retry

use crate::error::PoolError;
use crate::event::Event;
use crate::grid::CellCoord;
use crate::monitor::MonitorId;
use crate::query::RangeQuery;
use crate::resolve::relevant_cells;
use crate::system::PoolSystem;
use pool_netsim::node::NodeId;
use pool_transport::metrics::LedgerSnapshot;
use pool_transport::trace::TraceOp;
use pool_transport::{retry, DeliveryOutcome, Leg, OpRetryPolicy, ReverseDelivery, TrafficLayer};

/// Message-count and virtual-time breakdown for one query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryCost {
    /// Messages spent forwarding the query (sink → splitters → cells →
    /// delegates).
    pub forward_messages: u64,
    /// Messages spent returning qualifying events.
    pub reply_messages: u64,
    /// ARQ retransmissions spent on this query's legs (0 on a loss-free
    /// radio).
    pub retransmit_messages: u64,
    /// Virtual time spent on forward legs, summed over legs, in seconds.
    /// A serial (per-leg) breakdown — overlapping legs each contribute
    /// their full duration, so this can exceed [`QueryCost::elapsed`].
    pub forward_latency: f64,
    /// Virtual time spent on reply legs, summed over legs, in seconds.
    pub reply_latency: f64,
    /// End-to-end virtual time of the operation, in seconds: the critical
    /// path through the leg tree. Pools are queried concurrently and each
    /// splitter fans out to its cells concurrently, so parallel branches
    /// overlap instead of summing.
    pub elapsed: f64,
}

impl QueryCost {
    /// Total messages — the paper's per-query cost metric.
    pub fn total(&self) -> u64 {
        self.forward_messages + self.reply_messages + self.retransmit_messages
    }

    /// Charges one forward leg, delivered or not: its first transmissions
    /// as forward messages, its retransmissions apart, its latency to the
    /// forward sum.
    pub fn add_forward(&mut self, leg: &DeliveryOutcome) {
        self.forward_messages += leg.transmissions - leg.retransmissions;
        self.retransmit_messages += leg.retransmissions;
        self.forward_latency += leg.latency;
    }

    /// Charges one reply leg, like [`QueryCost::add_forward`] does a
    /// forward leg.
    pub fn add_reply(&mut self, leg: &ReverseDelivery) {
        self.reply_messages += leg.transmissions - leg.retransmissions;
        self.retransmit_messages += leg.retransmissions;
        self.reply_latency += leg.latency;
    }
}

/// How much of a query's relevant-cell set actually answered — the
/// partial-result report for lossy radios (§3.2.3 degraded mode).
///
/// A cell counts as *reached* only when the query got to it **and** its
/// full reply got back: every event the result claims from a reached cell
/// is guaranteed present. Cells whose forward leg or reply leg died are
/// listed in [`Completeness::unreached_cells`] so the sink knows exactly
/// which slices of the answer are missing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Completeness {
    /// Relevant cells the resolver named (Theorem 3.2's output size).
    pub cells_relevant: usize,
    /// Cells that both received the query and returned their full reply.
    pub cells_reached: usize,
    /// The `(pool_dim, cell)` pairs that did not fully answer, in
    /// resolution order.
    pub unreached_cells: Vec<(usize, CellCoord)>,
}

impl Completeness {
    /// The report for the `relevant` cells, given which of them answered
    /// (`reached`, parallel to `relevant`).
    pub(crate) fn of(relevant: &[(usize, CellCoord)], reached: &[bool]) -> Self {
        let unreached_cells: Vec<(usize, CellCoord)> =
            relevant.iter().zip(reached).filter(|&(_, &ok)| !ok).map(|(&key, _)| key).collect();
        Completeness {
            cells_relevant: relevant.len(),
            cells_reached: relevant.len() - unreached_cells.len(),
            unreached_cells,
        }
    }

    /// Fraction of relevant cells that fully answered (1.0 when no cells
    /// were relevant — an empty answer is complete).
    pub fn ratio(&self) -> f64 {
        if self.cells_relevant == 0 {
            1.0
        } else {
            self.cells_reached as f64 / self.cells_relevant as f64
        }
    }

    /// Whether every relevant cell fully answered.
    pub fn is_complete(&self) -> bool {
        self.unreached_cells.is_empty()
    }
}

/// The outcome of an aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateResult {
    /// The aggregate value, or `None` for a value aggregate over an empty
    /// result set (COUNT of nothing is `Some(0.0)`).
    pub value: Option<f64>,
    /// Message cost breakdown.
    pub cost: QueryCost,
    /// Which relevant cells contributed. An aggregate computed over a
    /// partial harsh-radio answer is *not* authoritative — callers must
    /// check [`Completeness::is_complete`] before trusting the value.
    pub completeness: Completeness,
}

/// Receipt for a continuous-monitor installation.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorInstall {
    /// Handle for removal and notification matching.
    pub id: MonitorId,
    /// Dissemination cost of the installation.
    pub cost: QueryCost,
    /// Which relevant cells the installation actually reached — only those
    /// are watching, so a sink seeing an incomplete install knows its
    /// coverage is narrowed.
    pub completeness: Completeness,
}

/// The outcome of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// All qualifying events, in pool/cell resolution order.
    pub events: Vec<Event>,
    /// Message cost breakdown.
    pub cost: QueryCost,
    /// Number of relevant cells visited (Theorem 3.2's output size).
    pub relevant_cells: usize,
    /// Number of pools that had at least one relevant cell.
    pub pools_visited: usize,
    /// Which relevant cells fully answered (always complete on a loss-free
    /// radio).
    pub completeness: Completeness,
}

/// Aggregate operations computable at splitters (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Number of qualifying events.
    Count,
    /// Sum of one attribute over qualifying events.
    Sum(usize),
    /// Mean of one attribute.
    Avg(usize),
    /// Minimum of one attribute.
    Min(usize),
    /// Maximum of one attribute.
    Max(usize),
}

impl AggregateOp {
    /// Applies the operation to a set of qualifying events. Returns `None`
    /// for value aggregates over an empty set (COUNT of nothing is 0).
    ///
    /// Min/Max use [`f64::total_cmp`], so they are well-defined even if an
    /// attribute value is NaN (NaN orders above every number, hence a NaN
    /// never wins Min and always wins Max).
    pub fn apply(&self, events: &[Event]) -> Option<f64> {
        match *self {
            AggregateOp::Count => Some(events.len() as f64),
            AggregateOp::Sum(d) => {
                (!events.is_empty()).then(|| events.iter().map(|e| e.value(d)).sum())
            }
            AggregateOp::Avg(d) => (!events.is_empty())
                .then(|| events.iter().map(|e| e.value(d)).sum::<f64>() / events.len() as f64),
            AggregateOp::Min(d) => events.iter().map(|e| e.value(d)).min_by(|a, b| a.total_cmp(b)),
            AggregateOp::Max(d) => events.iter().map(|e| e.value(d)).max_by(|a, b| a.total_cmp(b)),
        }
    }
}

/// What a walk of the splitter tree carries to the cells.
pub(crate) enum Payload<F> {
    /// Monitor installation or removal: travels under
    /// [`TrafficLayer::Monitor`], stops at each cell's index node and
    /// expects no reply. A cell is reached when the packet arrives.
    Control,
    /// A scan: each cell, its delegation chain included, replies with the
    /// stored events the predicate keeps.
    Scan(F),
}

/// The predicate type of a [`Payload::Control`] walk, which scans nothing.
type NoScan = fn(&Event) -> bool;

/// What a walk of the splitter tree brought back.
pub(crate) struct Walked {
    /// The kept events of every reached cell, in pool/cell walk order.
    pub(crate) events: Vec<Event>,
    /// The walk's messages and virtual time.
    pub(crate) cost: QueryCost,
    /// Per cell of the walk, parallel to its `relevant`: whether the cell
    /// got the packet and, for a scan, its full reply reached the sink.
    pub(crate) reached: Vec<bool>,
    /// Pools with at least one cell in the walk.
    pub(crate) pools_visited: usize,
}

/// How many of `events` events survive a reply leg that delivered
/// `delivered` of its packets: one aggregated packet carries all of them or
/// none; unaggregated packets, one per event, die independently and the
/// first `delivered` survive.
fn surviving(events: usize, delivered: u64, aggregate: bool) -> usize {
    if aggregate {
        events * delivered as usize
    } else {
        delivered as usize
    }
}

/// The reply packets `events` events take: one aggregated packet, or one
/// per event.
fn packets(events: usize, aggregate: bool) -> u64 {
    if aggregate {
        1
    } else {
        events as u64
    }
}

impl PoolSystem {
    /// The splitter of pool `dim` for a query issued at `sink`: the pool's
    /// index node closest to the sink (§3.2.3).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a pool of this deployment.
    pub fn splitter_of(&self, dim: usize, sink: NodeId) -> NodeId {
        let sink_pos = self.topology.position(sink);
        // The pool's `(index node, position)` row, kept current by
        // `elect_index_nodes`: one contiguous scan, no per-cell lookups.
        self.pool_index[dim]
            .iter()
            .min_by(|(a, pa), (b, pb)| {
                // total_cmp: a NaN distance (a sink at an undeployable
                // position) must order deterministically, not panic.
                pa.distance_sq(sink_pos).total_cmp(&pb.distance_sq(sink_pos)).then(a.cmp(b))
            })
            .expect("pools have at least one cell")
            .0
    }

    /// Processes a query issued at `sink` (§3.2): resolve → forward via
    /// splitters → collect matching events → return replies.
    ///
    /// On a lossy radio the query degrades instead of failing: every leg
    /// travels through [`pool_transport::Transport::deliver`], and a leg
    /// that exhausts its ARQ budget (or has no route, e.g. across a
    /// partition) marks the affected cells unreached in the result's
    /// [`QueryResult::completeness`] rather than aborting. Events claimed
    /// from reached cells are guaranteed complete.
    ///
    /// # Errors
    ///
    /// [`PoolError::DimensionMismatch`] for wrong arity and
    /// [`PoolError::Routing`] on pathological (non-delivery) routing
    /// failures.
    pub fn query_from(
        &mut self,
        sink: NodeId,
        query: &RangeQuery,
    ) -> Result<QueryResult, PoolError> {
        self.query_restricted(sink, query, None)
    }

    /// Processes a query restricted to the given pool dimensions.
    ///
    /// Pools are independent branches of the §3.2.3 forwarding tree — the
    /// sink launches one packet per relevant pool and no state crosses
    /// branches — so a full query decomposes exactly into per-pool
    /// restricted queries: message counts, per-leg latencies, and ledger
    /// charges all add up, and the full query's `elapsed` is the max over
    /// the restricted ones. This is the decomposition the sharded service
    /// layer runs on: each shard owns a pool subset and answers only its
    /// slice. The returned [`QueryResult::completeness`] counts only cells
    /// of the restricted pools.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoolSystem::query_from`].
    pub fn query_pools_from(
        &mut self,
        sink: NodeId,
        query: &RangeQuery,
        pools: &[usize],
    ) -> Result<QueryResult, PoolError> {
        self.query_restricted(sink, query, Some(pools))
    }

    fn query_restricted(
        &mut self,
        sink: NodeId,
        query: &RangeQuery,
        pools: Option<&[usize]>,
    ) -> Result<QueryResult, PoolError> {
        let relevant = self.relevant_to(query, pools)?;
        let scan = Payload::Scan(|e: &Event| query.matches(e));
        let walked = self.walk(TraceOp::Query, sink, &relevant, scan, false)?;
        Ok(QueryResult {
            events: walked.events,
            cost: walked.cost,
            relevant_cells: relevant.len(),
            pools_visited: walked.pools_visited,
            completeness: Completeness::of(&relevant, &walked.reached),
        })
    }

    /// Runs an aggregate query (§3.2.3): same forwarding as
    /// [`PoolSystem::query_from`], but only the aggregate value travels
    /// back. Returns the aggregate (if defined), the cost, and the
    /// completeness of the contributing cell set — an aggregate over a
    /// partial answer used to report itself exactly like an authoritative
    /// one; now the caller can tell.
    ///
    /// # Errors
    ///
    /// Same as [`PoolSystem::query_from`].
    pub fn aggregate_from(
        &mut self,
        sink: NodeId,
        query: &RangeQuery,
        op: AggregateOp,
    ) -> Result<AggregateResult, PoolError> {
        let relevant = self.relevant_to(query, None)?;
        // Aggregates always travel as single messages, regardless of the
        // reply-aggregation ablation flag.
        let scan = Payload::Scan(|e: &Event| query.matches(e));
        let walked = self.walk(TraceOp::Query, sink, &relevant, scan, true)?;
        Ok(AggregateResult {
            value: op.apply(&walked.events),
            cost: walked.cost,
            completeness: Completeness::of(&relevant, &walked.reached),
        })
    }

    /// Installs a continuous monitoring query (§6): `sink` will be notified
    /// of every future insertion matching `query`. Installation is
    /// forwarded like a one-shot query (sink → splitters → relevant
    /// cells); the returned receipt carries the dissemination cost and the
    /// installed-cell completeness — on a lossy radio only the reached
    /// cells watch, and the sink deserves to know its coverage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoolSystem::query_from`].
    pub fn install_monitor(
        &mut self,
        sink: NodeId,
        query: RangeQuery,
    ) -> Result<MonitorInstall, PoolError> {
        self.install_monitor_restricted(sink, query, None)
    }

    /// Installs a continuous monitor restricted to the given pool
    /// dimensions — the dissemination tree touches only the restricted
    /// pools' cells, and only those cells watch. Like
    /// [`PoolSystem::query_pools_from`], this is the exact per-pool
    /// decomposition of [`PoolSystem::install_monitor`]: the sharded
    /// service installs each monitor slice on the shard that owns the
    /// pool, and the union of slices watches exactly the full monitor's
    /// cell set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PoolSystem::query_from`].
    pub fn install_monitor_pools(
        &mut self,
        sink: NodeId,
        query: RangeQuery,
        pools: &[usize],
    ) -> Result<MonitorInstall, PoolError> {
        self.install_monitor_restricted(sink, query, Some(pools))
    }

    fn install_monitor_restricted(
        &mut self,
        sink: NodeId,
        query: RangeQuery,
        pools: Option<&[usize]>,
    ) -> Result<MonitorInstall, PoolError> {
        let relevant = self.relevant_to(&query, pools)?;
        let walked =
            self.walk(TraceOp::Monitor, sink, &relevant, Payload::<NoScan>::Control, false)?;
        // Only cells the installation actually reached will notify; on a
        // loss-free radio that is every relevant cell.
        let cells: Vec<CellCoord> = relevant
            .iter()
            .zip(&walked.reached)
            .filter(|&(_, &ok)| ok)
            .map(|(&(_, c), _)| c)
            .collect();
        let id = self.monitors.install(sink, query, &cells);
        let completeness = Completeness::of(&relevant, &walked.reached);
        Ok(MonitorInstall { id, cost: walked.cost, completeness })
    }

    /// Removes a continuous monitoring query, forwarding the removal to the
    /// cells that were watching (same tree as installation).
    ///
    /// Returns the removal's dissemination cost, or `None` if the handle
    /// was not installed.
    ///
    /// # Errors
    ///
    /// Routing failures while disseminating the removal.
    pub fn remove_monitor(&mut self, id: MonitorId) -> Result<Option<QueryCost>, PoolError> {
        let Some(sink) = self.monitors.get(id).map(|m| m.sink) else {
            return Ok(None);
        };
        let mut watching: Vec<(usize, CellCoord)> = self
            .monitors
            .cells_of(id)
            .into_iter()
            .filter_map(|c| self.layout.pool_of_cell(c).map(|p| (p.dim, c)))
            .collect();
        // The walk takes its cells grouped in ascending pool order.
        watching.sort_by_key(|&(dim, _)| dim);
        // Removal is best-effort on a lossy radio: the handle is dropped
        // locally regardless of which cells the removal packet reached (a
        // straggler cell would notify a sink that ignores the handle).
        let walked =
            self.walk(TraceOp::Monitor, sink, &watching, Payload::<NoScan>::Control, false)?;
        self.monitors.remove(id);
        Ok(Some(walked.cost))
    }

    /// The cells `query` must visit (Theorem 3.2), grouped by pool in
    /// ascending pool order, restricted to `pools` when given.
    ///
    /// # Errors
    ///
    /// [`PoolError::DimensionMismatch`] for wrong arity.
    pub(crate) fn relevant_to(
        &self,
        query: &RangeQuery,
        pools: Option<&[usize]>,
    ) -> Result<Vec<(usize, CellCoord)>, PoolError> {
        if query.dims() != self.config.dims {
            return Err(PoolError::DimensionMismatch {
                expected: self.config.dims,
                got: query.dims(),
            });
        }
        let mut relevant = relevant_cells(&self.layout, query);
        if let Some(pools) = pools {
            relevant.retain(|(dim, _)| pools.contains(dim));
        }
        Ok(relevant)
    }

    /// Walks the §3.2.3 splitter tree from `sink` to every cell of
    /// `relevant`, which must be grouped by pool in ascending pool order,
    /// and brings back what `payload` asks for.
    ///
    /// Virtual time: the sink launches one packet per pool at `op_start`,
    /// so pools overlap; each splitter fans out to its cells concurrently
    /// from `t_split` and answers the sink once its slowest cell branch is
    /// done (`pool_end`). The walk ends at the latest pool branch
    /// (`op_end`), so its `elapsed` is the critical path, not the leg sum.
    ///
    /// A scan's replies retrace its forward legs: delegated matches first
    /// travel the chain back to the index node, then cell → splitter, then
    /// one reply per pool splitter → sink. With `aggregate` (or
    /// [`crate::config::PoolConfig::aggregate_replies`]) each reply leg
    /// carries one aggregated packet, otherwise one packet per event.
    ///
    /// # Errors
    ///
    /// [`PoolError::Routing`] on pathological (non-delivery) routing
    /// failures.
    pub(crate) fn walk<F: Fn(&Event) -> bool>(
        &mut self,
        op: TraceOp,
        sink: NodeId,
        relevant: &[(usize, CellCoord)],
        payload: Payload<F>,
        aggregate: bool,
    ) -> Result<Walked, PoolError> {
        debug_assert!(relevant.windows(2).all(|w| w[0].0 <= w[1].0), "cells grouped by pool");
        let ledger_before = LedgerSnapshot::of(self.transport.ledger());
        let (layer, scan) = match &payload {
            Payload::Control => (TrafficLayer::Monitor, None),
            Payload::Scan(keep) => (TrafficLayer::Forward, Some(keep)),
        };
        let aggregate = aggregate || self.config.aggregate_replies;
        let mut cost = QueryCost::default();
        let mut events = Vec::new();
        let mut pools_visited = 0usize;
        // Delivery status per relevant cell: a cell can be demoted late,
        // when its reply dies on the splitter → sink leg.
        let mut reached = vec![false; relevant.len()];
        let mut next_pool = 0usize;

        let op_start = self.transport.clock().now();
        let mut op_end = op_start;
        for cells in relevant.chunk_by(|a, b| a.0 == b.0) {
            let reached = &mut reached[next_pool..next_pool + cells.len()];
            next_pool += cells.len();
            op_end = op_end.max(self.transport.clock().now());
            self.transport.clock_mut().seek(op_start);
            pools_visited += 1;
            let splitter = self.splitter_of(cells[0].0, sink);
            self.splitters_used.insert(splitter);
            let Some(to_splitter) = self.send(op, sink, splitter, layer, &mut cost)? else {
                // The splitter is unreachable: the whole pool goes
                // unanswered.
                continue;
            };

            let t_split = self.transport.clock().now();
            let mut pool_end = t_split;
            // Replies buffered at the splitter, per contributing cell, so a
            // lost splitter → sink leg can demote exactly its contributors.
            let mut pool_buffer: Vec<(usize, Vec<Event>)> = Vec::new();
            for (slot, &(_, cell)) in cells.iter().enumerate() {
                pool_end = pool_end.max(self.transport.clock().now());
                self.transport.clock_mut().seek(t_split);
                let index_node = self.index_nodes[&cell];
                let Some(to_cell) = self.send(op, splitter, index_node, layer, &mut cost)? else {
                    continue;
                };
                let Some(keep) = scan else {
                    reached[slot] = true;
                    continue;
                };

                // The scan also visits the cell's delegation chain, one hop
                // per link, since delegated events live off the index node.
                let chain: Vec<NodeId> = match self.delegates_of(cell) {
                    [] => Vec::new(),
                    delegates => {
                        std::iter::once(index_node).chain(delegates.iter().copied()).collect()
                    }
                };
                if !chain.is_empty() {
                    // Same-path retry: the chain *is* the route, so it never
                    // detours.
                    let policy = self.config.substrate.op_retry.map(OpRetryPolicy::on_fixed_path);
                    let (w, _) = self.deliver_leg(op, &chain, TrafficLayer::Forward, policy);
                    cost.add_forward(&w);
                    if !w.delivered {
                        // Delegated events live past the stall point; the
                        // cell's answer would be silently partial, so the
                        // whole cell is reported unreached.
                        continue;
                    }
                }

                let mut matches: Vec<Event> = self
                    .store
                    .events_in(cell)
                    .iter()
                    .filter(|s| keep(&s.event))
                    .map(|s| s.event.clone())
                    .collect();
                if matches.is_empty() {
                    reached[slot] = true;
                    continue;
                }
                // Reply: delegated matches first travel the chain back to
                // the index node (tail → … → index node), then everything
                // retraces cell → splitter.
                let mut cell_ok = true;
                if !chain.is_empty() {
                    let copies = packets(matches.len(), aggregate);
                    let delivered = self.retrace(op, &chain, copies, &mut cost);
                    if delivered < copies {
                        // A dead chain-reply leg strands delegated events
                        // past the stall: the cell's answer is partial.
                        cell_ok = false;
                        matches.truncate(surviving(matches.len(), delivered, aggregate));
                        if matches.is_empty() {
                            continue;
                        }
                    }
                }
                let copies = packets(matches.len(), aggregate);
                let delivered = self.retrace(op, to_cell.path(), copies, &mut cost);
                reached[slot] = cell_ok && delivered == copies;
                matches.truncate(surviving(matches.len(), delivered, aggregate));
                if !matches.is_empty() {
                    pool_buffer.push((slot, matches));
                }
            }

            // The splitter can only aggregate once its slowest cell branch
            // has answered (or given up): the splitter → sink reply launches
            // at the pool's critical-path end.
            pool_end = pool_end.max(self.transport.clock().now());
            self.transport.clock_mut().seek(pool_end);

            let pool_matches: usize = pool_buffer.iter().map(|(_, e)| e.len()).sum();
            if pool_matches > 0 {
                let copies = packets(pool_matches, aggregate);
                let delivered = self.retrace(op, to_splitter.path(), copies, &mut cost);
                // Events survive in buffer order; every cell that lost some
                // of its events loses its claim.
                let mut budget = surviving(pool_matches, delivered, aggregate);
                for (slot, mut cell_events) in pool_buffer {
                    let take = cell_events.len().min(budget);
                    budget -= take;
                    if take < cell_events.len() {
                        reached[slot] = false;
                    }
                    cell_events.truncate(take);
                    events.append(&mut cell_events);
                }
            }
        }

        // Close the bracket: the walk is done when the slowest pool branch
        // finishes.
        op_end = op_end.max(self.transport.clock().now());
        self.transport.clock_mut().seek(op_end);
        cost.elapsed = op_end - op_start;
        ledger_before.debug_assert_layers(
            self.transport.ledger(),
            op.label(),
            &[
                (layer, cost.forward_messages),
                (TrafficLayer::Reply, cost.reply_messages),
                (TrafficLayer::Retransmit, cost.retransmit_messages),
            ],
        );
        Ok(Walked { events, cost, reached, pools_visited })
    }

    /// Sends one packet `from → to` under `layer` and
    /// [`pool_transport::Substrate::op_retry`], charging it to `cost`.
    /// Returns the leg the packet last travelled, which replies retrace, or
    /// `None` when there was no route or the packet was lost.
    ///
    /// # Errors
    ///
    /// [`PoolError::Routing`] on pathological (non-delivery) routing
    /// failures.
    pub(crate) fn send(
        &mut self,
        op: TraceOp,
        from: NodeId,
        to: NodeId,
        layer: TrafficLayer,
        cost: &mut QueryCost,
    ) -> Result<Option<Leg>, PoolError> {
        let leg = match self.transport.leg_to_node(&self.topology, from, to) {
            Ok(leg) => leg,
            Err(pool_gpsr::RouteError::NotDelivered { .. }) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (outcome, rerouted) =
            self.deliver_leg(op, leg.path(), layer, self.config.substrate.op_retry);
        cost.add_forward(&outcome);
        Ok(outcome.delivered.then(|| rerouted.map_or(leg, Leg::Route)))
    }

    /// Sends `copies` reply packets back along `path` (tail → head) under
    /// [`TrafficLayer::Reply`] and [`pool_transport::Substrate::op_retry`]
    /// ([`retry::deliver_reverse`], one trace span per attempt), charging
    /// them to `cost`. Returns how many arrived.
    pub(crate) fn retrace(
        &mut self,
        op: TraceOp,
        path: &[NodeId],
        copies: u64,
        cost: &mut QueryCost,
    ) -> u64 {
        let rev = retry::deliver_reverse(
            &self.topology,
            self.transport.as_mut(),
            path,
            copies,
            TrafficLayer::Reply,
            self.config.substrate.op_retry,
            Some((&mut self.tracer, op)),
        );
        cost.add_reply(&rev);
        rev.delivered_copies
    }

    /// Brute-force ground truth: all stored events matching `query`,
    /// regardless of placement. Used by tests and correctness audits.
    pub fn brute_force_query(&self, query: &RangeQuery) -> Vec<Event> {
        let mut out = Vec::new();
        for (_, stored) in self.store.iter() {
            for s in stored {
                if query.matches(&s.event) {
                    out.push(s.event.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use crate::system::testkit::{build_system, ev};

    /// Regression: `splitter_of` ordered index nodes with
    /// `partial_cmp().expect("positions are finite")`, so a sink with an
    /// undefined (NaN) position — a joiner deployed at a corrupt waypoint —
    /// panicked the public query path. With `total_cmp` a splitter is
    /// picked deterministically and the query degrades instead.
    #[test]
    fn nan_sink_position_picks_a_splitter_without_panicking() {
        use crate::dynamics::{EpochPlan, RepairQueue};
        use pool_netsim::geometry::Point;
        let mut pool = build_system(300, 15, PoolConfig::paper());
        pool.insert_from(NodeId(0), ev(&[0.62, 0.3, 0.11])).unwrap();
        let plan = EpochPlan {
            joins: vec![Point::new(f64::NAN, f64::NAN)],
            deaths: vec![],
            moves: vec![],
        };
        pool.apply_epoch(&plan, &mut RepairQueue::default(), u64::MAX).unwrap();
        let lost = NodeId(300);
        assert!(pool.topology().neighbors(lost).is_empty(), "a NaN node hears nobody");
        for dim in 0..3 {
            let splitter = pool.splitter_of(dim, lost);
            assert_eq!(splitter, pool.splitter_of(dim, lost), "the pick is deterministic");
            assert!(pool.layout().pool(dim).cells().any(|c| pool.index_nodes[&c] == splitter));
        }
        let q = RangeQuery::exact(vec![(0.6, 0.7), (0.2, 0.4), (0.0, 0.5)]).unwrap();
        let result = pool.query_from(lost, &q).unwrap();
        assert!(!result.completeness.is_complete(), "an isolated sink reaches no cell");
        assert!(result.events.is_empty());
    }

    /// `splitter_of` as it read before the per-pool rows: the `min_by` over
    /// the pool's cells, one `index_nodes` lookup and two position reads per
    /// comparison.
    fn splitter_by_lookup(pool: &PoolSystem, dim: usize, sink: NodeId) -> NodeId {
        let sink_pos = pool.topology.position(sink);
        pool.layout
            .pool(dim)
            .cells()
            .map(|c| pool.index_nodes[&c])
            .min_by(|&a, &b| {
                pool.topology
                    .position(a)
                    .distance_sq(sink_pos)
                    .total_cmp(&pool.topology.position(b).distance_sq(sink_pos))
                    .then(a.cmp(&b))
            })
            .unwrap()
    }

    fn assert_splitters_match_lookup(pool: &PoolSystem, when: &str) {
        for dim in 0..pool.layout.dims() {
            for sink in pool.topology.nodes() {
                assert_eq!(
                    pool.splitter_of(dim, sink.id),
                    splitter_by_lookup(pool, dim, sink.id),
                    "pool {dim} sink {} {when}",
                    sink.id
                );
            }
        }
    }

    /// Oracle for the splitter rows: for every (pool, sink) — a sink at a
    /// NaN position included — the row scan picks the node the per-cell
    /// lookup picks, at build time, after an epoch of joins, moves and
    /// deaths, and after `fail_nodes`. Putting the pre-change rows back
    /// shows the check has teeth: a table that missed the re-election
    /// disagrees with the lookup.
    #[test]
    fn splitter_rows_agree_with_the_per_cell_lookup_through_churn() {
        use crate::dynamics::{ChurnConfig, ChurnPlanner, EpochPlan, RepairQueue};
        use pool_netsim::geometry::Point;
        for seed in [41u64, 42, 43] {
            let mut pool = build_system(300, seed, PoolConfig::paper());
            assert_splitters_match_lookup(&pool, "as built");

            let mut plan = ChurnPlanner::new(ChurnConfig::new(seed).with_rates(3, 6, 6))
                .plan(pool.topology(), pool.field());
            plan.joins.push(Point::new(f64::NAN, f64::NAN));
            // A sink that survives the epoch, and whose pool-0 splitter (a
            // node other than itself) certainly does not.
            let sink = (0..300)
                .map(NodeId)
                .find(|&n| !plan.deaths.contains(&n) && pool.splitter_of(0, n) != n)
                .unwrap();
            let deposed = pool.splitter_of(0, sink);
            if !plan.deaths.contains(&deposed) {
                plan.moves.retain(|&(id, _)| id != deposed);
                plan.deaths.push(deposed);
            }
            let built = pool.pool_index.clone();
            pool.apply_epoch(&plan, &mut RepairQueue::default(), u64::MAX).unwrap();
            assert_splitters_match_lookup(&pool, "after an epoch");
            let fresh = std::mem::replace(&mut pool.pool_index, built);
            assert_ne!(
                pool.splitter_of(0, sink),
                splitter_by_lookup(&pool, 0, sink),
                "rows that missed the epoch must disagree with the lookup"
            );
            pool.pool_index = fresh;

            let victim = pool.splitter_of(1, sink);
            assert_ne!(victim, sink, "seed {seed}: pick a sink that is not its own splitter");
            let before = pool.pool_index.clone();
            pool.fail_nodes(&[victim]).unwrap();
            assert_splitters_match_lookup(&pool, "after fail_nodes");
            let fresh = std::mem::replace(&mut pool.pool_index, before);
            assert_ne!(pool.splitter_of(1, sink), splitter_by_lookup(&pool, 1, sink));
            pool.pool_index = fresh;

            pool.apply_epoch(&EpochPlan::empty(), &mut RepairQueue::default(), 0).unwrap();
            assert_splitters_match_lookup(&pool, "after an empty epoch");
        }
    }

    #[test]
    fn insert_and_exact_query_roundtrip() {
        let mut pool = build_system(300, 1, PoolConfig::paper());
        pool.insert_from(NodeId(0), ev(&[0.62, 0.3, 0.11])).unwrap();
        pool.insert_from(NodeId(10), ev(&[0.9, 0.8, 0.7])).unwrap();
        let q = RangeQuery::exact(vec![(0.6, 0.7), (0.2, 0.4), (0.0, 0.5)]).unwrap();
        let result = pool.query_from(NodeId(50), &q).unwrap();
        assert_eq!(result.events, vec![ev(&[0.62, 0.3, 0.11])]);
        assert!(result.cost.total() > 0);
    }

    #[test]
    fn query_matches_brute_force_over_random_workload() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut pool = build_system(300, 2, PoolConfig::paper());
        let mut rng = StdRng::seed_from_u64(77);
        let n = pool.topology().len();
        for _ in 0..300 {
            let src = NodeId(rng.gen_range(0..n as u32));
            let event = ev(&[rng.gen(), rng.gen(), rng.gen()]);
            pool.insert_from(src, event).unwrap();
        }
        for trial in 0..20 {
            let mut bounds = Vec::new();
            for _ in 0..3 {
                if rng.gen_bool(0.3) {
                    bounds.push(None);
                } else {
                    let lo: f64 = rng.gen_range(0.0..0.8);
                    let hi = (lo + rng.gen_range(0.0..0.4)).min(1.0);
                    bounds.push(Some((lo, hi)));
                }
            }
            if bounds.iter().all(Option::is_none) {
                bounds[0] = Some((0.1, 0.9));
            }
            let q = RangeQuery::from_bounds(bounds).unwrap();
            let sink = NodeId(rng.gen_range(0..n as u32));
            let mut got = pool.query_from(sink, &q).unwrap().events;
            let mut want = pool.brute_force_query(&q);
            let key = |e: &Event| e.values().iter().map(|v| (v * 1e9) as i64).collect::<Vec<_>>();
            got.sort_by_key(key);
            want.sort_by_key(key);
            assert_eq!(got, want, "trial {trial} query {q}");
        }
    }

    #[test]
    fn empty_store_query_returns_nothing_but_still_forwards() {
        let mut pool = build_system(300, 5, PoolConfig::paper());
        let q = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
        let result = pool.query_from(NodeId(0), &q).unwrap();
        assert!(result.events.is_empty());
        assert_eq!(result.cost.reply_messages, 0);
        assert!(result.cost.forward_messages > 0);
        assert_eq!(result.pools_visited, 3);
    }

    #[test]
    fn splitter_is_closest_pool_index_node() {
        let pool = build_system(300, 6, PoolConfig::paper());
        let sink = NodeId(17);
        let splitter = pool.splitter_of(0, sink);
        let sink_pos = pool.topology().position(sink);
        let sd = pool.topology().position(splitter).distance(sink_pos);
        for cell in pool.layout().pool(0).cells() {
            let node = pool.index_node_of(cell).unwrap();
            assert!(
                pool.topology().position(node).distance(sink_pos) >= sd - 1e-9,
                "cell {cell} index node {node} closer than splitter"
            );
        }
    }

    #[test]
    fn unaggregated_replies_cost_more() {
        let mut agg = build_system(300, 9, PoolConfig::paper());
        let mut raw = build_system(300, 9, PoolConfig::paper().without_reply_aggregation());
        for i in 0..20 {
            let e = ev(&[0.72, 0.3 + 0.001 * i as f64, 0.1]);
            agg.insert_from(NodeId(i), e.clone()).unwrap();
            raw.insert_from(NodeId(i), e).unwrap();
        }
        let q = RangeQuery::exact(vec![(0.7, 0.75), (0.2, 0.4), (0.0, 0.2)]).unwrap();
        let a = agg.query_from(NodeId(250), &q).unwrap();
        let r = raw.query_from(NodeId(250), &q).unwrap();
        assert_eq!(a.events.len(), 20);
        assert_eq!(r.events.len(), 20);
        assert!(
            r.cost.reply_messages > a.cost.reply_messages,
            "unaggregated {} vs aggregated {}",
            r.cost.reply_messages,
            a.cost.reply_messages
        );
    }

    #[test]
    fn aggregates_compute_correctly() {
        let mut pool = build_system(300, 10, PoolConfig::paper());
        pool.insert_from(NodeId(0), ev(&[0.62, 0.3, 0.1])).unwrap();
        pool.insert_from(NodeId(1), ev(&[0.64, 0.35, 0.2])).unwrap();
        pool.insert_from(NodeId(2), ev(&[0.9, 0.1, 0.05])).unwrap();
        let q = RangeQuery::exact(vec![(0.6, 0.7), (0.0, 0.5), (0.0, 0.5)]).unwrap();
        let count = pool.aggregate_from(NodeId(9), &q, AggregateOp::Count).unwrap();
        assert_eq!(count.value, Some(2.0));
        // On a loss-free radio the aggregate is authoritative.
        assert!(count.completeness.is_complete());
        assert!(count.cost.total() > 0);
        let sum = pool.aggregate_from(NodeId(9), &q, AggregateOp::Sum(0)).unwrap();
        assert!((sum.value.unwrap() - 1.26).abs() < 1e-9);
        let avg = pool.aggregate_from(NodeId(9), &q, AggregateOp::Avg(1)).unwrap();
        assert!((avg.value.unwrap() - 0.325).abs() < 1e-9);
        let min = pool.aggregate_from(NodeId(9), &q, AggregateOp::Min(2)).unwrap();
        assert_eq!(min.value, Some(0.1));
        let max = pool.aggregate_from(NodeId(9), &q, AggregateOp::Max(2)).unwrap();
        assert_eq!(max.value, Some(0.2));
        // Aggregates over an empty result set.
        let empty = RangeQuery::exact(vec![(0.0, 0.01), (0.0, 0.01), (0.99, 1.0)]).unwrap();
        let none = pool.aggregate_from(NodeId(9), &empty, AggregateOp::Sum(0)).unwrap();
        assert_eq!(none.value, None);
        let zero = pool.aggregate_from(NodeId(9), &empty, AggregateOp::Count).unwrap();
        assert_eq!(zero.value, Some(0.0));
        assert!(zero.completeness.is_complete());
    }

    #[test]
    fn query_elapsed_is_the_critical_path_not_the_leg_sum() {
        let mut pool = build_system(300, 2, PoolConfig::paper());
        for i in 0..50 {
            pool.insert_from(NodeId(i * 5), ev(&[0.02 * i as f64, 0.5, 0.5])).unwrap();
        }
        let q = RangeQuery::exact(vec![(0.0, 1.0), (0.4, 0.6), (0.4, 0.6)]).unwrap();
        pool.tracer_mut().clear();
        let before = pool.transport().clock().now();
        let result = pool.query_from(NodeId(123), &q).unwrap();
        let after = pool.transport().clock().now();
        let cost = result.cost;
        assert!(cost.elapsed > 0.0, "a routed query takes virtual time");
        assert!((after - before - cost.elapsed).abs() < 1e-12, "the clock advances by elapsed");
        // Pools and cells overlap, so the end-to-end time is at most the
        // serial per-leg sum — and on this fan-out workload strictly less.
        let serial = cost.forward_latency + cost.reply_latency;
        assert!(
            cost.elapsed < serial,
            "elapsed {} must undercut the serial leg sum {}",
            cost.elapsed,
            serial
        );
        // Every span the query recorded fits inside the operation bracket.
        for span in pool.tracer().spans() {
            assert!(span.start >= before - 1e-12 && span.end <= after + 1e-12);
        }
    }

    #[test]
    fn min_max_aggregates_use_a_total_order() {
        // Regression: Min/Max previously compared with
        // partial_cmp().unwrap(), which panics outright on NaN and treats
        // -0.0 and +0.0 as equal. total_cmp is the IEEE total order,
        // under which -0.0 < +0.0 — observable through the sign bit.
        let zeros = [ev(&[0.0]), ev(&[-0.0])];
        let min = AggregateOp::Min(0).apply(&zeros).unwrap();
        assert!(min == 0.0 && min.is_sign_negative(), "-0.0 is the total-order minimum");
        let max = AggregateOp::Max(0).apply(&zeros).unwrap();
        assert!(max == 0.0 && max.is_sign_positive(), "+0.0 is the total-order maximum");
        // The ordinary path is unchanged.
        let clean = [ev(&[0.3]), ev(&[0.7])];
        assert_eq!(AggregateOp::Min(0).apply(&clean), Some(0.3));
        assert_eq!(AggregateOp::Max(0).apply(&clean), Some(0.7));
    }
}
