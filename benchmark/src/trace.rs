//! The traced run: benchmark-side spans and the layer replay.
//!
//! The systems under test expose no host-time spans, so the traced run
//! builds them from outside. A *root* span wraps each public call into a
//! system (`insert_from`, `query_from`, `apply_epoch`, `submit`, `serve`,
//! the builds). After the call returns, the benchmark drains the system's
//! public delivery `Tracer` — one record per routed leg, with endpoints,
//! transmissions and retransmissions — and *replays* every leg on lower
//! layers the benchmark owns: a `CachedTransport` lookup (with a separate
//! `Gpsr::route_to_node` when the lookup missed), a `TrafficLedger` charge,
//! a `VirtualClock` leg, a `Tracer` record, plus the resolver call of the
//! operation itself. Each replayed call is a child span of the root.
//!
//! A layer's self time is its span minus its children; the root's
//! remainder is what the scheme layer did itself (`*_self_*` metrics).
//! Replayed children run after their root has returned, so a child's clock
//! interval lies outside its parent's: the tree is a cost model assembled
//! from real calls on real inputs, not a profile.

use pool_core::dynamics::EpochPlan;
use pool_core::event::Event;
use pool_core::failure::FailureReport;
use pool_core::grid::Grid;
use pool_core::insert::storage_cell;
use pool_core::layout::PoolLayout;
use pool_core::query::RangeQuery;
use pool_core::resolve::relevant_cells;
use pool_dim::zone::ZoneTree;
use pool_gpsr::{Gpsr, Planarization};
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::{
    clean_hops, CachedTransport, DeliveryOutcome, FaultPlan, FaultyTransport, GpsrTransport, Hop,
    LatencyModel, LossyConfig, RecoveryConfig, Span, TraceOp, Tracer, TrafficLayer, TrafficLedger,
    Transport, VirtualClock,
};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = u32;

/// At most this many spans are written to the trace file (the aggregate
/// table always covers all of them).
const MAX_WRITTEN_SPANS: usize = 50_000;

/// One benchmark-side span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified name of the call.
    pub name: &'static str,
    /// The operation this span belongs to (shared by its whole tree).
    pub op_id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the log was opened.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was opened.
    pub end_ns: u64,
}

/// Count and time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the children's.
    pub self_ns: u64,
}

/// Spans held in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    opened: Instant,
    spans: Vec<SpanRec>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { opened: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.opened).as_nanos() as u64;
        self.spans.push(SpanRec { name, op_id, parent, start_ns: at(start), end_ns: at(end) });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `call` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: SpanId,
        call: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        (out, self.record(name, op_id, Some(parent), start, end))
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals, with self time = duration minus children.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Aggregate> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&children_ns) {
            let duration = span.end_ns - span.start_ns;
            let agg = out.entry(span.name).or_default();
            agg.count += 1;
            agg.total_ns += duration;
            agg.self_ns += duration.saturating_sub(*children);
        }
        out
    }

    /// Writes the span document: the aggregate table over every span, and
    /// the first [`MAX_WRITTEN_SPANS`] spans themselves.
    ///
    /// # Errors
    ///
    /// Any I/O error of `out`.
    pub fn write_json<W: Write>(&self, mut out: W, workload: &str) -> std::io::Result<()> {
        let written = self.spans.len().min(MAX_WRITTEN_SPANS);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"spans_total\": {}, \"spans_written\": {written},",
            self.spans.len()
        )?;
        writeln!(out, " \"aggregate\": [")?;
        let aggregate = self.aggregate();
        for (i, (name, agg)) in aggregate.iter().enumerate() {
            let comma = if i + 1 < aggregate.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                agg.count, agg.total_ns, agg.self_ns
            )?;
        }
        writeln!(out, " ],\n \"spans\": [")?;
        for (i, span) in self.spans[..written].iter().enumerate() {
            let comma = if i + 1 < written { "," } else { "" };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op_id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                span.name, span.op_id, span.start_ns, span.end_ns
            )?;
        }
        writeln!(out, " ]\n}}")?;
        out.flush()
    }
}

/// The scheme-level resolver the replay runs once per operation.
#[derive(Debug)]
pub enum SchemeModel {
    /// Pool: Theorem 3.1 placement and Theorem 3.2 resolution.
    Pool {
        /// The pool layout (same pivots as the system's).
        layout: PoolLayout,
        /// The α-cell grid.
        grid: Grid,
    },
    /// DIM: the zone tree.
    Dim {
        /// A zone tree built over the same topology.
        tree: ZoneTree,
    },
}

/// The fault stack of `pool_faulty_3k`, for the replay's own decorator.
#[derive(Debug, Clone)]
pub struct FaultStack {
    /// Link-loss model and ARQ budget.
    pub lossy: LossyConfig,
    /// The fault plan.
    pub plan: FaultPlan,
    /// Adaptive recovery knobs.
    pub recovery: RecoveryConfig,
}

/// Counters taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceCounts {
    /// Insert operations traced.
    pub inserts: u64,
    /// Query operations traced.
    pub queries: u64,
    /// Delivery legs drained after queries.
    pub query_legs: u64,
    /// Relevant cells (Pool) or zones visited (DIM) over all queries.
    pub query_fanout: u64,
    /// Transmissions over all drained legs.
    pub transmissions: u64,
    /// Retransmissions over all drained legs.
    pub retransmissions: u64,
    /// Routes the replay computed on cache misses.
    pub routes: u64,
    /// Hops over those routes.
    pub route_hops: u64,
    /// Perimeter-mode hops over those routes.
    pub perimeter_hops: u64,
    /// Churn epochs traced.
    pub epochs: u64,
    /// Repair messages over those epochs.
    pub repair_messages: u64,
    /// Repairs left queued, summed over epochs.
    pub deferred: u64,
}

/// An operation whose root span is recorded and whose replay is still due.
#[derive(Debug)]
struct Pending {
    root: SpanId,
    op: u64,
    legs: Vec<Span>,
    kind: PendingKind,
}

#[derive(Debug)]
enum PendingKind {
    Insert { source: NodeId, event: Event },
    Query { query: RangeQuery },
}

/// How many operations the replay lags behind the system. Replaying an
/// operation right after it ran would find every cache line the system just
/// touched still warm — a route that cost the system 25 µs at 100 000 nodes
/// replays in 7 — so the replay waits until this many other operations have
/// gone through the caches, as they had before the system ran it.
const REPLAY_LAG: usize = 64;

/// The benchmark-owned lower layers, the span log, and the counters of one
/// traced run.
#[derive(Debug)]
pub struct TraceRun {
    /// Every span of the run.
    pub log: SpanLog,
    /// Counters.
    pub counts: TraceCounts,
    model: SchemeModel,
    faults: Option<FaultStack>,
    gpsr: Gpsr,
    cached: CachedTransport,
    faulty: Option<FaultyTransport>,
    ledger: TrafficLedger,
    clock: VirtualClock,
    tracer: Tracer,
    next_op: u64,
    pending: VecDeque<Pending>,
    /// Route-cache hits, misses and evictions of earlier rounds' caches.
    cache_past: (u64, u64, u64),
    /// Hits and misses of the current cache that a warm pass caused.
    cache_warm: (u64, u64),
    /// An epoch moved the replay's router off the deployed topology.
    router_moved: bool,
}

impl TraceRun {
    /// Layers over `topology` for a scheme resolved by `model`; `faults`
    /// adds the replay's own fault decorator.
    pub fn new(topology: &Topology, model: SchemeModel, faults: Option<FaultStack>) -> Self {
        let mut run = TraceRun {
            log: SpanLog::default(),
            counts: TraceCounts::default(),
            model,
            faults,
            gpsr: Gpsr::new(topology, Planarization::Gabriel),
            cached: CachedTransport::new(topology, Planarization::Gabriel),
            faulty: None,
            ledger: TrafficLedger::new(topology.len()),
            clock: VirtualClock::new(topology.len(), LatencyModel::default()),
            tracer: Tracer::default(),
            next_op: 0,
            pending: VecDeque::new(),
            cache_past: (0, 0, 0),
            cache_warm: (0, 0),
            router_moved: false,
        };
        run.fresh_system(topology);
        run
    }

    /// Mirrors "a fresh system": empties the replay's route cache and
    /// re-creates its fault decorator, as each round's new system does.
    /// Call [`TraceRun::flush`] on the old system's topology first.
    pub fn fresh_system(&mut self, topology: &Topology) {
        debug_assert!(self.pending.is_empty(), "flush before the system goes away");
        if std::mem::take(&mut self.router_moved) {
            self.gpsr = Gpsr::new(topology, Planarization::Gabriel);
        }
        let (hits, misses, evictions) = self.cache_counts();
        self.cache_past = (hits, misses, evictions);
        self.cache_warm = (0, 0);
        self.cached = CachedTransport::new(topology, Planarization::Gabriel);
        self.faulty = self.faults.as_ref().map(|f| {
            FaultyTransport::wrap_adaptive(
                Box::new(GpsrTransport::new(topology, Planarization::Gabriel)),
                f.lossy,
                f.plan.clone(),
                f.recovery,
            )
        });
    }

    /// Hits, misses and evictions of timed operations so far, over every
    /// round's cache; what warm passes looked up is left out.
    fn cache_counts(&self) -> (u64, u64, u64) {
        let now = self.cached.hit_stats();
        (
            self.cache_past.0 + now.hits - self.cache_warm.0,
            self.cache_past.1 + now.misses - self.cache_warm.1,
            self.cache_past.2 + now.evictions,
        )
    }

    /// Everything the current cache has looked up so far was a warm pass.
    pub fn mark_cache(&mut self) {
        let stats = self.cached.hit_stats();
        self.cache_warm = (stats.hits, stats.misses);
    }

    /// Hit rate of the replay's route cache over the timed operations, and
    /// its evictions.
    pub fn cache_stats(&self) -> (f64, u64) {
        let (hits, misses, evictions) = self.cache_counts();
        let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        (rate, evictions)
    }

    /// Feeds the forward legs of an untimed warm operation to the replay's
    /// route cache, so it holds what the system's cache holds; no spans.
    pub fn warm(&mut self, topology: &Topology, legs: &[Span]) {
        for leg in legs.iter().filter(|l| l.layer != TrafficLayer::Reply && !l.detour) {
            let _ = self.cached.route_to_node(topology, leg.origin, leg.destination);
        }
    }

    /// A root span with no replay (builds, `serve`).
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) -> SpanId {
        self.next_op += 1;
        self.log.record(name, self.next_op, None, start, end)
    }

    /// The root span of one insert; its replay follows [`REPLAY_LAG`]
    /// operations later.
    pub fn insert_done(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        topology: &Topology,
        legs: Vec<Span>,
        source: NodeId,
        event: Event,
    ) {
        let root = self.root(name, start, end);
        self.counts.inserts += 1;
        let kind = PendingKind::Insert { source, event };
        self.defer(Pending { root, op: self.next_op, legs, kind }, topology);
    }

    /// The root span of one query; its replay follows later. `fanout` is
    /// the number of relevant cells (Pool) or zones visited (DIM) the system
    /// reported.
    pub fn query_done(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        topology: &Topology,
        legs: Vec<Span>,
        query: RangeQuery,
        fanout: usize,
    ) {
        let root = self.root(name, start, end);
        self.counts.queries += 1;
        self.counts.query_legs += legs.len() as u64;
        self.counts.query_fanout += fanout as u64;
        let kind = PendingKind::Query { query };
        self.defer(Pending { root, op: self.next_op, legs, kind }, topology);
    }

    fn defer(&mut self, pending: Pending, topology: &Topology) {
        self.pending.push_back(pending);
        while self.pending.len() > REPLAY_LAG {
            let due = self.pending.pop_front().expect("the queue is longer than the lag");
            self.replay(due, topology);
        }
    }

    /// Replays every operation still waiting, on `topology` — the one its
    /// system ran on. Due before that system or topology goes away.
    pub fn flush(&mut self, topology: &Topology) {
        while let Some(due) = self.pending.pop_front() {
            self.replay(due, topology);
        }
    }

    /// The resolver call of the operation, then each of its legs.
    fn replay(&mut self, pending: Pending, topology: &Topology) {
        let Pending { root, op, legs, kind } = pending;
        match (&self.model, &kind) {
            (SchemeModel::Pool { layout, grid }, PendingKind::Insert { source, event }) => {
                let detected = grid.cell_of(topology.position(*source));
                self.log.time("core.insert.storage_cell", op, root, || {
                    black_box(storage_cell(layout, grid, event, detected));
                });
            }
            (SchemeModel::Pool { layout, .. }, PendingKind::Query { query }) => {
                self.log.time("core.resolve.relevant_cells", op, root, || {
                    black_box(relevant_cells(layout, query));
                });
            }
            (SchemeModel::Dim { tree }, PendingKind::Insert { event, .. }) => {
                self.log.time("dim.zone.zone_of_event", op, root, || {
                    black_box(tree.zone_of_event(event.values()));
                });
            }
            (SchemeModel::Dim { tree }, PendingKind::Query { query }) => {
                self.log.time("dim.zone.zones_overlapping", op, root, || {
                    black_box(tree.zones_overlapping(&query.rewritten()).len());
                });
            }
        }
        for leg in &legs {
            self.replay_leg(op, root, topology, leg);
        }
    }

    /// The root span of one churn epoch, then its replay: the plan's
    /// mutations on a copy of the pre-epoch topology, one compaction, the
    /// substrate rebuild, and the repair legs.
    pub fn epoch_done(
        &mut self,
        (start, end): (Instant, Instant),
        (before, after): (&Topology, &Topology),
        plan: &EpochPlan,
        legs: &[Span],
        report: &FailureReport,
    ) {
        // Operations still waiting ran on the pre-epoch network.
        self.flush(before);
        let root = self.root("pool.apply_epoch", start, end);
        let op = self.next_op;
        self.counts.epochs += 1;
        self.counts.repair_messages += report.repair_messages;
        self.counts.deferred += report.deferred_repairs;
        let mut mirror = before.clone();
        for &at in &plan.joins {
            self.log.time("netsim.topology.mutate", op, root, || {
                mirror.add_node(at);
            });
        }
        for &(id, to) in &plan.moves {
            if mirror.is_alive(id) {
                self.log.time("netsim.topology.mutate", op, root, || mirror.move_node(id, to));
            }
        }
        let victims: Vec<NodeId> =
            plan.deaths.iter().copied().filter(|&d| mirror.is_alive(d)).collect();
        self.log.time("netsim.topology.mutate", op, root, || mirror.fail_nodes(&victims));
        self.log.time("netsim.topology.compact", op, root, || mirror.compact());
        // The system's transport rebuilds once per epoch: it re-planarises
        // (the rebuild's child here, timed alone) and drops the memo.
        let ((), rebuild) =
            self.log.time("transport.cached.rebuild", op, root, || self.cached.rebuild(after));
        let (gpsr, _) = self
            .log
            .time("gpsr.planar.build", op, rebuild, || Gpsr::new(after, Planarization::Gabriel));
        self.gpsr = gpsr;
        self.router_moved = true;
        self.ledger.grow_to(after.len());
        self.clock.grow_to(after.len());
        for leg in legs {
            self.replay_leg(op, root, after, leg);
        }
    }

    /// Replays one delivery leg on the benchmark-owned layers.
    fn replay_leg(&mut self, op: u64, root: SpanId, topology: &Topology, leg: &Span) {
        self.counts.transmissions += leg.transmissions;
        self.counts.retransmissions += leg.retransmissions;
        // Replies retrace the path their query travelled: the system does
        // no lookup for them, so the replay's lookup is not a span.
        let reverse = leg.layer == TrafficLayer::Reply;
        let (from, to) =
            if reverse { (leg.destination, leg.origin) } else { (leg.origin, leg.destination) };
        let misses_before = self.cached.hit_stats().misses;
        let start = Instant::now();
        let looked_up = self.cached.route_to_node(topology, from, to);
        let end = Instant::now();
        let Ok(mut route) = looked_up else { return };
        if leg.detour {
            // A retry around whatever was down on the direct route when the
            // leg launched: the same exclusion, hence the same computation
            // (a topology copy and a re-planarisation), as the system's.
            let down: Vec<NodeId> = match &self.faults {
                Some(f) => route.path[1..route.path.len().max(2) - 1]
                    .iter()
                    .copied()
                    .filter(|&n| f.plan.node_down(n, leg.start))
                    .collect(),
                None => Vec::new(),
            };
            let (detour, _) = self.log.time("transport.faults.detour_route", op, root, || {
                self.gpsr.route_to_node_avoiding(topology, from, to, &down)
            });
            match detour {
                Ok(detour) => route = std::sync::Arc::new(detour),
                Err(_) => return,
            }
        } else if !reverse {
            let lookup = self.log.record("transport.cached.route", op, Some(root), start, end);
            if self.cached.hit_stats().misses > misses_before {
                // The miss computed a route inside the lookup; the same
                // computation alone is the lookup's child.
                let (computed, _) = self.log.time("gpsr.router.route", op, lookup, || {
                    self.gpsr.route_to_node(topology, from, to)
                });
                if let Ok(r) = computed {
                    self.counts.routes += 1;
                    self.counts.route_hops += r.hops() as u64;
                    self.counts.perimeter_hops += r.perimeter_hops as u64;
                }
            }
        }
        let path = &route.path;
        let hops = path.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        let first_attempts = leg.transmissions - leg.retransmissions;
        let copies = first_attempts.checked_div(hops).map_or(0, |c| c.max(1));
        let outcome = DeliveryOutcome::delivered_clean(path, leg.transmissions);
        if let Some(faulty) = &mut self.faulty {
            // The replay's decorator sees the same virtual instant, hence
            // the same active faults, as the system's did.
            faulty.clock_mut().seek(leg.start.max(0.0));
            self.log.time("transport.faults.deliver", op, root, || {
                if reverse {
                    black_box(faulty.deliver_reverse(topology, path, copies, leg.layer));
                } else {
                    black_box(faulty.deliver(topology, path, leg.layer));
                }
            });
        } else if reverse {
            self.log.time("transport.ledger.charge", op, root, || {
                black_box(self.ledger.charge_path_reversed(path, copies, leg.layer));
            });
            let back: Vec<NodeId> = path.iter().rev().copied().collect();
            let legs: Vec<Vec<Hop>> = (0..copies).map(|_| clean_hops(&back)).collect();
            self.log.time("transport.clock.fanout", op, root, || {
                black_box(self.clock.time_fanout(&legs));
            });
        } else {
            self.log.time("transport.ledger.charge", op, root, || {
                black_box(self.ledger.charge_path(path, leg.layer));
            });
            self.log.time("transport.clock.leg", op, root, || {
                black_box(self.clock.time_leg(&clean_hops(path)));
            });
        }
        self.log.time("transport.trace.record", op, root, || {
            self.tracer.record_delivery(TraceOp::Query, path, leg.layer, &outcome, leg.end);
        });
    }
}

/// Drains `tracer`: its retained spans, oldest first, leaving it empty.
pub fn drain(tracer: &mut Tracer) -> Vec<Span> {
    let spans: Vec<Span> = tracer.spans().copied().collect();
    tracer.clear();
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::default();
        let t0 = log.opened;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = log.record("root", 1, None, at(0), at(1_000));
        let child = log.record("child", 1, Some(root), at(1_000), at(1_300));
        log.record("grandchild", 1, Some(child), at(1_300), at(1_400));
        log.record("child", 1, Some(root), at(1_400), at(1_600));
        let agg = log.aggregate();
        assert_eq!(agg["root"], Aggregate { count: 1, total_ns: 1_000, self_ns: 500 });
        assert_eq!(agg["child"], Aggregate { count: 2, total_ns: 500, self_ns: 400 });
        assert_eq!(agg["grandchild"].self_ns, 100);
    }

    #[test]
    fn the_span_file_is_valid_json() {
        let mut log = SpanLog::default();
        let now = Instant::now();
        let root = log.record("pool.insert_from", 7, None, now, now);
        log.record("transport.ledger.charge", 7, Some(root), now, now);
        let mut bytes = Vec::new();
        log.write_json(&mut bytes, "unit").unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("spans_total").unwrap().as_f64(), Some(2.0));
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Value::Null));
    }
}
