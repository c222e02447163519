//! The six workloads and the machinery they share.
//!
//! A workload is a fixed, seed-derived *round* of work; a run repeats the
//! round until its time is up. [`OpRunner`] is the one place where an
//! operation is timed, logged, digested, checked against the oracle and —
//! in the traced run — handed to the layer replay, so all workloads measure
//! the same way.

pub mod churn;
pub mod faulty;
pub mod ops;
pub mod service;

use crate::inputs::Net;
use crate::oracle::{is_sub_multiset, sorted_keys, Digest, OpLog, OpStatus, Oracle};
use crate::trace::{drain, TraceRun};
use pool_core::event::Event;
use pool_core::insert::InsertError;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_dim::system::DimSystem;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::{DeliveryStats, Span};
use std::time::Instant;

/// The workloads, by their final names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Pool, 100k nodes, cold routes.
    PoolCold100k,
    /// Pool, 10k nodes, every route in the LRU.
    PoolHot10k,
    /// DIM on `pool_cold_100k`'s inputs.
    DimCold100k,
    /// Pool, 3k nodes, lossy radio and a 16-fault plan.
    PoolFaulty3k,
    /// Pool with replication, 10k nodes, under churn.
    PoolChurn10k,
    /// The sharded service, 2 client threads.
    ServiceMixed2t,
}

impl WorkloadId {
    /// Every workload, in the order `run.sh` runs them.
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::PoolCold100k,
        WorkloadId::PoolHot10k,
        WorkloadId::DimCold100k,
        WorkloadId::PoolFaulty3k,
        WorkloadId::PoolChurn10k,
        WorkloadId::ServiceMixed2t,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PoolCold100k => "pool_cold_100k",
            WorkloadId::PoolHot10k => "pool_hot_10k",
            WorkloadId::DimCold100k => "dim_cold_100k",
            WorkloadId::PoolFaulty3k => "pool_faulty_3k",
            WorkloadId::PoolChurn10k => "pool_churn_10k",
            WorkloadId::ServiceMixed2t => "service_mixed_2t",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether injected faults or churn may legitimately fail operations.
    pub fn fault_free(self) -> bool {
        !matches!(self, WorkloadId::PoolFaulty3k | WorkloadId::PoolChurn10k)
    }

    /// Generates the workload's inputs and builds its network.
    pub fn prepare(self, seed: u64, quick: bool) -> Box<dyn Workload> {
        match self {
            WorkloadId::PoolCold100k => Box::new(ops::pool_cold(seed, quick)),
            WorkloadId::PoolHot10k => Box::new(ops::pool_hot(seed, quick)),
            WorkloadId::DimCold100k => Box::new(ops::dim_cold(seed, quick)),
            WorkloadId::PoolFaulty3k => Box::new(faulty::pool_faulty(seed, quick)),
            WorkloadId::PoolChurn10k => Box::new(churn::ChurnWorkload::new(seed, quick)),
            WorkloadId::ServiceMixed2t => Box::new(service::ServiceWorkload::new(seed, quick)),
        }
    }
}

/// How a round is run.
#[derive(Debug, Default)]
pub struct Pass<'a> {
    /// Check every answer against the oracle (the verification round).
    pub verify: bool,
    /// Run concurrent client streams on one thread (the traced run and its
    /// untraced reference rounds; only the service workload has clients).
    pub serial: bool,
    /// Record spans and replay legs (the traced run).
    pub trace: Option<&'a mut TraceRun>,
}

/// Host-time measurements of one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSample {
    /// System build, preload and cache warm of this round, in seconds.
    pub setup_s: f64,
    /// Host latency of every timed insert, in nanoseconds.
    pub insert_lat_ns: Vec<u64>,
    /// Host latency of every timed query, in nanoseconds.
    pub query_lat_ns: Vec<u64>,
    /// Simulated messages the timed inserts and queries were charged.
    pub messages: u64,
    /// The concurrent-clients phase, on the workload that has one; its
    /// operations are not among the latencies above.
    pub concurrent: Option<Concurrent>,
    /// Host latency of every `apply_epoch`, in nanoseconds.
    pub epoch_ns: Vec<u64>,
    /// Host nanoseconds of the `serve` call and the requests it scheduled.
    pub serve: Option<(u64, u64)>,
}

/// A phase in which several client threads ran a closed loop at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Concurrent {
    /// Inserts completed, over all clients.
    pub inserts: u64,
    /// Queries completed, over all clients.
    pub queries: u64,
    /// From the first client's start to the last one's end, in nanoseconds.
    pub wall_ns: u64,
}

impl RoundSample {
    /// Host nanoseconds inside the one-at-a-time inserts and queries.
    pub fn op_ns(&self) -> u64 {
        self.insert_lat_ns.iter().sum::<u64>() + self.query_lat_ns.iter().sum::<u64>()
    }

    /// Inserts per host second: of the concurrent phase if there is one
    /// (over its wall time), else of the timed inserts (over their summed
    /// latencies). `None` when nothing was measured.
    pub fn inserts_per_s(&self) -> Option<f64> {
        match self.concurrent {
            Some(c) => rate(c.inserts, c.wall_ns),
            None => rate(self.insert_lat_ns.len() as u64, self.insert_lat_ns.iter().sum()),
        }
    }

    /// Queries per host second, likewise.
    pub fn queries_per_s(&self) -> Option<f64> {
        match self.concurrent {
            Some(c) => rate(c.queries, c.wall_ns),
            None => rate(self.query_lat_ns.len() as u64, self.query_lat_ns.iter().sum()),
        }
    }

    /// Host time inside every timed call of the round: the one-at-a-time
    /// operations, the concurrent phase, the epochs, the `serve` call.
    pub fn round_ns(&self) -> u64 {
        self.op_ns()
            + self.concurrent.map_or(0, |c| c.wall_ns)
            + self.epoch_ns.iter().sum::<u64>()
            + self.serve.map_or(0, |(ns, _)| ns)
    }
}

fn rate(ops: u64, ns: u64) -> Option<f64> {
    (ns > 0).then(|| ops as f64 / (ns as f64 / 1e9))
}

/// Simulated (deterministic) totals of one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTotals {
    /// Inserts that reported a message count.
    pub inserts: u64,
    /// Messages charged to those inserts, retransmissions included.
    pub insert_messages: u64,
    /// Queries that returned an answer.
    pub queries: u64,
    /// Messages charged to those queries, retransmissions included.
    pub query_messages: u64,
    /// Virtual seconds each query took end to end.
    pub virt_query_s: Vec<f64>,
}

/// Everything one round produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    /// Digest of what every operation reported.
    pub digest: u64,
    /// Operations attempted and failed.
    pub log: OpLog,
    /// Host-time measurements.
    pub sample: RoundSample,
    /// Simulated totals.
    pub sim: SimTotals,
    /// Host seconds spent checking answers (verification round only).
    pub verify_s: f64,
}

/// One of the six workloads, ready to run rounds.
pub trait Workload {
    /// The network every round runs on.
    fn net(&self) -> &Net;

    /// One line stating the sizes of a round.
    fn shape(&self) -> String;

    /// Runs one round of identical, seed-derived work.
    ///
    /// # Errors
    ///
    /// A description of the first answer that violated the oracle or an
    /// invariant.
    fn round(&mut self, pass: Pass<'_>) -> Result<Round, String>;

    /// The benchmark-owned layers for a traced run of this workload.
    fn new_trace(&self) -> TraceRun;

    /// Per-layer metrics no span can give, by name: counters read off the
    /// last round's system, or extra arms run now (thread scaling,
    /// coalescing ablation). Called once, after the traced rounds.
    fn layer_rows(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// How an insert ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertAnswer {
    /// Stored, for this many messages.
    Stored(u64),
    /// The radio gave up after this many transmissions.
    Undeliverable(u64),
    /// Any other error.
    Errored,
}

/// A query's answer, reduced to what the benchmark measures.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The qualifying events.
    pub events: Vec<Event>,
    /// Messages charged, retransmissions included.
    pub messages: u64,
    /// Virtual seconds end to end.
    pub elapsed: f64,
    /// Whether every relevant cell or zone answered.
    pub complete: bool,
    /// Relevant cells (Pool) or zones visited (DIM).
    pub fanout: usize,
}

/// The two storage schemes behind one face, so Pool and DIM share a runner.
pub trait Scheme {
    /// Root span name of an insert.
    const INSERT_SPAN: &'static str;
    /// Root span name of a query.
    const QUERY_SPAN: &'static str;

    /// `insert_from`.
    fn insert(&mut self, source: NodeId, event: Event) -> InsertAnswer;
    /// `query_from`; `None` when the call errored.
    fn query(&mut self, sink: NodeId, query: &RangeQuery) -> Option<QueryAnswer>;
    /// The system's current topology.
    fn topology(&self) -> &Topology;
    /// Empties the system's public delivery tracer(s): the legs routed
    /// since the last drain, oldest first.
    fn drain_legs(&mut self) -> Vec<Span>;
}

/// A scheme the workload owns outright (not through the service handle):
/// its link-layer counters and its virtual clock are in reach.
pub trait Clocked: Scheme {
    /// `ledger().total_messages()`.
    fn total_messages(&self) -> u64;
    /// `transport().delivery_stats()`.
    fn delivery_stats(&self) -> DeliveryStats;
    /// The virtual clock's reading, in seconds.
    fn virtual_now(&self) -> f64;
    /// Moves the virtual clock forward to `t` (never backward): the next
    /// operation launches there, as a scheduled request does in `serve`.
    fn launch_at(&mut self, t: f64);
}

fn insert_answer<R>(result: Result<R, InsertError>, messages: impl Fn(&R) -> u64) -> InsertAnswer {
    match result {
        Ok(receipt) => InsertAnswer::Stored(messages(&receipt)),
        Err(InsertError::Undeliverable { transmissions, .. }) => {
            InsertAnswer::Undeliverable(transmissions)
        }
        Err(InsertError::Pool(_)) => InsertAnswer::Errored,
    }
}

impl Scheme for PoolSystem {
    const INSERT_SPAN: &'static str = "pool.insert_from";
    const QUERY_SPAN: &'static str = "pool.query_from";

    fn insert(&mut self, source: NodeId, event: Event) -> InsertAnswer {
        insert_answer(self.insert_from(source, event), |r| r.messages)
    }

    fn query(&mut self, sink: NodeId, query: &RangeQuery) -> Option<QueryAnswer> {
        self.query_from(sink, query).ok().map(|r| QueryAnswer {
            messages: r.cost.total(),
            elapsed: r.cost.elapsed,
            complete: r.completeness.is_complete(),
            fanout: r.relevant_cells,
            events: r.events,
        })
    }

    fn topology(&self) -> &Topology {
        PoolSystem::topology(self)
    }

    fn drain_legs(&mut self) -> Vec<Span> {
        drain(self.tracer_mut())
    }
}

impl Clocked for PoolSystem {
    fn total_messages(&self) -> u64 {
        self.ledger().total_messages()
    }

    fn delivery_stats(&self) -> DeliveryStats {
        self.transport().delivery_stats()
    }

    fn virtual_now(&self) -> f64 {
        self.transport().clock().now()
    }

    fn launch_at(&mut self, t: f64) {
        let clock = self.transport_mut().clock_mut();
        clock.seek(t.max(clock.now()));
    }
}

impl Scheme for DimSystem {
    const INSERT_SPAN: &'static str = "dim.insert_from";
    const QUERY_SPAN: &'static str = "dim.query_from";

    fn insert(&mut self, source: NodeId, event: Event) -> InsertAnswer {
        insert_answer(self.insert_from(source, event), |r| r.messages)
    }

    fn query(&mut self, sink: NodeId, query: &RangeQuery) -> Option<QueryAnswer> {
        self.query_from(sink, query).ok().map(|r| QueryAnswer {
            messages: r.cost.total(),
            elapsed: r.cost.elapsed,
            complete: r.unreached_zones.is_empty(),
            fanout: r.zones_visited,
            events: r.events,
        })
    }

    fn topology(&self) -> &Topology {
        DimSystem::topology(self)
    }

    fn drain_legs(&mut self) -> Vec<Span> {
        drain(self.tracer_mut())
    }
}

impl Clocked for DimSystem {
    fn total_messages(&self) -> u64 {
        self.ledger().total_messages()
    }

    fn delivery_stats(&self) -> DeliveryStats {
        self.transport().delivery_stats()
    }

    fn virtual_now(&self) -> f64 {
        self.transport().clock().now()
    }

    fn launch_at(&mut self, t: f64) {
        let clock = self.transport_mut().clock_mut();
        clock.seek(t.max(clock.now()));
    }
}

/// Nanoseconds between two instants.
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

/// Runs operations one at a time: times each call, folds it into the
/// digest and the op log, checks it against the oracle in the verification
/// round, and hands it to the replay in the traced run.
#[derive(Debug, Default)]
pub struct OpRunner<'a> {
    /// Present in the verification round: everything stored so far.
    pub oracle: Option<Oracle>,
    /// Present in the traced run.
    pub trace: Option<&'a mut TraceRun>,
    /// Digest so far.
    pub digest: Digest,
    /// Operations so far.
    pub log: OpLog,
    /// Simulated totals so far.
    pub sim: SimTotals,
    /// Latency of each insert so far, in nanoseconds.
    pub insert_lat_ns: Vec<u64>,
    /// Latency of each query so far, in nanoseconds.
    pub query_lat_ns: Vec<u64>,
    /// Host nanoseconds spent checking answers.
    pub verify_ns: u64,
    /// Timed inserts that were stored.
    pub stored: u64,
}

impl<'a> OpRunner<'a> {
    /// A runner for `pass`; in the verification round the oracle starts
    /// out holding `preloaded`.
    pub fn new(pass: Pass<'a>, preloaded: &[Event]) -> Self {
        OpRunner {
            oracle: pass.verify.then(|| Oracle::with(preloaded.to_vec())),
            trace: pass.trace,
            ..OpRunner::default()
        }
    }

    /// An untimed pass of the same operations (cache warm-up, preload):
    /// nothing is logged or digested, but the oracle learns what was
    /// stored and the replay's route cache sees the same lookups.
    pub fn warm<S: Scheme>(
        &mut self,
        sys: &mut S,
        inserts: &[(NodeId, Event)],
        queries: &[(NodeId, RangeQuery)],
    ) {
        for (source, event) in inserts {
            if let InsertAnswer::Stored(_) = sys.insert(*source, event.clone()) {
                if let Some(oracle) = &mut self.oracle {
                    oracle.store(event.clone());
                }
            }
            self.warm_replay(sys);
        }
        for (sink, query) in queries {
            let _ = sys.query(*sink, query);
            self.warm_replay(sys);
        }
    }

    /// Drains the legs of one warm operation into the replay's route cache
    /// (per operation, because the system's tracer is a bounded ring).
    fn warm_replay<S: Scheme>(&mut self, sys: &mut S) {
        if let Some(trace) = &mut self.trace {
            let legs = sys.drain_legs();
            trace.warm(sys.topology(), &legs);
        }
    }

    /// One timed insert.
    pub fn insert<S: Scheme>(&mut self, sys: &mut S, source: NodeId, event: Event) {
        let kept = (self.oracle.is_some() || self.trace.is_some()).then(|| event.clone());
        let start = Instant::now();
        let answer = sys.insert(source, event);
        let end = Instant::now();
        self.insert_lat_ns.push(ns_between(start, end));
        let (status, messages) = match answer {
            InsertAnswer::Stored(m) => (OpStatus::Ok, m),
            InsertAnswer::Undeliverable(m) => (OpStatus::Undeliverable, m),
            InsertAnswer::Errored => (OpStatus::Errored, 0),
        };
        self.digest.op(messages, 0, status == OpStatus::Ok);
        self.log.record(status);
        self.stored += u64::from(status == OpStatus::Ok);
        if status != OpStatus::Errored {
            self.sim.inserts += 1;
            self.sim.insert_messages += messages;
        }
        let Some(kept) = kept else { return };
        if let (Some(oracle), OpStatus::Ok) = (&mut self.oracle, status) {
            oracle.store(kept.clone());
        }
        if let Some(trace) = &mut self.trace {
            let legs = sys.drain_legs();
            trace.insert_done(S::INSERT_SPAN, (start, end), sys.topology(), legs, source, kept);
        }
    }

    /// One timed query. With `exact`, a complete answer must equal the
    /// oracle's; otherwise (and for incomplete answers) it must be a
    /// subset — the systems may miss events, never invent them.
    ///
    /// # Errors
    ///
    /// The violated expectation, in the verification round.
    pub fn query<S: Scheme>(
        &mut self,
        sys: &mut S,
        sink: NodeId,
        query: &RangeQuery,
        exact: bool,
    ) -> Result<(), String> {
        let start = Instant::now();
        let answer = sys.query(sink, query);
        let end = Instant::now();
        self.query_lat_ns.push(ns_between(start, end));
        let Some(answer) = answer else {
            self.digest.op(0, 0, false);
            self.log.record(OpStatus::Errored);
            return Ok(());
        };
        self.digest.op(answer.messages, answer.events.len() as u64, answer.complete);
        self.log.record(if answer.complete { OpStatus::Ok } else { OpStatus::Incomplete });

        self.sim.queries += 1;
        self.sim.query_messages += answer.messages;
        self.sim.virt_query_s.push(answer.elapsed);
        if let Some(trace) = &mut self.trace {
            let legs = sys.drain_legs();
            let (topology, query) = (sys.topology(), query.clone());
            trace.query_done(S::QUERY_SPAN, (start, end), topology, legs, query, answer.fanout);
        }
        if let Some(oracle) = &self.oracle {
            let check = Instant::now();
            let got = sorted_keys(&answer.events);
            let want = oracle.answer(query);
            let ok =
                if exact && answer.complete { got == want } else { is_sub_multiset(&got, &want) };
            self.verify_ns += ns_between(check, Instant::now());
            if !ok {
                return Err(format!(
                    "query {query} from {sink:?}: {} events returned, oracle has {} \
                     (complete = {}, exact expected = {exact})",
                    got.len(),
                    want.len(),
                    answer.complete
                ));
            }
        }
        Ok(())
    }

    /// Closes the round: `messages` is the ledger growth over the timed
    /// operations, `setup_s` what the round spent before them, `topology`
    /// the network the last operations ran on (replays still due run now).
    pub fn finish(mut self, topology: &Topology, setup_s: f64, messages: u64) -> Round {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.flush(topology);
        }
        Round {
            digest: self.digest.value(),
            log: self.log,
            sim: self.sim,
            verify_s: self.verify_ns as f64 / 1e9,
            sample: RoundSample {
                setup_s,
                messages,
                insert_lat_ns: self.insert_lat_ns,
                query_lat_ns: self.query_lat_ns,
                ..RoundSample::default()
            },
        }
    }
}

/// Pairs each op's node with its payload, cloning the payloads: the clones
/// are the inputs one round consumes, made before its clock starts.
pub fn paired<T: Clone>(nodes: &[NodeId], payloads: &[T]) -> Vec<(NodeId, T)> {
    nodes.iter().copied().zip(payloads.iter().cloned()).collect()
}
