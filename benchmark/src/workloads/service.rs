//! `service_mixed_2t`: the sharded service front end, in host time.
//!
//! **Phase A** is a closed loop — clients `submit` a request stream (80 %
//! queries from 64 sinks, 20 % inserts) and wait for every reply, because
//! that is what `submit` callers do — run twice per round: one client alone
//! (its latencies are the workload's latencies), then two client threads at
//! once, each with its own stream (their wall time gives the throughputs).
//! **Phase B**
//! replays an open-loop burst schedule through `serve`; its arrival process
//! exists only in virtual time, so it runs as fast as the host allows and
//! reports scheduled requests per host second. Every arm runs on a fresh,
//! preloaded handle.
//!
//! Under two threads answers depend on interleaving. The verification round
//! therefore runs both streams on one thread (answers must equal the
//! oracle, and the exact simulated metrics come from there); timed rounds
//! check invariants — message conservation, and each answer between the
//! oracle over what the thread itself had written and the oracle over
//! everything anyone writes — and digest only what no interleaving changes.

use super::ops::pool_model_of;
use super::{
    ns_between, Concurrent, InsertAnswer, OpRunner, Pass, QueryAnswer, Round, Scheme, Workload,
};
use crate::inputs::{
    events, exponential_queries, lattice_nodes, pool_config, rng, Net, Stream, DIMS,
};
use crate::oracle::{
    is_sub_multiset, key_of, satisfies, sorted_keys, Digest, EventKey, OpLog, OpStatus, Oracle,
};
use crate::stats::percentile;
use crate::trace::{drain, TraceRun};
use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_service::{
    AdmissionConfig, PoolBackend, Request, Response, ScheduledRequest, ServeOutcome, ServiceHandle,
};
use pool_transport::Span;
use rand::Rng;
use std::sync::Barrier;
use std::time::Instant;

/// Shards of the Pool backend (one per pool dimension).
const SHARDS: usize = DIMS;
/// Client threads of the closed loop: `nproc` on the benchmark host.
const CLIENTS: usize = 2;
/// Worker threads `serve` fans shards out over.
const SERVE_JOBS: usize = 2;
/// Reads per burst window of the open-loop schedule.
const BURST: usize = 8;
/// Hot query templates the bursts replay.
const TEMPLATES: usize = 16;

type Handle = ServiceHandle<PoolBackend>;

/// `service_mixed_2t`.
pub struct ServiceWorkload {
    net: Net,
    config: PoolConfig,
    preload: Vec<Request>,
    /// One closed-loop request stream per client thread.
    streams: Vec<Vec<Request>>,
    /// The open-loop burst schedule.
    schedule: Vec<ScheduledRequest>,
    /// Per stream, per request: the oracle's answer over the preload alone
    /// (filled by the verification round, reused by every timed round).
    base_answers: Vec<Vec<Vec<EventKey>>>,
}

/// What one client thread measured.
struct ClientLog {
    started: Instant,
    ended: Instant,
    /// Host latency and response of every request, in stream order.
    replies: Vec<(u64, Response)>,
}

impl ServiceWorkload {
    /// Deploys the network and generates the streams and the schedule.
    pub fn new(seed: u64, quick: bool) -> Self {
        let nodes = if quick { 400 } else { 10_000 };
        let preload_count = if quick { 300 } else { 10_000 };
        let per_client = if quick { 150 } else { 4_000 };
        let scheduled = if quick { 200 } else { 10_000 };
        let net = Net::deploy(nodes);
        let n = net.len() as u32;
        let mut rng = rng(seed, Stream::Service);
        let sinks = lattice_nodes(&net, if quick { 3 } else { 8 });

        let mut all_events = events(seed, preload_count + CLIENTS * per_client + scheduled);
        let mut next_event = || all_events.pop().expect("enough events generated");
        let preload = (0..preload_count)
            .map(|_| Request::Insert { source: NodeId(rng.gen_range(0..n)), event: next_event() })
            .collect();

        let mut queries = exponential_queries(seed, CLIENTS * per_client).into_iter();
        let streams = (0..CLIENTS)
            .map(|_| {
                (0..per_client)
                    .map(|_| {
                        let query = queries.next().expect("one query generated per request");
                        if rng.gen_bool(0.2) {
                            let source = NodeId(rng.gen_range(0..n));
                            Request::Insert { source, event: next_event() }
                        } else {
                            Request::Query { sink: sinks[rng.gen_range(0..sinks.len())], query }
                        }
                    })
                    .collect()
            })
            .collect();

        // Bursts of `BURST` requests inside one 50 ms admission window, one
        // burst every 0.4 virtual seconds; a burst replays one template from
        // one sink with small jitter, and every fifth request is a write.
        let templates: Vec<Vec<(f64, f64)>> = (0..TEMPLATES)
            .map(|_| {
                (0..DIMS)
                    .map(|_| {
                        let centre = rng.gen_range(0.25..0.75);
                        (centre - 0.12, centre + 0.12)
                    })
                    .collect()
            })
            .collect();
        let schedule = (0..scheduled)
            .map(|i| {
                let burst = i / BURST;
                let arrival = burst as f64 * 0.4 + (i % BURST) as f64 * 0.004;
                let request = if i % 5 == 4 {
                    Request::Insert { source: NodeId(rng.gen_range(0..n)), event: next_event() }
                } else {
                    let ranges = templates[burst % TEMPLATES]
                        .iter()
                        .map(|&(lo, hi)| {
                            (lo + rng.gen_range(-0.03..0.03), hi + rng.gen_range(-0.03..0.03))
                        })
                        .collect();
                    Request::Query {
                        sink: sinks[burst % sinks.len()],
                        query: RangeQuery::exact(ranges).expect("templates stay inside [0, 1]"),
                    }
                };
                ScheduledRequest { arrival, request }
            })
            .collect();

        ServiceWorkload {
            config: pool_config(net.field),
            net,
            preload,
            streams,
            schedule,
            base_answers: Vec::new(),
        }
    }

    /// A fresh handle with the preload stored. Returns the handle and the
    /// host seconds it took.
    fn fresh_handle(&self) -> Result<(Handle, f64), String> {
        let start = Instant::now();
        let (backend, shards) = PoolBackend::build(
            self.net.topology.as_ref().clone(),
            self.net.field,
            self.config.clone(),
            SHARDS,
        )
        .map_err(|e| format!("service backend: {e}"))?;
        let handle = ServiceHandle::new(backend, shards);
        for request in &self.preload {
            if !handle.submit(request).delivered {
                return Err(format!("preload {request:?} did not land"));
            }
        }
        Ok((handle, start.elapsed().as_secs_f64()))
    }

    fn preloaded_events(&self) -> Vec<Event> {
        self.preload.iter().filter_map(event_of).cloned().collect()
    }

    /// Phase A on one thread, through the shared runner: the verification
    /// round (answers must equal the oracle) and the traced run.
    fn phase_a_serial(&mut self, pass: Pass<'_>) -> Result<(Round, PhaseA), String> {
        let (handle, setup_s) = self.fresh_handle()?;
        let before = handle.total_messages();
        let verify = pass.verify;
        let mut runner = OpRunner::new(pass, &self.preloaded_events());
        let mut sys = Submitter { handle: &handle, topology: &self.net.topology };
        let mut one_client = 0;
        for (client, stream) in self.streams.iter().enumerate() {
            for request in stream {
                match request {
                    Request::Insert { source, event } => {
                        runner.insert(&mut sys, *source, event.clone());
                    }
                    Request::Query { sink, query } => runner.query(&mut sys, *sink, query, true)?,
                    other => unreachable!("the streams hold inserts and queries, not {other:?}"),
                }
            }
            if client == 0 {
                // Up to here this pass is the timed rounds' one-client pass:
                // the first stream, alone, on a fresh handle.
                one_client = runner.digest.value();
            }
        }
        if verify {
            let base = Oracle::with(self.preloaded_events());
            self.base_answers = self
                .streams
                .iter()
                .map(|stream| {
                    stream.iter().map(|r| query_of(r).map_or(vec![], |q| base.answer(q))).collect()
                })
                .collect();
        }
        let facts = PhaseA {
            one_client,
            queries: runner.sim.queries,
            inserts: runner.sim.inserts,
            inserts_stored: runner.stored,
            insert_messages: runner.sim.insert_messages,
            store_len: store_len(&handle),
        };
        let messages = handle.total_messages() - before;
        Ok((runner.finish(&self.net.topology, setup_s, messages), facts))
    }

    /// Phase A as measured. First one client alone runs the first stream:
    /// its latencies are the workload's latencies. Then, on another fresh
    /// handle, `CLIENTS` threads run all streams at once: their wall time
    /// gives the throughputs. (Latency under contending clients is mostly
    /// futex wake-ups, whose cost the hypervisor sets: on one binary it moved
    /// between 16 and 33 µs from one hour to the next, which no bound can
    /// hold. It is reported with the per-layer metrics instead.)
    fn phase_a_timed(&self) -> Result<(Round, PhaseA), String> {
        let mut round = Round::default();
        let mut digest = Digest::default();
        let (handle, setup_one_s) = self.fresh_handle()?;
        let before = handle.total_messages();
        let alone = closed_loop(&handle, &self.streams[..1]);
        round.sample.messages = handle.total_messages() - before;
        for (request, (lat_ns, response)) in self.streams[0].iter().zip(&alone[0].replies) {
            round.log.record(status_of(response));
            let matches = response.events.len() as u64;
            digest.op(response.messages, matches, response.delivered);
            match request {
                Request::Insert { .. } => round.sample.insert_lat_ns.push(*lat_ns),
                _ => round.sample.query_lat_ns.push(*lat_ns),
            }
        }
        drop(handle);

        let (handle, setup_all_s) = self.fresh_handle()?;
        let before = handle.total_messages();
        let clients = closed_loop(&handle, &self.streams);
        let growth = handle.total_messages() - before;
        let all_writes: Vec<&Event> = self.streams.iter().flatten().filter_map(event_of).collect();
        let mut facts = PhaseA {
            one_client: digest.value(),
            store_len: store_len(&handle),
            ..PhaseA::default()
        };
        let mut charged = 0u64;
        for ((stream, client), base) in self.streams.iter().zip(&clients).zip(&self.base_answers) {
            let mut own_writes: Vec<&Event> = Vec::new();
            for ((request, (_, response)), base_answer) in
                stream.iter().zip(&client.replies).zip(base)
            {
                charged += response.messages;
                round.log.record(status_of(response));
                match request {
                    Request::Insert { event, .. } => {
                        facts.inserts += 1;
                        facts.inserts_stored += u64::from(response.delivered);
                        facts.insert_messages += response.messages;
                        own_writes.push(event);
                    }
                    Request::Query { query, .. } => {
                        facts.queries += 1;
                        check_between(query, response, base_answer, &own_writes, &all_writes)?;
                    }
                    other => unreachable!("the streams hold inserts and queries, not {other:?}"),
                }
            }
        }
        if charged != growth {
            return Err(format!(
                "phase A: responses report {charged} messages, the shard ledgers grew by {growth}"
            ));
        }
        round.sample.setup_s = setup_one_s + setup_all_s;
        round.sample.concurrent = Some(Concurrent {
            inserts: facts.inserts,
            queries: facts.queries,
            wall_ns: wall_ns(&clients),
        });
        Ok((round, facts))
    }

    /// Phase B: the burst schedule through `serve` on a fresh handle.
    fn phase_b(
        &self,
        admission: &AdmissionConfig,
        jobs: usize,
        verify: bool,
        trace: Option<&mut TraceRun>,
    ) -> Result<(ServeOutcome, u64, f64), String> {
        let (handle, setup_s) = self.fresh_handle()?;
        let start = Instant::now();
        let outcome = handle.serve(&self.schedule, admission, jobs);
        let end = Instant::now();
        if let Some(trace) = trace {
            trace.root("service.serve", start, end);
        }
        if verify {
            self.check_served(&outcome)?;
        }
        Ok((outcome, ns_between(start, end), setup_s))
    }

    /// Every served answer lies between the oracle over the preload plus the
    /// writes scheduled before it and the oracle over every write: a read
    /// coalesced into a later-launching unit may see writes that arrived
    /// after it, never fewer than those that arrived before.
    fn check_served(&self, outcome: &ServeOutcome) -> Result<(), String> {
        let base = Oracle::with(self.preloaded_events());
        let writes: Vec<&Event> =
            self.schedule.iter().filter_map(|sr| event_of(&sr.request)).collect();
        let mut earlier = 0usize;
        for (sr, response) in self.schedule.iter().zip(&outcome.responses) {
            match &sr.request {
                Request::Query { query, .. } => check_between(
                    query,
                    response,
                    &base.answer(query),
                    &writes[..earlier],
                    &writes,
                )?,
                _ => earlier += 1,
            }
        }
        Ok(())
    }
}

/// The interleaving-independent facts of phase A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PhaseA {
    /// Digest of the one-client pass over the first stream.
    one_client: u64,
    queries: u64,
    inserts: u64,
    inserts_stored: u64,
    insert_messages: u64,
    store_len: u64,
}

fn event_of(request: &Request) -> Option<&Event> {
    match request {
        Request::Insert { event, .. } => Some(event),
        _ => None,
    }
}

fn query_of(request: &Request) -> Option<&RangeQuery> {
    match request {
        Request::Query { query, .. } => Some(query),
        _ => None,
    }
}

fn status_of(response: &Response) -> OpStatus {
    if response.delivered {
        OpStatus::Ok
    } else {
        OpStatus::NotDelivered
    }
}

fn store_len(handle: &Handle) -> u64 {
    (0..handle.shard_count())
        .map(|s| handle.with_shard(s, |sh| sh.system.store().len() as u64))
        .sum()
}

/// `lower ⊆ answer ⊆ upper`, where lower = `base` + matching `surely`
/// writes and upper = `base` + matching `maybe` writes.
fn check_between(
    query: &RangeQuery,
    response: &Response,
    base: &[EventKey],
    surely: &[&Event],
    maybe: &[&Event],
) -> Result<(), String> {
    let with = |writes: &[&Event]| {
        let mut keys = base.to_vec();
        keys.extend(writes.iter().filter(|e| satisfies(query, e)).map(|e| key_of(e)));
        keys.sort_unstable();
        keys
    };
    let got = sorted_keys(&response.events);
    let (lower, upper) = (with(surely), with(maybe));
    if is_sub_multiset(&lower, &got) && is_sub_multiset(&got, &upper) {
        Ok(())
    } else {
        Err(format!(
            "query {query}: {} events returned, expected between {} and {}",
            got.len(),
            lower.len(),
            upper.len()
        ))
    }
}

/// Runs each stream on its own thread against `handle`; every client waits
/// for each reply before sending its next request.
fn closed_loop(handle: &Handle, streams: &[Vec<Request>]) -> Vec<ClientLog> {
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .iter()
            .map(|stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut replies = Vec::with_capacity(stream.len());
                    barrier.wait();
                    let started = Instant::now();
                    for request in stream {
                        let t0 = Instant::now();
                        let response = handle.submit(request);
                        replies.push((ns_between(t0, Instant::now()), response));
                    }
                    ClientLog { started, ended: Instant::now(), replies }
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("a client thread panicked")).collect()
    })
}

/// From the first client's start to the last one's end, in nanoseconds.
fn wall_ns(clients: &[ClientLog]) -> u64 {
    let started = clients.iter().map(|c| c.started).min().expect("clients ran");
    let ended = clients.iter().map(|c| c.ended).max().expect("clients ran");
    ns_between(started, ended)
}

/// What a closed loop over some streams measured, as a whole.
struct LoopStats {
    req_per_s: f64,
    /// Mean host microseconds of one `submit`.
    mean_us: f64,
    /// Host microseconds of every query `submit`.
    query_us: Vec<f64>,
}

fn loop_stats(handle: &Handle, streams: &[Vec<Request>]) -> LoopStats {
    let clients = closed_loop(handle, streams);
    let requests: usize = clients.iter().map(|c| c.replies.len()).sum();
    let busy_ns: u64 = clients.iter().flat_map(|c| c.replies.iter().map(|r| r.0)).sum();
    let query_us = streams
        .iter()
        .zip(&clients)
        .flat_map(|(stream, client)| stream.iter().zip(&client.replies))
        .filter(|(request, _)| request.is_read())
        .map(|(_, (lat_ns, _))| *lat_ns as f64 / 1e3)
        .collect();
    LoopStats {
        req_per_s: requests as f64 / (wall_ns(&clients) as f64 / 1e9),
        mean_us: busy_ns as f64 / requests as f64 / 1e3,
        query_us,
    }
}

/// `submit` behind the runner's scheme face (one thread only).
struct Submitter<'h> {
    handle: &'h Handle,
    topology: &'h Topology,
}

impl Scheme for Submitter<'_> {
    const INSERT_SPAN: &'static str = "service.submit.insert";
    const QUERY_SPAN: &'static str = "service.submit.query";

    fn insert(&mut self, source: NodeId, event: Event) -> InsertAnswer {
        let response = self.handle.submit(&Request::Insert { source, event });
        if response.delivered {
            InsertAnswer::Stored(response.messages)
        } else {
            InsertAnswer::Undeliverable(response.messages)
        }
    }

    fn query(&mut self, sink: NodeId, query: &RangeQuery) -> Option<QueryAnswer> {
        let response = self.handle.submit(&Request::Query { sink, query: query.clone() });
        Some(QueryAnswer {
            messages: response.messages,
            elapsed: response.latency,
            complete: response.delivered,
            fanout: response.relevant,
            events: response.events,
        })
    }

    fn topology(&self) -> &Topology {
        self.topology
    }

    fn drain_legs(&mut self) -> Vec<Span> {
        (0..self.handle.shard_count())
            .flat_map(|s| self.handle.with_shard(s, |sh| drain(sh.system.tracer_mut())))
            .collect()
    }
}

impl Workload for ServiceWorkload {
    fn net(&self) -> &Net {
        &self.net
    }

    fn shape(&self) -> String {
        format!(
            "{} nodes, {SHARDS} shards, {} preloaded, fresh handle per arm; per round: 1 client × \
             {per_client} closed-loop requests (latencies), {CLIENTS} client threads × \
             {per_client} (throughputs), then serve(jobs = {SERVE_JOBS}) over {} scheduled requests",
            self.net.len(),
            self.preload.len(),
            self.schedule.len(),
            per_client = self.streams[0].len()
        )
    }

    fn round(&mut self, pass: Pass<'_>) -> Result<Round, String> {
        let Pass { verify, serial, mut trace } = pass;
        let (mut round, facts) = if verify || serial {
            self.phase_a_serial(Pass { verify, serial, trace: trace.as_deref_mut() })?
        } else {
            if self.base_answers.is_empty() {
                return Err("the verification round must run before a threaded round".into());
            }
            self.phase_a_timed()?
        };
        let (outcome, serve_ns, setup_b_s) =
            self.phase_b(&AdmissionConfig::default(), SERVE_JOBS, verify, trace)?;
        let mut digest = Digest::default();
        for word in [
            facts.one_client,
            facts.queries,
            facts.inserts,
            facts.inserts_stored,
            facts.insert_messages,
            facts.store_len,
        ] {
            digest.word(word);
        }
        let mut served = OpLog::default();
        for response in &outcome.responses {
            digest.op(response.messages, response.events.len() as u64, response.delivered);
            served.record(status_of(response));
        }
        round.digest = digest.value();
        round.log.merge(&served);
        round.sample.setup_s += setup_b_s;
        round.sample.serve = Some((serve_ns, self.schedule.len() as u64));
        Ok(round)
    }

    fn new_trace(&self) -> TraceRun {
        TraceRun::new(&self.net.topology, pool_model_of(&self.net), None)
    }

    /// The arms no span can show: one client instead of two, the same ops
    /// on one monolithic `PoolSystem`, `serve` on one worker, and `serve`
    /// without coalescing.
    fn layer_rows(&mut self) -> Vec<(&'static str, f64)> {
        let arm = |streams: &[Vec<Request>]| {
            let (handle, _) = self.fresh_handle().expect("the preload landed in earlier rounds");
            loop_stats(&handle, streams)
        };
        let two = arm(&self.streams);
        // One client sends both streams back to back: the same requests.
        let merged: Vec<Request> = self.streams.iter().flatten().cloned().collect();
        let one = arm(std::slice::from_ref(&merged));

        let mut mono = super::ops::build_pool(&self.net, &self.config);
        for request in &self.preload {
            if let Request::Insert { source, event } = request {
                let _ = mono.insert(*source, event.clone());
            }
        }
        let mut runner = OpRunner::default();
        for request in &merged {
            match request {
                Request::Insert { source, event } => {
                    runner.insert(&mut mono, *source, event.clone())
                }
                Request::Query { sink, query } => {
                    let _ = runner.query(&mut mono, *sink, query, false);
                }
                _ => {}
            }
        }
        let mono_round = runner.finish(&self.net.topology, 0.0, 0);
        let mono_us = mono_round.sample.op_ns() as f64 / merged.len() as f64 / 1e3;

        let serve = |admission: AdmissionConfig, jobs: usize| {
            self.phase_b(&admission, jobs, false, None)
                .expect("the preload landed in earlier rounds")
        };
        let scheduled = self.schedule.len() as f64;
        let (coalesced, _, _) = serve(AdmissionConfig::default(), SERVE_JOBS);
        let (_, jobs1_ns, _) = serve(AdmissionConfig::default(), 1);
        let (_, nc_ns, _) = serve(AdmissionConfig::no_coalescing(), SERVE_JOBS);
        vec![
            ("service.handle.submit_1t_req_per_s", one.req_per_s),
            ("service.handle.scaling_2t", two.req_per_s / one.req_per_s),
            ("service.handle.query_us_p50_2t", percentile(&two.query_us, 50.0)),
            ("service.handle.query_us_p99_2t", percentile(&two.query_us, 99.0)),
            ("service.handle.submit_overhead_us", one.mean_us - mono_us),
            ("service.handle.serve_jobs1_req_per_s", scheduled / (jobs1_ns as f64 / 1e9)),
            ("service.handle.serve_nc_req_per_s", scheduled / (nc_ns as f64 / 1e9)),
            ("service.admission.coalesce_ratio", coalesced.coalesced_requests as f64 / scheduled),
            ("service.admission.units_per_req", coalesced.units as f64 / scheduled),
        ]
    }
}
