//! `pool_churn_10k`: Pool with replication under continuous churn.
//!
//! Each round builds a fresh system, preloads it, then steps 40 epochs:
//! plan (10 joins, 20 deaths, 20 moves) → timed `apply_epoch` under a
//! 400-message repair budget → timed queries from live sinks → timed
//! inserts from live sources. The same layers the read-only workloads use
//! are here *written*: the topology mutates in place and compacts, the
//! transport re-planarises and empties its cache every epoch, and repairs
//! drain beside the reads.

use super::ops::{build_pool, pool_model_of};
use super::Scheme;
use super::{ns_between, OpRunner, Pass, Round, Workload};
use crate::inputs::{events, exponential_queries, pool_config, rng, uniform_nodes, Net, Stream};
use crate::trace::TraceRun;
use pool_core::config::PoolConfig;
use pool_core::dynamics::{ChurnConfig, ChurnPlanner, RepairQueue};
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_netsim::exec::derive_seed;
use pool_netsim::node::NodeId;
use rand::Rng;
use std::time::Instant;

/// Joins, deaths and moves per epoch.
const RATES: (usize, usize, usize) = (10, 20, 20);
/// Repair messages an epoch may spend.
const REPAIR_BUDGET: u64 = 400;

/// `pool_churn_10k`.
pub struct ChurnWorkload {
    net: Net,
    config: PoolConfig,
    seed: u64,
    preload: Vec<(NodeId, Event)>,
    epochs: usize,
    /// `epochs × queries_per_epoch` queries, consumed in order.
    queries: Vec<RangeQuery>,
    queries_per_epoch: usize,
    /// `epochs × inserts_per_epoch` events, consumed in order.
    events: Vec<Event>,
    inserts_per_epoch: usize,
}

impl ChurnWorkload {
    /// Deploys the network and generates a round's inputs.
    pub fn new(seed: u64, quick: bool) -> Self {
        let nodes = if quick { 500 } else { 10_000 };
        let preload_count = if quick { 300 } else { 10_000 };
        let epochs = if quick { 4 } else { 40 };
        let queries_per_epoch = if quick { 20 } else { 200 };
        let inserts_per_epoch = if quick { 5 } else { 50 };
        let net = Net::deploy(nodes);
        let mut all = events(seed, preload_count + epochs * inserts_per_epoch);
        let later = all.split_off(preload_count);
        let sources = uniform_nodes(seed, Stream::Sources, net.len(), preload_count);
        ChurnWorkload {
            config: pool_config(net.field).with_replication(),
            preload: sources.into_iter().zip(all).collect(),
            queries: exponential_queries(seed, epochs * queries_per_epoch),
            events: later,
            net,
            seed,
            epochs,
            queries_per_epoch,
            inserts_per_epoch,
        }
    }
}

impl Workload for ChurnWorkload {
    fn net(&self) -> &Net {
        &self.net
    }

    fn shape(&self) -> String {
        format!(
            "{} nodes, {} preloaded; per round: fresh system, {} × (epoch of {}/{}/{} \
             joins/deaths/moves under budget {REPAIR_BUDGET}, {} queries, {} inserts)",
            self.net.len(),
            self.preload.len(),
            self.epochs,
            RATES.0,
            RATES.1,
            RATES.2,
            self.queries_per_epoch,
            self.inserts_per_epoch
        )
    }

    fn round(&mut self, mut pass: Pass<'_>) -> Result<Round, String> {
        let start = Instant::now();
        let mut sys = build_pool(&self.net, &self.config);
        if let Some(trace) = pass.trace.as_deref_mut() {
            trace.root("pool.build_shared", start, Instant::now());
            trace.fresh_system(&self.net.topology);
        }
        let mut runner = OpRunner::new(pass, &[]);
        runner.warm(&mut sys, &self.preload, &[]);
        let setup_s = start.elapsed().as_secs_f64();

        let churn = ChurnConfig::new(derive_seed(self.seed, Stream::Churn as u64))
            .with_rates(RATES.0, RATES.1, RATES.2);
        let mut planner = ChurnPlanner::new(churn);
        let mut queue = RepairQueue::default();
        let mut pick = rng(self.seed, Stream::Sinks);
        let mut loaded = sys.store().len();
        if loaded != self.preload.len() {
            return Err(format!("preload stored {loaded} of {} events", self.preload.len()));
        }
        let (mut lost, mut unreachable) = (0usize, 0usize);
        let mut epoch_ns = Vec::with_capacity(self.epochs);
        let before = sys.ledger().total_messages();
        let mut repair_messages = 0u64;

        for epoch in 0..self.epochs {
            // The plan depends on who is alive, so it is drawn here — from
            // the round's own planner, outside every timed call.
            let plan = planner.plan(sys.topology(), self.net.field);
            let topology_before = runner.trace.is_some().then(|| sys.topology().clone());
            let t0 = Instant::now();
            let report = sys
                .apply_epoch(&plan, &mut queue, REPAIR_BUDGET)
                .map_err(|e| format!("epoch {epoch}: {e}"))?;
            let t1 = Instant::now();
            epoch_ns.push(ns_between(t0, t1));
            repair_messages += report.repair_messages;
            for word in [
                report.repair_messages,
                report.deferred_repairs,
                report.events_migrated as u64,
                report.events_recovered as u64,
                report.events_lost as u64,
                report.events_unreachable as u64,
            ] {
                runner.digest.word(word);
            }
            if let (Some(trace), Some(old)) = (runner.trace.as_deref_mut(), &topology_before) {
                let legs = sys.drain_legs();
                trace.epoch_done((t0, t1), (old, sys.topology()), &plan, &legs, &report);
            }

            // Every loaded event is visible, queued, lost or unreachable.
            // The queue's public length also counts re-backup tasks, which
            // hold no primary copy, so the identity brackets `loaded`; it is
            // exact whenever the queue is empty.
            lost += report.events_lost;
            unreachable += report.events_unreachable;
            let accounted = sys.store().len() + lost + unreachable;
            if accounted > loaded || loaded > accounted + queue.len() {
                return Err(format!(
                    "epoch {epoch}: visible {} + lost {lost} + unreachable {unreachable} + \
                     queued ≤ {} does not account for {loaded} loaded events",
                    sys.store().len(),
                    queue.len()
                ));
            }
            if report.repair_messages > REPAIR_BUDGET {
                return Err(format!(
                    "epoch {epoch}: {} repair messages exceed the budget",
                    report.repair_messages
                ));
            }

            let live = sys.topology().largest_component_members();
            let exact = queue.is_empty() && lost + unreachable == 0;
            let q0 = epoch * self.queries_per_epoch;
            for query in &self.queries[q0..q0 + self.queries_per_epoch] {
                let sink = live[pick.gen_range(0..live.len())];
                runner.query(&mut sys, sink, query, exact)?;
            }
            let e0 = epoch * self.inserts_per_epoch;
            for event in &self.events[e0..e0 + self.inserts_per_epoch] {
                let source = live[pick.gen_range(0..live.len())];
                let stored = runner.stored;
                runner.insert(&mut sys, source, event.clone());
                loaded += (runner.stored - stored) as usize;
            }
        }

        // Repairs are the epochs' messages, not the operations'.
        let messages = sys.ledger().total_messages() - before - repair_messages;
        let mut round = runner.finish(sys.topology(), setup_s, messages);
        round.sample.epoch_ns = epoch_ns;
        Ok(round)
    }

    fn new_trace(&self) -> TraceRun {
        TraceRun::new(&self.net.topology, pool_model_of(&self.net), None)
    }
}
