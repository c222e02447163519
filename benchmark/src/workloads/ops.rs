//! The insert-then-query workloads: `pool_cold_100k`, `pool_hot_10k`,
//! `dim_cold_100k`, and (with a fault stack, see [`super::faulty`])
//! `pool_faulty_3k`.
//!
//! Every round builds a fresh system over the shared topology, optionally
//! runs an untimed warm pass of the very same operations, then times every
//! insert and every query.

use super::{paired, Clocked, OpRunner, Pass, Round, Workload};
use crate::inputs::{
    cycle, events, exponential_queries, lattice_nodes, pool_config, pool_layout, uniform_nodes,
    Net, Stream, DIMS,
};
use crate::trace::{FaultStack, SchemeModel, TraceRun};
use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_dim::system::DimSystem;
use pool_dim::zone::ZoneTree;
use pool_netsim::node::NodeId;
use pool_transport::{DeliveryStats, TransportKind};
use std::time::Instant;

/// Sizes of one insert-then-query round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Network size.
    pub nodes: usize,
    /// Inserts per round.
    pub inserts: usize,
    /// Queries per round.
    pub queries: usize,
    /// Side of the source lattice (0: sources drawn uniformly per insert).
    pub source_lattice: usize,
    /// Side of the sink lattice (0: sinks drawn uniformly per query).
    pub sink_lattice: usize,
    /// Whether an untimed pass of the same ops warms the route cache first.
    pub warm: bool,
    /// Virtual seconds between query launches (0: each query launches when
    /// the previous one ends). A schedule leaves gaps in virtual time where
    /// faults can strike with no operation in flight.
    pub query_spacing: f64,
}

/// A round's inserts: who detects which event.
pub type Inserts = Vec<(NodeId, Event)>;
/// A round's queries: who asks what.
pub type Queries = Vec<(NodeId, RangeQuery)>;

/// One insert-then-query workload over scheme `S`.
pub struct OpsWorkload<S> {
    net: Net,
    shape: Shape,
    inserts: Inserts,
    queries: Queries,
    build: Box<dyn Fn(&Net) -> S>,
    build_span: &'static str,
    model: fn(&Net) -> SchemeModel,
    faults: Option<FaultStack>,
    /// Link-layer counters of the most recent round's system.
    last_stats: DeliveryStats,
}

/// The network and the operations of one round.
pub struct Inputs {
    /// The deployed network.
    pub net: Net,
    /// The round's inserts.
    pub inserts: Inserts,
    /// The round's queries.
    pub queries: Queries,
}

/// Deploys the network and generates the round's operations.
pub fn generate(seed: u64, shape: Shape) -> Inputs {
    let net = Net::deploy(shape.nodes);
    let sources = match shape.source_lattice {
        0 => uniform_nodes(seed, Stream::Sources, net.len(), shape.inserts),
        side => cycle(&lattice_nodes(&net, side), shape.inserts),
    };
    let sinks = match shape.sink_lattice {
        0 => uniform_nodes(seed, Stream::Sinks, net.len(), shape.queries),
        side => cycle(&lattice_nodes(&net, side), shape.queries),
    };
    Inputs {
        inserts: paired(&sources, &events(seed, shape.inserts)),
        queries: paired(&sinks, &exponential_queries(seed, shape.queries)),
        net,
    }
}

impl<S> OpsWorkload<S> {
    /// Assembles a workload from generated inputs and a system builder.
    pub fn assemble(
        shape: Shape,
        inputs: Inputs,
        build: Box<dyn Fn(&Net) -> S>,
        build_span: &'static str,
        model: fn(&Net) -> SchemeModel,
        faults: Option<FaultStack>,
    ) -> Self {
        OpsWorkload {
            net: inputs.net,
            shape,
            inserts: inputs.inserts,
            queries: inputs.queries,
            build,
            build_span,
            model,
            faults,
            last_stats: DeliveryStats::default(),
        }
    }

    /// The fault stack the systems are built with, if any.
    #[cfg(test)]
    pub fn faults(&self) -> Option<&FaultStack> {
        self.faults.as_ref()
    }
}

impl<S: Clocked> Workload for OpsWorkload<S> {
    fn net(&self) -> &Net {
        &self.net
    }

    fn shape(&self) -> String {
        let s = self.shape;
        format!(
            "{} nodes; per round: fresh system{}, {} inserts, {} queries",
            s.nodes,
            if s.warm { ", untimed warm pass of the same ops" } else { "" },
            s.inserts,
            s.queries
        )
    }

    fn round(&mut self, mut pass: Pass<'_>) -> Result<Round, String> {
        // This round's copies of the events: `insert_from` consumes them.
        let inserts = self.inserts.clone();
        let start = Instant::now();
        let mut sys = (self.build)(&self.net);
        let built = Instant::now();
        if let Some(trace) = pass.trace.as_deref_mut() {
            trace.root(self.build_span, start, built);
            trace.fresh_system(&self.net.topology);
        }
        let mut runner = OpRunner::new(pass, &[]);
        if self.shape.warm {
            runner.warm(&mut sys, &self.inserts, &self.queries);
            if let Some(trace) = runner.trace.as_deref_mut() {
                trace.mark_cache();
            }
        }
        let setup_s = start.elapsed().as_secs_f64();
        let before = sys.total_messages();
        for (source, event) in inserts {
            runner.insert(&mut sys, source, event);
        }
        let queries_open = sys.virtual_now();
        for (i, (sink, query)) in self.queries.iter().enumerate() {
            if self.shape.query_spacing > 0.0 {
                sys.launch_at(launch_time(queries_open, self.shape.query_spacing, i));
            }
            runner.query(&mut sys, *sink, query, true)?;
        }
        let messages = sys.total_messages() - before;
        self.last_stats = sys.delivery_stats();
        Ok(runner.finish(sys.topology(), setup_s, messages))
    }

    fn new_trace(&self) -> TraceRun {
        TraceRun::new(&self.net.topology, (self.model)(&self.net), self.faults.clone())
    }

    fn layer_rows(&mut self) -> Vec<(&'static str, f64)> {
        let stats = self.last_stats;
        vec![
            ("transport.lossy.hop_failures", stats.hops_failed as f64),
            ("transport.lossy.attempts_p99", attempts_p99(&stats)),
            ("transport.faults.detours", stats.detour_routes as f64),
        ]
    }
}

/// When query `i` of a spaced schedule launches.
pub fn launch_time(queries_open: f64, spacing: f64, i: usize) -> f64 {
    queries_open + (i + 1) as f64 * spacing
}

/// 99th percentile of transmissions per hop: the first histogram bucket at
/// which 99 % of hops are covered (bucket `i` counts hops that took `i + 1`
/// transmissions; the last bucket is open-ended). 0 without a lossy layer.
fn attempts_p99(stats: &DeliveryStats) -> f64 {
    let total: u64 = stats.attempts_histogram.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut seen = 0u64;
    for (i, &count) in stats.attempts_histogram.iter().enumerate() {
        seen += count;
        if seen * 100 >= total * 99 {
            return (i + 1) as f64;
        }
    }
    stats.attempts_histogram.len() as f64
}

/// Builds the Pool system of the ideal-radio workloads.
pub fn build_pool(net: &Net, config: &PoolConfig) -> PoolSystem {
    PoolSystem::build_shared(net.topology.clone(), net.field, config.clone())
        .expect("the connected benchmark network hosts the pools")
}

/// The Pool resolver model of `net`'s fixed layout.
pub fn pool_model_of(net: &Net) -> SchemeModel {
    let (grid, layout) = pool_layout(net.field);
    SchemeModel::Pool { layout, grid }
}

fn dim_model_of(net: &Net) -> SchemeModel {
    SchemeModel::Dim { tree: ZoneTree::build(&net.topology, net.field) }
}

fn pool_workload(seed: u64, shape: Shape) -> OpsWorkload<PoolSystem> {
    let inputs = generate(seed, shape);
    let config = pool_config(inputs.net.field);
    OpsWorkload::assemble(
        shape,
        inputs,
        Box::new(move |net| build_pool(net, &config)),
        "pool.build_shared",
        pool_model_of,
        None,
    )
}

/// `pool_cold_100k`: uniformly random sources and sinks over 100 000 nodes,
/// a fresh system (hence an empty route cache) every round.
pub fn pool_cold(seed: u64, quick: bool) -> OpsWorkload<PoolSystem> {
    pool_workload(seed, cold_shape(quick))
}

fn cold_shape(quick: bool) -> Shape {
    Shape {
        nodes: if quick { 600 } else { 100_000 },
        inserts: if quick { 300 } else { 10_000 },
        queries: if quick { 60 } else { 1_000 },
        source_lattice: 0,
        sink_lattice: 0,
        warm: false,
        query_spacing: 0.0,
    }
}

/// `pool_hot_10k`: 256 fixed sources and 16 fixed sinks over 10 000 nodes;
/// the warm pass leaves every route of the timed pass in the LRU.
pub fn pool_hot(seed: u64, quick: bool) -> OpsWorkload<PoolSystem> {
    pool_workload(
        seed,
        Shape {
            nodes: if quick { 400 } else { 10_000 },
            inserts: if quick { 400 } else { 20_000 },
            queries: if quick { 100 } else { 10_000 },
            source_lattice: if quick { 4 } else { 16 },
            sink_lattice: if quick { 2 } else { 4 },
            warm: true,
            query_spacing: 0.0,
        },
    )
}

/// `dim_cold_100k`: DIM on exactly `pool_cold_100k`'s topology, events,
/// sources, sinks and queries.
pub fn dim_cold(seed: u64, quick: bool) -> OpsWorkload<DimSystem> {
    let shape = cold_shape(quick);
    OpsWorkload::assemble(
        shape,
        generate(seed, shape),
        Box::new(|net| {
            DimSystem::build_with_substrate(
                net.topology.as_ref().clone(),
                net.field,
                DIMS,
                TransportKind::Cached,
                None,
            )
            .expect("the connected benchmark network hosts the zone tree")
        }),
        "dim.build_with_substrate",
        dim_model_of,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_percentile_reads_the_histogram() {
        let mut stats = DeliveryStats::default();
        assert_eq!(attempts_p99(&stats), 0.0);
        stats.attempts_histogram[0] = 980;
        stats.attempts_histogram[1] = 15;
        stats.attempts_histogram[2] = 5;
        assert_eq!(attempts_p99(&stats), 2.0, "99 % of hops needed at most 2 transmissions");
    }
}
