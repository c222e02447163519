//! The inputs: the deployed network, and the seed-derived traffic on it.
//!
//! Everything a workload feeds the system is generated here, before any
//! clock starts. The *deployment* of a workload is fixed — node placement
//! for a given network size never changes, like a database benchmark's
//! schema and scale factor — and the *traffic* (events, who detects them,
//! queries, who asks, churn plans, the loss process) is drawn from `--seed`
//! alone: the same seed gives the same inputs on every run, another seed
//! other traffic on the same network. Each kind of input draws from its own
//! derived RNG stream so changing one count never shifts another input.
//!
//! Two choices keep seed-to-seed spread low without touching what is
//! measured: query *shapes* are fixed (each dimension takes the exact
//! quantiles of the exponential distribution, paired by a constant shuffle,
//! so no seed draws a lucky tail; the seed places the ranges), and fixed
//! source/sink sets sit on a lattice.

use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::grid::{CellCoord, Grid};
use pool_core::layout::PoolLayout;
use pool_core::query::RangeQuery;
use pool_netsim::deployment::Deployment;
use pool_netsim::exec::derive_seed;
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::{Node, NodeId};
use pool_netsim::topology::Topology;
use pool_transport::TransportKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Event dimensionality (the paper's k = 3).
pub const DIMS: usize = 3;
/// Radio range in metres (§5.1).
pub const RADIO: f64 = 40.0;
/// Mean neighbourhood size (§5.1).
pub const NEIGHBORS: f64 = 20.0;
/// How often the topology is built to take `setup_s`'s median.
const TOPOLOGY_BUILDS: usize = 3;
/// Placement seed of every deployment.
const DEPLOYMENT_SEED: u64 = 0x9001_DC50;
/// Seed of the fixed pairing of range sizes into query shapes.
const SHAPE_SEED: u64 = 0x005A_A9E5;
/// Mean query range size per dimension (the paper's Figure 6(b)).
const MEAN_RANGE: f64 = 0.1;

/// RNG streams, one per kind of input.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Event attribute values.
    Events = 2,
    /// Nodes that detect events.
    Sources = 3,
    /// Nodes that issue queries.
    Sinks = 4,
    /// Query ranges.
    Queries = 5,
    /// Churn plans.
    Churn = 6,
    /// The link-loss process.
    Loss = 7,
    /// Service request mix.
    Service = 8,
    /// Probe input tables.
    Probes = 9,
}

/// The RNG of `stream` under `seed`.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream as u64))
}

/// One deployed network: node list, field, and the built topology.
#[derive(Debug, Clone)]
pub struct Net {
    /// The connected unit-disk topology, shared by every system of the run.
    pub topology: Arc<Topology>,
    /// The deployment field.
    pub field: Rect,
    /// The deployed nodes (kept so probes can rebuild the topology).
    pub nodes: Vec<Node>,
    /// Host seconds of each `Topology::build` over `nodes`.
    pub build_s: Vec<f64>,
}

impl Net {
    /// Deploys `n` nodes at the paper's density — the same placement every
    /// time, re-drawn only until the network is connected — and builds the
    /// topology [`TOPOLOGY_BUILDS`] times so set-up time has a median.
    pub fn deploy(n: usize) -> Net {
        let mut placement = derive_seed(DEPLOYMENT_SEED, n as u64);
        loop {
            let deployment = Deployment::paper_setting(n, RADIO, NEIGHBORS, placement)
                .expect("valid deployment parameters");
            let nodes = deployment.nodes();
            let mut build_s = Vec::with_capacity(TOPOLOGY_BUILDS);
            let mut topology = None;
            for _ in 0..TOPOLOGY_BUILDS {
                let input = nodes.clone();
                let start = Instant::now();
                let built = Topology::build(input, RADIO).expect("valid topology parameters");
                build_s.push(start.elapsed().as_secs_f64());
                topology = Some(built);
            }
            let topology = topology.expect("built at least once");
            if topology.is_connected() {
                return Net {
                    topology: Arc::new(topology),
                    field: deployment.field(),
                    nodes,
                    build_s,
                };
            }
            placement = placement.wrapping_add(0x1000);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// Where the three pools sit, as fractions of the grid: fixed, so message
/// counts depend on the seed only through node placement and the ops, not
/// through a lucky or unlucky pivot draw.
const PIVOT_FRACTIONS: [(f64, f64); DIMS] = [(0.20, 0.25), (0.70, 0.30), (0.45, 0.75)];

/// The grid and the fixed pool layout over `field`, at the paper's
/// parameters (α = 5 m, l = 10, k = 3).
pub fn pool_layout(field: Rect) -> (Grid, PoolLayout) {
    let paper = PoolConfig::paper();
    let grid = Grid::over(field, paper.alpha).expect("the field grids at α = 5 m");
    let span = |cells: u32, f: f64| ((cells.saturating_sub(paper.pool_side)) as f64 * f) as u32;
    let pivots = PIVOT_FRACTIONS
        .iter()
        .map(|&(fx, fy)| CellCoord::new(span(grid.cols(), fx), span(grid.rows(), fy)))
        .collect();
    let layout = PoolLayout::with_pivots(&grid, paper.pool_side, pivots)
        .expect("the fixed pools fit the field without overlapping");
    (grid, layout)
}

/// The Pool configuration every Pool workload starts from: paper
/// parameters, the fixed pivots of [`pool_layout`], cached transport.
pub fn pool_config(field: Rect) -> PoolConfig {
    let (_, layout) = pool_layout(field);
    PoolConfig::paper()
        .with_pivots(layout.pools().iter().map(|pool| pool.pivot).collect())
        .with_transport(TransportKind::Cached)
}

/// `count` uniform events.
pub fn events(seed: u64, count: usize) -> Vec<Event> {
    let mut rng = rng(seed, Stream::Events);
    (0..count)
        .map(|_| Event::new((0..DIMS).map(|_| rng.gen()).collect()).expect("values in [0, 1]"))
        .collect()
}

/// `count` node ids drawn uniformly from an `n`-node network.
pub fn uniform_nodes(seed: u64, stream: Stream, n: usize, count: usize) -> Vec<NodeId> {
    let mut rng = rng(seed, stream);
    (0..count).map(|_| NodeId(rng.gen_range(0..n as u32))).collect()
}

/// The nodes nearest the centres of a `per_side × per_side` lattice over
/// the field: a fixed, evenly spread set of sources or sinks.
pub fn lattice_nodes(net: &Net, per_side: usize) -> Vec<NodeId> {
    let (w, h) = (net.field.width(), net.field.height());
    let mut nodes = Vec::with_capacity(per_side * per_side);
    for i in 0..per_side {
        for j in 0..per_side {
            let fx = (i as f64 + 0.5) / per_side as f64;
            let fy = (j as f64 + 0.5) / per_side as f64;
            let at = Point::new(net.field.min.x + fx * w, net.field.min.y + fy * h);
            nodes.push(net.topology.nearest_node(at));
        }
    }
    nodes
}

/// `count` exact-match range queries whose per-dimension sizes follow the
/// exponential distribution with mean 0.1 (the paper's Figure 6(b)
/// workload), placed uniformly.
///
/// The *shapes* are fixed: each dimension gets exactly the `count`
/// mid-quantiles of the distribution, and which sizes meet in one query is
/// shuffled by a constant, not by the seed. Every seed therefore asks the
/// same multiset of query shapes — a query's cost is mostly its volume, and
/// a seed that happened to pair three large ranges would move every tail
/// metric — and decides where each range lies and (in the callers) which
/// node asks.
pub fn exponential_queries(seed: u64, count: usize) -> Vec<RangeQuery> {
    let mut shapes = rng(SHAPE_SEED, Stream::Queries);
    let mut rng = rng(seed, Stream::Queries);
    let sizes: Vec<Vec<f64>> = (0..DIMS)
        .map(|_| {
            let mut quantiles: Vec<f64> = (0..count)
                .map(|i| (-MEAN_RANGE * (1.0 - (i as f64 + 0.5) / count as f64).ln()).min(1.0))
                .collect();
            quantiles.shuffle(&mut shapes);
            quantiles
        })
        .collect();
    (0..count)
        .map(|i| {
            let ranges = sizes
                .iter()
                .map(|dimension| {
                    let size = dimension[i];
                    let lo = rng.gen_range(0.0..=(1.0 - size));
                    (lo, (lo + size).min(1.0))
                })
                .collect();
            RangeQuery::exact(ranges).expect("ranges lie inside [0, 1]")
        })
        .collect()
}

/// `items[i % items.len()]` for `i` in `0..count`: spreads a fixed node set
/// over an op list.
pub fn cycle<T: Copy>(items: &[T], count: usize) -> Vec<T> {
    (0..count).map(|i| items[i % items.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = Net::deploy(300);
        let b = Net::deploy(300);
        assert_eq!(a.nodes, b.nodes, "the deployment is fixed");
        assert_eq!(lattice_nodes(&a, 4), lattice_nodes(&b, 4));
        assert_eq!(events(7, 50), events(7, 50));
        assert_eq!(exponential_queries(7, 20), exponential_queries(7, 20));
        assert_ne!(events(7, 50), events(8, 50));
        assert_ne!(exponential_queries(7, 20), exponential_queries(8, 20));
    }

    #[test]
    fn every_seed_asks_the_same_query_shapes() {
        // Per query, the three range sizes in nano-units.
        let shapes = |seed: u64| -> Vec<Vec<u64>> {
            exponential_queries(seed, 200)
                .iter()
                .map(|q| {
                    q.bounds()
                        .iter()
                        .map(|b| {
                            let (lo, hi) = b.expect("exact queries bound every dimension");
                            ((hi - lo) * 1e9).round() as u64
                        })
                        .collect()
                })
                .collect()
        };
        assert_eq!(shapes(1), shapes(2), "the seed moves ranges, it does not resize them");
        let mean = shapes(1).iter().map(|s| s[0]).sum::<u64>() as f64 / 200.0 / 1e9;
        assert!((mean - MEAN_RANGE).abs() < 0.005, "mean range size {mean}");
    }

    #[test]
    fn fixed_pivots_fit_small_and_large_fields() {
        for n in [300, 3_000] {
            let net = Net::deploy(n);
            assert!(net.topology.is_connected());
            assert_eq!(net.build_s.len(), TOPOLOGY_BUILDS);
            let config = pool_config(net.field);
            config.validate().unwrap();
            pool_core::system::PoolSystem::build_shared(net.topology.clone(), net.field, config)
                .expect("pools fit without overlapping");
        }
    }
}
