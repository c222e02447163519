//! The shared experiment harness driving Pool and DIM side by side.
//!
//! Every figure binary follows the same shape: build one deployment, load
//! the *same* events into both systems, issue the *same* queries from the
//! same sinks, and record each system's per-query message cost. Result-set
//! equality between the two systems (and against brute force) is asserted
//! on every query, so each benchmark run doubles as a correctness audit.

use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::insert::InsertError;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_dim::system::DimSystem;
use pool_netsim::deployment::Deployment;
use pool_netsim::node::NodeId;
use pool_netsim::stats::Summary;
use pool_netsim::topology::Topology;
use pool_workloads::events::{EventDistribution, EventGenerator};
use pool_workloads::queries::{
    exact_query, partial_query, partial_query_at, RangeSizeDistribution,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One experimental deployment, parameterized like §5.1.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of sensor nodes.
    pub nodes: usize,
    /// Base RNG seed (deployment, events, queries all derive from it).
    pub seed: u64,
    /// Event dimensionality `k`.
    pub dims: usize,
    /// Events generated per node (the paper: 3).
    pub events_per_node: usize,
    /// Radio range in meters (the paper: 40).
    pub radio_range: f64,
    /// Target mean neighborhood size (the paper: 20).
    pub avg_neighbors: f64,
}

impl Scenario {
    /// The paper's §5.1 configuration at the given network size.
    pub fn paper(nodes: usize, seed: u64) -> Self {
        Scenario {
            nodes,
            seed,
            dims: 3,
            events_per_node: 3,
            radio_range: 40.0,
            avg_neighbors: 20.0,
        }
    }
}

/// A Pool and a DIM deployment over the *same* network holding the *same*
/// events.
pub struct SystemPair {
    /// The Pool system under test.
    pub pool: PoolSystem,
    /// The DIM baseline.
    pub dim: DimSystem,
    /// Insertions attempted per system while loading the workload.
    pub inserts_attempted: u64,
    /// Pool insertions dropped as undeliverable (0 on a loss-free radio).
    pub pool_insert_drops: u64,
    /// DIM insertions dropped as undeliverable (0 on a loss-free radio).
    pub dim_insert_drops: u64,
    rng: StdRng,
}

impl SystemPair {
    /// Builds the pair and loads the event workload into both systems.
    ///
    /// # Panics
    ///
    /// Panics if no connected deployment is found after many retries, or if
    /// system construction fails.
    pub fn build(scenario: &Scenario, config: PoolConfig, events: EventDistribution) -> Self {
        let mut seed = scenario.seed;
        let (topology, field) = loop {
            let dep = Deployment::paper_setting(
                scenario.nodes,
                scenario.radio_range,
                scenario.avg_neighbors,
                seed,
            )
            .expect("valid deployment parameters");
            let topo = Topology::build(dep.nodes(), scenario.radio_range)
                .expect("valid topology parameters");
            if topo.is_connected() {
                break (topo, dep.field());
            }
            seed = seed.wrapping_add(0x1000);
        };
        let config = config.with_dims(scenario.dims).with_seed(scenario.seed);
        // Both systems ride the same substrate — routing, link layer,
        // faults and retries — so the comparison (and the route cache, when
        // selected) is apples to apples.
        let topology = Arc::new(topology);
        let mut dim =
            DimSystem::build(Arc::clone(&topology), field, scenario.dims, &config.substrate)
                .expect("dim builds");
        let mut pool = PoolSystem::build(topology, field, config).expect("pool builds");

        let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xE7E7_E7E7);
        let mut generator = EventGenerator::new(scenario.dims, events);
        let n = pool.topology().len() as u32;
        let mut inserts_attempted = 0u64;
        let mut pool_insert_drops = 0u64;
        let mut dim_insert_drops = 0u64;
        for node in 0..n {
            for _ in 0..scenario.events_per_node {
                let event = generator.generate(&mut rng);
                inserts_attempted += 1;
                // On a lossy radio an insertion can legitimately die after
                // exhausting its retry budget; count the drop instead of
                // aborting the experiment. Any other failure is a bug.
                match pool.insert_from(NodeId(node), event.clone()) {
                    Ok(_) => {}
                    Err(InsertError::Undeliverable { .. }) => pool_insert_drops += 1,
                    Err(e) => panic!("pool insert: {e}"),
                }
                match dim.insert_from(NodeId(node), event) {
                    Ok(_) => {}
                    Err(InsertError::Undeliverable { .. }) => dim_insert_drops += 1,
                    Err(e) => panic!("dim insert: {e}"),
                }
            }
        }
        SystemPair { pool, dim, inserts_attempted, pool_insert_drops, dim_insert_drops, rng }
    }

    /// A uniformly random node id.
    pub fn random_node(&mut self) -> NodeId {
        NodeId(self.rng.gen_range(0..self.pool.topology().len() as u32))
    }

    /// Access to the pair's RNG (for query generation).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Which query workload a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// Exact-match queries with the given range-size distribution (Fig 6).
    Exact(RangeSizeDistribution),
    /// `m`-partial match queries (Fig 7a).
    MPartial(usize),
    /// `1@n`-partial match queries, `n` 0-based (Fig 7b).
    OneAtN(usize),
}

impl QueryKind {
    /// Draws one query of this kind.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, dims: usize) -> RangeQuery {
        match *self {
            QueryKind::Exact(sizes) => exact_query(rng, dims, sizes),
            QueryKind::MPartial(m) => partial_query(rng, dims, m),
            QueryKind::OneAtN(n) => partial_query_at(rng, dims, n),
        }
    }
}

impl From<pool_workloads::scenario::QueryWorkload> for QueryKind {
    fn from(w: pool_workloads::scenario::QueryWorkload) -> Self {
        use pool_workloads::scenario::QueryWorkload as W;
        match w {
            W::Exact(sizes) => QueryKind::Exact(sizes),
            W::MPartial(m) => QueryKind::MPartial(m),
            W::OneAtN(n) => QueryKind::OneAtN(n),
        }
    }
}

impl From<&pool_workloads::scenario::WorkloadSpec> for Scenario {
    fn from(spec: &pool_workloads::scenario::WorkloadSpec) -> Self {
        Scenario {
            nodes: spec.nodes,
            seed: spec.seed,
            dims: spec.dims,
            events_per_node: spec.events_per_node,
            radio_range: 40.0,
            avg_neighbors: 20.0,
        }
    }
}

/// Runs one serialized [`WorkloadSpec`](pool_workloads::scenario::WorkloadSpec)
/// end to end and returns the measurement — the bridge from stored
/// experiment configurations to executions.
///
/// This is the reference serial execution; the parallel engine's
/// [`Trial`](crate::exec::Trial) reproduces it exactly (same seed
/// derivation, same RNG streams) on any worker thread.
pub fn run_spec(spec: &pool_workloads::scenario::WorkloadSpec) -> Measurement {
    run_spec_with_transport(spec, pool_transport::TransportKind::Gpsr)
}

/// [`run_spec`] on an explicit routing substrate.
pub fn run_spec_with_transport(
    spec: &pool_workloads::scenario::WorkloadSpec,
    transport: pool_transport::TransportKind,
) -> Measurement {
    let scenario = Scenario::from(spec);
    let config = PoolConfig::paper().with_transport(transport);
    let mut pair = SystemPair::build(&scenario, config, spec.events.clone());
    measure(&mut pair, QueryKind::from(spec.queries), spec.query_count)
}

/// The canonical latency column names every figure artifact carries, in
/// the order [`Measurement::latency_cells`] emits them.
pub const LATENCY_COLUMNS: [&str; 4] = ["pool_p50_ms", "pool_p99_ms", "dim_p50_ms", "dim_p99_ms"];

/// Per-system cost summaries for one measurement point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Summary of Pool's per-query total messages.
    pub pool: Summary,
    /// Summary of DIM's per-query total messages.
    pub dim: Summary,
    /// Summary of Pool's per-query elapsed virtual time, in milliseconds.
    pub pool_latency: Summary,
    /// Summary of DIM's per-query elapsed virtual time, in milliseconds.
    pub dim_latency: Summary,
    /// Mean number of relevant cells Pool visited.
    pub pool_cells: f64,
    /// Mean number of zones DIM visited.
    pub dim_zones: f64,
}

impl Measurement {
    /// DIM's mean cost as a multiple of Pool's.
    pub fn dim_over_pool(&self) -> f64 {
        self.dim.mean / self.pool.mean
    }

    /// The four canonical latency cells ([`LATENCY_COLUMNS`] order):
    /// Pool p50/p99 and DIM p50/p99 per-query virtual time in ms.
    pub fn latency_cells(&self) -> [crate::report::Cell; 4] {
        [
            self.pool_latency.median.into(),
            self.pool_latency.p99.into(),
            self.dim_latency.median.into(),
            self.dim_latency.p99.into(),
        ]
    }
}

/// Runs `count` queries of `kind` through both systems and summarizes the
/// message costs.
///
/// Every query's Pool result set, DIM result set, and brute-force ground
/// truth are asserted identical — a failed reproduction run can never
/// silently produce numbers from a broken system.
///
/// # Panics
///
/// Panics if the systems disagree with each other or with ground truth.
pub fn measure(pair: &mut SystemPair, kind: QueryKind, count: usize) -> Measurement {
    let dims = pair.pool.config().dims;
    let mut pool_costs = Vec::with_capacity(count);
    let mut dim_costs = Vec::with_capacity(count);
    let mut pool_latencies = Vec::with_capacity(count);
    let mut dim_latencies = Vec::with_capacity(count);
    let mut pool_cells = 0usize;
    let mut dim_zones = 0usize;
    for i in 0..count {
        let sink = pair.random_node();
        let query = kind.generate(pair.rng(), dims);
        let pool_result = pair.pool.query_from(sink, &query).expect("pool query");
        let dim_result = pair.dim.query_from(sink, &query).expect("dim query");

        let canon = |mut evs: Vec<Event>| {
            evs.sort_by(canon_event_order);
            evs
        };
        let pool_events = canon(pool_result.events.clone());
        let dim_events = canon(dim_result.events.clone());
        let truth = canon(pair.pool.brute_force_query(&query));
        assert_eq!(pool_events, truth, "query {i} ({query}): Pool result wrong");
        assert_eq!(dim_events, truth, "query {i} ({query}): DIM result wrong");

        pool_costs.push(pool_result.cost.total() as f64);
        dim_costs.push(dim_result.cost.total() as f64);
        pool_latencies.push(pool_result.cost.elapsed * 1e3);
        dim_latencies.push(dim_result.cost.elapsed * 1e3);
        pool_cells += pool_result.relevant_cells;
        dim_zones += dim_result.zones_visited;
    }
    Measurement {
        pool: Summary::of(&pool_costs),
        dim: Summary::of(&dim_costs),
        pool_latency: Summary::of(&pool_latencies),
        dim_latency: Summary::of(&dim_latencies),
        pool_cells: pool_cells as f64 / count as f64,
        dim_zones: dim_zones as f64 / count as f64,
    }
}

/// Lexicographic total order over event attribute tuples, used to
/// canonicalize result sets before comparison. `<[f64]>::partial_cmp`
/// panics the harness on NaN and leaves `-0.0` / `+0.0` tuples in
/// system-dependent order; [`f64::total_cmp`] per attribute orders both.
pub fn canon_event_order(a: &Event, b: &Event) -> std::cmp::Ordering {
    let (va, vb) = (a.values(), b.values());
    va.iter()
        .zip(vb)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| va.len().cmp(&vb.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_holds_identical_event_sets() {
        let scenario = Scenario { events_per_node: 2, ..Scenario::paper(150, 3) };
        let pair = SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
        assert_eq!(pair.pool.store().len(), 300);
        assert_eq!(pair.dim.stored_events(), 300);
    }

    #[test]
    fn specs_run_end_to_end() {
        let mut spec = pool_workloads::scenario::WorkloadSpec::fig6_exponential(150);
        spec.query_count = 5;
        spec.events_per_node = 1;
        let m = run_spec(&spec);
        assert!(m.pool.mean > 0.0 && m.dim.mean > 0.0);
    }

    /// Regression: the result-set canon sorted with
    /// `values().partial_cmp().expect("finite")`, whose order for
    /// `-0.0` vs `+0.0` tuples depended on which system produced them
    /// (and which panicked outright on NaN).
    #[test]
    fn canon_order_is_total_over_negative_zero() {
        use std::cmp::Ordering;
        let neg = Event::new(vec![-0.0, 0.5]).unwrap();
        let pos = Event::new(vec![0.0, 0.5]).unwrap();
        assert_eq!(canon_event_order(&neg, &pos), Ordering::Less, "-0.0 orders before +0.0");
        assert_eq!(canon_event_order(&pos, &neg), Ordering::Greater);
        assert_eq!(canon_event_order(&neg, &neg), Ordering::Equal);
        // Ordinary tuples keep their lexicographic order.
        let lo = Event::new(vec![0.1, 0.9]).unwrap();
        let hi = Event::new(vec![0.2, 0.0]).unwrap();
        assert_eq!(canon_event_order(&lo, &hi), Ordering::Less);
        let mut evs = vec![hi.clone(), pos.clone(), lo.clone(), neg.clone()];
        evs.sort_by(canon_event_order);
        assert_eq!(evs, vec![neg, pos, lo, hi]);
    }

    #[test]
    fn measure_runs_and_cross_validates() {
        let scenario = Scenario { events_per_node: 2, ..Scenario::paper(150, 4) };
        let mut pair =
            SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
        let m = measure(
            &mut pair,
            QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 }),
            10,
        );
        assert!(m.pool.mean > 0.0);
        assert!(m.dim.mean > 0.0);
    }
}
