//! Scale sweep: wall-clock and peak memory for Pool, DIM, and GHT from
//! 1 000 to 100 000 nodes.
//!
//! Every other figure measures *message* cost, which the determinism
//! contract keeps byte-identical across machines. This one measures the
//! simulator itself: how long building a deployment, inserting a fixed
//! workload, answering a fixed query batch, and absorbing one churn epoch
//! take as the network grows — the numbers that justify the flat CSR
//! topology arenas and the bounded route cache. Each size also runs a
//! direct incremental-mutation probe: failing a handful of nodes on the
//! freshly built topology must leave a *small* patched-row overlay
//! (`Topology::patched_rows`), proving churn no longer pays a full-arena
//! rebuild per event.
//!
//! **Determinism exception.** The `*_ms` and `rss_kb` columns are
//! wall-clock and peak-RSS measurements — they vary run to run and
//! machine to machine, unlike every other checked-in artifact column.
//! All remaining columns (message totals, match counts, overlay sizes)
//! stay fully deterministic, and `scripts/bench_compare.sh` diffs the two
//! kinds accordingly: exact for counts, ratio-thresholded for timings.
//!
//! The sweep runs strictly serially regardless of `--jobs` — concurrent
//! trials would contend for cores and poison each other's timings.
//!
//! Guards: query spot-checks against brute force over the inserted
//! events, the route-cache bound (`cached_routes() ≤ capacity`), the
//! overlay bound, and — across each 10× size pair — a sub-quadratic
//! scaling assertion: 10× the nodes may cost at most 15× the build+query
//! wall-clock.

use crate::cli::{arg_usize, BenchOpts};
use crate::exec::derive_seed;
use crate::harness::QueryKind;
use crate::report::Table;
use pool_core::config::PoolConfig;
use pool_core::dynamics::{ChurnConfig, ChurnPlanner, RepairQueue};
use pool_core::event::Event;
use pool_core::system::PoolSystem;
use pool_dim::churn::DimRepairQueue;
use pool_dim::system::DimSystem;
use pool_ght::churn::GhtRepairQueue;
use pool_ght::table::GhtTable;
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_transport::{EpochPlan, Substrate, TransportKind};
use pool_workloads::events::{EventDistribution, EventGenerator};
use pool_workloads::queries::RangeSizeDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Base seed for the sweep's derived streams.
const BASE_SEED: u64 = 52_007;
/// Event dimensionality (the paper's k = 3).
const DIMS: usize = 3;
/// Radio range in meters (§5.1).
const RADIO: f64 = 40.0;
/// Target mean neighborhood size (§5.1).
const NEIGHBORS: f64 = 20.0;
/// Per-epoch repair budget for the churn step.
const CHURN_BUDGET: u64 = 400;
/// A 10× size step may cost at most this factor in build+query time.
const SUBQUADRATIC_FACTOR: f64 = 15.0;
/// Timings below this floor (seconds) are noise; scaling ratios divide by
/// at least this much.
const TIMING_FLOOR: f64 = 0.05;

/// The binary's parameter surface (CLI flags + smoke scaling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    /// Engine options (`--smoke`; `--jobs` is accepted but the sweep is
    /// always serial).
    pub opts: BenchOpts,
    /// Network sizes to sweep, ascending.
    pub sizes: Vec<usize>,
    /// Events inserted per system at every size.
    pub inserts: usize,
    /// Queries (range queries / key lookups) per system at every size.
    pub queries: usize,
}

impl Params {
    /// Parses the binary's CLI: explicit flags override smoke defaults.
    /// `--max-nodes N` truncates the sweep for quick local runs.
    pub fn from_env() -> Self {
        let opts = BenchOpts::from_env();
        let cap = arg_usize("--max-nodes", usize::MAX);
        let mut sizes = Self::sizes_for(opts);
        sizes.retain(|&n| n <= cap);
        assert!(!sizes.is_empty(), "--max-nodes leaves an empty sweep");
        Params {
            opts,
            sizes,
            inserts: arg_usize("--inserts", opts.scale(10_000, 200)).max(1),
            queries: arg_usize("--queries", opts.scale(1_000, 20)).max(1),
        }
    }

    /// The exact configuration `sweep_scale --smoke --jobs N` runs with
    /// (used by the determinism regression test).
    pub fn smoke(jobs: usize) -> Self {
        let opts = BenchOpts::smoke_with_jobs(jobs);
        Params { opts, sizes: Self::sizes_for(opts), inserts: 200, queries: 20 }
    }

    fn sizes_for(opts: BenchOpts) -> Vec<usize> {
        if opts.smoke {
            vec![300, 600]
        } else {
            vec![1_000, 3_000, 10_000, 30_000, 100_000]
        }
    }
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`); 0 on platforms without procfs. Monotone across
/// the sweep — each row reports the high-water mark so far.
fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest.trim().trim_end_matches(" kB").trim().parse().unwrap_or(0);
                }
            }
        }
    }
    0
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One system's measurements at one size.
struct SystemRow {
    system: &'static str,
    build_ms: f64,
    insert_ms: f64,
    query_ms: f64,
    churn_ms: f64,
    insert_messages: u64,
    query_messages: u64,
    repair_messages: u64,
    matches: u64,
}

struct SizeResult {
    nodes: usize,
    patched_rows: usize,
    rows: Vec<SystemRow>,
    rss_kb: u64,
}

/// Builds a connected §5.1 deployment of `n` nodes, retrying the seed
/// until connected (same policy as the harness).
fn build_topology(n: usize, mut seed: u64) -> (Topology, Rect) {
    loop {
        let dep = Deployment::paper_setting(n, RADIO, NEIGHBORS, seed).expect("valid parameters");
        let topo = Topology::build(dep.nodes(), RADIO).expect("valid topology");
        if topo.is_connected() {
            return (topo, dep.field());
        }
        seed = seed.wrapping_add(0x1000);
    }
}

/// The incremental-mutation probe: failing a few nodes on a fresh arena
/// must patch only the touched rows, and compaction must fold the overlay
/// away completely.
fn probe_incremental_mutation(topology: &Topology, n: usize) -> usize {
    let mut probe = topology.clone();
    let k = (n / 200).clamp(1, 50);
    let victims: Vec<NodeId> =
        (0..k).map(|i| NodeId((i * (n / k)) as u32)).filter(|id| probe.is_alive(*id)).collect();
    probe.fail_nodes(&victims);
    let patched = probe.patched_rows();
    assert!(patched > 0, "failing {k} nodes must touch the overlay");
    assert!(
        patched < n / 2,
        "incremental mutation patched {patched} of {n} rows — that is a rebuild, not a patch"
    );
    probe.compact();
    assert_eq!(probe.patched_rows(), 0, "compaction must fold the overlay away");
    patched
}

/// Shared workload for one size: every system sees the same sources and
/// (for Pool/DIM) the same events.
struct Workload {
    events: Vec<Event>,
    sources: Vec<NodeId>,
}

fn workload(params: &Params, n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7E7_E7E7);
    let mut generator = EventGenerator::new(DIMS, EventDistribution::Uniform);
    let events: Vec<Event> = (0..params.inserts).map(|_| generator.generate(&mut rng)).collect();
    let sources: Vec<NodeId> =
        (0..params.inserts).map(|_| NodeId(rng.gen_range(0..n as u32))).collect();
    Workload { events, sources }
}

/// The substrate all three schemes of the sweep ride: the route cache over
/// the loss-free radio.
fn cached() -> Substrate {
    Substrate { kind: TransportKind::Cached, ..Substrate::default() }
}

fn churn_plan(topology: &Topology, field: Rect, seed: u64) -> EpochPlan {
    // Same seed at every call site: Pool, DIM, and GHT all absorb the
    // identical epoch on identical topologies.
    let mut planner = ChurnPlanner::new(ChurnConfig::new(seed ^ 0x51).with_rates(2, 4, 3));
    planner.plan(topology, field)
}

fn run_pool(
    params: &Params,
    topology: &Topology,
    field: Rect,
    seed: u64,
    w: &Workload,
) -> SystemRow {
    let start = Instant::now();
    let config =
        PoolConfig { substrate: cached(), ..PoolConfig::paper().with_dims(DIMS).with_seed(seed) };
    let mut pool = PoolSystem::build(topology.clone(), field, config).expect("pool builds");
    let build_ms = elapsed_ms(start);

    let start = Instant::now();
    let mut insert_messages = 0;
    for (event, &source) in w.events.iter().zip(&w.sources) {
        let receipt = pool.insert_from(source, event.clone()).expect("pool insert");
        insert_messages += receipt.messages;
    }
    let insert_ms = elapsed_ms(start);

    let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BB5);
    let start = Instant::now();
    let (mut query_messages, mut matches) = (0u64, 0u64);
    for q in 0..params.queries {
        let sink = NodeId(rng.gen_range(0..topology.len() as u32));
        let query = kind.generate(&mut rng, DIMS);
        let result = pool.query_from(sink, &query).expect("pool query");
        query_messages += result.cost.forward_messages + result.cost.reply_messages;
        matches += result.events.len() as u64;
        if q % 50 == 0 {
            // Brute-force spot check: on a loss-free radio Pool returns
            // exactly the inserted events that match.
            let truth = w.events.iter().filter(|e| query.matches(e)).count();
            assert_eq!(result.events.len(), truth, "pool result diverges from brute force");
        }
    }
    let query_ms = elapsed_ms(start);

    let start = Instant::now();
    let plan = churn_plan(pool.topology(), field, seed);
    let mut queue = RepairQueue::default();
    let report = pool.apply_epoch(&plan, &mut queue, CHURN_BUDGET).expect("pool epoch");
    let churn_ms = elapsed_ms(start);

    SystemRow {
        system: "pool",
        build_ms,
        insert_ms,
        query_ms,
        churn_ms,
        insert_messages,
        query_messages,
        repair_messages: report.repair_messages,
        matches,
    }
}

fn run_dim(
    params: &Params,
    topology: &Topology,
    field: Rect,
    seed: u64,
    w: &Workload,
) -> SystemRow {
    let start = Instant::now();
    let mut dim = DimSystem::build(topology.clone(), field, DIMS, &cached()).expect("dim builds");
    let build_ms = elapsed_ms(start);

    let start = Instant::now();
    let mut insert_messages = 0;
    for (event, &source) in w.events.iter().zip(&w.sources) {
        let receipt = dim.insert_from(source, event.clone()).expect("dim insert");
        insert_messages += receipt.messages;
    }
    let insert_ms = elapsed_ms(start);

    let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BB5);
    let start = Instant::now();
    let (mut query_messages, mut matches) = (0u64, 0u64);
    for q in 0..params.queries {
        let sink = NodeId(rng.gen_range(0..topology.len() as u32));
        let query = kind.generate(&mut rng, DIMS);
        let result = dim.query_from(sink, &query).expect("dim query");
        query_messages += result.cost.forward_messages + result.cost.reply_messages;
        matches += result.events.len() as u64;
        if q % 50 == 0 {
            let truth = w.events.iter().filter(|e| query.matches(e)).count();
            assert_eq!(result.events.len(), truth, "dim result diverges from brute force");
        }
    }
    let query_ms = elapsed_ms(start);

    let start = Instant::now();
    let plan = churn_plan(dim.topology(), field, seed);
    let mut queue = DimRepairQueue::default();
    let report = dim.apply_epoch(&plan, &mut queue, CHURN_BUDGET).expect("dim epoch");
    let churn_ms = elapsed_ms(start);

    SystemRow {
        system: "dim",
        build_ms,
        insert_ms,
        query_ms,
        churn_ms,
        insert_messages,
        query_messages,
        repair_messages: report.repair_messages,
        matches,
    }
}

fn run_ght(
    params: &Params,
    topology: &Topology,
    field: Rect,
    seed: u64,
    w: &Workload,
) -> SystemRow {
    let start = Instant::now();
    let mut topo = topology.clone();
    let mut transport = cached().stack(&topo, 0);
    let mut table: GhtTable<u64> = GhtTable::new(&topo);
    let build_ms = elapsed_ms(start);

    let start = Instant::now();
    let mut insert_messages = 0;
    for (i, &source) in w.sources.iter().enumerate() {
        let receipt = table
            .put(&topo, transport.as_mut(), source, &format!("evt-{i}"), i as u64)
            .expect("ght put");
        insert_messages += receipt.messages;
    }
    let insert_ms = elapsed_ms(start);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BB5);
    let start = Instant::now();
    let (mut query_messages, mut matches) = (0u64, 0u64);
    for _ in 0..params.queries {
        let sink = NodeId(rng.gen_range(0..topo.len() as u32));
        let key = rng.gen_range(0..params.inserts);
        let (values, receipt) =
            table.get(&topo, transport.as_mut(), sink, &format!("evt-{key}")).expect("ght get");
        query_messages += receipt.messages;
        // Loss-free pristine network: every stored key must be found.
        assert!(!values.is_empty(), "ght lost key evt-{key} on a pristine network");
        matches += values.len() as u64;
    }
    let query_ms = elapsed_ms(start);

    let start = Instant::now();
    let plan = churn_plan(&topo, field, seed);
    let mut queue: GhtRepairQueue<u64> = GhtRepairQueue::default();
    let report = table.apply_epoch(&mut topo, transport.as_mut(), &plan, &mut queue, CHURN_BUDGET);
    let churn_ms = elapsed_ms(start);
    let report = report.expect("ght epoch");

    SystemRow {
        system: "ght",
        build_ms,
        insert_ms,
        query_ms,
        churn_ms,
        insert_messages,
        query_messages,
        repair_messages: report.repair_messages,
        matches,
    }
}

fn run_size(params: &Params, index: usize, n: usize) -> SizeResult {
    let seed = derive_seed(BASE_SEED, index as u64);
    let (topology, field) = build_topology(n, seed);
    let patched_rows = probe_incremental_mutation(&topology, n);
    let w = workload(params, n, seed);
    let rows = vec![
        run_pool(params, &topology, field, seed, &w),
        run_dim(params, &topology, field, seed, &w),
        run_ght(params, &topology, field, seed, &w),
    ];
    SizeResult { nodes: n, patched_rows, rows, rss_kb: peak_rss_kb() }
}

/// Runs the sweep serially and aggregates the table.
///
/// # Panics
///
/// Panics if a regression guard trips: a brute-force query mismatch, a
/// lost GHT key, an incremental-mutation overlay that grew to rebuild
/// size, or a 10× size step costing more than 15× the build+query
/// wall-clock (super-quadratic scaling).
pub fn collect(params: &Params) -> Table {
    let mut results = Vec::with_capacity(params.sizes.len());
    for (index, &n) in params.sizes.iter().enumerate() {
        // Serial on purpose: timing trials must not contend for cores.
        results.push(run_size(params, index, n));
    }

    let mut table = Table::new(
        "Scale sweep: wall-clock and peak RSS vs network size \
         (timing columns are the documented determinism exception)",
        &[
            "nodes",
            "system",
            "build_ms",
            "insert_ms",
            "query_ms",
            "churn_ms",
            "insert_msgs",
            "query_msgs",
            "repair_msgs",
            "matches",
            "patched_rows",
            "rss_kb",
        ],
    );
    table.meta("inserts", params.inserts);
    table.meta("queries", params.queries);
    table.meta("churn_budget", CHURN_BUDGET as usize);
    for size in &results {
        for row in &size.rows {
            table.row(vec![
                size.nodes.into(),
                row.system.into(),
                row.build_ms.into(),
                row.insert_ms.into(),
                row.query_ms.into(),
                row.churn_ms.into(),
                row.insert_messages.into(),
                row.query_messages.into(),
                row.repair_messages.into(),
                row.matches.into(),
                size.patched_rows.into(),
                size.rss_kb.into(),
            ]);
        }
    }

    // The scaling guard: across every 10× size pair in the sweep, the
    // build+query cost may grow at most 15×. A quadratic core would grow
    // 100×. The floor keeps sub-50ms small-end timings from amplifying
    // noise into false failures (smoke sizes never form a 10× pair, so
    // smoke runs skip this guard entirely).
    for small in &results {
        let Some(big) = results.iter().find(|r| r.nodes == small.nodes * 10) else { continue };
        for (s, b) in small.rows.iter().zip(&big.rows) {
            let t_small = ((s.build_ms + s.query_ms) / 1e3).max(TIMING_FLOOR);
            let t_big = (b.build_ms + b.query_ms) / 1e3;
            assert!(
                t_big <= SUBQUADRATIC_FACTOR * t_small,
                "{}: {} -> {} nodes scaled build+query {:.2}s -> {:.2}s (> {SUBQUADRATIC_FACTOR}x)",
                s.system,
                small.nodes,
                big.nodes,
                t_small,
                t_big,
            );
        }
    }
    table
}
