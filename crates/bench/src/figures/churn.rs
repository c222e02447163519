//! Churn-resilience driver: query completeness, repair traffic, and query
//! latency for Pool, DIM, and GHT under continuous deployment churn.
//!
//! Each churn level is one independent trial: a fresh deployment loaded
//! with the same workload into all three systems, then advanced through
//! epochs of joins, deaths, and waypoint moves drawn by one shared
//! [`ChurnPlanner`] — all three systems see the *identical* plan on the
//! *identical* evolving topology, so their numbers are directly
//! comparable. After every epoch a batch of mid-churn range queries (Pool
//! and DIM) and key lookups (GHT) runs from sinks in the largest surviving
//! component; completeness is measured against the originally loaded data,
//! so events lost to dead nodes, still parked in a deferred-repair queue,
//! or stranded behind a partition all honestly lower the score.
//!
//! Repair is budgeted: every system gets the same per-epoch message
//! allowance, and the trial asserts (loss-free radio: the bound is strict)
//! that no epoch ever exceeds it — the acceptance pin for incremental
//! repair. Pool runs with one-backup replication, which is the interesting
//! comparison: DIM and plain GHT lose whatever a dead node held, while
//! Pool can heal from backups if the budget lets it.
//!
//! The zero-churn control level doubles as a regression guard: with no
//! joins, deaths, or moves, all three systems must report completeness
//! exactly 1.0.

use crate::cli::{arg_usize, Args, BenchOpts};
use crate::exec::{derive_seed, run_trials};
use crate::harness::{QueryKind, Scenario, SystemPair};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_core::dynamics::{ChurnConfig, ChurnPlanner, RepairQueue};
use pool_core::event::Event;
use pool_core::failure::FailureReport;
use pool_dim::churn::DimRepairQueue;
use pool_ght::churn::{GhtChurnReport, GhtRepairQueue};
use pool_ght::table::GhtTable;
use pool_netsim::node::NodeId;
use pool_netsim::stats::Summary;
use pool_transport::Substrate;
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base seed for the churn trials' derived streams.
const BASE_SEED: u64 = 87_341;

/// The figure's parameters: flags over full-scale or smoke defaults.
struct Params {
    /// Engine options (`--jobs`, `--smoke`).
    opts: BenchOpts,
    /// Network size at deployment time.
    nodes: usize,
    /// Churn epochs per level.
    epochs: usize,
    /// Range queries per system per epoch.
    queries: usize,
    /// Keys loaded into the GHT.
    keys: usize,
    /// Key lookups per epoch.
    gets: usize,
    /// Per-epoch repair message budget (shared by all three systems).
    budget: u64,
}

impl Params {
    fn from_args(args: &Args) -> Self {
        let opts = args.opts();
        let keys = arg_usize(args, "--keys", opts.scale(240, 60)).max(1);
        Params {
            opts,
            nodes: arg_usize(args, "--nodes", opts.nodes(600)),
            epochs: arg_usize(args, "--epochs", opts.scale(8, 3)).max(1),
            queries: arg_usize(args, "--queries", opts.scale(10, 3)).max(1),
            keys,
            gets: arg_usize(args, "--gets", opts.scale(40, 10)).clamp(1, keys),
            budget: arg_usize(args, "--budget", 150) as u64,
        }
    }
}

/// The swept churn levels: per-epoch (joins, deaths, moves) rates.
const LEVELS: [(&str, (usize, usize, usize)); 4] = [
    ("none (0/0/0)", (0, 0, 0)),
    ("low (1/1/1)", (1, 1, 1)),
    ("medium (2/3/3)", (2, 3, 3)),
    ("high (4/8/6)", (4, 8, 6)),
];

/// One system's aggregate outcome across a level's epochs.
struct SystemRow {
    system: &'static str,
    completeness: f64,
    repair_messages: u64,
    deferred: u64,
    events_lost: usize,
    latency: Summary,
}

struct LevelResult {
    label: &'static str,
    rows: Vec<SystemRow>,
}

/// Mid-churn latencies can be an empty sample set when every query in a
/// level failed to route (extreme partition); summarize as zeros rather
/// than panicking so the artifact stays honest about the degraded run.
fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        Summary::of(&[0.0])
    } else {
        Summary::of(samples)
    }
}

fn run_level(
    params: &Params,
    index: usize,
    label: &'static str,
    rates: (usize, usize, usize),
) -> LevelResult {
    let seed = derive_seed(BASE_SEED, index as u64);
    let scenario = Scenario::paper(params.nodes, seed);
    let config = PoolConfig::paper().with_replication();
    let mut pair = SystemPair::build(&scenario, config, EventDistribution::Uniform);
    let dims = pair.pool.config().dims;

    // Everything ever loaded, for honest completeness: lost, deferred, and
    // partition-stranded events all count against the systems.
    let original: Vec<Event> = pair
        .pool
        .store()
        .iter()
        .flat_map(|(_, stored)| stored.iter().map(|s| s.event.clone()))
        .collect();

    // GHT rides its own copy of the same deployment (it is externally
    // driven: the table owns only storage).
    let mut ght_topology = pair.pool.topology().clone();
    let mut ght_transport = Substrate::default().stack(&ght_topology, 0);
    let mut ght: GhtTable<u64> = GhtTable::new(&ght_topology);
    let n = ght_topology.len() as u32;
    for i in 0..params.keys {
        let from = NodeId((i as u32).wrapping_mul(37) % n);
        ght.put(&ght_topology, ght_transport.as_mut(), from, &format!("evt-{i}"), i as u64)
            .expect("ght put on the pristine network");
    }

    let (joins, deaths, moves) = rates;
    let mut planner = ChurnPlanner::new(ChurnConfig::new(seed).with_rates(joins, deaths, moves));
    let mut pool_queue = RepairQueue::default();
    let mut dim_queue = DimRepairQueue::default();
    let mut ght_queue: GhtRepairQueue<u64> = GhtRepairQueue::default();
    let mut pool_report = FailureReport::default();
    let mut dim_report = FailureReport::default();
    let mut ght_report = GhtChurnReport::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_4B);
    let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });

    let mut pool_comp = Vec::new();
    let mut dim_comp = Vec::new();
    let mut ght_comp = Vec::new();
    let mut pool_lat = Vec::new();
    let mut dim_lat = Vec::new();
    let mut ght_lat = Vec::new();

    for epoch in 0..params.epochs {
        let plan = planner.plan(pair.pool.topology(), pair.pool.field());
        let p = pair.pool.apply_epoch(&plan, &mut pool_queue, params.budget).expect("pool epoch");
        let d = pair.dim.apply_epoch(&plan, &mut dim_queue, params.budget).expect("dim epoch");
        let g = ght
            .apply_epoch(
                &mut ght_topology,
                ght_transport.as_mut(),
                &plan,
                &mut ght_queue,
                params.budget,
            )
            .expect("ght epoch");
        // The acceptance pin: per-epoch repair traffic never exceeds the
        // budget (strict on the loss-free radio).
        for (system, spent) in
            [("pool", p.repair_messages), ("dim", d.repair_messages), ("ght", g.repair_messages)]
        {
            assert!(
                spent <= params.budget,
                "{label} epoch {epoch}: {system} spent {spent} > budget {}",
                params.budget
            );
        }
        // All three systems applied the same plan: they stay in lockstep.
        assert_eq!(ght_topology.len(), pair.pool.topology().len());
        pool_report = pool_report.merge(&p);
        dim_report = dim_report.merge(&d);
        ght_report = ght_report.merge(&g);

        // Mid-churn measurement round from sinks that can still talk to
        // the bulk of the network.
        let members = pair.pool.topology().largest_component_members();
        for _ in 0..params.queries {
            let sink = members[rng.gen_range(0..members.len())];
            let query = kind.generate(&mut rng, dims);
            let truth = original.iter().filter(|e| query.matches(e)).count();
            let score = |got: usize| if truth == 0 { 1.0 } else { got as f64 / truth as f64 };
            match pair.pool.query_from(sink, &query) {
                Ok(r) => {
                    pool_comp.push(score(r.events.len()));
                    pool_lat.push(r.cost.elapsed * 1e3);
                }
                Err(_) => pool_comp.push(0.0),
            }
            match pair.dim.query_from(sink, &query) {
                Ok(r) => {
                    dim_comp.push(score(r.events.len()));
                    dim_lat.push(r.cost.elapsed * 1e3);
                }
                Err(_) => dim_comp.push(0.0),
            }
        }
        for _ in 0..params.gets {
            let sink = members[rng.gen_range(0..members.len())];
            let key = rng.gen_range(0..params.keys);
            match ght.get(&ght_topology, ght_transport.as_mut(), sink, &format!("evt-{key}")) {
                Ok((values, receipt)) => {
                    ght_comp.push(f64::from(!values.is_empty()));
                    ght_lat.push(receipt.elapsed * 1e3);
                }
                Err(_) => ght_comp.push(0.0),
            }
        }
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    LevelResult {
        label,
        rows: vec![
            SystemRow {
                system: "pool",
                completeness: mean(&pool_comp),
                repair_messages: pool_report.repair_messages,
                deferred: pool_report.deferred_repairs,
                events_lost: pool_report.events_lost,
                latency: summarize(&pool_lat),
            },
            SystemRow {
                system: "dim",
                completeness: mean(&dim_comp),
                repair_messages: dim_report.repair_messages,
                deferred: dim_report.deferred_repairs,
                events_lost: dim_report.events_lost,
                latency: summarize(&dim_lat),
            },
            SystemRow {
                system: "ght",
                completeness: mean(&ght_comp),
                repair_messages: ght_report.repair_messages,
                deferred: ght_report.deferred_repairs,
                events_lost: ght_report.values_lost,
                latency: summarize(&ght_lat),
            },
        ],
    }
}

/// Runs the churn levels on `--jobs` workers and aggregates the
/// deterministic table.
///
/// # Panics
///
/// Panics if a regression guard trips: per-epoch repair traffic exceeding
/// the budget on any system, a completeness score outside `[0, 1]`, or
/// the zero-churn control failing to score exactly 1.0 everywhere.
pub fn run(args: &Args) -> Report {
    let params = &Params::from_args(args);
    let levels: Vec<(usize, &'static str, (usize, usize, usize))> =
        LEVELS.iter().enumerate().map(|(i, &(label, rates))| (i, label, rates)).collect();
    let results = run_trials(params.opts.jobs, levels, |_, (index, label, rates)| {
        run_level(params, index, label, rates)
    });

    let mut table = Table::new(
        "Churn resilience: completeness, repair traffic, and latency vs churn rate",
        &[
            "churn",
            "system",
            "completeness",
            "repair_msgs",
            "deferred",
            "events_lost",
            "p50_ms",
            "p99_ms",
        ],
    );
    table.meta("nodes", params.nodes);
    table.meta("epochs", params.epochs);
    table.meta("queries_per_epoch", params.queries);
    table.meta("ght_keys", params.keys);
    table.meta("repair_budget", params.budget as usize);
    for level in &results {
        for row in &level.rows {
            table.row(vec![
                level.label.into(),
                row.system.into(),
                row.completeness.into(),
                row.repair_messages.into(),
                row.deferred.into(),
                row.events_lost.into(),
                row.latency.median.into(),
                row.latency.p99.into(),
            ]);
        }
    }

    // Regression guards. Completeness is a fraction of ground truth — a
    // value above 1 means a system fabricated results.
    for level in &results {
        for row in &level.rows {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&row.completeness),
                "{} on {}: completeness {} out of range",
                row.system,
                level.label,
                row.completeness
            );
        }
    }
    // The zero-churn control: with nothing changing, nothing may degrade.
    for row in &results[0].rows {
        assert!(
            (row.completeness - 1.0).abs() < 1e-12,
            "{} lost data without churn (completeness {})",
            row.system,
            row.completeness
        );
        assert_eq!(row.events_lost, 0, "{} lost events without churn", row.system);
    }
    table.into()
}
