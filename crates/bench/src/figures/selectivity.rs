//! Ablation: query cost vs range size (selectivity), Pool vs DIM.
//!
//! Figure 6 varies network size at two fixed size *distributions*; this
//! sweep holds the network at 900 nodes and sweeps a constant range size
//! from highly selective to nearly the whole domain, exposing where each
//! system's cost comes from and whether a crossover exists.
//!
//! Each range size is an independent trial with a derived seed
//! (`derive_seed(60_000, i)`) — the serial binary reused one deployment
//! and one RNG across all sizes, coupling every point to its
//! predecessors. Emits `BENCH_selectivity.json`.

use crate::cli::{arg_usize, Args};
use crate::exec::{derive_seed, run_trials};
use crate::harness::{measure, QueryKind, Scenario, SystemPair, LATENCY_COLUMNS};
use crate::report::{Cell, Report, Table};
use pool_core::config::PoolConfig;
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;

/// Runs the sweep on `--jobs` workers and returns its table.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let queries = arg_usize(args, "--queries", opts.queries(50));
    let nodes = arg_usize(args, "--nodes", opts.nodes(900));
    let sizes: Vec<f64> = if opts.smoke {
        vec![0.05, 0.2, 0.5]
    } else {
        vec![0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
    };

    let results = run_trials(opts.jobs, sizes, |i, size| {
        let scenario = Scenario::paper(nodes, derive_seed(60_000, i as u64));
        let mut pair =
            SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
        let m =
            measure(&mut pair, QueryKind::Exact(RangeSizeDistribution::Constant { size }), queries);
        (size, m)
    });

    let mut columns =
        vec!["range_size", "pool_msgs", "dim_msgs", "dim_over_pool", "pool_cells", "dim_zones"];
    columns.extend(LATENCY_COLUMNS);
    let mut table = Table::new("Selectivity sweep (constant range size per dimension)", &columns);
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for (size, m) in &results {
        let mut row: Vec<Cell> = vec![
            (*size).into(),
            m.pool.mean.into(),
            m.dim.mean.into(),
            m.dim_over_pool().into(),
            m.pool_cells.into(),
            m.dim_zones.into(),
        ];
        row.extend(m.latency_cells());
        table.row(row);
    }
    table.into()
}
