//! Ablation: pool side length `l`.
//!
//! The paper fixes `l = 10` without a sweep. Larger pools mean finer value
//! partitioning (fewer false-positive cells per query) but more index
//! nodes spread over a wider area (longer intra-pool fan-out); smaller
//! pools are compact but coarse. This sweep locates the trade-off; each
//! side length is an independent trial (serial seeds `5150 + l`
//! unchanged). Emits `BENCH_pool_side.json`.

use crate::cli::{arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{measure, QueryKind, Scenario, SystemPair, LATENCY_COLUMNS};
use crate::report::{Cell, Report, Table};
use pool_core::config::PoolConfig;
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;

/// Runs the sweep on `--jobs` workers and returns its table.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let queries = arg_usize(args, "--queries", opts.queries(60));
    let nodes = arg_usize(args, "--nodes", opts.nodes(900));
    let sides: Vec<u32> = if opts.smoke { vec![6, 10] } else { vec![4, 6, 8, 10, 14, 18] };

    let results = run_trials(opts.jobs, sides, |_, side| {
        let scenario = Scenario::paper(nodes, 5150 + side as u64);
        let config = PoolConfig::paper().with_pool_side(side);
        let mut pair = SystemPair::build(&scenario, config, EventDistribution::Uniform);
        let exact = measure(
            &mut pair,
            QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 }),
            queries,
        );
        let partial = measure(&mut pair, QueryKind::MPartial(1), queries);
        (side, exact, partial)
    });

    // Latency columns report the exact-match workload's virtual time.
    let mut columns = vec!["l", "pool_msgs", "pool_cells", "pool_msgs_1partial"];
    columns.extend(LATENCY_COLUMNS);
    let mut table =
        Table::new("Pool side length sweep (exponential exact-match queries)", &columns);
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for (side, exact, partial) in &results {
        let mut row: Vec<Cell> = vec![
            (*side).into(),
            exact.pool.mean.into(),
            exact.pool_cells.into(),
            partial.pool.mean.into(),
        ];
        row.extend(exact.latency_cells());
        table.row(row);
    }
    table.into()
}
