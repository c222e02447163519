//! Ablation: cell size α.
//!
//! α controls index-node granularity: smaller cells mean more index nodes
//! per pool (finer spatial resolution, more fan-out legs), larger cells
//! collapse several cells onto the same physical sensor (free intra-node
//! hops but coarser placement). The paper fixes α = 5 m. Each α is an
//! independent trial (serial seeds `11_000 + 10α` unchanged). Emits
//! `BENCH_cell_size.json`.

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
    let queries = arg_usize(args, "--queries", opts.queries(50));
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let alphas: Vec<f64> =
        if opts.smoke { vec![5.0, 10.0] } else { vec![2.5, 5.0, 7.5, 10.0, 15.0] };

    let results = run_trials(opts.jobs, alphas, |_, alpha| {
        let scenario = Scenario::paper(nodes, 11_000 + (alpha * 10.0) as u64);
        let config = PoolConfig::paper().with_alpha(alpha);
        let mut pair = SystemPair::build(&scenario, config, EventDistribution::Uniform);
        let exact = measure(
            &mut pair,
            QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 }),
            queries,
        );
        let partial = measure(&mut pair, QueryKind::MPartial(1), queries);
        (alpha, exact, partial)
    });

    // Latency columns report the exact-match workload's virtual time.
    let mut columns = vec!["alpha_m", "pool_msgs", "pool_cells", "pool_msgs_1partial"];
    columns.extend(LATENCY_COLUMNS);
    let mut table = Table::new("Cell size sweep (l = 10, exponential exact-match)", &columns);
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for (alpha, exact, partial) in &results {
        let mut row: Vec<Cell> = vec![
            (*alpha).into(),
            exact.pool.mean.into(),
            exact.pool_cells.into(),
            partial.pool.mean.into(),
        ];
        row.extend(exact.latency_cells());
        table.row(row);
    }
    table.into()
}
