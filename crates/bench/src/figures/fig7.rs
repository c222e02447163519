//! Figure 7: partial-match query cost at 900 nodes.
//!
//! * 7(a) — 1-partial vs 2-partial match queries: cost rises with the
//!   number of unspecified dimensions; DIM is ~180% / ~250% costlier than
//!   Pool.
//! * 7(b) — 1@1 / 1@2 / 1@3 partial queries: DIM's cost depends strongly on
//!   *which* dimension is unspecified (worst when it is the first, the top
//!   of its k-d split order); Pool is flat.
//!
//! Each workload is an independent trial on the execution engine with its
//! own derived seed (`derive_seed(4242, i)`) — the serial binary used to
//! thread one deployment and one RNG through all five measurements, which
//! coupled every point to its predecessors and made the sweep
//! unschedulable. Emits `BENCH_fig7.json`.

use crate::cli::{arg_usize, Args};
use crate::exec::{derive_seed, run_trials};
use crate::harness::{measure, QueryKind, Scenario, SystemPair, LATENCY_COLUMNS};
use crate::report::{Cell, Report, Table};
use pool_core::config::PoolConfig;
use pool_workloads::events::EventDistribution;

/// Runs the five workloads on `--jobs` workers and returns the table.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let queries = arg_usize(args, "--queries", opts.queries(100));
    let nodes = arg_usize(args, "--nodes", opts.nodes(900));

    let workloads: Vec<(&str, &str, QueryKind)> = vec![
        ("7a", "1-partial", QueryKind::MPartial(1)),
        ("7a", "2-partial", QueryKind::MPartial(2)),
        ("7b", "1@1-partial", QueryKind::OneAtN(0)),
        ("7b", "1@2-partial", QueryKind::OneAtN(1)),
        ("7b", "1@3-partial", QueryKind::OneAtN(2)),
    ];
    let results = run_trials(opts.jobs, workloads, |i, (panel, label, kind)| {
        let scenario = Scenario::paper(nodes, derive_seed(4242, i as u64));
        let mut pair =
            SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
        (panel, label, measure(&mut pair, kind, queries))
    });

    let mut columns = vec![
        "panel",
        "workload",
        "pool_msgs",
        "dim_msgs",
        "dim_over_pool",
        "pool_cells",
        "dim_zones",
    ];
    columns.extend(LATENCY_COLUMNS);
    let mut table = Table::new("Figure 7: partial-match query cost by workload", &columns);
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for (panel, label, m) in &results {
        let mut row: Vec<Cell> = vec![
            (*panel).into(),
            (*label).into(),
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
