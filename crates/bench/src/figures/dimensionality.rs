//! Ablation: event dimensionality `k`.
//!
//! The paper evaluates only `k = 3` but motivates growing sensor
//! capabilities (§1). Pool scales structurally with `k` — one more pool per
//! dimension — while DIM's zone codes simply cycle over more attributes.
//! This sweep measures both systems' exact- and partial-match costs from
//! k = 2 to k = 6 at a fixed 600-node network; each `k` is an independent
//! trial (serial seeds `7000 + k` unchanged). Emits
//! `BENCH_dimensionality.json`.

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
    let ks: Vec<usize> = (2..=opts.scale(6, 4)).collect();

    let results = run_trials(opts.jobs, ks, |_, k| {
        let scenario = Scenario { dims: k, ..Scenario::paper(nodes, 7_000 + k as u64) };
        let mut pair =
            SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
        let exact = measure(
            &mut pair,
            QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 }),
            queries,
        );
        let partial = measure(&mut pair, QueryKind::MPartial(1), queries);
        (k, exact, partial)
    });

    // Latency columns report the exact-match workload's virtual time.
    let mut columns = vec!["k", "pool_exact", "dim_exact", "pool_1partial", "dim_1partial"];
    columns.extend(LATENCY_COLUMNS);
    let mut table =
        Table::new("Dimensionality sweep (exponential exact match + 1-partial)", &columns);
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for (k, exact, partial) in &results {
        let mut row: Vec<Cell> = vec![
            (*k).into(),
            exact.pool.mean.into(),
            exact.dim.mean.into(),
            partial.pool.mean.into(),
            partial.dim.mean.into(),
        ];
        row.extend(exact.latency_cells());
        table.row(row);
    }
    table.into()
}
