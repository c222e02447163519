//! Figure 6 driver: exact-match query cost vs network size, plus the
//! routing-substrate ablation.
//!
//! Every (panel, network-size) point and each ablation substrate is an
//! independent trial submitted to the execution engine, so the whole
//! figure parallelizes across `--jobs` workers. Seeds are the same ones
//! the serial loops always used (`42 + nodes`), each trial owns its
//! deployment and RNG streams, and rows are aggregated by submission
//! index — the emitted JSON is byte-identical for any worker count.
//!
//! Wall-clock numbers from the ablation (the route-memo speedup) are
//! inherently non-deterministic, so they are returned separately and go
//! to stdout only, never into the JSON artifact.

use crate::cli::{arg_transport, arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{measure, QueryKind, Scenario, SystemPair};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_netsim::node::NodeId;
use pool_transport::TransportKind;
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;
use std::time::Instant;

/// One trial of the figure: either a (panel, size) measurement point or
/// one substrate's leg of the timed ablation.
enum TrialInput {
    Panel { panel: char, dist: RangeSizeDistribution, label: &'static str, nodes: usize },
    Ablation { kind: TransportKind },
}

enum TrialOutput {
    Panel {
        panel: char,
        label: &'static str,
        nodes: usize,
        // Boxed: Measurement carries four Summary blocks and dwarfs the
        // ablation variant.
        measurement: Box<crate::harness::Measurement>,
    },
    Ablation {
        kind: TransportKind,
        pool_messages: u64,
        dim_messages: u64,
        elapsed_secs: f64,
    },
}

/// Runs one substrate's ablation leg: build the pair, replay a fixed
/// query set `rounds` times, and keep the best of five timed trials.
///
/// Sinks and queries are drawn from the trial's own pair RNG; both
/// substrates' pairs are built from the same scenario and so carry
/// identical RNG streams, guaranteeing identical workloads without any
/// cross-trial sharing.
fn run_ablation_leg(
    kind: TransportKind,
    nodes: usize,
    queries: usize,
    rounds: usize,
) -> TrialOutput {
    let scenario = Scenario::paper(nodes, 42 + nodes as u64);
    let config = PoolConfig::paper().with_transport(kind);
    let mut pair = SystemPair::build(&scenario, config, EventDistribution::Uniform);
    let dims = pair.pool.config().dims;

    let query_kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });
    let sinks: Vec<NodeId> = (0..queries).map(|_| pair.random_node()).collect();
    let query_set: Vec<_> = (0..queries).map(|_| query_kind.generate(pair.rng(), dims)).collect();

    // The timed replay drives the DIM leg: its query cost is almost
    // entirely routing, so it isolates the substrate's contribution.
    // (Pool's query time is dominated by Theorem 3.2 cell resolution,
    // which no routing substrate can touch.) One untimed warm-up pass also
    // runs the Pool leg, so both systems' traffic participates in the
    // cross-substrate totals check, and primes the route memo.
    for (sink, query) in sinks.iter().zip(&query_set) {
        pair.pool.query_from(*sink, query).expect("pool query");
        pair.dim.query_from(*sink, query).expect("dim query");
    }
    let mut elapsed = f64::INFINITY;
    for _trial in 0..5 {
        let start = Instant::now();
        for _ in 0..rounds {
            for (sink, query) in sinks.iter().zip(&query_set) {
                pair.dim.query_from(*sink, query).expect("dim query");
            }
        }
        elapsed = elapsed.min(start.elapsed().as_secs_f64());
    }
    TrialOutput::Ablation {
        kind,
        pool_messages: pair.pool.ledger().total_messages(),
        dim_messages: pair.dim.ledger().total_messages(),
        elapsed_secs: elapsed,
    }
}

/// Runs the full figure on `--jobs` workers: the deterministic table,
/// plus the ablation's wall-clock lines for stdout.
///
/// # Panics
///
/// Panics if any trial's cross-validation fails or the two ablation
/// substrates disagree on message totals (the PR 1 equivalence
/// invariant).
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let queries = arg_usize(args, "--queries", opts.queries(100));
    let rounds = arg_usize(args, "--rounds", opts.scale(20, 2));
    let ablation_nodes = arg_usize(args, "--ablation-nodes", opts.nodes(1200));
    let transport = arg_transport(args, "--transport", TransportKind::Gpsr);
    let mut inputs = Vec::new();
    // Heaviest trials first: the scheduler pulls in submission order, so
    // leading with the big networks keeps workers busy at the tail.
    // Output order is restored at aggregation time from the trial labels.
    inputs.push(TrialInput::Ablation { kind: TransportKind::Gpsr });
    inputs.push(TrialInput::Ablation { kind: TransportKind::Cached });
    let mut sizes = opts.network_sizes();
    sizes.reverse();
    for &nodes in &sizes {
        for (panel, dist, label) in [
            ('a', RangeSizeDistribution::Uniform, "uniform"),
            ('b', RangeSizeDistribution::Exponential { mean: 0.1 }, "exponential"),
        ] {
            inputs.push(TrialInput::Panel { panel, dist, label, nodes });
        }
    }

    let outputs = run_trials(opts.jobs, inputs, |_, input| match input {
        TrialInput::Panel { panel, dist, label, nodes } => {
            let scenario = Scenario::paper(nodes, 42 + nodes as u64);
            let config = PoolConfig::paper().with_transport(transport);
            let mut pair = SystemPair::build(&scenario, config, EventDistribution::Uniform);
            let measurement = Box::new(measure(&mut pair, QueryKind::Exact(dist), queries));
            TrialOutput::Panel { panel, label, nodes, measurement }
        }
        TrialInput::Ablation { kind } => run_ablation_leg(kind, ablation_nodes, queries, rounds),
    });

    // Aggregate: panel rows in (panel, nodes) order, ablation into meta.
    let mut panel_rows: Vec<(char, &'static str, usize, Box<crate::harness::Measurement>)> =
        Vec::new();
    let mut ablation: Vec<(TransportKind, u64, u64, f64)> = Vec::new();
    for output in outputs {
        match output {
            TrialOutput::Panel { panel, label, nodes, measurement } => {
                panel_rows.push((panel, label, nodes, measurement));
            }
            TrialOutput::Ablation { kind, pool_messages, dim_messages, elapsed_secs } => {
                ablation.push((kind, pool_messages, dim_messages, elapsed_secs));
            }
        }
    }
    panel_rows.sort_by_key(|&(panel, _, nodes, _)| (panel, nodes));
    ablation.sort_by_key(|&(kind, ..)| format!("{kind}"));

    let mut columns = vec![
        "panel",
        "range_sizes",
        "nodes",
        "pool_msgs",
        "dim_msgs",
        "dim_over_pool",
        "pool_cells",
        "dim_zones",
    ];
    columns.extend(crate::harness::LATENCY_COLUMNS);
    let mut table = Table::new(
        &format!("Figure 6: exact-match query cost vs network size [{transport}]"),
        &columns,
    );
    table.meta("queries", queries);
    table.meta("transport", format!("{transport}"));
    for (panel, label, nodes, m) in &panel_rows {
        let mut row: Vec<crate::report::Cell> = vec![
            format!("6{panel}").into(),
            (*label).into(),
            (*nodes).into(),
            m.pool.mean.into(),
            m.dim.mean.into(),
            m.dim_over_pool().into(),
            m.pool_cells.into(),
            m.dim_zones.into(),
        ];
        row.extend(m.latency_cells());
        table.row(row);
    }

    let [(_, gpsr_pool, gpsr_dim, gpsr_secs), (_, cached_pool, cached_dim, cached_secs)] =
        [ablation[1], ablation[0]];
    let identical = gpsr_pool == cached_pool && gpsr_dim == cached_dim;
    table.meta("ablation_nodes", ablation_nodes);
    table.meta("ablation_rounds", rounds);
    table.meta("ablation_pool_messages", gpsr_pool);
    table.meta("ablation_dim_messages", gpsr_dim);
    table.meta("ablation_identical_message_totals", identical);
    assert!(
        identical,
        "substrates disagree on message totals: gpsr ({gpsr_pool}, {gpsr_dim}) vs \
         cached ({cached_pool}, {cached_dim})"
    );

    let cached_speedup = gpsr_secs / cached_secs;
    let lines = vec![
        format!(
            "# Routing-substrate ablation ({ablation_nodes} nodes, {queries} queries x {rounds} \
             rounds, DIM leg)"
        ),
        format!("gpsr:   {gpsr_secs:.4}s"),
        format!("cached: {cached_secs:.4}s"),
        format!("cached speedup: {cached_speedup:.2}x (wall-clock; not part of the artifact)"),
    ];
    Report { table, lines }
}
