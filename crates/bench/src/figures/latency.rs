//! Latency-profile driver: the virtual-time cost of one operation on each
//! system — Pool, DIM, and a replicated GHT — across radio regimes,
//! contrasting serial with overlapping fan-out.
//!
//! Message-count figures answer "how much energy does an operation spend";
//! this figure answers "how long does it take". Every row reports the
//! per-operation virtual time (p50/p99/mean, milliseconds) under one of
//! three link regimes (ideal / mild / harsh, matching `lossy_radio`) and
//! one of two fan-out disciplines:
//!
//! * **overlapping** — what the systems actually do: Pool's splitter
//!   fan-out, reply returns, and GHT's mirror writes launch together and
//!   serialize only where they share a radio, so the operation's elapsed
//!   time is its critical path ([`QueryCost::elapsed`],
//!   [`ReplicatedReceipt::elapsed`]).
//! * **serial** — the counterfactual where every leg runs back to back:
//!   for Pool and DIM the per-leg latency sums
//!   (`forward_latency + reply_latency`); for GHT the same mirror routes
//!   delivered one after another on an identically configured shadow
//!   transport.
//!
//! DIM's query walk is a serial chain by construction, so its two rows
//! nearly coincide — that is the point of including it: the gap between
//! the disciplines is the concurrency each system's structure exposes.
//!
//! Each link regime is an independent trial (own deployment, link RNG,
//! ledger), so the three levels run concurrently under `--jobs` and
//! `BENCH_latency.json` is byte-identical for any worker count.
//!
//! [`QueryCost::elapsed`]: pool_core::forward::QueryCost
//! [`ReplicatedReceipt::elapsed`]: pool_ght::replication::ReplicatedReceipt

use crate::cli::{arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{QueryKind, Scenario, SystemPair};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_ght::replication::ReplicatedGht;
use pool_netsim::node::NodeId;
use pool_netsim::radio::PrrModel;
use pool_netsim::stats::Summary;
use pool_transport::{LinkQuality, LossyConfig, Substrate, TrafficLayer};
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;

/// Mirrors per key for the GHT leg (GHT §4.3 uses `2^d`; d = 2).
const GHT_MIRRORS: u32 = 4;

/// One (system, fan-out discipline) measurement under one link regime.
struct SystemRow {
    system: &'static str,
    fanout: &'static str,
    mean_msgs: f64,
    latency: Summary,
}

struct LevelResult {
    label: &'static str,
    rows: Vec<SystemRow>,
}

fn run_level(
    scenario: &Scenario,
    quality: LinkQuality,
    queries: usize,
    label: &'static str,
) -> LevelResult {
    let lossy = LossyConfig { quality, ..LossyConfig::fixed(1.0, scenario.seed ^ 0x1A7) };
    let config = PoolConfig::paper().with_lossy(lossy);
    let mut pair = SystemPair::build(scenario, config, EventDistribution::Uniform);

    // Pool and DIM: the same sinks and queries hit both systems; each
    // query yields its critical path (overlapping) and its per-leg sum
    // (serial counterfactual) from the same execution.
    let dims = pair.pool.config().dims;
    let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });
    let mut pool_overlap = Vec::with_capacity(queries);
    let mut pool_serial = Vec::with_capacity(queries);
    let mut dim_overlap = Vec::with_capacity(queries);
    let mut dim_serial = Vec::with_capacity(queries);
    let mut pool_msgs = 0u64;
    let mut dim_msgs = 0u64;
    for _ in 0..queries {
        let sink = pair.random_node();
        let query = kind.generate(pair.rng(), dims);
        let p = pair.pool.query_from(sink, &query).expect("pool query");
        pool_overlap.push(p.cost.elapsed * 1e3);
        pool_serial.push((p.cost.forward_latency + p.cost.reply_latency) * 1e3);
        pool_msgs += p.cost.total();
        let d = pair.dim.query_from(sink, &query).expect("dim query");
        dim_overlap.push(d.cost.elapsed * 1e3);
        dim_serial.push((d.cost.forward_latency + d.cost.reply_latency) * 1e3);
        dim_msgs += d.cost.total();
    }

    // GHT: replicated puts over the same deployment. The overlapped
    // transport runs the real mirror fan-out; the shadow transport — its
    // clone before any traffic, loss seed included — delivers the same
    // mirror routes strictly one after another.
    let topology = pair.pool.topology().clone();
    let ght_lossy = LossyConfig { quality, ..LossyConfig::fixed(1.0, scenario.seed ^ 0x647) };
    let mut overlapped =
        Substrate { lossy: Some(ght_lossy), ..Substrate::default() }.stack(&topology, 0);
    let mut shadow = overlapped.clone();
    let mut ght: ReplicatedGht<u64> = ReplicatedGht::new(&topology, GHT_MIRRORS);
    let n = topology.len() as u32;
    let mut ght_overlap = Vec::with_capacity(queries);
    let mut ght_serial = Vec::with_capacity(queries);
    let mut ght_msgs = 0u64;
    let mut shadow_msgs = 0u64;
    for i in 0..queries {
        let key = format!("evt-{i}");
        let from = NodeId((i as u32).wrapping_mul(37) % n);
        let receipt =
            ght.put(&topology, overlapped.as_mut(), from, &key, i as u64).expect("ght put");
        ght_overlap.push(receipt.elapsed * 1e3);
        ght_msgs += receipt.messages;
        let before = shadow.clock().now();
        for r in 0..GHT_MIRRORS {
            let loc =
                pool_ght::hash::hash_to_replica_location(key.as_bytes(), r, topology.bounds());
            let route = shadow.route_to_location(&topology, from, loc).expect("ght route");
            let layer = if r == 0 { TrafficLayer::Insert } else { TrafficLayer::Replication };
            let outcome = shadow.deliver(&topology, &route.path, layer);
            shadow_msgs += outcome.transmissions;
        }
        ght_serial.push((shadow.clock().now() - before) * 1e3);
    }

    let per_op = |total: u64| total as f64 / queries as f64;
    LevelResult {
        label,
        rows: vec![
            SystemRow {
                system: "pool",
                fanout: "overlapping",
                mean_msgs: per_op(pool_msgs),
                latency: Summary::of(&pool_overlap),
            },
            SystemRow {
                system: "pool",
                fanout: "serial",
                mean_msgs: per_op(pool_msgs),
                latency: Summary::of(&pool_serial),
            },
            SystemRow {
                system: "dim",
                fanout: "overlapping",
                mean_msgs: per_op(dim_msgs),
                latency: Summary::of(&dim_overlap),
            },
            SystemRow {
                system: "dim",
                fanout: "serial",
                mean_msgs: per_op(dim_msgs),
                latency: Summary::of(&dim_serial),
            },
            SystemRow {
                system: "ght",
                fanout: "overlapping",
                mean_msgs: per_op(ght_msgs),
                latency: Summary::of(&ght_overlap),
            },
            SystemRow {
                system: "ght",
                fanout: "serial",
                mean_msgs: per_op(shadow_msgs),
                latency: Summary::of(&ght_serial),
            },
        ],
    }
}

/// Runs the three link regimes on `--jobs` workers and aggregates the
/// deterministic table.
///
/// # Panics
///
/// Panics if a regression guard trips: an overlapped operation taking
/// longer than its serial counterfactual (the critical path is a subset
/// of the legs, so it can never exceed their sum), or GHT's mirror
/// fan-out failing to beat sequential mirror writes on the ideal radio.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let queries = arg_usize(args, "--queries", opts.queries(40)).max(1);
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let scenario = Scenario::paper(nodes, 92_000);
    let levels: Vec<(&'static str, LinkQuality)> = vec![
        ("ideal (prr = 1)", LinkQuality::Fixed(1.0)),
        ("mild loss (30/45 m)", LinkQuality::Model(PrrModel::new(30.0, 45.0))),
        ("harsh loss (15/42 m)", LinkQuality::Model(PrrModel::new(15.0, 42.0))),
    ];
    let results = run_trials(opts.jobs, levels, |_, (label, quality)| {
        run_level(&scenario, quality, queries, label)
    });

    let mut table = Table::new(
        "Per-operation latency: virtual time across radio regimes and fan-out disciplines",
        &["radio", "system", "fanout", "mean_msgs", "p50_ms", "p99_ms", "mean_ms"],
    );
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    table.meta("ght_mirrors", GHT_MIRRORS as usize);
    for level in &results {
        for row in &level.rows {
            table.row(vec![
                level.label.into(),
                row.system.into(),
                row.fanout.into(),
                row.mean_msgs.into(),
                row.latency.median.into(),
                row.latency.p99.into(),
                row.latency.mean.into(),
            ]);
        }
    }

    // Regression guards. The critical path of an operation is a chain of
    // its legs, each of which also appears in the serial sum — overlapped
    // can never exceed serial.
    for level in &results {
        for pair in level.rows.chunks(2) {
            let (overlap, serial) = (&pair[0], &pair[1]);
            assert!(
                overlap.latency.mean <= serial.latency.mean + 1e-9,
                "{} on {}: overlapped mean {} ms exceeds serial mean {} ms",
                overlap.system,
                level.label,
                overlap.latency.mean,
                serial.latency.mean
            );
        }
    }
    // On the ideal radio GHT's 4-way mirror fan-out must show real
    // concurrency: strictly faster than writing the mirrors one by one.
    let ideal = &results[0];
    let (ght_overlap, ght_serial) = (&ideal.rows[4], &ideal.rows[5]);
    assert!(
        ght_overlap.latency.mean < ght_serial.latency.mean,
        "ideal-radio GHT fan-out shows no overlap ({} vs {} ms)",
        ght_overlap.latency.mean,
        ght_serial.latency.mean
    );
    table.into()
}
