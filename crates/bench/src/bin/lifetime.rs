//! Network-lifetime experiment: how long until the first sensor dies?
//!
//! The paper's energy argument is indirect (fewer messages = longer life).
//! This experiment makes it direct: both systems serve the same mixed
//! insert/query workload, every transmission drains the first-order radio
//! energy model, and we report how many workload rounds each system
//! sustains before any node's battery empties — plus who was draining
//! fastest, since uneven drain (hotspots) kills networks early.
//!
//! The round loop is inherently sequential (each round extends the same
//! deployments' ledgers), so the whole experiment is submitted as a
//! single trial; `--jobs` is accepted for CLI uniformity. Emits
//! `BENCH_lifetime.json`.
//!
//! Run: `cargo run -p pool-bench --bin lifetime --release
//!       [-- --nodes N --jobs N --smoke]`

use pool_bench::cli::{arg_usize, BenchOpts};
use pool_bench::exec::run_trials;
use pool_bench::harness::{Scenario, SystemPair};
use pool_core::config::PoolConfig;
use pool_netsim::energy::{EnergyLedger, EnergyModel};
use pool_netsim::node::NodeId;
use pool_workloads::events::{EventDistribution, EventGenerator};
use pool_workloads::queries::{exact_query, RangeSizeDistribution};
use rand::Rng;

struct LifetimeResult {
    rows: Vec<(usize, f64, f64, f64, f64)>,
    pool_dead_round: Option<usize>,
    dim_dead_round: Option<usize>,
    pool_busiest: (NodeId, u64),
    dim_busiest: (NodeId, u64),
}

fn main() {
    let opts = BenchOpts::from_env();
    let nodes = arg_usize("--nodes", opts.nodes(600));
    let max_rounds = opts.scale(4000, 150);
    // A small battery so the experiment terminates quickly: ~2000 sends
    // full scale, far fewer in smoke mode.
    let battery_sends = opts.scale(2000, 150) as f64;

    let mut results = run_trials(opts.jobs, vec![()], |_, ()| {
        let scenario = Scenario { events_per_node: 0, ..Scenario::paper(nodes, 515) };
        let mut pair =
            SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
        let capacity = battery_sends * 100e-6;
        let model = EnergyModel::default();
        let mut generator = EventGenerator::new(3, EventDistribution::Uniform);

        let mut rows = Vec::new();
        let mut pool_dead_round = None;
        let mut dim_dead_round = None;
        let mut round = 0usize;
        while (pool_dead_round.is_none() || dim_dead_round.is_none()) && round < max_rounds {
            round += 1;
            // One workload round: 10 insertions and 2 exponential-size
            // queries.
            for _ in 0..10 {
                let src = pair.random_node();
                let event = generator.generate(pair.rng());
                pair.pool.insert_from(src, event.clone()).expect("pool insert");
                pair.dim.insert_from(src, event).expect("dim insert");
            }
            for _ in 0..2 {
                let sink = pair.random_node();
                let q =
                    exact_query(pair.rng(), 3, RangeSizeDistribution::Exponential { mean: 0.1 });
                pair.pool.query_from(sink, &q).expect("pool query");
                pair.dim.query_from(sink, &q).expect("dim query");
            }
            // Re-price the cumulative drain each round on both sides of
            // every radio event: sends from the message ledger's per-node
            // loads (ARQ retransmissions are charged there, to the
            // `Retransmit` layer) and receptions from the virtual clock,
            // which counts the receiving end of every timed transmission.
            let mut pool_energy = EnergyLedger::new(nodes, capacity, model);
            let pool_rx = pair.pool.transport().clock().rx_counts();
            pool_energy.charge_counts(&pair.pool.ledger().node_loads(), pool_rx);
            let mut dim_energy = EnergyLedger::new(nodes, capacity, model);
            let dim_rx = pair.dim.transport().clock().rx_counts();
            dim_energy.charge_counts(&pair.dim.ledger().node_loads(), dim_rx);

            if pool_dead_round.is_none() && pool_energy.min_remaining_fraction() <= 0.0 {
                pool_dead_round = Some(round);
            }
            if dim_dead_round.is_none() && dim_energy.min_remaining_fraction() <= 0.0 {
                dim_dead_round = Some(round);
            }
            if round.is_multiple_of(50) {
                rows.push((
                    round,
                    pool_energy.min_remaining_fraction(),
                    dim_energy.min_remaining_fraction(),
                    pair.pool.transport().clock().now(),
                    pair.dim.transport().clock().now(),
                ));
            }
        }
        // Hotspot context: who is draining fastest?
        let busiest = |t: &pool_transport::TrafficLedger| {
            (0..nodes as u32)
                .map(NodeId)
                .max_by_key(|&n| t.node_load(n))
                .map(|n| (n, t.node_load(n)))
                .unwrap()
        };
        let _ = pair.rng().gen::<u8>();
        LifetimeResult {
            rows,
            pool_dead_round,
            dim_dead_round,
            pool_busiest: busiest(pair.pool.ledger()),
            dim_busiest: busiest(pair.dim.ledger()),
        }
    });
    let result = results.pop().expect("one trial");

    // The vtime columns are each system's cumulative virtual clock at the
    // sampled round: the latency cost of having served the same workload.
    let mut table = pool_bench::Table::new(
        "Network lifetime (10 inserts + 2 queries per round)",
        &["round", "pool_min_battery", "dim_min_battery", "pool_vtime_s", "dim_vtime_s"],
    );
    table.meta("nodes", nodes);
    table.meta("battery_sends", battery_sends as usize);
    let dead = |r: Option<usize>| r.map_or("-".to_string(), |v| v.to_string());
    table.meta("pool_first_death_round", dead(result.pool_dead_round));
    table.meta("dim_first_death_round", dead(result.dim_dead_round));
    table.meta("pool_busiest_node", result.pool_busiest.0 .0 as usize);
    table.meta("pool_busiest_sends", result.pool_busiest.1);
    table.meta("dim_busiest_node", result.dim_busiest.0 .0 as usize);
    table.meta("dim_busiest_sends", result.dim_busiest.1);
    for (round, pool_min, dim_min, pool_vtime, dim_vtime) in &result.rows {
        table.row(vec![
            (*round).into(),
            (*pool_min).into(),
            (*dim_min).into(),
            (*pool_vtime).into(),
            (*dim_vtime).into(),
        ]);
    }
    opts.emit("lifetime", &table);

    println!("\nfirst node death:");
    println!("  pool: round {}", dead(result.pool_dead_round));
    println!("  dim : round {}", dead(result.dim_dead_round));
    println!(
        "  pool busiest node {}: {} sends; dim busiest node {}: {} sends",
        result.pool_busiest.0, result.pool_busiest.1, result.dim_busiest.0, result.dim_busiest.1
    );
}
