//! Failure-injection experiment: event survival and query health as nodes
//! die, with and without Pool's replication.
//!
//! Rounds of random node failures are injected into three deployments over
//! the same network and workload: DIM, plain Pool, and Pool with
//! replication. After every round we report surviving events, the repair
//! bill, and a full-domain query's result size (which doubles as a
//! correctness audit: it must equal the survivor count).
//!
//! Failure rounds are inherently sequential (each round mutates the same
//! three deployments), so the campaign is submitted as a single trial;
//! `--jobs` is accepted for CLI uniformity. Emits `BENCH_failure.json`.

use crate::cli::{arg_usize, Args};
use crate::exec::run_trials;
use crate::harness::{connected_deployment, Scenario};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::failure::FailureReport;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_dim::system::DimSystem;
use pool_netsim::node::NodeId;
use pool_transport::Substrate;
use pool_workloads::events::{EventDistribution, EventGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the failure campaign as one trial and returns the table, plus
/// the replicated system's repair totals for stdout.
pub fn run(args: &Args) -> Report {
    let opts = args.opts();
    let nodes = arg_usize(args, "--nodes", opts.nodes(600));
    let events = opts.scale(1200, 300);
    let rounds = opts.scale(5, 2);

    let mut results = run_trials(opts.jobs, vec![()], |_, ()| {
        let (topology, field, seed) = connected_deployment(&Scenario::paper(nodes, 2026));

        let mut dim = DimSystem::build(topology.clone(), field, 3, &Substrate::default()).unwrap();
        let mut plain =
            PoolSystem::build(topology.clone(), field, PoolConfig::paper().with_seed(seed))
                .unwrap();
        let mut replicated = PoolSystem::build(
            topology.clone(),
            field,
            PoolConfig::paper().with_seed(seed).with_replication(),
        )
        .unwrap();

        let mut rng = StdRng::seed_from_u64(1);
        let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
        for i in 0..events {
            let event: Event = generator.generate(&mut rng);
            let src = NodeId((i % nodes) as u32);
            dim.insert_from(src, event.clone()).unwrap();
            plain.insert_from(src, event.clone()).unwrap();
            replicated.insert_from(src, event).unwrap();
        }

        let full = RangeQuery::exact(vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
        let mut dead_total = 0usize;
        let mut campaign = FailureReport::default();
        let mut rows = Vec::new();
        for round in 1..=rounds {
            // Fail 2% of the surviving population, avoiding a network
            // split.
            let victims: Vec<NodeId> = {
                let alive: Vec<NodeId> = plain
                    .topology()
                    .nodes()
                    .iter()
                    .filter(|n| plain.topology().is_alive(n.id))
                    .map(|n| n.id)
                    .collect();
                let count = (alive.len() / 50).max(1);
                let mut picked = Vec::new();
                let mut tries = 0;
                while picked.len() < count && tries < 1000 {
                    tries += 1;
                    let candidate = alive[rng.gen_range(0..alive.len())];
                    if picked.contains(&candidate) {
                        continue;
                    }
                    let mut trial = plain.topology().clone();
                    trial.fail_nodes(&[&picked[..], &[candidate]].concat());
                    if trial.is_connected() {
                        picked.push(candidate);
                    }
                }
                picked
            };
            dead_total += victims.len();

            dim.fail_nodes(&victims).unwrap();
            plain.fail_nodes(&victims).unwrap();
            let report = replicated.fail_nodes(&victims).unwrap();
            campaign = campaign.merge(&report);

            let sink = plain
                .topology()
                .nodes()
                .iter()
                .find(|n| plain.topology().is_alive(n.id))
                .unwrap()
                .id;
            let dim_result = dim.query_from(sink, &full).unwrap();
            let pool_result = plain.query_from(sink, &full).unwrap();
            let repl_result = replicated.query_from(sink, &full).unwrap();
            let (dim_alive, pool_alive, repl_alive) =
                (dim_result.events.len(), pool_result.events.len(), repl_result.events.len());
            assert_eq!(dim_alive, dim.stored_events());
            assert_eq!(pool_alive, plain.store().len());
            assert_eq!(repl_alive, replicated.store().len());
            rows.push((
                round,
                dead_total,
                dim_alive,
                pool_alive,
                repl_alive,
                report.repair_messages,
                pool_result.cost.elapsed * 1e3,
                dim_result.cost.elapsed * 1e3,
            ));
        }
        (rows, campaign)
    });
    let (rows, campaign) = results.pop().expect("one trial");

    // The latency columns time the full-domain audit query on the wounded
    // network, in virtual milliseconds.
    let mut table = Table::new(
        "Failure resilience (rounds of 2% failures)",
        &[
            "round",
            "dead_total",
            "dim_alive",
            "pool_alive",
            "pool_repl_alive",
            "repl_repair_msgs",
            "pool_query_ms",
            "dim_query_ms",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("events", events);
    table.meta("rounds", rounds);
    for (round, dead_total, dim_alive, pool_alive, repl_alive, repair, pool_ms, dim_ms) in &rows {
        table.row(vec![
            (*round).into(),
            (*dead_total).into(),
            (*dim_alive).into(),
            (*pool_alive).into(),
            (*repl_alive).into(),
            (*repair).into(),
            (*pool_ms).into(),
            (*dim_ms).into(),
        ]);
    }
    Report { table, lines: vec![format!("campaign (replicated Pool): {campaign}")] }
}
