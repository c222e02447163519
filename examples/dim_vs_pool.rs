//! Head-to-head: Pool vs the DIM baseline on one shared network.
//!
//! A compact version of the paper's §5 evaluation: identical deployment,
//! identical events, identical queries — then compare per-query message
//! costs for exact-match and partial-match workloads.
//!
//! Run: `cargo run --example dim_vs_pool --release`

use pool_dcs::core::{Event, PoolConfig, PoolSystem, RangeQuery};
use pool_dcs::dim::DimSystem;
use pool_dcs::netsim::{Deployment, NodeId, Topology};
use pool_dcs::transport::Substrate;
use pool_dcs::workloads::events::{EventDistribution, EventGenerator};
use pool_dcs::workloads::queries::{exact_query, partial_query, RangeSizeDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 600usize;
    let deployment = Deployment::paper_setting(n, 40.0, 20.0, 12345)?;
    let topology = Topology::build(deployment.nodes(), 40.0)?;
    let field = deployment.field();

    let mut pool = PoolSystem::build(topology.clone(), field, PoolConfig::paper())?;
    let mut dim = DimSystem::build(topology, field, 3, &Substrate::default())?;

    // Load the same 3 events per node into both systems.
    let mut rng = StdRng::seed_from_u64(6);
    let mut generator = EventGenerator::new(3, EventDistribution::Uniform);
    for node in 0..n as u32 {
        for _ in 0..3 {
            let event: Event = generator.generate(&mut rng);
            pool.insert_from(NodeId(node), event.clone())?;
            dim.insert_from(NodeId(node), event)?;
        }
    }
    println!("{} events stored in each system ({n} nodes)\n", pool.store().len());

    let mut run = |label: &str, queries: Vec<RangeQuery>, rng: &mut StdRng| {
        let mut pool_total = 0u64;
        let mut dim_total = 0u64;
        let count = queries.len() as f64;
        for q in queries {
            let sink = NodeId(rng.gen_range(0..n as u32));
            let p = pool.query_from(sink, &q).expect("pool query");
            let d = dim.query_from(sink, &q).expect("dim query");
            assert_eq!(p.events.len(), d.events.len(), "systems must agree on {q}");
            pool_total += p.cost.total();
            dim_total += d.cost.total();
        }
        println!(
            "{label:32} pool {:7.1} msgs | dim {:7.1} msgs | dim/pool {:.2}x",
            pool_total as f64 / count,
            dim_total as f64 / count,
            dim_total as f64 / pool_total as f64
        );
    };

    let trials = 40;
    let mut qrng = StdRng::seed_from_u64(8);

    let qs = (0..trials)
        .map(|_| exact_query(&mut qrng, 3, RangeSizeDistribution::Exponential { mean: 0.1 }))
        .collect();
    run("exact match (small ranges)", qs, &mut qrng);

    let qs =
        (0..trials).map(|_| exact_query(&mut qrng, 3, RangeSizeDistribution::Uniform)).collect();
    run("exact match (uniform ranges)", qs, &mut qrng);

    let qs = (0..trials).map(|_| partial_query(&mut qrng, 3, 1)).collect();
    run("1-partial match", qs, &mut qrng);

    let qs = (0..trials).map(|_| partial_query(&mut qrng, 3, 2)).collect();
    run("2-partial match", qs, &mut qrng);

    Ok(())
}
