//! Hotspots under skewed data, and Pool's workload-sharing cure (§4.2).
//!
//! A wildfire-style scenario: once the fire starts, almost every reading is
//! "very hot, very dry" — so in any value-partitioned store they all hash
//! to the same place. Without countermeasures the index node for that value
//! region absorbs the whole burst (and dies first). With workload sharing,
//! overloaded index nodes chain overflow storage to nearby nodes.
//!
//! Run: `cargo run --example hotspot_skew`

use pool_dcs::core::{Event, PoolConfig, PoolSystem, RangeQuery, SharingPolicy};
use pool_dcs::netsim::energy::{EnergyLedger, EnergyModel};
use pool_dcs::netsim::{Deployment, NodeId, Topology};
use pool_dcs::workloads::events::{EventDistribution, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let deployment = Deployment::paper_setting(600, 40.0, 20.0, 5)?;
    let topology = Topology::build(deployment.nodes(), 40.0)?;

    // The fire signature: temperature ~0.9, humidity ~0.1, light ~0.8.
    let fire = EventDistribution::Hotspot { center: vec![0.9, 0.1, 0.8], std_dev: 0.03 };
    let burst = 900usize;

    for (label, sharing) in [("without sharing", None), ("with sharing (cap 25)", Some(25))] {
        let mut config = PoolConfig::paper().with_seed(5);
        if let Some(cap) = sharing {
            config = config.with_sharing(SharingPolicy::new(cap));
        }
        let mut pool = PoolSystem::build(topology.clone(), deployment.field(), config)?;

        let mut rng = StdRng::seed_from_u64(11);
        let mut generator = EventGenerator::new(3, fire.clone());
        for i in 0..burst {
            let event: Event = generator.generate(&mut rng);
            pool.insert_from(NodeId((i % 600) as u32), event)?;
        }

        // Estimate the energy picture: sends from the message ledger,
        // receptions from the virtual clock.
        let sends = pool.ledger().node_loads();
        let mut battery = EnergyLedger::new(sends.len(), 1.0, EnergyModel::default());
        battery.charge_counts(&sends, pool.transport().clock().rx_counts());

        println!("--- {label} ---");
        println!("  events stored            : {}", pool.store().len());
        println!("  max events on one node   : {}", pool.store().max_node_load());
        println!("  nodes holding events     : {}", pool.store().loaded_nodes());
        println!("  total insert messages    : {}", pool.ledger().total_messages());
        println!("  busiest node sent        : {} messages", sends.iter().max().unwrap_or(&0));
        println!(
            "  min remaining battery    : {:.4} (fraction of capacity)",
            battery.min_remaining_fraction()
        );

        // Storage stays fully queryable either way.
        let q = RangeQuery::exact(vec![(0.8, 1.0), (0.0, 0.25), (0.6, 1.0)])?;
        let found = pool.query_from(NodeId(3), &q)?.events.len();
        let truth = pool.brute_force_query(&q).len();
        assert_eq!(found, truth);
        println!("  fire-region query found  : {found} events (ground truth {truth})\n");
    }
    Ok(())
}
