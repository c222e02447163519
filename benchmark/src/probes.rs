//! The layer probes: one calibrated measurement per public function a hop,
//! an operation or an epoch passes through, on the workload's own network.
//!
//! Probes call only `pub` items of the crates under `crates/`. Inputs come
//! from pre-generated tables (random node pairs, routed paths, events,
//! queries) indexed by the running call counter, so no probe times its own
//! input generation and none repeats a single input.

use crate::inputs::{
    events, exponential_queries, pool_config, pool_layout, rng, Net, Stream, DIMS, RADIO,
};
use crate::measure::{measure, measure_once, Budget, Measurement};
use crate::metrics::{per_layer, MetricRow};
use crate::stats::Summary;
use pool_core::insert::storage_cell;
use pool_core::resolve::relevant_cells;
use pool_core::system::PoolSystem;
use pool_dim::code::ZoneCode;
use pool_dim::zone::ZoneTree;
use pool_ght::hash::hash_to_location;
use pool_ght::table::GhtTable;
use pool_gpsr::greedy::greedy_next;
use pool_gpsr::perimeter::right_hand_next;
use pool_gpsr::planar::PlanarGraph;
use pool_gpsr::{Gpsr, Planarization};
use pool_netsim::exec::derive_seed;
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::radio::PrrModel;
use pool_netsim::topology::Topology;
use pool_service::{PoolBackend, Request, ServiceBackend};
use pool_transport::{
    clean_hops, CachedTransport, DeliveryOutcome, Fault, FaultPlan, FaultyTransport,
    GilbertElliott, GpsrTransport, Hop, LatencyModel, LossyConfig, LossyTransport, RecoveryConfig,
    TraceOp, Tracer, TrafficLayer, TrafficLedger, Transport, TransportKind, VirtualClock,
};
use pool_workloads::queries::partial_query;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Entries per input table.
const TABLE: usize = 1024;
/// Routes a warmed cache holds.
const WARM_ROUTES: usize = 4096;
/// Churn events of the mutation probe: joins, moves, deaths.
const MUTATION: (usize, usize, usize) = (10, 20, 20);
/// A virtual instant no probe's clock ever reaches.
const NEVER: f64 = 1e12;

/// Pre-generated probe inputs over one network.
struct Tables {
    pairs: Vec<(NodeId, NodeId)>,
    points: Vec<Point>,
    /// GPSR paths of the first `TABLE / 4` pairs.
    paths: Vec<Vec<NodeId>>,
    mean_hops: f64,
}

impl Tables {
    fn new(net: &Net, gpsr: &Gpsr, seed: u64) -> Self {
        let mut rng = rng(seed, Stream::Probes);
        let n = net.len() as u32;
        let pairs: Vec<(NodeId, NodeId)> = (0..TABLE)
            .map(|_| (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n))))
            .collect();
        let points = (0..TABLE)
            .map(|_| {
                Point::new(
                    rng.gen_range(net.field.min.x..=net.field.max.x),
                    rng.gen_range(net.field.min.y..=net.field.max.y),
                )
            })
            .collect();
        let paths: Vec<Vec<NodeId>> = pairs[..TABLE / 4]
            .iter()
            .filter_map(|&(a, b)| gpsr.route_to_node(&net.topology, a, b).ok())
            .map(|route| route.path)
            .filter(|path| path.len() > 1)
            .collect();
        assert!(!paths.is_empty(), "a connected network routes between random pairs");
        let mean_hops =
            paths.iter().map(|p| (p.len() - 1) as f64).sum::<f64>() / paths.len() as f64;
        Tables { pairs, points, paths, mean_hops }
    }

    fn pair(&self, i: u64) -> (NodeId, NodeId) {
        self.pairs[i as usize % self.pairs.len()]
    }

    fn path(&self, i: u64) -> &[NodeId] {
        &self.paths[i as usize % self.paths.len()]
    }
}

/// Collects probe results as metric rows.
struct Rows {
    rows: Vec<MetricRow>,
}

impl Rows {
    /// Adds `m`, converted from nanoseconds per call by `scale`.
    fn add(&mut self, name: &str, m: Measurement, scale: f64) {
        let ns = m.per_call_ns;
        self.rows.push(MetricRow {
            def: per_layer(name),
            value: ns.median * scale,
            summary: Summary {
                samples: ns.samples,
                min: ns.min * scale,
                q1: ns.q1 * scale,
                median: ns.median * scale,
                q3: ns.q3 * scale,
                max: ns.max * scale,
            },
            refused: m.refused(),
        });
    }

    fn count(&mut self, name: &str, value: f64) {
        self.rows.push(MetricRow::single(per_layer(name), value));
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e-3;
const MS: f64 = 1e-6;

/// Runs every probe on `net` and returns one row per probe metric.
pub fn run(net: &Net, seed: u64, budget: Budget) -> Vec<MetricRow> {
    let topology: &Topology = &net.topology;
    let gpsr = Gpsr::new(topology, Planarization::Gabriel);
    let tables = Tables::new(net, &gpsr, seed);
    let mut rows = Rows { rows: Vec::new() };
    netsim_probes(&mut rows, net, &tables, budget);
    gpsr_probes(&mut rows, net, &gpsr, &tables, budget);
    cached_probes(&mut rows, net, &tables, seed, budget);
    accounting_probes(&mut rows, net, &tables, budget);
    link_probes(&mut rows, net, &tables, seed, budget);
    core_probes(&mut rows, net, seed, budget);
    dim_probes(&mut rows, net, seed, budget);
    ght_probes(&mut rows, net, &tables, budget);
    service_probes(&mut rows, net, seed, budget);
    rows.add(
        "bench.timer_ns",
        measure(budget, |_| {
            black_box(Instant::now().elapsed());
        }),
        NS,
    );
    rows.rows
}

fn netsim_probes(rows: &mut Rows, net: &Net, tables: &Tables, budget: Budget) {
    let topology: &Topology = &net.topology;
    rows.add(
        "netsim.topology.build_ms",
        measure_once(
            budget,
            || net.nodes.clone(),
            |nodes| Topology::build(nodes, RADIO).expect("valid topology parameters"),
        ),
        MS,
    );
    rows.add(
        "netsim.topology.neighbors_ns",
        measure(budget, |i| {
            // Read the row, as a hop does; the slice alone is two loads.
            black_box(topology.neighbors(tables.pair(i).0).iter().fold(0u32, |acc, n| acc ^ n.0));
        }),
        NS,
    );
    rows.add(
        "netsim.topology.nearest_node_ns",
        measure(budget, |i| {
            black_box(topology.nearest_node(tables.points[i as usize % TABLE]));
        }),
        NS,
    );

    // One epoch's worth of in-place mutation on a copy, then its compaction.
    let (joins, moves, deaths) = MUTATION;
    let victims: Vec<NodeId> = tables.pairs[..deaths].iter().map(|p| p.0).collect();
    let mutate = |topo: &mut Topology| {
        for point in &tables.points[..joins] {
            topo.add_node(*point);
        }
        for (i, &(_, id)) in tables.pairs[deaths..deaths + moves].iter().enumerate() {
            if topo.is_alive(id) {
                topo.move_node(id, tables.points[joins + i]);
            }
        }
        topo.fail_nodes(&victims);
    };
    let calls = (joins + moves + 1) as f64;
    rows.add(
        "netsim.topology.mutate_us",
        measure_once(
            budget,
            || topology.clone(),
            |mut topo| {
                mutate(&mut topo);
                topo
            },
        ),
        US / calls,
    );
    let mut patched = topology.clone();
    mutate(&mut patched);
    rows.count("netsim.topology.patched_rows", patched.patched_rows() as f64);
    rows.add(
        "netsim.topology.compact_ms",
        measure_once(
            budget,
            || patched.clone(),
            |mut topo| {
                topo.compact();
                topo
            },
        ),
        MS,
    );
}

fn gpsr_probes(rows: &mut Rows, net: &Net, gpsr: &Gpsr, tables: &Tables, budget: Budget) {
    let topology: &Topology = &net.topology;
    rows.add(
        "gpsr.planar.build_ms",
        measure_once(budget, || (), |()| PlanarGraph::build(topology, Planarization::Gabriel)),
        MS,
    );
    rows.add(
        "gpsr.greedy.step_ns",
        measure(budget, |i| {
            let (at, towards) = tables.pair(i);
            black_box(greedy_next(topology, at, topology.position(towards)));
        }),
        NS,
    );
    let planar = gpsr.planar();
    rows.add(
        "gpsr.perimeter.step_ns",
        measure(budget, |i| {
            let (at, towards) = tables.pair(i);
            let angle = topology.position(at).angle_to(topology.position(towards));
            black_box(right_hand_next(planar, topology, at, angle));
        }),
        NS,
    );
    rows.add(
        "gpsr.router.route_us",
        measure(budget, |i| {
            let (from, to) = tables.pair(i);
            black_box(gpsr.route_to_node(topology, from, to).map(|r| r.path.len()).ok());
        }),
        US,
    );
    let (mut routes, mut hops, mut perimeter) = (0u64, 0u64, 0u64);
    for &(from, to) in &tables.pairs[..TABLE / 4] {
        if let Ok(route) = gpsr.route_to_node(topology, from, to) {
            routes += 1;
            hops += route.hops() as u64;
            perimeter += route.perimeter_hops as u64;
        }
    }
    rows.count("gpsr.router.hops_per_route", hops as f64 / routes.max(1) as f64);
    rows.count("gpsr.router.perimeter_share", perimeter as f64 / hops.max(1) as f64);
}

fn cached_probes(rows: &mut Rows, net: &Net, tables: &Tables, seed: u64, budget: Budget) {
    let topology: &Topology = &net.topology;
    let n = net.len() as u64;
    // Distinct pairs without a table: the miss probe must never repeat one.
    let fresh_pair = |i: u64| {
        let h = derive_seed(seed, i);
        (NodeId((h % n) as u32), NodeId(((h >> 32) % n) as u32))
    };
    let mut warm = CachedTransport::new(topology, Planarization::Gabriel);
    for i in 0..WARM_ROUTES as u64 {
        let (from, to) = fresh_pair(i);
        let _ = warm.route_to_node(topology, from, to);
    }

    let mut hot = warm.clone();
    rows.add(
        "transport.cached.hit_ns",
        measure(budget, |i| {
            let (from, to) = fresh_pair(i % WARM_ROUTES as u64);
            black_box(hot.route_to_node(topology, from, to).is_ok());
        }),
        NS,
    );
    let mut cold = CachedTransport::new(topology, Planarization::Gabriel);
    rows.add(
        "transport.cached.miss_us",
        measure(budget, |i| {
            let (from, to) = fresh_pair(WARM_ROUTES as u64 + i);
            black_box(cold.route_to_node(topology, from, to).is_ok());
        }),
        US,
    );
    let evicted: Vec<NodeId> = tables.pairs[..16].iter().map(|p| p.1).collect();
    rows.add(
        "transport.cached.evict_through_us",
        measure_once(
            budget,
            || warm.clone(),
            |mut cache| {
                for &node in &evicted {
                    black_box(cache.evict_routes_through(node));
                }
                cache
            },
        ),
        US / evicted.len() as f64,
    );
    rows.add(
        "transport.cached.rebuild_ms",
        measure_once(
            budget,
            || warm.clone(),
            |mut cache| {
                cache.rebuild(topology);
                cache
            },
        ),
        MS,
    );
}

/// Ledger, clock, tracer, and the clean default `deliver`.
fn accounting_probes(rows: &mut Rows, net: &Net, tables: &Tables, budget: Budget) {
    let topology: &Topology = &net.topology;
    let per_hop = NS / tables.mean_hops;
    let mut ledger = TrafficLedger::new(net.len());
    rows.add(
        "transport.ledger.charge_ns_per_hop",
        measure(budget, |i| {
            black_box(ledger.charge_path(tables.path(i), TrafficLayer::Forward));
        }),
        per_hop,
    );
    let mut clock = VirtualClock::new(net.len(), LatencyModel::default());
    rows.add(
        "transport.clock.leg_ns_per_hop",
        measure(budget, |i| {
            black_box(clock.time_leg(&clean_hops(tables.path(i))));
        }),
        per_hop,
    );
    const COPIES: usize = 3;
    rows.add(
        "transport.clock.fanout_ns_per_hop",
        measure(budget, |i| {
            let back: Vec<NodeId> = tables.path(i).iter().rev().copied().collect();
            let legs: Vec<Vec<Hop>> = (0..COPIES).map(|_| clean_hops(&back)).collect();
            black_box(clock.time_fanout(&legs));
        }),
        per_hop / COPIES as f64,
    );
    let mut tracer = Tracer::default();
    rows.add(
        "transport.trace.record_ns",
        measure(budget, |i| {
            let path = tables.path(i);
            let outcome = DeliveryOutcome::delivered_clean(path, (path.len() - 1) as u64);
            tracer.record_delivery(TraceOp::Query, path, TrafficLayer::Forward, &outcome, 0.0);
        }),
        NS,
    );
    let mut clean = GpsrTransport::new(topology, Planarization::Gabriel);
    rows.add(
        "transport.deliver.clean_ns_per_hop",
        measure(budget, |i| {
            black_box(clean.deliver(topology, tables.path(i), TrafficLayer::Forward));
        }),
        per_hop,
    );
}

/// Times `deliver` on `transport` and scales to nanoseconds per
/// transmission, retransmissions included.
fn per_transmission(
    topology: &Topology,
    transport: &mut dyn Transport,
    tables: &Tables,
    budget: Budget,
) -> (Measurement, f64) {
    let before = transport.ledger().total_messages();
    let mut calls = 0u64;
    let m = measure(budget, |i| {
        calls += 1;
        black_box(transport.deliver(topology, tables.path(i), TrafficLayer::Forward));
    });
    let transmissions = (transport.ledger().total_messages() - before) as f64;
    (m, NS * calls as f64 / transmissions.max(1.0))
}

fn link_probes(rows: &mut Rows, net: &Net, tables: &Tables, seed: u64, budget: Budget) {
    let topology: &Topology = &net.topology;
    let inner =
        || -> Box<dyn Transport> { Box::new(GpsrTransport::new(topology, Planarization::Gabriel)) };
    let radio = LossyConfig::model(PrrModel::new(36.0, 50.0), seed);
    for (name, config) in [
        ("transport.lossy.deliver_ns_per_hop.prr1", LossyConfig::fixed(1.0, seed)),
        ("transport.lossy.deliver_ns_per_hop.prr36_50", radio),
    ] {
        let mut lossy = LossyTransport::wrap(inner(), config);
        let (m, scale) = per_transmission(topology, &mut lossy, tables, budget);
        rows.add(name, m, scale);
    }

    // Plans whose faults never fire: what is measured is the per-hop cost
    // of carrying a plan, which `link_state` pays whether or not a fault is
    // active. Victims come from the pair table; asymmetric links degrade
    // directions the probe paths do not use.
    let victim = |i: usize| tables.pairs[TABLE - 1 - i].0;
    let plan_of = |faults: usize| {
        let mut plan = FaultPlan::new();
        for i in 0..faults {
            plan.push(match i % 4 {
                0 => Fault::Pause { node: victim(i), from: NEVER, until: NEVER + 1.0 },
                1 => {
                    Fault::AsymmetricLink { from: victim(i), to: victim(i + 1), prr: 0.6, at: 0.0 }
                }
                2 => Fault::BurstLoss {
                    channel: GilbertElliott::new(0.05, 0.4, 1.0, 0.5),
                    from: NEVER,
                    until: NEVER + 1.0,
                },
                _ => Fault::Crash { node: victim(i), at: NEVER },
            });
        }
        plan
    };
    for (name, faults) in [
        ("transport.faults.deliver_ns_per_hop.plan0", 0),
        ("transport.faults.deliver_ns_per_hop.plan1", 1),
        ("transport.faults.deliver_ns_per_hop.plan16", 16),
    ] {
        let mut faulty = FaultyTransport::wrap_adaptive(
            inner(),
            radio,
            plan_of(faults),
            RecoveryConfig::default(),
        );
        let (m, scale) = per_transmission(topology, &mut faulty, tables, budget);
        rows.add(name, m, scale);
    }

    // A detour around four interior nodes of the direct path.
    let detours: Vec<(NodeId, NodeId, Vec<NodeId>)> = tables
        .paths
        .iter()
        .filter(|p| p.len() > 8)
        .take(8)
        .map(|p| (p[0], p[p.len() - 1], p[2..6].to_vec()))
        .collect();
    if detours.is_empty() {
        rows.count("transport.faults.detour_route_us", 0.0);
        return;
    }
    let mut cached = CachedTransport::new(topology, Planarization::Gabriel);
    let mut next = 0usize;
    rows.add(
        "transport.faults.detour_route_us",
        measure_once(
            budget,
            || {
                next += 1;
                &detours[next % detours.len()]
            },
            |(from, to, excluded)| {
                cached.route_to_node_avoiding(topology, *from, *to, excluded).map(|r| r.path.len())
            },
        ),
        US,
    );
}

fn core_probes(rows: &mut Rows, net: &Net, seed: u64, budget: Budget) {
    let config = pool_config(net.field);
    let (grid, layout) = pool_layout(net.field);
    let events = events(seed, TABLE);
    let mut rng = rng(seed, Stream::Probes);
    let detected: Vec<_> = (0..TABLE)
        .map(|_| {
            let id = NodeId(rng.gen_range(0..net.len() as u32));
            grid.cell_of(net.topology.position(id))
        })
        .collect();
    rows.add(
        "core.insert.storage_cell_ns",
        measure(budget, |i| {
            let i = i as usize % TABLE;
            black_box(storage_cell(&layout, &grid, &events[i], detected[i]));
        }),
        NS,
    );
    let exact = exponential_queries(seed, TABLE);
    rows.add(
        "core.resolve.relevant_cells_us.exact",
        measure(budget, |i| {
            black_box(relevant_cells(&layout, &exact[i as usize % TABLE]).len());
        }),
        US,
    );
    let partial: Vec<_> = (0..TABLE).map(|_| partial_query(&mut rng, DIMS, 1)).collect();
    rows.add(
        "core.resolve.relevant_cells_us.partial1",
        measure(budget, |i| {
            black_box(relevant_cells(&layout, &partial[i as usize % TABLE]).len());
        }),
        US,
    );
    rows.add(
        "core.system.build_ms",
        measure_once(
            budget,
            || config.clone(),
            |config| PoolSystem::build_shared(net.topology.clone(), net.field, config),
        ),
        MS,
    );
}

fn dim_probes(rows: &mut Rows, net: &Net, seed: u64, budget: Budget) {
    let topology: &Topology = &net.topology;
    rows.add(
        "dim.zone.build_ms",
        measure_once(budget, || (), |()| ZoneTree::build(topology, net.field)),
        MS,
    );
    let tree = ZoneTree::build(topology, net.field);
    let depth = tree.depth();
    let events = events(seed, TABLE);
    rows.add(
        "dim.code.of_event_ns",
        measure(budget, |i| {
            black_box(ZoneCode::of_event(events[i as usize % TABLE].values(), depth));
        }),
        NS,
    );
    let rewritten: Vec<_> =
        exponential_queries(seed, TABLE).iter().map(|q| q.rewritten()).collect();
    rows.add(
        "dim.zone.zones_overlapping_us",
        measure(budget, |i| {
            black_box(tree.zones_overlapping(&rewritten[i as usize % TABLE]).len());
        }),
        US,
    );
}

fn ght_probes(rows: &mut Rows, net: &Net, tables: &Tables, budget: Budget) {
    let topology: &Topology = &net.topology;
    let keys: Vec<String> = (0..TABLE).map(|i| format!("evt-{i}")).collect();
    rows.add(
        "ght.hash.locate_ns",
        measure(budget, |i| {
            black_box(hash_to_location(keys[i as usize % TABLE].as_bytes(), net.field));
        }),
        NS,
    );
    let mut transport = TransportKind::Cached.build(topology, Planarization::Gabriel);
    let mut table: GhtTable<u64> = GhtTable::new(topology);
    rows.add(
        "ght.table.put_us",
        measure(budget, |i| {
            let key = &keys[i as usize % TABLE];
            black_box(table.put(topology, transport.as_mut(), tables.pair(i).0, key, i).is_ok());
        }),
        US,
    );
    // Reads go to a table holding one value per key, so the answer's size
    // does not depend on how long the put probe ran.
    let mut stocked: GhtTable<u64> = GhtTable::new(topology);
    for (i, key) in keys.iter().enumerate() {
        let _ = stocked.put(topology, transport.as_mut(), tables.pair(i as u64).0, key, i as u64);
    }
    rows.add(
        "ght.table.get_us",
        measure(budget, |i| {
            let key = &keys[i as usize % TABLE];
            black_box(stocked.get(topology, transport.as_mut(), tables.pair(i).1, key).is_ok());
        }),
        US,
    );
}

fn service_probes(rows: &mut Rows, net: &Net, seed: u64, budget: Budget) {
    let (backend, _shards) =
        PoolBackend::build(net.topology.as_ref().clone(), net.field, pool_config(net.field), DIMS)
            .expect("the connected benchmark network hosts the shards");
    let sink = NodeId(0);
    let requests: Vec<Request> = exponential_queries(seed, TABLE)
        .into_iter()
        .map(|query| Request::Query { sink, query })
        .collect();
    rows.add(
        "service.backend.shards_of_ns",
        measure(budget, |i| {
            black_box(backend.shards_of(&requests[i as usize % TABLE]).len());
        }),
        NS,
    );
    rows.add(
        "service.backend.relevant_ids_us",
        measure(budget, |i| {
            black_box(backend.relevant_ids(&requests[i as usize % TABLE]).len());
        }),
        US,
    );
}
