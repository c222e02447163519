//! Chaos campaigns: structured fault injection with adaptive recovery,
//! executed end to end on Pool, DIM, and GHT.
//!
//! Four campaigns run the same insert + query workload per system:
//!
//! * **control** — an empty fault plan over a perfect link. Pinned: the
//!   fault decorator must charge byte-identically to the bare lossy
//!   substrate and answer every query completely.
//! * **kill mid-query** — nodes scouted from the interiors of live query
//!   routes crash partway through the query phase. Run twice: with detour
//!   rerouting (adaptive recovery + operation retry around the failed
//!   hop) and with the detour disabled (same-path retries only) — the
//!   ablation column shows how much completeness detouring buys back.
//! * **partition + heal** — links crossing a region boundary die for a
//!   window inside the query phase, then heal; queries issued after the
//!   heal must succeed again.
//! * **burst loss** — every link is overlaid with a Gilbert–Elliott burst
//!   channel for the rest of the run; hop-level ARQ plus backoff (priced
//!   on the virtual clock) and operation retries carry queries through.
//!
//! Every campaign is an independent trial (own deployment, RNG streams,
//! ledger), so the artifact is byte-identical for any `--jobs` count.
//!
//! Run: `cargo run -p pool-bench --bin chaos_suite --release
//!       [-- --queries N --nodes N --jobs N --smoke]`

use pool_bench::cli::{arg_usize, BenchOpts};
use pool_bench::exec::run_trials;
use pool_bench::harness::{QueryKind, Scenario, SystemPair};
use pool_core::config::PoolConfig;
use pool_core::query::RangeQuery;
use pool_core::system::QueryCost;
use pool_ght::GhtTable;
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::NodeId;
use pool_netsim::stats::Summary;
use pool_netsim::topology::Topology;
use pool_transport::{
    Fault, FaultPlan, GilbertElliott, LossyConfig, OpRetryPolicy, RecoveryConfig, Substrate,
    TrafficLayer, Transport,
};
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Campaign {
    Control,
    Kill,
    Partition,
    Burst,
}

impl Campaign {
    fn label(self) -> &'static str {
        match self {
            Campaign::Control => "control (no faults)",
            Campaign::Kill => "kill mid-query",
            Campaign::Partition => "partition + heal",
            Campaign::Burst => "burst loss",
        }
    }
}

/// One system's measurements under one retry arm.
struct ArmStats {
    completeness_sum: f64,
    ops_complete: usize,
    costs: Vec<QueryCost>,
    detour_routes: u64,
    rtx_messages: u64,
    total_messages: u64,
    latencies_ms: Vec<f64>,
}

/// One emitted row: a system under one campaign, detour arm vs ablation.
struct SystemRow {
    system: &'static str,
    completeness: f64,
    completeness_no_detour: f64,
    ops_complete: usize,
    detour_routes: u64,
    rtx_messages: u64,
    total_messages: u64,
    latency: Summary,
}

struct CampaignResult {
    label: &'static str,
    rows: Vec<SystemRow>,
}

/// The shared per-campaign workload: the same sinks and queries hit every
/// arm of every system, so arms differ only in the fault plan and policy.
fn workload(scenario: &Scenario, queries: usize) -> Vec<(NodeId, RangeQuery)> {
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xC4A0_5EED);
    let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.12 });
    (0..queries)
        .map(|_| {
            let sink = NodeId(rng.gen_range(0..scenario.nodes as u32));
            let query = kind.generate(&mut rng, scenario.dims);
            (sink, query)
        })
        .collect()
}

fn lossy_for(scenario: &Scenario) -> LossyConfig {
    // A perfect link: the only disturbances are the injected faults, so
    // every completeness loss is attributable to the campaign.
    LossyConfig::fixed(1.0, scenario.seed ^ 0xC405)
}

/// GHT's substrate before a campaign adds its faults: plain GPSR over the
/// perfect link of [`lossy_for`].
fn ght_radio(scenario: &Scenario) -> Substrate {
    Substrate { lossy: Some(lossy_for(scenario)), ..Substrate::default() }
}

/// What the scout run learns from a fault-free replay of the workload:
/// the query phase's virtual-time window per system, the field bounds,
/// and crash victims drawn from the interiors of live query routes.
struct ScoutReport {
    window_lo: f64,
    window_hi: f64,
    field: Rect,
    victims: Vec<NodeId>,
}

fn scout(scenario: &Scenario, work: &[(NodeId, RangeQuery)], victims_wanted: usize) -> ScoutReport {
    let config = PoolConfig::paper().with_lossy(lossy_for(scenario));
    let mut pair = SystemPair::build(scenario, config, EventDistribution::Uniform);
    // The fault plan is shared by both systems but each runs its own
    // clock, and their insert phases cost different amounts of virtual
    // time. Seek both clocks to a common epoch before the query phase so
    // one scheduled window is live mid-query for both.
    let t_sync = sync_epoch(&mut pair);

    // Victims come from the middles of real sink → splitter routes, so a
    // crash is guaranteed to sit on paths the campaign actually uses.
    // Index nodes (which include every splitter) are exempt: a dead
    // destination cannot be detoured around, and the contrast under study
    // is route recovery, not data loss.
    let topology = pair.pool.topology().clone();
    let mut index_nodes: HashSet<NodeId> = HashSet::new();
    for dim in 0..scenario.dims {
        for cell in pair.pool.layout().pool(dim).cells() {
            if let Some(node) = pair.pool.index_node_of(cell) {
                index_nodes.insert(node);
            }
        }
    }
    let mut victims: Vec<NodeId> = Vec::new();
    // A query visits only the pools where it resolves relevant cells, so
    // victims come from the middles of the sink → splitter routes those
    // pools will actually walk — a crash there is guaranteed to sit on
    // paths the campaign uses.
    for (sink, query) in work {
        if victims.len() >= victims_wanted {
            break;
        }
        let relevant = pool_core::resolve::relevant_cells(pair.pool.layout(), query);
        for (dim, _) in pool_core::resolve::group_by_pool(&relevant) {
            if victims.len() >= victims_wanted {
                break;
            }
            let splitter = pair.pool.splitter_of(dim, *sink);
            let Ok(route) = pair.pool.transport_mut().route_to_node(&topology, *sink, splitter)
            else {
                continue;
            };
            if route.path.len() < 3 {
                continue;
            }
            let mid = route.path[route.path.len() / 2];
            if !index_nodes.contains(&mid) && !victims.contains(&mid) {
                victims.push(mid);
            }
        }
    }

    for (sink, query) in work {
        pair.pool.query_from(*sink, query).expect("scout pool query");
        pair.dim.query_from(*sink, query).expect("scout dim query");
    }
    let t1_pool = pair.pool.transport().clock().now();
    let t1_dim = pair.dim.transport().clock().now();

    let window_lo = t_sync;
    let window_hi = t1_pool.min(t1_dim).max(window_lo);
    if std::env::var_os("CHAOS_DEBUG").is_some() {
        eprintln!(
            "scout: victims={victims:?} window=[{window_lo:.4}, {window_hi:.4}] \
             t1_pool={t1_pool:.4} t1_dim={t1_dim:.4}"
        );
    }
    ScoutReport { window_lo, window_hi, field: topology.bounds(), victims }
}

/// Seeks both systems' clocks forward to the later of the two (the query
/// phase's common epoch) and returns it. Every campaign arm applies the
/// same sync, so scouted fault windows line up across systems and arms.
fn sync_epoch(pair: &mut SystemPair) -> f64 {
    let t_sync = pair.pool.transport().clock().now().max(pair.dim.transport().clock().now());
    pair.pool.transport_mut().clock_mut().seek(t_sync);
    pair.dim.transport_mut().clock_mut().seek(t_sync);
    t_sync
}

fn plan_for(campaign: Campaign, scout: &ScoutReport) -> FaultPlan {
    let span = scout.window_hi - scout.window_lo;
    match campaign {
        Campaign::Control => FaultPlan::new(),
        Campaign::Kill => {
            // Crash at the query phase's opening instant: every scouted
            // route is then guaranteed to meet its dead interior node.
            let at = scout.window_lo;
            scout
                .victims
                .iter()
                .fold(FaultPlan::new(), |plan, &node| plan.with(Fault::Crash { node, at }))
        }
        Campaign::Partition => {
            let f = scout.field;
            let region =
                Rect::new(f.min, Point::new(f.min.x + 0.35 * (f.max.x - f.min.x), f.max.y));
            FaultPlan::new().with(Fault::Partition {
                region,
                from: scout.window_lo + 0.10 * span,
                until: scout.window_lo + 0.55 * span,
            })
        }
        Campaign::Burst => FaultPlan::new().with(Fault::BurstLoss {
            channel: GilbertElliott { p_gb: 0.08, p_bg: 0.25, good_prr: 1.0, bad_prr: 0.15 },
            from: scout.window_lo,
            until: f64::INFINITY,
        }),
    }
}

/// Runs the workload on a fresh Pool + DIM pair under `config`, returning
/// one [`ArmStats`] per system.
fn run_pair_arm(
    scenario: &Scenario,
    config: PoolConfig,
    work: &[(NodeId, RangeQuery)],
    synced: bool,
) -> (ArmStats, ArmStats) {
    let mut pair = SystemPair::build(scenario, config, EventDistribution::Uniform);
    if synced {
        sync_epoch(&mut pair);
    }
    let queries = work.len() as f64;
    let mut pool = ArmStats {
        completeness_sum: 0.0,
        ops_complete: 0,
        costs: Vec::with_capacity(work.len()),
        detour_routes: 0,
        rtx_messages: 0,
        total_messages: 0,
        latencies_ms: Vec::with_capacity(work.len()),
    };
    let mut dim = ArmStats {
        completeness_sum: 0.0,
        ops_complete: 0,
        costs: Vec::with_capacity(work.len()),
        detour_routes: 0,
        rtx_messages: 0,
        total_messages: 0,
        latencies_ms: Vec::with_capacity(work.len()),
    };
    for (sink, query) in work {
        let p = pair.pool.query_from(*sink, query).expect("pool query");
        pool.completeness_sum += p.completeness.ratio();
        pool.ops_complete += usize::from(p.completeness.is_complete());
        pool.latencies_ms.push(p.cost.elapsed * 1e3);
        pool.costs.push(p.cost);
        let d = pair.dim.query_from(*sink, query).expect("dim query");
        let ratio = if d.zones_visited == 0 {
            1.0
        } else {
            d.zones_reached as f64 / d.zones_visited as f64
        };
        dim.completeness_sum += ratio;
        dim.ops_complete += usize::from(d.zones_reached == d.zones_visited);
        dim.latencies_ms.push(d.cost.elapsed * 1e3);
        dim.costs.push(d.cost);
    }
    pool.completeness_sum /= queries;
    dim.completeness_sum /= queries;
    pool.detour_routes = pair.pool.transport().delivery_stats().detour_routes;
    dim.detour_routes = pair.dim.transport().delivery_stats().detour_routes;
    pool.rtx_messages = pair.pool.ledger().layer_total(TrafficLayer::Retransmit);
    dim.rtx_messages = pair.dim.ledger().layer_total(TrafficLayer::Retransmit);
    pool.total_messages = pair.pool.ledger().total_messages();
    dim.total_messages = pair.dim.ledger().total_messages();
    (pool, dim)
}

fn row_from(system: &'static str, detour: ArmStats, ablation: &ArmStats) -> SystemRow {
    SystemRow {
        system,
        completeness: detour.completeness_sum,
        completeness_no_detour: ablation.completeness_sum,
        ops_complete: detour.ops_complete,
        detour_routes: detour.detour_routes,
        rtx_messages: detour.rtx_messages,
        total_messages: detour.total_messages,
        latency: Summary::of(&detour.latencies_ms),
    }
}

// ----- GHT campaign ------------------------------------------------------

/// The GHT leg of a campaign: the same topology discipline as the pair
/// (paper deployment, connectivity retries), `puts` keyed values, then the
/// query phase issues gets under the campaign's fault plan.
struct GhtWorkload {
    topology: Topology,
    puts: Vec<(NodeId, String)>,
    gets: Vec<(NodeId, String)>,
}

fn ght_workload(scenario: &Scenario, gets: usize) -> GhtWorkload {
    let mut seed = scenario.seed;
    let topology = loop {
        let dep = Deployment::paper_setting(
            scenario.nodes,
            scenario.radio_range,
            scenario.avg_neighbors,
            seed,
        )
        .expect("valid deployment parameters");
        let topo =
            Topology::build(dep.nodes(), scenario.radio_range).expect("valid topology parameters");
        if topo.is_connected() {
            break topo;
        }
        seed = seed.wrapping_add(0x1000);
    };
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x6417_0000);
    let n = topology.len() as u32;
    let keys = (gets / 2).clamp(8, 64);
    let puts: Vec<(NodeId, String)> =
        (0..keys).map(|i| (NodeId(rng.gen_range(0..n)), format!("key-{i}"))).collect();
    let gets: Vec<(NodeId, String)> = (0..gets)
        .map(|_| {
            let key = rng.gen_range(0..keys);
            (NodeId(rng.gen_range(0..n)), format!("key-{key}"))
        })
        .collect();
    GhtWorkload { topology, puts, gets }
}

struct GhtScout {
    window_lo: f64,
    window_hi: f64,
    field: Rect,
    victims: Vec<NodeId>,
}

fn ght_scout(scenario: &Scenario, work: &GhtWorkload, victims_wanted: usize) -> GhtScout {
    let mut transport = ght_radio(scenario).stack(&work.topology, 0);
    let mut ght: GhtTable<u64> = GhtTable::new(&work.topology);
    for (i, (source, key)) in work.puts.iter().enumerate() {
        ght.put(&work.topology, transport.as_mut(), *source, key, i as u64).expect("scout ght put");
    }
    let window_lo = transport.clock().now();

    // Victims: interiors of real get routes, never a home node (a dead
    // home loses the data outright — no detour can recover that).
    let homes: HashSet<NodeId> = work
        .puts
        .iter()
        .map(|(_, key)| {
            let loc = ght.key_location(&work.topology, key);
            transport
                .route_to_location(&work.topology, NodeId(0), loc)
                .expect("home route")
                .delivered
        })
        .collect();
    let mut victims: Vec<NodeId> = Vec::new();
    for (sink, key) in &work.gets {
        if victims.len() >= victims_wanted {
            break;
        }
        let loc = ght.key_location(&work.topology, key);
        let Ok(route) = transport.route_to_location(&work.topology, *sink, loc) else {
            continue;
        };
        if route.path.len() < 3 {
            continue;
        }
        let mid = route.path[route.path.len() / 2];
        if !homes.contains(&mid) && !victims.contains(&mid) {
            victims.push(mid);
        }
    }

    for (sink, key) in &work.gets {
        ght.get(&work.topology, transport.as_mut(), *sink, key).expect("scout ght get");
    }
    let window_hi = transport.clock().now().max(window_lo);
    GhtScout { window_lo, window_hi, field: work.topology.bounds(), victims }
}

struct GhtArm {
    completeness: f64,
    detour_routes: u64,
    rtx_messages: u64,
    total_messages: u64,
    latencies_ms: Vec<f64>,
}

fn run_ght_arm(work: &GhtWorkload, substrate: &Substrate) -> GhtArm {
    let mut transport = substrate.stack(&work.topology, 0);
    let mut ght: GhtTable<u64> = GhtTable::new(&work.topology);
    for (i, (source, key)) in work.puts.iter().enumerate() {
        // Puts precede every fault window, so the stored state matches the
        // scout run exactly; the campaign stresses reads.
        ght.put(&work.topology, transport.as_mut(), *source, key, i as u64).expect("ght put");
    }
    let mut delivered = 0usize;
    let mut latencies_ms = Vec::with_capacity(work.gets.len());
    for (sink, key) in &work.gets {
        let (values, receipt) = ght
            .get_with_retry(&work.topology, transport.as_mut(), *sink, key, substrate.op_retry)
            .expect("ght get");
        // Every key was stored (puts precede the faults), so an empty
        // answer always means a lost leg, not a missing key.
        delivered += usize::from(receipt.delivered && !values.is_empty());
        latencies_ms.push(receipt.elapsed * 1e3);
    }
    GhtArm {
        completeness: delivered as f64 / work.gets.len() as f64,
        detour_routes: transport.delivery_stats().detour_routes,
        rtx_messages: transport.ledger().layer_total(TrafficLayer::Retransmit),
        total_messages: transport.ledger().total_messages(),
        latencies_ms,
    }
}

fn run_ght_campaign(scenario: &Scenario, campaign: Campaign, gets: usize) -> SystemRow {
    let work = ght_workload(scenario, gets);
    if campaign == Campaign::Control {
        // Pinned: the fault decorator with an empty plan must be
        // byte-identical to the bare lossy substrate, and every get must
        // come back complete.
        let mut bare = ght_radio(scenario).stack(&work.topology, 0);
        let mut ght: GhtTable<u64> = GhtTable::new(&work.topology);
        for (i, (source, key)) in work.puts.iter().enumerate() {
            ght.put(&work.topology, bare.as_mut(), *source, key, i as u64).expect("ght put");
        }
        for (sink, key) in &work.gets {
            ght.get(&work.topology, bare.as_mut(), *sink, key).expect("ght get");
        }
        let control = Substrate { faults: Some(FaultPlan::new()), ..ght_radio(scenario) };
        let arm = run_ght_arm(&work, &control);
        let wrapped = run_ght_control_ledger(&work, &control);
        assert_eq!(
            bare.ledger(),
            wrapped.ledger(),
            "ght control: empty fault plan diverged from the bare lossy substrate"
        );
        assert!(
            (arm.completeness - 1.0).abs() < 1e-12,
            "ght control incomplete: {}",
            arm.completeness
        );
        let latency = Summary::of(&arm.latencies_ms);
        return SystemRow {
            system: "ght",
            completeness: arm.completeness,
            completeness_no_detour: arm.completeness,
            ops_complete: work.gets.len(),
            detour_routes: arm.detour_routes,
            rtx_messages: arm.rtx_messages,
            total_messages: arm.total_messages,
            latency,
        };
    }
    let scout = ght_scout(scenario, &work, 6);
    let span = scout.window_hi - scout.window_lo;
    let plan = match campaign {
        Campaign::Control => unreachable!("handled above"),
        Campaign::Kill => {
            let at = scout.window_lo + 0.10 * span;
            scout
                .victims
                .iter()
                .fold(FaultPlan::new(), |plan, &node| plan.with(Fault::Crash { node, at }))
        }
        Campaign::Partition => {
            let f = scout.field;
            let region =
                Rect::new(f.min, Point::new(f.min.x + 0.35 * (f.max.x - f.min.x), f.max.y));
            FaultPlan::new().with(Fault::Partition {
                region,
                from: scout.window_lo + 0.10 * span,
                until: scout.window_lo + 0.55 * span,
            })
        }
        Campaign::Burst => FaultPlan::new().with(Fault::BurstLoss {
            channel: GilbertElliott { p_gb: 0.08, p_bg: 0.25, good_prr: 1.0, bad_prr: 0.15 },
            from: scout.window_lo,
            until: f64::INFINITY,
        }),
    };
    let chaos = Substrate {
        faults: Some(plan),
        recovery: Some(RecoveryConfig::default()),
        ..ght_radio(scenario)
    };
    let detour = run_ght_arm(
        &work,
        &Substrate { op_retry: Some(OpRetryPolicy::detouring(2)), ..chaos.clone() },
    );
    let ablation =
        run_ght_arm(&work, &Substrate { op_retry: Some(OpRetryPolicy::same_path(2)), ..chaos });
    let latency = Summary::of(&detour.latencies_ms);
    SystemRow {
        system: "ght",
        completeness: detour.completeness,
        completeness_no_detour: ablation.completeness,
        ops_complete: (detour.completeness * work.gets.len() as f64).round() as usize,
        detour_routes: detour.detour_routes,
        rtx_messages: detour.rtx_messages,
        total_messages: detour.total_messages,
        latency,
    }
}

/// Replays the control workload over `control`, the wrapped-but-empty fault
/// transport, so its ledger can be compared against the bare substrate's.
fn run_ght_control_ledger(work: &GhtWorkload, control: &Substrate) -> Box<dyn Transport> {
    let mut transport = control.stack(&work.topology, 0);
    let mut ght: GhtTable<u64> = GhtTable::new(&work.topology);
    for (i, (source, key)) in work.puts.iter().enumerate() {
        ght.put(&work.topology, transport.as_mut(), *source, key, i as u64).expect("ght put");
    }
    for (sink, key) in &work.gets {
        ght.get(&work.topology, transport.as_mut(), *sink, key).expect("ght get");
    }
    transport
}

// ----- campaign driver ---------------------------------------------------

fn run_campaign(scenario: &Scenario, campaign: Campaign, queries: usize) -> CampaignResult {
    let work = workload(scenario, queries);
    let lossy = lossy_for(scenario);
    let mut rows = Vec::with_capacity(3);
    if campaign == Campaign::Control {
        // Pinned byte-identity: an empty fault plan (no recovery, no op
        // retry) must charge exactly like the bare lossy substrate, query
        // by query, and answer everything.
        let bare = PoolConfig::paper().with_lossy(lossy);
        let wrapped = PoolConfig::paper().with_lossy(lossy).with_faults(FaultPlan::new());
        let (bare_pool, bare_dim) = run_pair_arm(scenario, bare, &work, false);
        let (pool, dim) = run_pair_arm(scenario, wrapped, &work, false);
        assert_eq!(pool.costs, bare_pool.costs, "control pool costs diverged from bare lossy");
        assert_eq!(dim.costs, bare_dim.costs, "control dim costs diverged from bare lossy");
        assert_eq!(pool.total_messages, bare_pool.total_messages);
        assert_eq!(dim.total_messages, bare_dim.total_messages);
        assert!((pool.completeness_sum - 1.0).abs() < 1e-12, "control pool incomplete");
        assert!((dim.completeness_sum - 1.0).abs() < 1e-12, "control dim incomplete");
        let pool_row = row_from("pool", pool, &bare_pool);
        let dim_row = row_from("dim", dim, &bare_dim);
        rows.push(SystemRow { completeness_no_detour: pool_row.completeness, ..pool_row });
        rows.push(SystemRow { completeness_no_detour: dim_row.completeness, ..dim_row });
        rows.push(run_ght_campaign(scenario, campaign, queries.max(8)));
        return CampaignResult { label: campaign.label(), rows };
    }

    let report = scout(scenario, &work, 8);
    let plan = plan_for(campaign, &report);
    if std::env::var_os("CHAOS_DEBUG").is_some() {
        eprintln!("campaign {}: plan={:?}", campaign.label(), plan);
    }
    let recovery = RecoveryConfig::default();
    let base = PoolConfig::paper().with_lossy(lossy).with_faults(plan).with_recovery(recovery);
    let detour_config = base.clone().with_op_retry(OpRetryPolicy::detouring(2));
    let ablation_config = base.with_op_retry(OpRetryPolicy::same_path(2));
    let (pool_detour, dim_detour) = run_pair_arm(scenario, detour_config, &work, true);
    let (pool_ablation, dim_ablation) = run_pair_arm(scenario, ablation_config, &work, true);
    rows.push(row_from("pool", pool_detour, &pool_ablation));
    rows.push(row_from("dim", dim_detour, &dim_ablation));
    rows.push(run_ght_campaign(scenario, campaign, queries.max(8)));
    CampaignResult { label: campaign.label(), rows }
}

fn main() {
    let opts = BenchOpts::from_env();
    let queries = arg_usize("--queries", opts.queries(40)).max(1);
    let nodes = arg_usize("--nodes", opts.nodes(400));
    let scenario = Scenario::paper(nodes, 90_000);

    let campaigns = vec![Campaign::Control, Campaign::Kill, Campaign::Partition, Campaign::Burst];
    let results =
        run_trials(opts.jobs, campaigns, |_, campaign| run_campaign(&scenario, campaign, queries));

    let mut table = pool_bench::Table::new(
        "Chaos suite: fault injection, adaptive recovery, detour ablation",
        &[
            "campaign",
            "system",
            "completeness",
            "completeness_no_detour",
            "ops_complete",
            "detour_routes",
            "rtx_messages",
            "total_messages",
            "query_p50_ms",
            "query_p99_ms",
        ],
    );
    table.meta("nodes", nodes);
    table.meta("queries", queries);
    for result in &results {
        for row in &result.rows {
            table.row(vec![
                result.label.into(),
                row.system.into(),
                row.completeness.into(),
                row.completeness_no_detour.into(),
                row.ops_complete.into(),
                row.detour_routes.into(),
                row.rtx_messages.into(),
                row.total_messages.into(),
                row.latency.median.into(),
                row.latency.p99.into(),
            ]);
        }
    }
    opts.emit("chaos", &table);

    // The kill campaign is the tentpole claim: detour rerouting must never
    // hurt, and at full scale it must demonstrably buy completeness back
    // versus the same-path ablation.
    let kill = &results[1];
    for row in &kill.rows {
        assert!(
            row.completeness >= row.completeness_no_detour - 1e-12,
            "{}: detouring reduced completeness ({} < {})",
            row.system,
            row.completeness,
            row.completeness_no_detour
        );
    }
    if !opts.smoke {
        assert!(
            kill.rows.iter().any(|r| r.completeness > r.completeness_no_detour + 1e-12),
            "kill campaign: detour routing recovered nothing over the ablation"
        );
    }
}
