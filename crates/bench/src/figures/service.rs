//! Service-load driver: sustained concurrent load on the sharded front
//! end, Pool vs DIM vs GHT, with a coalescing-disabled ablation.
//!
//! Every other figure measures one operation at a time; this one measures
//! the *service*: an open-loop virtual-time schedule of mixed reads and
//! writes replayed through a [`ServiceHandle`] — admission windows,
//! query coalescing, per-shard queueing, parallel shard execution — and
//! reports throughput (requests per virtual second) and request latency
//! (p50/p99 virtual milliseconds, arrival to completion, so queueing and
//! admission delay are priced in).
//!
//! Three load profiles run against three backends:
//!
//! * **burst** — clients arrive in tight same-sink bursts (dashboard
//!   refresh): the best case for coalescing, which collapses each burst
//!   into one delivery.
//! * **sustained** — a steady open-loop stream with occasional writes:
//!   coalescing only catches same-window neighbours.
//! * **chaos** — the sustained stream while a [`FaultPlan`] crashes
//!   scouted victims mid-load (adaptive recovery + operation retries
//!   on); the completeness column reports what the service honestly
//!   failed to answer.
//!
//! Each profile × system arm runs twice — coalescing on (the `reqps` /
//! `p50_ms` / `p99_ms` / `messages` columns) and the admission-disabled
//! ablation (`nc_*` columns) — on freshly built deployments, so the two
//! arms differ only in the admission policy. Pool and DIM serve the
//! *identical* schedule over the same topology; GHT serves a key-value
//! translation with the same arrival process.
//!
//! Every arm is an independent trial and [`ServiceHandle::serve`] is
//! jobs-invariant by construction, so `BENCH_service.json` is
//! byte-identical for any `--jobs` count. Every serve call additionally
//! audits the conservation identity (attributed messages == exact shard
//! ledger growth) — the benchmark doubles as a concurrency correctness
//! gate.
//!
//! [`ServiceHandle`]: pool_service::ServiceHandle
//! [`ServiceHandle::serve`]: pool_service::ServiceHandle::serve
//! [`FaultPlan`]: pool_transport::FaultPlan

use crate::cli::{arg_usize, Args, BenchOpts};
use crate::exec::{derive_seed, run_trials};
use crate::harness::{connected_deployment, Scenario};
use crate::report::{Report, Table};
use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use pool_service::{
    AdmissionConfig, DimBackend, GhtBackend, PoolBackend, Request, ScheduledRequest, ServeOutcome,
    ServiceBackend, ServiceHandle,
};
use pool_transport::{Fault, FaultPlan, OpRetryPolicy, RecoveryConfig, Substrate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base seed for the per-profile RNG streams.
const SEED: u64 = 0x5E21_1CE0;

/// Shards per backend: Pool shards by pool dimension (= dims), DIM and
/// GHT split four ways.
const POOL_DIMS: usize = 3;
const DIM_SHARDS: usize = 4;
const GHT_SHARDS: usize = 4;

/// Hot key-space size for the GHT leg (all preloaded, so every get has
/// an answer to fetch).
const HOT_KEYS: usize = 8;

/// The figure's parameters: flags over full-scale or smoke defaults.
struct Params {
    /// Engine options (`--jobs`, `--smoke`).
    opts: BenchOpts,
    /// Scheduled requests per profile.
    requests: usize,
    /// Network size.
    nodes: usize,
    /// Events (and puts) preloaded before the measured window.
    events: usize,
}

impl Params {
    fn from_args(args: &Args) -> Self {
        let opts = args.opts();
        Params {
            opts,
            requests: arg_usize(args, "--requests", opts.scale(240, 40)).max(8),
            nodes: arg_usize(args, "--nodes", opts.nodes(300)),
            events: arg_usize(args, "--events", opts.scale(300, 60)).max(HOT_KEYS),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Profile {
    Burst,
    Sustained,
    Chaos,
}

impl Profile {
    fn label(self) -> &'static str {
        match self {
            Profile::Burst => "burst",
            Profile::Sustained => "sustained",
            Profile::Chaos => "chaos",
        }
    }

    fn index(self) -> usize {
        match self {
            Profile::Burst => 0,
            Profile::Sustained => 1,
            Profile::Chaos => 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SystemKind {
    Pool,
    Dim,
    Ght,
}

impl SystemKind {
    fn label(self) -> &'static str {
        match self {
            SystemKind::Pool => "pool",
            SystemKind::Dim => "dim",
            SystemKind::Ght => "ght",
        }
    }
}

/// Everything one profile shares across its three system arms: the
/// topology, the preload, the range and key-value schedules (identical
/// arrival processes), and the chaos victims.
struct ProfileSetup {
    topology: Topology,
    field: Rect,
    seed: u64,
    preload_range: Vec<Request>,
    preload_kv: Vec<Request>,
    schedule_range: Vec<ScheduledRequest>,
    schedule_kv: Vec<ScheduledRequest>,
    victims: Vec<NodeId>,
    horizon: f64,
}

fn setup_profile(params: &Params, profile: Profile) -> ProfileSetup {
    let seed = derive_seed(SEED, profile.index() as u64);
    let deploy_seed = derive_seed(SEED, 100 + profile.index() as u64);
    let (topology, field, _) = connected_deployment(&Scenario::paper(params.nodes, deploy_seed));
    let n = topology.len() as u32;
    let mut rng = StdRng::seed_from_u64(seed);

    // A small gateway set: realistic (few egress points) and the
    // precondition for coalescing (merges require a shared sink).
    let gateways: Vec<NodeId> = (0..4).map(|_| NodeId(rng.gen_range(0..n))).collect();

    // Hot query templates; bursts replay one template with small jitter.
    let templates: Vec<Vec<(f64, f64)>> = (0..3)
        .map(|_| {
            (0..POOL_DIMS)
                .map(|_| {
                    let c = rng.gen_range(0.25..0.75);
                    (c - 0.12, c + 0.12)
                })
                .collect()
        })
        .collect();

    let mut preload_range = Vec::with_capacity(params.events);
    let mut preload_kv = Vec::with_capacity(params.events);
    for i in 0..params.events {
        let source = NodeId(rng.gen_range(0..n));
        let values: Vec<f64> = (0..POOL_DIMS).map(|_| rng.gen_range(0.0..1.0)).collect();
        preload_range.push(Request::Insert { source, event: Event::new(values).unwrap() });
        preload_kv.push(Request::Put {
            source,
            key: format!("key-{}", i % HOT_KEYS),
            value: i as u64,
        });
    }

    let mut schedule_range = Vec::with_capacity(params.requests);
    let mut schedule_kv = Vec::with_capacity(params.requests);
    for i in 0..params.requests {
        let arrival = match profile {
            // Tight same-template bursts of 8, each inside one admission
            // window (bursts start on multiples of 0.4 = 8 windows).
            Profile::Burst => (i / 8) as f64 * 0.4 + (i % 8) as f64 * 0.004,
            Profile::Sustained | Profile::Chaos => i as f64 * 0.03,
        };
        if i % 5 == 4 {
            // A write: always travels alone through admission.
            let source = NodeId(rng.gen_range(0..n));
            let values: Vec<f64> = (0..POOL_DIMS).map(|_| rng.gen_range(0.0..1.0)).collect();
            schedule_range.push(ScheduledRequest {
                arrival,
                request: Request::Insert { source, event: Event::new(values).unwrap() },
            });
            schedule_kv.push(ScheduledRequest {
                arrival,
                request: Request::Put {
                    source,
                    key: format!("key-{}", rng.gen_range(0..HOT_KEYS)),
                    value: i as u64,
                },
            });
        } else {
            let t = match profile {
                Profile::Burst => (i / 8) % templates.len(),
                Profile::Sustained | Profile::Chaos => rng.gen_range(0..templates.len()),
            };
            let sink = gateways[t % gateways.len()];
            let ranges: Vec<(f64, f64)> = templates[t]
                .iter()
                .map(|&(lo, hi)| (lo + rng.gen_range(-0.03..0.03), hi + rng.gen_range(-0.03..0.03)))
                .collect();
            schedule_range.push(ScheduledRequest {
                arrival,
                request: Request::Query { sink, query: RangeQuery::exact(ranges).unwrap() },
            });
            schedule_kv.push(ScheduledRequest {
                arrival,
                request: Request::Get { sink, key: format!("key-{}", rng.gen_range(0..HOT_KEYS)) },
            });
        }
    }
    let horizon = schedule_range.last().map_or(0.0, |sr| sr.arrival);

    // Chaos victims: a deterministic stride across the id space, steered
    // off the gateways (a dead sink measures nothing but its own death).
    let mut victims = Vec::new();
    if profile == Profile::Chaos {
        for f in [1u32, 3, 5, 7] {
            let mut id = n * f / 8;
            while gateways.contains(&NodeId(id)) || victims.contains(&NodeId(id)) {
                id = (id + 1) % n;
            }
            victims.push(NodeId(id));
        }
    }

    ProfileSetup {
        topology,
        field,
        seed,
        preload_range,
        preload_kv,
        schedule_range,
        schedule_kv,
        victims,
        horizon,
    }
}

/// Serially preloads state through [`ServiceHandle::submit`]; preloads
/// run on perfect links before any fault window, so every one must land.
fn preload<B: ServiceBackend>(handle: &ServiceHandle<B>, requests: &[Request]) {
    for request in requests {
        let response = handle.submit(request);
        assert!(response.delivered, "preload {request:?} did not land");
    }
}

/// The latest shard-clock position — where the next serve call's base
/// time will sit after a preload.
fn base_time<B: ServiceBackend>(handle: &ServiceHandle<B>) -> f64 {
    (0..handle.shard_count())
        .map(|s| handle.with_shard(s, |shard| handle.backend().now(shard)))
        .fold(0.0, f64::max)
}

/// Runs one system's coalesced and ablation arms on freshly built
/// deployments. `build` constructs the handle under an optional fault
/// plan; for the chaos profile a scout build (empty plan) measures where
/// the preload ends so the crash lands 40% into the measured window.
fn measure_system<B, F>(
    build: F,
    preload_ops: &[Request],
    schedule: &[ScheduledRequest],
    victims: &[NodeId],
    horizon: f64,
    jobs: usize,
) -> (ServeOutcome, ServeOutcome)
where
    B: ServiceBackend,
    F: Fn(Option<FaultPlan>) -> ServiceHandle<B>,
{
    let plan = if victims.is_empty() {
        None
    } else {
        let scout = build(Some(FaultPlan::new()));
        preload(&scout, preload_ops);
        let at = base_time(&scout) + 0.4 * horizon;
        Some(
            victims
                .iter()
                .fold(FaultPlan::new(), |plan, &node| plan.with(Fault::Crash { node, at })),
        )
    };
    let coalesced = {
        let handle = build(plan.clone());
        preload(&handle, preload_ops);
        handle.serve(schedule, &AdmissionConfig::default(), jobs)
    };
    let ablation = {
        let handle = build(plan);
        preload(&handle, preload_ops);
        handle.serve(schedule, &AdmissionConfig::no_coalescing(), jobs)
    };
    (coalesced, ablation)
}

/// One emitted row: a system under one profile, both admission arms.
struct ArmRow {
    profile: &'static str,
    system: &'static str,
    requests: usize,
    reqps: f64,
    p50_ms: f64,
    p99_ms: f64,
    messages: u64,
    completeness: f64,
    coalesced: usize,
    nc_reqps: f64,
    nc_p50_ms: f64,
    nc_p99_ms: f64,
    nc_messages: u64,
}

fn run_arm(params: &Params, profile: Profile, system: SystemKind) -> ArmRow {
    let setup = setup_profile(params, profile);
    let jobs = params.opts.jobs;
    // One substrate under all three schemes: a chaos profile's fault plan
    // comes with adaptive recovery and detouring operation retries.
    let chaos = !setup.victims.is_empty();
    let substrate = |faults: Option<FaultPlan>| Substrate {
        faults,
        recovery: chaos.then(RecoveryConfig::default),
        op_retry: chaos.then(|| OpRetryPolicy::detouring(2)),
        ..Substrate::default()
    };

    let (coalesced, ablation) = match system {
        SystemKind::Pool => {
            let base_config = PoolConfig::paper().with_dims(POOL_DIMS).with_seed(setup.seed);
            measure_system(
                |plan| {
                    let config = PoolConfig { substrate: substrate(plan), ..base_config.clone() };
                    let (backend, shards) =
                        PoolBackend::build(setup.topology.clone(), setup.field, config, POOL_DIMS)
                            .expect("pool backend builds");
                    ServiceHandle::new(backend, shards)
                },
                &setup.preload_range,
                &setup.schedule_range,
                &setup.victims,
                setup.horizon,
                jobs,
            )
        }
        SystemKind::Dim => measure_system(
            |plan| {
                let (backend, shards) = DimBackend::build(
                    setup.topology.clone(),
                    setup.field,
                    POOL_DIMS,
                    &substrate(plan),
                    DIM_SHARDS,
                )
                .expect("dim backend builds");
                ServiceHandle::new(backend, shards)
            },
            &setup.preload_range,
            &setup.schedule_range,
            &setup.victims,
            setup.horizon,
            jobs,
        ),
        SystemKind::Ght => measure_system(
            |plan| {
                let (backend, shards) =
                    GhtBackend::build(setup.topology.clone(), &substrate(plan), GHT_SHARDS);
                ServiceHandle::new(backend, shards)
            },
            &setup.preload_kv,
            &setup.schedule_kv,
            &setup.victims,
            setup.horizon,
            jobs,
        ),
    };

    assert_eq!(coalesced.responses.len(), params.requests);
    assert_eq!(ablation.responses.len(), params.requests);
    assert_eq!(
        ablation.units, params.requests,
        "the ablation arm must execute every request alone"
    );
    if profile != Profile::Chaos {
        // Perfect links, every node alive: the service must answer
        // everything it was asked, coalesced or not.
        assert!(
            (coalesced.mean_completeness() - 1.0).abs() < 1e-12,
            "{} {}: incomplete answers without faults",
            profile.label(),
            system.label()
        );
        assert!((ablation.mean_completeness() - 1.0).abs() < 1e-12);
    }

    ArmRow {
        profile: profile.label(),
        system: system.label(),
        requests: params.requests,
        reqps: coalesced.requests_per_second(),
        p50_ms: coalesced.latency_quantile(0.5) * 1e3,
        p99_ms: coalesced.latency_quantile(0.99) * 1e3,
        messages: coalesced.total_messages,
        completeness: coalesced.mean_completeness(),
        coalesced: coalesced.coalesced_requests,
        nc_reqps: ablation.requests_per_second(),
        nc_p50_ms: ablation.latency_quantile(0.5) * 1e3,
        nc_p99_ms: ablation.latency_quantile(0.99) * 1e3,
        nc_messages: ablation.total_messages,
    }
}

/// Runs the full profile × system grid and returns the artifact table.
/// Deterministic for any `--jobs` (DESIGN.md §11).
pub fn run(args: &Args) -> Report {
    let params = &Params::from_args(args);
    let arms: Vec<(Profile, SystemKind)> = [Profile::Burst, Profile::Sustained, Profile::Chaos]
        .into_iter()
        .flat_map(|p| [SystemKind::Pool, SystemKind::Dim, SystemKind::Ght].map(|s| (p, s)))
        .collect();
    let rows =
        run_trials(params.opts.jobs, arms, |_, (profile, system)| run_arm(params, profile, system));

    let mut table = Table::new(
        "Service load: sharded front end under burst / sustained / chaos, coalescing ablation",
        &[
            "profile",
            "system",
            "requests",
            "reqps",
            "p50_ms",
            "p99_ms",
            "messages",
            "completeness",
            "coalesced",
            "nc_reqps",
            "nc_p50_ms",
            "nc_p99_ms",
            "nc_messages",
        ],
    );
    table.meta("nodes", params.nodes);
    table.meta("requests", params.requests);
    table.meta("events", params.events);
    table.meta("pool_shards", POOL_DIMS);
    table.meta("dim_shards", DIM_SHARDS);
    table.meta("ght_shards", GHT_SHARDS);
    for row in &rows {
        table.row(vec![
            row.profile.into(),
            row.system.into(),
            row.requests.into(),
            row.reqps.into(),
            row.p50_ms.into(),
            row.p99_ms.into(),
            row.messages.into(),
            row.completeness.into(),
            row.coalesced.into(),
            row.nc_reqps.into(),
            row.nc_p50_ms.into(),
            row.nc_p99_ms.into(),
            row.nc_messages.into(),
        ]);
    }

    // The tentpole claims, checked on every run: bursts must actually
    // coalesce, and sharing a burst's delivery must not cost more
    // messages than delivering its members separately.
    for row in rows.iter().filter(|r| r.profile == "burst") {
        assert!(row.coalesced > 0, "burst {}: nothing coalesced", row.system);
        assert!(
            row.messages <= row.nc_messages,
            "burst {}: coalescing cost more messages ({} > {})",
            row.system,
            row.messages,
            row.nc_messages
        );
    }
    table.into()
}
