//! `pool_faulty_3k`: Pool on a lossy radio under a 16-fault plan, with
//! adaptive recovery and detouring operation retries.
//!
//! The plan is *scouted*: one untimed fault-free round tells when the query
//! phase opens in virtual time and which nodes every query leg relays through.
//! Queries then launch on a fixed virtual-time schedule, one every
//! [`QUERY_SPACING`] seconds, and every fault strikes one second before a
//! scheduled launch, at a fixed fraction of the schedule: with no operation
//! in flight. That, and the choice of victims, is what keeps operations from
//! failing, as the benchmark's workloads must:
//!
//! * node faults (crashes, pauses) sit in the query phase, because only
//!   query legs are retried — `insert_from` has no operation-level retry,
//!   so a node that is down on an insert's path fails the insert outright;
//! * victims relay query traffic but are no query's endpoint (no sink, no
//!   index node), so everything they carry can be detoured;
//! * each node fault is sized, on the scout's own paths, to the query legs
//!   that will meet it: a crash victim dies just before the query from
//!   which exactly 40 more legs cross it, a paused one resumes after its
//!   6th — so the number of detours a round computes, its dominant host
//!   cost, barely moves from seed to seed. The nominal instants are fixed
//!   fractions of the schedule; the sizing moves them by a few queries.
//!
//! The insert phase still pays for the lossy radio's ARQ and for the per-hop
//! scan of the whole plan.

use super::ops::{build_pool, generate, launch_time, pool_model_of, OpsWorkload, Shape};
use super::{Clocked, Scheme};
use crate::inputs::{pool_config, Net, Stream};
use crate::trace::FaultStack;
use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_core::system::PoolSystem;
use pool_netsim::exec::derive_seed;
use pool_netsim::node::NodeId;
use pool_netsim::radio::PrrModel;
use pool_transport::{
    Fault, FaultPlan, GilbertElliott, LossyConfig, OpRetryPolicy, RecoveryConfig, TrafficLayer,
};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::ops::Range;

/// Virtual seconds between query launches: far longer than the slowest
/// degraded query, so every gap is idle when a fault strikes in it.
const QUERY_SPACING: f64 = 5.0;
/// How long before a scheduled launch a fault strikes, in virtual seconds.
const LEAD: f64 = 1.0;
/// Share of the query phase a burst window lasts, and a pause nominally.
const WINDOW: f64 = 0.05;
/// Query legs that cross a crash victim after it died (each pays a failed
/// delivery and a detour).
const CRASH_LEGS: usize = 40;
/// Query legs that cross a pause victim while it is down.
const PAUSE_LEGS: usize = 6;
/// When the two crashes strike, as fractions of the query phase.
const CRASH_AT: [f64; 2] = [0.25, 0.50];
/// When the six pauses start.
const PAUSE_AT: [f64; 6] = [0.10, 0.22, 0.38, 0.50, 0.68, 0.82];
/// When the four asymmetric links degrade.
const ASYMMETRIC_AT: [f64; 4] = [0.05, 0.25, 0.45, 0.65];
/// When the four burst windows open.
const BURST_AT: [f64; 4] = [0.15, 0.42, 0.62, 0.88];
/// Reception probability of a degraded link direction.
const ASYMMETRIC_PRR: f64 = 0.6;

/// `pool_faulty_3k`.
pub fn pool_faulty(seed: u64, quick: bool) -> OpsWorkload<PoolSystem> {
    let shape = Shape {
        nodes: if quick { 500 } else { 3_000 },
        inserts: if quick { 300 } else { 5_000 },
        queries: if quick { 60 } else { 1_000 },
        source_lattice: 0,
        sink_lattice: 0,
        warm: false,
        query_spacing: QUERY_SPACING,
    };
    let inputs = generate(seed, shape);
    let lossy =
        LossyConfig::model(PrrModel::new(36.0, 50.0), derive_seed(seed, Stream::Loss as u64));
    let recovery = RecoveryConfig::default();
    let base = pool_config(inputs.net.field)
        .with_lossy(lossy)
        .with_recovery(recovery)
        .with_op_retry(OpRetryPolicy::detouring(2));
    let plan = scout_plan(&inputs.net, &base, &inputs.inserts, &inputs.queries);
    let config = base.with_faults(plan.clone());
    OpsWorkload::assemble(
        shape,
        inputs,
        Box::new(move |net| build_pool(net, &config)),
        "pool.build_shared",
        pool_model_of,
        Some(FaultStack { lossy, plan, recovery }),
    )
}

/// Runs one fault-free round and places the 16 faults from what it saw.
fn scout_plan(
    net: &Net,
    base: &PoolConfig,
    inserts: &[(NodeId, Event)],
    queries: &[(NodeId, RangeQuery)],
) -> FaultPlan {
    // An empty plan keeps the scout on the very transport stack of the
    // real rounds, so its virtual timeline is theirs up to the first fault.
    let mut scout = build_pool(net, &base.clone().with_faults(FaultPlan::new()));
    for (source, event) in inserts {
        let _ = scout.insert(*source, event.clone());
    }
    let queries_open = scout.virtual_now();
    // Every forward leg of every query (replies retrace the same paths):
    // `leg_query[leg]` is the query it served, `crossings[node]` the legs
    // that relay through the node.
    let mut leg_query: Vec<usize> = Vec::new();
    let mut crossings: Vec<Vec<usize>> = vec![Vec::new(); net.len()];
    for (i, (sink, query)) in queries.iter().enumerate() {
        scout.launch_at(launch_time(queries_open, QUERY_SPACING, i));
        let _ = scout.query(*sink, query);
        for leg in scout.drain_legs().iter().filter(|l| l.layer == TrafficLayer::Forward) {
            let route = scout
                .transport_mut()
                .route_to_node(&net.topology, leg.origin, leg.destination)
                .expect("the scout just delivered along this route");
            for relay in &route.path[1..route.path.len().max(2) - 1] {
                crossings[relay.index()].push(leg_query.len());
            }
            leg_query.push(i);
        }
    }
    let n = queries.len();
    let query_at = |fraction: f64| ((fraction * n as f64) as usize).min(n - 1);
    // A fault "before query k" strikes `LEAD` seconds before k's launch.
    let before = |k: usize| launch_time(queries_open, QUERY_SPACING, k.min(n - 1)) - LEAD;

    let mut endpoints: HashSet<NodeId> = queries.iter().map(|(sink, _)| *sink).collect();
    for pool in scout.layout().pools() {
        endpoints.extend(pool.cells().filter_map(|cell| scout.index_node_of(cell)));
    }
    let mut relays: Vec<NodeId> =
        net.topology.nodes().iter().map(|n| n.id).filter(|id| !endpoints.contains(id)).collect();
    assert!(relays.len() >= 12, "the network has relays that are neither sink nor index node");

    // A leg that meets a down node fails once and is detoured once, however
    // many victims lie on its path: legs an earlier victim claims do not
    // count towards a later one.
    let mut claimed = vec![false; leg_query.len()];
    // The queries (ascending, one entry per leg) whose unclaimed legs cross
    // `node` from query `from` on.
    let crossing_queries = |node: NodeId, from: usize, claimed: &[bool]| -> Vec<usize> {
        crossings[node.index()]
            .iter()
            .filter(|&&leg| !claimed[leg] && leg_query[leg] >= from)
            .map(|&leg| leg_query[leg])
            .collect()
    };
    // Retires `node` as a candidate and claims its legs of `window`.
    let claim =
        |node: NodeId, window: Range<usize>, relays: &mut Vec<NodeId>, claimed: &mut [bool]| {
            for &leg in &crossings[node.index()] {
                claimed[leg] |= window.contains(&leg_query[leg]);
            }
            relays.retain(|&r| r != node);
        };

    let mut plan = FaultPlan::new();
    // A crash near fraction `f`: the relay that exactly `CRASH_LEGS` more
    // legs cross from some query at or after `f · n` on, taking whichever
    // relay puts that query nearest `f · n`; it dies before that query.
    for &f in &CRASH_AT {
        let nominal = query_at(f);
        let sized = relays
            .iter()
            .filter_map(|&node| {
                let qs = crossing_queries(node, nominal, &claimed);
                (qs.len() >= CRASH_LEGS).then(|| (qs[qs.len() - CRASH_LEGS], node))
            })
            .min();
        // No relay carries that much any more: crash the busiest one on time.
        let (dies_before, node) = sized.unwrap_or_else(|| {
            let busiest = relays.iter().max_by_key(|&&node| {
                (crossing_queries(node, nominal, &claimed).len(), Reverse(node))
            });
            (nominal, *busiest.expect("relays remain"))
        });
        claim(node, dies_before..n, &mut relays, &mut claimed);
        plan.push(Fault::Crash { node, at: before(dies_before) });
    }
    // A pause opening at fraction `f`: the relay whose `PAUSE_LEGS`-th
    // crossing from there on comes nearest the nominal window length; it
    // resumes right after that crossing's query.
    for &f in &PAUSE_AT {
        let opens = query_at(f);
        let nominal = query_at(f + WINDOW).max(opens + 1);
        let sized = relays
            .iter()
            .filter_map(|&node| {
                let qs = crossing_queries(node, opens, &claimed);
                let closes = *qs.get(PAUSE_LEGS - 1)? + 1;
                Some((closes.abs_diff(nominal), closes, node))
            })
            .min();
        let (closes, node) = match sized {
            Some((_, closes, node)) => (closes, node),
            // The schedule is nearly over: pause anyone for the nominal window.
            None => (nominal, *relays.first().expect("relays remain")),
        };
        claim(node, opens..closes, &mut relays, &mut claimed);
        plan.push(Fault::Pause { node, from: before(opens), until: before(closes) });
    }
    // A degraded link costs retransmissions, not detours, and claims no
    // legs: the sender is the remaining relay most legs cross from `f · n`
    // on, the receiver its busiest neighbour.
    for &f in &ASYMMETRIC_AT {
        let onset = query_at(f);
        let from = *relays
            .iter()
            .max_by_key(|&&node| (crossing_queries(node, onset, &claimed).len(), Reverse(node)))
            .expect("relays remain");
        let to = net
            .topology
            .neighbors(from)
            .iter()
            .copied()
            .max_by_key(|&nb| (crossings[nb.index()].len(), Reverse(nb)))
            .expect("a connected network has no isolated node");
        claim(from, 0..0, &mut relays, &mut claimed);
        plan.push(Fault::AsymmetricLink { from, to, prr: ASYMMETRIC_PRR, at: before(onset) });
    }
    for &f in &BURST_AT {
        plan.push(Fault::BurstLoss {
            channel: GilbertElliott::new(0.05, 0.4, 1.0, 0.5),
            from: before(query_at(f)),
            until: before(query_at(f + WINDOW)),
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Pass, Workload};

    #[test]
    fn the_scouted_plan_has_sixteen_faults_and_fails_no_operation() {
        let mut workload = pool_faulty(5, true);
        let round =
            workload.round(Pass { verify: true, ..Pass::default() }).expect("answers ⊆ oracle");
        assert_eq!(round.log.attempted, 360);
        let again = workload.round(Pass::default()).unwrap();
        assert_eq!(round.digest, again.digest, "the loss process is seeded");
        assert_eq!(workload.faults().expect("a fault stack").plan.faults().len(), 16);
        let rows = workload.layer_rows();
        let attempts = rows.iter().find(|(name, _)| *name == "transport.lossy.attempts_p99");
        assert!(attempts.expect("reported").1 >= 1.0, "the lossy radio ran");
        assert_eq!(round.log.failed(), 0, "no operation fails under the sized plan");
    }
}
