//! Operation-level retry: the one policy by which Pool, DIM and GHT
//! re-attempt a delivery leg the link layer gave up on.
//!
//! A leg is delivered once; when that fails and an [`OpRetryPolicy`] is in
//! force it is re-attempted up to the policy's budget. Every attempt is an
//! ordinary delivery — charged to the ledger (first transmissions to the
//! caller's layer, ARQ to the retransmit layer), timed on the clock, and
//! recorded as its own trace span when the caller traces — so the
//! conservation identities hold with retry on exactly as with it off.
//! Without a policy both loops are the plain single delivery.

use crate::ledger::TrafficLayer;
use crate::lossy::{DeliveryOutcome, ReverseDelivery};
use crate::trace::{TraceOp, Tracer};
use crate::Transport;
use pool_gpsr::Route;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use std::sync::Arc;

/// Bounded idempotent retry at the operation level: how many times a
/// storage scheme re-attempts a failed delivery leg, and whether retries
/// may detour around the hop that failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRetryPolicy {
    /// Additional delivery attempts per leg after the first (0 disables).
    pub attempts: u32,
    /// Whether retries recompute the route around failed/suspect nodes
    /// (`false` retries the same path — the ablation arm).
    pub detour: bool,
}

impl OpRetryPolicy {
    /// `attempts` retries with detour routing enabled.
    pub fn detouring(attempts: u32) -> Self {
        OpRetryPolicy { attempts, detour: true }
    }

    /// `attempts` retries along the original path only.
    pub fn same_path(attempts: u32) -> Self {
        OpRetryPolicy { attempts, detour: false }
    }

    /// The same budget for a leg whose path *is* the route (a delegation
    /// chain walk): detouring never applies there.
    pub fn on_fixed_path(self) -> Self {
        OpRetryPolicy { detour: false, ..self }
    }
}

impl Default for OpRetryPolicy {
    fn default() -> Self {
        OpRetryPolicy::detouring(2)
    }
}

/// Delivers one packet along `path`, re-attempting a failed delivery under
/// `policy`: around the hop that just failed (plus the transport's standing
/// suspects) when the policy detours, along the same path otherwise. The
/// destination is pinned to the end of `path`, so retries stay idempotent.
///
/// Each attempt is recorded in `trace` as its own span, carrying the detour
/// flag. Returns the aggregated outcome (attempt totals summed, delivery
/// state of the last attempt) and the detour route the packet last
/// travelled, if it left `path` — replies must retrace that route, which
/// also keeps them clear of the detoured-around node.
///
/// # Panics
///
/// Panics on an empty `path`.
pub fn deliver(
    topology: &Topology,
    transport: &mut dyn Transport,
    path: &[NodeId],
    layer: TrafficLayer,
    policy: Option<OpRetryPolicy>,
    mut trace: Option<(&mut Tracer, TraceOp)>,
) -> (DeliveryOutcome, Option<Arc<Route>>) {
    let mut attempt = |transport: &mut dyn Transport, path: &[NodeId], detour: bool| {
        let mut outcome = transport.deliver(topology, path, layer);
        outcome.detour = detour;
        if let Some((tracer, op)) = &mut trace {
            tracer.record_delivery(*op, path, layer, &outcome, transport.clock().now());
        }
        outcome
    };
    let mut total = attempt(transport, path, false);
    let mut rerouted: Option<Arc<Route>> = None;
    let Some(policy) = policy else {
        return (total, rerouted);
    };
    let (from, to) = (path[0], *path.last().expect("paths contain at least the source"));
    let mut excluded: Vec<NodeId> = Vec::new();
    for _ in 0..policy.attempts {
        if total.delivered {
            break;
        }
        let Some((_, suspect)) = total.failed_hop else { break };
        if policy.detour {
            if suspect != to && !excluded.contains(&suspect) {
                excluded.push(suspect);
            }
            match transport.route_to_node_avoiding(topology, from, to, &excluded) {
                Ok(route) => rerouted = Some(route),
                // The exclusions disconnect the endpoints: no detour
                // exists, so the operation accepts the failure.
                Err(_) => break,
            }
        }
        let on_detour = policy.detour && !excluded.is_empty();
        let retry_path = rerouted.as_deref().map_or(path, |route| &route.path);
        let retry = attempt(transport, retry_path, on_detour);
        total.transmissions += retry.transmissions;
        total.retransmissions += retry.retransmissions;
        total.latency += retry.latency;
        total.delivered = retry.delivered;
        total.reached = retry.reached;
        total.failed_hop = retry.failed_hop;
        total.detour = on_detour;
    }
    (total, rerouted)
}

/// Delivers `copies` reply packets in reverse along `path`, re-sending
/// under `policy` only the copies that failed to arrive, along the same
/// path (replies retrace the route the request actually travelled, which
/// already avoids any detoured-around node). Delivered copies only
/// accumulate, so completeness can only improve. Each attempt is recorded
/// in `trace` as its own span.
pub fn deliver_reverse(
    topology: &Topology,
    transport: &mut dyn Transport,
    path: &[NodeId],
    copies: u64,
    layer: TrafficLayer,
    policy: Option<OpRetryPolicy>,
    mut trace: Option<(&mut Tracer, TraceOp)>,
) -> ReverseDelivery {
    let mut total = ReverseDelivery::default();
    for _ in 0..=policy.map_or(0, |p| p.attempts) {
        let missing = copies - total.delivered_copies;
        let sent = transport.deliver_reverse(topology, path, missing, layer);
        if let Some((tracer, op)) = &mut trace {
            tracer.record_reverse(*op, path, missing, layer, &sent, transport.clock().now());
        }
        total.delivered_copies += sent.delivered_copies;
        total.transmissions += sent.transmissions;
        total.retransmissions += sent.retransmissions;
        total.latency += sent.latency;
        if total.delivered_copies >= copies {
            break;
        }
    }
    total
}
