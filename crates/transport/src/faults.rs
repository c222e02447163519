//! Structured fault injection over any routing substrate.
//!
//! One-shot `fail_nodes` (PR 2) kills nodes between operations; the
//! interesting failures happen *during* them. [`FaultyTransport`] wraps any
//! [`Transport`] with the same per-hop lossy ARQ as
//! [`crate::LossyTransport`] plus a seeded, virtual-time-scheduled
//! [`FaultPlan`]:
//!
//! * **Crash** — a node dies at time `t` and stays dead: every hop into or
//!   out of it burns its whole retry budget.
//! * **Pause** — a node is unresponsive over a window and then resumes
//!   (reboot, duty-cycling, GC pause).
//! * **Partition** — links crossing a region boundary are dead over a
//!   window and later heal; traffic within either side is unaffected.
//! * **BurstLoss** — a [`GilbertElliott`] two-state channel overlays
//!   correlated loss over a window: bursts of bad state instead of
//!   independent drops.
//! * **AsymmetricLink** — one *direction* of a link degrades to a fixed
//!   reception probability from time `t` (the reverse stays healthy).
//!
//! Fault windows activate against the virtual clock's cursor at the moment
//! a delivery begins, so campaigns are deterministic in the seed and the
//! operation sequence — never in wall-clock or worker count.
//!
//! Determinism contract: with an empty plan (and no recovery), the
//! decorator is byte-identical to [`crate::LossyTransport`] — same RNG
//! stream, same ledger charge order, same timing. Fault-blocked attempts
//! are charged but consume **no** RNG draw, and burst channels draw from a
//! separate RNG stream, so injected faults never perturb the base loss
//! process around them.

use crate::ledger::TrafficLayer;
use crate::lossy::{
    AdaptiveState, DeliveryOutcome, DeliveryStats, LossyConfig, RecoveryConfig, ReverseDelivery,
};
use crate::{Transport, TransportKind};
use pool_gpsr::{Route, RouteError};
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::NodeId;
use pool_netsim::schedule::SimTime;
use pool_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Seed domain separator for the burst-loss RNG stream, so Gilbert–Elliott
/// draws never perturb the base loss process.
const GE_SEED_SALT: u64 = 0x6e11_be27_6e11_be27;

/// A Gilbert–Elliott two-state burst channel: the link alternates between
/// a good and a bad state with per-attempt transition probabilities, and
/// each state has its own reception probability. Long bad sojourns model
/// correlated (bursty) loss that independent per-attempt drops cannot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Good → bad transition probability per attempt.
    pub p_gb: f64,
    /// Bad → good transition probability per attempt.
    pub p_bg: f64,
    /// Reception probability while in the good state.
    pub good_prr: f64,
    /// Reception probability while in the bad state.
    pub bad_prr: f64,
}

impl GilbertElliott {
    /// Creates a channel; panics unless every parameter is a probability
    /// and at least one transition is possible (a chain that can never
    /// leave its initial state is a fixed link, not a burst channel).
    pub fn new(p_gb: f64, p_bg: f64, good_prr: f64, bad_prr: f64) -> Self {
        for (name, p) in
            [("p_gb", p_gb), ("p_bg", p_bg), ("good_prr", good_prr), ("bad_prr", bad_prr)]
        {
            assert!((0.0..=1.0).contains(&p), "{name} must be a probability, got {p}");
        }
        assert!(p_gb + p_bg > 0.0, "the chain must be able to change state");
        GilbertElliott { p_gb, p_bg, good_prr, bad_prr }
    }

    /// Long-run fraction of attempts spent in the bad state
    /// (`p_gb / (p_gb + p_bg)`, the chain's stationary distribution).
    pub fn stationary_bad(&self) -> f64 {
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run reception probability of the channel alone.
    pub fn long_run_prr(&self) -> f64 {
        let bad = self.stationary_bad();
        self.good_prr * (1.0 - bad) + self.bad_prr * bad
    }
}

/// One scheduled fault. Times are virtual seconds on the transport's
/// [`crate::VirtualClock`]; windows are half-open `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// `node` dies at `at` and never recovers.
    Crash {
        /// The victim.
        node: NodeId,
        /// Death time.
        at: SimTime,
    },
    /// `node` is unresponsive during the window, then resumes.
    Pause {
        /// The victim.
        node: NodeId,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive); the node answers again from here on.
        until: SimTime,
    },
    /// Links crossing `region`'s boundary are dead during the window,
    /// then heal. Links with both endpoints on the same side still work.
    Partition {
        /// The partitioned region.
        region: Rect,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive); the partition heals here.
        until: SimTime,
    },
    /// Every link is overlaid with a [`GilbertElliott`] burst channel
    /// during the window.
    BurstLoss {
        /// The burst channel.
        channel: GilbertElliott,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// The directed link `from → to` degrades to reception probability
    /// `prr` from time `at` on; the reverse direction is untouched.
    AsymmetricLink {
        /// Transmitter of the degraded direction.
        from: NodeId,
        /// Receiver of the degraded direction.
        to: NodeId,
        /// Reception probability of the degraded direction, in [0, 1].
        prr: f64,
        /// Onset time.
        at: SimTime,
    },
}

/// A deterministic schedule of [`Fault`]s, activated against virtual time.
///
/// The empty plan is the identity: a [`FaultyTransport`] with it behaves
/// byte-for-byte like a [`crate::LossyTransport`] over the same seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds `fault` to the plan (builder form).
    pub fn with(mut self, fault: Fault) -> Self {
        self.push(fault);
        self
    }

    /// Adds `fault` to the plan.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether `node` is crashed or paused at time `now`.
    pub fn node_down(&self, node: NodeId, now: SimTime) -> bool {
        self.faults.iter().any(|f| match *f {
            Fault::Crash { node: n, at } => n == node && now >= at,
            Fault::Pause { node: n, from, until } => n == node && now >= from && now < until,
            _ => false,
        })
    }

    /// Whether a transmission between positions `a` and `b` crosses an
    /// active partition boundary at time `now`.
    pub fn link_partitioned(&self, a: Point, b: Point, now: SimTime) -> bool {
        self.faults.iter().any(|f| match *f {
            Fault::Partition { region, from, until } => {
                now >= from && now < until && (region.contains(a) != region.contains(b))
            }
            _ => false,
        })
    }
}

/// How one attempt on a link is affected by the active faults.
enum LinkState {
    /// No draw can save it: a dead endpoint or an active partition.
    Blocked,
    /// Lossy as usual with reception probability `p`, additionally gated
    /// by the burst channels in `bursts` (indices into the plan's
    /// `BurstLoss` faults).
    Lossy { p: f64, bursts: Vec<usize> },
}

/// A lossy-ARQ transport decorator that additionally injects the
/// structured faults of a [`FaultPlan`], with optional adaptive recovery
/// (the same EWMA + backoff + failure-detector machinery as
/// [`crate::LossyTransport::wrap_adaptive`]).
#[derive(Debug)]
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    config: LossyConfig,
    plan: FaultPlan,
    rng: StdRng,
    ge_rng: StdRng,
    /// Current state per `BurstLoss` fault (index-aligned with the plan's
    /// burst faults); chains start good.
    ge_bad: Vec<bool>,
    stats: DeliveryStats,
    adaptive: Option<AdaptiveState>,
}

impl FaultyTransport {
    /// Wraps `inner` with the lossy ARQ of `config` plus the faults of
    /// `plan`, without adaptive recovery.
    pub fn wrap(inner: Box<dyn Transport>, config: LossyConfig, plan: FaultPlan) -> Self {
        let bursts = plan.faults().iter().filter(|f| matches!(f, Fault::BurstLoss { .. })).count();
        FaultyTransport {
            inner,
            config,
            plan,
            rng: StdRng::seed_from_u64(config.seed),
            ge_rng: StdRng::seed_from_u64(config.seed ^ GE_SEED_SALT),
            ge_bad: vec![false; bursts],
            stats: DeliveryStats::default(),
            adaptive: None,
        }
    }

    /// Wraps `inner` with faults *and* adaptive recovery.
    pub fn wrap_adaptive(
        inner: Box<dyn Transport>,
        config: LossyConfig,
        plan: FaultPlan,
        recovery: RecoveryConfig,
    ) -> Self {
        let mut t = FaultyTransport::wrap(inner, config, plan);
        t.adaptive = Some(AdaptiveState::new(recovery));
        t
    }

    /// The loss configuration.
    pub fn config(&self) -> LossyConfig {
        self.config
    }

    /// The fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The adaptive-recovery state, when recovery is enabled.
    pub fn adaptive(&self) -> Option<&AdaptiveState> {
        self.adaptive.as_ref()
    }

    /// Resolves the fault-adjusted state of the directed link `from → to`
    /// at time `now`.
    fn link_state(&self, topology: &Topology, from: NodeId, to: NodeId, now: SimTime) -> LinkState {
        if self.plan.node_down(from, now) || self.plan.node_down(to, now) {
            return LinkState::Blocked;
        }
        if self.plan.link_partitioned(topology.position(from), topology.position(to), now) {
            return LinkState::Blocked;
        }
        let mut p = self.config.quality.prr(topology.distance(from, to)).clamp(0.0, 1.0);
        let mut bursts = Vec::new();
        let mut burst_idx = 0usize;
        for fault in self.plan.faults() {
            match *fault {
                Fault::AsymmetricLink { from: f, to: t, prr, at }
                    if f == from && t == to && now >= at =>
                {
                    p = prr.clamp(0.0, 1.0);
                }
                Fault::BurstLoss { from: f, until, .. } => {
                    if now >= f && now < until {
                        bursts.push(burst_idx);
                    }
                    burst_idx += 1;
                }
                _ => {}
            }
        }
        LinkState::Lossy { p, bursts }
    }

    /// Attempts one hop with ARQ under the active faults. Mirrors
    /// [`crate::LossyTransport`]'s draw/charge order exactly; blocked
    /// attempts are charged but draw nothing, and burst gating draws only
    /// from the dedicated burst stream.
    fn deliver_hop(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        layer: TrafficLayer,
    ) -> (bool, u64, u64, f64) {
        if from == to {
            return (true, 0, 0, 0.0);
        }
        let now = self.inner.clock().now();
        let state = self.link_state(topology, from, to, now);
        self.stats.hop_attempts += 1;
        let mut transmissions = 0u64;
        let mut backoff = 0.0f64;
        for attempt in 0..=self.config.retry_budget {
            if let Some(ad) = &self.adaptive {
                backoff += ad.backoff_delay((from, to), attempt);
            }
            let charge_layer = if attempt == 0 { layer } else { TrafficLayer::Retransmit };
            self.inner.ledger_mut().charge_hop(from, to, charge_layer);
            transmissions += 1;
            let received = match &state {
                LinkState::Blocked => false,
                LinkState::Lossy { p, bursts } => {
                    let mut ok = self.rng.gen_bool(*p);
                    for &b in bursts {
                        // Step the chain, then gate on its state's PRR —
                        // both from the dedicated burst stream.
                        let ch = self.burst_channel(b);
                        let flip =
                            self.ge_rng.gen_bool(if self.ge_bad[b] { ch.p_bg } else { ch.p_gb });
                        if flip {
                            self.ge_bad[b] = !self.ge_bad[b];
                        }
                        let state_prr = if self.ge_bad[b] { ch.bad_prr } else { ch.good_prr };
                        ok &= self.ge_rng.gen_bool(state_prr.clamp(0.0, 1.0));
                    }
                    ok
                }
            };
            if let Some(ad) = &mut self.adaptive {
                ad.observe((from, to), received);
            }
            if received {
                if let Some(ad) = &mut self.adaptive {
                    ad.hop_delivered((from, to));
                }
                self.stats.transmissions += transmissions;
                self.stats.retransmissions += transmissions - 1;
                self.stats.record_hop_attempts(transmissions);
                return (true, transmissions, transmissions - 1, backoff);
            }
        }
        self.stats.hops_failed += 1;
        self.stats.transmissions += transmissions;
        self.stats.retransmissions += transmissions - 1;
        self.stats.record_hop_attempts(transmissions);
        // The exhausted budget just proved `to` unreachable from here:
        // targeted memo invalidation, and a strike for the detector.
        self.inner.evict_routes_through(to);
        if let Some(ad) = &mut self.adaptive {
            ad.hop_exhausted((from, to));
        }
        (false, transmissions, transmissions - 1, backoff)
    }

    /// The `idx`-th `BurstLoss` fault's channel.
    fn burst_channel(&self, idx: usize) -> GilbertElliott {
        let mut i = 0usize;
        for fault in self.plan.faults() {
            if let Fault::BurstLoss { channel, .. } = fault {
                if i == idx {
                    return *channel;
                }
                i += 1;
            }
        }
        unreachable!("burst index {idx} out of range");
    }

    /// One path-level delivery attempt, hop by hop (identical structure to
    /// [`crate::LossyTransport`]'s walk).
    fn walk(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        layer: TrafficLayer,
    ) -> (DeliveryOutcome, Vec<crate::Hop>) {
        self.stats.deliveries += 1;
        let mut transmissions = 0u64;
        let mut retransmissions = 0u64;
        let mut hops = Vec::new();
        for w in path.windows(2) {
            let (ok, t, r, backoff) = self.deliver_hop(topology, w[0], w[1], layer);
            if t > 0 {
                hops.push(crate::Hop { from: w[0], to: w[1], transmissions: t, backoff });
            }
            transmissions += t;
            retransmissions += r;
            if !ok {
                self.stats.deliveries_failed += 1;
                let outcome = DeliveryOutcome {
                    delivered: false,
                    transmissions,
                    retransmissions,
                    reached: w[0],
                    failed_hop: Some((w[0], w[1])),
                    latency: 0.0,
                    detour: false,
                };
                return (outcome, hops);
            }
        }
        let outcome = DeliveryOutcome {
            delivered: true,
            transmissions,
            retransmissions,
            reached: *path.last().expect("path contains at least the source"),
            failed_hop: None,
            latency: 0.0,
            detour: false,
        };
        (outcome, hops)
    }

    /// Merges detector suspects into an exclusion set, keeping endpoints.
    fn merged_exclusions(&self, from: NodeId, to: NodeId, excluded: &[NodeId]) -> Vec<NodeId> {
        let mut merged: Vec<NodeId> =
            excluded.iter().copied().filter(|&n| n != from && n != to).collect();
        if let Some(ad) = &self.adaptive {
            for s in ad.suspects() {
                if s != from && s != to && !merged.contains(&s) {
                    merged.push(s);
                }
            }
        }
        merged
    }
}

impl Transport for FaultyTransport {
    fn route_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Arc<Route>, RouteError> {
        self.inner.route_to_node(topology, from, to)
    }

    fn route_to_location(
        &mut self,
        topology: &Topology,
        from: NodeId,
        target: Point,
    ) -> Result<Arc<Route>, RouteError> {
        self.inner.route_to_location(topology, from, target)
    }

    fn route_to_node_avoiding(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        excluded: &[NodeId],
    ) -> Result<Arc<Route>, RouteError> {
        let merged = self.merged_exclusions(from, to, excluded);
        if merged.is_empty() {
            return self.inner.route_to_node(topology, from, to);
        }
        let route = self.inner.route_to_node_avoiding(topology, from, to, &merged)?;
        self.stats.detour_routes += 1;
        Ok(route)
    }

    fn evict_routes_through(&mut self, node: NodeId) -> u64 {
        self.inner.evict_routes_through(node)
    }

    fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]) {
        if let Some(ad) = &mut self.adaptive {
            ad.reset();
        }
        self.inner.refresh(topology, dirty);
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn ledger(&self) -> &crate::TrafficLedger {
        self.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut crate::TrafficLedger {
        self.inner.ledger_mut()
    }

    fn clock(&self) -> &crate::VirtualClock {
        self.inner.clock()
    }

    fn clock_mut(&mut self) -> &mut crate::VirtualClock {
        self.inner.clock_mut()
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn deliver(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        layer: TrafficLayer,
    ) -> DeliveryOutcome {
        let (mut outcome, hops) = self.walk(topology, path, layer);
        outcome.latency = self.clock_mut().time_leg(&hops);
        outcome
    }

    fn deliver_reverse(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        copies: u64,
        layer: TrafficLayer,
    ) -> ReverseDelivery {
        let back: Vec<NodeId> = path.iter().rev().copied().collect();
        let mut out = ReverseDelivery::default();
        let mut legs = Vec::with_capacity(copies as usize);
        for _ in 0..copies {
            let (o, hops) = self.walk(topology, &back, layer);
            if o.delivered {
                out.delivered_copies += 1;
            }
            out.transmissions += o.transmissions;
            out.retransmissions += o.retransmissions;
            legs.push(hops);
        }
        out.latency = self.clock_mut().time_fanout(&legs);
        out
    }

    fn delivery_stats(&self) -> DeliveryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackoffPolicy, LossyTransport, TrafficLayer};
    use pool_gpsr::Planarization;
    use pool_netsim::deployment::Deployment;

    fn topo(seed: u64) -> Topology {
        let mut s = seed;
        loop {
            let dep = Deployment::paper_setting(300, 40.0, 20.0, s).unwrap();
            let t = Topology::build(dep.nodes(), 40.0).unwrap();
            if t.is_connected() {
                return t;
            }
            s += 4096;
        }
    }

    fn endpoints(t: &Topology) -> (NodeId, NodeId) {
        (t.nodes()[0].id, t.nodes()[t.len() - 1].id)
    }

    /// The pinned zero-fault identity: an empty plan reproduces the bare
    /// lossy substrate byte for byte — outcomes, ledger, and clock.
    #[test]
    fn empty_plan_is_byte_identical_to_lossy() {
        let t = topo(31);
        let (from, to) = endpoints(&t);
        let cfg = LossyConfig::fixed(0.8, 77);
        let mut lossy =
            LossyTransport::wrap(crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel), cfg);
        let mut faulty = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new(),
        );
        let lr = lossy.route_to_node(&t, from, to).unwrap();
        let fr = faulty.route_to_node(&t, from, to).unwrap();
        assert_eq!(lr.path, fr.path);
        for i in 0..12 {
            let layer = if i % 2 == 0 { TrafficLayer::Forward } else { TrafficLayer::Insert };
            let lo = lossy.deliver(&t, &lr.path, layer);
            let fo = faulty.deliver(&t, &fr.path, layer);
            assert_eq!(lo, fo, "delivery {i} diverged");
            let lrv = lossy.deliver_reverse(&t, &lr.path, 2, TrafficLayer::Reply);
            let frv = faulty.deliver_reverse(&t, &fr.path, 2, TrafficLayer::Reply);
            assert_eq!(lrv, frv, "reverse {i} diverged");
        }
        assert_eq!(lossy.ledger(), faulty.ledger());
        assert_eq!(lossy.clock(), faulty.clock());
        assert_eq!(lossy.delivery_stats(), faulty.delivery_stats());
    }

    #[test]
    fn crash_blocks_hops_through_the_victim_after_its_death() {
        let t = topo(32);
        let (from, to) = endpoints(&t);
        let cfg = LossyConfig::fixed(1.0, 5).with_retry_budget(2);
        let mut probe = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new(),
        );
        let route = probe.route_to_node(&t, from, to).unwrap();
        assert!(route.hops() >= 2);
        let victim = route.path[route.path.len() / 2];
        let mut faulty = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new().with(Fault::Crash { node: victim, at: 0.0 }),
        );
        let r = faulty.route_to_node(&t, from, to).unwrap();
        let out = faulty.deliver(&t, &r.path, TrafficLayer::Forward);
        assert!(!out.delivered);
        let (_, blocked_to) = out.failed_hop.expect("crash must fail the delivery");
        assert_eq!(blocked_to, victim, "the failure is the hop into the crashed node");
        // Every attempt into the victim was charged, none delivered.
        assert_eq!(
            out.transmissions,
            out.retransmissions + r.path.iter().position(|&n| n == victim).unwrap() as u64
        );
    }

    #[test]
    fn pause_heals_when_its_window_ends() {
        let t = topo(33);
        let (from, to) = endpoints(&t);
        let cfg = LossyConfig::fixed(1.0, 6).with_retry_budget(1);
        let mut probe = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new(),
        );
        let route = probe.route_to_node(&t, from, to).unwrap();
        let victim = route.path[route.path.len() / 2];
        let mut faulty = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new().with(Fault::Pause { node: victim, from: 0.0, until: 1.0 }),
        );
        let r = faulty.route_to_node(&t, from, to).unwrap();
        let during = faulty.deliver(&t, &r.path, TrafficLayer::Forward);
        assert!(!during.delivered, "paused node must block during the window");
        faulty.clock_mut().seek(1.0);
        let after = faulty.deliver(&t, &r.path, TrafficLayer::Forward);
        assert!(after.delivered, "pause must heal at its window end");
    }

    #[test]
    fn partition_blocks_only_boundary_crossing_links() {
        let t = topo(34);
        let cfg = LossyConfig::fixed(1.0, 7);
        // Split the field down the middle.
        let half = Rect::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0));
        let plan = FaultPlan::new().with(Fault::Partition { region: half, from: 0.0, until: 10.0 });
        let mut faulty = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            plan,
        );
        // A same-side pair of neighbors still talks.
        let inside: Vec<NodeId> =
            t.nodes().iter().filter(|n| half.contains(n.position)).map(|n| n.id).collect();
        let same_side = inside
            .iter()
            .flat_map(|&a| inside.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a != b && t.are_neighbors(a, b))
            .expect("two neighbors inside the region");
        let ok = faulty.deliver(&t, &[same_side.0, same_side.1], TrafficLayer::Forward);
        assert!(ok.delivered, "same-side links are unaffected");
        // A crossing pair of neighbors is dead during the window.
        let crossing = t
            .nodes()
            .iter()
            .filter(|n| half.contains(n.position))
            .flat_map(|a| t.nodes().iter().map(move |b| (a, b)))
            .find(|(a, b)| !half.contains(b.position) && t.are_neighbors(a.id, b.id))
            .map(|(a, b)| (a.id, b.id))
            .expect("a boundary-crossing neighbor pair");
        let blocked = faulty.deliver(&t, &[crossing.0, crossing.1], TrafficLayer::Forward);
        assert!(!blocked.delivered, "crossing links are dead during the partition");
        // After healing the same link works again.
        faulty.clock_mut().seek(10.0);
        let healed = faulty.deliver(&t, &[crossing.0, crossing.1], TrafficLayer::Forward);
        assert!(healed.delivered, "the partition must heal");
    }

    #[test]
    fn asymmetric_link_degrades_one_direction_only() {
        let t = topo(35);
        let (a, b) = t
            .nodes()
            .iter()
            .flat_map(|x| t.nodes().iter().map(move |y| (x.id, y.id)))
            .find(|&(x, y)| x != y && t.are_neighbors(x, y))
            .expect("a neighbor pair");
        let cfg = LossyConfig::fixed(1.0, 8).with_retry_budget(0);
        let mut faulty = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            // rand's gen_bool(0.0) never fires, so the degraded direction
            // always loses without consuming a different number of draws.
            FaultPlan::new().with(Fault::AsymmetricLink { from: a, to: b, prr: 0.0, at: 0.0 }),
        );
        let fwd = faulty.deliver(&t, &[a, b], TrafficLayer::Forward);
        assert!(!fwd.delivered, "degraded direction must drop");
        let rev = faulty.deliver(&t, &[b, a], TrafficLayer::Forward);
        assert!(rev.delivered, "healthy reverse direction must deliver");
    }

    #[test]
    fn adaptive_recovery_marks_suspects_and_detours_around_them() {
        let t = topo(36);
        let (from, to) = endpoints(&t);
        let cfg = LossyConfig::fixed(1.0, 9).with_retry_budget(1);
        let mut probe = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new(),
        );
        let route = probe.route_to_node(&t, from, to).unwrap();
        let victim = route.path[route.path.len() / 2];
        let recovery = RecoveryConfig { suspect_after: 2, ..RecoveryConfig::default() };
        let mut faulty = FaultyTransport::wrap_adaptive(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new().with(Fault::Crash { node: victim, at: 0.0 }),
            recovery,
        );
        let r = faulty.route_to_node(&t, from, to).unwrap();
        for _ in 0..2 {
            let out = faulty.deliver(&t, &r.path, TrafficLayer::Forward);
            assert!(!out.delivered);
        }
        assert!(
            faulty.adaptive().unwrap().is_suspect(victim),
            "two exhausted budgets must mark the receiver suspect"
        );
        let detour = faulty
            .route_to_node_avoiding(&t, from, to, &[])
            .expect("a 300-node field detours around one dead relay");
        assert!(!detour.path.contains(&victim), "the detour must avoid the suspect");
        assert_eq!(faulty.delivery_stats().detour_routes, 1);
        let out = faulty.deliver(&t, &detour.path, TrafficLayer::Forward);
        assert!(out.delivered, "the detour route must deliver around the crash");
    }

    #[test]
    fn backoff_prices_retries_on_the_clock() {
        let t = topo(37);
        let (a, b) = t
            .nodes()
            .iter()
            .flat_map(|x| t.nodes().iter().map(move |y| (x.id, y.id)))
            .find(|&(x, y)| x != y && t.are_neighbors(x, y))
            .expect("a neighbor pair");
        let cfg = LossyConfig::fixed(1.0, 10).with_retry_budget(3);
        let plan = FaultPlan::new().with(Fault::Crash { node: b, at: 0.0 });
        let mut plain = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            plan.clone(),
        );
        let mut adaptive = FaultyTransport::wrap_adaptive(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            plan,
            RecoveryConfig::default(),
        );
        let fixed = plain.deliver(&t, &[a, b], TrafficLayer::Forward);
        let priced = adaptive.deliver(&t, &[a, b], TrafficLayer::Forward);
        assert_eq!(fixed.transmissions, priced.transmissions, "same ARQ schedule");
        assert!(
            priced.latency > fixed.latency,
            "backoff must cost virtual time: {} vs {}",
            priced.latency,
            fixed.latency
        );
        // The extra latency is exactly the backoff schedule's sum. The
        // first attempt already failed before retry 1, so the EWMA has the
        // link below 0.5 and every retry escalates one rung.
        let policy = BackoffPolicy::default();
        let expected: f64 = (1..=3u32).map(|k| policy.delay(k + 1)).sum();
        assert!(
            (priced.latency - fixed.latency - expected).abs() < 1e-12,
            "extra latency {} vs expected backoff {expected}",
            priced.latency - fixed.latency
        );
    }

    #[test]
    fn burst_loss_draws_only_inside_its_window() {
        let t = topo(38);
        let (from, to) = endpoints(&t);
        let cfg = LossyConfig::fixed(0.9, 11);
        let channel = GilbertElliott::new(0.3, 0.2, 1.0, 0.0);
        // Window strictly in the future: deliveries at t≈0 precede it.
        let mut windowed = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new().with(Fault::BurstLoss { channel, from: 1e9, until: 2e9 }),
        );
        let mut clean = FaultyTransport::wrap(
            crate::TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            cfg,
            FaultPlan::new(),
        );
        let rw = windowed.route_to_node(&t, from, to).unwrap();
        let rc = clean.route_to_node(&t, from, to).unwrap();
        for _ in 0..8 {
            let ow = windowed.deliver(&t, &rw.path, TrafficLayer::Forward);
            let oc = clean.deliver(&t, &rc.path, TrafficLayer::Forward);
            assert_eq!(ow, oc, "an inactive burst window must not perturb the loss process");
        }
        assert_eq!(windowed.ledger(), clean.ledger());
    }
}
