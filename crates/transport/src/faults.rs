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
//! Determinism contract: [`FaultyTransport`] and [`crate::LossyTransport`]
//! are one engine ([`ArqTransport`]), so with an empty plan the two are
//! byte-identical — same RNG stream, same ledger charge order, same
//! timing. Fault-blocked attempts are charged but consume **no** RNG draw,
//! and burst channels draw from a separate RNG stream, so injected faults
//! never perturb the base loss process around them.

use crate::lossy::{ArqTransport, LossyConfig, RecoveryConfig};
use crate::Transport;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::schedule::SimTime;
use pool_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::Rng;

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
}

/// A [`FaultPlan`] resolved once, at wrap time, into one table per fault
/// kind, so a hop scans only the faults that can apply to it. Each table
/// keeps plan order.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultTables {
    /// `(node, from, until)`: a crash is a pause that never ends.
    down: Vec<(NodeId, SimTime, SimTime)>,
    partitions: Vec<(Rect, SimTime, SimTime)>,
    /// `(from, to, prr, at)`.
    asymmetric: Vec<(NodeId, NodeId, f64, SimTime)>,
    bursts: Vec<(GilbertElliott, SimTime, SimTime)>,
    /// Current state per burst channel, index-aligned with `bursts`;
    /// chains start good.
    ge_bad: Vec<bool>,
}

impl FaultTables {
    fn of(plan: &FaultPlan) -> Self {
        let mut tables = FaultTables::default();
        for fault in plan.faults() {
            match *fault {
                Fault::Crash { node, at } => tables.down.push((node, at, SimTime::INFINITY)),
                Fault::Pause { node, from, until } => tables.down.push((node, from, until)),
                Fault::Partition { region, from, until } => {
                    tables.partitions.push((region, from, until));
                }
                Fault::BurstLoss { channel, from, until } => {
                    tables.bursts.push((channel, from, until));
                }
                Fault::AsymmetricLink { from, to, prr, at } => {
                    tables.asymmetric.push((from, to, prr, at));
                }
            }
        }
        tables.ge_bad = vec![false; tables.bursts.len()];
        tables
    }

    /// Whether no draw can save a transmission `from → to` at `now`: a
    /// dead endpoint, or an active partition boundary between the two.
    pub(crate) fn blocked(
        &self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        now: SimTime,
    ) -> bool {
        let active = |since: SimTime, until: SimTime| now >= since && now < until;
        if self.down.iter().any(|&(n, since, until)| (n == from || n == to) && active(since, until))
        {
            return true;
        }
        if self.partitions.is_empty() {
            return false;
        }
        let (a, b) = (topology.position(from), topology.position(to));
        self.partitions.iter().any(|&(region, since, until)| {
            active(since, until) && region.contains(a) != region.contains(b)
        })
    }

    /// The reception probability an asymmetric-link fault imposes on the
    /// directed link `from → to` at `now`; the last one in the plan wins.
    pub(crate) fn degraded_prr(&self, from: NodeId, to: NodeId, now: SimTime) -> Option<f64> {
        self.asymmetric
            .iter()
            .rev()
            .find(|&&(f, t, _, at)| f == from && t == to && now >= at)
            .map(|&(_, _, prr, _)| prr)
    }

    /// Steps every burst channel whose window holds `now`, in plan order,
    /// then gates on its state's reception probability — both draws from
    /// `rng`, the dedicated burst stream. Returns whether every gate let
    /// the frame through.
    pub(crate) fn gate_bursts(&mut self, rng: &mut StdRng, now: SimTime) -> bool {
        let mut ok = true;
        for (&(ch, from, until), bad) in self.bursts.iter().zip(&mut self.ge_bad) {
            if now >= from && now < until {
                if rng.gen_bool(if *bad { ch.p_bg } else { ch.p_gb }) {
                    *bad = !*bad;
                }
                let state_prr = if *bad { ch.bad_prr } else { ch.good_prr };
                ok &= rng.gen_bool(state_prr.clamp(0.0, 1.0));
            }
        }
        ok
    }
}

/// A lossy-ARQ transport decorator that additionally injects the
/// structured faults of a [`FaultPlan`], with optional adaptive recovery:
/// the [`ArqTransport`] engine with the plan's tables filled in.
pub type FaultyTransport = ArqTransport<FaultPlan>;

impl FaultyTransport {
    /// Wraps `inner` with the lossy ARQ of `config` plus the faults of
    /// `plan`, with adaptive recovery when `recovery` is set.
    pub(crate) fn build(
        inner: Box<dyn Transport>,
        config: LossyConfig,
        plan: FaultPlan,
        recovery: Option<RecoveryConfig>,
    ) -> Self {
        let tables = FaultTables::of(&plan);
        ArqTransport::new(inner, config, plan, tables, recovery)
    }

    /// Wraps `inner` with the lossy ARQ of `config` plus the faults of
    /// `plan`, without adaptive recovery.
    pub fn wrap(inner: Box<dyn Transport>, config: LossyConfig, plan: FaultPlan) -> Self {
        Self::build(inner, config, plan, None)
    }

    /// Wraps `inner` with faults *and* adaptive recovery.
    pub fn wrap_adaptive(
        inner: Box<dyn Transport>,
        config: LossyConfig,
        plan: FaultPlan,
        recovery: RecoveryConfig,
    ) -> Self {
        Self::build(inner, config, plan, Some(recovery))
    }

    /// The fault plan, as given.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lossy::tests::{endpoints, topo};
    use crate::{BackoffPolicy, DeliveryOutcome, LossyTransport, TrafficLayer};
    use pool_gpsr::Planarization;
    use pool_netsim::geometry::Point;

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

    /// FNV-1a over a stream of 64-bit words.
    struct Digest(u64);

    impl Digest {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn outcome(&mut self, o: &DeliveryOutcome) {
            let (hf, ht) =
                o.failed_hop.map_or((u64::MAX, u64::MAX), |(f, t)| (f.0.into(), t.0.into()));
            for w in [
                o.delivered.into(),
                o.transmissions,
                o.retransmissions,
                o.reached.0.into(),
                hf,
                ht,
                o.latency.to_bits(),
                o.detour.into(),
            ] {
                self.word(w);
            }
        }
    }

    /// When the golden run's pause (and nothing else) heals.
    const GOLDEN_HEAL: SimTime = 30.0;

    /// Drives one transport through the golden schedule and folds every
    /// observable into `d`.
    fn golden_run(
        t: &Topology,
        transport: &mut dyn Transport,
        pairs: &[(NodeId, NodeId)],
        d: &mut Digest,
    ) {
        let layers = [TrafficLayer::Forward, TrafficLayer::Insert, TrafficLayer::Monitor];
        for (i, &(from, to)) in pairs.iter().enumerate() {
            if i == pairs.len() / 2 {
                let now = transport.clock().now();
                assert!(now < GOLDEN_HEAL, "the first half must run inside the pause window");
                transport.clock_mut().seek(GOLDEN_HEAL);
            }
            let route = transport.route_to_node(t, from, to).unwrap();
            let out = transport.deliver(t, &route.path, layers[i % 3]);
            d.outcome(&out);
            if let Some((_, dead)) = out.failed_hop {
                if let Ok(detour) = transport.route_to_node_avoiding(t, from, to, &[dead]) {
                    d.word(detour.path.len() as u64);
                    for n in &detour.path {
                        d.word(n.0.into());
                    }
                    d.outcome(&transport.deliver(t, &detour.path, layers[i % 3]));
                }
            }
            let rev = transport.deliver_reverse(t, &route.path, 3, TrafficLayer::Reply);
            for w in [rev.delivered_copies, rev.transmissions, rev.retransmissions] {
                d.word(w);
            }
            d.word(rev.latency.to_bits());
        }
        for (_, total) in transport.ledger().by_layer() {
            d.word(total);
        }
        d.word(transport.clock().now().to_bits());
        let s = transport.delivery_stats();
        for w in [
            s.deliveries,
            s.deliveries_failed,
            s.hop_attempts,
            s.hops_failed,
            s.transmissions,
            s.retransmissions,
            s.detour_routes,
        ] {
            d.word(w);
        }
        for bucket in s.attempts_histogram {
            d.word(bucket);
        }
    }

    /// The determinism contract in one number: the bare lossy engine, the
    /// fault engine under a plan holding every fault kind (two overlapping
    /// active burst windows around an idle one, a doubled asymmetric link,
    /// a pause healed mid-run by a seek, a partition, a crash), and the
    /// same plan with adaptive recovery, each through 48 forward and 48
    /// three-copy reverse deliveries. Every outcome field, the per-layer
    /// ledger, the clock, the delivery statistics and the suspect set fold
    /// into one hash; a moved RNG draw, ledger charge or float operation
    /// moves it. The constant was recorded on the two-engine code this
    /// test was written against and is not to be edited.
    #[test]
    fn golden_delivery_digest() {
        let t = topo(41);
        let n = t.len();
        // Sixteen endpoint pairs, each visited three times: before the
        // crash, around the heal, and once suspicions have settled.
        let pairs: Vec<(NodeId, NodeId)> = (0..48usize)
            .map(|i| i % 16)
            .map(|k| (t.nodes()[(k * 7) % n].id, t.nodes()[(k * 13 + n / 2) % n].id))
            .collect();
        let gabriel = Planarization::Gabriel;
        let mut probe = crate::TransportKind::Gpsr.build(&t, gabriel);
        let mut path_of = |k: usize| probe.route_to_node(&t, pairs[k].0, pairs[k].1).unwrap();
        let (first, second, third) = (path_of(0), path_of(1), path_of(2));
        assert!(first.hops() >= 3 && second.hops() >= 2 && third.hops() >= 2);
        let (asym_from, asym_to) = (first.path[1], first.path[2]);
        let paused = second.path[second.path.len() / 2];
        let crashed = third.path[third.path.len() / 2];
        let b = t.bounds();
        let corner =
            Rect::new(b.min, Point::new(b.min.x + 0.25 * b.width(), b.min.y + 0.25 * b.height()));
        let plan = FaultPlan::new()
            .with(Fault::BurstLoss {
                channel: GilbertElliott::new(0.1, 0.4, 1.0, 0.6),
                from: 0.0,
                until: 1e9,
            })
            .with(Fault::AsymmetricLink { from: asym_from, to: asym_to, prr: 0.0, at: 0.0 })
            .with(Fault::BurstLoss {
                channel: GilbertElliott::new(0.5, 0.5, 0.5, 0.5),
                from: 1e9,
                until: 2e9,
            })
            .with(Fault::Pause { node: paused, from: 0.0, until: GOLDEN_HEAL })
            .with(Fault::Partition { region: corner, from: 0.1, until: 1e9 })
            .with(Fault::BurstLoss {
                channel: GilbertElliott::new(0.05, 0.5, 0.98, 0.5),
                from: 0.2,
                until: 1e9,
            })
            .with(Fault::Crash { node: crashed, at: 0.3 })
            .with(Fault::AsymmetricLink { from: asym_to, to: asym_from, prr: 0.6, at: 0.0 })
            .with(Fault::AsymmetricLink { from: asym_from, to: asym_to, prr: 0.85, at: 0.0 });
        let cfg = LossyConfig::model(pool_netsim::radio::PrrModel::new(30.0, 50.0), 0x901d)
            .with_retry_budget(4);

        let mut d = Digest(0xcbf2_9ce4_8422_2325);
        let mut lossy = LossyTransport::wrap(crate::TransportKind::Gpsr.build(&t, gabriel), cfg);
        golden_run(&t, &mut lossy, &pairs, &mut d);
        assert!(lossy.adaptive().is_none());

        let mut faulty =
            FaultyTransport::wrap(crate::TransportKind::Gpsr.build(&t, gabriel), cfg, plan.clone());
        golden_run(&t, &mut faulty, &pairs, &mut d);
        assert_eq!(faulty.plan(), &plan, "plan() returns the plan as given");
        let stats = faulty.delivery_stats();
        assert!(stats.hops_failed > 0 && stats.deliveries_failed < stats.deliveries);

        let mut adaptive = FaultyTransport::wrap_adaptive(
            crate::TransportKind::Cached.build(&t, gabriel),
            cfg,
            plan,
            RecoveryConfig::default(),
        );
        golden_run(&t, &mut adaptive, &pairs, &mut d);
        let suspects: Vec<NodeId> = adaptive.adaptive().unwrap().suspects().collect();
        assert!(suspects.contains(&crashed), "the crashed relay must end up suspected");
        d.word(suspects.len() as u64);
        for s in suspects {
            d.word(s.0.into());
        }
        assert_eq!(d.0, 0x691778797cd30537, "the delivery engines' observable behaviour moved");
    }
}
