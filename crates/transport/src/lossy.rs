//! A lossy link layer over any routing substrate.
//!
//! The paper (and the rest of this repository's seed) assumes every GPSR
//! hop succeeds. [`LossyTransport`] drops that assumption: it wraps any
//! [`Transport`] and makes each hop of a delivery fail independently with
//! probability `1 − prr(d)`, where `d` is the link distance and `prr` comes
//! from a seeded packet-reception model ([`LinkQuality`]). Lost frames are
//! recovered by hop-by-hop ARQ: the sender retransmits up to a bounded
//! retry budget, acknowledgments are assumed free and reliable (the same
//! "link-layer ARQ without acknowledgment loss" convention as
//! [`pool_netsim::radio::PrrModel::etx`]). First attempts are charged to
//! the caller's [`TrafficLayer`]; every retransmission is charged to
//! [`TrafficLayer::Retransmit`], so the ledger separates useful traffic
//! from loss overhead.
//!
//! A delivery that exhausts the budget on some hop stops there and reports
//! a structured [`DeliveryOutcome`] naming the failed hop — the storage
//! schemes above turn that into partial query results and typed insert
//! errors instead of aborting.
//!
//! With a perfect link (`prr = 1.0` everywhere) the decorator charges the
//! ledger hop for hop exactly like the wrapped transport: same order, same
//! layers, same per-node attribution.

use crate::faults::FaultTables;
use crate::ledger::TrafficLayer;
use crate::{Leg, Transport, TransportKind};
use pool_gpsr::{Route, RouteError};
use pool_netsim::geometry::Point;
use pool_netsim::node::NodeId;
use pool_netsim::radio::PrrModel;
use pool_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Seed domain separator for the burst-loss RNG stream, so Gilbert–Elliott
/// draws never perturb the base loss process.
const GE_SEED_SALT: u64 = 0x6e11_be27_6e11_be27;

/// Default ARQ retry budget: a frame is attempted at most `1 + budget`
/// times per hop (7 retries, the common 802.15.4-class MAC default range).
pub const DEFAULT_RETRY_BUDGET: u32 = 7;

/// Exponential ARQ backoff: retry `k` (1-based) waits
/// `min(cap, base · factor^(k−1))` seconds on top of the fixed
/// missing-ack timeout. Delays are monotone nondecreasing in `k` and
/// bounded by `cap`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in seconds.
    pub base: f64,
    /// Multiplier applied per further retry (≥ 1).
    pub factor: f64,
    /// Upper bound on any single delay, in seconds.
    pub cap: f64,
}

impl BackoffPolicy {
    /// Creates a policy; panics on non-finite or negative parameters, or a
    /// factor below 1 (which would make delays non-monotone).
    pub fn new(base: f64, factor: f64, cap: f64) -> Self {
        assert!(base.is_finite() && base >= 0.0, "invalid backoff base");
        assert!(factor.is_finite() && factor >= 1.0, "backoff factor must be >= 1");
        assert!(cap.is_finite() && cap >= 0.0, "invalid backoff cap");
        BackoffPolicy { base, factor, cap }
    }

    /// The delay before retry `k` (1-based); 0 for `k == 0` (the first
    /// attempt never waits).
    pub fn delay(&self, k: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let raw = self.base * self.factor.powi(k as i32 - 1);
        if raw > self.cap {
            self.cap
        } else {
            raw
        }
    }
}

impl Default for BackoffPolicy {
    /// 2 ms doubling up to 64 ms — a handful of rungs above the 1 ms
    /// missing-ack timeout of [`crate::LatencyModel::default`].
    fn default() -> Self {
        BackoffPolicy { base: 2e-3, factor: 2.0, cap: 64e-3 }
    }
}

/// Adaptive-recovery knobs for a lossy substrate: EWMA link estimation,
/// exponential backoff pricing, and the passive failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Backoff schedule priced on the virtual clock.
    pub backoff: BackoffPolicy,
    /// EWMA smoothing factor for per-link PRR estimation, in (0, 1].
    pub ewma_alpha: f64,
    /// Consecutive exhausted hop budgets before the receiver is marked
    /// suspect (the passive failure detector's `k`).
    pub suspect_after: u32,
}

impl RecoveryConfig {
    /// Creates a config; panics on an alpha outside (0, 1] or a zero
    /// detector threshold.
    pub fn new(backoff: BackoffPolicy, ewma_alpha: f64, suspect_after: u32) -> Self {
        assert!(ewma_alpha > 0.0 && ewma_alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        assert!(suspect_after >= 1, "the failure detector needs at least one strike");
        RecoveryConfig { backoff, ewma_alpha, suspect_after }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { backoff: BackoffPolicy::default(), ewma_alpha: 0.3, suspect_after: 2 }
    }
}

/// Shared adaptive-recovery state: per-link EWMA reception estimates, the
/// passive failure detector's consecutive-exhaustion counters, and the set
/// of currently suspected nodes.
///
/// All collections are B-tree-ordered so iteration (and therefore every
/// derived artifact) is deterministic regardless of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveState {
    config: RecoveryConfig,
    prr_estimate: BTreeMap<(NodeId, NodeId), f64>,
    consecutive_exhaustions: BTreeMap<(NodeId, NodeId), u32>,
    suspects: BTreeSet<NodeId>,
}

impl AdaptiveState {
    /// Fresh state under `config`.
    pub fn new(config: RecoveryConfig) -> Self {
        AdaptiveState {
            config,
            prr_estimate: BTreeMap::new(),
            consecutive_exhaustions: BTreeMap::new(),
            suspects: BTreeSet::new(),
        }
    }

    /// The recovery configuration.
    pub fn config(&self) -> RecoveryConfig {
        self.config
    }

    /// Folds one attempt result into the link's EWMA PRR estimate.
    pub fn observe(&mut self, link: (NodeId, NodeId), delivered: bool) {
        let sample = if delivered { 1.0 } else { 0.0 };
        let a = self.config.ewma_alpha;
        self.prr_estimate
            .entry(link)
            .and_modify(|est| *est = a * sample + (1.0 - a) * *est)
            .or_insert(sample);
    }

    /// The link's current EWMA PRR estimate, if any attempt was observed.
    pub fn estimate(&self, link: (NodeId, NodeId)) -> Option<f64> {
        self.prr_estimate.get(&link).copied()
    }

    /// The backoff delay before retry `k` on `link`: the configured
    /// exponential schedule, escalated one rung when the link's estimated
    /// PRR has degraded below 0.5 (bad links wait longer sooner). Monotone
    /// nondecreasing in `k` and bounded by the cap either way.
    pub fn backoff_delay(&self, link: (NodeId, NodeId), k: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let rung = match self.estimate(link) {
            Some(est) if est < 0.5 => k + 1,
            _ => k,
        };
        self.config.backoff.delay(rung)
    }

    /// Records a delivered hop: clears the link's strike counter.
    pub fn hop_delivered(&mut self, link: (NodeId, NodeId)) {
        self.consecutive_exhaustions.remove(&link);
    }

    /// Records an exhausted hop budget on `link`. Returns the receiver if
    /// this strike crossed the detector threshold and newly marked it
    /// suspect.
    pub fn hop_exhausted(&mut self, link: (NodeId, NodeId)) -> Option<NodeId> {
        let strikes = self.consecutive_exhaustions.entry(link).or_insert(0);
        *strikes += 1;
        if *strikes >= self.config.suspect_after && self.suspects.insert(link.1) {
            Some(link.1)
        } else {
            None
        }
    }

    /// Whether `node` is currently suspected dead.
    pub fn is_suspect(&self, node: NodeId) -> bool {
        self.suspects.contains(&node)
    }

    /// The suspect set, in node order.
    pub fn suspects(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.suspects.iter().copied()
    }

    /// Forgets everything — called on topology refresh, when old estimates
    /// and suspicions no longer describe the network.
    pub fn reset(&mut self) {
        self.prr_estimate.clear();
        self.consecutive_exhaustions.clear();
        self.suspects.clear();
    }
}

/// Per-link packet reception quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkQuality {
    /// Every link succeeds with the same fixed probability, regardless of
    /// distance (useful for controlled experiments and property tests).
    Fixed(f64),
    /// Distance-dependent reception from a logistic [`PrrModel`].
    Model(PrrModel),
}

impl LinkQuality {
    /// Reception probability for a link of length `distance`.
    pub fn prr(&self, distance: f64) -> f64 {
        match *self {
            LinkQuality::Fixed(p) => p,
            LinkQuality::Model(m) => m.prr(distance),
        }
    }
}

/// Configuration for a [`LossyTransport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossyConfig {
    /// Link quality model.
    pub quality: LinkQuality,
    /// Maximum retransmissions per hop after the first attempt.
    pub retry_budget: u32,
    /// Seed for the loss process (deliveries are deterministic in it).
    pub seed: u64,
}

impl LossyConfig {
    /// Distance-dependent loss from `model`, with the default retry budget.
    pub fn model(model: PrrModel, seed: u64) -> Self {
        LossyConfig { quality: LinkQuality::Model(model), retry_budget: DEFAULT_RETRY_BUDGET, seed }
    }

    /// Fixed per-hop reception probability `p`, with the default budget.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn fixed(p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "per-hop PRR must be in (0, 1], got {p}");
        LossyConfig { quality: LinkQuality::Fixed(p), retry_budget: DEFAULT_RETRY_BUDGET, seed }
    }

    /// Overrides the retry budget.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }
}

/// The outcome of delivering one packet along a routed path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryOutcome {
    /// Whether the packet reached the end of the path.
    pub delivered: bool,
    /// Total transmissions charged (first attempts + retransmissions).
    pub transmissions: u64,
    /// Retransmissions alone (charged to [`TrafficLayer::Retransmit`]).
    pub retransmissions: u64,
    /// The last node the packet reached.
    pub reached: NodeId,
    /// The hop that exhausted its retry budget, when delivery failed.
    pub failed_hop: Option<(NodeId, NodeId)>,
    /// Elapsed virtual time of the delivery, in seconds. Failed deliveries
    /// still accrue the time spent before ARQ gave up.
    pub latency: f64,
    /// Whether this delivery travelled a detour route (recomputed around
    /// failed or suspect nodes) rather than the leg's original path.
    pub detour: bool,
}

impl DeliveryOutcome {
    /// A loss-free delivery along `path` that charged `transmissions`.
    ///
    /// # Panics
    ///
    /// Panics on an empty path (paths always contain at least the source).
    pub fn delivered_clean(path: &[NodeId], transmissions: u64) -> Self {
        DeliveryOutcome {
            delivered: true,
            transmissions,
            retransmissions: 0,
            reached: *path.last().expect("path contains at least the source"),
            failed_hop: None,
            latency: 0.0,
            detour: false,
        }
    }
}

/// The outcome of sending `copies` reply packets back along a path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReverseDelivery {
    /// Copies that made it all the way back.
    pub delivered_copies: u64,
    /// Total transmissions charged across all copies.
    pub transmissions: u64,
    /// Retransmissions alone.
    pub retransmissions: u64,
    /// Elapsed virtual time of the whole fan-out (copies overlap in
    /// flight; shared senders serialize), in seconds.
    pub latency: f64,
}

/// Buckets in [`DeliveryStats::attempts_histogram`]: transmissions-per-hop
/// counts 1..=8, with the last bucket absorbing 9 and above.
pub const ATTEMPT_BUCKETS: usize = 9;

/// Cumulative link-layer delivery statistics for one transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryStats {
    /// Path-level deliveries attempted.
    pub deliveries: u64,
    /// Path-level deliveries that failed (some hop exhausted its budget).
    pub deliveries_failed: u64,
    /// Distinct hop attempts (self-hops excluded).
    pub hop_attempts: u64,
    /// Hops that exhausted the retry budget.
    pub hops_failed: u64,
    /// Total transmissions.
    pub transmissions: u64,
    /// Retransmissions alone.
    pub retransmissions: u64,
    /// Per-hop attempt histogram: bucket `i` counts hops that took `i + 1`
    /// transmissions (the last bucket absorbs ≥ [`ATTEMPT_BUCKETS`]).
    pub attempts_histogram: [u64; ATTEMPT_BUCKETS],
    /// Routes recomputed around failed or suspect nodes.
    pub detour_routes: u64,
}

impl DeliveryStats {
    /// Fraction of path-level deliveries that succeeded (1.0 when none
    /// were attempted).
    pub fn delivery_rate(&self) -> f64 {
        if self.deliveries == 0 {
            1.0
        } else {
            (self.deliveries - self.deliveries_failed) as f64 / self.deliveries as f64
        }
    }

    /// Retransmissions per first-attempt transmission — the loss tax on
    /// every useful message (0.0 for a perfect link).
    pub fn retransmission_overhead(&self) -> f64 {
        let first_attempts = self.transmissions - self.retransmissions;
        if first_attempts == 0 {
            0.0
        } else {
            self.retransmissions as f64 / first_attempts as f64
        }
    }

    /// Folds one hop's transmission count into the attempt histogram.
    pub(crate) fn record_hop_attempts(&mut self, transmissions: u64) {
        if transmissions == 0 {
            return;
        }
        let bucket = (transmissions as usize).min(ATTEMPT_BUCKETS) - 1;
        self.attempts_histogram[bucket] += 1;
    }
}

/// The one lossy-ARQ delivery engine, behind both public decorator names:
/// [`LossyTransport`] (no fault plan) and [`crate::FaultyTransport`] (a
/// [`crate::FaultPlan`] resolved into per-kind tables at wrap time). `P` is the
/// plan exactly as the constructor received it.
///
/// Routing (`route_to_node` / `route_to_location`), refreshes, and the
/// ledger all delegate to the inner transport; only the `deliver*` methods
/// change behaviour. The loss process is deterministic in
/// [`LossyConfig::seed`].
///
/// Determinism contract, per hop: the fault windows are read against the
/// clock once, at hop start. Every attempt is charged (the first to the
/// caller's layer, the rest to [`TrafficLayer::Retransmit`]) and observed
/// by the link estimator. An unblocked attempt draws `gen_bool(p)` once
/// from the base stream, then per active burst window, in plan order, one
/// flip draw and one gate draw from the separate burst stream; a blocked
/// attempt (dead endpoint, active partition) draws nothing. An exhausted
/// budget evicts memoized routes through the receiver, then strikes the
/// failure detector. With no plan the fault tables are empty, so "empty
/// plan ≡ lossy" holds by construction.
#[derive(Debug, Clone)]
pub struct ArqTransport<P> {
    engine: ArqEngine,
    pub(crate) plan: P,
}

/// Everything of [`ArqTransport`] but the plan as given. Not generic, so
/// the hop loop is compiled once, here, beside the code it calls — not
/// again in every crate that names one of the public aliases.
#[derive(Debug, Clone)]
struct ArqEngine {
    inner: Box<dyn Transport>,
    config: LossyConfig,
    faults: FaultTables,
    rng: StdRng,
    /// The burst channels' own stream, so Gilbert–Elliott draws never
    /// perturb the base loss process.
    ge_rng: StdRng,
    stats: DeliveryStats,
    adaptive: Option<AdaptiveState>,
}

/// A decorator that subjects every delivery of the wrapped [`Transport`]
/// to per-hop loss with bounded ARQ: the [`ArqTransport`] engine without a
/// fault plan.
///
/// # Examples
///
/// ```
/// use pool_gpsr::Planarization;
/// use pool_netsim::deployment::Deployment;
/// use pool_netsim::topology::Topology;
/// use pool_transport::{LossyConfig, LossyTransport, TrafficLayer, Transport, TransportKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let deployment = Deployment::paper_setting(300, 40.0, 20.0, 7)?;
/// let topology = Topology::build(deployment.nodes(), 40.0)?;
/// let inner = TransportKind::Gpsr.build(&topology, Planarization::Gabriel);
/// let mut lossy = LossyTransport::wrap(inner, LossyConfig::fixed(0.9, 42));
/// let (from, to) = (topology.nodes()[0].id, topology.nodes()[100].id);
/// let route = lossy.route_to_node(&topology, from, to)?;
/// let outcome = lossy.deliver(&topology, &route.path, TrafficLayer::Forward);
/// assert!(outcome.transmissions >= route.hops() as u64 || !outcome.delivered);
/// # Ok(())
/// # }
/// ```
pub type LossyTransport = ArqTransport<()>;

impl LossyTransport {
    /// Wraps `inner` with the loss process described by `config`.
    pub fn wrap(inner: Box<dyn Transport>, config: LossyConfig) -> Self {
        ArqTransport::new(inner, config, (), FaultTables::default(), None)
    }

    /// Wraps `inner` with the loss process plus adaptive recovery: EWMA
    /// link estimation, exponential backoff priced on the virtual clock,
    /// and a passive failure detector whose suspects are detoured around
    /// and evicted from route memos.
    pub fn wrap_adaptive(
        inner: Box<dyn Transport>,
        config: LossyConfig,
        recovery: RecoveryConfig,
    ) -> Self {
        ArqTransport::new(inner, config, (), FaultTables::default(), Some(recovery))
    }
}

impl<P> ArqTransport<P> {
    /// The constructor behind every public `wrap*`: `faults` is `plan`
    /// resolved (empty for no plan).
    pub(crate) fn new(
        inner: Box<dyn Transport>,
        config: LossyConfig,
        plan: P,
        faults: FaultTables,
        recovery: Option<RecoveryConfig>,
    ) -> Self {
        let engine = ArqEngine {
            inner,
            config,
            faults,
            rng: StdRng::seed_from_u64(config.seed),
            ge_rng: StdRng::seed_from_u64(config.seed ^ GE_SEED_SALT),
            stats: DeliveryStats::default(),
            adaptive: recovery.map(AdaptiveState::new),
        };
        ArqTransport { engine, plan }
    }

    /// The loss configuration.
    pub fn config(&self) -> LossyConfig {
        self.engine.config
    }

    /// The adaptive-recovery state, when recovery is enabled.
    pub fn adaptive(&self) -> Option<&AdaptiveState> {
        self.engine.adaptive.as_ref()
    }
}

impl ArqEngine {
    /// Attempts one hop with ARQ under the active faults. Returns
    /// `(delivered, transmissions, retransmissions, backoff)`; self-hops
    /// are free and always succeed.
    ///
    /// The RNG draw and ledger charge order here is the determinism-
    /// critical invariant (see the type's contract). Recovery adds backoff
    /// delays and estimator updates around the draws, never extra draws.
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
        let blocked = self.faults.blocked(topology, from, to, now);
        let p = self
            .faults
            .degraded_prr(from, to, now)
            .unwrap_or_else(|| self.config.quality.prr(topology.distance(from, to)))
            .clamp(0.0, 1.0);
        self.stats.hop_attempts += 1;
        let mut transmissions = 0u64;
        let mut backoff = 0.0f64;
        let mut delivered = false;
        for attempt in 0..=self.config.retry_budget {
            if let Some(ad) = &self.adaptive {
                backoff += ad.backoff_delay((from, to), attempt);
            }
            let charge_layer = if attempt == 0 { layer } else { TrafficLayer::Retransmit };
            self.inner.ledger_mut().charge_hop(from, to, charge_layer);
            transmissions += 1;
            let received = !blocked && {
                let base = self.rng.gen_bool(p);
                let bursts = self.faults.gate_bursts(&mut self.ge_rng, now);
                base && bursts
            };
            if let Some(ad) = &mut self.adaptive {
                ad.observe((from, to), received);
            }
            if received {
                delivered = true;
                break;
            }
        }
        self.stats.transmissions += transmissions;
        self.stats.retransmissions += transmissions - 1;
        self.stats.record_hop_attempts(transmissions);
        if delivered {
            if let Some(ad) = &mut self.adaptive {
                ad.hop_delivered((from, to));
            }
        } else {
            self.stats.hops_failed += 1;
            // The exhausted budget just proved `to` unreachable from here:
            // drop any memoized routes through it now rather than waiting
            // for the next generation bump (eviction never changes charges,
            // only recompute), and give the detector its strike.
            self.inner.evict_routes_through(to);
            if let Some(ad) = &mut self.adaptive {
                ad.hop_exhausted((from, to));
            }
        }
        (delivered, transmissions, transmissions - 1, backoff)
    }

    /// Charges one path-level delivery attempt hop by hop, collecting the
    /// per-hop transmission counts so the caller can time the leg
    /// afterwards without touching the draw and charge order.
    fn walk(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        layer: TrafficLayer,
    ) -> (DeliveryOutcome, Vec<crate::Hop>) {
        self.stats.deliveries += 1;
        let mut outcome = DeliveryOutcome::delivered_clean(path, 0);
        let mut hops = Vec::new();
        for w in path.windows(2) {
            let (ok, t, r, backoff) = self.deliver_hop(topology, w[0], w[1], layer);
            if t > 0 {
                hops.push(crate::Hop { from: w[0], to: w[1], transmissions: t, backoff });
            }
            outcome.transmissions += t;
            outcome.retransmissions += r;
            if !ok {
                self.stats.deliveries_failed += 1;
                outcome.delivered = false;
                outcome.reached = w[0];
                outcome.failed_hop = Some((w[0], w[1]));
                break;
            }
        }
        (outcome, hops)
    }

    /// Merges the failure detector's suspects into an exclusion set,
    /// keeping the endpoints routable.
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

impl<P: std::fmt::Debug + Send + Clone + 'static> Transport for ArqTransport<P> {
    fn route_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Arc<Route>, RouteError> {
        self.engine.inner.route_to_node(topology, from, to)
    }

    fn leg_to_node(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
    ) -> Result<Leg, RouteError> {
        self.engine.inner.leg_to_node(topology, from, to)
    }

    fn route_to_location(
        &mut self,
        topology: &Topology,
        from: NodeId,
        target: Point,
    ) -> Result<Arc<Route>, RouteError> {
        self.engine.inner.route_to_location(topology, from, target)
    }

    fn route_to_node_avoiding(
        &mut self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        excluded: &[NodeId],
    ) -> Result<Arc<Route>, RouteError> {
        let merged = self.engine.merged_exclusions(from, to, excluded);
        if merged.is_empty() {
            return self.engine.inner.route_to_node(topology, from, to);
        }
        let route = self.engine.inner.route_to_node_avoiding(topology, from, to, &merged)?;
        self.engine.stats.detour_routes += 1;
        Ok(route)
    }

    fn evict_routes_through(&mut self, node: NodeId) -> u64 {
        self.engine.inner.evict_routes_through(node)
    }

    fn refresh(&mut self, topology: &Topology, dirty: &[NodeId]) {
        // Old link estimates and suspicions describe the old topology.
        if let Some(ad) = &mut self.engine.adaptive {
            ad.reset();
        }
        self.engine.inner.refresh(topology, dirty);
    }

    fn generation(&self) -> u64 {
        self.engine.inner.generation()
    }

    fn ledger(&self) -> &crate::TrafficLedger {
        self.engine.inner.ledger()
    }

    fn ledger_mut(&mut self) -> &mut crate::TrafficLedger {
        self.engine.inner.ledger_mut()
    }

    fn clock(&self) -> &crate::VirtualClock {
        self.engine.inner.clock()
    }

    fn clock_mut(&mut self) -> &mut crate::VirtualClock {
        self.engine.inner.clock_mut()
    }

    fn kind(&self) -> TransportKind {
        self.engine.inner.kind()
    }

    fn deliver(
        &mut self,
        topology: &Topology,
        path: &[NodeId],
        layer: TrafficLayer,
    ) -> DeliveryOutcome {
        let (mut outcome, hops) = self.engine.walk(topology, path, layer);
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
            let (o, hops) = self.engine.walk(topology, &back, layer);
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
        self.engine.stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pool_gpsr::Planarization;
    use pool_netsim::deployment::Deployment;

    pub(crate) fn topo(seed: u64) -> Topology {
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

    pub(crate) fn endpoints(t: &Topology) -> (NodeId, NodeId) {
        (t.nodes()[0].id, t.nodes()[t.len() - 1].id)
    }

    #[test]
    fn perfect_link_charges_exactly_like_the_wrapped_transport() {
        let t = topo(1);
        let (from, to) = endpoints(&t);
        let mut plain = TransportKind::Gpsr.build(&t, Planarization::Gabriel);
        let mut lossy = LossyTransport::wrap(
            TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            LossyConfig::fixed(1.0, 9),
        );
        let route = plain.route_to_node(&t, from, to).unwrap();
        let plain_out = plain.deliver(&t, &route.path, TrafficLayer::Insert);
        let lossy_route = lossy.route_to_node(&t, from, to).unwrap();
        let lossy_out = lossy.deliver(&t, &lossy_route.path, TrafficLayer::Insert);
        assert_eq!(plain_out, lossy_out);
        assert_eq!(plain.ledger(), lossy.ledger());
        let pr = plain.deliver_reverse(&t, &route.path, 3, TrafficLayer::Reply);
        let lr = lossy.deliver_reverse(&t, &lossy_route.path, 3, TrafficLayer::Reply);
        assert_eq!(pr, lr);
        assert_eq!(plain.ledger(), lossy.ledger());
    }

    #[test]
    fn retransmissions_land_in_the_retransmit_layer() {
        let t = topo(2);
        let (from, to) = endpoints(&t);
        let mut lossy = LossyTransport::wrap(
            TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            LossyConfig::fixed(0.5, 11).with_retry_budget(64),
        );
        let route = lossy.route_to_node(&t, from, to).unwrap();
        let mut out = DeliveryOutcome::delivered_clean(&route.path, 0);
        // Repeat until the loss process actually retransmits at least once.
        for _ in 0..20 {
            out = lossy.deliver(&t, &route.path, TrafficLayer::Forward);
            assert!(out.delivered, "budget 64 at p=0.5 must not fail");
            if out.retransmissions > 0 {
                break;
            }
        }
        assert!(out.retransmissions > 0, "p = 0.5 never dropped a frame in 20 deliveries");
        let ledger = lossy.ledger();
        assert_eq!(
            ledger.layer_total(TrafficLayer::Retransmit),
            lossy.delivery_stats().retransmissions
        );
        assert_eq!(
            ledger.layer_total(TrafficLayer::Forward)
                + ledger.layer_total(TrafficLayer::Retransmit),
            ledger.total_messages()
        );
    }

    #[test]
    fn exhausted_budget_reports_the_failed_hop() {
        let t = topo(3);
        let (from, to) = endpoints(&t);
        // p small enough that a multi-hop path with zero retries fails fast.
        let mut lossy = LossyTransport::wrap(
            TransportKind::Gpsr.build(&t, Planarization::Gabriel),
            LossyConfig::fixed(0.05, 13).with_retry_budget(0),
        );
        let route = lossy.route_to_node(&t, from, to).unwrap();
        assert!(route.hops() >= 2, "endpoints should be multiple hops apart");
        let out = lossy.deliver(&t, &route.path, TrafficLayer::Insert);
        assert!(!out.delivered);
        let (hf, ht) = out.failed_hop.expect("failed delivery names its hop");
        assert!(route.path.contains(&hf) && route.path.contains(&ht));
        assert_eq!(out.reached, hf);
        assert!(lossy.delivery_stats().deliveries_failed >= 1);
    }

    #[test]
    fn deliveries_are_deterministic_in_the_seed() {
        let t = topo(4);
        let (from, to) = endpoints(&t);
        let run = |seed: u64| {
            let mut lossy = LossyTransport::wrap(
                TransportKind::Gpsr.build(&t, Planarization::Gabriel),
                LossyConfig::model(PrrModel::new(15.0, 42.0), seed),
            );
            let route = lossy.route_to_node(&t, from, to).unwrap();
            let outs: Vec<DeliveryOutcome> =
                (0..10).map(|_| lossy.deliver(&t, &route.path, TrafficLayer::Forward)).collect();
            (outs, lossy.ledger().clone())
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).1, run(22).1, "different seeds should differ on a lossy model");
    }
}
