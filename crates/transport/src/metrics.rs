//! Per-node load metrics and ledger snapshots — the observability layer's
//! read side.
//!
//! The paper's §5 evaluation is message counting, and its sharpest claim is
//! about *distribution*: skewed workloads hotspot DIM's zone owners while
//! Pool spreads load across delegation chains (§4.2). This module turns the
//! raw [`TrafficLedger`] into the quantities those figures need:
//!
//! * [`LoadReport`] — one row per node: messages sent (total and per
//!   [`TrafficLayer`]), events held, and protocol role tags
//!   ([`NodeRole::Index`] / [`NodeRole::Splitter`] / [`NodeRole::Delegate`]).
//! * [`LoadDistribution`] — max / mean / Gini over any load sample, the
//!   standard inequality summary for hotspot analysis.
//! * [`LedgerSnapshot`] — a frozen copy of the per-layer totals, used by
//!   the conservation audit to assert that one operation's cost struct
//!   equals the ledger delta it produced, layer by layer.

use crate::ledger::{TrafficLayer, TrafficLedger};
use pool_netsim::node::NodeId;

/// A protocol role a node played during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Elected index node of at least one pool cell (or DIM zone owner).
    Index,
    /// Served as a pool splitter for at least one query or dissemination.
    Splitter,
    /// Recruited into at least one workload-sharing delegation chain.
    Delegate,
}

impl NodeRole {
    /// All roles, in display order.
    pub const ALL: [NodeRole; 3] = [NodeRole::Index, NodeRole::Splitter, NodeRole::Delegate];

    /// Stable lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            NodeRole::Index => "index",
            NodeRole::Splitter => "splitter",
            NodeRole::Delegate => "delegate",
        }
    }

    fn bit(self) -> u8 {
        match self {
            NodeRole::Index => 1,
            NodeRole::Splitter => 2,
            NodeRole::Delegate => 4,
        }
    }
}

/// A small set of [`NodeRole`]s (a node can be index, splitter, and
/// delegate at once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoleSet(u8);

impl RoleSet {
    /// The empty set.
    pub fn empty() -> Self {
        RoleSet(0)
    }

    /// Adds a role.
    pub fn insert(&mut self, role: NodeRole) {
        self.0 |= role.bit();
    }

    /// Whether `role` is in the set.
    pub fn contains(self, role: NodeRole) -> bool {
        self.0 & role.bit() != 0
    }

    /// Whether the node played no tracked role.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The labels of the roles present, in display order.
    pub fn labels(self) -> Vec<&'static str> {
        NodeRole::ALL.iter().filter(|r| self.contains(**r)).map(|r| r.label()).collect()
    }
}

/// One node's row in a [`LoadReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLoad {
    /// The node.
    pub node: NodeId,
    /// Messages this node sent, across all layers.
    pub messages: u64,
    /// Messages sent per layer, in [`TrafficLayer::ALL`] order.
    pub by_layer: [u64; TrafficLayer::ALL.len()],
    /// Events this node currently holds (storage load).
    pub events_held: u64,
    /// Virtual time this node's radio spent transmitting, in seconds:
    /// `messages` × the clock model's service time (every charged message
    /// is one timed transmission).
    pub busy_time: f64,
    /// Protocol roles the node played.
    pub roles: RoleSet,
}

/// Per-node load assembled from a [`TrafficLedger`], optionally annotated
/// with storage load and role tags by the storage scheme that owns the
/// ledger.
///
/// # Examples
///
/// ```
/// use pool_netsim::node::NodeId;
/// use pool_transport::metrics::{LoadReport, NodeRole};
/// use pool_transport::{TrafficLayer, TrafficLedger};
///
/// let mut ledger = TrafficLedger::new(3);
/// ledger.charge_path(&[NodeId(0), NodeId(1), NodeId(2)], TrafficLayer::Insert);
/// let mut report = LoadReport::from_ledger(&ledger, 0.5e-3);
/// report.set_events_held(NodeId(2), 5);
/// report.tag(NodeId(1), NodeRole::Delegate);
/// assert_eq!(report.message_distribution().max, 1.0);
/// // Load is sender-attributed: node 1 relayed one Insert-layer message.
/// assert_eq!(report.role_layer_total(NodeRole::Delegate, TrafficLayer::Insert), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    nodes: Vec<NodeLoad>,
    delivery: crate::DeliveryStats,
}

impl LoadReport {
    /// Builds a report with message loads filled in from `ledger` and
    /// busy times derived from them at `service_time` seconds per
    /// transmission (storage loads zero, role sets empty, delivery stats
    /// zero).
    pub fn from_ledger(ledger: &TrafficLedger, service_time: f64) -> Self {
        let nodes = (0..ledger.nodes())
            .map(|i| {
                let node = NodeId(i as u32);
                let messages = ledger.node_load(node);
                NodeLoad {
                    node,
                    messages,
                    by_layer: *ledger.node_layers(node),
                    events_held: 0,
                    busy_time: messages as f64 * service_time,
                    roles: RoleSet::empty(),
                }
            })
            .collect();
        LoadReport { nodes, delivery: crate::DeliveryStats::default() }
    }

    /// Attaches the transport's cumulative link-layer delivery statistics
    /// (attempt histogram, detour count, failure counts) so chaos runs are
    /// debuggable from the report alone.
    pub fn set_delivery_stats(&mut self, stats: crate::DeliveryStats) {
        self.delivery = stats;
    }

    /// The attached link-layer delivery statistics (all zeros for
    /// loss-free substrates or when never attached).
    pub fn delivery_stats(&self) -> crate::DeliveryStats {
        self.delivery
    }

    /// Sets the storage load of `node`.
    pub fn set_events_held(&mut self, node: NodeId, events: u64) {
        self.nodes[node.index()].events_held = events;
    }

    /// Tags `node` with a protocol role.
    pub fn tag(&mut self, node: NodeId, role: NodeRole) {
        self.nodes[node.index()].roles.insert(role);
    }

    /// All rows, in node order.
    pub fn nodes(&self) -> &[NodeLoad] {
        &self.nodes
    }

    /// Max/mean/Gini over per-node *message* load.
    pub fn message_distribution(&self) -> LoadDistribution {
        LoadDistribution::of(self.nodes.iter().map(|n| n.messages))
    }

    /// Max/mean/Gini over per-node *storage* load (events held).
    pub fn storage_distribution(&self) -> LoadDistribution {
        LoadDistribution::of(self.nodes.iter().map(|n| n.events_held))
    }

    /// Max/mean/Gini over per-node radio *busy time* — the utilization
    /// analogue of [`LoadReport::message_distribution`].
    pub fn busy_distribution(&self) -> LoadDistribution {
        LoadDistribution::of_f64(self.nodes.iter().map(|n| n.busy_time))
    }

    /// Max/mean/Gini over per-node load on one layer.
    pub fn layer_distribution(&self, layer: TrafficLayer) -> LoadDistribution {
        LoadDistribution::of(self.nodes.iter().map(|n| n.by_layer[layer.index()]))
    }

    /// Total messages sent on `layer` by nodes tagged with `role` — e.g.
    /// Reply-layer traffic relayed by delegation-chain members.
    pub fn role_layer_total(&self, role: NodeRole, layer: TrafficLayer) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.roles.contains(role))
            .map(|n| n.by_layer[layer.index()])
            .sum()
    }

    /// The `k` nodes with the highest message load, descending (ties by
    /// node id, ascending).
    pub fn hottest(&self, k: usize) -> Vec<&NodeLoad> {
        let mut sorted: Vec<&NodeLoad> = self.nodes.iter().collect();
        sorted.sort_by_key(|n| (std::cmp::Reverse(n.messages), n.node));
        sorted.truncate(k);
        sorted
    }
}

/// Max / mean / Gini summary of a load sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadDistribution {
    /// Largest single load.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Gini coefficient in `[0, 1]`: 0 is perfectly even, 1 is one node
    /// carrying everything. Defined as 0 for an empty or all-zero sample.
    pub gini: f64,
}

impl LoadDistribution {
    /// Summarizes a sample of integer loads.
    pub fn of(samples: impl IntoIterator<Item = u64>) -> Self {
        LoadDistribution::of_f64(samples.into_iter().map(|v| v as f64))
    }

    /// Summarizes a sample of non-negative real-valued loads (busy times,
    /// utilizations).
    pub fn of_f64(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut values: Vec<f64> = samples.into_iter().collect();
        if values.is_empty() {
            return LoadDistribution { max: 0.0, mean: 0.0, gini: 0.0 };
        }
        values.sort_unstable_by(f64::total_cmp);
        let n = values.len() as f64;
        let total: f64 = values.iter().sum();
        let max = *values.last().expect("non-empty");
        let mean = total / n;
        // Gini from the sorted sample: G = (2·Σ i·xᵢ)/(n·Σ xᵢ) − (n+1)/n,
        // with 1-based ranks i over ascending xᵢ.
        let gini = if total == 0.0 {
            0.0
        } else {
            let rank_weighted: f64 =
                values.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x).sum();
            (2.0 * rank_weighted) / (n * total) - (n + 1.0) / n
        };
        LoadDistribution { max, mean, gini }
    }

    /// Hand-rolled JSON object (the repo has no real serde).
    pub fn json(&self) -> String {
        format!(
            "{{\"max\": {:.1}, \"mean\": {:.3}, \"gini\": {:.4}}}",
            self.max, self.mean, self.gini
        )
    }
}

/// A frozen copy of a ledger's per-layer totals, for delta assertions.
///
/// The conservation audit brackets every operation with a snapshot: the
/// operation's reported cost must equal the ledger growth, layer by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerSnapshot {
    by_layer: [u64; TrafficLayer::ALL.len()],
    total: u64,
}

impl LedgerSnapshot {
    /// Freezes the current totals of `ledger`.
    pub fn of(ledger: &TrafficLedger) -> Self {
        let mut by_layer = [0; TrafficLayer::ALL.len()];
        for layer in TrafficLayer::ALL {
            by_layer[layer.index()] = ledger.layer_total(layer);
        }
        LedgerSnapshot { by_layer, total: ledger.total_messages() }
    }

    /// Messages charged to `layer` since the snapshot.
    pub fn layer_delta(&self, ledger: &TrafficLedger, layer: TrafficLayer) -> u64 {
        ledger.layer_total(layer) - self.by_layer[layer.index()]
    }

    /// Total messages charged since the snapshot.
    pub fn total_delta(&self, ledger: &TrafficLedger) -> u64 {
        ledger.total_messages() - self.total
    }

    /// Conservation audit, exact form: each `(layer, cost)` pair reported
    /// by an operation must equal that layer's ledger delta since the
    /// snapshot. Compiled to nothing in release builds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when a reported cost diverges from its
    /// ledger delta — the operation created or lost phantom messages.
    pub fn debug_assert_layers(
        &self,
        ledger: &TrafficLedger,
        op: &str,
        expected: &[(TrafficLayer, u64)],
    ) {
        if cfg!(debug_assertions) {
            for &(layer, cost) in expected {
                debug_assert_eq!(
                    cost,
                    self.layer_delta(ledger, layer),
                    "{op}: reported cost diverges from the {} ledger delta",
                    layer.label()
                );
            }
            let covered: u64 = expected.iter().map(|&(_, cost)| cost).sum();
            let elsewhere = self.total_delta(ledger) - covered;
            debug_assert_eq!(0, elsewhere, "{op}: charged {elsewhere} messages to foreign layers");
        }
    }

    /// Conservation audit, summed form: an operation reporting one flat
    /// message count (`total`) must have grown exactly the given `layers`
    /// by that amount, and nothing else. Compiled to nothing in release
    /// builds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on divergence, like
    /// [`LedgerSnapshot::debug_assert_layers`].
    pub fn debug_assert_sum(
        &self,
        ledger: &TrafficLedger,
        op: &str,
        total: u64,
        layers: &[TrafficLayer],
    ) {
        if cfg!(debug_assertions) {
            let delta: u64 = layers.iter().map(|&l| self.layer_delta(ledger, l)).sum();
            debug_assert_eq!(
                total, delta,
                "{op}: reported cost diverges from the summed ledger delta"
            );
            let elsewhere = self.total_delta(ledger) - delta;
            debug_assert_eq!(0, elsewhere, "{op}: charged {elsewhere} messages to foreign layers");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_spans_even_to_concentrated() {
        let even = LoadDistribution::of([5, 5, 5, 5]);
        assert!(even.gini.abs() < 1e-12, "even load must have Gini 0, got {}", even.gini);
        assert_eq!(even.max, 5.0);
        assert_eq!(even.mean, 5.0);
        // One node carries everything: G = (n-1)/n for n samples.
        let spike = LoadDistribution::of([0, 0, 0, 100]);
        assert!((spike.gini - 0.75).abs() < 1e-12, "got {}", spike.gini);
        // Known closed form: [1, 2, 3, 4] has G = 0.25.
        let ramp = LoadDistribution::of([1, 2, 3, 4]);
        assert!((ramp.gini - 0.25).abs() < 1e-12, "got {}", ramp.gini);
    }

    #[test]
    fn degenerate_samples_are_defined() {
        let empty = LoadDistribution::of([]);
        assert_eq!(empty, LoadDistribution { max: 0.0, mean: 0.0, gini: 0.0 });
        let zeros = LoadDistribution::of([0, 0, 0]);
        assert_eq!(zeros.gini, 0.0);
    }

    #[test]
    fn role_sets_compose() {
        let mut roles = RoleSet::empty();
        assert!(roles.is_empty());
        roles.insert(NodeRole::Index);
        roles.insert(NodeRole::Delegate);
        assert!(roles.contains(NodeRole::Index));
        assert!(!roles.contains(NodeRole::Splitter));
        assert_eq!(roles.labels(), vec!["index", "delegate"]);
    }

    #[test]
    fn report_slices_by_role_and_layer() {
        let mut ledger = TrafficLedger::new(4);
        ledger.charge_path(&[NodeId(0), NodeId(1)], TrafficLayer::Forward);
        ledger.charge_path(&[NodeId(1), NodeId(2)], TrafficLayer::Reply);
        ledger.charge_path(&[NodeId(2), NodeId(3)], TrafficLayer::Reply);
        let mut report = LoadReport::from_ledger(&ledger, 0.5);
        report.tag(NodeId(1), NodeRole::Delegate);
        report.tag(NodeId(2), NodeRole::Delegate);
        report.set_events_held(NodeId(3), 7);
        assert_eq!(report.role_layer_total(NodeRole::Delegate, TrafficLayer::Reply), 2);
        assert_eq!(report.role_layer_total(NodeRole::Delegate, TrafficLayer::Forward), 0);
        assert_eq!(report.storage_distribution().max, 7.0);
        let hottest = report.hottest(2);
        assert_eq!(hottest.len(), 2);
        assert!(hottest[0].messages >= hottest[1].messages);
        // Nodes 0, 1 and 2 each sent once, at 0.5 s of radio time apiece.
        assert_eq!(report.busy_distribution().max, 0.5);
    }

    #[test]
    fn snapshot_deltas_track_growth() {
        let mut ledger = TrafficLedger::new(3);
        ledger.charge_path(&[NodeId(0), NodeId(1)], TrafficLayer::Insert);
        let snap = LedgerSnapshot::of(&ledger);
        ledger.charge_path(&[NodeId(1), NodeId(2)], TrafficLayer::Forward);
        ledger.charge_hop(NodeId(2), NodeId(1), TrafficLayer::Retransmit);
        assert_eq!(snap.layer_delta(&ledger, TrafficLayer::Insert), 0);
        assert_eq!(snap.layer_delta(&ledger, TrafficLayer::Forward), 1);
        assert_eq!(snap.layer_delta(&ledger, TrafficLayer::Retransmit), 1);
        assert_eq!(snap.total_delta(&ledger), 2);
    }
}
