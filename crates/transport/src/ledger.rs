//! Per-layer message accounting.
//!
//! The paper's cost metric is a single number — radio messages — but the
//! experiments ask *where* those messages come from: insertion vs. query
//! forwarding vs. replies vs. replication vs. monitoring. [`TrafficLedger`]
//! counts every transmission once, by sender and by [`TrafficLayer`]: its
//! per-node rows are the only per-node send count, and every total is a sum
//! over them.

use pool_netsim::node::NodeId;

/// The protocol layer a message charge belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficLayer {
    /// Event insertion: source → index node, plus workload-sharing chains.
    Insert,
    /// Query dissemination: sink → splitters → index nodes → delegates.
    Forward,
    /// Query replies retracing forwarding legs back to the sink.
    Reply,
    /// Backup copies pushed to neighbors of index nodes.
    Replication,
    /// Standing-query installation and push notifications.
    Monitor,
    /// Post-failure migration and recovery traffic.
    Repair,
    /// ARQ retransmissions charged by a lossy link layer (every attempt
    /// after the first for a hop, regardless of which layer the first
    /// attempt was charged to).
    Retransmit,
}

impl TrafficLayer {
    /// All layers, in display order.
    pub const ALL: [TrafficLayer; 7] = [
        TrafficLayer::Insert,
        TrafficLayer::Forward,
        TrafficLayer::Reply,
        TrafficLayer::Replication,
        TrafficLayer::Monitor,
        TrafficLayer::Repair,
        TrafficLayer::Retransmit,
    ];

    /// Dense index into per-layer counter arrays.
    pub fn index(self) -> usize {
        match self {
            TrafficLayer::Insert => 0,
            TrafficLayer::Forward => 1,
            TrafficLayer::Reply => 2,
            TrafficLayer::Replication => 3,
            TrafficLayer::Monitor => 4,
            TrafficLayer::Repair => 5,
            TrafficLayer::Retransmit => 6,
        }
    }

    /// Stable lowercase name (used in reports and JSON snapshots).
    pub fn label(self) -> &'static str {
        match self {
            TrafficLayer::Insert => "insert",
            TrafficLayer::Forward => "forward",
            TrafficLayer::Reply => "reply",
            TrafficLayer::Replication => "replication",
            TrafficLayer::Monitor => "monitor",
            TrafficLayer::Repair => "repair",
            TrafficLayer::Retransmit => "retransmit",
        }
    }
}

/// Messages sent, per node and per [`TrafficLayer`].
///
/// Every radio transmission between two distinct nodes counts as one
/// message, charged to its sender and its layer through one of the
/// `charge_*` methods. A hop from a node to itself (several grid cells
/// mapped to the same sensor) needs no radio and stays free. Totals are
/// sums: [`TrafficLedger::total_messages`] over the layers,
/// [`TrafficLedger::node_load`] over one node's row.
///
/// # Examples
///
/// ```
/// use pool_netsim::node::NodeId;
/// use pool_transport::{TrafficLayer, TrafficLedger};
///
/// let mut ledger = TrafficLedger::new(4);
/// ledger.charge_path(&[NodeId(0), NodeId(1), NodeId(2)], TrafficLayer::Insert);
/// ledger.charge_hop(NodeId(2), NodeId(3), TrafficLayer::Replication);
/// assert_eq!(ledger.total_messages(), 3);
/// assert_eq!(ledger.layer_total(TrafficLayer::Insert), 2);
/// assert_eq!(ledger.layer_total(TrafficLayer::Replication), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficLedger {
    by_layer: [u64; TrafficLayer::ALL.len()],
    /// Sender-attributed load per node *and* layer: column `l` sums to
    /// `by_layer[l]`.
    node_layer: Vec<[u64; TrafficLayer::ALL.len()]>,
}

impl TrafficLedger {
    /// Creates a ledger for a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        TrafficLedger {
            by_layer: [0; TrafficLayer::ALL.len()],
            node_layer: vec![[0; TrafficLayer::ALL.len()]; n],
        }
    }

    /// Charges one transmission from `from` to `to` against `layer`.
    ///
    /// Returns the number of messages actually charged (0 for a self-hop,
    /// 1 otherwise).
    pub fn charge_hop(&mut self, from: NodeId, to: NodeId, layer: TrafficLayer) -> u64 {
        if from == to {
            return 0;
        }
        self.by_layer[layer.index()] += 1;
        self.node_layer[from.index()][layer.index()] += 1;
        1
    }

    /// Charges every hop along `path` against `layer`.
    ///
    /// Returns the number of messages actually charged — the non-self-hop
    /// pairs, which equals `path.len() - 1` whenever no grid cell aliases
    /// two positions onto the same node.
    pub fn charge_path(&mut self, path: &[NodeId], layer: TrafficLayer) -> u64 {
        let mut charged = 0;
        for w in path.windows(2) {
            charged += self.charge_hop(w[0], w[1], layer);
        }
        charged
    }

    /// Charges `copies` traversals of `path` in reverse order (reply
    /// retracing) against `layer`.
    ///
    /// Per-node load attribution differs from the forward direction: the
    /// reversed path charges each hop to its *new* sender. Returns the
    /// total messages charged across all copies.
    pub fn charge_path_reversed(
        &mut self,
        path: &[NodeId],
        copies: u64,
        layer: TrafficLayer,
    ) -> u64 {
        let mut charged = 0;
        for _ in 0..copies {
            for w in path.windows(2).rev() {
                charged += self.charge_hop(w[1], w[0], layer);
            }
        }
        charged
    }

    /// Total messages charged to `layer`.
    pub fn layer_total(&self, layer: TrafficLayer) -> u64 {
        self.by_layer[layer.index()]
    }

    /// `(layer, messages)` for every layer, in display order.
    pub fn by_layer(&self) -> [(TrafficLayer, u64); TrafficLayer::ALL.len()] {
        let mut out = [(TrafficLayer::Insert, 0); TrafficLayer::ALL.len()];
        for (slot, layer) in out.iter_mut().zip(TrafficLayer::ALL) {
            *slot = (layer, self.by_layer[layer.index()]);
        }
        out
    }

    /// Total messages across all layers.
    pub fn total_messages(&self) -> u64 {
        self.by_layer.iter().sum()
    }

    /// Number of nodes this ledger tracks.
    pub fn nodes(&self) -> usize {
        self.node_layer.len()
    }

    /// Sender-attributed load of `node` across all layers.
    pub fn node_load(&self, node: NodeId) -> u64 {
        self.node_layer[node.index()].iter().sum()
    }

    /// Every node's [`TrafficLedger::node_load`], in node order.
    pub fn node_loads(&self) -> Vec<u64> {
        self.node_layer.iter().map(|row| row.iter().sum()).collect()
    }

    /// Sender-attributed load of `node` on one `layer`.
    pub fn node_layer_load(&self, node: NodeId, layer: TrafficLayer) -> u64 {
        self.node_layer[node.index()][layer.index()]
    }

    /// The full per-layer breakdown of `node`'s sent messages, in
    /// [`TrafficLayer::ALL`] order.
    pub(crate) fn node_layers(&self, node: NodeId) -> &[u64; TrafficLayer::ALL.len()] {
        &self.node_layer[node.index()]
    }

    /// Adds all counts from `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two ledgers track networks of different sizes.
    pub fn merge(&mut self, other: &TrafficLedger) {
        assert_eq!(
            self.node_layer.len(),
            other.node_layer.len(),
            "cannot merge ledgers of different network sizes"
        );
        for (a, b) in self.by_layer.iter_mut().zip(&other.by_layer) {
            *a += *b;
        }
        for (row, other_row) in self.node_layer.iter_mut().zip(&other.node_layer) {
            for (a, b) in row.iter_mut().zip(other_row) {
                *a += *b;
            }
        }
    }

    /// Grows the ledger to track `n` nodes (joiners get zeroed rows);
    /// totals and existing per-node history are untouched. A no-op when
    /// the ledger already covers `n` nodes.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.node_layer.len() {
            self.node_layer.resize(n, [0; TrafficLayer::ALL.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_partition_the_total() {
        let mut ledger = TrafficLedger::new(5);
        ledger.charge_path(&[NodeId(0), NodeId(1), NodeId(2)], TrafficLayer::Insert);
        ledger.charge_path(&[NodeId(2), NodeId(3)], TrafficLayer::Forward);
        ledger.charge_path_reversed(&[NodeId(2), NodeId(3)], 2, TrafficLayer::Reply);
        let layered: u64 = ledger.by_layer().iter().map(|(_, n)| n).sum();
        assert_eq!(layered, ledger.total_messages());
        assert_eq!(ledger.layer_total(TrafficLayer::Reply), 2);
    }

    #[test]
    fn self_hops_stay_free() {
        let mut ledger = TrafficLedger::new(3);
        assert_eq!(ledger.charge_hop(NodeId(1), NodeId(1), TrafficLayer::Insert), 0);
        assert_eq!(ledger.charge_path(&[NodeId(0), NodeId(0), NodeId(1)], TrafficLayer::Insert), 1);
        assert_eq!(ledger.total_messages(), 1);
    }

    #[test]
    fn reversed_charge_attributes_load_to_new_senders() {
        let mut ledger = TrafficLedger::new(3);
        ledger.charge_path_reversed(&[NodeId(0), NodeId(1), NodeId(2)], 1, TrafficLayer::Reply);
        // The reply travels 2 → 1 → 0, so nodes 2 and 1 each sent once.
        assert_eq!(ledger.node_loads(), vec![0, 1, 1]);
    }

    /// Oracle: a reversed charge is the forward charge of the reversed
    /// path, per node and per layer — self-hops, revisits and zero copies
    /// included.
    #[test]
    fn reversed_charge_equals_charging_the_reversed_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1ed9e4);
        let mut new = TrafficLedger::new(10);
        let mut old = TrafficLedger::new(10);
        for case in 0..300u64 {
            let len = rng.gen_range(1..=8usize);
            let path: Vec<NodeId> = (0..len).map(|_| NodeId(rng.gen_range(0..10u32))).collect();
            let layer = TrafficLayer::ALL[rng.gen_range(0..TrafficLayer::ALL.len())];
            let copies = case % 4;
            let back: Vec<NodeId> = path.iter().rev().copied().collect();
            let want: u64 = (0..copies).map(|_| old.charge_path(&back, layer)).sum();
            assert_eq!(new.charge_path_reversed(&path, copies, layer), want, "{path:?}");
            assert_eq!(new, old, "case {case}: {copies} x {path:?}");
        }
        assert!(new.total_messages() > 0);
    }

    #[test]
    fn node_layer_matrix_is_consistent_with_both_margins() {
        let mut ledger = TrafficLedger::new(4);
        ledger.charge_path(&[NodeId(0), NodeId(1), NodeId(2)], TrafficLayer::Insert);
        ledger.charge_path_reversed(&[NodeId(1), NodeId(2)], 3, TrafficLayer::Reply);
        ledger.charge_hop(NodeId(1), NodeId(3), TrafficLayer::Repair);
        // Row sums are the per-node sends; column sums reproduce per-layer
        // totals.
        assert_eq!(ledger.node_loads(), vec![1, 2, 3, 0]);
        for layer in TrafficLayer::ALL {
            let col: u64 = (0..4u32).map(|n| ledger.node_layer_load(NodeId(n), layer)).sum();
            assert_eq!(col, ledger.layer_total(layer), "{}", layer.label());
        }
        // Reverse charges attribute to the new senders: node 2 sent the
        // three reply copies.
        assert_eq!(ledger.node_layer_load(NodeId(2), TrafficLayer::Reply), 3);
        assert_eq!(ledger.node_layer_load(NodeId(1), TrafficLayer::Reply), 0);
    }

    #[test]
    fn hops_and_paths_accumulate() {
        let mut ledger = TrafficLedger::new(3);
        // 0 → 1 → 2 → 1: a revisit charges node 1 only for the hop it sends.
        ledger.charge_path(&[NodeId(0), NodeId(1), NodeId(2), NodeId(1)], TrafficLayer::Forward);
        assert_eq!(ledger.total_messages(), 3);
        assert_eq!(ledger.node_load(NodeId(1)), 1);
        assert_eq!(ledger.node_load(NodeId(2)), 1);
        assert_eq!(ledger.node_loads().into_iter().max(), Some(1));
    }

    #[test]
    fn self_hops_are_free_when_reversed() {
        let mut ledger = TrafficLedger::new(2);
        assert_eq!(ledger.charge_path_reversed(&[NodeId(0), NodeId(0)], 3, TrafficLayer::Reply), 0);
        assert_eq!(ledger.total_messages(), 0);
        assert_eq!(ledger.node_loads(), vec![0, 0]);
    }

    #[test]
    fn merge_into_empty_round_trips() {
        let mut a = TrafficLedger::new(3);
        a.charge_path(&[NodeId(0), NodeId(1), NodeId(2)], TrafficLayer::Insert);
        a.charge_hop(NodeId(2), NodeId(0), TrafficLayer::Repair);
        let mut empty = TrafficLedger::new(3);
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = TrafficLedger::new(2);
        a.charge_hop(NodeId(0), NodeId(1), TrafficLayer::Monitor);
        let mut b = TrafficLedger::new(2);
        b.charge_hop(NodeId(1), NodeId(0), TrafficLayer::Repair);
        b.charge_hop(NodeId(0), NodeId(1), TrafficLayer::Monitor);
        a.merge(&b);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(a.layer_total(TrafficLayer::Monitor), 2);
        assert_eq!(a.layer_total(TrafficLayer::Repair), 1);
        assert_eq!(a.node_loads(), vec![2, 1]);
        assert_eq!(a.node_layer_load(NodeId(1), TrafficLayer::Repair), 1);
    }

    #[test]
    #[should_panic(expected = "different network sizes")]
    fn merge_rejects_size_mismatch() {
        let mut a = TrafficLedger::new(2);
        a.merge(&TrafficLedger::new(3));
    }

    #[test]
    fn grow_to_preserves_history() {
        let mut ledger = TrafficLedger::new(2);
        ledger.charge_hop(NodeId(0), NodeId(1), TrafficLayer::Insert);
        ledger.grow_to(4);
        ledger.grow_to(1); // no-op: never shrinks
        assert_eq!(ledger.nodes(), 4);
        assert_eq!(ledger.node_loads(), vec![1, 0, 0, 0]);
        ledger.charge_hop(NodeId(3), NodeId(0), TrafficLayer::Repair);
        assert_eq!(ledger.node_load(NodeId(3)), 1);
        assert_eq!(ledger.total_messages(), 2);
    }
}
