//! A simple radio energy model.
//!
//! The paper motivates Pool by energy efficiency: fewer messages mean less
//! energy drawn from sensor batteries. This module converts per-node send
//! and receive counts into joules using a first-order radio model (cost per
//! transmitted and received message) so experiments can also report energy
//! and estimated network lifetime, and so the workload-sharing mechanism can
//! decide when an index node's "remaining resource is below a certain
//! threshold" (§4.2).

use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// First-order radio energy model: a fixed energy cost per message sent and
/// per message received.
///
/// Defaults follow the common first-order model used in the WSN literature
/// (50 nJ/bit electronics at both ends plus amplifier cost, for a nominal
/// 1 kbit message at 40 m): roughly 100 µJ to transmit and 50 µJ to receive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy to transmit one message, in joules.
    pub tx_cost: f64,
    /// Energy to receive one message, in joules.
    pub rx_cost: f64,
}

impl EnergyModel {
    /// Creates a model with the given per-message costs (joules).
    ///
    /// # Panics
    ///
    /// Panics if either cost is negative or not finite.
    pub fn new(tx_cost: f64, rx_cost: f64) -> Self {
        assert!(tx_cost.is_finite() && tx_cost >= 0.0, "invalid tx cost {tx_cost}");
        assert!(rx_cost.is_finite() && rx_cost >= 0.0, "invalid rx cost {rx_cost}");
        EnergyModel { tx_cost, rx_cost }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel { tx_cost: 100e-6, rx_cost: 50e-6 }
    }
}

/// Tracks the remaining battery energy of every node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyLedger {
    model: EnergyModel,
    capacity: f64,
    remaining: Vec<f64>,
}

impl EnergyLedger {
    /// Creates a ledger for `n` nodes, each starting with `capacity` joules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive and finite.
    pub fn new(n: usize, capacity: f64, model: EnergyModel) -> Self {
        assert!(capacity.is_finite() && capacity > 0.0, "invalid battery capacity {capacity}");
        EnergyLedger { model, capacity, remaining: vec![capacity; n] }
    }

    /// Charges one transmitted message to `from` and one received message to
    /// `to`. Self-hops are free (no radio involved).
    pub fn charge_hop(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        self.remaining[from.index()] = (self.remaining[from.index()] - self.model.tx_cost).max(0.0);
        self.remaining[to.index()] = (self.remaining[to.index()] - self.model.rx_cost).max(0.0);
    }

    /// Charges exact per-node transmit and receive counts, in node order
    /// (retransmissions included: the transport's message ledger counts
    /// every attempt at its sender, its virtual clock at its receiver).
    ///
    /// # Panics
    ///
    /// Panics if the count slices disagree with the ledger's node count.
    pub fn charge_counts(&mut self, tx: &[u64], rx: &[u64]) {
        assert_eq!(tx.len(), self.remaining.len(), "tx counts for a different network size");
        assert_eq!(rx.len(), self.remaining.len(), "rx counts for a different network size");
        for (i, (&sent, &received)) in tx.iter().zip(rx).enumerate() {
            let drain = sent as f64 * self.model.tx_cost + received as f64 * self.model.rx_cost;
            self.remaining[i] = (self.remaining[i] - drain).max(0.0);
        }
    }

    /// Remaining energy of node `id` in joules.
    pub fn remaining(&self, id: NodeId) -> f64 {
        self.remaining[id.index()]
    }

    /// Whether `id`'s remaining energy, as a fraction of initial capacity,
    /// is at or below `threshold` — the trigger condition of the paper's
    /// workload-sharing mechanism.
    pub fn is_depleted_below(&self, id: NodeId, threshold: f64) -> bool {
        self.remaining(id) / self.capacity <= threshold
    }

    /// The minimum remaining fraction over all nodes (the first node to die
    /// determines "network lifetime" in many WSN studies).
    pub fn min_remaining_fraction(&self) -> f64 {
        let min = self.remaining.iter().copied().fold(f64::INFINITY, f64::min);
        min / self.capacity
    }

    /// Grows the ledger to `n` nodes; joiners start with a full battery.
    /// A no-op when the ledger already covers `n` nodes.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.remaining.len() {
            self.remaining.resize(n, self.capacity);
        }
    }

    /// The nodes whose batteries are exhausted (remaining energy is zero),
    /// in ascending id order — the energy-driven death set of a churn epoch.
    pub fn depleted_nodes(&self) -> Vec<NodeId> {
        self.remaining
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r <= 0.0)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_sane() {
        let m = EnergyModel::default();
        assert!(m.tx_cost > m.rx_cost);
    }

    #[test]
    fn charge_hop_decrements_both_ends() {
        let mut ledger = EnergyLedger::new(2, 1.0, EnergyModel::new(0.1, 0.05));
        ledger.charge_hop(NodeId(0), NodeId(1));
        assert!((ledger.remaining(NodeId(0)) - 0.9).abs() < 1e-12);
        assert!((ledger.remaining(NodeId(1)) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn self_hop_costs_nothing() {
        let mut ledger = EnergyLedger::new(1, 1.0, EnergyModel::default());
        ledger.charge_hop(NodeId(0), NodeId(0));
        assert_eq!(ledger.remaining(NodeId(0)), 1.0);
    }

    #[test]
    fn energy_never_goes_negative() {
        let mut ledger = EnergyLedger::new(2, 0.01, EnergyModel::new(1.0, 1.0));
        ledger.charge_hop(NodeId(0), NodeId(1));
        assert_eq!(ledger.remaining(NodeId(0)), 0.0);
    }

    #[test]
    fn depletion_threshold() {
        let mut ledger = EnergyLedger::new(2, 1.0, EnergyModel::new(0.3, 0.0));
        assert!(!ledger.is_depleted_below(NodeId(0), 0.5));
        ledger.charge_hop(NodeId(0), NodeId(1));
        ledger.charge_hop(NodeId(0), NodeId(1));
        assert!(ledger.is_depleted_below(NodeId(0), 0.5));
        assert!((ledger.min_remaining_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn charge_counts_bills_both_ends() {
        let mut ledger = EnergyLedger::new(3, 1.0, EnergyModel::new(0.1, 0.05));
        // Node 0 sent 2 (one was a retransmission), node 1 relayed 1;
        // node 1 heard 2, node 2 heard 1.
        ledger.charge_counts(&[2, 1, 0], &[0, 2, 1]);
        assert!((ledger.remaining(NodeId(0)) - 0.8).abs() < 1e-12);
        assert!((ledger.remaining(NodeId(1)) - 0.8).abs() < 1e-12);
        assert!((ledger.remaining(NodeId(2)) - 0.95).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different network size")]
    fn charge_counts_rejects_size_mismatch() {
        let mut ledger = EnergyLedger::new(2, 1.0, EnergyModel::default());
        ledger.charge_counts(&[1], &[1]);
    }

    #[test]
    #[should_panic(expected = "invalid battery capacity")]
    fn rejects_bad_capacity() {
        let _ = EnergyLedger::new(1, 0.0, EnergyModel::default());
    }

    #[test]
    fn grow_to_appends_full_batteries() {
        let mut ledger = EnergyLedger::new(2, 1.0, EnergyModel::new(0.4, 0.0));
        ledger.charge_hop(NodeId(0), NodeId(1));
        ledger.grow_to(4);
        ledger.grow_to(3); // no-op: never shrinks
        assert!((ledger.remaining(NodeId(0)) - 0.6).abs() < 1e-12);
        assert_eq!(ledger.remaining(NodeId(2)), 1.0);
        assert_eq!(ledger.remaining(NodeId(3)), 1.0);
        ledger.charge_counts(&[0; 4], &[0; 4]); // sized for the grown network
    }

    #[test]
    fn depleted_nodes_lists_dead_batteries_in_order() {
        let mut ledger = EnergyLedger::new(3, 0.5, EnergyModel::new(1.0, 1.0));
        assert!(ledger.depleted_nodes().is_empty());
        ledger.charge_hop(NodeId(2), NodeId(0));
        assert_eq!(ledger.depleted_nodes(), vec![NodeId(0), NodeId(2)]);
    }
}
