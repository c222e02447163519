//! In-network event storage: which node holds which events of which cell.
//!
//! Each pool cell's events live at its index node by default; when workload
//! sharing (§4.2) is active, overflow events live at delegate nodes chained
//! off the index node. The store tracks the holder of every event so query
//! processing can charge the extra delegate hops and hotspot experiments can
//! measure per-node storage load.

use crate::event::Event;
use crate::grid::CellCoord;
use pool_netsim::node::NodeId;
use std::collections::HashMap;

/// Which node holds an event's backup copy, if any: an `Option<NodeId>`
/// packed into four bytes, so that a [`StoredEvent`] stays 24 bytes (a
/// 16-byte [`Event`] handle, the holder and the slot) — the store is most
/// of a loaded system's heap. (`u32::MAX` stands for "none"; no deployment
/// comes near that many nodes.)
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BackupSlot(u32);

impl BackupSlot {
    /// No backup copy.
    pub const NONE: BackupSlot = BackupSlot(u32::MAX);

    /// The node holding the backup copy, if there is one.
    pub fn get(self) -> Option<NodeId> {
        (self != Self::NONE).then_some(NodeId(self.0))
    }
}

impl From<Option<NodeId>> for BackupSlot {
    fn from(at: Option<NodeId>) -> Self {
        debug_assert_ne!(at, Some(NodeId(u32::MAX)), "node id collides with the empty slot");
        at.map_or(Self::NONE, |node| BackupSlot(node.0))
    }
}

impl std::fmt::Debug for BackupSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// A stored event together with the node that physically holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEvent {
    /// The event payload.
    pub event: Event,
    /// The sensor node holding this copy.
    pub holder: NodeId,
    /// The neighbor of the index node holding this event's backup copy
    /// (none without replication, or while a re-backup is pending).
    pub backup: BackupSlot,
}

/// Event storage across all pool cells.
#[derive(Debug, Clone, Default)]
pub struct CellStore {
    by_cell: HashMap<CellCoord, Vec<StoredEvent>>,
    count_by_node: HashMap<NodeId, usize>,
    total: usize,
}

impl CellStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        CellStore::default()
    }

    /// Records an already-assembled `stored` event (holder and backup
    /// known) in `cell`.
    pub(crate) fn insert_stored(&mut self, cell: CellCoord, stored: StoredEvent) {
        *self.count_by_node.entry(stored.holder).or_insert(0) += 1;
        self.total += 1;
        self.by_cell.entry(cell).or_default().push(stored);
    }

    /// The events stored in `cell` (empty slice if none).
    pub fn events_in(&self, cell: CellCoord) -> &[StoredEvent] {
        self.by_cell.get(&cell).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of events held by `node`.
    pub fn count_at(&self, node: NodeId) -> usize {
        self.count_by_node.get(&node).copied().unwrap_or(0)
    }

    /// Total number of stored events.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The largest per-node storage load (hotspot indicator).
    pub fn max_node_load(&self) -> usize {
        self.count_by_node.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct nodes holding at least one event.
    pub fn loaded_nodes(&self) -> usize {
        self.count_by_node.values().filter(|&&c| c > 0).count()
    }

    /// The cells holding at least one event, in coordinate order.
    pub(crate) fn occupied_cells(&self) -> Vec<CellCoord> {
        let mut cells: Vec<CellCoord> = self.by_cell.keys().copied().collect();
        cells.sort_unstable();
        cells
    }

    /// Takes every event out of `cell`, in stored order; the per-node
    /// counts forget them.
    pub(crate) fn take_cell(&mut self, cell: CellCoord) -> Vec<StoredEvent> {
        let stored = self.by_cell.remove(&cell).unwrap_or_default();
        for s in &stored {
            if let Some(count) = self.count_by_node.get_mut(&s.holder) {
                *count -= 1;
                if *count == 0 {
                    self.count_by_node.remove(&s.holder);
                }
            }
        }
        self.total -= stored.len();
        stored
    }

    /// Where the backup of each event stored in `cell` sits, for writing
    /// (stored order). Payloads and holders stay read-only, so the
    /// per-node counts cannot drift.
    pub(crate) fn backups_in_mut(
        &mut self,
        cell: CellCoord,
    ) -> impl Iterator<Item = (&Event, &mut BackupSlot)> {
        self.by_cell.get_mut(&cell).into_iter().flatten().map(|s| (&s.event, &mut s.backup))
    }

    /// Iterates over all `(cell, stored events)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&CellCoord, &[StoredEvent])> {
        self.by_cell.iter().map(|(c, v)| (c, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(v: &[f64]) -> Event {
        Event::new(v.to_vec()).unwrap()
    }

    fn put(store: &mut CellStore, cell: CellCoord, event: Event, holder: NodeId) {
        store.insert_stored(cell, StoredEvent { event, holder, backup: BackupSlot::NONE });
    }

    #[test]
    fn insert_and_lookup() {
        let mut store = CellStore::new();
        let cell = CellCoord::new(3, 4);
        put(&mut store, cell, ev(&[0.4, 0.3, 0.1]), NodeId(7));
        assert_eq!(store.len(), 1);
        assert_eq!(store.events_in(cell).len(), 1);
        assert_eq!(store.events_in(cell)[0].holder, NodeId(7));
        assert!(store.events_in(CellCoord::new(0, 0)).is_empty());
    }

    /// The point of [`BackupSlot`]: carrying the backup holder costs a
    /// stored event no space (the four bytes were padding).
    #[test]
    fn backup_slot_round_trips_and_keeps_stored_events_at_24_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::size_of::<StoredEvent>(), 24);
        assert_eq!(BackupSlot::NONE.get(), None);
        assert_eq!(BackupSlot::from(None), BackupSlot::NONE);
        for id in [0, 7, u32::MAX - 1] {
            assert_eq!(BackupSlot::from(Some(NodeId(id))).get(), Some(NodeId(id)));
        }
    }

    #[test]
    fn per_node_counts() {
        let mut store = CellStore::new();
        put(&mut store, CellCoord::new(0, 0), ev(&[0.1, 0.2]), NodeId(1));
        put(&mut store, CellCoord::new(0, 1), ev(&[0.2, 0.1]), NodeId(1));
        put(&mut store, CellCoord::new(0, 2), ev(&[0.3, 0.1]), NodeId(2));
        assert_eq!(store.count_at(NodeId(1)), 2);
        assert_eq!(store.count_at(NodeId(2)), 1);
        assert_eq!(store.count_at(NodeId(3)), 0);
        assert_eq!(store.max_node_load(), 2);
        assert_eq!(store.loaded_nodes(), 2);
    }

    #[test]
    fn multiple_events_per_cell_keep_order() {
        let mut store = CellStore::new();
        let cell = CellCoord::new(5, 5);
        put(&mut store, cell, ev(&[0.5, 0.1]), NodeId(1));
        put(&mut store, cell, ev(&[0.6, 0.2]), NodeId(2));
        let events = store.events_in(cell);
        assert_eq!(events[0].event.values(), &[0.5, 0.1]);
        assert_eq!(events[1].event.values(), &[0.6, 0.2]);
    }

    #[test]
    fn iter_visits_everything() {
        let mut store = CellStore::new();
        put(&mut store, CellCoord::new(0, 0), ev(&[0.1, 0.2]), NodeId(1));
        put(&mut store, CellCoord::new(1, 1), ev(&[0.2, 0.1]), NodeId(2));
        let total: usize = store.iter().map(|(_, evs)| evs.len()).sum();
        assert_eq!(total, 2);
    }
}
