//! Unit-disk network topology: neighbor tables and spatial queries.
//!
//! A [`Topology`] is built once from a node list and a radio range. It
//! provides the neighbor tables that every node in the paper maintains "via
//! periodic exchange of beacon messages" (§2), plus the spatial queries the
//! storage schemes need (nearest node to a location, connectivity checks).
//!
//! Neighbor computation uses a spatial hash bucketed at the radio range, so
//! building is `O(n · expected-degree)` rather than `O(n²)`.
//!
//! # Layout
//!
//! Node records live in one array in *storage order*: the Hilbert-curve
//! order of the deployed positions (a 16-bit key per axis over the bounding
//! box, ties broken by id), with joiners appended in the order they join.
//! Ids follow deployment order, which is spatially random; storage order
//! puts radio neighbors a few records apart, so a greedy step, a planar row
//! or an adjacency test reads a few nearby cache lines instead of ~20
//! scattered ones. One `slot_of` array (a `u32` per node) maps a [`NodeId`]
//! to its storage slot, and every record keeps its own id, so the map runs
//! both ways without a second array — and every position is stored once.
//!
//! Storage order is not observable. Every accessor takes and returns ids:
//! [`Topology::nodes`] presents the nodes in id order, neighbor rows hold
//! ids ascending, and every tie breaks toward the lower id.
//!
//! Both the adjacency and the spatial hash are flat CSR
//! (compressed-sparse-row) arenas over storage slots: one `offsets` array
//! indexing into one contiguous payload array. Per-row `Vec`s would cost an
//! allocation and a pointer chase per node, which dominates once
//! deployments reach 10⁵ nodes. Liveness flags are indexed by id.
//!
//! Every arena — the node records, both CSR arrays, the slot map, the
//! liveness flags and the dense grid — sits behind its own `Arc`, so a
//! clone shares every arena and costs `O(1)`: a DIM system, a detour or a
//! churned snapshot built over a clone of a 100k-node topology shares its
//! ~11 MiB of arenas instead of copying them. Only the mutation overlay
//! (below) and the scalars are owned, and a compacted topology's overlay
//! is empty — unless its extent is so sparse that the grid keeps its
//! cells in the overlay map (see `SpatialGrid`), which a clone then
//! copies.
//!
//! # Mutation
//!
//! Churn does not rebuild the arenas. The in-place mutators
//! ([`Topology::fail_nodes`], [`Topology::add_node`],
//! [`Topology::move_node`]) copy only the touched rows into a small
//! *overlay* (`O(degree)` per event), which [`Topology::compact`] folds
//! back into the flat arenas — callers compact once per churn epoch, and
//! get back the ids of the rows the epoch wrote. A joiner takes the next
//! slot and a mover keeps its own; compaction never re-sorts, so storage
//! order drifts from the curve only by what churn added.
//!
//! Every write to an arena goes through `Arc::make_mut`, so sharing is
//! invisible: the first write after a clone copies exactly the arenas it
//! touches (a death the liveness flags; a move the node records; a join
//! those, the slot map and the CSR offsets), later writes are in place,
//! and no clone ever observes another's writes. The adjacency links and
//! the grid are never written in place — the overlay takes their writes
//! and compaction builds fresh ones — so no mutator copies them.
//! `tests/topology_sharing.rs` checks the isolation against never-shared
//! replays, and `pool-dim`'s `tests/topology_clone_allocs.rs` pins what a
//! clone and its first write allocate.
//!
//! Connectivity is decided once per snapshot: the first
//! [`Topology::largest_component`] (and so [`Topology::is_connected`] and
//! [`Topology::require_connected`]) runs the BFS and keeps its answer,
//! which each of the four mutators drops and a clone copies. Every system
//! build checks connectivity, so builds over one snapshot share one BFS;
//! `tests/connectivity_memo.rs` pins the rule.
//!
//! # Determinism
//!
//! Every spatial-hash bucket holds its members' slots in ascending order —
//! at build time, after every mutation, and after every compaction. Bucket
//! order is not observable through the public API (ties are broken by id,
//! range queries sort their output), but pinning it means a future change
//! to neighbor discovery cannot silently reorder results.

use crate::error::NetsimError;
use crate::geometry::{Point, Rect, COINCIDENT_SQ};
use crate::node::{Node, NodeId};
use std::collections::HashMap;
use std::ops::Index;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Sentinel in `row_patch`: the row lives in the flat CSR arena.
const UNPATCHED: u32 = u32::MAX;

/// Flat spatial hash: a dense `w × h` grid of cells in CSR form, plus a
/// `patched` overlay for cells touched since the last compaction (and for
/// cells outside the dense extent). A lookup consults the overlay first.
/// Cells hold storage slots.
///
/// Degenerate deployments whose bounding box is far larger than the node
/// count (two clusters a continent apart) would make the dense grid
/// quadratic in wasted cells; `build` detects that and keeps every
/// occupied cell in the overlay map instead.
///
/// The dense arenas are shared between clones and never written in place:
/// mutation goes to the overlay, and compaction builds fresh ones.
#[derive(Debug, Clone, Default)]
struct SpatialGrid {
    min_bx: i64,
    min_by: i64,
    w: i64,
    h: i64,
    offsets: Arc<Vec<u32>>,
    slots: Arc<Vec<u32>>,
    patched: HashMap<(i64, i64), Vec<u32>>,
}

impl SpatialGrid {
    fn cell_index(&self, key: (i64, i64)) -> Option<usize> {
        let cx = key.0 - self.min_bx;
        let cy = key.1 - self.min_by;
        if cx < 0 || cy < 0 || cx >= self.w || cy >= self.h {
            return None;
        }
        Some((cy * self.w + cx) as usize)
    }

    /// Member slots of the bucket at `key`, ascending; empty if unoccupied.
    fn bucket(&self, key: (i64, i64)) -> &[u32] {
        if let Some(slots) = self.patched.get(&key) {
            return slots;
        }
        match self.cell_index(key) {
            Some(i) => &self.slots[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            None => &[],
        }
    }

    /// The bucket at `key` as a mutable overlay row (copied out of the
    /// dense grid on first touch). Callers must keep it sorted.
    fn bucket_mut(&mut self, key: (i64, i64)) -> &mut Vec<u32> {
        if !self.patched.contains_key(&key) {
            let current: Vec<u32> = match self.cell_index(key) {
                Some(i) => {
                    self.slots[self.offsets[i] as usize..self.offsets[i + 1] as usize].to_vec()
                }
                None => Vec::new(),
            };
            self.patched.insert(key, current);
        }
        self.patched.get_mut(&key).expect("just inserted")
    }

    /// The grid of the live nodes (visited in storage order, so every cell
    /// comes out slot-sorted), with an empty overlay.
    fn build(nodes: &[Node], alive: &[bool], bucket_size: f64) -> SpatialGrid {
        let mut grid = SpatialGrid::default();
        let live = || {
            nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| alive[n.id.index()])
                .map(|(slot, n)| (slot as u32, bucket_key(n.position, bucket_size)))
        };
        let mut keys = live().map(|(_, key)| key);
        let Some(first) = keys.next() else {
            // Nothing alive: an empty grid answers every lookup with an
            // empty bucket.
            return grid;
        };
        let (mut min_bx, mut min_by) = first;
        let (mut max_bx, mut max_by) = first;
        for (bx, by) in keys {
            min_bx = min_bx.min(bx);
            min_by = min_by.min(by);
            max_bx = max_bx.max(bx);
            max_by = max_by.max(by);
        }
        let w = max_bx - min_bx + 1;
        let h = max_by - min_by + 1;
        let cells = (w as i128) * (h as i128);
        let live_count = alive.iter().filter(|&&a| a).count();
        if cells > (4 * live_count + 64) as i128 {
            // Pathologically sparse extent: keep occupied cells in the map.
            for (slot, key) in live() {
                grid.patched.entry(key).or_default().push(slot);
            }
            return grid;
        }
        (grid.min_bx, grid.min_by, grid.w, grid.h) = (min_bx, min_by, w, h);
        let mut counts = vec![0u32; cells as usize + 1];
        for (_, key) in live() {
            counts[grid.cell_index(key).expect("in extent") + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut slots = vec![0; counts[counts.len() - 1] as usize];
        let mut cursor = counts.clone();
        for (slot, key) in live() {
            let i = grid.cell_index(key).expect("in extent");
            slots[cursor[i] as usize] = slot;
            cursor[i] += 1;
        }
        grid.slots = Arc::new(slots);
        grid.offsets = Arc::new(counts);
        grid
    }
}

/// An immutable unit-disk graph over a set of deployed nodes.
///
/// # Examples
///
/// ```
/// use pool_netsim::deployment::{Deployment, Placement};
/// use pool_netsim::geometry::Rect;
/// use pool_netsim::topology::Topology;
///
/// let nodes = Deployment::new(Rect::square(100.0), 60, Placement::Uniform, 1).nodes();
/// let topo = Topology::build(nodes, 25.0).unwrap();
/// let some_node = topo.nodes()[0].id;
/// for &nb in topo.neighbors(some_node) {
///     assert!(topo.distance(some_node, nb) <= 25.0);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    /// Node records in storage order (see the module docs). This and every
    /// other `Arc`'d arena is shared by clones and copied by its first
    /// write (see "Mutation" in the module docs).
    nodes: Arc<Vec<Node>>,
    radio_range: f64,
    /// CSR adjacency: the neighbor row of the node in slot `s` is
    /// `adj_links[adj_offsets[s]..adj_offsets[s + 1]]`, ascending by id —
    /// unless the row is overlaid (`row_patch[s] != UNPATCHED`), in which
    /// case it lives in `patch_rows[row_patch[s]]`. `row_patch` is empty
    /// while nothing is overlaid, so a compacted topology carries no
    /// overlay index and a lookup reads no flag.
    adj_offsets: Arc<Vec<u32>>,
    adj_links: Arc<Vec<NodeId>>,
    /// The storage slot of each node, indexed by id.
    slot_of: Arc<Vec<u32>>,
    row_patch: Vec<u32>,
    patch_rows: Vec<Vec<NodeId>>,
    grid: SpatialGrid,
    bucket_size: f64,
    bounds: Rect,
    /// Liveness flags, indexed by id: failed nodes keep their id and
    /// position (so bookkeeping stays dense) but vanish from neighbor
    /// tables, spatial queries, and connectivity.
    alive: Arc<Vec<bool>>,
    /// Whether two radio neighbours were ever closer than [`COINCIDENT_SQ`]
    /// (see [`Topology::has_coincident_nodes`]).
    coincident: bool,
    /// [`Topology::largest_component`], once asked, for this snapshot:
    /// every mutator forgets it, and a clone copies it.
    largest: ComponentMemo,
}

/// A memoised component size, [`ComponentMemo::UNASKED`] until asked. A
/// `u32` fits the padding beside `Topology::coincident`, so the memo does
/// not grow the struct; a 16-byte `OnceLock<usize>` grew it from 240 to 256
/// bytes, and `pool_hot_10k`, which never asks, then ran at 0.80–0.88× the
/// inserts and queries per second of the smaller layout (alternating
/// benchmark pairs, 2-vCPU host). Two threads asking at once both search
/// and store the same answer; a size of `u32::MAX` or more is never kept.
#[derive(Debug)]
struct ComponentMemo(AtomicU32);

impl ComponentMemo {
    const UNASKED: u32 = u32::MAX;

    fn new() -> Self {
        ComponentMemo(AtomicU32::new(Self::UNASKED))
    }

    fn get(&self) -> Option<usize> {
        let size = self.0.load(Ordering::Relaxed);
        (size != Self::UNASKED).then_some(size as usize)
    }

    fn set(&self, size: usize) {
        self.0.store(u32::try_from(size).unwrap_or(Self::UNASKED), Ordering::Relaxed);
    }

    fn forget(&mut self) {
        *self.0.get_mut() = Self::UNASKED;
    }
}

impl Clone for ComponentMemo {
    fn clone(&self) -> Self {
        ComponentMemo(AtomicU32::new(self.0.load(Ordering::Relaxed)))
    }
}

impl Topology {
    /// Builds the unit-disk topology for `nodes` with the given radio range.
    /// The ids must be `0..nodes.len()`, in any order.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::EmptyDeployment`] if `nodes` is empty,
    /// [`NetsimError::InvalidRadioRange`] if the range is not positive and
    /// finite, and [`NetsimError::UnknownNode`] or
    /// [`NetsimError::DuplicateNode`] if the ids are not `0..nodes.len()`.
    pub fn build(mut nodes: Vec<Node>, radio_range: f64) -> Result<Self, NetsimError> {
        if nodes.is_empty() {
            return Err(NetsimError::EmptyDeployment);
        }
        if !(radio_range.is_finite() && radio_range > 0.0) {
            return Err(NetsimError::InvalidRadioRange { range: radio_range });
        }
        let n = nodes.len();
        let mut min = nodes[0].position;
        let mut max = nodes[0].position;
        for node in &nodes {
            min.x = min.x.min(node.position.x);
            min.y = min.y.min(node.position.y);
            max.x = max.x.max(node.position.x);
            max.y = max.y.max(node.position.y);
        }
        let bounds = Rect::new(min, max);
        // Storage order, computed in buffers the topology keeps: `slot_of`
        // first holds each input node's Hilbert key, `order` the input
        // indices sorted by (key, id), along whose cycles the nodes then
        // move in place (a visited entry is overwritten with `u32::MAX`);
        // `order` becomes the CSR offsets below. A sort buffer freed
        // mid-build shifted the allocator's later layout enough to raise a
        // 100k-node DIM run's peak RSS by ~4 MiB.
        let mut slot_of: Vec<u32> =
            nodes.iter().map(|node| hilbert_key(node.position, bounds)).collect();
        let mut order: Vec<u32> = Vec::with_capacity(n + 1);
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&i| (slot_of[i as usize], nodes[i as usize].id));
        for start in 0..n {
            if order[start] == u32::MAX {
                continue;
            }
            let first = nodes[start];
            let mut slot = start;
            loop {
                let from = std::mem::replace(&mut order[slot], u32::MAX) as usize;
                if from == start {
                    nodes[slot] = first;
                    break;
                }
                nodes[slot] = nodes[from];
                slot = from;
            }
        }
        slot_of.fill(u32::MAX);
        for (slot, node) in nodes.iter().enumerate() {
            let Some(entry) = slot_of.get_mut(node.id.index()) else {
                return Err(NetsimError::UnknownNode { id: node.id });
            };
            if *entry != u32::MAX {
                return Err(NetsimError::DuplicateNode { id: node.id });
            }
            *entry = slot as u32;
        }
        let bucket_size = radio_range;
        let alive = vec![true; n];
        let grid = SpatialGrid::build(&nodes, &alive, bucket_size);
        let mut topo = Topology {
            nodes: Arc::new(nodes),
            slot_of: Arc::new(slot_of),
            radio_range,
            adj_offsets: Arc::default(),
            adj_links: Arc::default(),
            row_patch: Vec::new(),
            patch_rows: Vec::new(),
            grid,
            bucket_size,
            bounds,
            alive: Arc::new(alive),
            coincident: false,
            largest: ComponentMemo::new(),
        };
        let mut offsets = order;
        offsets.clear();
        let mut links = Vec::new();
        let mut row = Vec::new();
        let mut coincident = false;
        offsets.push(0u32);
        for (slot, node) in topo.nodes.iter().enumerate() {
            row.clear();
            coincident |= topo.links_at(node.position, slot, &mut row);
            links.extend_from_slice(&row);
            offsets.push(links.len() as u32);
        }
        // The arena lives as long as the topology: drop the doubling slack.
        links.shrink_to_fit();
        topo.adj_offsets = Arc::new(offsets);
        topo.adj_links = Arc::new(links);
        topo.coincident = coincident;
        Ok(topo)
    }

    /// Fills the empty `row` with the ids, ascending, of every live node
    /// within radio range of `at` except the one in slot `except`; returns
    /// whether one of them lies within [`COINCIDENT_SQ`] of `at`.
    fn links_at(&self, at: Point, except: usize, row: &mut Vec<NodeId>) -> bool {
        let range_sq = self.radio_range * self.radio_range;
        let (bx, by) = bucket_key(at, self.bucket_size);
        let mut coincident = false;
        for dx in -1..=1 {
            for dy in -1..=1 {
                for &slot in self.grid.bucket((bx + dx, by + dy)) {
                    let other = &self.nodes[slot as usize];
                    let d = other.position.distance_sq(at);
                    if slot as usize != except && d <= range_sq {
                        row.push(other.id);
                        coincident |= d < COINCIDENT_SQ;
                    }
                }
            }
        }
        // Deterministic neighbor order regardless of bucket order.
        row.sort_unstable();
        coincident
    }

    /// Whether two live radio neighbours were ever closer than
    /// [`COINCIDENT_SQ`] — checked by [`Topology::build`],
    /// [`Topology::add_node`] and [`Topology::move_node`] on every link they
    /// lay. The flag is sticky: a later death or move never clears it.
    /// While it is `false`, no live node has a neighbour at (or within the
    /// tolerance of) its own position, which is what lets GPSR answer a
    /// route to a radio neighbour without scanning.
    pub fn has_coincident_nodes(&self) -> bool {
        self.coincident
    }

    /// The storage slot of node `id`: its index in [`Topology::rows`]. For
    /// structures derived row by row from this topology (the planar graph)
    /// that keep their rows in the same order; the mutators never move a
    /// node to another slot. Nothing else should depend on it.
    #[doc(hidden)]
    pub fn slot(&self, id: NodeId) -> usize {
        self.slot_of[id.index()] as usize
    }

    /// The (possibly overlaid) neighbor row of the node in `slot`.
    fn row(&self, slot: usize) -> &[NodeId] {
        match self.row_patch.get(slot) {
            Some(&p) if p != UNPATCHED => &self.patch_rows[p as usize],
            _ => {
                &self.adj_links
                    [self.adj_offsets[slot] as usize..self.adj_offsets[slot + 1] as usize]
            }
        }
    }

    /// The neighbor row of the node in `slot` as a mutable overlay row,
    /// copied out of the CSR arena on first touch.
    fn row_mut(&mut self, slot: usize) -> &mut Vec<NodeId> {
        if self.row_patch.len() < self.nodes.len() {
            self.row_patch.resize(self.nodes.len(), UNPATCHED);
        }
        if self.row_patch[slot] == UNPATCHED {
            let s = self.adj_offsets[slot] as usize;
            let e = self.adj_offsets[slot + 1] as usize;
            let copy = self.adj_links[s..e].to_vec();
            self.row_patch[slot] = self.patch_rows.len() as u32;
            self.patch_rows.push(copy);
        }
        &mut self.patch_rows[self.row_patch[slot] as usize]
    }

    /// Fails `dead` nodes in place: they keep their ids and positions but
    /// are removed from every neighbor table, the spatial index, and
    /// connectivity. Cost is `O(deaths · degree)` — only the victims' rows
    /// and their neighbors' rows are overlaid.
    ///
    /// # Panics
    ///
    /// Panics if a dead id is out of range.
    pub fn fail_nodes(&mut self, dead: &[NodeId]) {
        self.largest.forget();
        for &id in dead {
            if !self.alive[id.index()] {
                continue;
            }
            Arc::make_mut(&mut self.alive)[id.index()] = false;
            let slot = self.slot(id);
            let links = std::mem::take(self.row_mut(slot));
            for &nb in &links {
                remove_sorted(self.row_mut(self.slot(nb)), id);
            }
            let key = bucket_key(self.nodes[slot].position, self.bucket_size);
            remove_sorted(self.grid.bucket_mut(key), slot as u32);
        }
    }

    /// Deploys one fresh node at `position` in place, returning its newly
    /// assigned id (always `NodeId(self.len())`, keeping ids dense so
    /// per-node bookkeeping can grow by appending).
    ///
    /// The joiner's neighbor table is computed against *live* nodes only,
    /// and it is spliced into each neighbor's sorted table, the spatial
    /// hash, and the bounding box.
    pub fn add_node(&mut self, position: Point) -> NodeId {
        self.largest.forget();
        let slot = self.nodes.len();
        let id = NodeId(slot as u32);
        let mut links = Vec::new();
        self.coincident |= self.links_at(position, slot, &mut links);
        for &nb in &links {
            insert_sorted(self.row_mut(self.slot(nb)), id);
        }
        Arc::make_mut(&mut self.nodes).push(Node::new(id, position));
        Arc::make_mut(&mut self.slot_of).push(slot as u32);
        Arc::make_mut(&mut self.alive).push(true);
        // The CSR row for the new node is empty (duplicate trailing
        // offset); its real row lives in the overlay until compaction.
        let offsets = Arc::make_mut(&mut self.adj_offsets);
        offsets.push(*offsets.last().expect("offsets non-empty"));
        *self.row_mut(slot) = links;
        insert_sorted(self.grid.bucket_mut(bucket_key(position, self.bucket_size)), slot as u32);
        self.grow_bounds(position);
        id
    }

    /// Relocates node `id` to `new_position` in place (waypoint mobility):
    /// its old radio links are torn down and its neighbor table, every
    /// affected neighbor's table, and the spatial hash are recomputed at
    /// the new position.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or dead — a failed node cannot move.
    pub fn move_node(&mut self, id: NodeId, new_position: Point) {
        assert!(self.alive[id.index()], "cannot move dead node {id}");
        self.largest.forget();
        let slot = self.slot(id);
        // Tear down the old links and spatial-hash entry.
        let old_key = bucket_key(self.nodes[slot].position, self.bucket_size);
        remove_sorted(self.grid.bucket_mut(old_key), slot as u32);
        let old_links = std::mem::take(self.row_mut(slot));
        for &nb in &old_links {
            remove_sorted(self.row_mut(self.slot(nb)), id);
        }
        // Re-deploy at the new position.
        Arc::make_mut(&mut self.nodes)[slot].position = new_position;
        let mut links = Vec::new();
        self.coincident |= self.links_at(new_position, slot, &mut links);
        for &nb in &links {
            insert_sorted(self.row_mut(self.slot(nb)), id);
        }
        *self.row_mut(slot) = links;
        insert_sorted(
            self.grid.bucket_mut(bucket_key(new_position, self.bucket_size)),
            slot as u32,
        );
        self.grow_bounds(new_position);
    }

    /// Widens the bounding box to cover `p`.
    fn grow_bounds(&mut self, p: Point) {
        let min = Point::new(self.bounds.min.x.min(p.x), self.bounds.min.y.min(p.y));
        let max = Point::new(self.bounds.max.x.max(p.x), self.bounds.max.y.max(p.y));
        self.bounds = Rect::new(min, max);
    }

    /// Folds the mutation overlay back into the flat CSR arenas: one
    /// `O(n + links)` pass over the adjacency plus a counting-sort rebuild
    /// of the spatial grid. Call once per churn epoch — between calls,
    /// lookups on overlaid rows pay one extra indirection but stay exact.
    ///
    /// Returns the ids of the rows it folded, ascending: every node whose
    /// neighbor table was written since the last compaction. The mutators
    /// write the row of each node that gains, loses, or keeps a link to a
    /// joined, moved, or failed node, so this is also every node that has
    /// a neighbor whose position changed — the set a per-node structure
    /// derived from one-hop tables (a planarization) must recompute.
    pub fn compact(&mut self) -> Vec<NodeId> {
        self.largest.forget();
        let mut folded = Vec::with_capacity(self.patch_rows.len());
        if !self.patch_rows.is_empty() {
            let n = self.nodes.len();
            let mut offsets = Vec::with_capacity(n + 1);
            let mut links = Vec::with_capacity(self.adj_links.len());
            offsets.push(0u32);
            for slot in 0..n {
                if self.row_patch[slot] != UNPATCHED {
                    folded.push(self.nodes[slot].id);
                }
                links.extend_from_slice(self.row(slot));
                offsets.push(links.len() as u32);
            }
            folded.sort_unstable();
            links.shrink_to_fit();
            self.adj_offsets = Arc::new(offsets);
            self.adj_links = Arc::new(links);
            self.row_patch = Vec::new();
            self.patch_rows.clear();
            // Joins grew these by doubling; they too live on. A joiner's
            // write left them unshared; one shared since is exact already,
            // and trimming it would copy it.
            if let Some(nodes) = Arc::get_mut(&mut self.nodes) {
                nodes.shrink_to_fit();
            }
            if let Some(slot_of) = Arc::get_mut(&mut self.slot_of) {
                slot_of.shrink_to_fit();
            }
        }
        if !self.grid.patched.is_empty() {
            self.grid = SpatialGrid::build(&self.nodes, &self.alive, self.bucket_size);
        }
        folded
    }

    /// Number of adjacency rows currently overlaid (not yet compacted).
    /// Scale probes assert this stays `O(churn)`, never `O(n)`.
    pub fn patched_rows(&self) -> usize {
        self.patch_rows.len()
    }

    /// Whether node `id` is alive (has not been failed).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// All deployed nodes in id order: `nodes()[i]` is the node whose id is
    /// `NodeId(i)`.
    pub fn nodes(&self) -> Nodes<'_> {
        Nodes { stored: &self.nodes, slot_of: &self.slot_of }
    }

    /// Every node with its neighbor row, in storage order: the order that
    /// reads this topology's arenas front to back. Which order that is, is
    /// unspecified — use it to visit every node when the visiting order
    /// does not matter, as a per-node derivation such as a planarization
    /// does.
    pub fn rows(&self) -> impl Iterator<Item = (&Node, &[NodeId])> + '_ {
        self.nodes.iter().enumerate().map(|(slot, node)| (node, self.row(slot)))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes (never true for a built topology).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The radio range in meters.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Bounding box of the deployed node positions.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Position of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn position(&self, id: NodeId) -> Point {
        self.nodes[self.slot(id)].position
    }

    /// The neighbor table of node `id` (every node within radio range),
    /// sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.row(self.slot(id))
    }

    /// Whether `a` and `b` can communicate directly.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Euclidean distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(self.position(b))
    }

    /// The node whose position is closest to `target` (ties broken by lower
    /// id). Uses the spatial hash with an expanding ring search.
    pub fn nearest_node(&self, target: Point) -> NodeId {
        let (bx, by) = bucket_key(target, self.bucket_size);
        let mut best: Option<(f64, NodeId)> = None;
        let mut ring = 0i64;
        loop {
            let mut any_bucket = false;
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    // Only the ring boundary is new.
                    if dx.abs() != ring && dy.abs() != ring {
                        continue;
                    }
                    let slots = self.grid.bucket((bx + dx, by + dy));
                    if slots.is_empty() {
                        continue;
                    }
                    any_bucket = true;
                    for &slot in slots {
                        let node = &self.nodes[slot as usize];
                        let d = node.position.distance_sq(target);
                        let better = match best {
                            None => true,
                            Some((bd, bid)) => d < bd || (d == bd && node.id < bid),
                        };
                        if better {
                            best = Some((d, node.id));
                        }
                    }
                }
            }
            // Once a candidate is found, we must still scan one extra ring:
            // a closer node can sit in an adjacent bucket.
            if let Some((bd, id)) = best {
                let safe_radius = (ring as f64) * self.bucket_size;
                if bd.sqrt() <= safe_radius || ring > self.max_ring() {
                    return id;
                }
            }
            if !any_bucket && ring > self.max_ring() {
                // All buckets exhausted: return the best seen (the topology
                // is non-empty, so by now best is set).
                if let Some((_, id)) = best {
                    return id;
                }
            }
            ring += 1;
        }
    }

    /// All nodes within `radius` of `target`, ascending by id.
    pub fn nodes_within(&self, target: Point, radius: f64) -> Vec<NodeId> {
        let r_buckets = (radius / self.bucket_size).ceil() as i64;
        let (bx, by) = bucket_key(target, self.bucket_size);
        let rsq = radius * radius;
        let mut out = Vec::new();
        for dx in -r_buckets..=r_buckets {
            for dy in -r_buckets..=r_buckets {
                for &slot in self.grid.bucket((bx + dx, by + dy)) {
                    let node = &self.nodes[slot as usize];
                    if node.position.distance_sq(target) <= rsq {
                        out.push(node.id);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Mean node degree.
    pub fn mean_degree(&self) -> f64 {
        let total: usize = (0..self.nodes.len()).map(|slot| self.row(slot).len()).sum();
        total as f64 / self.nodes.len() as f64
    }

    /// Calls `visit` with the storage slots of every connected component of
    /// live nodes (breadth-first over the unit-disk graph), components in
    /// the order of their lowest id.
    fn for_each_component(&self, mut visit: impl FnMut(&[u32])) {
        let n = self.nodes.len();
        let mut seen = vec![false; n];
        let mut members: Vec<u32> = Vec::new();
        for (id, &start) in self.slot_of.iter().enumerate() {
            if seen[start as usize] || !self.alive[id] {
                continue;
            }
            seen[start as usize] = true;
            members.clear();
            members.push(start);
            let mut next = 0;
            while let Some(&u) = members.get(next) {
                next += 1;
                for &nb in self.row(u as usize) {
                    let slot = self.slot_of[nb.index()];
                    if !seen[slot as usize] {
                        seen[slot as usize] = true;
                        members.push(slot);
                    }
                }
            }
            visit(&members);
        }
    }

    /// Size of the largest connected component of *live* nodes (BFS over
    /// the unit-disk graph). The BFS runs once per snapshot: its answer is
    /// kept until [`Topology::fail_nodes`], [`Topology::add_node`],
    /// [`Topology::move_node`] or [`Topology::compact`] writes this
    /// topology, and a clone carries it.
    pub fn largest_component(&self) -> usize {
        if let Some(size) = self.largest.get() {
            return size;
        }
        let mut best = 0;
        self.for_each_component(|members| best = best.max(members.len()));
        self.largest.set(best);
        best
    }

    /// The members of the largest connected component of live nodes, in
    /// ascending id order (ties between equal-sized components break toward
    /// the one containing the smallest node id, so the result is
    /// deterministic).
    pub fn largest_component_members(&self) -> Vec<NodeId> {
        let mut best: Vec<u32> = Vec::new();
        self.for_each_component(|members| {
            if members.len() > best.len() {
                best = members.to_vec();
            }
        });
        let mut ids: Vec<NodeId> = best.iter().map(|&slot| self.nodes[slot as usize].id).collect();
        ids.sort_unstable();
        ids
    }

    /// Whether the live unit-disk graph is connected.
    pub fn is_connected(&self) -> bool {
        self.largest_component() == self.alive_count()
    }

    /// Errors unless the network is connected. Routing guarantees (GPSR
    /// delivery, splitter reachability) require connectivity.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::Disconnected`] with component statistics.
    pub fn require_connected(&self) -> Result<(), NetsimError> {
        let largest = self.largest_component();
        let alive = self.alive_count();
        if largest == alive {
            Ok(())
        } else {
            Err(NetsimError::Disconnected { largest_component: largest, total: alive })
        }
    }

    fn max_ring(&self) -> i64 {
        let w = (self.bounds.width() / self.bucket_size).ceil() as i64;
        let h = (self.bounds.height() / self.bucket_size).ceil() as i64;
        w.max(h) + 2
    }

    /// Every occupied spatial-hash bucket, for invariant checks.
    #[cfg(test)]
    fn all_buckets(&self) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> =
            self.grid.patched.values().filter(|v| !v.is_empty()).cloned().collect();
        for cy in 0..self.grid.h {
            for cx in 0..self.grid.w {
                let key = (self.grid.min_bx + cx, self.grid.min_by + cy);
                if self.grid.patched.contains_key(&key) {
                    continue;
                }
                let slots = self.grid.bucket(key);
                if !slots.is_empty() {
                    out.push(slots.to_vec());
                }
            }
        }
        out
    }
}

/// The deployed nodes of a [`Topology`] in id order, as
/// [`Topology::nodes`] presents them: `nodes[i]` is the node whose id is
/// `NodeId(i)`, and iteration ascends by id. A view over the topology's own
/// records, not a copy.
#[derive(Debug, Clone, Copy)]
pub struct Nodes<'a> {
    stored: &'a [Node],
    slot_of: &'a [u32],
}

impl<'a> Nodes<'a> {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// The nodes, ascending by id.
    pub fn iter(&self) -> NodesIter<'a> {
        NodesIter { stored: self.stored, slots: self.slot_of.iter() }
    }

    /// The nodes as an owned list, ascending by id.
    pub fn to_vec(&self) -> Vec<Node> {
        self.iter().copied().collect()
    }
}

impl Index<usize> for Nodes<'_> {
    type Output = Node;

    /// The node whose id is `NodeId(id)`.
    fn index(&self, id: usize) -> &Node {
        &self.stored[self.slot_of[id] as usize]
    }
}

impl<'a> IntoIterator for Nodes<'a> {
    type Item = &'a Node;
    type IntoIter = NodesIter<'a>;

    fn into_iter(self) -> NodesIter<'a> {
        self.iter()
    }
}

/// The iterator of [`Nodes`], ascending by id.
#[derive(Debug, Clone)]
pub struct NodesIter<'a> {
    stored: &'a [Node],
    slots: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for NodesIter<'a> {
    type Item = &'a Node;

    fn next(&mut self) -> Option<&'a Node> {
        self.slots.next().map(|&slot| &self.stored[slot as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

fn bucket_key(p: Point, size: f64) -> (i64, i64) {
    ((p.x / size).floor() as i64, (p.y / size).floor() as i64)
}

/// Position of `p` along the Hilbert curve through a 2¹⁶ × 2¹⁶ grid laid
/// over `bounds`. A degenerate (zero-extent) axis and a NaN coordinate map
/// to cell 0.
fn hilbert_key(p: Point, bounds: Rect) -> u32 {
    const SIDE: u32 = 1 << 16;
    let cell = |v: f64, lo: f64, span: f64| {
        // `as` saturates, and sends NaN to 0.
        if span > 0.0 {
            (((v - lo) / span * f64::from(SIDE - 1)) as u32).min(SIDE - 1)
        } else {
            0
        }
    };
    let mut x = cell(p.x, bounds.min.x, bounds.width());
    let mut y = cell(p.y, bounds.min.y, bounds.height());
    let mut key = 0;
    let mut s = SIDE / 2;
    while s > 0 {
        let rx = u32::from(x & s != 0);
        let ry = u32::from(y & s != 0);
        key += s * s * ((3 * rx) ^ ry);
        // Turn the quadrant so its sub-curve runs the way the curve does.
        if ry == 0 {
            if rx == 1 {
                x = SIDE - 1 - x;
                y = SIDE - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    key
}

fn insert_sorted<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

fn remove_sorted<T: Ord>(v: &mut Vec<T>, x: T) {
    if let Ok(pos) = v.binary_search(&x) {
        v.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, Placement};

    fn sample_topology(n: usize, side: f64, range: f64, seed: u64) -> Topology {
        let nodes = Deployment::new(Rect::square(side), n, Placement::Uniform, seed).nodes();
        Topology::build(nodes, range).unwrap()
    }

    #[test]
    fn neighbors_match_brute_force() {
        let topo = sample_topology(80, 100.0, 30.0, 9);
        for a in topo.nodes() {
            let brute: Vec<NodeId> = topo
                .nodes()
                .iter()
                .filter(|b| b.id != a.id && b.position.distance(a.position) <= 30.0)
                .map(|b| b.id)
                .collect();
            assert_eq!(topo.neighbors(a.id), brute.as_slice(), "node {}", a.id);
        }
    }

    #[test]
    fn are_neighbors_is_symmetric() {
        let topo = sample_topology(60, 80.0, 25.0, 2);
        for a in topo.nodes() {
            for b in topo.nodes() {
                assert_eq!(topo.are_neighbors(a.id, b.id), topo.are_neighbors(b.id, a.id));
            }
        }
    }

    #[test]
    fn nearest_node_matches_brute_force() {
        let topo = sample_topology(70, 90.0, 20.0, 4);
        let probes = [
            Point::new(0.0, 0.0),
            Point::new(45.0, 45.0),
            Point::new(89.9, 0.1),
            Point::new(200.0, 200.0), // outside the field
            Point::new(-50.0, 45.0),
        ];
        for p in probes {
            let got = topo.nearest_node(p);
            let want = topo
                .nodes()
                .iter()
                .min_by(|a, b| {
                    a.position
                        .distance_sq(p)
                        .total_cmp(&b.position.distance_sq(p))
                        .then(a.id.cmp(&b.id))
                })
                .unwrap()
                .id;
            assert_eq!(
                topo.position(got).distance(p),
                topo.position(want).distance(p),
                "probe {p}"
            );
        }
    }

    #[test]
    fn nodes_within_matches_brute_force() {
        let topo = sample_topology(60, 70.0, 15.0, 6);
        let p = Point::new(35.0, 35.0);
        let got = topo.nodes_within(p, 22.0);
        let want: Vec<NodeId> =
            topo.nodes().iter().filter(|n| n.position.distance(p) <= 22.0).map(|n| n.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn single_node_topology() {
        let topo = Topology::build(vec![Node::new(NodeId(0), Point::new(1.0, 1.0))], 10.0).unwrap();
        assert_eq!(topo.len(), 1);
        assert!(topo.neighbors(NodeId(0)).is_empty());
        assert_eq!(topo.nearest_node(Point::new(99.0, 99.0)), NodeId(0));
        assert!(topo.is_connected());
    }

    #[test]
    fn connectivity_detects_split_network() {
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(1.0, 0.0)),
            Node::new(NodeId(2), Point::new(100.0, 0.0)),
        ];
        let topo = Topology::build(nodes, 5.0).unwrap();
        assert!(!topo.is_connected());
        assert_eq!(topo.largest_component(), 2);
        assert_eq!(topo.largest_component_members(), vec![NodeId(0), NodeId(1)]);
        assert!(matches!(
            topo.require_connected(),
            Err(NetsimError::Disconnected { largest_component: 2, total: 3 })
        ));
        // Killing a member of the majority component flips the balance.
        let mut flipped = topo.clone();
        flipped.fail_nodes(&[NodeId(1)]);
        assert_eq!(flipped.largest_component_members().len(), 1);
    }

    #[test]
    fn dense_network_is_connected() {
        let topo = sample_topology(120, 100.0, 30.0, 12);
        assert!(topo.is_connected());
        assert!(topo.require_connected().is_ok());
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert!(matches!(Topology::build(vec![], 10.0), Err(NetsimError::EmptyDeployment)));
        let nodes = vec![Node::new(NodeId(0), Point::new(0.0, 0.0))];
        assert!(matches!(
            Topology::build(nodes, f64::NAN),
            Err(NetsimError::InvalidRadioRange { .. })
        ));
    }

    #[test]
    fn mean_degree_reasonable_for_paper_density() {
        let d = Deployment::paper_setting(300, 40.0, 20.0, 77).unwrap();
        let topo = Topology::build(d.nodes(), 40.0).unwrap();
        let deg = topo.mean_degree();
        assert!(deg > 14.0 && deg < 22.0, "mean degree {deg}");
    }

    #[test]
    fn sparse_extent_falls_back_to_map_buckets() {
        // Two clusters ~10⁵ bucket-widths apart: a dense grid would need
        // ~10¹⁰ cells. The fallback keeps only occupied cells.
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(3.0, 0.0)),
            Node::new(NodeId(2), Point::new(1_000_000.0, 1_000_000.0)),
            Node::new(NodeId(3), Point::new(1_000_003.0, 1_000_000.0)),
        ];
        let topo = Topology::build(nodes, 10.0).unwrap();
        assert_eq!(topo.grid.w, 0, "sparse extent must not allocate a dense grid");
        assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(topo.neighbors(NodeId(2)), &[NodeId(3)]);
        assert_eq!(topo.nearest_node(Point::new(2.0, 1.0)), NodeId(1));
        assert_eq!(topo.nearest_node(Point::new(1_000_001.0, 1_000_001.0)), NodeId(2));
        assert!(!topo.is_connected());
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::deployment::{Deployment, Placement};

    fn sample(n: usize, side: f64, range: f64, seed: u64) -> Topology {
        let nodes = Deployment::new(Rect::square(side), n, Placement::Uniform, seed).nodes();
        Topology::build(nodes, range).unwrap()
    }

    #[test]
    fn failed_nodes_leave_neighbor_tables() {
        let topo = sample(60, 80.0, 30.0, 2);
        let dead = NodeId(10);
        let mut failed = topo.clone();
        failed.fail_nodes(&[dead]);
        assert!(!failed.is_alive(dead));
        assert_eq!(failed.alive_count(), 59);
        assert!(failed.neighbors(dead).is_empty());
        for node in failed.nodes() {
            assert!(!failed.neighbors(node.id).contains(&dead));
        }
        // The original topology is untouched.
        assert!(topo.is_alive(dead));
        assert_eq!(topo.alive_count(), 60);
    }

    #[test]
    fn nearest_node_skips_the_dead() {
        let topo = sample(50, 70.0, 25.0, 3);
        let probe = topo.position(NodeId(7));
        assert_eq!(topo.nearest_node(probe), NodeId(7));
        let mut failed = topo.clone();
        failed.fail_nodes(&[NodeId(7)]);
        let nearest = failed.nearest_node(probe);
        assert_ne!(nearest, NodeId(7));
        assert!(failed.is_alive(nearest));
    }

    #[test]
    fn connectivity_over_live_nodes_only() {
        // Three nodes in a line; killing the middle disconnects the ends,
        // killing an end leaves the rest connected.
        let nodes = vec![
            Node::new(NodeId(0), Point::new(0.0, 0.0)),
            Node::new(NodeId(1), Point::new(4.0, 0.0)),
            Node::new(NodeId(2), Point::new(8.0, 0.0)),
        ];
        let topo = Topology::build(nodes, 5.0).unwrap();
        assert!(topo.is_connected());
        let mut without_middle = topo.clone();
        without_middle.fail_nodes(&[NodeId(1)]);
        assert!(!without_middle.is_connected());
        let mut without_end = topo.clone();
        without_end.fail_nodes(&[NodeId(0)]);
        assert!(without_end.is_connected());
    }

    #[test]
    fn positions_remain_queryable_after_failure() {
        let topo = sample(30, 50.0, 25.0, 4);
        let mut failed = topo.clone();
        failed.fail_nodes(&[NodeId(3)]);
        assert_eq!(failed.position(NodeId(3)), topo.position(NodeId(3)));
    }

    #[test]
    fn cascading_failures_accumulate() {
        let topo = sample(40, 60.0, 30.0, 5);
        let mut once = topo.clone();
        once.fail_nodes(&[NodeId(0), NodeId(1)]);
        let mut twice = once.clone();
        twice.fail_nodes(&[NodeId(2)]);
        assert_eq!(twice.alive_count(), 37);
        for id in [0u32, 1, 2] {
            assert!(!twice.is_alive(NodeId(id)));
        }
    }
}

#[cfg(test)]
mod mutation_tests {
    use super::*;
    use crate::deployment::{Deployment, Placement};

    fn sample(n: usize, side: f64, range: f64, seed: u64) -> Topology {
        let nodes = Deployment::new(Rect::square(side), n, Placement::Uniform, seed).nodes();
        Topology::build(nodes, range).unwrap()
    }

    /// Every live node's neighbor table equals the brute-force unit-disk
    /// neighborhood over live nodes, in sorted order.
    fn assert_tables_consistent(topo: &Topology) {
        let range = topo.radio_range();
        for a in topo.nodes() {
            if !topo.is_alive(a.id) {
                assert!(topo.neighbors(a.id).is_empty());
                continue;
            }
            let brute: Vec<NodeId> = topo
                .nodes()
                .iter()
                .filter(|b| {
                    b.id != a.id
                        && topo.is_alive(b.id)
                        && b.position.distance(topo.position(a.id)) <= range
                })
                .map(|b| b.id)
                .collect();
            assert_eq!(topo.neighbors(a.id), brute.as_slice(), "node {}", a.id);
        }
    }

    /// Every spatial-hash bucket holds its slots in strictly ascending
    /// order — the deterministic bucket-order contract.
    fn assert_buckets_sorted(topo: &Topology) {
        for bucket in topo.all_buckets() {
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "unsorted bucket {bucket:?}");
        }
    }

    #[test]
    fn joined_node_gets_dense_id_and_symmetric_links() {
        let topo = sample(60, 80.0, 25.0, 11);
        let p = Point::new(40.0, 40.0);
        let mut grown = topo.clone();
        let id = grown.add_node(p);
        assert_eq!(id, NodeId(60));
        assert_eq!(grown.len(), 61);
        assert!(grown.is_alive(id));
        assert_eq!(grown.position(id), p);
        assert_tables_consistent(&grown);
        assert!(!grown.neighbors(id).is_empty(), "a mid-field joiner must find neighbors");
        // The original is untouched.
        assert_eq!(topo.len(), 60);
        assert_tables_consistent(&topo);
    }

    #[test]
    fn joined_node_is_spatially_indexed() {
        let topo = sample(50, 70.0, 25.0, 12);
        let p = Point::new(200.0, 200.0); // far outside the field
        let mut grown = topo.clone();
        let id = grown.add_node(p);
        assert_eq!(grown.nearest_node(Point::new(199.0, 199.0)), id);
        assert!(grown.bounds().contains(p));
        assert!(grown.neighbors(id).is_empty(), "an isolated joiner has no links");
        assert!(!grown.is_connected());
    }

    #[test]
    fn join_after_failure_ignores_the_dead() {
        let topo = sample(60, 80.0, 25.0, 13);
        let dead = NodeId(17);
        let mut failed = topo.clone();
        failed.fail_nodes(&[dead]);
        let mut grown = failed.clone();
        let id = grown.add_node(topo.position(dead));
        assert!(!grown.neighbors(id).contains(&dead));
        assert_tables_consistent(&grown);
    }

    #[test]
    fn moved_node_reconnects_at_its_destination() {
        let topo = sample(70, 90.0, 25.0, 14);
        let mover = NodeId(5);
        let dest = Point::new(85.0, 85.0);
        let mut moved = topo.clone();
        moved.move_node(mover, dest);
        assert_eq!(moved.position(mover), dest);
        assert_tables_consistent(&moved);
        // Old links that are now out of range are gone, in both directions.
        for nb in topo.neighbors(mover) {
            if moved.distance(mover, *nb) > moved.radio_range() {
                assert!(!moved.are_neighbors(mover, *nb));
                assert!(!moved.are_neighbors(*nb, mover));
            }
        }
        // The spatial hash follows the move.
        assert_eq!(moved.nearest_node(dest), mover);
        // The original is untouched.
        assert_eq!(topo.position(mover), topo.nodes()[mover.index()].position);
        assert_tables_consistent(&topo);
    }

    #[test]
    fn move_is_reversible() {
        let topo = sample(40, 60.0, 20.0, 15);
        let mover = NodeId(9);
        let home = topo.position(mover);
        let mut away = topo.clone();
        away.move_node(mover, Point::new(-10.0, -10.0));
        let mut back = away.clone();
        back.move_node(mover, home);
        for node in topo.nodes() {
            assert_eq!(back.neighbors(node.id), topo.neighbors(node.id), "node {}", node.id);
        }
    }

    #[test]
    #[should_panic(expected = "cannot move dead node")]
    fn moving_a_dead_node_panics() {
        let topo = sample(30, 50.0, 20.0, 16);
        let mut failed = topo.clone();
        failed.fail_nodes(&[NodeId(3)]);
        failed.move_node(NodeId(3), Point::new(1.0, 1.0));
    }

    #[test]
    fn churn_interleaving_keeps_tables_consistent() {
        let mut topo = sample(50, 70.0, 22.0, 17);
        let steps: Vec<(u32, f64, f64)> =
            (0..12).map(|i| (i * 3 % 50, f64::from(i * 7 % 60), f64::from(i * 11 % 60))).collect();
        for (i, &(raw, x, y)) in steps.iter().enumerate() {
            match i % 3 {
                0 => {
                    topo.add_node(Point::new(x, y));
                }
                1 => {
                    let id = NodeId(raw);
                    if topo.is_alive(id) {
                        topo.move_node(id, Point::new(x, y));
                    }
                }
                _ => topo.fail_nodes(&[NodeId(raw)]),
            }
            assert_tables_consistent(&topo);
            assert_buckets_sorted(&topo);
        }
    }

    #[test]
    fn buckets_stay_sorted_under_every_mutation() {
        let mut topo = sample(40, 60.0, 20.0, 18);
        assert_buckets_sorted(&topo);
        // A move into an occupied bucket must splice the mover by id, not
        // append it (the seed representation appended).
        let crowd = topo.position(NodeId(30));
        topo.move_node(NodeId(2), Point::new(crowd.x + 0.5, crowd.y + 0.5));
        assert_buckets_sorted(&topo);
        topo.move_node(NodeId(35), Point::new(crowd.x - 0.5, crowd.y - 0.5));
        assert_buckets_sorted(&topo);
        topo.add_node(Point::new(crowd.x, crowd.y + 1.0));
        topo.fail_nodes(&[NodeId(30)]);
        assert_buckets_sorted(&topo);
        topo.compact();
        assert_buckets_sorted(&topo);
        assert_tables_consistent(&topo);
    }

    /// The invariant greedy forwarding's tie-break leans on (the first of
    /// equally close neighbors in row order is the lower id) and
    /// `are_neighbors` binary-searches by: every row strictly ascending,
    /// in the uncompacted overlay a churn sequence leaves and after
    /// `compact()` folds it.
    #[test]
    fn neighbor_rows_ascend_strictly_before_and_after_compaction() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let assert_rows_ascend = |topo: &Topology| {
            for node in topo.nodes() {
                let row = topo.neighbors(node.id);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {}: {row:?}", node.id);
            }
        };
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut topo = sample(60, 70.0, 22.0, 40 + seed);
            assert_rows_ascend(&topo);
            for _epoch in 0..3 {
                for _ in 0..rng.gen_range(5..25) {
                    let id = NodeId(rng.gen_range(0..topo.len() as u32));
                    // Half the destinations sit exactly on another node.
                    let spot = if rng.gen_range(0..2) == 0 {
                        topo.position(NodeId(rng.gen_range(0..topo.len() as u32)))
                    } else {
                        Point::new(rng.gen_range(0.0..70.0), rng.gen_range(0.0..70.0))
                    };
                    match rng.gen_range(0..3) {
                        0 => {
                            topo.add_node(spot);
                        }
                        1 if topo.is_alive(id) => topo.move_node(id, spot),
                        _ => topo.fail_nodes(&[id]),
                    }
                }
                assert!(topo.patched_rows() > 0);
                assert_rows_ascend(&topo);
                topo.compact();
                assert_rows_ascend(&topo);
            }
        }
    }
}

#[cfg(test)]
mod arena_tests {
    use super::*;
    use crate::deployment::{Deployment, Placement};

    fn sample(n: usize, side: f64, range: f64, seed: u64) -> Topology {
        let nodes = Deployment::new(Rect::square(side), n, Placement::Uniform, seed).nodes();
        Topology::build(nodes, range).unwrap()
    }

    fn assert_same_tables(a: &Topology, b: &Topology) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            let id = NodeId(i as u32);
            assert_eq!(a.is_alive(id), b.is_alive(id), "alive {id}");
            assert_eq!(a.position(id), b.position(id), "position {id}");
            assert_eq!(a.neighbors(id), b.neighbors(id), "row {id}");
        }
        assert_eq!(a.bounds(), b.bounds());
    }

    /// One epoch of in-place churn + one compaction equals the persistent
    /// per-event path, row for row.
    #[test]
    fn in_place_epoch_matches_persistent_path() {
        let base = sample(80, 90.0, 25.0, 21);
        let joins = [Point::new(10.0, 80.0), Point::new(95.0, 5.0)];
        let moves = [(NodeId(3), Point::new(44.0, 44.0)), (NodeId(60), Point::new(2.0, 2.0))];
        let deaths = [NodeId(7), NodeId(41), NodeId(42)];

        // A fresh copy per event, never compacted.
        let mut persistent = base.clone();
        for &p in &joins {
            let mut next = persistent.clone();
            next.add_node(p);
            persistent = next;
        }
        for &(id, dest) in &moves {
            let mut next = persistent.clone();
            next.move_node(id, dest);
            persistent = next;
        }
        let mut next = persistent.clone();
        next.fail_nodes(&deaths);
        persistent = next;

        let mut in_place = base.clone();
        for &p in &joins {
            in_place.add_node(p);
        }
        for &(id, dest) in &moves {
            in_place.move_node(id, dest);
        }
        in_place.fail_nodes(&deaths);
        assert!(in_place.patched_rows() > 0, "mutations must overlay rows");
        assert_same_tables(&in_place, &persistent);
        in_place.compact();
        assert_eq!(in_place.patched_rows(), 0, "compaction folds the overlay");
        assert_same_tables(&in_place, &persistent);

        // Spatial queries agree before and after compaction.
        for probe in [Point::new(0.0, 0.0), Point::new(44.0, 44.0), Point::new(90.0, 10.0)] {
            assert_eq!(in_place.nearest_node(probe), persistent.nearest_node(probe));
            assert_eq!(in_place.nodes_within(probe, 30.0), persistent.nodes_within(probe, 30.0));
        }
    }

    /// A compacted churned topology equals a fresh build over the same
    /// surviving deployment (same rows, same buckets, same queries).
    #[test]
    fn compacted_arena_matches_fresh_build() {
        let mut topo = sample(70, 80.0, 22.0, 22);
        let j = topo.add_node(Point::new(40.0, 41.0));
        topo.move_node(NodeId(5), Point::new(70.0, 70.0));
        topo.fail_nodes(&[NodeId(11), NodeId(12)]);
        topo.compact();

        // Rebuild from scratch over the surviving live nodes, keeping ids.
        let nodes: Vec<Node> = topo.nodes().to_vec();
        let fresh = Topology::build(nodes, topo.radio_range()).unwrap();
        for node in topo.nodes() {
            if topo.is_alive(node.id) {
                let want: Vec<NodeId> = fresh
                    .neighbors(node.id)
                    .iter()
                    .copied()
                    .filter(|&n| topo.is_alive(n))
                    .collect();
                assert_eq!(topo.neighbors(node.id), want.as_slice(), "row {}", node.id);
            } else {
                assert!(topo.neighbors(node.id).is_empty());
            }
        }
        assert!(topo.is_alive(j));
    }

    /// compact() on an untouched topology is a no-op for every observable.
    #[test]
    fn compact_without_mutations_changes_nothing() {
        let mut topo = sample(50, 60.0, 20.0, 23);
        let reference = topo.clone();
        assert!(topo.compact().is_empty(), "nothing was written, nothing is folded");
        assert_same_tables(&topo, &reference);
        assert_eq!(topo.patched_rows(), 0);
    }

    /// compact() hands back the rows the overlay held, ascending, and they
    /// cover every node whose table changed or that neighbors a node whose
    /// position changed — including a mover's neighbors that stayed in range.
    #[test]
    fn compact_returns_every_row_the_epoch_touched() {
        let base = sample(120, 100.0, 22.0, 25);
        let mut topo = base.clone();
        let joined = topo.add_node(Point::new(50.0, 50.0));
        let mover = NodeId(9);
        let nudged = Point::new(base.position(mover).x + 0.5, base.position(mover).y);
        topo.move_node(mover, nudged);
        topo.fail_nodes(&[NodeId(30)]);
        let patched = topo.patched_rows();
        let folded = topo.compact();
        assert_eq!(folded.len(), patched);
        assert!(folded.windows(2).all(|w| w[0] < w[1]), "ascending, no duplicates");
        let mut expected: Vec<NodeId> = [joined, mover, NodeId(30)].to_vec();
        expected.extend_from_slice(topo.neighbors(joined));
        expected.extend_from_slice(base.neighbors(mover));
        expected.extend_from_slice(topo.neighbors(mover));
        expected.extend_from_slice(base.neighbors(NodeId(30)));
        for id in expected {
            assert!(folded.contains(&id), "row {id} was touched but not reported");
        }
        assert!(folded.len() < topo.len() / 2, "the folded set stays O(churn)");
    }

    /// The adjacency arena, the node records and the slot map are kept for
    /// the life of the topology, so neither the build nor a compaction
    /// leaves doubling slack in them. Storage order costs exactly one `u32`
    /// per node (the slot map) and no second copy of any position, and a
    /// compacted topology holds no overlay index.
    #[test]
    fn adjacency_arena_is_exact_size_after_build_and_compact() {
        let assert_exact = |topo: &Topology| {
            let n = topo.len();
            assert_eq!(topo.adj_links.capacity(), topo.adj_links.len());
            assert_eq!((topo.nodes.len(), topo.nodes.capacity()), (n, n));
            assert_eq!((topo.slot_of.len(), topo.slot_of.capacity()), (n, n));
            assert_eq!(topo.row_patch.capacity(), 0);
        };
        let mut topo = sample(400, 120.0, 20.0, 26);
        assert_exact(&topo);
        for i in 0..40 {
            topo.add_node(Point::new(f64::from(i) * 3.0, 60.0));
        }
        topo.fail_nodes(&[NodeId(3)]);
        assert!(!topo.compact().is_empty());
        assert_exact(&topo);
    }

    /// The co-location flag is set by whichever of `build`, `add_node` and
    /// `move_node` lays a link shorter than the tolerance, and stays set.
    #[test]
    fn coincident_flag_follows_every_writer_and_sticks() {
        let topo = sample(80, 90.0, 25.0, 27);
        assert!(!topo.has_coincident_nodes());
        let near = |p: Point| Point::new(p.x + 1e-10, p.y);

        let mut nodes = topo.nodes().to_vec();
        nodes.push(Node::new(NodeId(80), near(nodes[4].position)));
        assert!(Topology::build(nodes, 25.0).unwrap().has_coincident_nodes(), "build");

        let mut joined = topo.clone();
        joined.add_node(joined.position(NodeId(9)));
        assert!(joined.has_coincident_nodes(), "add_node");

        let mut moved = topo.clone();
        moved.move_node(NodeId(1), near(moved.position(NodeId(2))));
        assert!(moved.has_coincident_nodes(), "move_node");
        moved.fail_nodes(&[NodeId(2)]);
        moved.compact();
        assert!(moved.has_coincident_nodes(), "the flag is sticky");

        let mut apart = topo.clone();
        apart.move_node(NodeId(1), near(near(near(apart.position(NodeId(1))))));
        apart.add_node(Point::new(45.5, 45.5));
        assert!(!apart.has_coincident_nodes(), "ordinary churn leaves it clear");
    }

    /// The overlay stays O(churn): failing k nodes patches at most
    /// k · (degree + 1) rows, never O(n).
    #[test]
    fn overlay_is_bounded_by_touched_rows() {
        let mut topo = sample(200, 140.0, 20.0, 24);
        let victims = [NodeId(10), NodeId(20), NodeId(30)];
        let degree_bound: usize =
            victims.iter().map(|&v| topo.neighbors(v).len() + 1).sum::<usize>();
        topo.fail_nodes(&victims);
        assert!(
            topo.patched_rows() <= degree_bound,
            "{} rows patched for {} deaths (bound {degree_bound})",
            topo.patched_rows(),
            victims.len(),
        );
        assert!(topo.patched_rows() < topo.len() / 2, "overlay must stay far below O(n)");
    }
}

#[cfg(test)]
mod storage_order_tests {
    use super::*;
    use crate::deployment::{Deployment, Placement};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The brute-force model every storage-order claim is checked against:
    /// the node list indexed by id, liveness, and the box of every position
    /// ever held — nothing the topology computes.
    struct Oracle {
        nodes: Vec<Node>,
        alive: Vec<bool>,
        range: f64,
        bounds: Rect,
    }

    impl Oracle {
        fn new(input: &[Node], range: f64) -> Oracle {
            let mut nodes = input.to_vec();
            nodes.sort_by_key(|n| n.id);
            let first = nodes[0].position;
            let mut oracle = Oracle {
                alive: vec![true; nodes.len()],
                nodes,
                range,
                bounds: Rect::new(first, first),
            };
            for i in 0..oracle.nodes.len() {
                oracle.cover(oracle.nodes[i].position);
            }
            oracle
        }

        fn cover(&mut self, p: Point) {
            let (lo, hi) = (self.bounds.min, self.bounds.max);
            self.bounds = Rect::new(
                Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                Point::new(hi.x.max(p.x), hi.y.max(p.y)),
            );
        }

        fn add(&mut self, p: Point) -> NodeId {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node::new(id, p));
            self.alive.push(true);
            self.cover(p);
            id
        }

        fn relocate(&mut self, id: NodeId, p: Point) {
            self.nodes[id.index()].position = p;
            self.cover(p);
        }

        fn live(&self) -> impl Iterator<Item = &Node> {
            self.nodes.iter().filter(|n| self.alive[n.id.index()])
        }

        fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
            if !self.alive[id.index()] {
                return Vec::new();
            }
            let at = self.nodes[id.index()].position;
            let near = |n: &&Node| n.id != id && n.position.distance_sq(at) <= self.range.powi(2);
            self.live().filter(near).map(|n| n.id).collect()
        }

        fn nearest(&self, p: Point) -> NodeId {
            let key = |n: &&Node| (n.position.distance_sq(p), n.id);
            self.live().min_by(|a, b| key(a).partial_cmp(&key(b)).unwrap()).unwrap().id
        }

        fn within(&self, p: Point, r: f64) -> Vec<NodeId> {
            self.live().filter(|n| n.position.distance_sq(p) <= r * r).map(|n| n.id).collect()
        }

        /// The largest live component, ascending; ties go to the component
        /// holding the smallest id.
        fn largest_component(&self) -> Vec<NodeId> {
            let mut seen = vec![false; self.nodes.len()];
            let mut best: Vec<NodeId> = Vec::new();
            for start in self.live().map(|n| n.id) {
                if seen[start.index()] {
                    continue;
                }
                seen[start.index()] = true;
                let mut members = vec![start];
                let mut next = 0;
                while next < members.len() {
                    for nb in self.neighbors(members[next]) {
                        if !std::mem::replace(&mut seen[nb.index()], true) {
                            members.push(nb);
                        }
                    }
                    next += 1;
                }
                if members.len() > best.len() {
                    best = members;
                }
            }
            best.sort_unstable();
            best
        }
    }

    /// Every id-facing accessor agrees with the oracle: storage order does
    /// not show through any of them.
    fn assert_matches(topo: &Topology, oracle: &Oracle, probes: &[Point], when: &str) {
        let n = oracle.nodes.len();
        assert_eq!(topo.len(), n, "{when}: len");
        let nodes = topo.nodes();
        assert_eq!(nodes.len(), n, "{when}: nodes().len()");
        assert_eq!(nodes.to_vec(), oracle.nodes, "{when}: nodes().to_vec()");
        assert!(nodes.iter().eq(oracle.nodes.iter()), "{when}: nodes().iter()");
        for (i, node) in nodes.into_iter().enumerate() {
            assert_eq!(node, &oracle.nodes[i], "{when}: into_iter at {i}");
            assert_eq!(nodes[i], oracle.nodes[i], "{when}: nodes()[{i}]");
        }
        let mut degree = 0;
        for a in &oracle.nodes {
            let brute = oracle.neighbors(a.id);
            degree += brute.len();
            assert_eq!(topo.position(a.id), a.position, "{when}: position of {}", a.id);
            assert_eq!(topo.is_alive(a.id), oracle.alive[a.id.index()], "{when}: alive {}", a.id);
            assert_eq!(topo.neighbors(a.id), brute.as_slice(), "{when}: row of {}", a.id);
            for b in &oracle.nodes {
                let linked = brute.binary_search(&b.id).is_ok();
                assert_eq!(topo.are_neighbors(a.id, b.id), linked, "{when}: {} ~ {}", a.id, b.id);
            }
        }
        for &p in probes {
            assert_eq!(topo.nearest_node(p), oracle.nearest(p), "{when}: nearest to {p}");
            for r in [0.0, 7.5, 30.0] {
                assert_eq!(
                    topo.nodes_within(p, r),
                    oracle.within(p, r),
                    "{when}: within {r} of {p}"
                );
            }
        }
        let largest = oracle.largest_component();
        assert_eq!(topo.largest_component_members(), largest, "{when}: largest component");
        assert_eq!(topo.largest_component(), largest.len(), "{when}: its size");
        assert_eq!(topo.mean_degree(), degree as f64 / n as f64, "{when}: mean degree");
        assert_eq!(topo.bounds(), oracle.bounds, "{when}: bounds");
    }

    /// Probe points: every node's own position (exact ties with any twin),
    /// points just off nodes, and points around and outside the field.
    fn probes(oracle: &Oracle, rng: &mut StdRng) -> Vec<Point> {
        let (lo, hi) = (oracle.bounds.min, oracle.bounds.max);
        let mut out: Vec<Point> = oracle.nodes.iter().map(|n| n.position).collect();
        for _ in 0..30 {
            let at = oracle.nodes[rng.gen_range(0..oracle.nodes.len())].position;
            out.push(Point::new(at.x + rng.gen_range(-3.0..3.0), at.y + rng.gen_range(-3.0..3.0)));
            out.push(Point::new(
                rng.gen_range(lo.x - 20.0..hi.x + 20.0),
                rng.gen_range(lo.y - 20.0..hi.y + 20.0),
            ));
        }
        out
    }

    /// Builds from `input` (ids in any order), then checks the topology
    /// against the oracle as built and through three epochs of joins, moves
    /// and deaths — over the uncompacted overlay and after each compaction,
    /// whose return value must be ascending and cover every row the epoch
    /// changed.
    fn check(input: Vec<Node>, range: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = Oracle::new(&input, range);
        let mut topo = Topology::build(input, range).unwrap();
        let spots = probes(&oracle, &mut rng);
        assert_matches(&topo, &oracle, &spots, "as built");
        for epoch in 0..3 {
            let before: Vec<Vec<NodeId>> =
                oracle.nodes.iter().map(|n| oracle.neighbors(n.id)).collect();
            for _ in 0..rng.gen_range(4..12) {
                let id = NodeId(rng.gen_range(0..oracle.nodes.len() as u32));
                // Half the destinations land exactly on another node.
                let onto = if rng.gen_range(0..2) == 0 {
                    oracle.nodes[rng.gen_range(0..oracle.nodes.len())].position
                } else {
                    spots[rng.gen_range(0..spots.len())]
                };
                match rng.gen_range(0..3) {
                    0 => assert_eq!(topo.add_node(onto), oracle.add(onto)),
                    1 if oracle.alive[id.index()] => {
                        topo.move_node(id, onto);
                        oracle.relocate(id, onto);
                    }
                    _ => {
                        topo.fail_nodes(&[id]);
                        oracle.alive[id.index()] = false;
                    }
                }
            }
            let spots = probes(&oracle, &mut rng);
            assert_matches(&topo, &oracle, &spots, &format!("epoch {epoch}, uncompacted"));
            let folded = topo.compact();
            assert!(folded.windows(2).all(|w| w[0] < w[1]), "epoch {epoch}: {folded:?}");
            for node in &oracle.nodes {
                let was = before.get(node.id.index()).cloned().unwrap_or_default();
                if oracle.neighbors(node.id) != was {
                    assert!(folded.contains(&node.id), "epoch {epoch}: row {} not folded", node.id);
                }
            }
            assert_matches(&topo, &oracle, &spots, &format!("epoch {epoch}, compacted"));
        }
    }

    /// The input list with its order shuffled: `build` takes ids in any
    /// order, and storage order must not depend on it.
    fn shuffled(mut nodes: Vec<Node>, seed: u64) -> Vec<Node> {
        nodes.shuffle(&mut StdRng::seed_from_u64(seed));
        nodes
    }

    #[test]
    fn storage_order_is_unobservable_on_a_field_with_coincident_twins() {
        for seed in 0..6u64 {
            let mut nodes =
                Deployment::new(Rect::square(120.0), 110, Placement::Uniform, seed).nodes();
            for k in 0..12 {
                let twin = nodes[k * 9].position;
                nodes.push(Node::new(NodeId(nodes.len() as u32), twin));
            }
            check(shuffled(nodes, seed), 25.0, seed);
        }
    }

    #[test]
    fn storage_order_is_unobservable_when_every_node_sits_on_one_line() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Zero-height bounds: every node shares one Hilbert row.
            let mut nodes: Vec<Node> = (0..60)
                .map(|i| Node::new(NodeId(i), Point::new(rng.gen_range(0.0..300.0), 17.0)))
                .collect();
            nodes.push(Node::new(NodeId(60), nodes[5].position));
            check(shuffled(nodes, seed), 12.0, 100 + seed);
        }
        // Two equal components, the lower ids in the one stored last: the
        // tie goes by id, not by storage order.
        let pair = |x: f64, id: u32| [Node::new(NodeId(id), Point::new(x, 0.0))];
        let tied = [pair(100.0, 0), pair(101.0, 1), pair(0.0, 2), pair(1.0, 3)].concat();
        check(tied, 5.0, 104);
    }

    #[test]
    fn storage_order_is_the_hilbert_order_of_the_positions() {
        let nodes = Deployment::new(Rect::square(200.0), 300, Placement::Uniform, 8).nodes();
        let topo = Topology::build(shuffled(nodes, 8), 20.0).unwrap();
        let keys: Vec<(u32, NodeId)> =
            topo.rows().map(|(n, _)| (hilbert_key(n.position, topo.bounds()), n.id)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "slots ascend by (key, id)");
        for (slot, (node, row)) in topo.rows().enumerate() {
            assert_eq!(topo.slot(node.id), slot);
            assert_eq!(row, topo.neighbors(node.id));
        }
    }

    #[test]
    fn hilbert_key_walks_a_2x2_block_in_curve_order_and_degenerates_safely() {
        let unit = Rect::square(1.0);
        let corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)];
        let keys: Vec<u32> =
            corners.iter().map(|&(x, y)| hilbert_key(Point::new(x, y), unit)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        let flat = Rect::new(Point::new(0.0, 5.0), Point::new(10.0, 5.0));
        assert_eq!(hilbert_key(Point::new(0.0, 5.0), flat), 0);
        assert_eq!(hilbert_key(Point::new(f64::NAN, f64::NAN), unit), 0);
    }

    #[test]
    fn build_rejects_ids_that_are_not_dense() {
        let at = Point::new(0.0, 0.0);
        let gap = vec![Node::new(NodeId(0), at), Node::new(NodeId(2), at)];
        assert_eq!(
            Topology::build(gap, 5.0).unwrap_err(),
            NetsimError::UnknownNode { id: NodeId(2) }
        );
        let twice = vec![Node::new(NodeId(1), at), Node::new(NodeId(1), at)];
        assert_eq!(
            Topology::build(twice, 5.0).unwrap_err(),
            NetsimError::DuplicateNode { id: NodeId(1) }
        );
    }
}
