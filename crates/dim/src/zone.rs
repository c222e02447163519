//! The DIM zone tree: recursive binary splits of the deployment field.
//!
//! DIM embeds a k-d tree in the network: the field is halved repeatedly
//! (vertical split first, then horizontal, alternating) until every zone
//! contains at most one sensor. Each non-empty zone's sensor *owns* it; an
//! empty zone is backed up by the node nearest its center (in deployed DIM
//! a neighboring zone owner absorbs it).
//!
//! Every zone's code then doubles as an attribute-space hyper-rectangle via
//! [`ZoneCode::attribute_ranges`] — that is where events live and how range
//! queries find them.

use crate::code::ZoneCode;
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;

/// A leaf zone of the tree: 24 bytes. Its physical region is not stored;
/// [`ZoneTree::region`] derives it from the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// The zone's code.
    pub code: ZoneCode,
    /// The sensor that owns (stores events for) this zone.
    pub owner: NodeId,
}

/// Flag bit of an internal entry of [`ZoneTree`]'s preorder array; the
/// other 31 bits index the entry's hi child. A leaf entry is a zone index.
const INTERNAL: u32 = 1 << 31;

/// A leaf entry's payload, between the build's two passes, for a zone no
/// sensor lies in; any other payload is the owner's id.
const EMPTY: u32 = INTERNAL - 1;

/// Depth guard: co-located nodes can never be separated by halving, so a
/// branch stops here, before the 64-bit code overflows, and the first node
/// in id order owns the merged zone.
const MAX_DEPTH: usize = 60;

/// A sensor as the build partitions it: its position and id.
type Sited = (Point, NodeId);

/// The complete zone tree over one deployment.
///
/// The tree is one preorder array of `u32` entries: a leaf entry is its
/// zone's index into [`ZoneTree::zones`]; an internal entry has the top bit
/// set and the index of its hi (bit 1) child below it, and its lo (bit 0)
/// child is the next entry. A walk reads one contiguous array, descending
/// to the lo child without a lookup, instead of chasing a pointer per level.
///
/// # Examples
///
/// ```
/// use pool_dim::zone::ZoneTree;
/// use pool_netsim::deployment::{Deployment, Placement};
/// use pool_netsim::geometry::Rect;
/// use pool_netsim::topology::Topology;
///
/// let field = Rect::square(100.0);
/// let nodes = Deployment::new(field, 40, Placement::Uniform, 2).nodes();
/// let topo = Topology::build(nodes, 30.0).unwrap();
/// let tree = ZoneTree::build(&topo, field);
/// // Every sensor owns at least the zone it sits in.
/// assert!(tree.zones().len() >= 40);
/// ```
#[derive(Debug, Clone)]
pub struct ZoneTree {
    zones: Vec<Zone>,
    entries: Vec<u32>,
    field: Rect,
}

impl ZoneTree {
    /// Builds the zone tree for `topology` over `field`.
    ///
    /// Splitting detail: even depths split vertically (x), odd depths
    /// horizontally (y), exactly like the code's physical reading.
    ///
    /// Two passes. The first gathers every sensor's position and id once,
    /// in id order, and splits that buffer level by level, stably, into a
    /// scratch buffer of the same length and back (the two swap roles at
    /// every level), laying down the preorder entries; a leaf entry holds
    /// its owner's id, or a mark for an empty zone. The second walks the
    /// entries in order, knowing the zone count exactly, and turns each
    /// leaf into its zone: code and region follow the walk, and an empty
    /// zone is backed by the network node nearest its center.
    pub fn build(topology: &Topology, field: Rect) -> Self {
        let mut sited: Vec<Sited> = topology.nodes().iter().map(|n| (n.position, n.id)).collect();
        let mut scratch = sited.clone();
        // A uniform deployment has ~1.44 zones, so ~2.9 entries, a node:
        // reserving three a node spares the array its doublings.
        let mut entries = Vec::with_capacity(3 * sited.len() + 1);
        split(&mut entries, &mut sited, &mut scratch, field, 0);
        drop((sited, scratch));
        entries.shrink_to_fit();

        let mut zones = Vec::with_capacity(entries.len().div_ceil(2));
        let mut pending: Vec<(ZoneCode, Rect)> = Vec::with_capacity(MAX_DEPTH);
        let (mut code, mut region) = (ZoneCode::root(), field);
        for entry in &mut entries {
            if *entry & INTERNAL != 0 {
                let (lo, hi) = halves(region, code.len());
                pending.push((code.child(true), hi));
                (code, region) = (code.child(false), lo);
                continue;
            }
            let owner = match *entry {
                EMPTY => topology.nearest_node(region.center()),
                id => NodeId(id),
            };
            *entry = entry_index(zones.len());
            zones.push(Zone { code, owner });
            if let Some(next) = pending.pop() {
                (code, region) = next;
            }
        }
        ZoneTree { zones, entries, field }
    }

    /// All leaf zones, in code (DFS) order.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The physical region of the field that zone `index` covers: the
    /// field halved along its code, exactly as the build halves it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below `zones().len()`.
    pub fn region(&self, index: usize) -> Rect {
        region_of(self.field, self.zones[index].code)
    }

    /// Heap bytes the tree holds, from its arrays' capacities.
    pub fn heap_bytes(&self) -> usize {
        self.zones.capacity() * std::mem::size_of::<Zone>()
            + self.entries.capacity() * std::mem::size_of::<u32>()
    }

    /// The zone that stores a `k`-dimensional event with the given values:
    /// the leaf whose code is the prefix of the event's code.
    pub fn zone_of_event(&self, values: &[f64]) -> &Zone {
        &self.zones[self.zone_index_of_event(values)]
    }

    /// Index into [`ZoneTree::zones`] of [`ZoneTree::zone_of_event`]'s zone.
    pub fn zone_index_of_event(&self, values: &[f64]) -> usize {
        assert!(!values.is_empty(), "event has no attributes");
        let k = values.len();
        let mut ranges = vec![(0.0f64, 1.0f64); k];
        let mut at = 0usize;
        let mut depth = 0usize;
        loop {
            let entry = self.entries[at];
            if entry & INTERNAL == 0 {
                return entry as usize;
            }
            let dim = depth % k;
            let (lo, hi) = ranges[dim];
            let mid = (lo + hi) / 2.0;
            if values[dim] >= mid {
                ranges[dim] = (mid, hi);
                at = (entry & !INTERNAL) as usize;
            } else {
                ranges[dim] = (lo, mid);
                at += 1;
            }
            depth += 1;
        }
    }

    /// The zones whose attribute hyper-rectangles overlap the (rewritten)
    /// query, in code (DFS) order — DIM's query resolution.
    pub fn zones_overlapping(&self, rewritten: &[(f64, f64)]) -> Vec<&Zone> {
        let mut out = Vec::new();
        self.for_each_overlapping(rewritten, |idx| out.push(&self.zones[idx]));
        out
    }

    /// Calls `visit` with the index into [`ZoneTree::zones`] of every zone
    /// [`ZoneTree::zones_overlapping`] returns, in the same order.
    pub fn for_each_overlapping(&self, rewritten: &[(f64, f64)], mut visit: impl FnMut(usize)) {
        assert!(!rewritten.is_empty(), "query has no dimensions");
        if rewritten.iter().any(|&(ql, qu)| 1.0 < ql || 0.0 > qu) {
            return;
        }
        let mut ranges = vec![(0.0f64, 1.0f64); rewritten.len()];
        self.walk_overlaps(0, rewritten, &mut ranges, 0, &mut visit);
    }

    /// Visits the leaves of the subtree at entry `at` that overlap `query`.
    /// `ranges` is the subtree's attribute hyper-rectangle, which the
    /// caller found to overlap the query, and is handed back as received.
    /// A child differs from its parent in one bound of one dimension: the
    /// only one that can newly miss.
    fn walk_overlaps(
        &self,
        at: usize,
        query: &[(f64, f64)],
        ranges: &mut [(f64, f64)],
        depth: usize,
        visit: &mut impl FnMut(usize),
    ) {
        let entry = self.entries[at];
        if entry & INTERNAL == 0 {
            visit(entry as usize);
            return;
        }
        let dim = depth % query.len();
        let (lo, hi) = ranges[dim];
        let (ql, qu) = query[dim];
        let mid = (lo + hi) / 2.0;
        if ql <= mid {
            ranges[dim] = (lo, mid);
            self.walk_overlaps(at + 1, query, ranges, depth + 1, visit);
        }
        if mid <= qu {
            ranges[dim] = (mid, hi);
            self.walk_overlaps((entry & !INTERNAL) as usize, query, ranges, depth + 1, visit);
        }
        ranges[dim] = (lo, hi);
    }

    /// Re-elects the owner of every zone whose current owner is dead or
    /// listed in `displaced` (it moved this epoch and may no longer be the
    /// zone's best host). The new owner is the live node nearest the
    /// zone's center (DIM's repair: a neighboring owner absorbs a dead
    /// zone). Returns `(zone index, old owner, new owner)` for every zone
    /// that actually changed hands, in zone order.
    pub fn re_elect_owners(
        &mut self,
        topology: &Topology,
        displaced: &[NodeId],
    ) -> Vec<(usize, NodeId, NodeId)> {
        let mut changed = Vec::new();
        for (i, zone) in self.zones.iter_mut().enumerate() {
            if !topology.is_alive(zone.owner) || displaced.contains(&zone.owner) {
                let elected = topology.nearest_node(region_of(self.field, zone.code).center());
                if elected != zone.owner {
                    changed.push((i, zone.owner, elected));
                    zone.owner = elected;
                }
            }
        }
        changed
    }

    /// Maximum code length (tree depth).
    pub fn depth(&self) -> usize {
        self.zones.iter().map(|z| z.code.len()).max().unwrap_or(0)
    }
}

/// Appends the preorder entries of the subtree over `region` at `depth`,
/// whose sensors are `sited` (ascending by id); `scratch` is as long and
/// its contents are spent.
fn split(
    entries: &mut Vec<u32>,
    sited: &mut [Sited],
    scratch: &mut [Sited],
    region: Rect,
    depth: usize,
) {
    if sited.len() <= 1 || depth >= MAX_DEPTH {
        entries.push(sited.first().map_or(EMPTY, |&(_, id)| entry_index(id.index())));
        return;
    }
    let (lo, hi) = halves(region, depth);
    let below = if depth.is_multiple_of(2) {
        split_stably(sited, scratch, |p| p.x < lo.max.x)
    } else {
        split_stably(sited, scratch, |p| p.y < lo.max.y)
    };
    let at = entries.len();
    entries.push(INTERNAL);
    let (sited_lo, sited_hi) = sited.split_at_mut(below);
    let (scratch_lo, scratch_hi) = scratch.split_at_mut(below);
    split(entries, scratch_lo, sited_lo, lo, depth + 1);
    entries[at] = INTERNAL | entry_index(entries.len());
    split(entries, scratch_hi, sited_hi, hi, depth + 1);
}

/// Copies `from` into `to`, the items whose position is `below` first,
/// each side in its order in `from`; returns how many are below. The
/// store goes to one of two cursors without a branch.
fn split_stably(from: &[Sited], to: &mut [Sited], below: impl Fn(Point) -> bool) -> usize {
    let count = from.iter().filter(|&&(p, _)| below(p)).count();
    let (mut lo, mut hi) = (0, count);
    for &item in from {
        let is_below = below(item.0);
        to[if is_below { lo } else { hi }] = item;
        lo += usize::from(is_below);
        hi += usize::from(!is_below);
    }
    count
}

/// The lo and hi halves of the region of a zone at `depth`: even depths
/// split vertically (x), odd depths horizontally (y).
fn halves(region: Rect, depth: usize) -> (Rect, Rect) {
    let Rect { min, max } = region;
    if depth.is_multiple_of(2) {
        let mid = (min.x + max.x) / 2.0;
        (Rect { min, max: Point::new(mid, max.y) }, Rect { min: Point::new(mid, min.y), max })
    } else {
        let mid = (min.y + max.y) / 2.0;
        (Rect { min, max: Point::new(max.x, mid) }, Rect { min: Point::new(min.x, mid), max })
    }
}

/// The region of `field` that `code` names, halving as the build does.
fn region_of(field: Rect, code: ZoneCode) -> Rect {
    (0..code.len()).fold(field, |region, depth| {
        let (lo, hi) = halves(region, depth);
        if code.bit(depth) {
            hi
        } else {
            lo
        }
    })
}

/// `index` as the payload of a preorder entry (below [`EMPTY`]).
fn entry_index(index: usize) -> u32 {
    u32::try_from(index).ok().filter(|&i| i < EMPTY).expect("zone tree under 2^31 - 1 entries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool_netsim::node::Node as NetNode;

    /// The eight-sensor network of Figure 1(a), normalized to a unit field.
    fn figure1_topology() -> (Topology, Rect) {
        let field = Rect::square(1.0);
        let positions = [
            (0.2, 0.2),  // zone 00
            (0.1, 0.7),  // zone 010
            (0.35, 0.7), // zone 011
            (0.6, 0.2),  // zone 100
            (0.8, 0.2),  // zone 101
            (0.6, 0.7),  // zone 110
            (0.8, 0.6),  // zone 1110
            (0.8, 0.9),  // zone 1111
        ];
        let nodes = positions
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| NetNode::new(NodeId(i as u32), Point::new(x, y)))
            .collect();
        (Topology::build(nodes, 2.0).unwrap(), field)
    }

    #[test]
    fn figure1_zone_codes() {
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        let mut codes: Vec<String> = tree.zones().iter().map(|z| z.code.to_string()).collect();
        codes.sort();
        let mut expect = vec!["00", "010", "011", "100", "101", "110", "1110", "1111"];
        expect.sort_unstable();
        assert_eq!(codes, expect);
    }

    #[test]
    fn figure1_owners_match_their_zone() {
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        for (i, zone) in tree.zones().iter().enumerate() {
            assert!(
                tree.region(i).contains(topo.position(zone.owner)),
                "owner of {} outside its region",
                zone.code
            );
        }
    }

    #[test]
    fn figure1_exact_query_hits_expected_zones() {
        // §1: Q = <[0.6,0.8], [0.6,0.65], [0.45,0.6]> involves zones 110,
        // 1111 and 1110.
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        let hits: Vec<String> = tree
            .zones_overlapping(&[(0.6, 0.8), (0.6, 0.65), (0.45, 0.6)])
            .iter()
            .map(|z| z.code.to_string())
            .collect();
        assert_eq!(hits, vec!["110", "1110", "1111"]);
    }

    #[test]
    fn figure1_partial_query_spans_half_the_network() {
        // §1: Q = <*, [0.6,0.7], [0.4,0.6]> is collected from zones 010,
        // 011, 110, 1111 and 1110 — half the sensors.
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        let hits: Vec<String> = tree
            .zones_overlapping(&[(0.0, 1.0), (0.6, 0.7), (0.4, 0.6)])
            .iter()
            .map(|z| z.code.to_string())
            .collect();
        assert_eq!(hits, vec!["010", "011", "110", "1110", "1111"]);
    }

    #[test]
    fn zones_partition_the_field() {
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        let area: f64 = (0..tree.zones().len()).map(|i| tree.region(i).area()).sum();
        assert!((area - field.area()).abs() < 1e-9);
        // Codes are prefix-free.
        for (i, a) in tree.zones().iter().enumerate() {
            for b in &tree.zones()[i + 1..] {
                assert!(!a.code.is_prefix_of(&b.code) && !b.code.is_prefix_of(&a.code));
            }
        }
    }

    #[test]
    fn event_maps_to_exactly_one_zone_with_prefix_code() {
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        let probes = [
            [0.1, 0.1, 0.1],
            [0.9, 0.9, 0.9],
            [0.3, 0.8, 0.2],
            [0.51, 0.49, 0.99],
            [0.62, 0.71, 0.44],
        ];
        for values in probes {
            let zone = tree.zone_of_event(&values);
            let event_code = ZoneCode::of_event(&values, zone.code.len());
            assert_eq!(event_code, zone.code, "event {values:?}");
            // The zone's attribute region contains the event.
            for (i, (lo, hi)) in zone.code.attribute_ranges(3).into_iter().enumerate() {
                assert!(values[i] >= lo && values[i] <= hi, "dim {i} of {values:?}");
            }
        }
    }

    #[test]
    fn overlapping_zones_include_the_storing_zone() {
        // Soundness: a matching event's zone is always in the overlap set.
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        let query = [(0.2, 0.7), (0.1, 0.8), (0.3, 0.9)];
        let overlapping: Vec<ZoneCode> =
            tree.zones_overlapping(&query).iter().map(|z| z.code).collect();
        let steps = 8;
        for a in 0..=steps {
            for b in 0..=steps {
                for c in 0..=steps {
                    let v =
                        [a as f64 / steps as f64, b as f64 / steps as f64, c as f64 / steps as f64];
                    let matches = (0..3).all(|i| v[i] >= query[i].0 && v[i] <= query[i].1);
                    if matches {
                        let zone = tree.zone_of_event(&v);
                        assert!(overlapping.contains(&zone.code), "event {v:?}");
                    }
                }
            }
        }
    }

    /// Oracle for the overlap walk, sharing no code with the tree: every
    /// zone, in zone order, whose attribute ranges
    /// ([`ZoneCode::attribute_ranges`]) meet the query in every dimension
    /// as closed intervals — none for a query outside the unit cube.
    fn brute_force_overlaps(tree: &ZoneTree, query: &[(f64, f64)]) -> Vec<usize> {
        if query.iter().any(|&(ql, qu)| ql > 1.0 || qu < 0.0) {
            return Vec::new();
        }
        let meets = |zone: &Zone| {
            let ranges = zone.code.attribute_ranges(query.len());
            ranges.iter().zip(query).all(|(&(lo, hi), &(ql, qu))| ql <= hi && lo <= qu)
        };
        (0..tree.zones().len()).filter(|&i| meets(&tree.zones()[i])).collect()
    }

    /// Oracle for the event lookup: the one zone whose code prefixes the
    /// event's code ([`ZoneCode::of_event`]) at the tree's full depth.
    fn brute_force_zone_of(tree: &ZoneTree, values: &[f64]) -> usize {
        let code = ZoneCode::of_event(values, tree.depth());
        let hits: Vec<usize> =
            (0..tree.zones().len()).filter(|&i| tree.zones()[i].code.is_prefix_of(&code)).collect();
        assert_eq!(hits.len(), 1, "event {values:?} prefixes zones {hits:?}");
        hits[0]
    }

    /// On random deployments (co-located nodes included, so the depth guard
    /// ends a branch at 60 bits) and random exact, partial, point and
    /// midpoint-aligned queries, the flat walk yields the brute force's
    /// zones in zone order and the `&Zone` wrappers agree with the indices;
    /// every query bound, read as an event, lands in the zone its code
    /// prefixes — on a split midpoint too.
    #[test]
    fn flat_walk_matches_brute_force_over_every_zone() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let check = |tree: &ZoneTree, query: &[(f64, f64)], context: &str| {
            let want = brute_force_overlaps(tree, query);
            let mut got = Vec::new();
            tree.for_each_overlapping(query, |idx| got.push(idx));
            assert_eq!(got, want, "{context} query {query:?}");
            let zones = tree.zones_overlapping(query);
            assert_eq!(zones.len(), want.len());
            for (zone, &idx) in zones.iter().zip(&want) {
                assert!(std::ptr::eq(*zone, &tree.zones()[idx]));
            }
            for corner in [0, 1] {
                let point: Vec<f64> =
                    query.iter().map(|&(lo, hi)| if corner == 0 { lo } else { hi }).collect();
                if point.iter().any(|v| !(0.0..=1.0).contains(v)) {
                    continue;
                }
                let idx = tree.zone_index_of_event(&point);
                assert_eq!(idx, brute_force_zone_of(tree, &point), "{context} event {point:?}");
                assert!(std::ptr::eq(tree.zone_of_event(&point), &tree.zones()[idx]));
                assert!(got.contains(&idx), "a query's corner lies in a zone it overlaps");
            }
        };
        let field = Rect::square(100.0);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(20..120usize);
            let mut nodes: Vec<NetNode> = (0..n)
                .map(|i| {
                    let p = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                    NetNode::new(NodeId(i as u32), p)
                })
                .collect();
            for extra in 0..3 {
                let twin = nodes[extra * 5].position;
                nodes.push(NetNode::new(NodeId((n + extra) as u32), twin));
            }
            let topo = Topology::build(nodes, 150.0).unwrap();
            let tree = ZoneTree::build(&topo, field);
            assert_eq!(tree.depth(), 60, "co-located nodes must reach the depth guard");
            for case in 0..200 {
                let k = rng.gen_range(1..=4usize);
                // Dyadic bounds land exactly on split midpoints.
                let bound = |rng: &mut StdRng| match case % 4 {
                    0 => rng.gen_range(0..=16u32) as f64 / 16.0,
                    _ => rng.gen_range(0.0..1.0),
                };
                let query: Vec<(f64, f64)> = (0..k)
                    .map(|dim| {
                        let (a, b) = (bound(&mut rng), bound(&mut rng));
                        match (case / 4 + dim) % 5 {
                            0 => (0.0, 1.0),
                            1 => (a, a),
                            _ => (a.min(b), a.max(b)),
                        }
                    })
                    .collect();
                check(&tree, &query, &format!("seed {seed} case {case}"));
            }
        }
        // A query outside the unit cube overlaps nothing.
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        check(&tree, &[(0.6, 0.8), (0.6, 0.65), (0.45, 0.6)], "figure 1");
        for query in [[(1.5, 2.0), (0.0, 1.0)], [(0.0, 1.0), (-1.0, -0.5)]] {
            check(&tree, &query, "outside the cube");
            assert!(tree.zones_overlapping(&query).is_empty());
        }
    }

    /// The recursive build the one-pass build replaced, kept as its
    /// oracle: a `Vec<NodeId>` partition per split, a position lookup per
    /// id, and each zone's region carried down and stored. Returns the
    /// zones as `(code, region, owner)` and the preorder entries.
    fn reference_build(
        topology: &Topology,
        field: Rect,
    ) -> (Vec<(ZoneCode, Rect, NodeId)>, Vec<u32>) {
        fn split(
            topology: &Topology,
            region: Rect,
            ids: Vec<NodeId>,
            code: ZoneCode,
            depth: usize,
            zones: &mut Vec<(ZoneCode, Rect, NodeId)>,
            entries: &mut Vec<u32>,
        ) {
            if ids.len() <= 1 || depth >= 60 {
                let owner = match ids.first() {
                    Some(&id) => id,
                    None => topology.nearest_node(region.center()),
                };
                entries.push(zones.len() as u32);
                zones.push((code, region, owner));
                return;
            }
            let vertical = depth.is_multiple_of(2);
            let (lo_region, hi_region) = if vertical {
                let mid = (region.min.x + region.max.x) / 2.0;
                (
                    Rect::new(region.min, Point::new(mid, region.max.y)),
                    Rect::new(Point::new(mid, region.min.y), region.max),
                )
            } else {
                let mid = (region.min.y + region.max.y) / 2.0;
                (
                    Rect::new(region.min, Point::new(region.max.x, mid)),
                    Rect::new(Point::new(region.min.x, mid), region.max),
                )
            };
            let (lo_ids, hi_ids): (Vec<NodeId>, Vec<NodeId>) = ids.into_iter().partition(|&id| {
                let p = topology.position(id);
                if vertical {
                    p.x < lo_region.max.x
                } else {
                    p.y < lo_region.max.y
                }
            });
            let at = entries.len();
            entries.push(INTERNAL);
            split(topology, lo_region, lo_ids, code.child(false), depth + 1, zones, entries);
            entries[at] = INTERNAL | entries.len() as u32;
            split(topology, hi_region, hi_ids, code.child(true), depth + 1, zones, entries);
        }
        let ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        let (mut zones, mut entries) = (Vec::new(), Vec::new());
        split(topology, field, ids, ZoneCode::root(), 0, &mut zones, &mut entries);
        (zones, entries)
    }

    /// The bits of a rectangle's four coordinates.
    fn rect_bits(r: Rect) -> [u64; 4] {
        [r.min.x.to_bits(), r.min.y.to_bits(), r.max.x.to_bits(), r.max.y.to_bits()]
    }

    /// A field whose corners are not dyadic, so two ways of halving it
    /// round differently and a derived region matches the build's only if
    /// it halves exactly as the build does.
    fn odd_field() -> Rect {
        Rect::new(Point::new(-3.7, 1.3), Point::new(97.1, 101.9))
    }

    /// A random deployment of `n` nodes on [`odd_field`], with ids shuffled
    /// against positions. Clustered draws leave most of the field empty;
    /// `stacks` piles of 2–4 co-located nodes are mixed in, each pile's ids
    /// drawn at random so the lowest is not the first placed.
    fn random_topology(seed: u64, n: usize, clustered: bool, stacks: usize) -> Topology {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spots: Vec<Point> = (0..n)
            .map(|_| {
                let (side, at) = if clustered { (12.0, 30.0) } else { (100.0, 0.0) };
                let min = odd_field().min;
                Point::new(
                    min.x + at + rng.gen_range(0.0..side),
                    min.y + at + rng.gen_range(0.0..side),
                )
            })
            .collect();
        for _ in 0..stacks {
            let pile = spots[rng.gen_range(0..spots.len())];
            for _ in 0..rng.gen_range(1..=3) {
                spots.push(pile);
            }
        }
        let mut ids: Vec<u32> = (0..spots.len() as u32).collect();
        ids.shuffle(&mut rng);
        let nodes = spots.iter().zip(&ids).map(|(&p, &id)| NetNode::new(NodeId(id), p)).collect();
        Topology::build(nodes, 150.0).unwrap()
    }

    /// Asserts that `tree` is `reference` exactly: the same entries, and
    /// zone by zone the same code, owner and region, bit for bit.
    fn assert_matches_reference(
        tree: &ZoneTree,
        reference: &(Vec<(ZoneCode, Rect, NodeId)>, Vec<u32>),
        context: &str,
    ) {
        let (zones, entries) = reference;
        assert_eq!(&tree.entries, entries, "{context}: entries");
        assert_eq!(tree.zones().len(), zones.len(), "{context}: zone count");
        for (i, (zone, &(code, region, owner))) in tree.zones().iter().zip(zones).enumerate() {
            assert_eq!((zone.code, zone.owner), (code, owner), "{context}: zone {i}");
            assert_eq!(rect_bits(tree.region(i)), rect_bits(region), "{context}: region of {i}");
        }
    }

    #[test]
    fn a_zone_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Zone>(), 24);
    }

    /// The one-pass build is the recursive reference on random uniform and
    /// clustered deployments: the same entries, codes, owners and regions,
    /// empty zones and depth-guard piles included — where a pile's owner is
    /// its lowest id.
    #[test]
    fn one_pass_build_matches_the_recursive_reference() {
        let field = odd_field();
        let mut empty_zones = 0;
        for seed in 0..12u64 {
            let topo = random_topology(seed, 30 + 40 * seed as usize, seed % 3 == 2, 4);
            let tree = ZoneTree::build(&topo, field);
            assert_matches_reference(
                &tree,
                &reference_build(&topo, field),
                &format!("seed {seed}"),
            );
            assert_eq!(tree.depth(), MAX_DEPTH, "seed {seed}: every pile reaches the guard");
            for (i, zone) in tree.zones().iter().enumerate() {
                if zone.code.len() == MAX_DEPTH {
                    let pile = topo.nodes_within(topo.position(zone.owner), 0.0);
                    assert!(pile.len() > 1, "seed {seed}: a guard zone holds a pile");
                    assert_eq!(zone.owner, pile[0], "seed {seed}: the pile's first id owns it");
                }
                // An owner outside its zone backs an empty one.
                empty_zones += usize::from(!tree.region(i).contains(topo.position(zone.owner)));
            }
        }
        assert!(empty_zones > 100, "empty zones exercised: {empty_zones}");
        // One node, and the eight of Figure 1.
        let lone =
            Topology::build(vec![NetNode::new(NodeId(0), Point::new(5.0, 5.0))], 1.0).unwrap();
        let tree = ZoneTree::build(&lone, field);
        assert_matches_reference(&tree, &reference_build(&lone, field), "one node");
        assert_eq!(tree.zones(), &[Zone { code: ZoneCode::root(), owner: NodeId(0) }]);
        let (topo, field) = figure1_topology();
        let tree = ZoneTree::build(&topo, field);
        assert_matches_reference(&tree, &reference_build(&topo, field), "figure 1");
    }

    /// After random deaths and moves, `re_elect_owners` elects exactly the
    /// owners the reference elects from its stored regions, and reports
    /// exactly the zones that changed hands.
    #[test]
    fn re_election_matches_the_reference_regions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let field = odd_field();
        for seed in 0..8u64 {
            let mut topo = random_topology(100 + seed, 150, seed % 2 == 1, 3);
            let mut tree = ZoneTree::build(&topo, field);
            let (reference, _) = reference_build(&topo, field);
            let mut owners: Vec<NodeId> = reference.iter().map(|&(_, _, owner)| owner).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for epoch in 0..4 {
                let n = topo.len() as u32;
                let pick = |rng: &mut StdRng| NodeId(rng.gen_range(0..n));
                let dead: Vec<NodeId> = (0..rng.gen_range(1..12)).map(|_| pick(&mut rng)).collect();
                topo.fail_nodes(&dead);
                let mut displaced = Vec::new();
                for _ in 0..rng.gen_range(0..10) {
                    let id = pick(&mut rng);
                    if topo.is_alive(id) && topo.alive_count() > 1 {
                        let to = Point::new(rng.gen_range(-3.0..97.0), rng.gen_range(2.0..101.0));
                        topo.move_node(id, to);
                        displaced.push(id);
                    }
                }
                let mut want = Vec::new();
                for (i, &(_, region, _)) in reference.iter().enumerate() {
                    let old = owners[i];
                    if !topo.is_alive(old) || displaced.contains(&old) {
                        let elected = topo.nearest_node(region.center());
                        if elected != old {
                            want.push((i, old, elected));
                            owners[i] = elected;
                        }
                    }
                }
                let got = tree.re_elect_owners(&topo, &displaced);
                assert_eq!(got, want, "seed {seed} epoch {epoch}");
                let now: Vec<NodeId> = tree.zones().iter().map(|z| z.owner).collect();
                assert_eq!(now, owners, "seed {seed} epoch {epoch}");
            }
        }
    }

    #[test]
    fn larger_network_zones_scale_with_nodes() {
        use pool_netsim::deployment::{Deployment, Placement};
        let field = Rect::square(200.0);
        let nodes = Deployment::new(field, 150, Placement::Uniform, 5).nodes();
        let topo = Topology::build(nodes, 40.0).unwrap();
        let tree = ZoneTree::build(&topo, field);
        // At least one zone per node (empty siblings may add more).
        assert!(tree.zones().len() >= 150);
        // Every node owns at least one zone.
        let mut owners: Vec<NodeId> = tree.zones().iter().map(|z| z.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(owners.len(), 150);
    }
}

#[cfg(test)]
mod physical_reading_tests {
    use super::*;
    use pool_netsim::deployment::{Deployment, Placement};

    /// The double reading is consistent: every zone's code equals the
    /// physical reading of its own region's center — DIM's defining
    /// property tying attribute space to the field.
    #[test]
    fn zone_codes_equal_physical_reading_of_their_region() {
        let field = Rect::square(150.0);
        let nodes = Deployment::new(field, 60, Placement::Uniform, 9).nodes();
        let topo = Topology::build(nodes, 40.0).unwrap();
        let tree = ZoneTree::build(&topo, field);
        for (i, zone) in tree.zones().iter().enumerate() {
            let region = tree.region(i);
            let derived = ZoneCode::of_position(region.center(), field, zone.code.len());
            assert_eq!(derived, zone.code, "zone {} region {region:?}", zone.code);
        }
    }

    /// Owners sit inside regions whose physical reading prefixes their
    /// zone's code.
    #[test]
    fn owner_positions_read_back_to_their_codes() {
        let field = Rect::square(120.0);
        let nodes = Deployment::new(field, 50, Placement::Uniform, 12).nodes();
        let topo = Topology::build(nodes, 40.0).unwrap();
        let tree = ZoneTree::build(&topo, field);
        for (i, zone) in tree.zones().iter().enumerate() {
            let owner_pos = topo.position(zone.owner);
            if tree.region(i).contains(owner_pos) {
                let reading = ZoneCode::of_position(owner_pos, field, zone.code.len());
                assert_eq!(reading, zone.code);
            }
        }
    }
}
