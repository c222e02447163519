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

/// A leaf zone of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// The zone's code.
    pub code: ZoneCode,
    /// The physical region of the field this zone covers.
    pub region: Rect,
    /// The sensor that owns (stores events for) this zone.
    pub owner: NodeId,
}

/// Flag bit of an internal entry of [`ZoneTree`]'s preorder array; the
/// other 31 bits index the entry's hi child. A leaf entry is a zone index.
const INTERNAL: u32 = 1 << 31;

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
}

impl ZoneTree {
    /// Builds the zone tree for `topology` over `field`.
    ///
    /// Splitting detail: even depths split vertically (x), odd depths
    /// horizontally (y), exactly like the code's physical reading.
    pub fn build(topology: &Topology, field: Rect) -> Self {
        let ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        let mut tree = ZoneTree { zones: Vec::new(), entries: Vec::new() };
        tree.split(topology, field, ids, ZoneCode::root(), 0);
        tree.zones.shrink_to_fit();
        tree.entries.shrink_to_fit();
        tree
    }

    /// Appends the subtree over `region` in preorder.
    fn split(
        &mut self,
        topology: &Topology,
        region: Rect,
        ids: Vec<NodeId>,
        code: ZoneCode,
        depth: usize,
    ) {
        // Depth guard: co-located nodes can never be separated by halving;
        // stop before the 64-bit code overflows and let the first node own
        // the merged zone.
        if ids.len() <= 1 || depth >= 60 {
            let owner = match ids.first() {
                Some(&id) => id,
                // Empty zone: backed by the network node nearest its center.
                None => topology.nearest_node(region.center()),
            };
            self.entries.push(entry_index(self.zones.len()));
            self.zones.push(Zone { code, region, owner });
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
                p.x < (lo_region.max.x)
            } else {
                p.y < (lo_region.max.y)
            }
        });
        let at = self.entries.len();
        self.entries.push(INTERNAL);
        self.split(topology, lo_region, lo_ids, code.child(false), depth + 1);
        self.entries[at] = INTERNAL | entry_index(self.entries.len());
        self.split(topology, hi_region, hi_ids, code.child(true), depth + 1);
    }

    /// All leaf zones, in code (DFS) order.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
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
                let elected = topology.nearest_node(zone.region.center());
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

/// `index` as the payload of a preorder entry.
fn entry_index(index: usize) -> u32 {
    u32::try_from(index).ok().filter(|&i| i & INTERNAL == 0).expect("zone tree under 2^31 entries")
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
        for zone in tree.zones() {
            assert!(
                zone.region.contains(topo.position(zone.owner)),
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
        let area: f64 = tree.zones().iter().map(|z| z.region.area()).sum();
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
        for zone in tree.zones() {
            let derived = ZoneCode::of_position(zone.region.center(), field, zone.code.len());
            assert_eq!(derived, zone.code, "zone {} region {:?}", zone.code, zone.region);
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
        for zone in tree.zones() {
            let owner_pos = topo.position(zone.owner);
            if zone.region.contains(owner_pos) {
                let reading = ZoneCode::of_position(owner_pos, field, zone.code.len());
                assert_eq!(reading, zone.code);
            }
        }
    }
}
