//! A topology's clone shares its arenas, so cloning costs no copy and a
//! write copies only the arenas it touches. Counted in bytes under a
//! counting allocator: a clone of a compacted 10k-node topology, a clone's
//! first one-node death, and a DIM system built over a clone against one
//! built over the shared snapshot itself.

use pool_dim::DimSystem;
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::{Node, NodeId};
use pool_netsim::topology::Topology;
use pool_transport::{Substrate, TransportKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes requested by this thread (tests run on threads of their own):
    /// an allocation's size, a reallocation's new size.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` of a `Copy`
// type with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|bytes| bytes.set(bytes.get() + new_size));
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn bytes_during<T>(run: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = run();
    (BYTES.with(Cell::get) - before, out)
}

const NODES: usize = 10_000;
const RANGE: f64 = 40.0;

/// A connected 10k-node deployment at the paper's density (20 neighbours)
/// and its field.
fn network() -> (Topology, Rect) {
    (0..)
        .find_map(|seed| {
            let deployment = Deployment::paper_setting(NODES, RANGE, 20.0, seed).expect("valid");
            let topology = Topology::build(deployment.nodes(), RANGE).expect("valid");
            topology.is_connected().then(|| (topology, deployment.field()))
        })
        .expect("some seed deploys a connected network")
}

#[test]
fn cloning_a_compacted_topology_allocates_at_most_a_kibibyte() {
    let (mut topology, _) = network();
    assert_eq!(topology.patched_rows(), 0, "a built topology is compacted");
    let (bytes, clone) = bytes_during(|| topology.clone());
    assert!(bytes <= 1024, "cloning a built 10k-node topology allocated {bytes} B");
    drop(clone);

    // Churned, then compacted: the overlay is empty again.
    let joiner = topology.add_node(topology.position(NodeId(3)));
    topology.move_node(NodeId(5), Point::new(1.0, 1.0));
    topology.fail_nodes(&[NodeId(8), joiner]);
    assert!(!topology.compact().is_empty());
    let (bytes, clone) = bytes_during(|| topology.clone());
    assert!(bytes <= 1024, "cloning a churned, compacted topology allocated {bytes} B");
    drop(clone);
}

/// A death writes the liveness flags (`n` bytes, copied from the shared
/// arena) and the overlay: its index (`4n` bytes, one `u32` a node) and
/// the victim's and its neighbours' rows, with a grid bucket — under
/// 16 KiB at this density. `5n + 16 KiB` in all, below either the node
/// records (`24n` bytes) or the adjacency links (`4` bytes a link end)
/// alone, so neither was copied.
#[test]
fn a_clones_first_death_copies_neither_the_links_nor_the_node_records() {
    let (topology, _) = network();
    let n = topology.len();
    let node_records = n * std::mem::size_of::<Node>();
    let link_ends: usize = topology.rows().map(|(_, row)| row.len()).sum();
    let links = link_ends * std::mem::size_of::<NodeId>();
    let bound = 5 * n + 16 * 1024;
    assert!(bound < node_records.min(links), "{bound} B vs {node_records} B and {links} B");

    let victim = NodeId(4_321);
    let (bytes, failed) = bytes_during(|| {
        let mut failed = topology.clone();
        failed.fail_nodes(&[victim]);
        failed
    });
    assert!(!failed.is_alive(victim) && topology.is_alive(victim));
    assert!(bytes <= bound, "clone + first death allocated {bytes} B (bound {bound} B)");
}

/// DIM built from a topology by value wraps it in an `Arc` of its own;
/// over a clone (through the benchmark's `build_with_substrate`) it must
/// allocate what a build over the shared snapshot does, give or take that
/// `Arc` — no copy of the arenas.
#[test]
fn dim_over_a_clone_allocates_what_dim_over_the_shared_snapshot_does() {
    let (topology, field) = network();
    let shared = Arc::new(topology);
    let (over_shared, system) = bytes_during(|| {
        let cached = Substrate { kind: TransportKind::Cached, ..Substrate::default() };
        DimSystem::build(Arc::clone(&shared), field, 3, &cached).expect("connected")
    });
    drop(system);
    let (over_clone, system) = bytes_during(|| {
        DimSystem::build_with_substrate(
            shared.as_ref().clone(),
            field,
            3,
            TransportKind::Cached,
            None,
        )
        .expect("connected")
    });
    drop(system);
    assert!(
        over_clone.abs_diff(over_shared) <= 1024,
        "DIM over a clone allocated {over_clone} B, over the shared snapshot {over_shared} B"
    );
}
