//! A sharded Pool backend builds one system and clones it for every
//! further shard, and a clone shares the topology and the planar graph.
//! Counted in bytes under a counting allocator: a 3-shard
//! `PoolBackend::build` over a 10k-node network may allocate what a
//! 1-shard build does plus, per further shard, its own ledger and clock
//! rows — the mutable state a shard must own — and a small slack. Building
//! each shard from scratch planarises the network again per shard and
//! passes the bound by far.

use pool_core::config::PoolConfig;
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::Rect;
use pool_netsim::topology::Topology;
use pool_service::PoolBackend;
use pool_transport::{TrafficLayer, TransportKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
const SHARDS: usize = 3;
/// What a clone may allocate beyond its ledger and clock rows: the route
/// memo's empty shards, the grid, layout and index-node tables.
const SLACK: usize = 32 * 1024;

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
fn further_shards_allocate_only_their_ledger_and_clock_rows() {
    let (topology, field) = network();
    let n = topology.len();
    let config = PoolConfig::paper().with_dims(SHARDS).with_transport(TransportKind::Cached);
    let build = |shards| {
        let topology = topology.clone();
        bytes_during(|| PoolBackend::build(topology, field, config.clone(), shards).expect("valid"))
    };
    let (one, built) = build(1);
    drop(built);
    let (three, (_, shards)) = build(SHARDS);
    assert_eq!(shards.len(), SHARDS);

    // Per node: one `u64` a ledger layer, and the clock's busy-until time
    // and receive count.
    let rows = n * (TrafficLayer::ALL.len() * 8 + 8 + 8);
    let bound = one + (SHARDS - 1) * (rows + SLACK);
    println!("1 shard: {one} B; {SHARDS} shards: {three} B; bound {bound} B");
    assert!(
        three <= bound,
        "a {SHARDS}-shard build allocated {three} B; 1 shard {one} B, bound {bound} B"
    );
}
