//! `ZoneTree::heap_bytes` reads the tree's heap from its arrays'
//! capacities; a counting allocator measures it. A build's transient
//! buffers are freed before it returns, so what a build leaves allocated
//! is what the tree holds.

use pool_dim::zone::ZoneTree;
use pool_netsim::deployment::{Deployment, Placement};
use pool_netsim::geometry::Rect;
use pool_netsim::topology::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds allocated (tests run on threads of their
    /// own), as a signed running balance: frees of memory allocated before
    /// a measurement may take it below where it started.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn add(bytes: isize) {
    LIVE.with(|live| live.set(live.get() + bytes));
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` of a `Copy`
// type with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `run` leaves allocated, and its result.
fn retained_by<T>(run: impl FnOnce() -> T) -> (isize, T) {
    let before = LIVE.with(Cell::get);
    let out = run();
    (LIVE.with(Cell::get) - before, out)
}

#[test]
fn heap_bytes_is_within_five_percent_of_what_the_build_retains() {
    for (n, seed) in [(2_000, 1), (10_000, 2)] {
        let field = Rect::square(1000.0);
        let nodes = Deployment::new(field, n, Placement::Uniform, seed).nodes();
        let topology = Topology::build(nodes, 40.0).expect("valid");
        let (retained, tree) = retained_by(|| ZoneTree::build(&topology, field));
        let claimed = tree.heap_bytes() as isize;
        assert!(
            (retained - claimed).abs() * 20 <= claimed,
            "{n} nodes: the build retained {retained} B, heap_bytes reads {claimed} B"
        );
        // 24 B a zone and 4 B an entry, with no slack past the zones.
        let zones = tree.zones().len();
        assert!(claimed as usize >= 24 * zones + 4 * (2 * zones - 1));
        assert!(claimed as usize <= 24 * zones + 4 * 3 * n + 4, "{n} nodes: {claimed} B");
    }
}
