//! An event's values are one buffer for the event's whole life: cloning
//! an event copies a handle, so a cloned answer costs one allocation for
//! its `Vec` and none per event, and the answer a query hands back holds
//! the stored events' own buffers.

use pool_core::config::PoolConfig;
use pool_core::event::Event;
use pool_core::query::RangeQuery;
use pool_core::storage::CellStore;
use pool_core::system::PoolSystem;
use pool_netsim::deployment::Deployment;
use pool_netsim::geometry::Rect;
use pool_netsim::node::NodeId;
use pool_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` of a `Copy`
// type with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: `ptr` came from `System`; the rest is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

const NODES: usize = 150;
const DIMS: usize = 3;

fn topology(seed: u64) -> (Topology, Rect) {
    let mut seed = seed;
    loop {
        let dep = Deployment::paper_setting(NODES, 40.0, 20.0, seed).expect("deployment");
        let topo = Topology::build(dep.nodes(), 40.0).expect("topology");
        if topo.is_connected() {
            return (topo, dep.field());
        }
        seed = seed.wrapping_add(0x1000);
    }
}

fn random_event(rng: &mut StdRng) -> Event {
    Event::new((0..DIMS).map(|_| rng.gen_range(0.0..1.0)).collect()).unwrap()
}

fn random_query(rng: &mut StdRng) -> RangeQuery {
    let ranges = (0..DIMS)
        .map(|_| {
            let c = rng.gen_range(0.2..0.8);
            (c - 0.2, c + 0.2)
        })
        .collect();
    RangeQuery::exact(ranges).unwrap()
}

/// The value buffers of every event `store` holds.
fn stored_buffers(store: &CellStore) -> HashSet<*const f64> {
    store.iter().flat_map(|(_, stored)| stored.iter().map(|s| s.event.values().as_ptr())).collect()
}

#[test]
fn cloning_an_event_copies_a_handle_not_its_values() {
    let event = Event::new(vec![0.4, 0.3, 0.1]).unwrap();
    let mut copy = None;
    let allocations = allocations_during(|| copy = Some(event.clone()));
    assert_eq!(allocations, 0, "allocations per Event::clone");
    let copy = copy.expect("ran");
    assert_eq!(copy, event);
    assert_eq!(copy.values().as_ptr(), event.values().as_ptr());
}

#[test]
fn cloning_a_thousand_events_allocates_only_the_vec() {
    let mut rng = StdRng::seed_from_u64(0xC10E);
    let events: Vec<Event> = (0..1000).map(|_| random_event(&mut rng)).collect();
    let mut copy = None;
    let allocations = allocations_during(|| copy = Some(events.clone()));
    assert_eq!(allocations, 1, "allocations per clone of a 1000-event Vec");
    assert_eq!(copy.expect("ran"), events);
}

#[test]
fn a_query_answer_holds_the_stored_events_own_buffers() {
    let (topo, field) = topology(3301);
    let config = PoolConfig::paper().with_dims(DIMS).with_seed(31);
    let mut system = PoolSystem::build(topo, field, config).expect("system");
    let mut rng = StdRng::seed_from_u64(0x5A4E);
    for _ in 0..120 {
        let source = NodeId(rng.gen_range(0..NODES as u32));
        system.insert_from(source, random_event(&mut rng)).expect("insert");
    }
    let stored = stored_buffers(system.store());
    assert_eq!(stored.len(), system.store().len(), "every stored event has its own buffer");

    let mut answered = 0;
    for _ in 0..40 {
        let sink = NodeId(rng.gen_range(0..NODES as u32));
        let answer = system.query_from(sink, &random_query(&mut rng)).expect("query");
        for event in &answer.events {
            assert!(stored.contains(&event.values().as_ptr()), "{event} is a copy");
        }
        answered += answer.events.len();
    }
    assert!(answered > 40, "the queries must answer events, got {answered}");
}
