//! The loss-free delivery path allocates nothing: a packet following a path
//! and a single reply retracing one are charged and timed by reading the
//! path where it lies, and a one-hop leg is two node ids, not a route. Every
//! chain leg of a DIM query pays all of it, so an allocation anywhere here
//! is a cost per leg.

use pool_gpsr::Planarization;
use pool_netsim::deployment::Deployment;
use pool_netsim::topology::Topology;
use pool_transport::{CachedTransport, GpsrTransport, Leg, TrafficLayer, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn clean_forward_and_single_reply_deliveries_do_not_allocate() {
    let deployment = Deployment::paper_setting(200, 40.0, 20.0, 5).expect("deployment");
    let topology = Topology::build(deployment.nodes(), 40.0).expect("topology");
    let mut transport = GpsrTransport::new(&topology, Planarization::Gabriel);
    let (from, to) = (topology.nodes()[0].id, topology.nodes()[150].id);
    let route = transport.route_to_node(&topology, from, to).expect("route");
    assert!(route.hops() > 1);

    let mut messages = 0;
    let forward = allocations_during(|| {
        messages += transport.deliver(&topology, &route.path, TrafficLayer::Forward).transmissions;
    });
    let reply = allocations_during(|| {
        let back = transport.deliver_reverse(&topology, &route.path, 1, TrafficLayer::Reply);
        messages += back.transmissions;
    });
    assert_eq!(messages, 2 * route.hops() as u64);
    assert_eq!((forward, reply), (0, 0), "allocations per (forward, single-copy reply) delivery");

    // The counter does count: several copies are interleaved through the
    // event queue, which owns its legs.
    let fanout = allocations_during(|| {
        transport.deliver_reverse(&topology, &route.path, 3, TrafficLayer::Reply);
    });
    assert!(fanout > 0);
}

#[test]
fn a_one_hop_leg_is_routed_delivered_and_retraced_without_allocating() {
    let deployment = Deployment::paper_setting(200, 40.0, 20.0, 5).expect("deployment");
    let topology = Topology::build(deployment.nodes(), 40.0).expect("topology");
    let from = topology.nodes()[0].id;
    let to = topology.neighbors(from)[0];
    let mut cached = CachedTransport::new(&topology, Planarization::Gabriel);
    let mut reference = GpsrTransport::new(&topology, Planarization::Gabriel);
    for transport in [&mut cached as &mut dyn Transport, &mut reference] {
        let mut leg = None;
        let routed = allocations_during(|| leg = Some(transport.leg_to_node(&topology, from, to)));
        let leg = leg.expect("ran").expect("a neighbour is reachable");
        assert_eq!(leg, Leg::Hop([from, to]), "{:?}", transport.kind());
        let mut messages = 0;
        let delivered = allocations_during(|| {
            messages +=
                transport.deliver(&topology, leg.path(), TrafficLayer::Forward).transmissions;
            let back = transport.deliver_reverse(&topology, leg.path(), 1, TrafficLayer::Reply);
            messages += back.transmissions;
        });
        let dropped = allocations_during(|| drop(leg));
        assert_eq!(messages, 2);
        assert_eq!(
            (routed, delivered, dropped),
            (0, 0, 0),
            "{:?}: allocations per (route, deliver, drop)",
            transport.kind()
        );
    }
    assert_eq!(cached.bypassed(), 1, "the lookup is counted as a bypass");
}
