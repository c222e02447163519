//! A topology decides its connectivity once per snapshot. The memoised
//! `largest_component` must equal a fresh breadth-first search after every
//! write — a death, a join, a move, a compaction — a clone taken before a
//! write must keep its own verdict, and asking again on an unchanged
//! snapshot must not run the search again: counted here as allocations.

use pool_netsim::deployment::{Deployment, Placement};
use pool_netsim::geometry::{Point, Rect};
use pool_netsim::node::{Node, NodeId};
use pool_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

fn allocations_during<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = run();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Size of the largest component of live nodes, by a breadth-first search
/// over the public neighbour rows that shares no code with the topology's.
fn fresh_bfs(topo: &Topology) -> usize {
    let mut seen = vec![false; topo.len()];
    let mut best = 0;
    for start in 0..topo.len() {
        if seen[start] || !topo.is_alive(NodeId(start as u32)) {
            continue;
        }
        seen[start] = true;
        let mut queue = vec![NodeId(start as u32)];
        let mut next = 0;
        while let Some(&u) = queue.get(next) {
            next += 1;
            for &v in topo.neighbors(u) {
                if !std::mem::replace(&mut seen[v.index()], true) {
                    queue.push(v);
                }
            }
        }
        best = best.max(queue.len());
    }
    best
}

/// Seven nodes on a line, one metre apart, with a 1.5 m radio: a path, so
/// every death, join or move in its middle changes the answer.
fn line() -> Topology {
    let nodes = (0..7).map(|i| Node::new(NodeId(i), Point::new(f64::from(i), 0.0))).collect();
    Topology::build(nodes, 1.5).expect("valid")
}

fn assert_memo_is_fresh(topo: &Topology, context: &str) {
    let want = fresh_bfs(topo);
    assert_eq!(topo.largest_component(), want, "{context}");
    assert_eq!(topo.is_connected(), want == topo.alive_count(), "{context}");
}

/// Each of the four mutators, applied after the verdict was memoised,
/// leaves a verdict equal to a fresh search — and the first three change
/// the answer, so a stale memo would show.
#[test]
fn every_mutator_drops_the_memoised_verdict() {
    let mut topo = line();
    assert_eq!(topo.largest_component(), 7);

    topo.fail_nodes(&[NodeId(3)]);
    assert_memo_is_fresh(&topo, "after a death");
    assert_eq!(topo.largest_component(), 3);

    let joiner = topo.add_node(Point::new(3.0, 0.5));
    assert_memo_is_fresh(&topo, "after a join");
    assert_eq!((joiner, topo.largest_component()), (NodeId(7), 7));

    topo.move_node(NodeId(6), Point::new(40.0, 0.0));
    assert_memo_is_fresh(&topo, "after a move");
    assert_eq!(topo.largest_component(), 6);

    assert!(!topo.compact().is_empty());
    assert_memo_is_fresh(&topo, "after a compaction");
    assert_eq!(topo.largest_component(), 6);
}

/// Seeded random writes on a 120-node deployment, the verdict asked for
/// before each write (so one is always memoised) and checked after it.
#[test]
fn random_writes_keep_the_verdict_fresh() {
    for seed in 0..6u64 {
        let nodes = Deployment::new(Rect::square(100.0), 120, Placement::Uniform, seed).nodes();
        let mut topo = Topology::build(nodes, 16.0).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..60 {
            topo.largest_component();
            let any = NodeId(rng.gen_range(0..topo.len() as u32));
            let spot = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            match rng.gen_range(0..4) {
                0 => topo.fail_nodes(&[any]),
                1 => {
                    topo.add_node(spot);
                }
                2 if topo.is_alive(any) => topo.move_node(any, spot),
                _ => {
                    topo.compact();
                }
            }
            assert_memo_is_fresh(&topo, &format!("seed {seed} step {step}"));
        }
    }
}

/// A clone copies the verdict it was taken with; a write to either side
/// changes only that side's.
#[test]
fn a_clone_keeps_its_own_verdict() {
    let mut topo = line();
    assert!(topo.is_connected());
    let before = topo.clone();
    topo.fail_nodes(&[NodeId(2)]);
    assert!(!topo.is_connected());
    assert_eq!(topo.largest_component(), 4);
    assert!(before.is_connected());
    assert_eq!(before.largest_component(), 7);

    // Cloned before anyone asked: each side searches its own snapshot.
    let fresh = line();
    let mut written = fresh.clone();
    written.move_node(NodeId(0), Point::new(-10.0, 0.0));
    assert_eq!((fresh.largest_component(), written.largest_component()), (7, 6));
}

/// The second `is_connected` on an unchanged snapshot allocates nothing,
/// and neither does a clone's; a write makes the next one search again.
#[test]
fn asking_again_on_an_unchanged_snapshot_allocates_nothing() {
    let nodes = Deployment::new(Rect::square(100.0), 400, Placement::Uniform, 3).nodes();
    let mut topo = Topology::build(nodes, 20.0).expect("valid");
    let (first, verdict) = allocations_during(|| topo.is_connected());
    assert!(first > 0, "the first verdict runs the search");
    let (second, again) = allocations_during(|| topo.is_connected());
    assert_eq!((second, again), (0, verdict));
    let clone = topo.clone();
    let (cloned, _) = allocations_during(|| clone.is_connected());
    assert_eq!(cloned, 0, "a clone carries the verdict");

    topo.fail_nodes(&[NodeId(5)]);
    let (after_write, _) = allocations_during(|| topo.is_connected());
    assert!(after_write > 0, "a write drops the verdict");
    let (then, _) = allocations_during(|| topo.require_connected());
    assert_eq!(then, 0);
}
