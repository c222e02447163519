//! The paper's §3–§4 narrative as one executable walkthrough: every worked
//! example runs against a *deployed* system (real routing, real message
//! accounting), not just the pure math.

use pool_dcs::core::grid::CellCoord;
use pool_dcs::core::{Event, PoolConfig, PoolSystem, RangeQuery, RepairQueue};
use pool_dcs::netsim::{Deployment, NodeId, Placement, Rect, Topology};

/// A dense 100 m network hosting exactly Figure 2's pool layout
/// (l = 5, pivots C(1,2), C(2,10), C(7,3)).
fn figure2_system() -> PoolSystem {
    let mut seed = 7u64;
    loop {
        let dep = Deployment::new(Rect::square(100.0), 250, Placement::Uniform, seed);
        let topo = Topology::build(dep.nodes(), 30.0).unwrap();
        if topo.is_connected() {
            let config = PoolConfig::paper().with_pool_side(5).with_pivots(vec![
                CellCoord::new(1, 2),
                CellCoord::new(2, 10),
                CellCoord::new(7, 3),
            ]);
            return PoolSystem::build(topo, Rect::square(100.0), config).unwrap();
        }
        seed += 1;
    }
}

#[test]
fn section_3_and_4_walkthrough() {
    let mut pool = figure2_system();
    let sink = NodeId(42);

    // --- §3.1.2: inserting E = <0.4, 0.3, 0.1> ---------------------------
    // "the est value 0.4 falls within [0.4, 0.6) ... the second est
    //  value 0.3 falls within [0.24, 0.36) of the cell at the third column
    //  and third row (i.e. C(3,4)) of P1. Thus, E is stored in C(3,4)."
    let receipt = pool.insert_from(NodeId(3), Event::new(vec![0.4, 0.3, 0.1]).unwrap()).unwrap();
    assert_eq!(receipt.placement.pool_dim, 0, "E goes to P1");
    assert_eq!(receipt.placement.cell, CellCoord::new(3, 4));

    // --- Example 3.1 / Figure 4: exact-match resolving -------------------
    // Q = <[0.2,0.3], [0.25,0.35], [0.21,0.24]> touches exactly C(2,5) in
    // P1, C(3,12) and C(3,13) in P2, and nothing in P3.
    let q31 = RangeQuery::exact(vec![(0.2, 0.3), (0.25, 0.35), (0.21, 0.24)]).unwrap();
    let plan = pool.explain(sink, &q31).unwrap();
    let cells: Vec<(usize, CellCoord)> =
        plan.pools.iter().flat_map(|p| p.cells.iter().map(move |c| (p.dim, c.cell))).collect();
    assert_eq!(
        cells,
        vec![(0, CellCoord::new(2, 5)), (1, CellCoord::new(3, 12)), (1, CellCoord::new(3, 13)),]
    );
    assert!(plan.pools[2].pruned, "no cell of P3 is relevant (Figure 4c)");

    // Running the query over the network finds nothing yet — our stored
    // event <0.4, 0.3, 0.1> does not satisfy Q (V1 = 0.4 > 0.3).
    let result = pool.query_from(sink, &q31).unwrap();
    assert!(result.events.is_empty());
    assert_eq!(result.relevant_cells, 3);
    assert_eq!(result.pools_visited, 2, "P3 is never contacted");

    // Store a qualifying event and ask again: <0.28, 0.34, 0.22> is the
    // kind of event the theorem's R_H = [0.25, 0.35] (not the example
    // prose's [0.25, 0.3]) exists to catch — stored in P2 by its greatest
    // value 0.34.
    let witness = Event::new(vec![0.28, 0.34, 0.22]).unwrap();
    let receipt = pool.insert_from(NodeId(9), witness.clone()).unwrap();
    assert_eq!(receipt.placement.pool_dim, 1);
    let result = pool.query_from(sink, &q31).unwrap();
    assert_eq!(result.events, vec![witness]);

    // --- Example 3.2 / Figure 5: partial-match resolving ------------------
    // Q = <*, *, [0.8, 0.84]> resolves to C(5,6) in P1, C(6,14) in P2, and
    // the column C(11,3)..C(11,7) in P3.
    let q32 = RangeQuery::from_bounds(vec![None, None, Some((0.8, 0.84))]).unwrap();
    let plan = pool.explain(sink, &q32).unwrap();
    let mut cells: Vec<(usize, CellCoord)> =
        plan.pools.iter().flat_map(|p| p.cells.iter().map(move |c| (p.dim, c.cell))).collect();
    cells.sort();
    assert_eq!(
        cells,
        vec![
            (0, CellCoord::new(5, 6)),
            (1, CellCoord::new(6, 14)),
            (2, CellCoord::new(11, 3)),
            (2, CellCoord::new(11, 4)),
            (2, CellCoord::new(11, 5)),
            (2, CellCoord::new(11, 6)),
            (2, CellCoord::new(11, 7)),
        ]
    );
    // The §2 rewrite makes this partial query flow through the same
    // mechanism: 7 of 75 cells — "a large number of cells can be screened".
    assert!(plan.pruned_fraction() > 0.9);

    // --- §4.1: multiple greatest values -----------------------------------
    // E = <0.4, 0.4, 0.2> has candidates in P1 and P2; exactly one copy is
    // stored (at the candidate closest to the detection point), and the
    // query mechanism still retrieves it without extra forwarding.
    let tied = Event::new(vec![0.4, 0.4, 0.2]).unwrap();
    let before = pool.store().len();
    let receipt = pool.insert_from(NodeId(100), tied.clone()).unwrap();
    assert_eq!(pool.store().len(), before + 1, "one copy only");
    assert!(receipt.placement.pool_dim <= 1);
    let q41 = RangeQuery::exact(vec![(0.35, 0.45), (0.35, 0.45), (0.1, 0.3)]).unwrap();
    let result = pool.query_from(sink, &q41).unwrap();
    assert_eq!(result.events, vec![tied]);

    // --- Final integrity audit --------------------------------------------
    let audit = pool.audit(&RepairQueue::default());
    assert!(audit.is_healthy(), "{:?}", audit.violations);
}
