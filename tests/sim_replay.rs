//! Ground-truth validation of the latency ledger: GPSR routes are replayed
//! through the transport's delivery path, and both ledgers — the message
//! ledger and the virtual clock — must agree with analytically computed
//! per-hop expectations. This replaces the old callback-simulator replay:
//! the [`pool_dcs::netsim::schedule::EventQueue`]-backed clock is now the
//! clock of record, so the analytic cross-check targets it directly.

use pool_dcs::gpsr::{Gpsr, Planarization};
use pool_dcs::netsim::{Deployment, NodeId, Topology};
use pool_dcs::transport::{
    LatencyModel, LossyConfig, LossyTransport, TrafficLayer, Transport, TransportKind,
};

fn connected_topology(n: usize, mut seed: u64) -> Topology {
    loop {
        let dep = Deployment::paper_setting(n, 40.0, 20.0, seed).unwrap();
        let topo = Topology::build(dep.nodes(), 40.0).unwrap();
        if topo.is_connected() {
            return topo;
        }
        seed += 1;
    }
}

/// Per-hop cost of one serial delivery: every hop pays the sender's
/// service time plus the link propagation latency.
fn serial_leg_seconds(hops: usize, model: LatencyModel) -> f64 {
    hops as f64 * (model.service_time + model.hop_latency)
}

#[test]
fn gpsr_paths_replay_exactly_through_the_transport() {
    let topo = connected_topology(300, 42);
    let gpsr = Gpsr::new(&topo, Planarization::Gabriel);

    // Compute 40 routes analytically.
    let mut routes = Vec::new();
    for i in 0..40u32 {
        let from = NodeId(i * 7 % 300);
        let to = NodeId((i * 31 + 5) % 300);
        routes.push(gpsr.route_to_node(&topo, from, to).unwrap());
    }
    let expected_hops: u64 = routes.iter().map(|r| r.hops() as u64).sum();

    // Replay them through the transport's delivery path. Deliveries are
    // serial, so each one must cost exactly hops * (service + latency) of
    // virtual time and charge exactly one message per hop.
    let mut transport = TransportKind::Gpsr.build(&topo, Planarization::Gabriel);
    let model = transport.clock().model();
    for route in &routes {
        let before = transport.clock().now();
        let outcome = transport.deliver(&topo, &route.path, TrafficLayer::Forward);
        assert!(outcome.delivered, "loss-free transport delivers every packet");
        assert_eq!(outcome.reached, route.delivered);
        assert_eq!(outcome.transmissions, route.hops() as u64);
        let expected = serial_leg_seconds(route.hops(), model);
        assert!(
            (outcome.latency - expected).abs() < 1e-9,
            "latency {} vs analytic {expected} for a {}-hop route",
            outcome.latency,
            route.hops()
        );
        assert!(
            (transport.clock().now() - before - outcome.latency).abs() < 1e-9,
            "the clock of record must advance by exactly the reported latency"
        );
    }

    assert_eq!(
        transport.ledger().total_messages(),
        expected_hops,
        "message ledger must equal the analytic hop count"
    );
    let clock_rx: u64 = transport.clock().rx_counts().iter().sum();
    assert_eq!(clock_rx, expected_hops, "every timed transmission has exactly one receive");
}

#[test]
fn per_node_loads_match_between_ledgers() {
    let topo = connected_topology(200, 9);
    let gpsr = Gpsr::new(&topo, Planarization::Gabriel);
    let mut sent = vec![0u64; topo.len()];
    let mut received = vec![0u64; topo.len()];
    let mut routes = Vec::new();
    for i in 0..25u32 {
        let route = gpsr.route_to_node(&topo, NodeId(i), NodeId(199 - i)).unwrap();
        for w in route.path.windows(2) {
            if w[0] != w[1] {
                sent[w[0].index()] += 1;
                received[w[1].index()] += 1;
            }
        }
        routes.push(route);
    }
    let mut transport = TransportKind::Gpsr.build(&topo, Planarization::Gabriel);
    for route in &routes {
        transport.deliver(&topo, &route.path, TrafficLayer::Forward);
    }
    // The analytic per-node counts against the one book of each side: the
    // message ledger for senders, the clock for receivers.
    assert_eq!(transport.ledger().node_loads(), sent, "ledger sender loads");
    assert_eq!(transport.clock().rx_counts(), &received[..], "clock receive counts");
    let clock_rx: u64 = transport.clock().rx_counts().iter().sum();
    assert_eq!(clock_rx, transport.ledger().total_messages());
}

#[test]
fn reply_fanout_makespan_matches_the_pipeline_formula() {
    let topo = connected_topology(300, 42);
    let mut transport = TransportKind::Gpsr.build(&topo, Planarization::Gabriel);
    let route = transport.route_to_node(&topo, NodeId(3), NodeId(250)).unwrap();
    let hops = route.path.len() - 1;
    assert!(hops >= 2, "need a multi-hop route for the pipeline to matter");

    // All copies retrace the same reversed path, so every sender is shared:
    // the fan-out pipelines, and the makespan is one full leg plus one
    // service slot per extra copy — strictly less than the serial sum.
    let copies = 5u64;
    let model = transport.clock().model();
    let before = transport.clock().now();
    let rev = transport.deliver_reverse(&topo, &route.path, copies, TrafficLayer::Reply);
    assert_eq!(rev.delivered_copies, copies);
    assert_eq!(rev.transmissions, copies * hops as u64);
    let expected = serial_leg_seconds(hops, model) + (copies - 1) as f64 * model.service_time;
    assert!(
        (rev.latency - expected).abs() < 1e-9,
        "fan-out makespan {} vs pipeline formula {expected}",
        rev.latency
    );
    assert!(rev.latency < copies as f64 * serial_leg_seconds(hops, model));
    assert!((transport.clock().now() - before - rev.latency).abs() < 1e-9);
}

#[test]
fn lossy_retransmissions_pay_virtual_time_and_stay_conserved() {
    let topo = connected_topology(250, 7);
    let inner = TransportKind::Gpsr.build(&topo, Planarization::Gabriel);
    let mut transport = LossyTransport::wrap(inner, LossyConfig::fixed(0.7, 99));
    let model = transport.clock().model();

    let mut loss_free = 0.0;
    for i in 0..30u32 {
        let route = transport.route_to_node(&topo, NodeId(i * 5 % 250), NodeId(249 - i)).unwrap();
        let path = route.path.clone();
        let before = transport.clock().now();
        let outcome = transport.deliver(&topo, &path, TrafficLayer::Forward);
        assert!(
            (transport.clock().now() - before - outcome.latency).abs() < 1e-9,
            "clock advance must equal the reported latency even under ARQ"
        );
        if outcome.delivered {
            let floor = serial_leg_seconds(path.len() - 1, model);
            assert!(
                outcome.latency >= floor - 1e-9,
                "a delivered packet cannot beat the loss-free time"
            );
            if outcome.retransmissions > 0 {
                assert!(outcome.latency > floor, "retransmissions must cost extra time");
            }
        }
        loss_free += serial_leg_seconds(path.len() - 1, model);
    }

    let stats = transport.delivery_stats();
    assert!(stats.retransmissions > 0, "p=0.7 over 30 multi-hop routes must drop something");
    assert!(
        transport.clock().now() > loss_free,
        "total virtual time must exceed the loss-free floor once ARQ kicks in"
    );
    // Conservation: every transmission in the message ledger — first
    // attempts and retransmissions alike — was timed, and each timed
    // transmission has exactly one receive.
    let clock_rx: u64 = transport.clock().rx_counts().iter().sum();
    assert_eq!(clock_rx, transport.ledger().total_messages());
}
