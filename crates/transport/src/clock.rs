//! The virtual clock: latency and queueing accounting for deliveries.
//!
//! The paper's evaluation counts messages; the ROADMAP's north star also
//! needs *time*. [`VirtualClock`] is the latency ledger that sits next to
//! the [`crate::TrafficLedger`]: every transmission a transport charges is
//! also timed — per-hop propagation latency plus a per-node queueing model
//! in which a busy sender serializes its transmissions (configurable
//! service time). Fan-out (reply copies, replication mirrors, per-cell
//! query legs) is driven through the deterministic
//! [`pool_netsim::schedule::EventQueue`], so branches overlap in virtual
//! time instead of summing serially, while transmissions that share a
//! sender still queue behind each other.
//!
//! Determinism contract: the clock advances on virtual quantities only
//! (hop counts, service times, seq-ordered event pops). Identical
//! workloads produce bit-identical timestamps on any machine and at any
//! bench `--jobs` count.

use pool_netsim::node::NodeId;
use pool_netsim::schedule::{EventQueue, SimTime};

/// The per-hop timing model.
///
/// Defaults match the former discrete-event simulator's 1 ms per-hop
/// latency, plus a 0.5 ms transmit service time (the slot a sender's radio
/// is occupied per transmission; queued transmissions wait for it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Propagation + reception latency of one hop, in seconds.
    pub hop_latency: f64,
    /// Time the sender's radio is busy per transmission, in seconds.
    pub service_time: f64,
}

impl LatencyModel {
    /// Creates a model with the given per-hop latency and service time.
    ///
    /// # Panics
    ///
    /// Panics if either duration is negative or not finite.
    pub fn new(hop_latency: f64, service_time: f64) -> Self {
        assert!(hop_latency.is_finite() && hop_latency >= 0.0, "invalid hop latency");
        assert!(service_time.is_finite() && service_time >= 0.0, "invalid service time");
        LatencyModel { hop_latency, service_time }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel { hop_latency: 1e-3, service_time: 0.5e-3 }
    }
}

/// One hop of a delivery, with the number of transmissions the link layer
/// actually made on it (1 for loss-free links; first attempt plus every
/// ARQ retransmission for lossy ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Transmissions made on this hop (≥ 1; every attempt pays its own
    /// service time and hop latency).
    pub transmissions: u64,
    /// Total ARQ backoff the sender waited on this hop, in seconds. Zero
    /// for fixed-timeout ARQ; adaptive recovery accrues exponential delays
    /// here so retries are no longer latency-free.
    pub backoff: f64,
}

impl Hop {
    /// A hop with `transmissions` attempts and no backoff delay.
    pub fn new(from: NodeId, to: NodeId, transmissions: u64) -> Self {
        Hop { from, to, transmissions, backoff: 0.0 }
    }
}

/// Event payload inside [`VirtualClock::time_fanout`]: which leg is ready
/// to process its next hop.
struct LegCursor {
    leg: usize,
    hop: usize,
}

/// The latency ledger: per-node busy state plus a monotone-per-operation
/// cursor of virtual time.
///
/// The cursor is *not* globally monotone: operations that fan out
/// bracket their branches by [`VirtualClock::seek`]ing back to the branch
/// point, so sibling branches start at the same instant. Per-node
/// `busy_until` state persists across seeks — a node transmitting on one
/// branch is still busy when a sibling branch reaches it, which is exactly
/// the queueing the model wants (shared senders serialize; disjoint
/// branches overlap).
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualClock {
    model: LatencyModel,
    cursor: SimTime,
    busy_until: Vec<SimTime>,
    rx: Vec<u64>,
}

impl VirtualClock {
    /// Creates a clock for a network of `n` nodes.
    pub fn new(n: usize, model: LatencyModel) -> Self {
        VirtualClock { model, cursor: 0.0, busy_until: vec![0.0; n], rx: vec![0; n] }
    }

    /// The timing model.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// Moves the cursor to `t`. Backward seeks are how operations bracket
    /// fan-out: save [`VirtualClock::now`], run one branch, seek back, run
    /// the next, then seek to the maximum branch end.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN or negative.
    pub fn seek(&mut self, t: SimTime) {
        assert!(t.is_finite() && t >= 0.0, "invalid clock seek to {t}");
        self.cursor = t;
    }

    /// Per-node reception counts: one per timed transmission, charged to
    /// its receiver (the senders' counts are the ledger's node loads).
    pub fn rx_counts(&self) -> &[u64] {
        &self.rx
    }

    /// Times one transmission burst: `hop.transmissions` back-to-back
    /// attempts on `hop.from → hop.to` starting no earlier than `t`.
    /// Returns the arrival time of the last attempt, including any accrued
    /// ARQ backoff. Self-hops take no time.
    fn time_hop(&mut self, hop: Hop, mut t: SimTime) -> SimTime {
        if hop.from == hop.to {
            return t;
        }
        let f = hop.from.index();
        for _ in 0..hop.transmissions {
            let start = if self.busy_until[f] > t { self.busy_until[f] } else { t };
            self.busy_until[f] = start + self.model.service_time;
            self.rx[hop.to.index()] += 1;
            // The next ARQ attempt waits for the missing-ack timeout, which
            // this model equates with one hop latency.
            t = start + self.model.service_time + self.model.hop_latency;
        }
        // Backoff delays are waiting, not transmitting: they push the
        // arrival later but leave the sender's radio idle.
        t + hop.backoff
    }

    /// Times one delivery leg (a sequence of hops starting at the cursor),
    /// advances the cursor to its end, and returns the elapsed time.
    pub fn time_leg(&mut self, hops: &[Hop]) -> f64 {
        self.time_hops(hops.iter().copied())
    }

    /// [`VirtualClock::time_leg`] of a loss-free traversal of `path`
    /// (`time_leg(&clean_hops(path))`), read off the path itself.
    pub fn time_path(&mut self, path: &[NodeId]) -> f64 {
        self.time_hops(clean_hops_forward(path))
    }

    fn time_hops(&mut self, hops: impl Iterator<Item = Hop>) -> f64 {
        let start = self.cursor;
        let mut t = start;
        for hop in hops {
            t = self.time_hop(hop, t);
        }
        self.cursor = t;
        t - start
    }

    /// Times `copies` loss-free packets retracing `path` from its last node
    /// to its first, launched concurrently at the cursor:
    /// [`VirtualClock::time_fanout`] of `copies` reversed
    /// [`clean_hops`] legs, to the bit.
    pub fn time_path_reversed(&mut self, path: &[NodeId], copies: u64) -> f64 {
        if copies != 1 {
            let leg: Vec<Hop> = clean_hops_backward(path).collect();
            return self.time_fanout(&vec![leg; copies as usize]);
        }
        // A lone leg has nothing to interleave with, so its hops run in
        // order without the event queue. The queue keeps offsets from the
        // launch instant — a hop starts at `start + (arrival - start)`, not
        // at `arrival` — and so must this, or the last bit differs.
        let start = self.cursor;
        let mut arrival = start;
        let mut offset = 0.0;
        for hop in clean_hops_backward(path) {
            arrival = self.time_hop(hop, start + offset);
            offset = arrival - start;
        }
        let end = if arrival > start { arrival } else { start };
        self.cursor = end;
        end - start
    }

    /// Times `legs` launched concurrently at the cursor, interleaving their
    /// hops in virtual-time order through a fresh [`EventQueue`] (FIFO on
    /// ties, so the interleaving is deterministic). Advances the cursor to
    /// the latest leg end and returns the elapsed time.
    ///
    /// Legs that share a sender serialize on its radio; disjoint legs
    /// overlap. An empty set of legs takes no time.
    pub fn time_fanout(&mut self, legs: &[Vec<Hop>]) -> f64 {
        let start = self.cursor;
        let mut queue: EventQueue<LegCursor> = EventQueue::new();
        // EventQueue clocks start at zero; schedule relative to `start`.
        for (leg, hops) in legs.iter().enumerate() {
            if !hops.is_empty() {
                queue
                    .schedule(0.0, LegCursor { leg, hop: 0 })
                    .expect("fan-out legs launch at the branch point");
            }
        }
        let mut end = start;
        while let Some((t, cursor)) = queue.pop() {
            let hop = legs[cursor.leg][cursor.hop];
            let arrival = self.time_hop(hop, start + t);
            let next = cursor.hop + 1;
            if next < legs[cursor.leg].len() {
                queue
                    .schedule(arrival - start, LegCursor { leg: cursor.leg, hop: next })
                    .expect("hop arrivals never precede their launch");
            } else if arrival > end {
                end = arrival;
            }
        }
        self.cursor = end;
        end - start
    }

    /// Grows the clock to track `n` nodes: joiners start idle with zeroed
    /// counters; the cursor, busy state, and counters of existing nodes are
    /// untouched. A no-op when the clock already covers `n` nodes.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.busy_until.len() {
            self.busy_until.resize(n, 0.0);
            self.rx.resize(n, 0);
        }
    }
}

/// Builds the hop list of a loss-free traversal of `path` (one
/// transmission per hop, self-hops skipped).
pub fn clean_hops(path: &[NodeId]) -> Vec<Hop> {
    clean_hops_forward(path).collect()
}

fn clean_hops_forward(path: &[NodeId]) -> impl Iterator<Item = Hop> + '_ {
    path.windows(2).filter(|w| w[0] != w[1]).map(|w| Hop::new(w[0], w[1], 1))
}

/// [`clean_hops`] of `path` reversed.
fn clean_hops_backward(path: &[NodeId]) -> impl Iterator<Item = Hop> + '_ {
    path.windows(2).rev().filter(|w| w[0] != w[1]).map(|w| Hop::new(w[1], w[0], 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(hop: f64, service: f64) -> LatencyModel {
        LatencyModel::new(hop, service)
    }

    #[test]
    fn a_leg_pays_service_plus_latency_per_hop() {
        let mut clock = VirtualClock::new(3, model(1.0, 0.5));
        let elapsed = clock.time_leg(&clean_hops(&[NodeId(0), NodeId(1), NodeId(2)]));
        // Each hop: 0.5 service + 1.0 latency.
        assert!((elapsed - 3.0).abs() < 1e-12, "got {elapsed}");
        assert_eq!(clock.now(), elapsed);
        assert_eq!(clock.rx_counts(), &[0, 1, 1]);
        assert_eq!(clock.busy_until, vec![0.5, 2.0, 0.0]);
    }

    #[test]
    fn retransmissions_each_pay_their_own_way() {
        let mut clock = VirtualClock::new(2, model(1.0, 0.5));
        let elapsed = clock.time_leg(&[Hop::new(NodeId(0), NodeId(1), 3)]);
        assert!((elapsed - 4.5).abs() < 1e-12, "got {elapsed}");
        assert_eq!(clock.rx_counts()[1], 3);
        // Attempts start at 0, 1.5 and 3.0 (each waits out the ack timeout).
        assert_eq!(clock.busy_until[0], 3.5);
    }

    #[test]
    fn backoff_extends_latency_but_not_busy_time() {
        let mut plain = VirtualClock::new(2, model(1.0, 0.5));
        let mut delayed = VirtualClock::new(2, model(1.0, 0.5));
        let base = plain.time_leg(&[Hop::new(NodeId(0), NodeId(1), 2)]);
        let hop = Hop { backoff: 0.25, ..Hop::new(NodeId(0), NodeId(1), 2) };
        let slow = delayed.time_leg(&[hop]);
        assert!((slow - base - 0.25).abs() < 1e-12, "got {slow} vs {base}");
        // Waiting out a backoff is idle time, not radio time: the radio
        // frees at the same instant.
        assert_eq!(plain.busy_until, delayed.busy_until);
        assert_eq!(plain.rx_counts(), delayed.rx_counts());
    }

    #[test]
    fn zero_backoff_is_bit_identical_to_the_old_timing() {
        let mut a = VirtualClock::new(3, model(1.0, 0.5));
        let mut b = VirtualClock::new(3, model(1.0, 0.5));
        let hops = clean_hops(&[NodeId(0), NodeId(1), NodeId(2)]);
        let explicit: Vec<Hop> = hops.iter().map(|h| Hop { backoff: 0.0, ..*h }).collect();
        assert_eq!(a.time_leg(&hops), b.time_leg(&explicit));
        assert_eq!(a, b);
    }

    #[test]
    fn self_hops_take_no_time() {
        let mut clock = VirtualClock::new(1, LatencyModel::default());
        let elapsed = clock.time_leg(&clean_hops(&[NodeId(0), NodeId(0)]));
        assert_eq!(elapsed, 0.0);
        assert_eq!(clock.rx_counts()[0], 0);
    }

    #[test]
    fn disjoint_fanout_overlaps() {
        let mut clock = VirtualClock::new(4, model(1.0, 0.5));
        let legs = vec![clean_hops(&[NodeId(0), NodeId(1)]), clean_hops(&[NodeId(2), NodeId(3)])];
        let elapsed = clock.time_fanout(&legs);
        // Both single-hop legs run concurrently: max, not sum.
        assert!((elapsed - 1.5).abs() < 1e-12, "got {elapsed}");
    }

    #[test]
    fn shared_sender_serializes_fanout() {
        let mut clock = VirtualClock::new(3, model(1.0, 0.5));
        let legs = vec![clean_hops(&[NodeId(0), NodeId(1)]), clean_hops(&[NodeId(0), NodeId(2)])];
        let elapsed = clock.time_fanout(&legs);
        // The second copy queues behind the first on node 0's radio:
        // starts at 0.5, arrives at 2.0.
        assert!((elapsed - 2.0).abs() < 1e-12, "got {elapsed}");
        assert_eq!(clock.busy_until[0], 1.0);
    }

    #[test]
    fn fanout_of_nothing_is_free() {
        let mut clock = VirtualClock::new(2, LatencyModel::default());
        clock.seek(5.0);
        assert_eq!(clock.time_fanout(&[]), 0.0);
        assert_eq!(clock.time_fanout(&[Vec::new()]), 0.0);
        assert_eq!(clock.now(), 5.0);
    }

    #[test]
    fn seek_brackets_preserve_busy_state() {
        let mut clock = VirtualClock::new(3, model(1.0, 0.5));
        let t0 = clock.now();
        clock.time_leg(&clean_hops(&[NodeId(0), NodeId(1)]));
        let first_end = clock.now();
        clock.seek(t0);
        // Same sender again from the same branch point: it is still busy
        // from the first branch, so this one queues.
        let second = clock.time_leg(&clean_hops(&[NodeId(0), NodeId(2)]));
        assert!((second - 2.0).abs() < 1e-12, "got {second}");
        assert!(clock.now() > first_end);
    }

    #[test]
    fn fanout_matches_serial_legs_when_disjoint_in_time() {
        // One leg only: fan-out must equal the plain serial leg timing.
        let mut a = VirtualClock::new(3, model(2.0, 0.25));
        let mut b = VirtualClock::new(3, model(2.0, 0.25));
        let hops = clean_hops(&[NodeId(0), NodeId(1), NodeId(2)]);
        let ea = a.time_leg(&hops);
        let eb = b.time_fanout(std::slice::from_ref(&hops));
        assert_eq!(ea, eb);
        assert_eq!(a, b);
    }

    /// Oracle: the path-reading timers against the hop-vector ones they
    /// replaced on the loss-free delivery path — `time_leg` over
    /// `clean_hops`, and `time_fanout` over `copies` clones of the reversed
    /// `clean_hops` — on random paths with self-hops and revisited nodes,
    /// from a clock whose senders are still busy from earlier legs. The
    /// whole clock and the returned latency must agree to the bit.
    #[test]
    fn path_timers_match_the_hop_vector_reference_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const NODES: u32 = 12;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let random_path = |rng: &mut StdRng| -> Vec<NodeId> {
            let len = rng.gen_range(1..=9usize);
            let mut path = vec![NodeId(rng.gen_range(0..NODES))];
            while path.len() < len {
                let last = *path.last().expect("non-empty");
                // One step in four repeats the node it stands on.
                let next = if rng.gen_bool(0.25) { last } else { NodeId(rng.gen_range(0..NODES)) };
                path.push(next);
            }
            path
        };
        for case in 0..400 {
            let mut new = VirtualClock::new(NODES as usize, model(1e-3 * 1.1, 0.5e-3 / 3.0));
            // Early instants matter: `arrival - start` rounds only while the
            // leg is long against the time already on the clock.
            new.seek(if (case / 6) % 2 == 0 {
                rng.gen_range(0.0..0.004)
            } else {
                rng.gen_range(0.0..50.0)
            });
            for _ in 0..rng.gen_range(0..4usize) {
                new.time_path(&random_path(&mut rng));
            }
            // Some legs start before the radios they need fall idle.
            new.seek(new.now() * rng.gen_range(0.5..1.0));
            let mut old = new.clone();
            let path = random_path(&mut rng);

            let forward = old.time_leg(&clean_hops(&path));
            assert_eq!(new.time_path(&path).to_bits(), forward.to_bits(), "case {case}");
            assert_eq!(new, old, "case {case}: forward {path:?}");

            let copies = case % 6;
            let back: Vec<NodeId> = path.iter().rev().copied().collect();
            let legs: Vec<Vec<Hop>> = (0..copies).map(|_| clean_hops(&back)).collect();
            let reverse = old.time_fanout(&legs);
            let got = new.time_path_reversed(&path, copies);
            assert_eq!(got.to_bits(), reverse.to_bits(), "case {case}: {copies} x {path:?}");
            assert_eq!(new, old, "case {case}: {copies} x {path:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid clock seek")]
    fn seek_rejects_negative_time() {
        let mut clock = VirtualClock::new(1, LatencyModel::default());
        clock.seek(-1.0);
    }
}
