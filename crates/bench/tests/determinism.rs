//! The determinism contract, pinned (DESIGN.md §11).
//!
//! A trial depends only on its input and owns all of its mutable state,
//! so the aggregated artifact must be byte-identical for any `--jobs`
//! value. These tests run the figures that exercise the most machinery —
//! fig6 (panel sweep + substrate ablation), load_balance (lossy radio +
//! sharing + delegation chains), latency, churn and service — through the
//! registry at smoke scale on one worker and on eight, and require the
//! serialized JSON to match byte for byte. A scheduling-dependent RNG draw, a shared ledger, or an
//! order-sensitive aggregation all show up here as a diff.

use pool_bench::exec::run_trials;
use pool_bench::figures;
use pool_bench::harness::{QueryKind, Scenario, SystemPair};
use pool_core::config::PoolConfig;
use pool_workloads::events::EventDistribution;
use pool_workloads::queries::RangeSizeDistribution;

/// Compile-time proof that whole systems move into worker threads. If a
/// future change slips an `Rc`, raw pointer, or thread-bound handle into
/// a system (or a transport impl), this stops compiling — long before a
/// heisenbug shows up in a parallel sweep.
#[allow(dead_code)]
fn systems_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<pool_core::PoolSystem>();
    assert_send::<pool_dim::DimSystem>();
    assert_send::<pool_bench::harness::SystemPair>();
    assert_send::<pool_bench::Trial>();
}

/// Compile-time proof that service handles are shareable across client
/// threads (`&ServiceHandle` from N threads at once). The router is
/// immutable and every shard sits behind a `Mutex`, so `Sync` must hold
/// for all three backends; an interior-mutability slip (`Cell`, `Rc`, a
/// non-`Sync` cache) stops compiling here.
#[allow(dead_code)]
fn service_handles_are_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<pool_service::ServiceHandle<pool_service::PoolBackend>>();
    assert_sync::<pool_service::ServiceHandle<pool_service::DimBackend>>();
    assert_sync::<pool_service::ServiceHandle<pool_service::GhtBackend>>();
}

/// `figure`'s artifact JSON from `pool-bench <figure> --smoke --jobs <jobs>`.
fn smoke_json(figure: &str, jobs: &str) -> String {
    let (figure, args) = figures::parse(&[figure, "--smoke", "--jobs", jobs]).expect("valid argv");
    (figure.run)(&args).table.to_json()
}

/// Runs `figure` at smoke scale on one worker and on eight.
fn assert_jobs_invariant(figure: &str) {
    assert_eq!(
        smoke_json(figure, "1"),
        smoke_json(figure, "8"),
        "{figure} artifact differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn fig6_json_is_jobs_invariant() {
    assert_jobs_invariant("fig6");
}

#[test]
fn load_balance_json_is_jobs_invariant() {
    assert_jobs_invariant("load_balance");
}

/// The latency artifact is the determinism contract's sharpest probe:
/// every cell is a virtual-time percentile, so any scheduling-dependent
/// clock advance shows up as a diff.
#[test]
fn latency_profile_json_is_jobs_invariant() {
    assert_jobs_invariant("latency_profile");
}

/// Churn trials mutate topologies, grow ledgers, and drain repair queues
/// mid-flight; none of that may depend on which worker runs the level.
#[test]
fn churn_json_is_jobs_invariant() {
    assert_jobs_invariant("churn_resilience");
}

/// The service artifact layers admission windows, coalesced units,
/// per-shard queues, and the parallel shard executor on top of the
/// ordinary trial machinery; serve() must stay byte-identical whatever
/// the worker count, both across trials and *within* each serve call.
#[test]
fn service_json_is_jobs_invariant() {
    assert_jobs_invariant("service_load");
}

/// One trial's complete virtual-time trace, every float captured bit-exact.
type EventTrace = (Vec<(u32, u32, u64, u64)>, Vec<u64>, Vec<u64>, u64);

/// Identical workloads must yield identical *event traces* — not just
/// identical aggregated tables — no matter how trials map onto workers.
/// Each trial replays a small SystemPair workload and returns the full
/// timeline: every traced span (endpoints plus bit-exact start/end
/// timestamps), the ledger's per-node send counts, the clock's per-node
/// receive counts, and the final virtual time. Busy time is sends ×
/// service time, so the send counts pin it too. Running the same four
/// trials on one worker and on eight must reproduce every bit.
#[test]
fn event_traces_are_jobs_invariant() {
    fn traces(jobs: usize) -> Vec<EventTrace> {
        run_trials(jobs, vec![0u64, 1, 2, 3], |_, seed| {
            let scenario =
                Scenario { events_per_node: 2, ..Scenario::paper(150, 93_000 + seed * 0x1000) };
            let mut pair =
                SystemPair::build(&scenario, PoolConfig::paper(), EventDistribution::Uniform);
            let dims = pair.pool.config().dims;
            let kind = QueryKind::Exact(RangeSizeDistribution::Exponential { mean: 0.1 });
            for _ in 0..5 {
                let sink = pair.random_node();
                let query = kind.generate(pair.rng(), dims);
                pair.pool.query_from(sink, &query).expect("pool query");
            }
            let spans = pair
                .pool
                .tracer()
                .spans()
                .map(|s| (s.origin.0, s.destination.0, s.start.to_bits(), s.end.to_bits()))
                .collect();
            let clock = pair.pool.transport().clock();
            (
                spans,
                pair.pool.ledger().node_loads(),
                clock.rx_counts().to_vec(),
                clock.now().to_bits(),
            )
        })
    }
    assert_eq!(traces(1), traces(8), "event traces differ between --jobs 1 and --jobs 8");
}
