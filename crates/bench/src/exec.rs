//! Deterministic parallel trial execution.
//!
//! The §5 evaluation is a grid of *independent trials* — network sizes ×
//! seeds × substrates × radios — yet a naive harness runs every replica
//! serially on one core. This module is the missing execution engine:
//!
//! * [`run_trials`] — a hand-rolled scoped worker pool over
//!   [`std::thread`] (no external dependencies; the vendored compat crates
//!   are stubs). Workers pull trial indices from a shared queue and write
//!   results into per-index slots, so aggregation order — and therefore
//!   every emitted byte — is independent of the worker count.
//! * [`Trial`] — the unit of work: one [`WorkloadSpec`] plus a routing
//!   substrate, evaluated to one [`Measurement`].
//! * [`derive_seed`] — the per-trial seed derivation (splitmix64 over the
//!   base seed and a stream index). Figures whose serial loops used
//!   to thread one RNG through every point now give each trial its own
//!   derived stream, which is what makes the points schedulable in any
//!   order on any number of workers.
//!
//! # Determinism contract
//!
//! A trial may depend only on its input: it builds its own deployment,
//! transport, [`TrafficLedger`](pool_transport::TrafficLedger), and
//! [`Tracer`](pool_transport::Tracer), and draws randomness only from RNGs
//! seeded by its spec. Under that contract `run_trials` guarantees the
//! returned `Vec` is byte-for-byte identical for any `jobs ≥ 1` — the
//! property pinned by `tests/determinism.rs`.

use crate::harness::{self, Measurement};
use pool_transport::TransportKind;
use pool_workloads::scenario::WorkloadSpec;

// The scoped worker pool and seed derivation now live in the substrate
// crate (`pool_netsim::exec`) so non-bench consumers — notably the
// service layer's per-shard executor — schedule on the same engine.
// Re-exported here because the figures import them from `crate::exec`.
pub use pool_netsim::exec::{derive_seed, run_trials};

/// One schedulable unit of the §5 evaluation grid: a complete workload
/// specification plus the routing substrate to execute it on.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The experimental condition (deployment, events, queries, seed).
    pub spec: WorkloadSpec,
    /// The routing substrate both systems ride.
    pub transport: TransportKind,
}

impl Trial {
    /// A trial of `spec` on the reference GPSR substrate.
    pub fn new(spec: WorkloadSpec) -> Self {
        Trial { spec, transport: TransportKind::Gpsr }
    }

    /// Selects the routing substrate.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Executes the trial: builds the paired deployment (its own transport,
    /// ledger, and tracer — nothing shared with any other trial), loads the
    /// workload, and measures the query phase.
    ///
    /// Seeding is identical to the serial harness: everything derives from
    /// `spec.seed`, so `Trial::run` on a worker thread reproduces
    /// [`harness::run_spec`] exactly.
    pub fn run(&self) -> Measurement {
        harness::run_spec_with_transport(&self.spec, self.transport)
    }
}

/// Runs a suite of trials on `jobs` workers, preserving submission order
/// in the returned measurements.
pub fn run_suite(jobs: usize, trials: Vec<Trial>) -> Vec<Measurement> {
    run_trials(jobs, trials, |_, trial| trial.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_matches_serial_run_spec() {
        let mut spec = pool_workloads::scenario::WorkloadSpec::fig6_exponential(150);
        spec.query_count = 3;
        spec.events_per_node = 1;
        let serial = harness::run_spec(&spec);
        let trial = Trial::new(spec).run();
        assert_eq!(format!("{serial:?}"), format!("{trial:?}"));
    }

    #[test]
    fn suite_is_jobs_invariant() {
        let mut specs = Vec::new();
        for nodes in [150, 180] {
            let mut spec = pool_workloads::scenario::WorkloadSpec::fig6_exponential(nodes);
            spec.query_count = 3;
            spec.events_per_node = 1;
            specs.push(spec);
        }
        let trials: Vec<Trial> = specs.into_iter().map(Trial::new).collect();
        let serial = run_suite(1, trials.clone());
        let parallel = run_suite(4, trials);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
}
