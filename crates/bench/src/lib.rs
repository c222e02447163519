//! # pool-bench — experiment harness for the Pool reproduction
//!
//! [`harness`] builds paired Pool/DIM deployments over identical networks
//! and workloads and measures per-query message costs, cross-validating
//! every result set against brute-force ground truth.
//!
//! [`exec`] is the deterministic parallel trial-execution engine: every
//! figure decomposes its sweep into independent trials and submits them
//! to a scoped worker pool (`--jobs N`), with per-trial seed derivation
//! and order-independent aggregation so the emitted JSON is
//! byte-identical for any worker count. [`report`] renders the aggregated
//! rows as TSV + canonical JSON artifacts.
//!
//! [`figures`] is the registry: one driver per figure, each listed in
//! [`figures::FIGURES`] with its artifact name and the flags it reads
//! (checked by [`cli`]). The crate's one binary runs them:
//! `pool-bench <figure> [flags]`, and `pool-bench list` prints the names;
//! see EXPERIMENTS.md at the workspace root for the full index.

#![warn(missing_docs)]

pub mod cli;
pub mod exec;
pub mod figures;
pub mod harness;
pub mod report;

pub use cli::BenchOpts;
pub use exec::{derive_seed, run_suite, run_trials, Trial};
pub use harness::{measure, Measurement, QueryKind, Scenario, SystemPair, LATENCY_COLUMNS};
pub use report::{Cell, Table};
