//! The figure registry: every figure the reproduction ships, one driver
//! each.
//!
//! A driver is `run(&Args) -> Report`: it reads its flags from the checked
//! [`Args`], runs its trials, and returns the deterministic
//! [`Table`](crate::report::Table) that becomes its `BENCH_<artifact>.json`
//! artifact plus any stdout-only lines (wall-clock timings, summaries).
//! [`FIGURES`] lists them all with the flags each reads;
//! `pool-bench <figure> [flags]` runs one, `pool-bench list` prints the
//! names, and the determinism tests run them in-process through [`parse`].
//! The smoke configuration of a figure is simply its driver on `--smoke`.

use crate::cli::Args;
use crate::report::Report;

mod batch;
mod cell_size;
mod chaos;
mod churn;
mod dimensionality;
mod failure;
mod fig6;
mod fig7;
mod forwarding;
mod hotspot;
mod insertion;
mod latency;
mod lifetime;
mod load_balance;
mod lossy;
mod monitor;
mod pool_side;
mod scale;
mod selectivity;
mod service;

/// One registered figure.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `pool-bench` runs it by.
    pub name: &'static str,
    /// Its artifact is `BENCH_<artifact>.json`.
    pub artifact: &'static str,
    /// The flags it reads besides [`COMMON_FLAGS`](crate::cli::COMMON_FLAGS).
    pub flags: &'static [&'static str],
    /// The driver.
    pub run: fn(&Args) -> Report,
}

const fn figure(
    name: &'static str,
    artifact: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args) -> Report,
) -> Figure {
    Figure { name, artifact, flags, run }
}

const QUERIES_NODES: &[&str] = &["--queries", "--nodes"];
const NODES: &[&str] = &["--nodes"];

/// Every figure, in the order the bench-smoke gate runs them.
pub const FIGURES: [Figure; 20] = [
    figure(
        "fig6",
        "fig6",
        &["--queries", "--rounds", "--ablation-nodes", "--transport"],
        fig6::run,
    ),
    figure("fig7", "fig7", QUERIES_NODES, fig7::run),
    figure("insertion_cost", "insertion", &[], insertion::run),
    figure("dimensionality_sweep", "dimensionality", QUERIES_NODES, dimensionality::run),
    figure("selectivity_sweep", "selectivity", QUERIES_NODES, selectivity::run),
    figure("sweep_cell_size", "cell_size", QUERIES_NODES, cell_size::run),
    figure("sweep_pool_side", "pool_side", QUERIES_NODES, pool_side::run),
    figure("batch_ablation", "batch", NODES, batch::run),
    figure("hotspot", "hotspot", NODES, hotspot::run),
    figure("monitor_cost", "monitor", NODES, monitor::run),
    figure("forwarding_ablation", "forwarding", NODES, forwarding::run),
    figure("lifetime", "lifetime", NODES, lifetime::run),
    figure("failure_resilience", "failure", NODES, failure::run),
    figure("load_balance", "load", QUERIES_NODES, load_balance::run),
    figure("lossy_radio", "lossy", QUERIES_NODES, lossy::run),
    figure("latency_profile", "latency", QUERIES_NODES, latency::run),
    figure(
        "churn_resilience",
        "churn",
        &["--nodes", "--epochs", "--queries", "--keys", "--gets", "--budget"],
        churn::run,
    ),
    figure("sweep_scale", "scale", &["--inserts", "--queries", "--max-nodes"], scale::run),
    figure("chaos_suite", "chaos", QUERIES_NODES, chaos::run),
    figure("service_load", "service", &["--requests", "--nodes", "--events"], service::run),
];

/// Resolves `argv` — a figure's name followed by its flags — to the
/// registered figure and its checked arguments. The error names the
/// unknown figure, or the figure and the offending argument.
///
/// # Examples
///
/// ```
/// let (figure, args) = pool_bench::figures::parse(&["fig6", "--smoke"]).unwrap();
/// assert_eq!((figure.name, figure.artifact), ("fig6", "fig6"));
/// assert!(args.opts().smoke);
/// assert!(pool_bench::figures::parse(&["fig6", "--nodes", "7"]).is_err());
/// ```
pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<(&'static Figure, Args), String> {
    let (name, flags) = argv.split_first().ok_or("no figure named")?;
    let name = name.as_ref();
    let figure = FIGURES
        .iter()
        .find(|figure| figure.name == name)
        .ok_or_else(|| format!("{name}: unknown figure (`pool-bench list` prints the names)"))?;
    let args = Args::parse(figure.flags, flags).map_err(|e| format!("{name}: {e}"))?;
    Ok((figure, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{COMMON_FLAGS, FLAGS};
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_artifacts_match_the_smoke_baselines() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
        let registered: BTreeSet<String> =
            FIGURES.iter().map(|f| format!("BENCH_{}_smoke.json", f.artifact)).collect();
        assert_eq!(registered.len(), FIGURES.len(), "two figures share an artifact");
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let baselines: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ directory")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|file| file.starts_with("BENCH_") && file.ends_with("_smoke.json"))
            .collect();
        assert_eq!(registered, baselines, "registry artifacts vs results/ smoke baselines");
    }

    #[test]
    fn the_figures_read_every_known_flag_between_them() {
        let mut read: BTreeSet<&str> = COMMON_FLAGS.into_iter().collect();
        for figure in &FIGURES {
            read.extend(figure.flags.iter().copied());
        }
        let known: BTreeSet<&str> = FLAGS.iter().map(|(flag, _)| *flag).collect();
        assert_eq!(read, known);
    }

    fn error(argv: &[&str]) -> String {
        parse(argv).map(|(figure, _)| figure.name).unwrap_err()
    }

    #[test]
    fn a_figure_rejects_what_it_does_not_read() {
        assert!(parse(&["fig6", "--smoke", "--queries", "3", "--jobs", "2"]).is_ok());
        let unknown = error(&["fig6", "--smoke", "--no-such-flag"]);
        assert!(unknown.starts_with("fig6: --no-such-flag: unknown flag"), "{unknown}");
        // `--nodes` is a flag, but only other figures read it.
        let foreign = error(&["fig6", "--smoke", "--nodes", "7"]);
        assert!(foreign.starts_with("fig6: --nodes: unknown flag"), "{foreign}");
        assert!(parse(&["fig7", "--smoke", "--nodes", "7"]).is_ok());
        assert_eq!(error(&["fig7", "--queries"]), "fig7: --queries: missing value");
        let malformed = error(&["fig7", "--nodes", "10k"]);
        assert!(malformed.starts_with("fig7: --nodes: \"10k\": "), "{malformed}");
        let figure = error(&["no_such_figure", "--smoke"]);
        assert!(figure.starts_with("no_such_figure: unknown figure"), "{figure}");
        assert_eq!(error(&[]), "no figure named");
    }
}
