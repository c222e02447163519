//! Minimal shared CLI parsing for the figure binaries.
//!
//! Every binary accepts `--queries N` and `--nodes N` style flags (and
//! `--transport gpsr|cached` to select the routing substrate); this avoids
//! pulling a CLI dependency for two integers and an enum. [`BenchOpts`]
//! adds the two flags the parallel execution engine gave every binary:
//! `--jobs N` (worker threads) and `--smoke` (a scaled-down configuration
//! fast enough for the CI bench-smoke gate). Every flag any binary reads
//! is listed in one table, and [`BenchOpts::from_env`] rejects any other
//! `--` argument, so a misspelt flag cannot run the default experiment.

use crate::report::Table;
use pool_transport::TransportKind;
use std::path::PathBuf;

/// Every flag the figure binaries read: the value flags the `arg_*`
/// helpers parse and the bare `--smoke`. Each helper asserts (in debug
/// builds) that its flag is listed, so the table cannot drift.
const FLAGS: [&str; 15] = [
    "--ablation-nodes",
    "--budget",
    "--epochs",
    "--events",
    "--gets",
    "--inserts",
    "--jobs",
    "--keys",
    "--max-nodes",
    "--nodes",
    "--queries",
    "--requests",
    "--rounds",
    "--smoke",
    "--transport",
];

/// `flag`, checked (in debug builds) against [`FLAGS`].
fn known(flag: &str) -> &str {
    debug_assert!(FLAGS.contains(&flag), "{flag} is missing from cli::FLAGS");
    flag
}

/// The first argument after the program name that looks like a flag
/// (`--…`) but is not one any binary reads.
fn unknown_flag(args: &[String]) -> Option<&str> {
    args.iter()
        .skip(1)
        .map(String::as_str)
        .find(|arg| arg.starts_with("--") && !FLAGS.contains(arg))
}

/// The value following `flag` in `args`: `None` when the flag is absent,
/// an error when it is the last argument.
fn value_of<'a>(flag: &str, args: &'a [String]) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value)),
            None => Err(format!("{flag}: missing value")),
        },
    }
}

/// Reads `flag`'s value from `std::env::args` with `parse`; a missing or
/// malformed value prints the error and exits with status 2 rather than
/// silently running a different experiment than the one asked for.
fn arg_or_exit<T>(flag: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().collect();
    value_of(known(flag), &args).and_then(parse).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The count a `flag <value>` pair asks for: `default` when the flag is
/// absent (`value` is `None`), an error naming the flag when the value is
/// not a non-negative integer.
///
/// # Examples
///
/// ```
/// use pool_bench::cli::parse_usize;
///
/// assert_eq!(parse_usize("--nodes", None, 900), Ok(900));
/// assert_eq!(parse_usize("--nodes", Some("300"), 900), Ok(300));
/// assert!(parse_usize("--nodes", Some("10k"), 900).is_err());
/// ```
pub fn parse_usize(flag: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{flag}: {v:?}: {e}")),
    }
}

/// Parses `flag <value>` from `std::env::args`, falling back to `default`
/// when absent; exits with the parse error on a missing or malformed value
/// (`--nodes 10k` must not benchmark the default network).
///
/// # Examples
///
/// ```
/// // With no matching argv entry, the default is returned.
/// let queries = pool_bench::cli::arg_usize("--queries", 100);
/// assert_eq!(queries, 100);
/// ```
pub fn arg_usize(flag: &str, default: usize) -> usize {
    arg_or_exit(flag, |value| parse_usize(flag, value, default))
}

/// Parses `flag <value>` as a routing-substrate selector (`gpsr` or
/// `cached`), falling back to `default` when absent; exits with the parse
/// error on a missing or malformed value rather than silently benchmarking
/// the wrong substrate.
///
/// # Examples
///
/// ```
/// use pool_transport::TransportKind;
///
/// let t = pool_bench::cli::arg_transport("--transport", TransportKind::Gpsr);
/// assert_eq!(t, TransportKind::Gpsr);
/// ```
pub fn arg_transport(flag: &str, default: TransportKind) -> TransportKind {
    arg_or_exit(flag, |value| match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("{flag}: {e}")),
    })
}

/// Returns whether the bare flag is present in `std::env::args`.
///
/// # Examples
///
/// ```
/// assert!(!pool_bench::cli::arg_flag("--smoke"));
/// ```
pub fn arg_flag(flag: &str) -> bool {
    let flag = known(flag);
    std::env::args().any(|a| a == flag)
}

/// The execution options shared by every figure binary: how many worker
/// threads drive the trial engine, and whether to run the scaled-down
/// smoke configuration.
///
/// The determinism contract (DESIGN.md §11) guarantees `jobs` never
/// changes any emitted byte; `smoke` selects a *different* (smaller)
/// experiment, so smoke artifacts are written under `target/smoke/`
/// instead of overwriting the checked-in full-scale `BENCH_*.json` files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOpts {
    /// Worker threads for the trial engine (`--jobs N`, default 1).
    pub jobs: usize,
    /// Scaled-down CI configuration (`--smoke`).
    pub smoke: bool,
}

impl BenchOpts {
    /// Parses `--jobs` and `--smoke` from `std::env::args`. Every binary
    /// calls this first, so it also rejects a `--` argument no binary reads:
    /// it prints the flag's name and exits with status 2.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if let Some(flag) = unknown_flag(&args) {
            eprintln!("{flag}: unknown flag (known: {})", FLAGS.join(" "));
            std::process::exit(2);
        }
        BenchOpts { jobs: arg_usize("--jobs", 1).max(1), smoke: arg_flag("--smoke") }
    }

    /// A fixed-size configuration for tests: `jobs` workers, smoke scale.
    pub fn smoke_with_jobs(jobs: usize) -> Self {
        BenchOpts { jobs: jobs.max(1), smoke: true }
    }

    /// Picks the full-scale or smoke-scale value of a parameter.
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Queries per measurement: `full` normally, a CI-friendly 5 in smoke
    /// mode (never exceeding `full`).
    pub fn queries(&self, full: usize) -> usize {
        self.scale(full, full.min(5)).max(1)
    }

    /// Network size: `full` normally, at most 150 nodes in smoke mode.
    pub fn nodes(&self, full: usize) -> usize {
        self.scale(full, full.min(150))
    }

    /// The network-size sweep of the paper's §5 figures (300–1200 nodes),
    /// or a two-point miniature in smoke mode.
    pub fn network_sizes(&self) -> Vec<usize> {
        if self.smoke {
            vec![150, 200]
        } else {
            vec![300, 600, 900, 1200]
        }
    }

    /// Where this run's JSON artifact for `name` goes: the repo root for
    /// full-scale runs (`BENCH_<name>.json`, the checked-in artifacts),
    /// `target/smoke/` for smoke runs.
    pub fn artifact_path(&self, name: &str) -> PathBuf {
        let file = format!("BENCH_{name}.json");
        if self.smoke {
            PathBuf::from("target").join("smoke").join(file)
        } else {
            PathBuf::from(file)
        }
    }

    /// Prints `table` and writes its canonical JSON artifact for `name`.
    ///
    /// # Panics
    ///
    /// Panics if the artifact cannot be written.
    pub fn emit(&self, name: &str, table: &Table) {
        table.print_tsv();
        let path = self.artifact_path(name);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create artifact directory");
            }
        }
        std::fs::write(&path, table.to_json()).expect("write JSON artifact");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_flag_yields_default() {
        assert_eq!(arg_usize("--budget", 7), 7);
    }

    #[test]
    fn parse_usize_defaults_when_absent_and_rejects_malformed_values() {
        assert_eq!(parse_usize("--nodes", None, 900), Ok(900));
        assert_eq!(parse_usize("--nodes", Some("300"), 900), Ok(300));
        for malformed in ["10k", "-3", "1e5", "", "--smoke"] {
            let err = parse_usize("--nodes", Some(malformed), 900).unwrap_err();
            assert!(err.starts_with("--nodes: "), "{err}");
            assert!(err.contains(&format!("{malformed:?}")), "{err}");
        }
    }

    #[test]
    fn a_flag_without_a_value_is_an_error_not_the_default() {
        let args: Vec<String> = ["fig6", "--queries", "40", "--nodes"].map(String::from).to_vec();
        assert_eq!(value_of("--jobs", &args), Ok(None));
        assert_eq!(value_of("--queries", &args), Ok(Some("40")));
        assert_eq!(value_of("--nodes", &args), Err("--nodes: missing value".to_string()));
    }

    #[test]
    fn missing_transport_flag_yields_default() {
        assert_eq!(arg_transport("--transport", TransportKind::Cached), TransportKind::Cached);
    }

    #[test]
    fn a_misspelt_flag_is_unknown_and_a_listed_one_is_not() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let misspelt = args(&["fig6", "--smoke", "--queires", "3"]);
        assert_eq!(unknown_flag(&misspelt), Some("--queires"));
        let known = args(&["fig6", "--smoke", "--queries", "3", "--transport", "cached"]);
        assert_eq!(unknown_flag(&known), None);
        // The program name and values are not flags.
        assert_eq!(unknown_flag(&args(&["--fig6", "--jobs", "2"])), None);
    }

    #[test]
    fn smoke_scales_down_but_never_up() {
        let smoke = BenchOpts::smoke_with_jobs(2);
        assert_eq!(smoke.queries(100), 5);
        assert_eq!(smoke.queries(3), 3);
        assert_eq!(smoke.nodes(900), 150);
        assert_eq!(smoke.nodes(120), 120);
        assert_eq!(smoke.network_sizes(), vec![150, 200]);

        let full = BenchOpts { jobs: 1, smoke: false };
        assert_eq!(full.queries(100), 100);
        assert_eq!(full.network_sizes(), vec![300, 600, 900, 1200]);
    }

    #[test]
    fn smoke_artifacts_never_overwrite_checked_in_results() {
        let smoke = BenchOpts::smoke_with_jobs(1);
        assert_eq!(smoke.artifact_path("fig6"), PathBuf::from("target/smoke/BENCH_fig6.json"));
        let full = BenchOpts { jobs: 4, smoke: false };
        assert_eq!(full.artifact_path("fig6"), PathBuf::from("BENCH_fig6.json"));
    }
}
