//! Argument parsing for `pool-bench <figure> [flags]`.
//!
//! Every figure reads `--jobs N` (worker threads for the trial engine) and
//! `--smoke` (a scaled-down configuration fast enough for the CI
//! bench-smoke gate), plus the few value flags its registry entry lists
//! (`--queries N`, `--nodes N`, `--transport gpsr|cached`, …); this avoids
//! pulling a CLI dependency for a handful of integers and an enum.
//! [`Args::parse`] checks a figure's argv against that list before the
//! figure runs: a flag the figure does not read, a flag without its value
//! and a malformed value are all errors, so a misspelt or misplaced flag
//! cannot run the default experiment.

use pool_transport::TransportKind;
use std::path::PathBuf;

/// What follows a flag on the command line.
pub(crate) enum Value {
    /// Nothing: the flag is a switch.
    None,
    /// A non-negative integer.
    Count,
    /// A routing substrate (`gpsr` or `cached`).
    Transport,
}

/// Every flag any figure reads, with the value it takes.
pub(crate) const FLAGS: [(&str, Value); 15] = [
    ("--ablation-nodes", Value::Count),
    ("--budget", Value::Count),
    ("--epochs", Value::Count),
    ("--events", Value::Count),
    ("--gets", Value::Count),
    ("--inserts", Value::Count),
    ("--jobs", Value::Count),
    ("--keys", Value::Count),
    ("--max-nodes", Value::Count),
    ("--nodes", Value::Count),
    ("--queries", Value::Count),
    ("--requests", Value::Count),
    ("--rounds", Value::Count),
    ("--smoke", Value::None),
    ("--transport", Value::Transport),
];

/// The flags every figure reads, on top of the ones its registry entry
/// lists.
pub const COMMON_FLAGS: [&str; 2] = ["--jobs", "--smoke"];

/// One figure's command line, checked: every argument is a flag the
/// figure reads, followed by a well-formed value when it takes one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The figure's own flags ([`COMMON_FLAGS`] are always accepted).
    accepted: &'static [&'static str],
    argv: Vec<String>,
}

impl Args {
    /// Checks `argv` — the arguments after the figure's name — for a figure
    /// that reads `accepted` and [`COMMON_FLAGS`]. The error names the
    /// offending argument.
    ///
    /// # Examples
    ///
    /// ```
    /// use pool_bench::cli::Args;
    ///
    /// assert!(Args::parse(&["--nodes"], &["--smoke", "--nodes", "300"]).is_ok());
    /// assert!(Args::parse(&["--nodes"], &["--queries", "3"]).is_err());
    /// assert!(Args::parse(&["--nodes"], &["--nodes", "10k"]).is_err());
    /// ```
    pub fn parse<S: AsRef<str>>(
        accepted: &'static [&'static str],
        argv: &[S],
    ) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.as_ref().to_owned()).collect();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let reads = COMMON_FLAGS.contains(&arg.as_str()) || accepted.contains(&arg.as_str());
            let Some((_, value)) = FLAGS.iter().find(|(flag, _)| reads && flag == arg) else {
                if !arg.starts_with("--") {
                    return Err(format!("{arg}: unexpected argument"));
                }
                let mut known: Vec<&str> = accepted.iter().chain(&COMMON_FLAGS).copied().collect();
                known.sort_unstable();
                return Err(format!("{arg}: unknown flag (known: {})", known.join(" ")));
            };
            let mut next = || rest.next().ok_or(format!("{arg}: missing value"));
            match value {
                Value::None => {}
                Value::Count => {
                    parse_usize(arg, Some(next()?), 0)?;
                }
                Value::Transport => {
                    next()?.parse::<TransportKind>().map_err(|e| format!("{arg}: {e}"))?;
                }
            }
        }
        Ok(Args { accepted, argv })
    }

    /// Where `flag` sits in the argv, when present. Every read goes
    /// through here, which asserts (in debug builds) that the figure lists
    /// `flag`.
    fn position(&self, flag: &str) -> Option<usize> {
        debug_assert!(
            COMMON_FLAGS.contains(&flag) || self.accepted.contains(&flag),
            "{flag} is missing from the figure's registry entry"
        );
        self.argv.iter().position(|a| a == flag)
    }

    /// The value following `flag`, when present.
    fn value(&self, flag: &str) -> Option<&str> {
        self.position(flag).map(|at| self.argv[at + 1].as_str())
    }

    /// The execution options: `--jobs` (at least 1) and `--smoke`.
    pub fn opts(&self) -> BenchOpts {
        BenchOpts { jobs: arg_usize(self, "--jobs", 1).max(1), smoke: arg_flag(self, "--smoke") }
    }
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

/// `flag`'s count, or `default` when the flag is absent.
///
/// # Examples
///
/// ```
/// use pool_bench::cli::{arg_usize, Args};
///
/// let args = Args::parse(&["--queries"], &["--queries", "40"]).unwrap();
/// assert_eq!(arg_usize(&args, "--queries", 100), 40);
/// assert_eq!(arg_usize(&args, "--jobs", 1), 1);
/// ```
pub fn arg_usize(args: &Args, flag: &str, default: usize) -> usize {
    parse_usize(flag, args.value(flag), default).expect("checked by Args::parse")
}

/// `flag`'s routing substrate (`gpsr` or `cached`), or `default` when the
/// flag is absent.
///
/// # Examples
///
/// ```
/// use pool_bench::cli::{arg_transport, Args};
/// use pool_transport::TransportKind;
///
/// let args = Args::parse(&["--transport"], &[] as &[&str]).unwrap();
/// assert_eq!(arg_transport(&args, "--transport", TransportKind::Gpsr), TransportKind::Gpsr);
/// ```
pub fn arg_transport(args: &Args, flag: &str, default: TransportKind) -> TransportKind {
    args.value(flag).map_or(default, |v| v.parse().expect("checked by Args::parse"))
}

/// Whether the bare `flag` is present.
///
/// # Examples
///
/// ```
/// use pool_bench::cli::{arg_flag, Args};
///
/// assert!(arg_flag(&Args::parse(&[], &["--smoke"]).unwrap(), "--smoke"));
/// assert!(!arg_flag(&Args::parse(&[], &["--jobs", "2"]).unwrap(), "--smoke"));
/// ```
pub fn arg_flag(args: &Args, flag: &str) -> bool {
    args.position(flag).is_some()
}

/// The execution options shared by every figure: how many worker threads
/// drive the trial engine, and whether to run the scaled-down smoke
/// configuration.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG6: &[&str] = &["--queries", "--rounds", "--ablation-nodes", "--transport"];

    #[test]
    fn missing_flag_yields_default() {
        let args = Args::parse(&["--budget"], &["--smoke"]).unwrap();
        assert_eq!(arg_usize(&args, "--budget", 7), 7);
        assert!(arg_flag(&args, "--smoke"));
        assert!(!arg_flag(&Args::parse(&["--budget"], &["--budget", "7"]).unwrap(), "--smoke"));
    }

    #[test]
    fn parse_usize_defaults_when_absent_and_rejects_malformed_values() {
        assert_eq!(parse_usize("--nodes", None, 900), Ok(900));
        assert_eq!(parse_usize("--nodes", Some("300"), 900), Ok(300));
        for malformed in ["10k", "-3", "1e5", "", "--smoke"] {
            let err = parse_usize("--nodes", Some(malformed), 900).unwrap_err();
            assert!(err.starts_with("--nodes: "), "{err}");
            assert!(err.contains(&format!("{malformed:?}")), "{err}");
            let err = Args::parse(&["--nodes"], &["--nodes", malformed]).unwrap_err();
            assert!(err.starts_with("--nodes: "), "{err}");
        }
    }

    #[test]
    fn a_flag_without_a_value_is_an_error_not_the_default() {
        let err = Args::parse(FIG6, &["--queries", "40", "--rounds"]).unwrap_err();
        assert_eq!(err, "--rounds: missing value");
        let args = Args::parse(FIG6, &["--queries", "40"]).unwrap();
        assert_eq!(arg_usize(&args, "--queries", 100), 40);
        assert_eq!(arg_usize(&args, "--rounds", 20), 20);
    }

    #[test]
    fn missing_transport_flag_yields_default() {
        let args = Args::parse(FIG6, &["--smoke"]).unwrap();
        assert_eq!(
            arg_transport(&args, "--transport", TransportKind::Cached),
            TransportKind::Cached
        );
        let args = Args::parse(FIG6, &["--transport", "gpsr"]).unwrap();
        assert_eq!(arg_transport(&args, "--transport", TransportKind::Cached), TransportKind::Gpsr);
        let err = Args::parse(FIG6, &["--transport", "carrier-pigeon"]).unwrap_err();
        assert!(err.starts_with("--transport: "), "{err}");
    }

    #[test]
    fn a_misspelt_flag_is_unknown_and_a_listed_one_is_not() {
        let err = Args::parse(FIG6, &["--smoke", "--queires", "3"]).unwrap_err();
        assert!(err.starts_with("--queires: unknown flag"), "{err}");
        assert!(Args::parse(FIG6, &["--smoke", "--queries", "3", "--transport", "cached"]).is_ok());
        // A flag another figure reads is unknown to this one.
        assert!(FLAGS.iter().any(|(flag, _)| *flag == "--nodes"));
        let err = Args::parse(FIG6, &["--nodes", "7"]).unwrap_err();
        assert!(err.starts_with("--nodes: unknown flag"), "{err}");
        // A stray positional argument is not silently ignored.
        let err = Args::parse(FIG6, &["--jobs", "2", "extra"]).unwrap_err();
        assert_eq!(err, "extra: unexpected argument");
    }

    #[test]
    fn smoke_scales_down_but_never_up() {
        let smoke = Args::parse(&[], &["--smoke", "--jobs", "2"]).unwrap().opts();
        assert_eq!(smoke, BenchOpts { jobs: 2, smoke: true });
        assert_eq!(smoke.queries(100), 5);
        assert_eq!(smoke.queries(3), 3);
        assert_eq!(smoke.nodes(900), 150);
        assert_eq!(smoke.nodes(120), 120);
        assert_eq!(smoke.network_sizes(), vec![150, 200]);

        let full = Args::parse(&[], &["--jobs", "0"]).unwrap().opts();
        assert_eq!(full, BenchOpts { jobs: 1, smoke: false });
        assert_eq!(full.queries(100), 100);
        assert_eq!(full.network_sizes(), vec![300, 600, 900, 1200]);
    }

    #[test]
    fn smoke_artifacts_never_overwrite_checked_in_results() {
        let smoke = BenchOpts { jobs: 1, smoke: true };
        assert_eq!(smoke.artifact_path("fig6"), PathBuf::from("target/smoke/BENCH_fig6.json"));
        let full = BenchOpts { jobs: 4, smoke: false };
        assert_eq!(full.artifact_path("fig6"), PathBuf::from("BENCH_fig6.json"));
    }
}
