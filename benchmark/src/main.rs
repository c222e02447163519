//! `pool-benchmark` — the repo benchmark.
//!
//! ```text
//! pool-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1]
//!                [--quick] [--probes] [--out DIR]
//! pool-benchmark compare A B [--benchmark-json FILE]
//! ```
//!
//! One invocation runs one workload in this process (so peak RSS and
//! allocator state are the workload's own); `run.sh` loops over all six.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). Any correctness failure exits non-zero
//! without that line.

mod compare;
mod harness;
mod inputs;
mod json;
mod measure;
mod metrics;
mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::RunConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::WorkloadId;

const USAGE: &str = "usage: pool-benchmark --workload <name> [--seed N] [--seconds T] \
[--trace 0|1] [--quick] [--probes] [--out DIR]\n       pool-benchmark compare <A> <B> \
[--benchmark-json FILE]";

/// Default seed of a hand-started run.
const DEFAULT_SEED: u64 = 7;
/// Default run length, `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    config: RunConfig,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut probes_only = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(WorkloadId::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--probes" => probes_only = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(if quick { 0.3 } else { DEFAULT_SECONDS });
    Ok(Cli { config: RunConfig { workload, seed, seconds, quick, trace, probes_only }, out })
}

fn run(cli: Cli) -> Result<(), String> {
    let commit = std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let name = cli.config.workload.name();
    let result = harness::run(cli.config)?;
    print!("{}", report::table(&result, &commit, nproc));

    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let write = |file: String, text: String| {
        let path = cli.out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let kind = match (result.config.probes_only, result.config.trace) {
        (true, _) => "probes-",
        (false, true) => "layers-",
        (false, false) => "",
    };
    write(format!("{kind}{name}.json"), report::result_file(&result, &commit, nproc))?;
    if let Some(trace) = &result.trace {
        let path = cli.out.join(format!("trace-{name}.json"));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        trace
            .log
            .write_json(std::io::BufWriter::new(file), name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("   {} spans -> {}", trace.log.len(), path.display());
    }
    if !result.config.probes_only {
        println!("{}", report::driver_line(&result));
    }
    Ok(())
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark-json" {
            benchmark_json = PathBuf::from(it.next().ok_or("--benchmark-json needs a value")?);
        } else {
            dirs.push(arg);
        }
    }
    let [a, b] = dirs.as_slice() else { return Err(USAGE.to_string()) };
    let (table, failed) = compare::compare(Path::new(a), Path::new(b), &benchmark_json)?;
    print!("{table}");
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => run_compare(&args[1..]),
        Some(_) => parse_run(&args).and_then(run).map(|()| false),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pool-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
