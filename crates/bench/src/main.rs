//! `pool-bench <figure> [flags]`: runs one registered figure, prints its
//! table and writes its `BENCH_<artifact>.json` (under `target/smoke/`
//! with `--smoke`). `pool-bench list` prints the figure names. A figure
//! name or flag the registry does not know exits with status 2.

use pool_bench::figures::{self, FIGURES};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["list"] {
        for figure in &FIGURES {
            println!("{}", figure.name);
        }
        return;
    }
    let (figure, args) = figures::parse(&argv).unwrap_or_else(|e| {
        eprintln!("pool-bench: {e}");
        eprintln!("usage: pool-bench <figure> [flags] | pool-bench list");
        std::process::exit(2);
    });
    (figure.run)(&args).emit(&args.opts().artifact_path(figure.artifact));
}
