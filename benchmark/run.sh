#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
#                    [--quick] [--probes] [--out DIR]
#
# Builds the stand-alone benchmark package in release mode, then runs each
# workload in its own process (all six unless --workload names one). Every
# run prints its metrics by name with units, writes <out>/<workload>.json
# (default benchmark/out), verifies its answers, and ends with one JSON line.
# Exits non-zero on any build or correctness failure.
#
#   --trace 1   traced run + layer probes: per-layer metrics, span file,
#               reconciliation line
#   --probes    only the layer probes, at full quality (15 samples of ~20 ms)
#   --quick     every workload at smoke scale (all six in a few seconds)
#
# Compare two result directories:  benchmark/run.sh compare A B
set -euo pipefail

here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/pool-benchmark"
BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi

out=(--out "$here/out")
one=0
for arg in "$@"; do
    case "$arg" in
        --workload) one=1 ;;
        --out) out=() ;;
    esac
done

if [ "$one" = 1 ]; then
    exec "$bin" "$@" ${out[@]+"${out[@]}"}
fi

status=0
for workload in pool_cold_100k pool_hot_10k dim_cold_100k pool_faulty_3k pool_churn_10k service_mixed_2t; do
    "$bin" --workload "$workload" "$@" ${out[@]+"${out[@]}"} || status=$?
done
exit "$status"
