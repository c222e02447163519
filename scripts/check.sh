#!/usr/bin/env bash
# Repo gate: formatting, lints, the benchmark package's own gate, the full
# test suite, and a bench smoke run.
# Mirrors .github/workflows/ci.yml stage for stage.
#
# Usage:
#   ./scripts/check.sh           # full gate (what CI runs)
#   ./scripts/check.sh --quick   # fmt + clippy + debug tests only
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown flag: $arg (supported: --quick)" >&2; exit 2 ;;
    esac
done

STAGE_NAMES=()
STAGE_SECS=()
stage() {
    local name="$1"
    shift
    echo "==> $name"
    local start=$SECONDS
    "$@"
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((SECONDS - start)))
}

report() {
    echo
    echo "Stage timings:"
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-38s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    done
}

bench_smoke() {
    # Every registered figure (`pool-bench list`), scaled down, on two
    # workers. Validates that the emitted artifact under target/smoke/ is
    # well-formed JSON — a figure that panics, hangs, or emits garbage
    # fails the gate.
    local bench=target/release/pool-bench
    local figures=()
    mapfile -t figures < <("$bench" list)
    rm -rf target/smoke
    # A flag the figure does not read, and a figure the registry does not
    # know, must stop with status 2 rather than run a default experiment.
    local probe status
    for probe in "fig6 --smoke --nodes 7" "no_such_figure"; do
        status=0
        # shellcheck disable=SC2086 # the probe is split into arguments on purpose
        "$bench" $probe >/dev/null 2>&1 || status=$?
        if [ "$status" -ne 2 ]; then
            echo "pool-bench $probe exited $status, want 2" >&2
            exit 1
        fi
    done
    for figure in "${figures[@]}"; do
        local start=$SECONDS
        "$bench" "$figure" --smoke --jobs 2 >/dev/null
        printf '    %-24s %4ds\n' "$figure" $((SECONDS - start))
    done
    for f in target/smoke/BENCH_*.json; do
        python3 -m json.tool "$f" >/dev/null
    done
    # Every artifact must carry virtual-time columns: latency percentiles
    # (…_ms) or cumulative virtual time / busy time (…_s).
    python3 - target/smoke/BENCH_*.json <<'EOF'
import json, sys
for path in sys.argv[1:]:
    cols = json.load(open(path))["columns"]
    if not any(c.endswith("_ms") or c.endswith("_s") for c in cols):
        sys.exit(f"{path}: no virtual-time column among {cols}")
EOF
    # Every smoke artifact diffs against its checked-in baseline under
    # results/. All cells are deterministic (exact) except the scale
    # sweep's wall-clock timing/RSS columns, which are printed and never
    # fail (benchmark/ judges speed).
    for f in target/smoke/BENCH_*.json; do
        local name baseline timing_re
        name=$(basename "$f" .json)
        baseline="results/${name}_smoke.json"
        if [ ! -f "$baseline" ]; then
            echo "missing baseline $baseline for $f (regenerate and check it in)" >&2
            exit 1
        fi
        timing_re=""
        [ "$name" = "BENCH_scale" ] && timing_re='_ms$|^rss_kb$'
        ./scripts/bench_compare.sh "$f" "$baseline" "$timing_re"
    done
    echo "    ${#figures[@]} figures ran; their artifacts validated against baselines"
}

reachability() {
    # The count of pub items no other library code names; fails when the
    # count of items used nowhere else rises above the script's gate
    # (./scripts/reachability.sh prints the list).
    ./scripts/reachability.sh | tail -n 1
}

stage "cargo fmt --check" cargo fmt --all --check
stage "cargo clippy (-D warnings)" cargo clippy --workspace --all-targets -- -D warnings
stage "reachability gate" reachability

if [ "$QUICK" -eq 1 ]; then
    stage "cargo test (debug)" cargo test --workspace -q
    report
    echo "Quick checks passed (full gate: ./scripts/check.sh)."
    exit 0
fi

stage "cargo build --release" cargo build --release --workspace
# Broken or redundant intra-doc links fail here, not only in a reader's
# browser.
stage "rustdoc (-D warnings)" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
# benchmark/ is its own workspace: nothing above compiles it, so a changed
# `pub` signature under crates/ could break it unseen. Its own gate (fmt,
# clippy, tests, every workload at smoke scale) runs here.
stage "benchmark gate (benchmark/check.sh)" benchmark/check.sh
stage "cargo test" cargo test --workspace -q
stage "conservation audit" cargo test -q --test conservation
# The oracles an optimiser could break, in the shipping profile: the one
# list both this gate and CI run.
stage "release-profile routing audit" ./scripts/release_audit.sh
stage "bench smoke (--smoke --jobs 2)" bench_smoke

report
echo "All checks passed."
