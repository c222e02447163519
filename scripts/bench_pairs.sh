#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the table a
# PR that claims a gain has to show (benchmark/README.md, end of `compare`).
#
# Usage:
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [--seed S] [--seconds T]
#
#   PARENT_DIR, CHANGE_DIR  two checkouts of this repository (e.g. a
#                           `git clone` of the parent commit and the working
#                           tree); each one's own benchmark/ is built and run
#   WORKLOAD                a workload name from BENCHMARK.json
#   N                       pairs to run; which side goes first alternates
#   --seed S                workload seed (default 1); use one the change was
#                           not written against
#   --seconds T             length of every run, passed to pool-benchmark
#                           (default: the benchmark's own, `run_seconds` of
#                           BENCHMARK.json); shorter runs make more pairs fit
#
# Each side is built once, into <DIR>/.bench_build/target. Prints, per end-to-end metric, both sides'
# q1 / median / q3, the ratio of medians (change / parent) and the pairs the
# change won (ties count for neither side), then every run's value and each
# side's failed total, digest(s) and rounds completed. The peak_rss_mib row
# also shows each side's median rounds and their ratio: the harness keeps
# every round's latencies until it reads VmHWM, so a side that completes
# more rounds reads larger.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N [--seed S] [--seconds T]" >&2
    exit 2
}

[ $# -ge 4 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
seed=1
seconds=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
        --seconds) [ $# -ge 2 ] || usage; seconds=(--seconds "$2"); shift 2 ;;
        *) usage ;;
    esac
done
case "$pairs" in ''|*[!0-9]*|0) echo "N must be a positive integer, got '$pairs'" >&2; exit 2 ;; esac

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

bin_of() { echo "$1/.bench_build/target/release/pool-benchmark"; }
for dir in "$parent" "$change"; do
    echo "building $dir/benchmark" >&2
    CARGO_TARGET_DIR="$dir/.bench_build/target" \
        cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

run() { # side dir
    "$(bin_of "$2")" --workload "$workload" --seed "$seed" "${seconds[@]}" --out "$scratch/out-$1" \
        | tail -n 1 >> "$scratch/$1.jsonl"
    python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); print(r["digest"], r["rounds"])' \
        "$scratch/out-$1/$workload.json" >> "$scratch/$1.digests"
}

for i in $(seq 1 "$pairs"); do
    echo "pair $i/$pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent"; run change "$change"
    else
        run change "$change"; run parent "$parent"
    fi
done

python3 - "$change/BENCHMARK.json" "$scratch/parent.jsonl" "$scratch/change.jsonl" \
    "$workload" "$seed" <<'EOF'
import json, statistics, sys

spec, parent_path, change_path, workload, seed = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}
sides = [[json.loads(line) for line in open(p)] for p in (parent_path, change_path)]
digests = [[line.split() for line in open(p.replace(".jsonl", ".digests"))]
           for p in (parent_path, change_path)]
rounds = [statistics.median(int(n) for _, n in runs) for runs in digests]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{workload}, seed {seed}, {len(sides[0])} pairs (parent | change: q1 / median / q3)")
for name, direction in better.items():
    cols = [[run["metrics"][name]["value"] for run in side if name in run["metrics"]]
            for side in sides]
    if not cols[0] or len(cols[0]) != len(cols[1]):
        continue
    (p1, pm, p3), (c1, cm, c3) = quartiles(cols[0]), quartiles(cols[1])
    sign = 1 if direction == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(*cols))
    lost = sum(sign * (c - p) < 0 for p, c in zip(*cols))
    ratio = f"{cm / pm:.3f}" if pm else "n/a"
    print(f"  {name:18} {p1:12.4f} {pm:12.4f} {p3:12.4f} | {c1:12.4f} {cm:12.4f} {c3:12.4f}"
          f"  ratio {ratio}  won {won} lost {lost}  ({direction} is better;"
          f" parent IQR {p3 - p1:.4f}, medians apart {abs(cm - pm):.4f})"
          + (f"  rounds {rounds[0]:g} | {rounds[1]:g} ratio {rounds[1] / rounds[0]:.3f}"
             if name == "peak_rss_mib" and rounds[0] else ""))
print("runs, in pair order (parent -> change):")
for name in better:
    cols = [" ".join(f"{run['metrics'][name]['value']:.6g}" for run in side if name in run["metrics"])
            for side in sides]
    print(f"  {name:18} {cols[0]} -> {cols[1]}")
for label, side, runs in zip(("parent", "change"), sides, digests):
    print(f"  {label}: attempted {sum(r['attempted'] for r in side)},"
          f" failed {sum(r['failed'] for r in side)},"
          f" correct {all(r['correct'] for r in side)},"
          f" digest {' '.join(sorted({d for d, _ in runs}))},"
          f" rounds {' '.join(n for _, n in runs)}")
EOF
