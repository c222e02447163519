#!/usr/bin/env bash
# Compares a freshly generated BENCH artifact against a checked-in
# baseline.
#
# By default every cell is deterministic — virtual-time latencies,
# message totals, match counts, labels — and must match the baseline
# EXACTLY: a drift there is a behavioral regression, not noise. An
# artifact that carries real wall-clock measurements (the scale sweep's
# build/insert/query timings and peak RSS) opts specific columns out via
# a regex; those cells are informational — the widest drift is printed
# and never fails the comparison. Speed is judged by `benchmark/`, not
# here.
#
# Usage:
#   scripts/bench_compare.sh <fresh.json> <baseline.json> [timing-regex]
#
#   timing-regex: optional; column names matching it are reported instead
#                 of compared (e.g. '_ms$|^rss_kb$' for the scale sweep).
#                 Without it, all columns are exact.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <fresh.json> <baseline.json> [timing-regex]" >&2
    exit 2
fi

python3 - "$1" "$2" "${3:-}" <<'EOF'
import json, os, re, sys

fresh_path, base_path, timing_re = sys.argv[1], sys.argv[2], sys.argv[3]

fresh = json.load(open(fresh_path))
base = json.load(open(base_path))

if fresh["columns"] != base["columns"]:
    sys.exit(f"column mismatch:\n  fresh:    {fresh['columns']}\n  baseline: {base['columns']}")
if len(fresh["rows"]) != len(base["rows"]):
    sys.exit(f"row count mismatch: fresh {len(fresh['rows'])} vs baseline {len(base['rows'])}")

def is_timing(col):
    return bool(timing_re) and re.search(timing_re, col) is not None

errors = []
checked_exact = timing_cells = 0
widest = (1.0, "")
for i, (frow, brow) in enumerate(zip(fresh["rows"], base["rows"])):
    label = "/".join(str(frow[c]) for c in fresh["columns"][:2])
    for col in fresh["columns"]:
        f, b = frow[col], brow[col]
        where = f"row {i} ({label}) column {col}"
        if is_timing(col):
            timing_cells += 1
            lo, hi = sorted((max(float(f), 1e-9), max(float(b), 1e-9)))
            widest = max(widest, (hi / lo, f"{where}: fresh {f} vs baseline {b}"))
        else:
            checked_exact += 1
            if f != b:
                errors.append(f"{where}: fresh {f!r} != baseline {b!r} "
                              "(deterministic column)")

if errors:
    sys.exit("bench_compare FAILED:\n  " + "\n  ".join(errors))
name = os.path.basename(fresh_path)
note = f" (widest drift {widest[0]:.1f}x at {widest[1]})" if timing_cells else ""
print(f"bench_compare OK [{name}]: {checked_exact} deterministic cells exact, "
      f"{timing_cells} timing cells informational{note}")
EOF
