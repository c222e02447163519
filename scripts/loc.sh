#!/usr/bin/env bash
# Non-test line count of every crate under crates/*/src (crates/compat, the
# vendored stand-ins for external crates, excluded), and their total.
#
# Usage:
#   ./scripts/loc.sh            # from anywhere in the repository
#
# A file counts the lines above its first `#[cfg(test)]` (all of them, when
# it has none): blank lines and comments included, test modules and
# crates/*/tests excluded. This is the count ROADMAP.md's aim 2 reads.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = compat ] && continue
    lines=0
    while IFS= read -r -d '' file; do
        above=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + above))
    done < <(find "$dir/src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
