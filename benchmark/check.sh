#!/usr/bin/env bash
# Gate for the benchmark package itself (the root scripts/check.sh never
# sees it): formatting, lints, unit tests, and every workload at smoke scale.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
./run.sh --quick
