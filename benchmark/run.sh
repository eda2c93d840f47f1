#!/usr/bin/env bash
# Builds the fig12 daemon and the benchmark (release, offline), then runs
# the benchmark with the given arguments from the repository root.
#
#   bash benchmark/run.sh --workload fig12_cold --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1 --out results.json
#   bash benchmark/run.sh --compare run1.json run2.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p islaris-bench --bin fig12 >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
