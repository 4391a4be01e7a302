#!/usr/bin/env bash
# Builds the harness and runs the benchmark of record: every workload end
# to end (tracing off), then every workload traced for the per-layer
# ledger. Run from anywhere; outputs land in benchmark/out/ of this tree.
#
#   benchmark/run.sh                 # full size, default seed
#   benchmark/run.sh --seed 7        # extra arguments go to both passes
#   benchmark/run.sh --smoke         # seconds, for a quick look
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pdht-benchmark"
"$bin" --workload all --trace 0 "$@"
"$bin" --workload all --trace 1 "$@"
