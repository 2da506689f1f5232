#!/usr/bin/env bash
# The benchmark's one command (the `command` of ../BENCHMARK.json).
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of stdout is the result as JSON
#   benchmark/run.sh [--runs <n>] [--seed <n>] [--seconds <s>] [--quick] [--out <file>]
#       all four workloads, one child process at a time -> out/results.json
#   benchmark/run.sh --compare <a.json> <b.json>
#   benchmark/run.sh --selftest
#
# Builds the harness from source first (release, offline); honours
# CARGO_TARGET_DIR. Exits non-zero when the build fails, when a check fails
# in an all-workloads run, or when --compare finds a regression.
set -euo pipefail

dir="$(dirname "${BASH_SOURCE[0]}")"
manifest="$dir/Cargo.toml"

if [ "${1:-}" = "--selftest" ]; then
    exec cargo test --release --offline --manifest-path "$manifest"
fi

# Cargo's progress goes to stderr: stdout stays the harness's alone.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-$dir/target}/release/vp-benchmark" \
    --out-dir "$dir/out" --spec "$dir/../BENCHMARK.json" "$@"
