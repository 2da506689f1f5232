#!/usr/bin/env bash
# Full pre-merge check: the lint policy (clippy), build, test, the
# committed mutants, an end-to-end observability pass (run one
# experiment with --obs full and validate the emitted reports against
# the checked-in schema snapshot), the vp-monitor gates (validate every
# committed tagged document, replay the fig9 tiny sequence and
# byte-compare the drift/alert docs against the committed goldens), a
# full regeneration of the results/ tree byte-compared against the
# committed one, and a correctness pass of the repo benchmark. Speed is
# not gated here: benchmark/run.sh --compare over alternating
# parent/change runs is the one perf verdict.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The lint policy (DESIGN.md §8), in the target directory the tier-1
# lint_gate test reuses, so `cargo test` below finds it already checked.
CARGO_TARGET_DIR=target/clippy cargo clippy --workspace --all-targets --offline -- -D warnings
# Every workspace member is a default member: these cover them all.
cargo build --release
cargo test -q

# Hot-path cost contract (DESIGN.md §17): the allocation witness must
# hold its release-mode budget — the debug run above exercises the same
# scans but measures the reply-image debug-asserts, so only the release
# run binds the allocation count.
cargo test -q --release --test alloc_witness

# Committed mutants (tests/mutants/): each seeded bug must fail the test
# its patch names. Not tier-1: every mutant is a rebuild.
scripts/mutants.sh

# The columnar/BTree scale-equivalence suite is the proof that the
# columnar scan core is unobservable from the outside; run it by name so
# a test-filter change can never silently drop it from the gate.
cargo test -q --test columnar_equivalence

# `cargo build --release` above built every default member's bins, so
# these `cargo run`s and the target/release paths below only run them.
obs_dir="target/obs-check"
rm -rf "$obs_dir"
cargo run -q --release -p vp-experiments --bin run_all -- fig2_broot_maps \
    --scale tiny --obs full --out "$obs_dir" >/dev/null
VP_OBS_REPORT_DIR="$PWD/$obs_dir/obs" cargo test -q -p vp-experiments \
    --test obs_report emitted_reports_match_schema_snapshot

vp_monitor="target/release/vp-monitor"

# Every committed tagged document must conform to its embedded schema
# (a directory argument means every *.json inside).
"$vp_monitor" validate results/obs/*.report.json \
    results/obs/flight_scan15k.json \
    results/monitor/fig9_tiny.drift.json \
    results/monitor/fig9_tiny.alerts.json \
    results/daemon >/dev/null

# Replay fig9 at tiny scale through the snapshot + diff pipeline and
# byte-compare against the committed goldens: any drift in the drift
# detector itself fails the build.
mon_dir="target/monitor-check"
rm -rf "$mon_dir"
cargo run -q --release -p vp-experiments --bin run_all -- fig9_stability \
    --scale tiny --out "$mon_dir" \
    --snapshots "$mon_dir/rounds" --obs summary >/dev/null
"$vp_monitor" diff --rounds "$mon_dir/rounds" \
    --obs-report "$mon_dir/obs/fig9_stability.report.json" \
    --source fig9_stability/tiny --out "$mon_dir/monitor" >/dev/null
diff -u results/monitor/fig9_tiny.drift.json "$mon_dir/monitor/drift.json"
diff -u results/monitor/fig9_tiny.alerts.json "$mon_dir/monitor/alerts.json"

# The streaming path must tail the same snapshot directory to the same
# conclusion: watch --follow polls for new round files and folds them
# through the DriftTracker (proven byte-equal to the batch pipeline by
# proptest); here it consumes the 12 pre-existing tiny rounds and must
# reach the batch run's alert verdict.
"$vp_monitor" watch --rounds "$mon_dir/rounds" \
    --follow --until-rounds 12 --poll-ms 10 \
    | tail -n 1 | grep -q "alerts listed"

# Daemon smoke: a deterministic 6-round sim-time run of the live
# telemetry plane (tiny scale, 2 shards — §7 makes the shard count
# unobservable) must republish byte-identical status/scrape surfaces to
# the committed goldens. The daemon_pipeline integration tests prove the
# same in-process; this gates the actual binary end to end.
daemon_dir="target/daemon-check"
rm -rf "$daemon_dir"
cargo run -q --release -p vp-experiments --bin vp_daemon -- \
    --scale tiny --rounds 6 --shards 2 --window 8 --pace sim \
    --out "$daemon_dir" >/dev/null
diff -u results/daemon/vp_daemon_status.json "$daemon_dir/status.json"
diff -u results/daemon/vp_daemon_scrape.prom "$daemon_dir/metrics.prom"

# Golden tree: every results/*.json and results/obs/*.report.json must
# regenerate byte-identically (a cargo test compares only fig2, fig3 and
# table4) on any host: the shard layout the obs reports record is a
# function of the hitlist length alone. Excluded: daemon/ and monitor/
# (gated above), the flight golden (flight_golden.rs pins it) and the
# wall-clock transcript.
golden_dir="target/results-check"
rm -rf "$golden_dir"
cargo run -q --release -p vp-experiments --bin run_all -- \
    --scale default --obs full --out "$golden_dir" >/dev/null
diff -r -x daemon -x monitor -x flight_scan15k.json -x run_all_default.txt \
    results "$golden_dir"

# The scan matrix at the small scale: K>1 rows run inline and on real OS
# threads, and every rep asserts map + registry identity against the
# serial reference — the one place CI runs the threaded engine under
# preemption. Its timings are printed, not gated.
bench_dir="target/bench-check"
rm -rf "$bench_dir" && mkdir -p "$bench_dir"
cargo run -q --release -p vp-experiments --bin bench_scan -- \
    --reps 3 --targets 15000 --flight "$bench_dir/flight_scan15k.json" >/dev/null

# The fresh flight document validates and profiles.
"$vp_monitor" validate "$bench_dir/flight_scan15k.json" >/dev/null
"$vp_monitor" profile "$bench_dir/flight_scan15k.json" | grep -q "scan.round"
"$vp_monitor" profile "$bench_dir/flight_scan15k.json" | grep -q "imbalance"

# The repo benchmark (BENCHMARK.json, benchmark/): its own unit tests
# (percentile rule, compare verdicts, BENCHMARK.json <-> harness metric
# names) and a quick pass of all four workloads, whose per-round checks —
# digest stability, cleaning consistency, the K=4 sharded witness, the
# daemon and replay document digests — must hold. Quick numbers are
# labelled non-comparable; this gates that the harness builds against the
# current crates and that every workload is correct, not its speed.
benchmark/run.sh --selftest >/dev/null
benchmark/run.sh --quick --out "$bench_dir/benchmark_quick.json" >/dev/null

echo "check.sh: clippy + build + tests + obs + monitor + goldens + flight + benchmark gates all clean"
