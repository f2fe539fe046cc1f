#!/usr/bin/env bash
# Repo CI gate: build, tests, lints, format, and the simulator perf
# regression check. Run from the repo root; any failure fails the script.
#
#   ./ci.sh
#
# The perf gate compares a fresh `simperf` run against the committed
# BENCH_simcore.json and fails on a >10% events/sec drop on any workload.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --all --check

echo "== simperf regression gate =="
cargo run --release -p bench --bin simperf -- --check

echo "== simperf allocation gate (counting allocator) =="
cargo run --release -p bench --features simperf-alloc --bin simperf -- --check

echo "== perfbench smoke (benchmark output checks) =="
# perfbench/ is its own Cargo workspace, so the workspace build above never
# compiles it. One short cell950 command builds it and runs the benchmark's
# own output checks (log counts match cell counters, every issued op class
# completes, a rerun of a seed reproduces its latency stream); a failed
# check exits nonzero. Host metrics are printed, not gated.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload cell950 --seconds 5 --trace 0

echo "== figure artifact gate (every committed artifact, two runs) =="
# Every figure is a seeded simulation, so two full runs must regenerate
# every committed artifact byte for byte: each results/*.csv, the trace
# figure's Chrome export (written beside the CSVs, never over results/),
# and the `figures all` stdout (results/figures.txt).
# This covers reproducibility (run1 vs run2) and the zero-impact contracts
# of the opt-in layers (faults, tracing, lease cache, hot-key replication,
# batching, durability, adaptive routing): every figure with a layer off
# regenerates its committed artifact unchanged.
ART_TMP="$(mktemp -d)"
trap 'rm -rf "$ART_TMP"' EXIT
for run in run1 run2; do
  mkdir -p "$ART_TMP/$run"
  cargo run --release -p bench --bin figures -- all --csv "$ART_TMP/$run" \
    >"$ART_TMP/$run/figures.txt"
  # Same file set both ways: no artifact missing, none left uncommitted.
  diff <(ls results) <(ls "$ART_TMP/$run")
  for f in results/*; do
    cmp "$f" "$ART_TMP/$run/$(basename "$f")"
  done
done

echo "CI OK"
