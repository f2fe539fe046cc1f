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

echo "== chaos smoke + fault-layer zero-impact gate =="
# The chaos experiment must be reproducible: two seeded runs, byte-identical
# CSVs. And the fault layer must be invisible when no FaultPlan is
# installed: figures that predate it regenerate byte-identically against
# the committed results.
CHAOS_TMP="$(mktemp -d)"
trap 'rm -rf "$CHAOS_TMP"' EXIT
cargo run --release -p bench --bin figures -- chaos --csv "$CHAOS_TMP/run1" >/dev/null
cargo run --release -p bench --bin figures -- chaos --csv "$CHAOS_TMP/run2" >/dev/null
cmp "$CHAOS_TMP/run1/chaos.csv" "$CHAOS_TMP/run2/chaos.csv"
cmp "$CHAOS_TMP/run1/chaos.csv" results/chaos.csv
cargo run --release -p bench --bin figures -- f3 f13 f14 --csv "$CHAOS_TMP/base" >/dev/null
for f in f3 f13 f14; do
  cmp "$CHAOS_TMP/base/$f.csv" "results/$f.csv"
done

echo "== skew smoke + determinism gate =="
# The skew ablation study (Zipf hot keys vs client cache + hot-key
# replication) must replay byte-identically: two seeded runs match each
# other and the committed CSV. The f3/f13/f14 cmp gates above double as
# the zero-impact proof: cells with cache/hot-repl disabled regenerate
# their committed artifacts byte for byte.
cargo run --release -p bench --bin figures -- skew --csv "$CHAOS_TMP/skew1" >/dev/null
cargo run --release -p bench --bin figures -- skew --csv "$CHAOS_TMP/skew2" >/dev/null
cmp "$CHAOS_TMP/skew1/skew.csv" "$CHAOS_TMP/skew2/skew.csv"
cmp "$CHAOS_TMP/skew1/skew.csv" results/skew.csv

echo "== trace smoke + tracing-disabled zero-impact gate =="
# Tracing enabled: the trace experiment (flight recorder + attribution +
# postmortems) must be reproducible — two seeded runs produce byte-identical
# CSVs and Chrome exports, both matching the committed artifacts.
cp results/trace_chrome.json "$CHAOS_TMP/chrome_committed.json"
cargo run --release -p bench --bin figures -- trace --csv "$CHAOS_TMP/trace1" >/dev/null
cp results/trace_chrome.json "$CHAOS_TMP/trace1/trace_chrome.json"
cargo run --release -p bench --bin figures -- trace --csv "$CHAOS_TMP/trace2" >/dev/null
cmp "$CHAOS_TMP/trace1/trace.csv" "$CHAOS_TMP/trace2/trace.csv"
cmp "$CHAOS_TMP/trace1/trace.csv" results/trace.csv
cmp "$CHAOS_TMP/trace1/trace_chrome.json" results/trace_chrome.json
cmp "$CHAOS_TMP/trace1/trace_chrome.json" "$CHAOS_TMP/chrome_committed.json"
# Tracing disabled (every other experiment): the recorder hooks must be
# invisible. The chaos + f3/f13/f14 cmp gates above prove byte-identical
# schedules with no recorder installed, and the simperf gates bound the
# disabled-path cost (a single Option check per hook) at noise.

echo "== batch crossover smoke + determinism gate =="
# The doorbell-batching crossover figure must replay byte-identically: two
# seeded runs match each other and the committed CSV. Its unbatched series
# double as the batching-off zero-impact proof for the dataplane refactor:
# cells with `doorbell_batching` disabled (every other committed figure,
# cmp-gated above) regenerate their artifacts byte for byte.
cargo run --release -p bench --bin figures -- batch --csv "$CHAOS_TMP/batch1" >/dev/null
cargo run --release -p bench --bin figures -- batch --csv "$CHAOS_TMP/batch2" >/dev/null
cmp "$CHAOS_TMP/batch1/batch.csv" "$CHAOS_TMP/batch2/batch.csv"
cmp "$CHAOS_TMP/batch1/batch.csv" results/batch.csv

echo "== restart smoke + durability-off zero-impact gate =="
# The warm-vs-cold restart figure must replay byte-identically: two seeded
# runs match each other and the committed CSV. The chaos/f3/f13/f14/skew/
# trace/batch cmp gates above double as the durability-off zero-impact
# proof: every one of those cells runs with `CellSpec::durability = None`
# (no device model enabled, no WAL constructed) and regenerates its
# committed artifact byte for byte.
cargo run --release -p bench --bin figures -- restart --csv "$CHAOS_TMP/restart1" >/dev/null
cargo run --release -p bench --bin figures -- restart --csv "$CHAOS_TMP/restart2" >/dev/null
cmp "$CHAOS_TMP/restart1/restart.csv" "$CHAOS_TMP/restart2/restart.csv"
cmp "$CHAOS_TMP/restart1/restart.csv" results/restart.csv

echo "== adaptive smoke + adaptive-off zero-impact gate =="
# The adaptive dataplane figure (load ramp x chaos schedule, controller vs
# each static strategy) must replay byte-identically: two seeded runs match
# each other and the committed CSV. With `CellSpec::adaptive = None` (every
# other committed figure) the controller must be invisible — no RNG fork
# consumed, no per-op branch taken — which the chaos/f3/f13/f14/skew/
# trace/batch/restart cmp gates above prove byte for byte.
cargo run --release -p bench --bin figures -- adaptive --csv "$CHAOS_TMP/adaptive1" >/dev/null
cargo run --release -p bench --bin figures -- adaptive --csv "$CHAOS_TMP/adaptive2" >/dev/null
cmp "$CHAOS_TMP/adaptive1/adaptive.csv" "$CHAOS_TMP/adaptive2/adaptive.csv"
cmp "$CHAOS_TMP/adaptive1/adaptive.csv" results/adaptive.csv

echo "== deterministic parallel-step gate (SIMNET_PARALLEL) =="
# The opt-in conservative parallel step must be byte-identical to the
# serial engine on whole experiments: with SIMNET_PARALLEL set, every cell
# in the run takes the windowed path, and the chaos (fault plans) and
# trace (flight recorder) figures must still regenerate the committed
# artifacts byte for byte.
SIMNET_PARALLEL=8 cargo run --release -p bench --bin figures -- chaos --csv "$CHAOS_TMP/par_chaos" >/dev/null
cmp "$CHAOS_TMP/par_chaos/chaos.csv" results/chaos.csv
SIMNET_PARALLEL=8 cargo run --release -p bench --bin figures -- trace --csv "$CHAOS_TMP/par_trace" >/dev/null
cp results/trace_chrome.json "$CHAOS_TMP/par_trace/trace_chrome.json"
cmp "$CHAOS_TMP/par_trace/trace.csv" results/trace.csv
cmp "$CHAOS_TMP/par_trace/trace_chrome.json" "$CHAOS_TMP/chrome_committed.json"

echo "CI OK"
