#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, the tier-1 test suite, the
# benchmark's self-test, the multi-process determinism checks through a
# loopback sweep farm, and a golden-result diff.
# Everything here runs with no network and no vendored crates — the
# default workspace has zero external dependencies by design (see
# DESIGN.md, "Sweep engine & hermetic build").
#
#   scripts/ci.sh
#
# The extended property-test suite (proptest) lives in exttests/ and is
# NOT run here because it needs crates.io access:
#
#   cargo test --manifest-path exttests/Cargo.toml
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release (tier-1)"
cargo build --release
# The root package does not depend on the bench/farm *binaries*, so
# build them explicitly — the gates below run them from target/release.
cargo build --release -p dvm-bench
cargo build --release -p dvm-farm

echo "== cargo test (tier-1)"
cargo test -q

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== benchmark self-test (perfbench)"
# perfbench builds against the workspace crates by path, so removing or
# renaming an item it uses must fail here rather than in a benchmark run.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== loopback sweep farm (farmd + 2 workers, up until the script ends)"
# Every multi-process gate below submits its grid to this one farm.
# farmd binds port 0; its actual address is scraped from the log line it
# prints once bound.
SHARD_TMP=$(mktemp -d)
FARM_PIDS=""
trap 'kill $FARM_PIDS 2> /dev/null || true; rm -rf "$SHARD_TMP"' EXIT
target/release/farmd --listen 127.0.0.1:0 2> "$SHARD_TMP/farmd.log" &
FARM_PIDS="$!"
FARM_ADDR=""
for _ in $(seq 1 100); do
    FARM_ADDR=$(sed -n 's/^farmd: listening on //p' "$SHARD_TMP/farmd.log")
    [[ -n $FARM_ADDR ]] && break
    sleep 0.1
done
[[ -n $FARM_ADDR ]] || { echo "farmd never printed its address" >&2; exit 1; }
target/release/farmworker --connect "$FARM_ADDR" --name ci-w1 \
    --bin-dir target/release --scratch "$SHARD_TMP" 2> /dev/null &
FARM_PIDS="$FARM_PIDS $!"
target/release/farmworker --connect "$FARM_ADDR" --name ci-w2 \
    --bin-dir target/release --scratch "$SHARD_TMP" 2> /dev/null &
FARM_PIDS="$FARM_PIDS $!"

echo "== farm determinism (fig2, quick scale, 2 slices)"
# A 2-slice farm run must be byte-identical to the serial run — text
# table and JSON document alike. The shared dataset cache means the farm
# run skips regeneration entirely.
target/release/fig2 --scale quick --datasets FR --jobs 1 \
    --cache-dir "$SHARD_TMP/cache" \
    --json "$SHARD_TMP/serial.json" > "$SHARD_TMP/serial.txt"
target/release/fig2 --scale quick --datasets FR --jobs 1 --shards 2 \
    --farm "$FARM_ADDR" --cache-dir "$SHARD_TMP/cache" \
    --json "$SHARD_TMP/farm.json" > "$SHARD_TMP/farm.txt"
cmp "$SHARD_TMP/serial.txt" "$SHARD_TMP/farm.txt"
cmp "$SHARD_TMP/serial.json" "$SHARD_TMP/farm.json"
echo "fig2 farm output is byte-identical to serial"

echo "== golden-result diff (virt, fig10, table4, quick scale)"
# Regenerate the cheap quick-scale documents and diff them against the
# committed goldens; the full set is checked by reproduce_all.sh +
# scripts/diff_results.sh.
target/release/virt --json "$SHARD_TMP/virt_quick.json" > /dev/null
target/release/fig10 --scale quick --json "$SHARD_TMP/fig10_quick.json" > /dev/null
target/release/table4 --scale quick --json "$SHARD_TMP/table4_quick.json" > /dev/null
scripts/diff_results.sh "$SHARD_TMP" virt fig10 table4

echo "== perf trend (fig8 + fig9, quick scale)"
# Time the two dominant sweeps with a fresh shared report cache (fig8
# simulates, fig9 replays — the reproduce_all.sh arrangement), append
# both wall times to results/BENCH_trend.json, and fail if fig8
# regressed more than 25% over the last entry recorded on this host.
# Outputs are also diffed against the goldens — the perf machinery must
# not change bytes.
now_ms() { python3 -c 'import time; print(int(time.time()*1000))'; }
t0=$(now_ms)
target/release/fig8 --scale quick --jobs 1 --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig8_quick.json" > /dev/null
t1=$(now_ms)
FIG8_MS=$((t1 - t0))
t0=$(now_ms)
target/release/fig9 --scale quick --jobs 1 --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig9_quick.json" > /dev/null
t1=$(now_ms)
FIG9_MS=$((t1 - t0))
scripts/diff_results.sh "$SHARD_TMP" fig8 fig9

echo "== DVM-vs-SVA comparison (fig11, quick scale)"
# fig11 shares fig8's grid for its 4K/DVM-PE+/Ideal columns, so under the
# shared report cache only the two SVA schemes simulate fresh. The
# document is diffed against its golden like every other figure.
t0=$(now_ms)
target/release/fig11 --scale quick --jobs 1 --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig11_quick.json" > /dev/null
t1=$(now_ms)
FIG11_MS=$((t1 - t0))
scripts/diff_results.sh "$SHARD_TMP" fig11

echo "== farm determinism (fig11, quick scale, one slice per worker)"
# The new binary must honour the same contract as the old ones: a
# farm-merged run is byte-identical to a serial one (the warm report
# cache makes both replays, so this checks the merge plumbing).
target/release/fig11 --scale quick --datasets FR --jobs 1 \
    --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig11_serial.json" > "$SHARD_TMP/fig11_serial.txt"
target/release/fig11 --scale quick --datasets FR --jobs 1 \
    --farm "$FARM_ADDR" --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig11_farm.json" > "$SHARD_TMP/fig11_farm.txt"
cmp "$SHARD_TMP/fig11_serial.txt" "$SHARD_TMP/fig11_farm.txt"
cmp "$SHARD_TMP/fig11_serial.json" "$SHARD_TMP/fig11_farm.json"
target/release/fig11 --scale quick --datasets FR --jobs 2 \
    --cache-dir results/.dataset-cache \
    --report-cache "$SHARD_TMP/report-cache" \
    --json "$SHARD_TMP/fig11_jobs2.json" > "$SHARD_TMP/fig11_jobs2.txt"
cmp "$SHARD_TMP/fig11_serial.txt" "$SHARD_TMP/fig11_jobs2.txt"
cmp "$SHARD_TMP/fig11_serial.json" "$SHARD_TMP/fig11_jobs2.json"
echo "fig11 farm and threaded outputs are byte-identical to serial"

echo "== churn time-series (quick scale: golden diff + determinism)"
# The churn trajectory is a pure function of its config: the quick-scale
# document must match its committed golden exactly, and a 3-slice farm
# run or a 2-thread run must be byte-identical to serial (each config is
# one unit, so the farm splits the three configs across its workers).
target/release/churn --scale quick --jobs 1 \
    --json "$SHARD_TMP/churn_quick.json" > "$SHARD_TMP/churn_serial.txt"
scripts/diff_results.sh "$SHARD_TMP" churn
target/release/churn --scale quick --jobs 1 --shards 3 --farm "$FARM_ADDR" \
    --json "$SHARD_TMP/churn_farm.json" > "$SHARD_TMP/churn_farm.txt"
cmp "$SHARD_TMP/churn_serial.txt" "$SHARD_TMP/churn_farm.txt"
cmp "$SHARD_TMP/churn_quick.json" "$SHARD_TMP/churn_farm.json"
target/release/churn --scale quick --jobs 2 \
    --json "$SHARD_TMP/churn_jobs2.json" > "$SHARD_TMP/churn_jobs2.txt"
cmp "$SHARD_TMP/churn_serial.txt" "$SHARD_TMP/churn_jobs2.txt"
cmp "$SHARD_TMP/churn_quick.json" "$SHARD_TMP/churn_jobs2.json"
echo "churn farm and threaded outputs are byte-identical to serial"

python3 scripts/bench_trend.py ci "$FIG8_MS" "$FIG9_MS" "$FIG11_MS"

echo "ci: all green"
