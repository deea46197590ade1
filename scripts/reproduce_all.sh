#!/usr/bin/env bash
# Regenerate every table and figure of the paper into results/, then refresh
# EXPERIMENTS.md. Usage:
#
#   scripts/reproduce_all.sh [smoke|quick|paper|full] [--jobs N]
#       [--farm HOST:PORT [--shards N]]
#
# quick: minutes. paper: ~1-2 hours on one core (Figure 8/9 dominate).
# full: unscaled Table 3 datasets; hours and ~16 GiB of host RAM.
# smoke: seconds; only checks the machinery.
#
# --jobs N fans each harness's grid across N worker threads (0 = all
# cores), the way to run in parallel on one host; --farm HOST:PORT
# submits every grid to a running farmd coordinator and its workers
# instead, with --shards N as the requested slice count (default: one
# slice per connected worker; --shards without --farm is an error).
# Output is byte-identical to a serial run any way; only wall-clock
# changes.
# Generated datasets are cached under results/.dataset-cache, so repeat
# runs skip regeneration. Figures 2, 8, 9 and 11 sweep overlapping unit
# grids, so they share a per-invocation report cache (results/.report-cache, cleared
# up front): the first binary to simulate a unit records its report, the
# rest replay it byte-identically. Each binary writes
# results/<name>_<scale>.json, and the script records per-binary
# wall-clock and dataset-cache hit/miss counts in results/BENCH_sweep.json.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="quick"
JOBS=1
SHARDS=0
FARM=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        smoke|quick|paper|full) SCALE="$1"; shift ;;
        --jobs) JOBS="$2"; shift 2 ;;
        --shards) SHARDS="$2"; shift 2 ;;
        --farm) FARM="$2"; shift 2 ;;
        *) echo "usage: $0 [smoke|quick|paper|full] [--jobs N] [--farm HOST:PORT [--shards N]]" >&2; exit 2 ;;
    esac
done
if [[ $SHARDS -gt 0 && -z $FARM ]]; then
    echo "--shards N sets the slice count for --farm; use --jobs N to run in parallel on this host" >&2
    exit 2
fi

B=target/release
CACHE_DIR=results/.dataset-cache
REPORT_CACHE=results/.report-cache
mkdir -p results
# Unit reports must not outlive one invocation (a simulator change would
# otherwise replay stale results), so start from an empty report cache.
rm -rf "$REPORT_CACHE"

cargo build --release -p dvm-bench

suffix="$SCALE"
BENCH_ROWS=""
now_ms() { python3 -c 'import time; print(int(time.time()*1000))'; }
# Sum a `key=` field across every stderr stats line with the given
# prefix (each farm worker prints its own dataset-cache/report-cache
# line).
cache_count() { # prefix, key, stderr-file
    awk -v prefix="^$1:" -v key="$2" '$0 ~ prefix {
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2 && kv[1] == key) total += kv[2]
    } END { print total + 0 }' "$3"
}
run() { # name, extra args...
    local name="$1"; shift
    local extra=()
    if [[ $SHARDS -gt 0 ]]; then
        extra+=(--shards "$SHARDS")
    fi
    if [[ -n $FARM ]]; then
        extra+=(--farm "$FARM")
    fi
    echo ">>> $name --scale $SCALE --jobs $JOBS ${extra[*]} $*"
    local t0 t1 err
    err=$(mktemp)
    t0=$(now_ms)
    "$B/$name" --scale "$SCALE" --jobs "$JOBS" \
        --cache-dir "$CACHE_DIR" "${extra[@]}" \
        --json "results/${name}_${suffix}.json" "$@" \
        > "results/${name}_${suffix}.txt" \
        2> "$err" || { cat "$err" >&2; rm -f "$err"; exit 1; }
    t1=$(now_ms)
    cat "$err" >&2
    local hits misses
    hits=$(cache_count dataset-cache hits "$err")
    misses=$(cache_count dataset-cache misses "$err")
    rm -f "$err"
    BENCH_ROWS+="    {\"bin\": \"$name\", \"wall_ms\": $((t1 - t0)), \"cache_hits\": $hits, \"cache_misses\": $misses},"$'\n'
}

# The shared unit-report cache.
RC_ARGS=(--report-cache "$REPORT_CACHE")

run table3
run table1
run table4
run fig10
run fig2 "${RC_ARGS[@]}"
run fig8 "${RC_ARGS[@]}"
run fig9 "${RC_ARGS[@]}"
run fig11 "${RC_ARGS[@]}"
run table5
run virt
run churn

# Timing + cache summary for this sweep (not diffed against goldens).
{
    echo "{"
    echo "  \"schema_version\": 1,"
    echo "  \"experiment\": \"bench-sweep\","
    echo "  \"scale\": \"$SCALE\","
    echo "  \"jobs\": $JOBS,"
    echo "  \"shards\": $SHARDS,"
    echo "  \"bins\": ["
    printf '%s' "${BENCH_ROWS%,$'\n'}"
    echo ""
    echo "  ]"
    echo "}"
} > results/BENCH_sweep.json

python3 scripts/fill_experiments.py
echo "done: see results/ and EXPERIMENTS.md"
