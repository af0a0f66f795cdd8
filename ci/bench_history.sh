#!/usr/bin/env bash
# Perf-trajectory driver: compares a fresh set of BENCH_*.json metrics
# files against the previous run's artifact, and appends the headline
# node_rounds_per_sec* metrics to the merged BENCH_TRAJECTORY.json
# (schema "beep-bench-trajectory", see crates/bench/src/trajectory.rs).
#
#   ci/bench_history.sh check <bench-json-dir> <baseline-dir> [tolerance]
#       For every BENCH_*.json under <bench-json-dir>, compare every
#       node_rounds_per_sec* metric against the same file in
#       <baseline-dir> within the tolerance band (default 0.4 = −40%).
#       A missing baseline dir/file is a note, not a failure: the first
#       run, an expired artifact, or a fresh fork has no history yet.
#
#   ci/bench_history.sh append <bench-json-dir> <trajectory-file> [commit]
#       Append one row per node_rounds_per_sec* metric to the trajectory
#       file (created from the committed seed if absent), tagged with
#       [commit] (default: $GITHUB_SHA, else "local").
#
# Exit codes: 0 pass, 1 a band regressed, 2 usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: ci/bench_history.sh check <bench-json-dir> <baseline-dir> [tolerance]" >&2
    echo "       ci/bench_history.sh append <bench-json-dir> <trajectory-file> [commit]" >&2
    exit 2
}

[ $# -ge 3 ] || usage
mode=$1
dir=$2

check_bench() {
    cargo run --release --quiet -p beep-bench --bin check_bench -- "$@"
}

[ -d "$dir" ] || { echo "bench_history: $dir is not a directory" >&2; exit 2; }

# Only files carrying the headline metric take part (all engine benches
# e5 and e8–e12 emit it; a future bench without one is simply skipped).
mapfile -t files < <(grep -l '"node_rounds_per_sec' "$dir"/BENCH_*.json 2>/dev/null || true)
if [ ${#files[@]} -eq 0 ]; then
    echo "bench_history: no BENCH_*.json with node_rounds_per_sec metrics under $dir" >&2
    exit 2
fi

case "$mode" in
check)
    baseline_dir=$3
    tolerance=${4:-0.4}
    status=0
    for f in "${files[@]}"; do
        base="$baseline_dir/$(basename "$f")"
        check_bench "$f" --key-prefix node_rounds_per_sec \
            --baseline "$base" --tolerance "$tolerance" || status=1
    done
    exit $status
    ;;
append)
    trajectory=$3
    commit=${4:-${GITHUB_SHA:-local}}
    commit=${commit:0:12}
    for f in "${files[@]}"; do
        check_bench "$f" --key-prefix node_rounds_per_sec \
            --trajectory "$trajectory" --commit "$commit"
    done
    ;;
*)
    usage
    ;;
esac
