#!/usr/bin/env bash
# Shared perf-bar checker for CI and local use.
#
# The engine benches emit machine-readable metrics files
# (target/bench-json/BENCH_e5.json, BENCH_e8.json … BENCH_e12.json —
# schema "beep-bench-metrics", see crates/bench/src/perfjson.rs). This
# script asserts metrics by delegating to the hermetic Rust checker (no
# jq/python dependency). Current invocations:
#
#   # Absolute floors (the per-push perf bars):
#   ci/check_bench.sh target/bench-json/BENCH_e5.json --key arms --min 6
#   ci/check_bench.sh target/bench-json/BENCH_e8.json --key speedup_n100000 --min 5
#   ci/check_bench.sh target/bench-json/BENCH_e9.json --key speedup_n1000000 --min 2 --min-cores 4
#   ci/check_bench.sh target/bench-json/BENCH_e10.json --key models --min 4
#   ci/check_bench.sh target/bench-json/BENCH_e11.json --key kinds --min 3
#   ci/check_bench.sh target/bench-json/BENCH_e12.json --key policies --min 3
#
#   # Trajectory band against a previous run's artifact (see also
#   # ci/bench_history.sh, which drives this across every BENCH file):
#   ci/check_bench.sh target/bench-json/BENCH_e8.json \
#       --key-prefix node_rounds_per_sec --baseline baseline/BENCH_e8.json --tolerance 0.4
#
#   # Append headline metrics to the merged trajectory:
#   ci/check_bench.sh target/bench-json/BENCH_e8.json \
#       --key-prefix node_rounds_per_sec --trajectory BENCH_TRAJECTORY.json --commit "$GITHUB_SHA"
#
# --min-cores N waives the --min floor (but still requires the metric to
# exist) on machines with fewer than N cores — thread speedups need
# threads. Exit codes: 0 pass, 1 bar missed or band regressed,
# 2 usage/schema error.
set -euo pipefail

usage() {
    echo "usage: ci/check_bench.sh <BENCH_*.json> (--key K | --key-prefix P)" >&2
    echo "           [--min X] [--min-cores N]" >&2
    echo "           [--baseline OLD.json] [--tolerance F]" >&2
    echo "           [--trajectory FILE] [--commit SHA]" >&2
    exit 2
}

# Validate flags here so a typo'd invocation fails with usage instead of
# surfacing as a cryptic error from deep inside the binary.
args=("$@")
i=0
while [ $i -lt ${#args[@]} ]; do
    case "${args[$i]}" in
    --key | --key-prefix | --min | --min-cores | --baseline | --tolerance | --trajectory | --commit)
        i=$((i + 2)) # flag + value; a missing value is caught by the binary
        ;;
    --*)
        echo "ci/check_bench.sh: unknown flag ${args[$i]}" >&2
        usage
        ;;
    *)
        i=$((i + 1)) # the metrics-file positional
        ;;
    esac
done

cd "$(dirname "$0")/.."
exec cargo run --release --quiet -p beep-bench --bin check_bench -- "$@"
