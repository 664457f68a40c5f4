#!/usr/bin/env bash
# The repository benchmark (bench/perf/README.md).
#
#   bench/perf/run.sh [--seed N] [--workloads a,b | --workload a]
#                     [--seconds S] [--traced | --trace 0|1]
#
# Builds bench/perf into build-perf/ (which also builds src/), then runs
# each workload in its own process, one after another, so peak_rss_mb is
# per workload.  Every metric is printed as `<workload> <metric> <value>
# <unit>`, and each workload's last line is its JSON result.  Writes
# build-perf/bench_result.json and, traced, build-perf/bench_trace.json
# (Chrome trace_event format; open it in https://ui.perfetto.dev).
#
# Unknown workloads and malformed numbers are fatal (exit 2, no result).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
build=build-perf
all=mcf-m5,redis-m5,pr-damon,sweep

seed=7
seconds=10
trace=0
workloads=$all
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || [ "$1" = --traced ] || {
        echo "run.sh: missing value for $1" >&2; exit 2; }
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --workload|--workloads) workloads=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --traced) trace=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
# m5perf parses every value strictly; check names here too so a typo
# fails before the build rather than after it.
IFS=, read -r -a list <<< "$workloads"
[ ${#list[@]} -gt 0 ] || { echo "run.sh: no workloads" >&2; exit 2; }
for w in "${list[@]}"; do
    case ",$all," in
        *",$w,"*) ;;
        *) echo "run.sh: unknown workload '$w'" >&2; exit 2 ;;
    esac
done

jobs=$(nproc 2>/dev/null || echo 1)
{
    cmake -S bench/perf -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$build" -j "$jobs"
} >&2

rm -rf "$build/results" "$build/trace"
for w in "${list[@]}"; do
    "$build/m5perf" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --out "$build"
done

# Assemble the per-workload records written by m5perf.
join() {
    local first=1
    for f in "$@"; do
        [ $first -eq 1 ] || printf ',\n'
        cat "$f"
        first=0
    done
}
files=()
for w in "${list[@]}"; do files+=("$build/results/$w.json"); done
{ printf '{"runs": [\n'; join "${files[@]}"; printf ']}\n'; } \
    > "$build/bench_result.json"
if [ "$trace" = 1 ]; then
    files=()
    for w in "${list[@]}"; do files+=("$build/trace/$w.events"); done
    { printf '{"displayTimeUnit": "ns", "traceEvents": [\n'
      join "${files[@]}"; printf ']}\n'; } > "$build/bench_trace.json"
fi
