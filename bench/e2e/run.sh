#!/usr/bin/env bash
# Build and run the SIREN end-to-end pipeline benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result JSON
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload once, every metric by name and unit
#   bench/e2e/run.sh --repeat N [--workload NAME] [--seconds S]
#       N runs per workload on seeds 1..N: median, min, max and spread
#   bench/e2e/run.sh --overhead [--workload NAME] [--seed N]
#       an untraced and a traced run per workload: the tracing overhead
#
# The benchmark builds itself from the sources of this checkout into
# build/bench-e2e/ and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/bench-e2e"
cd "$root"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" >&2
fi
# At most 4 compile jobs: each takes several hundred MB.
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi
cmake --build "$build" --target siren_bench -j "$jobs" >&2

if [[ "$(git -C "$root" rev-parse --show-toplevel 2> /dev/null)" == "$root" ]]; then
    SIREN_BENCH_GIT="$(git -C "$root" rev-parse HEAD)"
    if [[ -n "$(git -C "$root" status --porcelain)" ]]; then SIREN_BENCH_GIT+="+dirty"; fi
    export SIREN_BENCH_GIT
fi

# One named workload without --repeat/--overhead: run it directly.
single=0
for arg in "$@"; do
    case "$arg" in
        --repeat | --overhead) single=0; break ;;
        --workload) single=1 ;;
    esac
done
if [[ "$single" == 1 && " $* " != *" --workload all "* ]]; then
    exec "$build/siren_bench" "$@"
fi
exec python3 "$here/aggregate.py" --binary "$build/siren_bench" "$@"
