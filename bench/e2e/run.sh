#!/usr/bin/env bash
# End-to-end benchmark.  Builds the library, the four driver binaries
# and the harness in Release from this checkout's sources (into
# .bench_build/e2e, incrementally), then runs the harness.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--smoke]
#
# Without --workload all five workloads run.  Build output goes to
# stderr; the last line of stdout is the JSON result.  See README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f src/CMakeLists.txt || ! -f tools/CMakeLists.txt ]]; then
    echo "run.sh: $root has no src/ or tools/ to build" >&2
    exit 1
fi

args=()
for a in "$@"; do
    if [[ $a == --traced ]]; then
        args+=(--trace 1)
    else
        args+=("$a")
    fi
done

build=.bench_build/e2e
jobs=$(nproc 2>/dev/null || echo 2)
if ((jobs > 4)); then
    jobs=4
fi
if [[ ! -f $build/CMakeCache.txt ]]; then
    generator=()
    if command -v ninja >/dev/null; then
        generator=(-G Ninja)
    fi
    cmake -S bench/e2e -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

exec "$build/e2e_harness" --bin "$build/tools" --work "$build/work" \
    --spans "$build/spans" --expected bench/e2e/expected.json "${args[@]}"
