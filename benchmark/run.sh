#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload long-wzb2 --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -reps 3 -out set.json        # every workload
#   bash benchmark/run.sh -compare base.json change.json
#
# Everything it writes (Go build cache, binary, traces, scratch files) stays
# in .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Keep the toolchain's own files inside the checkout too, and never let it
# reach for the network: the module depends on the standard library only.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -buildvcs=false -o "$build/weipipe-benchmark" .)

if [ -z "${WEIPIPE_BENCH_COMMIT:-}" ]; then
	WEIPIPE_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export WEIPIPE_BENCH_COMMIT

exec "$build/weipipe-benchmark" -dir "$build" "$@"
