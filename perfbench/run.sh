#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload campaign-gamma --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The build cache, the binary,
# temporary snapshots and stores, and span files all go under
# .bench_build/ there; nothing is read or written outside the checkout
# but the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
