#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Every byte the build writes (Go build cache, temp files, the binary)
# stays under .bench_build/ in the checkout; run output goes to
# benchmark/out/. Run from the repository root:
#
#   bash benchmark/run.sh --workload http-null --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/hivemind-benchmark" .)
exec "$build/hivemind-benchmark" "$@"
