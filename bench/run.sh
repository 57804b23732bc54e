#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload instrumented --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout. The first run compiles the standard
# library (twice: once for -race) and takes a few minutes; later runs
# reuse the cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
