#!/usr/bin/env bash
# Builds pqd and the benchmark from the checkout in the current
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload single-op --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file goes under .bench_build/
# in the checkout (CARGO_TARGET_DIR-style), so nothing is written
# outside it. The build fails, and so does this script, when the
# checkout lacks the program's sources.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

mkdir -p "$build/bin"
go build -o "$build/bin/pqd" ./cmd/pqd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
