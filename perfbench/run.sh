#!/usr/bin/env bash
# Builds the benchmark from the repository source it sits in and runs
# it with the given arguments, e.g.
#   bash perfbench/run.sh --workload rq1_lint --seed 1 --seconds 10 --trace 0
# Build outputs and run scratch stay under .bench_build in the current
# directory; nothing is fetched (GOPROXY=off, local toolchain only).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$here" build -o "$root/.bench_build/perfbench" .
exec "$root/.bench_build/perfbench" "$@"
