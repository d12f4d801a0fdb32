#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Run from the root
# of a checkout: bash benchmark/run.sh --workload ndp_scan --seed 1 --seconds 12 --trace 0
# Everything the build and the run write stays inside the checkout:
# the Go caches and the binary under .bench_build/, data directories under
# .bench_build/tmp/, span dumps under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/taurus-benchmark" .)
exec "$build/taurus-benchmark" -tmp "$build/tmp" -out "$here/out" "$@"
