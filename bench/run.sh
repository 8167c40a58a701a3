#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is BENCHMARK.json's
# command, run from the root of a checkout. Everything the build and the run
# write stays inside the checkout: the Go caches and the binary under
# .bench_build/, results and span files under bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/elin-bench" .
exec "$build/elin-bench" "$@"
