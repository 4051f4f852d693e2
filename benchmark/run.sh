#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source into
# .bench_build/ under the checkout root (compiler cache included, so nothing
# is written outside the checkout) and runs it with the arguments it was given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$build/stmbench7-benchmark" .
cd "$root"
exec "$build/stmbench7-benchmark" "$@"
