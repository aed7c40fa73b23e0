#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark (a no-op once built) and
# run it from bench/. Everything the go tool writes — build cache, link
# scratch, the binary — stays inside the checkout, under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -C "$bench" -o "$build/bench" .
cd "$bench"
exec "$build/bench" "$@"
