#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Everything the build writes stays inside the checkout, under
# .bench_build/ (the Go build cache included), so a second run only links.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/rsr-bench ./bench
exec .bench_build/rsr-bench "$@"
