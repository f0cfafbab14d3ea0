#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source inside the checkout
# (Go's build cache included, so nothing is written outside it) and runs it.
# Usage: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C bench build -o ../.bench_build/bench .
exec .bench_build/bench "$@"
