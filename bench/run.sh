#!/usr/bin/env bash
# BENCHMARK.json's command: build mvpearsd and the load generator from
# source into .bench_build/ (Go build cache included, so nothing is
# written outside the checkout), then run one workload. Arguments are
# passed through: --workload NAME --seed N --seconds S --trace 0|1.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/mvpearsd" ./cmd/mvpearsd
go build -o "$build/loadgen" ./bench/loadgen
exec "$build/loadgen" -work "$build" -daemon "$build/mvpearsd" "$@"
