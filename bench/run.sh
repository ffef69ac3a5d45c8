#!/bin/bash
# The entry point BENCHMARK.json names: builds the benchmark from source and
# runs it, with the Go build cache inside the checkout (.bench_build/, which
# .gitignore names) so that nothing is read or written outside it.
#
#   bash bench/run.sh --workload steady_small --seed 1009 --seconds 20 --trace 0
cd "$(dirname "$0")/.." || exit 1
export GOCACHE="$PWD/.bench_build/go-cache" GOFLAGS="${GOFLAGS:+$GOFLAGS }-buildvcs=false"
exec go run ./bench "$@"
