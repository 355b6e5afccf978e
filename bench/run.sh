#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark and runs it with the
# arguments given.  Everything the build writes, Go's build cache
# included, stays in .bench_build at the root of the checkout.
#
#   bash bench/run.sh --workload paper-target --seed 1 --seconds 24 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p ../.bench_build
export GOCACHE="$PWD/../.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o ../.bench_build/bench .
exec ../.bench_build/bench "$@"
