#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the root of the repository, for example:
#
#   bash perfbench/run.sh --workload predict-cached --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and any trace files stay under .bench_build
# in the working directory; nothing is fetched from the network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
