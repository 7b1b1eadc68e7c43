#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
  HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
  GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
