#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fig6-suite --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                       # every workload, one child process each
#
# Build outputs, results and scratch stores all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off

go -C bench build -o "$build/proteus-benchmark" .
exec "$build/proteus-benchmark" "$@"
