#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload large-const --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the Go tool's own state stay under
# .bench_build in the current directory, and the Go tool is told never to
# fetch a module or a toolchain: the build needs only the standard library
# and the repository's own packages.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$build/alsbench" .
exec "$build/alsbench" "$@"
