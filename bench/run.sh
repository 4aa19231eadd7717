#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given. Everything the build leaves behind (Go's build cache,
# its temporary files, the binary) stays inside the checkout, under
# .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/statbench" ./bench
exec "$build/statbench" "$@"
