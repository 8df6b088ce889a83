#!/bin/sh
# run.sh builds the benchmark from source and runs it. Run it from the
# root of the repository; every argument is passed to the benchmark:
#
#   sh bench/run.sh --workload corpus-long --seed 3 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the benchmark binary and the
# mipsd binary it builds all stay under .bench_build/ in the current
# directory.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
