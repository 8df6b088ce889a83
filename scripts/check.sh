#!/bin/sh
# check.sh — the repository's full verification gate: build, vet,
# formatting, the test suite, and the benchmark module's vet and tests.
# CI runs exactly this script, so a clean local run means a clean CI run.
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# .bench_build/ (gitignored) holds benchmark builds and whole source
# trees of other commits; only this checkout's files are checked.
echo "==> gofmt -l"
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -type f -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go test ./..."
go test ./...

# Machines that share translations through a golden code (publishing,
# adoption, pooled heat and poisoning, template forks, restores and
# code writes) under the race detector.
echo "==> go test -race (translation sharing)"
go test -race -run 'Adopt|Publish|Poison|Pool|Fork|Template|Restore|CodeWrite' ./internal/cpu ./internal/sim

# Time-boxed runs of the block engine's and the trace tier's
# differential fuzz targets and of the snapshot decoder's, beyond their
# committed seeds (which go test ./... above already ran).
echo "==> go test -fuzz FuzzBlockBody (10s)"
go test -run '^$' -fuzz '^FuzzBlockBody$' -fuzztime 10s ./internal/cpu
echo "==> go test -fuzz FuzzTraceBody (10s)"
go test -run '^$' -fuzz '^FuzzTraceBody$' -fuzztime 10s ./internal/cpu
# Snapshot decoding against mutated code: instruction memory's length
# and runs, and the kernel's backing-store code, re-encoded with a valid
# checksum.
echo "==> go test -fuzz FuzzRestoreWire (10s)"
go test -run '^$' -fuzz '^FuzzRestoreWire$' -fuzztime 10s ./internal/sim
# The front ends against arbitrary source: Pasqual through parse and
# both interpreter allocation modes, and assembly through parse,
# reorganization, assembly and a bare machine's Load.
echo "==> go test -fuzz FuzzParse (10s)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/lang
echo "==> go test -fuzz FuzzAssemble (10s)"
go test -run '^$' -fuzz '^FuzzAssemble$' -fuzztime 10s ./internal/asm

# bench/ is a module of its own (it builds against this checkout through
# a replace directive), so ./... above does not reach it.
echo "==> go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./... && go -C bench test ./...

echo "OK"
