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

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go test ./..."
go test ./...

# Time-boxed runs of the block engine's and the trace tier's
# differential fuzz targets, beyond their committed seeds (which go test
# ./... above already ran).
echo "==> go test -fuzz FuzzBlockBody (10s)"
go test -run '^$' -fuzz '^FuzzBlockBody$' -fuzztime 10s ./internal/cpu
echo "==> go test -fuzz FuzzTraceBody (10s)"
go test -run '^$' -fuzz '^FuzzTraceBody$' -fuzztime 10s ./internal/cpu

# bench/ is a module of its own (it builds against this checkout through
# a replace directive), so ./... above does not reach it.
echo "==> go -C bench vet ./... && go -C bench test ./..."
go -C bench vet ./... && go -C bench test ./...

echo "OK"
