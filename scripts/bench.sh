#!/bin/sh
# bench.sh — the performance gate: core microbenchmarks with allocation
# reporting, the zero-allocation steady-state assertion, and the
# machine-readable corebench artifact (BENCH_core.json).
#
#   sh scripts/bench.sh            # full run, writes BENCH_core.json
#   BENCH_OUT=/tmp/b.json sh scripts/bench.sh
set -eu
cd "$(dirname "$0")/.."

out=${BENCH_OUT:-BENCH_core.json}

echo "==> steady-state allocation check (must be 0 allocs/op)"
go test ./internal/cpu/ -run TestSteadyStateZeroAlloc -count=1 -v
go test ./internal/kernel/ -run TestTracedProcessSteadyStateZeroAlloc -count=1 -v

echo "==> side-trace/inline-cache dispatch paths (must be 0 allocs/op)"
go test ./internal/cpu/ -run TestSideTraceZeroAllocSteadyState -count=1 -v

echo "==> trace formation: a constant allocation count per trace, whatever its length"
go test ./internal/cpu/ -run TestTraceFormationAllocs -count=1 -v
go test ./internal/cpu/ -run '^$' -bench BenchmarkTraceFormation \
    -benchmem -benchtime 1s

echo "==> job-service hot path without telemetry (must be 0 allocs/op)"
go test ./internal/sim/ -run TestJobServiceNoTelemetryZeroAlloc -count=1 -v
go test ./internal/sim/ -run '^$' -bench BenchmarkJobServiceNoTelemetry \
    -benchmem -benchtime 1s

echo "==> trace JIT steady state (0 allocs/op assertion runs inside the benchmark), and kernel-hosted runs on blocks vs traces (ns/instr)"
go test -run '^$' -bench 'PipelineTraces|KernelRun' -benchmem -benchtime 1s .

echo "==> warm-fork admission: no page copies until first write"
go test ./internal/sim/ -run TestTemplateForkNoCopiesUntilWrite -count=1 -v

echo "==> warm-fork admission: allocation ceilings (cold <= 256 KB/op, fork <= 48 KB/op) and fork vs cold-boot latency (4x gate); a kernel job, boot to halt, allocates <= 300 KB"
go test -run 'TestAdmissionForkSpeedup|TestKernelJobAllocs' -count=1 -v .
go test -run '^$' -bench 'AdmissionColdBoot|AdmissionTemplateFork|SnapshotRoundTripKernel' \
    -benchmem -benchtime 1s .

echo "==> physical memory: per-access load/store cost"
go test ./internal/mem/ -run '^$' -bench PhysicalLoadStore -benchtime 1s

echo "==> reorganizer: at most 4 allocations per output word, and the corpus through Reorganize(All()) (ms/op, B/op)"
go test ./internal/reorg/ -run TestReorganizeAllocs -count=1 -v
go test ./internal/reorg/ -run '^$' -bench BenchmarkReorganize -benchmem -benchtime 1s

echo "==> one evaluation pass: every experiment plus corebench (ms/op, B/op)"
go test -run '^$' -bench EvaluationPass -benchmem -benchtime 5x .

echo "==> core microbenchmarks"
go test -run '^$' -bench \
    'PipelineSimulator|PipelineFastPath|PipelineReference|KernelBoot|DemandPaging|PageReplacement|FreeCycleDMA' \
    -benchmem -benchtime 1s .

echo "==> corebench -> $out"
go run ./cmd/paperbench -j 0 -core-json "$out" corebench > /dev/null

echo "OK: wrote $out"
