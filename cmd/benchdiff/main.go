// Command benchdiff compares two BENCH_core.json artifacts and gates
// on performance regressions.
//
// Usage:
//
//	benchdiff [-threshold PCT] [-q] old.json new.json
//	benchdiff runs.jsonl
//
// It prints a per-benchmark delta table for cycles, nop fraction, and
// free-bandwidth fraction — plus informational (never gated) sections
// for per-tier instruction residency and the trace deopt-reason mix —
// then exits non-zero if any benchmark's cycle count grew by more than
// the threshold (default 2%) or disappeared from the new artifact. The simulator is deterministic, so
// identical code yields byte-identical artifacts and any delta is a
// real behavioral change; CI runs this against the committed baseline
// (scripts/benchgate.sh).
//
// Given one .jsonl file instead, it renders the paired wall-clock runs
// scripts/pairs.sh writes: for each workload and each end-to-end metric
// of BENCHMARK.json in the working directory, each side's median and
// quartiles, the change in median, the pairs the change won, the
// parent's spread (IQR over median) and a verdict — "gain" (at least 9
// of 10 pairs won and a median gap larger than the parent's IQR),
// "worse than bound", "unresolved" (the parent's spread exceeds the
// metric's bound) or "within bound" — then each workload's failed
// operations per side.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mips/internal/tables"
)

func main() {
	threshold := flag.Float64("threshold", 2.0, "max allowed cycle growth in percent")
	quiet := flag.Bool("q", false, "suppress the delta table; print only regressions")
	flag.Parse()
	if flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".jsonl") {
		pairsMain(flag.Arg(0))
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold PCT] old.json new.json | benchdiff runs.jsonl")
		os.Exit(2)
	}
	old, err := readArtifact(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := readArtifact(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	deltas := tables.DiffCoreBench(old, cur)
	if !*quiet {
		fmt.Println(tables.BenchDiffTable(deltas, *threshold).Render())
		// Informational only: where instructions retired per engine
		// tier and how trace guard exits were distributed. Never gated
		// — but the first place to look when the cycle gate trips.
		res := tables.DiffResidency(old, cur)
		if t := tables.BenchResidencyTable(res); t != nil {
			fmt.Println(t.Render())
		}
		if t := tables.BenchDeoptTable(res); t != nil {
			fmt.Println(t.Render())
		}
	}
	bad := tables.Regressions(deltas, *threshold)
	if len(bad) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmarks within +%.1f%%\n", len(deltas), *threshold)
		return
	}
	for _, d := range bad {
		if d.OnlyOld {
			fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: missing from %s\n", d.Name, flag.Arg(1))
			continue
		}
		fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: cycles %d -> %d (%+.2f%% > +%.1f%%)\n",
			d.Name, d.OldCycles, d.NewCycles, d.CyclesPct, *threshold)
	}
	os.Exit(1)
}

func readArtifact(name string) (map[string]tables.CoreBenchEntry, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bench, err := tables.ReadCoreBenchFile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return bench, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
