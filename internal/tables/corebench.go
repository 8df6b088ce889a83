package tables

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/trace"
)

// CoreBenchEntry is the machine-readable record for one corpus program:
// the full metrics-registry snapshot of its run plus the headline
// derived ratios.
type CoreBenchEntry struct {
	// Metrics is the registry snapshot (cpu.* counters).
	Metrics trace.Snapshot `json:"metrics"`
	// NopFraction is nops / instructions.
	NopFraction float64 `json:"nop_fraction"`
	// FreeBandwidthFraction is free data-port cycles / total cycles —
	// the §3.1 wasted-bandwidth quantity.
	FreeBandwidthFraction float64 `json:"free_bandwidth_fraction"`
}

// CoreBenchRun runs every non-heavy corpus program through the fully
// optimized tool chain on the given engine and collects each run's
// metrics through the registry — the machine-readable companion to the
// rendered tables, written by cmd/paperbench as BENCH_core.json. Each
// program's compile+run is independent (own machine, own registry), so
// the corpus fans out over a bounded worker pool; workers <= 0 selects
// GOMAXPROCS, and the result, keyed by program name, is identical
// regardless of workers. sink, if non-nil, receives each program's
// metrics registry right before that program starts running, from the
// worker goroutine. The telemetry server registers them as labeled
// sources, which is what makes `paperbench -serve` show per-experiment
// counters climbing while the corpus runs. The hook must be safe for
// concurrent calls.
func CoreBenchRun(workers int, engine sim.Engine, sink func(name string, reg *trace.Registry)) (map[string]CoreBenchEntry, error) {
	var progs []corpus.Program
	for _, p := range corpus.All() {
		if !p.Heavy {
			progs = append(progs, p)
		}
	}
	entries := make([]CoreBenchEntry, len(progs))
	errs := make([]error, len(progs))
	forEachIndexed(len(progs), workers, func(i int) {
		entries[i], errs[i] = coreBenchOne(progs[i], engine, sink)
	})
	out := make(map[string]CoreBenchEntry, len(progs)+1)
	for i, p := range progs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[p.Name] = entries[i]
	}
	// The warm-fork admission entry rides along: fib run to completion on
	// a template fork, with the jobs.* COW counters in its metrics.
	admission, err := admissionBench(engine, sink)
	if err != nil {
		return nil, err
	}
	out["admission"] = admission
	return out, nil
}

// coreBenchOne compiles and runs one corpus program on the sim facade,
// returning its metrics record.
func coreBenchOne(p corpus.Program, engine sim.Engine, sink func(name string, reg *trace.Registry)) (CoreBenchEntry, error) {
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	reg, run := coreRegistry(p.Name, sink)
	m, err := sim.New(sim.WithEngine(engine), sim.WithTelemetry(reg))
	if err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := m.Load(im); err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := run(m); err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	if p.Output != "" && m.Output() != p.Output {
		return CoreBenchEntry{}, fmt.Errorf("%s: wrong output %q", p.Name, m.Output())
	}
	snap := reg.Snapshot()
	nopFrac := 0.0
	if n := snap["cpu.instructions"]; n > 0 {
		nopFrac = float64(snap["cpu.nops"]) / float64(n)
	}
	return CoreBenchEntry{
		Metrics:               snap,
		NopFraction:           nopFrac,
		FreeBandwidthFraction: m.Stats().FreeBandwidthFraction(),
	}, nil
}

// coreRegistry returns the registry of one corebench program, handed to
// sink (a live reader: paperbench -serve) before any machine writes it,
// and the function that runs the program's machine to halt. The run
// holds the lock the registry's samples take, so a reader samples the
// counters before or after the run, never while the machine writes
// them.
func coreRegistry(name string, sink func(name string, reg *trace.Registry)) (*trace.Registry, func(*sim.Machine) error) {
	reg := trace.NewRegistry()
	var mu sync.Mutex
	reg.Guard(&mu)
	if sink != nil {
		sink(name, reg)
	}
	return reg, func(m *sim.Machine) error {
		mu.Lock()
		defer mu.Unlock()
		_, err := m.Run(500_000_000)
		return err
	}
}

// WriteCoreBench writes the CoreBench result as indented JSON with
// deterministic key order.
func WriteCoreBench(w io.Writer, bench map[string]CoreBenchEntry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bench) // map keys are sorted by encoding/json
}

// CoreBenchTable renders the CoreBench result for the console, so the
// JSON artifact and the printed experiments stay in sync.
func CoreBenchTable(bench map[string]CoreBenchEntry) *Table {
	t := &Table{
		ID:     "corebench",
		Title:  "Per-program core metrics (fully optimized; also written to BENCH_core.json)",
		Header: []string{"program", "cycles", "instructions", "nops", "nop%", "free bw"},
	}
	names := make([]string, 0, len(bench))
	for name := range bench {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := bench[name]
		t.AddRow(name,
			num(e.Metrics["cpu.cycles"]), num(e.Metrics["cpu.instructions"]),
			num(e.Metrics["cpu.nops"]), pct(e.NopFraction), pct(e.FreeBandwidthFraction))
	}
	return t
}
