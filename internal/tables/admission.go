package tables

import (
	"fmt"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/trace"
)

// admissionBench produces the "admission" corebench entry: the fib
// workload run to completion on a machine warm-forked from a golden
// snapshot template instead of cold-booted. The cpu.* counters are the
// forked run's registry snapshot — byte-identical to a cold-booted run
// by the fork differential tests — and the jobs.* keys record the
// copy-on-write admission work the fork actually did:
//
//	jobs.template_forks    machines minted from the template (1)
//	jobs.cow_faults        first-store page copies taken during the run
//	jobs.cow_private_pages pages private to the fork when it halted
//
// All three are deterministic (they depend only on which pages the
// program stores to), so the entry diffs cleanly in BENCH_core.json;
// benchdiff reports the jobs.* keys as informational against baselines
// that predate them.
func admissionBench(engine sim.Engine, sink func(name string, reg *trace.Registry)) (CoreBenchEntry, error) {
	const name = "admission"
	p, err := corpus.Get("fib")
	if err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	master, err := sim.New(sim.WithEngine(engine))
	if err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := master.Load(im); err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	pool := sim.NewTemplatePool()
	tpl, err := pool.Capture(name, master, 0)
	if err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	reg, run := coreRegistry(name, sink)
	m, err := tpl.Fork(sim.WithEngine(engine), sim.WithTelemetry(reg))
	if err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := run(m); err != nil {
		return CoreBenchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	if p.Output != "" && m.Output() != p.Output {
		return CoreBenchEntry{}, fmt.Errorf("%s: wrong output %q", name, m.Output())
	}
	snap := reg.Snapshot()
	cow := m.COWStats()
	snap["jobs.template_forks"] = 1
	snap["jobs.cow_faults"] = cow.Faults
	snap["jobs.cow_private_pages"] = uint64(cow.PrivatePages)
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
