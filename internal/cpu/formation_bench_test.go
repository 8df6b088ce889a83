package cpu_test

import (
	"runtime"
	"testing"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// shortCorpus is the corpus-short workload's program set: programs under
// 30K instructions, where trace formation is a large share of a run.
var shortCorpus = []string{"calc", "strings", "tokenizer", "formatter", "puzzle0", "puzzle1"}

// BenchmarkTraceFormation measures trace formation alone — validation,
// flattening, compilation and installation — on the recordings the short
// corpus makes on the traces engine. Each iteration re-forms every
// captured recording once. It reports ns and bytes per compiled op and
// allocations per formed trace.
func BenchmarkTraceFormation(b *testing.B) {
	type machine struct {
		c    *cpu.CPU
		recs []cpu.TraceRecording
	}
	var ms []machine
	ops, traces := 0, 0
	for _, name := range shortCorpus {
		p, err := corpus.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
		if err != nil {
			b.Fatal(err)
		}
		m, err := sim.New(sim.WithEngine(sim.Traces))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(im); err != nil {
			b.Fatal(err)
		}
		c := m.CPU()
		recs := cpu.CaptureTraceRecordings(c)
		if _, err := m.Run(10_000_000); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		c.SetJITHook(nil)
		for _, r := range *recs {
			if n := c.FormTrace(r); n > 0 {
				ops += n
				traces++
			}
		}
		ms = append(ms, machine{c: c, recs: *recs})
	}
	if ops == 0 {
		b.Fatal("the short corpus formed no trace; nothing to measure")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			for _, r := range m.recs {
				m.c.FormTrace(r)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*float64(ops)), "ns/cop")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/(n*float64(ops)), "B/cop")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/(n*float64(traces)), "allocs/trace")
	b.ReportMetric(float64(ops)/float64(traces), "cops/trace")
}
