// Package mips's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (each regenerates the full
// experiment), plus microbenchmarks of the substrates themselves.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mips

import (
	"bytes"
	"testing"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/lang"
	"mips/internal/mem"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/tables"
)

// benchExperiment regenerates one table per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	var run func() (*tables.Table, error)
	for _, e := range tables.All() {
		if e.Name == name {
			run = e.Run
		}
	}
	if run == nil {
		b.Fatalf("no experiment %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per paper table.

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }

// One benchmark per paper figure.

func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "figure1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "figure2") }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// The in-text measurements of section 3.

func BenchmarkFreeCycles(b *testing.B)    { benchExperiment(b, "freecycles") }
func BenchmarkContextSwitch(b *testing.B) { benchExperiment(b, "ctxswitch") }

// BenchmarkEvaluationPass regenerates the whole evaluation once per
// iteration, as cmd/paperbench does with one worker: every experiment
// on one shared pass, then the corebench table.
func BenchmarkEvaluationPass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range tables.RunAllWith(tables.All(), 1, sim.Default, nil) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Name, r.Err)
			}
		}
		if _, err := tables.CoreBenchRun(1, sim.Default, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate microbenchmarks.

// BenchmarkPipelineSimulator measures simulated instructions per second
// on the fully optimized Fibonacci benchmark, on the superblock engine
// (the trace tier's baseline — BenchmarkPipelineTraces is the same
// workload one benchstat comparison away).
func BenchmarkPipelineSimulator(b *testing.B) {
	benchPipeline(b, codegen.RunOptions{Engine: sim.Blocks})
}

// BenchmarkPipelineTraces measures the same workload on the trace JIT
// tier. Before timing, it pins the tier's allocation discipline: once
// the trace cache is warm, steady-state stepping must not allocate at
// all — formation and compilation costs are paid once, never per
// dispatch.
func BenchmarkPipelineTraces(b *testing.B) {
	assertTraceSteadyStateZeroAlloc(b)
	benchPipeline(b, codegen.RunOptions{Engine: sim.Traces})
}

// benchPipeline runs the fib workload end to end under one engine and
// reports simulated instructions per second.
func benchPipeline(b *testing.B, opt codegen.RunOptions) {
	b.Helper()
	p, err := corpus.Get("fib")
	if err != nil {
		b.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := codegen.RunMIPSWith(im, 100_000_000, opt)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// assertTraceSteadyStateZeroAlloc warms a traces-engine machine on the
// queens workload until the trace tier has compiled and dispatched,
// then measures allocations per RunSteps in steady state and fails the
// benchmark on any nonzero result, or if the measured calls dispatched
// no compiled trace. scripts/bench.sh runs this through the bench gate.
func assertTraceSteadyStateZeroAlloc(b *testing.B) {
	b.Helper()
	p, err := corpus.Get("queens")
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
	// Queens retires about 466K instructions: warm for 200K, measure
	// for 100K.
	if _, halted := m.RunSteps(200_000); halted {
		b.Fatal("workload finished before the trace cache warmed")
	}
	if m.Trans().TraceDispatchHits == 0 {
		b.Fatal("trace tier never dispatched; the allocation check is vacuous")
	}
	hits := m.Trans().TraceDispatchHits
	avg := testing.AllocsPerRun(100, func() {
		if _, halted := m.RunSteps(1000); halted {
			b.Fatal("workload finished during the allocation check")
		}
	})
	if avg != 0 {
		b.Fatalf("warm trace tier allocates %v allocs/op in steady state, want 0", avg)
	}
	if m.Trans().TraceDispatchHits == hits {
		b.Fatal("the measured runs dispatched no compiled trace")
	}
}

// BenchmarkPipelineFastPath measures the same workload stepped one
// instruction at a time with no translation tier, so the block engine's
// gain is one benchstat comparison away.
func BenchmarkPipelineFastPath(b *testing.B) {
	p, err := corpus.Get("fib")
	if err != nil {
		b.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := codegen.RunMIPSWith(im, 100_000_000, codegen.RunOptions{Engine: sim.FastPath})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkPipelineReference measures the same workload on the
// reference engine. It runs the same per-instruction executor as
// BenchmarkPipelineFastPath and differs only in the tier counter it
// charges, so the two should read alike in time and allocations.
func BenchmarkPipelineReference(b *testing.B) {
	p, err := corpus.Get("fib")
	if err != nil {
		b.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := codegen.RunMIPSWith(im, 100_000_000, codegen.RunOptions{Engine: sim.Reference})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// TestFastPathAllocsMatchReference is the allocation tripwire for
// per-instruction stepping: running fib to halt on FastPath must
// allocate exactly what the same run allocates on Reference. Both
// engines step through one executor, so any per-machine state only one
// of them builds shows up here as an extra allocation.
func TestFastPathAllocsMatchReference(t *testing.T) {
	p, err := corpus.Get("fib")
	if err != nil {
		t.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(e sim.Engine) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := codegen.RunMIPSWith(im, 100_000_000, codegen.RunOptions{Engine: e}); err != nil {
				t.Fatal(err)
			}
		})
	}
	fast, ref := allocs(sim.FastPath), allocs(sim.Reference)
	if fast != ref {
		t.Errorf("fib to halt allocates %v times on FastPath, %v on Reference; want equal", fast, ref)
	}
}

// BenchmarkReorganizer measures the postpass scheduler on the Puzzle
// benchmark's instruction pieces.
func BenchmarkReorganizer(b *testing.B) {
	p, err := corpus.Get("puzzle1")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	unit, err := codegen.GenMIPS(prog, codegen.MIPSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ro, _ := reorg.Reorganize(unit, reorg.All())
		if reorg.WordCount(ro) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkCompiler measures the whole front end plus code generation.
func BenchmarkCompiler(b *testing.B) {
	p, err := corpus.Get("sort")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := lang.Parse(p.Source)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codegen.GenMIPS(prog, codegen.MIPSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures the reference interpreter on queens.
func BenchmarkInterpreter(b *testing.B) {
	p, err := corpus.Get("queens")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lang.Parse(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&lang.Interp{}).Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelBoot measures building and booting the full machine:
// assembling the dispatch ROM through the reorganizer and running the
// reset exception path.
func BenchmarkKernelBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := kernel.NewMachine(kernel.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelRun measures kernel-hosted programs end to end — boot,
// demand paging, and the user program running mapped — on the blocks
// engine and on the traces engine, where the trace tier runs the mapped
// user code. It reports simulated ns per retired instruction.
func BenchmarkKernelRun(b *testing.B) {
	for _, name := range []string{"fib", "queens"} {
		p, err := corpus.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		im, _, err := codegen.CompileMIPS(p.Source,
			codegen.MIPSOptions{StackTop: codegen.KernelStackTop}, reorg.All())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range []struct {
			name   string
			engine cpu.Engine
		}{{"blocks", cpu.EngineBlocks}, {"traces", cpu.EngineTraces}} {
			b.Run(name+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				var instrs uint64
				for i := 0; i < b.N; i++ {
					m, err := kernel.NewMachine(kernel.Config{})
					if err != nil {
						b.Fatal(err)
					}
					m.CPU.SetEngine(e.engine)
					if _, err := m.AddProcess(im, 16); err != nil {
						b.Fatal(err)
					}
					n, err := m.Run(100_000_000)
					if err != nil {
						b.Fatal(err)
					}
					instrs += n
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			})
		}
	}
}

// BenchmarkSnapshotRoundTripKernel measures the migrate path of the job
// service in-process: fork a kernel machine from the fib template, run
// it to completion, snapshot it, and restore the snapshot onto the
// fast engine. Snapshot and restore cost the pages the job touched,
// not the machine's 16 MB.
func BenchmarkSnapshotRoundTripKernel(b *testing.B) {
	p, err := corpus.Get("fib")
	if err != nil {
		b.Fatal(err)
	}
	tpl := admissionTemplate(b, admissionImage(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := tpl.Fork()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		snap, err := m.SnapshotBytes()
		if err != nil {
			b.Fatal(err)
		}
		r, err := sim.Restore(bytes.NewReader(snap), sim.WithEngine(sim.FastPath))
		if err != nil {
			b.Fatal(err)
		}
		if r.Output() != p.Output {
			b.Fatalf("restored output %q, want %q", r.Output(), p.Output)
		}
	}
}

// haltedKernelFib forks a kernel machine from the fib template and runs
// it to completion: the machine a finished mipsd job snapshots.
func haltedKernelFib(b *testing.B) *sim.Machine {
	b.Helper()
	m, err := admissionTemplate(b, admissionImage(b)).Fork()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(10_000_000); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkSnapshotEncodeKernel measures the snapshot half of
// BenchmarkSnapshotRoundTripKernel: encoding a halted kernel fib
// machine, the terminal snapshot every finished mipsd job takes. It
// reports the snapshot's size as snap-bytes.
func BenchmarkSnapshotEncodeKernel(b *testing.B) {
	m := haltedKernelFib(b)
	var snap []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if snap, err = m.SnapshotBytes(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(snap)), "snap-bytes")
}

// BenchmarkSnapshotRestoreKernel measures the restore half of
// BenchmarkSnapshotRoundTripKernel: decoding that snapshot into a
// machine on the fast engine.
func BenchmarkSnapshotRestoreKernel(b *testing.B) {
	snap, err := haltedKernelFib(b).SnapshotBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Restore(bytes.NewReader(snap), sim.WithEngine(sim.FastPath)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForkRunKernel forks a kernel fib machine from its template
// and runs it to halt on the trace engine, as a mipsd fork job does.
// Forks after the first adopt the kernel blocks they run before their
// first page-in, which moves each to a golden code of its own; B/op
// counts what that code and its translations allocate.
func BenchmarkForkRunKernel(b *testing.B) {
	tpl := admissionTemplate(b, admissionImage(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := tpl.Fork(sim.WithEngine(sim.Traces))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreeCycleDMA measures how much block-copy bandwidth the DMA
// engine extracts from the free memory cycles of a running program —
// the §3.1 "these cycles can be used for DMA" claim made concrete.
func BenchmarkFreeCycleDMA(b *testing.B) {
	p, err := corpus.Get("queens")
	if err != nil {
		b.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var moved uint64
	for i := 0; i < b.N; i++ {
		phys := mem.NewPhysical(1 << 16)
		c := cpu.New(cpu.NewBus(phys))
		c.SetTrapHook(func(code uint16) {
			if code == 0 {
				c.Halt()
			}
		})
		dma := mem.NewDMA(phys)
		c.Bus.DMA = dma
		// Saturate the engine so every free cycle is consumed.
		dma.Queue(mem.Transfer{Src: 0, Dst: 1 << 15, Words: 1 << 14})
		if err := c.LoadImage(im); err != nil {
			b.Fatal(err)
		}
		c.WriteCode(0, []isa.Instr{isa.Word(isa.RFE())})
		c.SetPC(uint32(im.Entry))
		if _, err := c.Run(100_000_000); err != nil {
			b.Fatal(err)
		}
		moved += dma.Moved()
		if c.Stats.DMACycles == 0 {
			b.Fatal("DMA consumed no free cycles")
		}
	}
	b.ReportMetric(float64(moved)/float64(b.N), "words-moved/run")
}

// BenchmarkDemandPaging measures kernel fault service: a process that
// touches many fresh pages.
func BenchmarkDemandPaging(b *testing.B) {
	im, _, err := codegen.CompileMIPS(`
program toucher;
var a: array[0..8191] of integer; i: integer;
begin
  i := 0;
  while i < 8192 do begin
    a[i] := i;
    i := i + 512
  end;
  writeint(a[0])
end.
`, codegen.MIPSOptions{StackTop: codegen.KernelStackTop}, reorg.All())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := kernel.NewMachine(kernel.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddProcess(im, 16); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		if m.PageFaults() < 8 {
			b.Fatalf("page faults = %d", m.PageFaults())
		}
	}
}

// Ablation benchmarks (DESIGN.md section 5).

func BenchmarkAblationInterlocks(b *testing.B)   { benchExperiment(b, "ablation-interlocks") }
func BenchmarkAblationDelaySchemes(b *testing.B) { benchExperiment(b, "ablation-delayschemes") }
func BenchmarkAblationByteOverhead(b *testing.B) { benchExperiment(b, "ablation-byteoverhead") }

func BenchmarkAblationBoolCross(b *testing.B) { benchExperiment(b, "ablation-boolcross") }

// BenchmarkPageReplacement measures fault service under memory
// pressure: a working set larger than physical memory, so every fault
// evicts a FIFO victim with dirty write-back.
func BenchmarkPageReplacement(b *testing.B) {
	im, _, err := codegen.CompileMIPS(`
program thrash;
var a: array[0..20479] of integer; i, pass: integer;
begin
  for pass := 1 to 2 do begin
    i := 0;
    while i < 20480 do begin
      a[i] := a[i] + i;
      i := i + 512
    end
  end;
  writeint(a[0])
end.
`, codegen.MIPSOptions{StackTop: codegen.KernelStackTop}, reorg.All())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := kernel.NewMachine(kernel.Config{PhysWords: 16 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddProcess(im, 16); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(50_000_000); err != nil {
			b.Fatal(err)
		}
		if m.Evictions() == 0 {
			b.Fatal("no evictions under pressure")
		}
	}
}
