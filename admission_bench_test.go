// Warm-fork admission benchmarks: how long a job waits between
// submission and its first retired instruction when the machine is
// cold-booted (kernel init, image load, an empty page table) versus
// warm-forked copy-on-write from a golden snapshot template. The paper
// thesis in miniature — the fork moves the whole boot out of the
// repeated admission path into one-time template capture.
package mips

import (
	"runtime"
	"testing"
	"time"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// admissionImage compiles the pipeline workload (fib) for the kernel
// machine — the shape every mipsd job boots.
func admissionImage(tb testing.TB) *isa.Image {
	tb.Helper()
	p, err := corpus.Get("fib")
	if err != nil {
		tb.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{StackTop: codegen.KernelStackTop}, reorg.All())
	if err != nil {
		tb.Fatal(err)
	}
	return im
}

// coldAdmit builds a machine from scratch and retires one instruction:
// admission-to-first-instruction on the cold-boot path.
func coldAdmit(tb testing.TB, im *isa.Image) {
	tb.Helper()
	m, err := sim.New(sim.WithKernel(kernel.Config{}))
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		tb.Fatal(err)
	}
	if _, halted := m.RunSteps(1); halted {
		tb.Fatal("halted on the first instruction")
	}
}

// forkAdmit mints a machine from the template and retires one
// instruction: admission-to-first-instruction on the warm-fork path.
func forkAdmit(tb testing.TB, tpl *sim.Template) {
	tb.Helper()
	f, err := tpl.Fork()
	if err != nil {
		tb.Fatal(err)
	}
	if _, halted := f.RunSteps(1); halted {
		tb.Fatal("halted on the first instruction")
	}
}

// admissionTemplate captures the golden template the fork path admits
// from: the same machine coldAdmit builds, frozen after boot + load.
func admissionTemplate(tb testing.TB, im *isa.Image) *sim.Template {
	tb.Helper()
	master, err := sim.New(sim.WithKernel(kernel.Config{}))
	if err != nil {
		tb.Fatal(err)
	}
	if err := master.Load(im); err != nil {
		tb.Fatal(err)
	}
	tpl, err := sim.NewTemplatePool().Capture("fib", master, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tpl
}

// BenchmarkAdmissionColdBoot measures admission-to-first-instruction
// latency and jobs/sec for a cold-booted kernel machine.
func BenchmarkAdmissionColdBoot(b *testing.B) {
	im := admissionImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldAdmit(b, im)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkAdmissionTemplateFork measures the same quantity for a
// machine warm-forked copy-on-write from a golden template. benchstat
// against BenchmarkAdmissionColdBoot is the headline admission number.
func BenchmarkAdmissionTemplateFork(b *testing.B) {
	tpl := admissionTemplate(b, admissionImage(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forkAdmit(b, tpl)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// Admission allocation ceilings. A cold kernel boot builds a page table
// and the pages boot writes, not a 16 MB memory; a fork allocates its
// CPU, its top-level page table, and the frames its first instruction
// writes.
const (
	coldAdmitMaxBytes = 256 << 10
	forkAdmitMaxBytes = 48 << 10
)

// bytesPerOp reports the heap bytes f allocates per call, averaged over
// n calls.
func bytesPerOp(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestAdmissionForkSpeedup is the acceptance gate on the admission
// claim. Its deterministic half bounds the bytes each admission path
// allocates. Its timing half requires template-fork admission-to-first-
// instruction latency to be at least 4x lower than cold boot on the
// pipeline workload. Noise only adds time, so each side takes the best
// of 1000 attempts; the attempts alternate between the sides in blocks
// of ten, so both minimums come from the same host conditions.
func TestAdmissionForkSpeedup(t *testing.T) {
	im := admissionImage(t)
	tpl := admissionTemplate(t, im)
	// Warm both paths once so one-time costs (kernel image assembly
	// cache) land outside the measurement.
	coldAdmit(t, im)
	forkAdmit(t, tpl)

	if b := bytesPerOp(20, func() { coldAdmit(t, im) }); b > coldAdmitMaxBytes {
		t.Errorf("cold-boot admission allocates %d B/op, ceiling %d", b, coldAdmitMaxBytes)
	}
	if b := bytesPerOp(50, func() { forkAdmit(t, tpl) }); b > forkAdmitMaxBytes {
		t.Errorf("template-fork admission allocates %d B/op, ceiling %d", b, forkAdmitMaxBytes)
	}

	if testing.Short() {
		t.Skip("timing measurement")
	}
	if raceEnabled {
		t.Skip("race-detector overhead distorts the wall-clock ratio; the COW correctness side runs under -race in internal/sim")
	}
	runtime.GC() // start with no collection owed
	cold, fork := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for round := 0; round < 100; round++ {
		for i := 0; i < 10; i++ {
			start := time.Now()
			coldAdmit(t, im)
			cold = min(cold, time.Since(start))
		}
		for i := 0; i < 10; i++ {
			start := time.Now()
			forkAdmit(t, tpl)
			fork = min(fork, time.Since(start))
		}
	}
	t.Logf("admission-to-first-instruction: cold boot %v, template fork %v (%.1fx)",
		cold, fork, float64(cold)/float64(fork))
	if fork*4 > cold {
		t.Errorf("template fork admission %v is not 4x below cold boot %v", fork, cold)
	}
}

// kernelJobMaxBytes bounds what one kernel-hosted fib job allocates from
// boot to halt on the trace engine: instruction memory holds only the
// pages with code, so a page-in costs the code it brings, not a regrown
// copy of every frame below it.
const kernelJobMaxBytes = 300 << 10

// TestKernelJobAllocs is the allocation gate on a whole kernel job:
// boot, demand paging and fib run to halt.
func TestKernelJobAllocs(t *testing.T) {
	im := admissionImage(t)
	job := func() {
		m, err := kernel.NewMachine(kernel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m.CPU.SetEngine(cpu.EngineTraces)
		if _, err := m.AddProcess(im, 16); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
	}
	job() // the kernel image assembly cache fills outside the measurement
	if b := bytesPerOp(5, job); b > kernelJobMaxBytes {
		t.Errorf("boot plus fib to halt allocates %d B/op, ceiling %d", b, kernelJobMaxBytes)
	}
}
