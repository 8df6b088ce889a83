package codegen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/mem"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// Every engine value must be one machine with different dispatch
// mechanisms: same outputs, same statistics, same final memory, and the
// same observer event stream, for every corpus program. These tests pin
// that equivalence.

// eventHasher folds every CPU observer callback into one FNV stream, so
// two runs can be compared event-for-event with a single value. Any
// divergence — an extra stall, a hook fired with different arguments, a
// missing trap — changes the hash.
type eventHasher struct {
	h interface {
		Write(p []byte) (int, error)
		Sum64() uint64
	}
	buf [40]byte
}

func newEventHasher() *eventHasher { return &eventHasher{h: fnv.New64a()} }

func (e *eventHasher) event(tag byte, args ...uint32) {
	e.buf[0] = tag
	n := 1
	for _, a := range args {
		binary.LittleEndian.PutUint32(e.buf[n:], a)
		n += 4
	}
	e.h.Write(e.buf[:n])
}

// attach registers the hasher on every observer hook the CPU offers.
// stepHook selects whether the per-instruction step hook is included: a
// step hook forces the exact engine by design (the documented fallback
// rule), so comparisons that must exercise the superblock engine attach
// everything except it.
func (e *eventHasher) attach(c *cpu.CPU, stepHook bool) {
	if stepHook {
		c.SetStepHook(func(pc uint32, in isa.Instr) { e.event('s', pc) })
	}
	c.SetMemHook(func(pc, addr uint32, store bool) { e.event('m', pc, addr, b2u(store)) })
	c.SetBranchHook(func(pc, target uint32, taken bool) { e.event('b', pc, target, b2u(taken)) })
	c.SetExcHook(func(pc uint32, primary, secondary isa.Cause, trapCode uint16) {
		e.event('x', pc, uint32(primary), uint32(secondary), uint32(trapCode))
	})
	c.SetRFEHook(func(pc uint32) { e.event('r', pc) })
	c.SetStallHook(func(pc uint32) { e.event('w', pc) })
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// machineImage is everything observable about one finished run.
type machineImage struct {
	output string
	stats  cpu.Stats
	events uint64 // event-stream hash
	mem    uint64 // final data-memory hash
	regs   [isa.NumRegs]uint32
	trans  cpu.TranslationStats
}

// runImage executes a compiled image on the bare machine with full
// observability and captures the run's observable state.
func runImage(t *testing.T, im *isa.Image, opt RunOptions, stepHook bool) machineImage {
	t.Helper()
	eh := newEventHasher()
	var cc *cpu.CPU
	opt.Attach = func(c *cpu.CPU) {
		cc = c
		eh.attach(c, stepHook)
	}
	res, err := RunMIPSWith(im, 200_000_000, opt)
	if err != nil {
		t.Fatalf("run (%s): %v", opt.Engine, err)
	}
	mh := fnv.New64a()
	var word [4]byte
	phys := cc.Bus.MMU.Phys
	for a := uint32(0); a < phys.Size(); a++ {
		binary.LittleEndian.PutUint32(word[:], phys.Peek(a))
		mh.Write(word[:])
	}
	img := machineImage{
		output: res.Output,
		stats:  res.Stats,
		events: eh.h.Sum64(),
		mem:    mh.Sum64(),
	}
	copy(img.regs[:], cc.Regs[:])
	img.trans = cc.Trans
	return img
}

// TestFastPathMatchesReference runs every non-heavy corpus program
// through both execution engines and demands identical observable
// machines: output, the whole Stats struct, the final register file and
// physical memory, and the exact observer event stream.
func TestFastPathMatchesReference(t *testing.T) {
	for _, p := range corpus.All() {
		if p.Heavy {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			im, _, err := CompileMIPS(p.Source, MIPSOptions{}, reorg.All())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			fast := runImage(t, im, RunOptions{}, true)
			ref := runImage(t, im, RunOptions{Engine: sim.Reference}, true)
			if fast.output != ref.output {
				t.Errorf("output diverges:\n fast %q\n  ref %q", fast.output, ref.output)
			}
			if fast.stats != ref.stats {
				t.Errorf("stats diverge:\n fast %+v\n  ref %+v", fast.stats, ref.stats)
			}
			if fast.regs != ref.regs {
				t.Errorf("final registers diverge:\n fast %v\n  ref %v", fast.regs, ref.regs)
			}
			if fast.mem != ref.mem {
				t.Error("final physical memory diverges")
			}
			if fast.events != ref.events {
				t.Error("observer event streams diverge")
			}
		})
	}
}

// TestBlocksMatchFastPath runs every non-heavy corpus program on the
// superblock translation engine and on the per-instruction fast path
// and demands identical observable machines. The step hook is omitted —
// it forces the exact engine — so the event streams compare memory,
// branch, exception, RFE, and stall events, all of which the block
// engine must deliver with exact per-instruction arguments.
func TestBlocksMatchFastPath(t *testing.T) {
	var chained uint64
	for _, p := range corpus.All() {
		if p.Heavy {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			im, _, err := CompileMIPS(p.Source, MIPSOptions{}, reorg.All())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			blk := runImage(t, im, RunOptions{Engine: sim.Blocks}, false)
			fast := runImage(t, im, RunOptions{Engine: sim.FastPath}, false)
			if blk.output != fast.output {
				t.Errorf("output diverges:\n blocks %q\n   fast %q", blk.output, fast.output)
			}
			if blk.stats != fast.stats {
				t.Errorf("stats diverge:\n blocks %+v\n   fast %+v", blk.stats, fast.stats)
			}
			if blk.regs != fast.regs {
				t.Errorf("final registers diverge:\n blocks %v\n   fast %v", blk.regs, fast.regs)
			}
			if blk.mem != fast.mem {
				t.Error("final physical memory diverges")
			}
			if blk.events != fast.events {
				t.Error("observer event streams diverge")
			}
			if blk.trans.BlockTranslations == 0 {
				t.Error("block engine translated nothing; the comparison is vacuous")
			}
			if fast.trans.BlockTranslations != 0 {
				t.Error("fast-path run built superblocks")
			}
			chained += blk.trans.BlockChained
		})
	}
	if chained == 0 {
		t.Error("no corpus program took a chained block entry")
	}
}

// TestTracesMatchBlocks runs every non-heavy corpus program on the
// trace JIT tier and on the plain superblock engine and demands
// identical observable machines: output, the whole Stats struct, the
// final register file and physical memory, and the exact observer
// event stream (memory, branch, exception, RFE, and stall events — the
// compiled trace ops must deliver each with exact per-instruction
// arguments). TranslationStats is the one deliberately engine-specific
// surface, so it is checked for non-vacuity instead of equality: the
// corpus in aggregate must compile traces and dispatch through them,
// and the blocks-only runs must never form any.
func TestTracesMatchBlocks(t *testing.T) {
	var compiled, hits, exits uint64
	for _, p := range corpus.All() {
		if p.Heavy {
			continue
		}
		p := p
		t.Run(p.Name, func(t *testing.T) {
			im, _, err := CompileMIPS(p.Source, MIPSOptions{}, reorg.All())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			trc := runImage(t, im, RunOptions{Engine: sim.Traces}, false)
			blk := runImage(t, im, RunOptions{Engine: sim.Blocks}, false)
			if trc.output != blk.output {
				t.Errorf("output diverges:\n traces %q\n blocks %q", trc.output, blk.output)
			}
			if trc.stats != blk.stats {
				t.Errorf("stats diverge:\n traces %+v\n blocks %+v", trc.stats, blk.stats)
			}
			if trc.regs != blk.regs {
				t.Errorf("final registers diverge:\n traces %v\n blocks %v", trc.regs, blk.regs)
			}
			if trc.mem != blk.mem {
				t.Error("final physical memory diverges")
			}
			if trc.events != blk.events {
				t.Error("observer event streams diverge")
			}
			if blk.trans.TraceFormed != 0 {
				t.Error("blocks run formed traces")
			}
			// The deopt taxonomy must partition the legacy counter
			// exactly: every guard exit is attributed to one reason.
			if got, want := trc.trans.GuardExitReasonTotal(), trc.trans.TraceGuardExits; got != want {
				t.Errorf("deopt reasons sum to %d, want TraceGuardExits %d", got, want)
			}
			// Tier residency must partition retirement exactly on a
			// fresh machine: every instruction charges one tier.
			if got, want := trc.trans.TierInstrTotal(), trc.stats.Instructions; got != want {
				t.Errorf("tier residency sums to %d, want Instructions %d", got, want)
			}
			if got, want := blk.trans.TierInstrTotal(), blk.stats.Instructions; got != want {
				t.Errorf("blocks tier residency sums to %d, want Instructions %d", got, want)
			}
			compiled += trc.trans.TraceCompiled
			hits += trc.trans.TraceDispatchHits
			exits += trc.trans.TraceGuardExits
		})
	}
	if compiled == 0 {
		t.Error("no corpus program compiled a trace; the comparison is vacuous")
	}
	if hits == 0 {
		t.Error("no corpus program dispatched through a compiled trace")
	}
	if exits == 0 {
		t.Error("no corpus program recorded a guard exit; the partition check is vacuous")
	}
}

// kernelDiffArray is the array loop of the kernel differential: stores
// then strided loads over a data page.
const kernelDiffArray = `
program diff;
var i, acc: integer;
var arr: array[0..63] of integer;
begin
  i := 0;
  while i < 64 do begin arr[i] := i * 3; i := i + 1 end;
  acc := 0;
  i := 0;
  while i < 64 do begin acc := acc + arr[i]; i := i + 2 end;
  writeint(acc)
end.
`

// kernelDiffPages walks a 12-page array: with two processes it overruns
// the eight user frames of kernelEvictWords, so eviction recycles frames
// holding traced code.
const kernelDiffPages = `
program pages;
var i, j, acc: integer;
var big: array[0..12287] of integer;
begin
  acc := 0;
  j := 0;
  while j < 3 do begin
    i := 0;
    while i < 12288 do begin big[i] := i + j; i := i + 64 end;
    i := 0;
    while i < 12288 do begin acc := acc + big[i]; i := i + 64 end;
    j := j + 1
  end;
  writeint(acc)
end.
`

// kernelRun is everything observable about one finished kernel-machine
// run: console, statistics, the observer event stream, the kernel's
// paging and scheduling counters, and the MMU's architectural state
// (segmentation registers, every PTE with its referenced and dirty bits,
// the map generation).
type kernelRun struct {
	console                     string
	stats                       cpu.Stats
	events                      uint64
	faults, switches, evictions uint32
	diskReads, diskWrites       int
	mmu                         mem.MMUState
	trans                       cpu.TranslationStats
}

// runKernelImage boots a kernel machine with procs copies of im, runs it
// to halt on the given engine with every observer hook but the step hook
// attached, and captures the run.
func runKernelImage(t *testing.T, im *isa.Image, cfg kernel.Config, procs int, engine cpu.Engine) kernelRun {
	t.Helper()
	m, err := kernel.NewMachine(cfg)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	m.CPU.SetEngine(engine)
	eh := newEventHasher()
	eh.attach(m.CPU, false)
	for p := 0; p < procs; p++ {
		if _, err := m.AddProcess(im, 16); err != nil {
			t.Fatalf("add process: %v", err)
		}
	}
	if _, err := m.Run(50_000_000); err != nil {
		t.Fatalf("run (engine %d): %v", engine, err)
	}
	return kernelRun{
		console:    m.ConsoleOutput(),
		stats:      m.CPU.Stats,
		events:     eh.h.Sum64(),
		faults:     m.PageFaults(),
		switches:   m.ContextSwitches(),
		evictions:  m.Evictions(),
		diskReads:  m.DiskReads(),
		diskWrites: m.DiskWrites(),
		mmu:        m.CPU.Bus.MMU.CaptureState(),
		trans:      m.CPU.Trans,
	}
}

// compileKernelProgram compiles Pasqual source as a kernel process image.
func compileKernelProgram(t *testing.T, src string) *isa.Image {
	t.Helper()
	im, _, err := CompileMIPS(src, MIPSOptions{StackTop: KernelStackTop}, reorg.All())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return im
}

// kernelEvictWords is the physical memory size of
// TestEvictionUnderMemoryPressure: eight user frames, so frames holding
// traced code are reused for other pages.
const kernelEvictWords = 16 << 10

// TestFastPathMatchesReferenceKernel runs the differential check on the
// full kernel machine — demand paging, preemptive scheduling at several
// timer periods, one and two processes, and a memory small enough that
// eviction recycles frames under the block and trace caches.
// The trace tier runs mapped user code here, so every engine must agree
// on the whole observable machine, the MMU's referenced and dirty bits
// included.
func TestFastPathMatchesReferenceKernel(t *testing.T) {
	progs := []struct{ name, src string }{{"array", kernelDiffArray}, {"pages", kernelDiffPages}}
	for _, name := range []string{"fib", "queens", "strings"} {
		p, err := corpus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, struct{ name, src string }{name, p.Source})
	}
	var traced, evictions, evictedTraces uint64
	for _, p := range progs {
		im := compileKernelProgram(t, p.src)
		for _, words := range []int{0, kernelEvictWords} {
			for _, period := range []uint32{0, 2, 7, 150, 500, 4099} {
				for _, procs := range []int{1, 2} {
					if period < 150 && (p.name == "fib" || p.name == "queens") {
						// A period this short preempts every few words, so
						// every word costs a kernel round trip: only the
						// short programs run here.
						continue
					}
					name := fmt.Sprintf("%s/mem%d/timer%d/procs%d", p.name, words, period, procs)
					t.Run(name, func(t *testing.T) {
						cfg := kernel.Config{PhysWords: words, TimerPeriod: period}
						ref := runKernelImage(t, im, cfg, procs, cpu.EngineReference)
						for _, e := range []cpu.Engine{cpu.EngineFast, cpu.EngineBlocks, cpu.EngineTraces} {
							got := runKernelImage(t, im, cfg, procs, e)
							trans := got.trans
							got.trans, ref.trans = cpu.TranslationStats{}, cpu.TranslationStats{}
							if !reflect.DeepEqual(got, ref) {
								t.Errorf("engine %d diverges from the reference:\n got %+v\n ref %+v", e, got, ref)
							}
							if e == cpu.EngineTraces {
								traced += trans.TierInstrs[cpu.TierTraces]
								if words == kernelEvictWords {
									evictedTraces += trans.TraceInvalidations
								}
								if tot := trans.TierInstrTotal(); tot != got.stats.Instructions {
									t.Errorf("tier residency sums to %d, want Instructions %d", tot, got.stats.Instructions)
								}
							}
						}
						if words == kernelEvictWords {
							evictions += uint64(ref.evictions)
						}
					})
				}
			}
		}
	}
	if traced == 0 {
		t.Error("no kernel run retired an instruction on the trace tier; the comparison is vacuous")
	}
	if evictions == 0 || evictedTraces == 0 {
		t.Errorf("%d evictions dropped %d traces at %d words; the frame-reuse case is vacuous",
			evictions, evictedTraces, kernelEvictWords)
	}
}

// TestKernelTraceResidency is the residency tripwire of the mapped trace
// tier: kernel-hosted fib with the timer off retires at least 90% of its
// instructions in compiled traces.
func TestKernelTraceResidency(t *testing.T) {
	p, err := corpus.Get("fib")
	if err != nil {
		t.Fatal(err)
	}
	run := runKernelImage(t, compileKernelProgram(t, p.Source), kernel.Config{}, 1, cpu.EngineTraces)
	share := float64(run.trans.TierInstrs[cpu.TierTraces]) / float64(run.stats.Instructions)
	if share < 0.9 {
		t.Errorf("kernel fib retires %.1f%% of its instructions in traces, want >= 90%%\n%s", 100*share, &run.trans)
	}
}
