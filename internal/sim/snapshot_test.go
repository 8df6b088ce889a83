package sim_test

// Snapshot/restore must be invisible: a run that is checkpointed
// mid-flight and resumed from the snapshot must be observably identical
// to one that never stopped — same console output, same Stats, same
// final registers and memory, and the same observer event stream,
// hashed event-for-event across the snapshot boundary. These tests pin
// that on all four engines, on the kernel machine, and under an
// in-flight DMA transfer. (Translation-cache counters are exempt: a
// restored machine re-translates, warming its caches
// afresh, which is exactly the derived state a snapshot must not
// carry.)

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/mem"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// eventHasher folds every observer callback into one FNV stream, so two
// runs compare event-for-event with a single value. The same hasher
// object keeps hashing across a snapshot/restore boundary, which is
// what makes the split run directly comparable to the uninterrupted
// one.
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

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// hooks returns the facade hook set feeding the hasher. A step hook
// forces the exact per-instruction engine (the documented fallback), so
// comparisons that must exercise the superblock engine omit it.
func (e *eventHasher) hooks(stepHook bool) sim.Hooks {
	h := sim.Hooks{
		Mem:    func(pc, addr uint32, store bool) { e.event('m', pc, addr, b2u(store)) },
		Branch: func(pc, target uint32, taken bool) { e.event('b', pc, target, b2u(taken)) },
		Exc: func(pc uint32, primary, secondary isa.Cause, trapCode uint16) {
			e.event('x', pc, uint32(primary), uint32(secondary), uint32(trapCode))
		},
		RFE:   func(pc uint32) { e.event('r', pc) },
		Stall: func(pc uint32) { e.event('w', pc) },
	}
	if stepHook {
		h.Step = func(pc uint32, in isa.Instr) { e.event('s', pc) }
	}
	return h
}

func compileCorpus(t *testing.T, name string, kernelTarget bool) *isa.Image {
	t.Helper()
	p, err := corpus.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	mopt := codegen.MIPSOptions{}
	if kernelTarget {
		mopt.StackTop = codegen.KernelStackTop
	}
	im, _, err := codegen.CompileMIPS(p.Source, mopt, reorg.All())
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return im
}

// machineImage is everything observable about one finished run.
type machineImage struct {
	output string
	stats  cpu.Stats
	events uint64
	mem    uint64
	regs   [isa.NumRegs]uint32
}

func capture(t *testing.T, m *sim.Machine, eh *eventHasher) machineImage {
	t.Helper()
	if !m.Halted() {
		t.Fatal("machine did not halt")
	}
	mh := fnv.New64a()
	var word [4]byte
	phys := m.CPU().Bus.MMU.Phys
	for a := uint32(0); a < phys.Size(); a++ {
		binary.LittleEndian.PutUint32(word[:], phys.Peek(a))
		mh.Write(word[:])
	}
	img := machineImage{
		output: m.Output(),
		stats:  *m.Stats(),
		events: eh.h.Sum64(),
		mem:    mh.Sum64(),
	}
	copy(img.regs[:], m.CPU().Regs[:])
	return img
}

func diffImages(t *testing.T, straight, split machineImage) {
	t.Helper()
	if split.output != straight.output {
		t.Errorf("output diverges:\n    split %q\n straight %q", split.output, straight.output)
	}
	if split.stats != straight.stats {
		t.Errorf("stats diverge:\n    split %+v\n straight %+v", split.stats, straight.stats)
	}
	if split.regs != straight.regs {
		t.Errorf("final registers diverge:\n    split %v\n straight %v", split.regs, straight.regs)
	}
	if split.mem != straight.mem {
		t.Error("final physical memory diverges")
	}
	if split.events != straight.events {
		t.Error("observer event streams diverge across the snapshot boundary")
	}
}

// TestSnapshotRestoreDifferential checkpoints a bare-machine run
// mid-flight on every engine, resumes from the snapshot, and demands
// the resumed run be indistinguishable from one that never stopped.
func TestSnapshotRestoreDifferential(t *testing.T) {
	engines := []sim.Engine{sim.Reference, sim.FastPath, sim.Blocks, sim.Traces}
	for _, prog := range []string{"fib", "sort"} {
		for _, eng := range engines {
			eng := eng
			t.Run(prog+"/"+eng.String(), func(t *testing.T) {
				im := compileCorpus(t, prog, false)
				// A step hook forces the exact engine.
				stepHook := eng != sim.Blocks && eng != sim.Traces

				// The uninterrupted run.
				ehA := newEventHasher()
				a, err := sim.New(sim.WithEngine(eng), sim.WithHooks(ehA.hooks(stepHook)))
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Load(im); err != nil {
					t.Fatal(err)
				}
				if _, err := a.Run(200_000_000); err != nil {
					t.Fatal(err)
				}
				straight := capture(t, a, ehA)

				// The split run: k steps, snapshot, restore, finish. The
				// hasher object spans the boundary.
				ehB := newEventHasher()
				b, err := sim.New(sim.WithEngine(eng), sim.WithHooks(ehB.hooks(stepHook)))
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Load(im); err != nil {
					t.Fatal(err)
				}
				// A Blocks or Traces step retires a whole chained run, so
				// its checkpoint lands after far fewer steps.
				k := uint64(2000)
				if eng == sim.Blocks || eng == sim.Traces {
					k = 50
				}
				if _, halted := b.RunSteps(k); halted {
					t.Fatal("program finished before the checkpoint; the test is vacuous")
				}
				snap, err := b.SnapshotBytes()
				if err != nil {
					t.Fatal(err)
				}
				r, err := sim.Restore(bytes.NewReader(snap), sim.WithHooks(ehB.hooks(stepHook)))
				if err != nil {
					t.Fatal(err)
				}
				if got := r.Engine(); got != eng {
					t.Fatalf("restored engine = %v, want %v", got, eng)
				}
				if _, err := r.Run(200_000_000); err != nil {
					t.Fatal(err)
				}
				diffImages(t, straight, capture(t, r, ehB))
			})
		}
	}
}

// TestSnapshotRestoreAcrossEngines snapshots on one engine and resumes
// on another; the engines are observably identical, so the run must
// still match the uninterrupted one.
func TestSnapshotRestoreAcrossEngines(t *testing.T) {
	im := compileCorpus(t, "sort", false)

	ehA := newEventHasher()
	a, err := sim.New(sim.WithEngine(sim.Reference), sim.WithHooks(ehA.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	straight := capture(t, a, ehA)

	ehB := newEventHasher()
	b, err := sim.New(sim.WithEngine(sim.Blocks), sim.WithHooks(ehB.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, halted := b.RunSteps(1000); halted { // blocks steps: sort runs ~3k of them
		t.Fatal("program finished before the checkpoint")
	}
	snap, err := b.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Restore(bytes.NewReader(snap), sim.WithEngine(sim.FastPath), sim.WithHooks(ehB.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine() != sim.FastPath {
		t.Fatalf("engine override ignored: %v", r.Engine())
	}
	if _, err := r.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, straight, capture(t, r, ehB))
}

// TestSnapshotRandomPreemptAcrossEngines is the trace tier's
// preempt/restore property test: a run is chopped into randomly sized
// step quanta, and at every quantum boundary the machine is snapshotted
// and restored onto a rotating engine — traces included, so checkpoints
// land while the trace cache is warm and mid-way through hot loops.
// Compiled traces are derived state a snapshot must not carry; every
// resumed machine rebuilds heat and traces afresh and must still
// produce the exact event stream of a run that never stopped. Three
// schedules, seeded differently, pin this against luck.
func TestSnapshotRandomPreemptAcrossEngines(t *testing.T) {
	im := compileCorpus(t, "fib", false)

	ehA := newEventHasher()
	a, err := sim.New(sim.WithEngine(sim.Traces), sim.WithHooks(ehA.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	straight := capture(t, a, ehA)
	if a.Trans().TraceDispatchHits == 0 {
		t.Fatal("uninterrupted traces run never dispatched a trace; the test is vacuous")
	}
	if tr := a.Trans(); tr.TraceDeopts[cpu.DeoptBranchDirection]+tr.TraceDeopts[cpu.DeoptIndirectTarget] == 0 {
		t.Fatal("uninterrupted traces run took no direction or indirect-target guard exit; preemption between a guard exit and its delay slots is vacuous")
	}

	rotation := []sim.Engine{sim.Traces, sim.Blocks, sim.Traces, sim.FastPath, sim.Traces, sim.Reference}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			eh := newEventHasher()
			m, err := sim.New(sim.WithEngine(sim.Traces), sim.WithHooks(eh.hooks(false)))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Load(im); err != nil {
				t.Fatal(err)
			}
			var dispatches uint64 // summed per hop: a restore starts Trans at zero
			for hop := 0; !m.Halted(); hop++ {
				if hop > 100_000 {
					t.Fatal("run did not finish; preemption made no progress")
				}
				_, halted := m.RunSteps(uint64(1 + r.Intn(2000)))
				dispatches += m.Trans().TraceDispatchHits
				if halted {
					break
				}
				snap, err := m.SnapshotBytes()
				if err != nil {
					t.Fatal(err)
				}
				next := rotation[r.Intn(len(rotation))]
				m, err = sim.Restore(bytes.NewReader(snap), sim.WithEngine(next), sim.WithHooks(eh.hooks(false)))
				if err != nil {
					t.Fatal(err)
				}
			}
			if dispatches == 0 {
				t.Error("no preemption quantum dispatched through a compiled trace; the schedule never checkpointed a warm trace tier")
			}
			diffImages(t, straight, capture(t, m, eh))
		})
	}
}

// TestSnapshotDeterministic pins byte-for-byte determinism: the same
// machine state snapshots to the same bytes, and an immediate
// re-snapshot of a restored machine reproduces the original.
func TestSnapshotDeterministic(t *testing.T) {
	im := compileCorpus(t, "fib", false)
	m, err := sim.New(sim.WithEngine(sim.Blocks))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, halted := m.RunSteps(50); halted { // blocks steps are coarse
		t.Fatal("program finished early")
	}
	s1, err := m.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Error("two snapshots of the same machine differ")
	}
	r, err := sim.Restore(bytes.NewReader(s1))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := r.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s3) {
		t.Error("re-snapshot of a restored machine differs from the original")
	}
}

// The committed golden snapshot: bare fib on the reference engine after
// fixtureSteps steps (one instruction word each).
const (
	fixturePath  = "testdata/fib.snap"
	fixtureSteps = 2000
)

// TestSnapshotGoldenBytes pins the wire format byte for byte, so a
// format change is a deliberate act: Snapshot must reproduce the
// committed fixture exactly, and restoring the fixture must finish with
// the output and event stream of a run that never stopped.
func TestSnapshotGoldenBytes(t *testing.T) {
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	straight := coldRun(t, sim.Reference, true)

	// Gob-encode an image first: the snapshot bytes must not depend on
	// what else the process encoded.
	im := compileCorpus(t, "fib", false)
	if _, err := im.WriteTo(io.Discard); err != nil {
		t.Fatal(err)
	}
	eh := newEventHasher()
	m, err := sim.New(sim.WithEngine(sim.Reference), sim.WithHooks(eh.hooks(true)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, halted := m.RunSteps(fixtureSteps); halted {
		t.Fatal("program finished before the checkpoint")
	}
	got, err := m.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		path := filepath.Join(t.TempDir(), "fib.snap")
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("Snapshot no longer matches %s (new bytes: %s); a format change must bump SnapshotVersion and replace the fixture", fixturePath, path)
	}

	r, err := sim.Restore(bytes.NewReader(fixture), sim.WithHooks(eh.hooks(true)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, straight, capture(t, r, eh))
}

// TestSnapshotRestoreKernel runs the full machine — demand paging,
// preemptive scheduling, two processes — through a mid-run checkpoint
// and compares against the uninterrupted run.
func TestSnapshotRestoreKernel(t *testing.T) {
	im := compileCorpus(t, "fib", true)
	build := func(eh *eventHasher) *sim.Machine {
		m, err := sim.New(
			sim.WithEngine(sim.FastPath),
			sim.WithKernel(kernel.Config{TimerPeriod: 500}),
			sim.WithHooks(eh.hooks(false)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := m.Load(im); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	ehA := newEventHasher()
	a := build(ehA)
	if _, err := a.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	straight := capture(t, a, ehA)

	ehB := newEventHasher()
	b := build(ehB)
	if _, halted := b.RunSteps(20_000); halted {
		t.Fatal("kernel run finished before the checkpoint")
	}
	snap, err := b.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Restore(bytes.NewReader(snap), sim.WithHooks(ehB.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Kernel() == nil {
		t.Fatal("restored machine lost its kernel")
	}
	if _, err := r.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, straight, capture(t, r, ehB))
	if straight.output == "" {
		t.Error("kernel run produced no console output; the comparison is vacuous")
	}
}

// TestSnapshotRestoreUnderDMA checkpoints while a DMA block transfer is
// mid-flight; the restored machine must finish the transfer exactly as
// the uninterrupted one does.
func TestSnapshotRestoreUnderDMA(t *testing.T) {
	im := compileCorpus(t, "sort", false)
	const (
		src   = 40_000
		dst   = 50_000
		words = 4_096
	)
	build := func(eh *eventHasher) *sim.Machine {
		m, err := sim.New(sim.WithEngine(sim.FastPath), sim.WithDMA(), sim.WithHooks(eh.hooks(false)))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(im); err != nil {
			t.Fatal(err)
		}
		// Seed a recognizable source block and queue the transfer before
		// the run, so it drains on free memory cycles as the program runs.
		phys := m.CPU().Bus.MMU.Phys
		for i := uint32(0); i < words; i++ {
			phys.Poke(src+i, 0xD00D0000|i)
		}
		m.DMA().Queue(mem.Transfer{Src: src, Dst: dst, Words: words})
		return m
	}

	ehA := newEventHasher()
	a := build(ehA)
	if _, err := a.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	straight := capture(t, a, ehA)
	if a.DMA().Moved() != words {
		t.Fatalf("uninterrupted run moved %d DMA words, want %d", a.DMA().Moved(), words)
	}

	ehB := newEventHasher()
	b := build(ehB)
	if _, halted := b.RunSteps(1000); halted {
		t.Fatal("program finished before the checkpoint")
	}
	if !b.DMA().Busy() {
		t.Fatal("DMA transfer already drained at the checkpoint; the test is vacuous")
	}
	snap, err := b.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Restore(bytes.NewReader(snap), sim.WithHooks(ehB.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if r.DMA() == nil {
		t.Fatal("restored machine lost its DMA engine")
	}
	if _, err := r.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, straight, capture(t, r, ehB))
	if got := r.DMA().Moved(); got != words {
		t.Errorf("restored run finished with %d DMA words moved, want %d", got, words)
	}
}
