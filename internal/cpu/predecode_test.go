package cpu

import (
	"reflect"
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// loopCPU builds a CPU running a small counted loop: r1 counts down
// from n, r2 accumulates r3 each iteration, then trap 0 halts. The loop
// body re-executes the same words, so the translation tiers form blocks
// and traces over it.
func loopCPU(n int32) *CPU {
	br := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	br.Target = 2
	return newTestCPU(
		w(isa.LoadImm32(1, n)),                         // 0
		w(isa.Mov(3, isa.Imm(5))),                      // 1
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.R(3))),   // 2: loop body
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 3
		w(br),        // 4: bne r1, #0, 2
		w(isa.Nop()), // 5: branch delay
		halt,         // 6
	)
}

// testTimer is a ticking device with the shape of the kernel's interval
// timer: it counts ticks and reports how many remain before it would
// expire (it never does within these tests). Its one register, at
// physical word testTimerReg, counts the references made to it.
type testTimer struct{ ticks, refs uint64 }

const testTimerReg = 1 << 20

func (d *testTimer) Window() (lo, hi uint32)  { return testTimerReg, testTimerReg + 1 }
func (d *testTimer) ReadWord(uint32) uint32   { d.refs++; return uint32(d.refs) }
func (d *testTimer) WriteWord(uint32, uint32) { d.refs++ }
func (d *testTimer) Tick()                    { d.ticks++ }
func (d *testTimer) Horizon() uint64          { return 1<<62 - d.ticks }
func (d *testTimer) Advance(n uint64)         { d.ticks += n }

// mappedLoopCPU is loopCPU's loop with a store and a load added, run the
// way a kernel runs a process: at user level with mapping on, on a bus
// with a ticking device. Virtual page 0 of process 1 (code) maps to
// frame 2 and page 1 (data) to frame 3.
func mappedLoopCPU(n int32) *CPU { return mappedLoopOn(n, 3) }

// mappedLoopOn is mappedLoopCPU with the data page mapped to dataFrame.
func mappedLoopOn(n int32, dataFrame uint32) *CPU {
	br := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	br.Target = 2
	code := []isa.Instr{
		w(isa.LoadImm32(1, n)),                         // 0
		w(isa.Mov(3, isa.Imm(5))),                      // 1
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.R(3))),   // 2: loop body
		w(isa.StoreAbs(2, 1024)),                       // 3
		w(isa.LoadAbs(4, 1024)),                        // 4
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 5
		w(br),        // 6: bne r1, #0, 2
		w(isa.Nop()), // 7: branch delay
		halt,         // 8
	}
	c := newTestCPU()
	c.ReplaceCode(2*mem.PageWords, 2*mem.PageWords, code)
	c.Bus.Attach(&testTimer{})
	mmu := c.Bus.MMU
	mmu.Seg = mem.NewSegUnit(1, mem.MinSpaceBits)
	for vp, frame := range []uint32{2, dataFrame} {
		sys, _ := mmu.Seg.Translate(uint32(vp) << mem.PageBits)
		mmu.Map.Map(sys>>mem.PageBits, frame, true)
	}
	c.Sur = c.Sur.SetSupervisor(false).SetMapping(true)
	return c
}

// TestMappedLoopMatchesReference runs the mapped loop on every engine:
// registers, statistics, the page map's referenced and dirty bits and
// the ticks the device counted must all match the reference, and the
// traces engine must have retired most of the loop in compiled traces.
func TestMappedLoopMatchesReference(t *testing.T) {
	type result struct {
		regs  [isa.NumRegs]uint32
		stats Stats
		mmu   mem.MMUState
		ticks uint64
		refs  uint64
	}
	for _, tc := range []struct {
		name      string
		dataFrame uint32
	}{
		{"ram", 3},
		// The data page maps onto the device's register: every load and
		// store is a device reference, which the trace tier leaves to the
		// lower tiers.
		{"device", testTimerReg >> mem.PageBits},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runOn := func(e Engine) (result, TranslationStats) {
				c := mappedLoopOn(500, tc.dataFrame)
				c.SetEngine(e)
				run(t, c, 100_000)
				tm := c.Bus.tickers[0].(*testTimer)
				return result{c.Regs, c.Stats, c.Bus.MMU.CaptureState(), tm.ticks, tm.refs}, c.Trans
			}
			ref, _ := runOn(EngineReference)
			for _, e := range []Engine{EngineFast, EngineBlocks, EngineTraces} {
				got, trans := runOn(e)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("engine %d diverges:\n got %+v\n ref %+v", e, got, ref)
				}
				if e != EngineTraces {
					continue
				}
				if tc.dataFrame == 3 && 2*trans.TierInstrs[TierTraces] < got.stats.Instructions {
					t.Errorf("traces retired %d of %d instructions", trans.TierInstrs[TierTraces], got.stats.Instructions)
				}
				if tc.dataFrame != 3 && (trans.TraceDeoptEnvironment == 0 || trans.TierInstrs[TierTraces] == 0) {
					t.Errorf("no trace ran up to a device reference: %s", &trans)
				}
			}
		})
	}
}

func TestFastPathLoopMatchesReference(t *testing.T) {
	fast := loopCPU(100)
	run(t, fast, 10_000)
	ref := loopCPU(100)
	ref.SetEngine(EngineReference)
	run(t, ref, 10_000)
	if fast.Regs != ref.Regs {
		t.Errorf("registers diverge:\n fast %v\n  ref %v", fast.Regs, ref.Regs)
	}
	if fast.Stats != ref.Stats {
		t.Errorf("stats diverge:\n fast %+v\n  ref %+v", fast.Stats, ref.Stats)
	}
	if fast.Regs[2] != 500 {
		t.Errorf("r2 = %d, want 500", fast.Regs[2])
	}
}

// TestStepSeesInstructionRewrite overwrites the loop body after it has
// executed many times. The new word must take effect on its next fetch,
// and the default engine must match the reference under the rewrite.
func TestStepSeesInstructionRewrite(t *testing.T) {
	patchLoop := func(c *CPU) {
		var patched bool
		c.SetStepHook(func(pc uint32, in isa.Instr) {
			// After 50 iterations the body at word 2 has run many
			// times; switch the accumulator step from +r3 (5) to +1.
			// The hook fires after this instance was fetched, so the
			// patch is seen from the next iteration on.
			if !patched && pc == 2 && c.Regs[1] == 50 {
				patched = true
				c.WriteCode(2, []isa.Instr{w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))})
			}
		})
	}
	c := loopCPU(100)
	patchLoop(c)
	run(t, c, 10_000)
	// 51 iterations at +5 (the patching iteration was already fetched),
	// then 49 at +1.
	if want := uint32(51*5 + 49*1); c.Regs[2] != want {
		t.Errorf("r2 = %d, want %d (stale word executed)", c.Regs[2], want)
	}
	ref := loopCPU(100)
	ref.SetEngine(EngineReference)
	patchLoop(ref)
	run(t, ref, 10_000)
	if ref.Regs != c.Regs || ref.Stats != c.Stats {
		t.Errorf("paths diverge under rewrite:\n got %v\n ref %v", c.Regs, ref.Regs)
	}
}

// TestStepSurvivesLoadImageReuse reuses one CPU for two images that
// place different instructions at the same addresses — the loader-reuse
// pattern of the experiment harnesses.
func TestStepSurvivesLoadImageReuse(t *testing.T) {
	c := loopCPU(10)
	run(t, c, 10_000)
	if c.Regs[2] != 50 {
		t.Fatalf("first program: r2 = %d, want 50", c.Regs[2])
	}

	im := &isa.Image{Words: []isa.Instr{
		w(isa.Mov(2, isa.Imm(9))),
		halt,
	}}
	c.Reset()
	if err := c.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	c.Halted = false
	run(t, c, 100)
	if c.Regs[2] != 9 {
		t.Errorf("second program: r2 = %d, want 9 (stale word executed)", c.Regs[2])
	}
}

// TestSteadyStateZeroAlloc pins the allocation-free commit path: once
// warm, running the loop must not allocate — on any engine. This is
// the property that keeps the simulator's throughput allocation-bound
// no more. Each measured run is twenty loop iterations from the loop
// head, and on the translation tiers it must run in the tier it
// measures.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine Engine
		build  func(int32) *CPU
		loop   uint64 // words in one iteration from the loop head at 2
	}{
		{"traces", EngineTraces, loopCPU, 4},
		{"blocks", EngineBlocks, loopCPU, 4},
		{"fast", EngineFast, loopCPU, 4},
		{"reference", EngineReference, loopCPU, 4},
		// The trace tier on mapped user code with a ticking device: TLB
		// probes, the tick horizon and the ticker advance in the loop.
		{"traces-mapped", EngineTraces, mappedLoopCPU, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(2_000_000)
			c.SetEngine(tc.engine)
			c.RunSteps(2)
			// Warm up: caches filled, pending-write slices at capacity.
			// 128 runs carry the traces case past heat-counter
			// saturation, recording, and compilation, so measurement sees
			// only warm trace dispatch.
			for i := 0; i < 128; i++ {
				c.RunSteps(20 * tc.loop)
			}
			if tc.engine == EngineTraces && c.Trans.TraceCompiled == 0 {
				t.Fatal("warmup did not compile a trace; the measurement would be vacuous")
			}
			d0, b0 := c.Trans.TraceDispatchHits, c.Trans.TierInstrs[TierBlocks]
			avg := testing.AllocsPerRun(1000, func() { c.RunSteps(20 * tc.loop) })
			if avg != 0 {
				t.Errorf("steady-state run allocates %v allocs/op, want 0", avg)
			}
			if tc.engine == EngineTraces && c.Trans.TraceDispatchHits == d0 {
				t.Error("the measured runs dispatched no compiled trace")
			}
			if tc.engine == EngineBlocks && c.Trans.TierInstrs[TierBlocks] == b0 {
				t.Error("the measured runs retired nothing on the block engine")
			}
		})
	}
}

// TestFastPathToggle switches engines mid-run; the machine state is
// shared, so execution must continue seamlessly.
func TestFastPathToggle(t *testing.T) {
	c := loopCPU(100)
	n := 0
	c.SetStepHook(func(pc uint32, in isa.Instr) {
		n++
		if n%7 == 0 {
			if c.Engine() == EngineReference {
				c.SetEngine(EngineFast)
			} else {
				c.SetEngine(EngineReference)
			}
		}
	})
	run(t, c, 10_000)
	if c.Regs[2] != 500 {
		t.Errorf("r2 = %d, want 500", c.Regs[2])
	}
}
