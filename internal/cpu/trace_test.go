package cpu

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// tracesCPU builds the standard counted loop with the full trace tier
// enabled (the construction default); the helper exists so the intent
// reads at the call site next to blocksCPU/fast/reference variants.
func tracesCPU(n int32) *CPU {
	c := loopCPU(n)
	c.SetEngine(EngineTraces)
	return c
}

// TestTracesLoopMatchesBlocks runs the counted loop on the trace tier,
// the plain superblock engine, the fast path, and the reference
// interpreter, and requires strictly identical architectural state and
// statistics. The trace tier must also have actually worked: formed,
// compiled, and dispatched through at least one trace — a loop that
// never leaves the superblock engine is not exercising the tentpole.
func TestTracesLoopMatchesBlocks(t *testing.T) {
	trc := tracesCPU(6000)
	run(t, trc, 1_000_000)

	blk := loopCPU(6000)
	blk.SetEngine(EngineBlocks)
	run(t, blk, 1_000_000)

	fast := loopCPU(6000)
	fast.SetEngine(EngineFast)
	run(t, fast, 1_000_000)

	ref := loopCPU(6000)
	ref.SetEngine(EngineReference)
	run(t, ref, 1_000_000)

	if trc.Regs != blk.Regs || trc.Regs != fast.Regs || trc.Regs != ref.Regs {
		t.Errorf("registers diverge:\n traces %v\n blocks %v\n   fast %v\n    ref %v",
			trc.Regs, blk.Regs, fast.Regs, ref.Regs)
	}
	if trc.Stats != blk.Stats || trc.Stats != fast.Stats || trc.Stats != ref.Stats {
		t.Errorf("stats diverge:\n traces %+v\n blocks %+v\n   fast %+v\n    ref %+v",
			trc.Stats, blk.Stats, fast.Stats, ref.Stats)
	}
	if trc.Regs[2] != 30000 {
		t.Errorf("r2 = %d, want 30000", trc.Regs[2])
	}
	if trc.Trans.TraceFormed == 0 || trc.Trans.TraceCompiled == 0 {
		t.Errorf("loop never compiled a trace (formed=%d compiled=%d)",
			trc.Trans.TraceFormed, trc.Trans.TraceCompiled)
	}
	if trc.Trans.TraceDispatchHits == 0 {
		t.Error("loop never dispatched through a compiled trace")
	}
	if blk.Trans.TraceFormed != 0 {
		t.Error("blocks-only run formed traces")
	}
}

// descendingStoreCPU builds a loop whose store pointer r4 walks down
// one word per iteration from base: the store lands in plain data until
// r4 crosses into the loop's own text, at which point the write barrier
// fires from inside the loop's own store. Choose base so the crossing
// happens long after the trace tier is warm.
func descendingStoreCPU(iters, base int32) *CPU {
	br := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	br.Target = 2
	return newTestCPU(
		w(isa.LoadImm32(1, iters)),                     // 0
		w(isa.LoadImm32(4, base)),                      // 1
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1))), // 2: loop body
		w(isa.ALU(isa.OpSub, 4, isa.R(4), isa.Imm(1))), // 3
		w(isa.StoreDisp(2, 4, 0)),                      // 4: [r4] := r2
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 5
		w(br),        // 6: bne r1, #0, 2
		w(isa.Nop()), // 7: branch delay
		halt,         // 8
	)
}

// TestTraceSelfModifyStore covers the store-into-own-trace invalidation
// path. The loop runs clean long enough for the trace tier to compile
// its path, then the descending store pointer crosses into the loop's
// own text: the write barrier drops the trace from inside its own store
// op, which must notice tr.valid going false and exit at the
// store's exact instruction boundary. Instruction memory is untouched,
// so architectural results must match the fast path exactly; no stale
// trace may ever replay.
func TestTraceSelfModifyStore(t *testing.T) {
	const iters, base = 280, 286
	trc := descendingStoreCPU(iters, base)
	trc.SetEngine(EngineTraces)
	// Chain depth 1 makes every loop iteration its own Step, so the
	// heat counter warms in tens of iterations instead of thousands;
	// chain depth is pure dispatch and never changes architecture.
	trc.SetChainFollow(1)
	run(t, trc, 1_000_000)

	fast := descendingStoreCPU(iters, base)
	fast.SetEngine(EngineFast)
	run(t, fast, 1_000_000)

	if trc.Regs != fast.Regs {
		t.Errorf("registers diverge:\n traces %v\n   fast %v", trc.Regs, fast.Regs)
	}
	if trc.Stats != fast.Stats {
		t.Errorf("stats diverge:\n traces %+v\n   fast %+v", trc.Stats, fast.Stats)
	}
	if want := uint32(iters); trc.Regs[2] != want {
		t.Errorf("r2 = %d, want %d", trc.Regs[2], want)
	}
	if trc.Trans.TraceCompiled == 0 {
		t.Fatal("loop never compiled a trace; the case is not exercised")
	}
	if trc.Trans.TraceInvalidations == 0 {
		t.Error("store into compiled trace text never tripped the write barrier")
	}
	if trc.Trans.TraceGuardExits == 0 {
		t.Error("no trace exited early; the store-into-own-trace exit never ran")
	}
}

// TestTraceDMAQuietGuard pins the trace tier's quiet-environment rule:
// a machine with a DMA engine attached must never form a trace (DMA
// writes can land between any two instructions, including into trace
// text mid-pass), degrading to the superblock engine whose per-write
// barrier handles the invalidation. Results must match the fast path
// with the identical DMA schedule.
func TestTraceDMAQuietGuard(t *testing.T) {
	build := func() *CPU {
		c := loopCPU(5000)
		c.SetEngine(EngineTraces)
		dma := mem.NewDMA(c.Bus.MMU.Phys)
		c.Bus.DMA = dma
		// Dst 0 overwrites physical words 0..7: the loop's text range.
		dma.Queue(mem.Transfer{Src: 0x4000, Dst: 0, Words: 8})
		return c
	}
	trc := build()
	run(t, trc, 1_000_000)

	fast := build()
	fast.SetEngine(EngineFast)
	run(t, fast, 1_000_000)

	if trc.Regs != fast.Regs {
		t.Errorf("registers diverge:\n traces %v\n   fast %v", trc.Regs, fast.Regs)
	}
	if trc.Stats != fast.Stats {
		t.Errorf("stats diverge:\n traces %+v\n   fast %+v", trc.Stats, fast.Stats)
	}
	if trc.Stats.DMACycles == 0 {
		t.Fatal("DMA consumed no free cycles; the guard was not exercised")
	}
	if trc.Trans.TraceFormed != 0 || trc.Trans.TraceCompiled != 0 {
		t.Errorf("traces formed with a DMA engine attached (formed=%d compiled=%d); the quiet-environment guard leaked",
			trc.Trans.TraceFormed, trc.Trans.TraceCompiled)
	}
	if trc.Trans.BlockChained == 0 {
		t.Error("loop ran without superblock chaining; degradation did not reach the block tier")
	}
}

// TestTracePatchBetweenSteps is the harness self-modification contract
// applied to the trace tier: a writer that patches code between Steps
// must rewrite IMem and Poke the physical word; the Poke must drop the
// covering compiled trace so the patch takes effect on the very next
// Step, even though trace dispatch skips per-entry revalidation.
func TestTracePatchBetweenSteps(t *testing.T) {
	const iters = 5000
	c := tracesCPU(iters)
	patched := false
	var left uint32
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		// Patch only at a loop-head Step boundary, after the trace tier
		// is warm, so the remaining iteration count is exact: switch the
		// accumulator step from +r3 (5) to +1.
		if !patched && c.PC() == 2 && c.Trans.TraceDispatchHits > 0 && c.Regs[1] > 0 {
			patched = true
			left = c.Regs[1]
			c.IMem.Set(2, w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1))))
			c.Bus.MMU.Phys.Poke(2, 0)
		}
	}
	if !patched {
		t.Fatal("patch point never reached with a warm trace tier")
	}
	if want := (iters-left)*5 + left; c.Regs[2] != want {
		t.Errorf("r2 = %d, want %d (stale trace executed after patch)", c.Regs[2], want)
	}
	if c.Trans.TraceDispatchHits == 0 {
		t.Error("loop never dispatched through a compiled trace")
	}
	if c.Trans.TraceInvalidations == 0 {
		t.Error("Poke into compiled trace text never dropped the trace")
	}
}

// TestTraceEngineToggle switches the trace tier on and off mid-run;
// machine state is shared with the lower tiers, so execution must
// continue seamlessly from any Step boundary.
func TestTraceEngineToggle(t *testing.T) {
	c := tracesCPU(3000)
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.Engine() == EngineTraces {
			c.SetEngine(EngineBlocks)
		} else {
			c.SetEngine(EngineTraces)
		}
	}
	if c.Regs[2] != 15000 {
		t.Errorf("r2 = %d, want 15000", c.Regs[2])
	}
}

// TestTraceChainFollowKnob pins the tunable chain-depth limit: depth 1
// must still execute correctly (every pass returns to the dispatcher),
// and a deeper limit must reduce the number of Step calls needed for
// the same work, which is the knob's whole point.
func TestTraceChainFollowKnob(t *testing.T) {
	stepsFor := func(follow int) (int, *CPU) {
		c := tracesCPU(4000)
		c.SetChainFollow(follow)
		steps := 0
		for !c.Halted {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
			steps++
		}
		return steps, c
	}
	shallowSteps, shallow := stepsFor(1)
	deepSteps, deep := stepsFor(64)
	if shallow.Regs != deep.Regs || shallow.Stats != deep.Stats {
		t.Errorf("chain depth changed architectural state:\n depth1 %+v\n depth64 %+v",
			shallow.Stats, deep.Stats)
	}
	if shallow.Regs[2] != 20000 {
		t.Errorf("r2 = %d, want 20000", shallow.Regs[2])
	}
	if deepSteps >= shallowSteps {
		t.Errorf("deep chaining took %d steps, shallow %d; the knob has no effect", deepSteps, shallowSteps)
	}
	if got := deep.ChainFollow(); got != 64 {
		t.Errorf("ChainFollow() = %d, want 64", got)
	}
}

// TestTraceYieldBackedOffEntry pins the chain-crossing re-arm for an
// entry whose threshold has backed off: when its heat crosses inside a
// block chain, the chain yields and the dispatcher's own bump on the
// very next Step must start the recording. Re-arming against the base
// threshold instead of the entry's effective one would waste the
// crossing and leave the next Step unrecorded.
func TestTraceYieldBackedOffEntry(t *testing.T) {
	c := loopCPU(1000)
	const head = 2 // the loop head, reached by chaining from the block at 0
	var formed []JITEvent
	c.SetJITHook(func(e JITEvent) {
		if e.Kind == JITFormed {
			formed = append(formed, e)
		}
	})
	c.heat = make([]heatEntry, heatEntries)
	eff := uint32(heatThreshold << 1)
	c.heat[head&(heatEntries-1)] = heatEntry{pc: head, n: eff - 1, boff: 1}

	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.PC() != head {
		t.Fatalf("first Step stopped at pc %d, want the chain to yield at %d", c.PC(), head)
	}
	if len(formed) != 0 {
		t.Fatalf("recording started before the dispatcher saw the crossing: %+v", formed)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if len(formed) != 1 || formed[0].PC != head {
		t.Fatalf("next Step formed %+v, want one recording at pc %d", formed, head)
	}
	if formed[0].Heat != eff {
		t.Errorf("JITFormed Heat = %d, want the effective threshold %d", formed[0].Heat, eff)
	}
}

// TestTracePackedShapes pins which packed words the trace tier
// compiles. A word of one of the three packed shapes the ISA encodes
// compiles even when isa.CanPack would reject it (here a three-address
// ALU piece), because the packed handlers run any word of those
// shapes exactly. Any other packed word, which only a harness writing
// instruction memory can produce, ends the path under refuse.block,
// and the lower tiers run it. Either way the trace engine must match
// the reference interpreter.
func TestTracePackedShapes(t *testing.T) {
	pack := func(a, m isa.Piece) isa.Instr { return isa.Instr{ALU: &a, Mem: &m} }
	br := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	br.Target = 2
	ld := isa.LoadDisp(4, 0, 8)
	add3 := isa.ALU(isa.OpAdd, 6, isa.R(2), isa.R(3))
	for _, c := range []struct {
		name     string
		body     isa.Instr // the loop's third body word
		term     isa.Instr // the loop's branch
		compiles bool
	}{
		{"three-address add | ld", pack(add3, ld), w(br), true},
		{"movlo | ld", pack(isa.ALU(isa.OpMovLo, 0, isa.R(3), isa.R(0)), ld), w(br), false},
		{"add | ld abs", pack(add3, isa.LoadAbs(4, 8)), w(br), false},
		{"add | bne", w(isa.Nop()), pack(add3, br), false},
	} {
		build := func(e Engine) *CPU {
			m := newTestCPU(
				w(isa.LoadImm32(1, 300)),                       // 0
				w(isa.Mov(3, isa.Imm(5))),                      // 1
				w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.R(3))),   // 2: loop body
				w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 3
				c.body,       // 4
				c.term,       // 5: bne r1, #0, 2
				w(isa.Nop()), // 6: branch delay
				halt,         // 7
			)
			m.Bus.MMU.Phys.Poke(8, 77)
			m.SetEngine(e)
			return m
		}
		trc, ref := build(EngineTraces), build(EngineReference)
		run(t, trc, 1_000_000)
		run(t, ref, 1_000_000)
		if trc.Regs != ref.Regs || trc.Lo != ref.Lo || trc.Stats != ref.Stats {
			t.Errorf("%s: traces diverge from the reference:\n traces %v lo=%d %+v\n    ref %v lo=%d %+v",
				c.name, trc.Regs, trc.Lo, trc.Stats, ref.Regs, ref.Lo, ref.Stats)
		}
		refused := trc.Trans.TraceFormRefusals[RefusalBlock]
		if c.compiles && (trc.Trans.TraceDispatchHits == 0 || refused != 0) {
			t.Errorf("%s: dispatched %d traces, %d block refusals; want a dispatched trace",
				c.name, trc.Trans.TraceDispatchHits, refused)
		}
		if !c.compiles && (trc.Trans.TraceCompiled != 0 || refused == 0) {
			t.Errorf("%s: compiled %d traces, %d block refusals; want a block refusal and no trace",
				c.name, trc.Trans.TraceCompiled, refused)
		}
	}
}
