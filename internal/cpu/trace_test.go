package cpu

import (
	"slices"
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
// r4 crosses into the physical words at the loop's own text addresses.
// Choose base so the crossing happens long after the trace tier is
// warm.
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

// TestTraceSelfModifyStore runs a store into the loop's own text
// addresses from inside its compiled trace. The loop runs clean long
// enough for the trace tier to compile its path, then the descending
// store pointer crosses into the physical words at the loop's text.
// Fetch reads instruction memory, so the store changes data only: the
// trace keeps running without an early exit, results match the fast
// path, and the tiers translate exactly as they do when the pointer
// walks plain data.
func TestTraceSelfModifyStore(t *testing.T) {
	const iters, base = 280, 286
	build := func(e Engine, base int32) *CPU {
		c := descendingStoreCPU(iters, base)
		c.SetEngine(e)
		run(t, c, 1_000_000)
		return c
	}
	trc := build(EngineTraces, base)
	fast := build(EngineFast, base)
	data := build(EngineTraces, 0x4000+base)

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
	if trc.Bus.MMU.Phys.Peek(6) == 0 {
		t.Error("the store never reached the loop's text addresses")
	}
	if trc.Trans.TraceInvalidations != 0 || trc.Trans.BlockInvalidations != 0 {
		t.Errorf("data stores dropped %d traces and %d blocks, want none",
			trc.Trans.TraceInvalidations, trc.Trans.BlockInvalidations)
	}
	if trc.Trans != data.Trans {
		t.Errorf("storing into text translates differently from storing into data:\n text %+v\n data %+v",
			trc.Trans, data.Trans)
	}
}

// TestDataWritesKeepTranslations pins the split between instruction
// and data memory: a CPU store, a DMA move and a Poke into the physical
// words at text addresses change data only, so every block and trace
// stays live, and the run still matches the reference engine.
func TestDataWritesKeepTranslations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *CPU
		poke  bool // Poke words 0-7 once the tiers are warm
	}{
		// The last stores land on words 8, 7 and 6: the loop's halt,
		// delay slot and branch.
		{"store", func() *CPU { return descendingStoreCPU(280, 286) }, false},
		{"dma", func() *CPU {
			c := loopCPU(5000)
			dma := mem.NewDMA(c.Bus.MMU.Phys)
			c.Bus.DMA = dma
			for a := uint32(0); a < 8; a++ {
				c.Bus.MMU.Phys.Poke(0x4000+a, 0xD0+a)
			}
			dma.Queue(mem.Transfer{Src: 0x4000, Dst: 0, Words: 8})
			return c
		}, false},
		{"poke", func() *CPU { return loopCPU(5000) }, true},
	} {
		for _, e := range []Engine{EngineBlocks, EngineTraces} {
			run := func(e Engine) *CPU {
				c := tc.build()
				c.SetEngine(e)
				poked := false
				for !c.Halted {
					c.RunSteps(500)
					if tc.poke && !poked && c.Stats.Instructions > 5000 {
						poked = true
						blocks, traces := len(c.liveBlocks), len(c.liveTraces)
						for a := uint32(0); a < 8; a++ {
							c.Bus.MMU.Phys.Poke(a, 0xBAD0+a)
						}
						if len(c.liveBlocks) != blocks || len(c.liveTraces) != traces {
							t.Errorf("%s/%v: the poke dropped translations: %d -> %d blocks, %d -> %d traces",
								tc.name, e, blocks, len(c.liveBlocks), traces, len(c.liveTraces))
						}
					}
				}
				return c
			}
			got, ref := run(e), run(EngineReference)
			if got.Regs != ref.Regs || got.Stats != ref.Stats {
				t.Errorf("%s/%v: diverges from the reference:\n got %v %+v\n ref %v %+v",
					tc.name, e, got.Regs, got.Stats, ref.Regs, ref.Stats)
			}
			if got.Trans.BlockInvalidations != 0 || got.Trans.TraceInvalidations != 0 {
				t.Errorf("%s/%v: data writes dropped %d blocks and %d traces, want none",
					tc.name, e, got.Trans.BlockInvalidations, got.Trans.TraceInvalidations)
			}
			if got.Trans.BlockChained == 0 {
				t.Errorf("%s/%v: no block chained; the block tier never ran", tc.name, e)
			}
			if e == EngineTraces && tc.name != "dma" && got.Trans.TraceDispatchHits == 0 {
				t.Errorf("%s: no trace dispatched; the trace tier never ran", tc.name)
			}
			if got.Bus.MMU.Phys.Peek(6) == 0 || got.Bus.MMU.Phys.Peek(7) == 0 {
				t.Errorf("%s/%v: no data reached the text addresses", tc.name, e)
			}
		}
	}
}

// twoLoopCPU builds an outer loop of k passes over two inner loops of n
// iterations each: loop A (words 3-6) adds r3 to r2, loop B (words 8-11)
// counts in r7. Each loop is its own blocks and traces, so a write into
// one loop's text leaves the other's translations alone.
func twoLoopCPU(k, n int32) *CPU {
	back := func(r isa.Reg, target int32) isa.Instr {
		br := isa.Branch(isa.CmpNE, isa.R(r), isa.Imm(0), "")
		br.Target = target
		return w(br)
	}
	return newTestCPU(
		w(isa.LoadImm32(6, k)),                         // 0
		w(isa.Mov(3, isa.Imm(5))),                      // 1
		w(isa.LoadImm32(1, n)),                         // 2: outer loop
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.R(3))),   // 3: loop A
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 4
		back(1, 3),             // 5
		w(isa.LoadImm32(5, n)), // 6: delay slot
		w(isa.Nop()),           // 7
		w(isa.ALU(isa.OpAdd, 7, isa.R(7), isa.Imm(1))), // 8: loop B
		w(isa.ALU(isa.OpSub, 5, isa.R(5), isa.Imm(1))), // 9
		back(5, 8),   // 10
		w(isa.Nop()), // 11: delay slot
		w(isa.ALU(isa.OpSub, 6, isa.R(6), isa.Imm(1))), // 12
		back(6, 2),   // 13
		w(isa.Nop()), // 14: delay slot
		halt,         // 15
	)
}

// TestCodeWriteDropsTranslations patches loop A's body word while loop
// B runs, on the block and trace tiers. The write must drop exactly the
// blocks and traces whose cached words include the patched one, keep
// every other translation live, and leave the run identical to the
// reference engine's under the same patch: loop A runs the new word on
// its next pass.
func TestCodeWriteDropsTranslations(t *testing.T) {
	const pa = 3
	patch := w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))
	meetsBlock := func(b *block) bool {
		end := b.pa + b.n
		if b.hasTerm {
			end += 1 + uint32(b.dsN)
		}
		return b.pa <= pa && pa < end
	}
	meetsTrace := func(tr *trace) bool {
		for _, sp := range tr.spans {
			if sp.pa <= pa && pa < sp.pa+sp.n {
				return true
			}
		}
		return false
	}
	for _, e := range []Engine{EngineBlocks, EngineTraces} {
		run := func(e Engine) *CPU {
			c := twoLoopCPU(6, 200)
			c.SetEngine(e)
			patched := false
			for !c.Halted {
				c.RunSteps(500)
				if patched || c.Regs[6] > 3 || c.PC() < 8 || c.PC() > 11 {
					continue
				}
				patched = true
				blocks := slices.Clone(c.liveBlocks)
				traces := slices.Clone(c.liveTraces)
				b0, t0 := c.Trans.BlockInvalidations, c.Trans.TraceInvalidations
				c.WriteCode(pa, []isa.Instr{patch})
				var droppedB, keptB, droppedT, keptT uint64
				for _, b := range blocks {
					if meetsBlock(b) == b.valid {
						t.Errorf("%v: block at %d (valid %v) after a write to word %d", e, b.pa, b.valid, pa)
					}
					if b.valid {
						keptB++
					} else {
						droppedB++
					}
				}
				for _, tr := range traces {
					if meetsTrace(tr) == tr.valid {
						t.Errorf("%v: trace at %d (valid %v) after a write to word %d", e, tr.pc, tr.valid, pa)
					}
					if tr.valid {
						keptT++
					} else {
						droppedT++
					}
				}
				if d := c.Trans.BlockInvalidations - b0; d != droppedB {
					t.Errorf("%v: %d block invalidations counted, %d blocks dropped", e, d, droppedB)
				}
				if d := c.Trans.TraceInvalidations - t0; d != droppedT {
					t.Errorf("%v: %d trace invalidations counted, %d traces dropped", e, d, droppedT)
				}
				if e == EngineReference {
					continue
				}
				if droppedB == 0 || keptB == 0 {
					t.Errorf("%v: the write dropped %d blocks and kept %d; want some of each", e, droppedB, keptB)
				}
				if e == EngineTraces && (droppedT == 0 || keptT == 0) {
					t.Errorf("traces: the write dropped %d traces and kept %d; want some of each", droppedT, keptT)
				}
			}
			if !patched {
				t.Fatalf("%v: no run boundary fell in loop B of a late pass", e)
			}
			return c
		}
		got, ref := run(e), run(EngineReference)
		if got.Regs != ref.Regs || got.Stats != ref.Stats {
			t.Errorf("%v: diverges from the reference after the patch:\n got %v %+v\n ref %v %+v",
				e, got.Regs, got.Stats, ref.Regs, ref.Stats)
		}
		if ref.Regs[2] == 6*200*5 {
			t.Error("the patch never took effect: loop A ran no pass after it")
		}
	}
}

// TestTraceDMAQuietGuard pins the trace tier's quiet-environment rule:
// a machine with a DMA engine attached must never form a trace (the
// engine claims free cycles word by word, which a compiled trace does
// not model), degrading to the superblock engine. Results must match
// the fast path with the identical DMA schedule.
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

// TestTracePatchBetweenSteps patches code between runs through
// WriteCode on the trace tier: the write must drop the covering
// compiled trace so the patch takes effect on the very next run, since
// trace dispatch never rereads its words.
func TestTracePatchBetweenSteps(t *testing.T) {
	const iters = 5000
	c := tracesCPU(iters)
	patched := false
	var left uint32
	// Two steps reach the loop head; from there each 80-step run is
	// twenty iterations (words 2..5) and returns to it.
	c.RunSteps(2)
	for !c.Halted {
		c.RunSteps(80)
		// Patch only at a loop-head boundary, after the trace tier
		// is warm, so the remaining iteration count is exact: switch the
		// accumulator step from +r3 (5) to +1.
		if !patched && c.PC() == 2 && c.Trans.TraceDispatchHits > 0 && c.Regs[1] > 0 {
			patched = true
			left = c.Regs[1]
			c.WriteCode(2, []isa.Instr{w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))})
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
		t.Error("the code write dropped no trace")
	}
}

// TestTraceEngineToggle switches the trace tier on and off mid-run;
// machine state is shared with the lower tiers, so execution must
// continue seamlessly from any run boundary: 67 steps end a run at
// every word of the four-word loop in turn.
func TestTraceEngineToggle(t *testing.T) {
	c := tracesCPU(3000)
	for !c.Halted {
		c.RunSteps(67)
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

// TestTraceYieldRearmsAtThreshold pins the chain-crossing re-arm: when
// an entry's heat crosses the formation threshold inside a block chain,
// the chain yields and the dispatcher's own bump on the very next
// dispatch must start the recording. Re-arming below threshold-1 would
// waste the crossing and leave the next run unrecorded.
func TestTraceYieldRearmsAtThreshold(t *testing.T) {
	c := loopCPU(1000)
	const head = 2 // the loop head, reached by chaining from the block at 0
	var formed []JITEvent
	c.SetJITHook(func(e JITEvent) {
		if e.Kind == JITFormed {
			formed = append(formed, e)
		}
	})
	c.heat = make([]heatEntry, heatEntries)
	c.heat[head&(heatEntries-1)] = heatEntry{pc: head, n: heatThreshold - 1}

	// The block at 0 runs words 0..5 and its chain yields at the head;
	// the run's last 64 steps go word by word, below the tiers, through
	// sixteen iterations back to the head.
	c.RunSteps(70)
	if c.PC() != head {
		t.Fatalf("first run stopped at pc %d, want the chain to yield at %d", c.PC(), head)
	}
	if len(formed) != 0 {
		t.Fatalf("recording started before the dispatcher saw the crossing: %+v", formed)
	}
	c.RunSteps(80)
	if len(formed) != 1 || formed[0].PC != head {
		t.Fatalf("next run formed %+v, want one recording at pc %d", formed, head)
	}
	if formed[0].Heat != heatThreshold {
		t.Errorf("JITFormed Heat = %d, want the threshold %d", formed[0].Heat, heatThreshold)
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
