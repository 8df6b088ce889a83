package cpu

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// TestBlocksLoopMatchesFastAndReference runs the standard counted loop
// on all three engines — superblocks, per-instruction fast path, and
// the reference interpreter — and requires strictly identical
// architectural state and statistics. The block engine must also have
// actually chained: a loop that never enters one block from another
// without returning to dispatch is not exercising the engine.
func TestBlocksLoopMatchesFastAndReference(t *testing.T) {
	blk := loopCPU(200)
	blk.SetEngine(EngineBlocks)
	run(t, blk, 100_000)

	fast := loopCPU(200)
	fast.SetEngine(EngineFast)
	run(t, fast, 100_000)

	ref := loopCPU(200)
	ref.SetEngine(EngineReference)
	run(t, ref, 100_000)

	if blk.Regs != fast.Regs || blk.Regs != ref.Regs {
		t.Errorf("registers diverge:\n blocks %v\n   fast %v\n    ref %v",
			blk.Regs, fast.Regs, ref.Regs)
	}
	if blk.Stats != fast.Stats || blk.Stats != ref.Stats {
		t.Errorf("stats diverge:\n blocks %+v\n   fast %+v\n    ref %+v",
			blk.Stats, fast.Stats, ref.Stats)
	}
	if blk.Regs[2] != 1000 {
		t.Errorf("r2 = %d, want 1000", blk.Regs[2])
	}
	if blk.Trans.BlockChained == 0 {
		t.Error("loop executed without a single chained block entry")
	}
}

// selfModifyCPU builds a looped straight-line run of `body` add words
// (long enough to span a block boundary when body > blockMaxWords)
// whose tail stores r3 into the physical word at storeTarget every
// iteration.
func selfModifyCPU(iters int32, body int, storeTarget int32) *CPU {
	words := []isa.Instr{
		w(isa.LoadImm32(1, iters)),
		w(isa.Mov(3, isa.Imm(7))),
	}
	for i := 0; i < body; i++ {
		words = append(words, w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1))))
	}
	br := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	br.Target = 2
	words = append(words,
		w(isa.StoreAbs(3, storeTarget)),
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))),
		w(br),
		w(isa.Nop()),
		halt,
	)
	return newTestCPU(words...)
}

// TestBlockSelfModifyStore stores into the physical words at the
// loop's own text addresses every iteration. Fetch reads instruction
// memory, so the store changes data only: results match the fast path,
// and the block tier translates, chains and bails exactly as it does
// when the same loop stores into plain data.
func TestBlockSelfModifyStore(t *testing.T) {
	for _, tc := range []struct {
		name        string
		body        int
		storeTarget int32
	}{
		// The store lives past the first block boundary (body spans
		// blockMaxWords) and hits a word cached by the first block.
		{"across-boundary", blockMaxWords + 8, 4},
		// The store hits a later word of its own still-running block.
		{"own-block", 16, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const iters = 50
			build := func(e Engine, target int32) *CPU {
				c := selfModifyCPU(iters, tc.body, target)
				c.SetEngine(e)
				run(t, c, 1_000_000)
				return c
			}
			blk := build(EngineBlocks, tc.storeTarget)
			fast := build(EngineFast, tc.storeTarget)
			data := build(EngineBlocks, 0x4000)

			if blk.Regs != fast.Regs {
				t.Errorf("registers diverge:\n blocks %v\n   fast %v", blk.Regs, fast.Regs)
			}
			if blk.Stats != fast.Stats {
				t.Errorf("stats diverge:\n blocks %+v\n   fast %+v", blk.Stats, fast.Stats)
			}
			if want := uint32(iters * tc.body); blk.Regs[2] != want {
				t.Errorf("r2 = %d, want %d", blk.Regs[2], want)
			}
			if blk.Bus.MMU.Phys.Peek(uint32(tc.storeTarget)) != 7 {
				t.Error("the store never reached the text address")
			}
			if blk.Trans.BlockInvalidations != 0 {
				t.Errorf("a data store dropped %d blocks, want none", blk.Trans.BlockInvalidations)
			}
			if blk.Trans != data.Trans {
				t.Errorf("storing into text translates differently from storing into data:\n text %+v\n data %+v",
					blk.Trans, data.Trans)
			}
		})
	}
}

// TestBlockPatchBetweenSteps patches code between runs through
// WriteCode. Chained blocks skip any per-entry check of their words, so
// the write itself must drop the covering blocks for the patch to take
// effect on the very next run.
func TestBlockPatchBetweenSteps(t *testing.T) {
	const iters = 1000
	c := loopCPU(iters)
	c.SetEngine(EngineBlocks)
	patched := false
	var left uint32
	// Two steps reach the loop head; from there each 80-step run is
	// twenty iterations (words 2..5) and returns to it.
	c.RunSteps(2)
	for !c.Halted {
		c.RunSteps(80)
		// Patch only at a loop-head boundary so the remaining
		// iteration count is exact: switch the accumulator step from
		// +r3 (5) to +1.
		if !patched && c.PC() == 2 && c.Regs[1] <= iters/2 && c.Regs[1] > 0 {
			patched = true
			left = c.Regs[1]
			c.WriteCode(2, []isa.Instr{w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))})
		}
	}
	if !patched {
		t.Fatal("patch point never reached (no loop-head run boundary)")
	}
	if want := (iters-left)*5 + left; c.Regs[2] != want {
		t.Errorf("r2 = %d, want %d (stale block executed after patch)", c.Regs[2], want)
	}
	if c.Trans.BlockChained == 0 {
		t.Error("loop ran without chaining; the chain-trust path was not exercised")
	}
	if c.Trans.BlockInvalidations == 0 {
		t.Error("the code write dropped no block")
	}
}

// TestBlockDMAInvalidation has the DMA engine overwrite the physical
// words at the loop's text addresses on stolen free cycles while the
// loop is hot and chained. DMA moves data only: execution matches the
// fast path with the identical DMA schedule, and the block tier drops
// nothing and translates exactly as it does when the same move lands
// in plain data.
func TestBlockDMAInvalidation(t *testing.T) {
	build := func(e Engine, dst uint32) *CPU {
		c := loopCPU(5000)
		c.SetEngine(e)
		dma := mem.NewDMA(c.Bus.MMU.Phys)
		c.Bus.DMA = dma
		for a := uint32(0); a < 8; a++ {
			c.Bus.MMU.Phys.Poke(0x4000+a, 0xD0+a)
		}
		dma.Queue(mem.Transfer{Src: 0x4000, Dst: dst, Words: 8})
		run(t, c, 1_000_000)
		return c
	}
	// Dst 0 overwrites physical words 0..7: the loop's text range.
	blk := build(EngineBlocks, 0)
	fast := build(EngineFast, 0)
	data := build(EngineBlocks, 0x5000)

	if blk.Regs != fast.Regs {
		t.Errorf("registers diverge:\n blocks %v\n   fast %v", blk.Regs, fast.Regs)
	}
	if blk.Stats != fast.Stats {
		t.Errorf("stats diverge:\n blocks %+v\n   fast %+v", blk.Stats, fast.Stats)
	}
	if blk.Regs[2] != 25000 {
		t.Errorf("r2 = %d, want 25000", blk.Regs[2])
	}
	if blk.Stats.DMACycles == 0 {
		t.Fatal("DMA consumed no free cycles; the mid-loop case was not exercised")
	}
	if blk.Bus.MMU.Phys.Peek(7) != 0xD7 {
		t.Error("the DMA move never reached the text addresses")
	}
	if blk.Trans.BlockChained == 0 {
		t.Error("loop ran without chaining")
	}
	if blk.Trans.BlockInvalidations != 0 {
		t.Errorf("DMA writes dropped %d blocks, want none", blk.Trans.BlockInvalidations)
	}
	if blk.Trans != data.Trans {
		t.Errorf("a DMA move into text translates differently from one into data:\n text %+v\n data %+v",
			blk.Trans, data.Trans)
	}
}

// TestBlockEngineToggle switches the superblock engine on and off
// mid-run; machine state is shared with the per-instruction path, so
// execution must continue seamlessly from any run boundary: 67 steps
// end a run at every word of the four-word loop in turn.
func TestBlockEngineToggle(t *testing.T) {
	c := loopCPU(300)
	c.SetEngine(EngineBlocks)
	for !c.Halted {
		c.RunSteps(67)
		if c.Engine() == EngineBlocks {
			c.SetEngine(EngineFast)
		} else {
			c.SetEngine(EngineBlocks)
		}
	}
	if c.Regs[2] != 1500 {
		t.Errorf("r2 = %d, want 1500", c.Regs[2])
	}
}
