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
// actually chained: a loop that never takes a chain edge is not
// exercising the tentpole.
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
// whose tail stores r3 into the physical word at storeTarget — text
// territory — every iteration.
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

// TestBlockSelfModifyStore covers the write-barrier coherence rule for
// stores into cached text. Instruction memory itself is untouched (the
// machine executes from IMem), so architectural results must match the
// per-instruction fast path exactly; what the barrier buys is that the
// affected blocks are dropped and rebuilt instead of executing stale.
func TestBlockSelfModifyStore(t *testing.T) {
	for _, tc := range []struct {
		name        string
		body        int
		storeTarget int32
	}{
		// The store lives past the first block boundary (body spans
		// blockMaxWords) and hits a word cached by the first block:
		// invalidation crosses the boundary between blocks.
		{"across-boundary", blockMaxWords + 8, 4},
		// The store hits a later word of its own still-running block:
		// the engine must bail at the store's exact instruction
		// boundary and rebuild.
		{"own-block", 16, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const iters = 50
			blk := selfModifyCPU(iters, tc.body, tc.storeTarget)
			blk.SetEngine(EngineBlocks)
			run(t, blk, 1_000_000)

			fast := selfModifyCPU(iters, tc.body, tc.storeTarget)
			fast.SetEngine(EngineFast)
			run(t, fast, 1_000_000)

			if blk.Regs != fast.Regs {
				t.Errorf("registers diverge:\n blocks %v\n   fast %v", blk.Regs, fast.Regs)
			}
			if blk.Stats != fast.Stats {
				t.Errorf("stats diverge:\n blocks %+v\n   fast %+v", blk.Stats, fast.Stats)
			}
			if want := uint32(iters * tc.body); blk.Regs[2] != want {
				t.Errorf("r2 = %d, want %d", blk.Regs[2], want)
			}
			if blk.Trans.BlockInvalidations == 0 {
				t.Error("self-modifying store never tripped the write barrier")
			}
			if tc.name == "own-block" && blk.Trans.BlockBails == 0 {
				t.Error("store into the running block did not bail at an instruction boundary")
			}
			// Every invalidation forces a rebuild on the next entry; a
			// translation count no higher than a clean run's would mean
			// stale blocks kept executing.
			if blk.Trans.BlockTranslations <= uint64(blk.Trans.BlockInvalidations) {
				t.Errorf("translations %d should exceed invalidations %d (rebuild per drop plus initial builds)",
					blk.Trans.BlockTranslations, blk.Trans.BlockInvalidations)
			}
		})
	}
}

// TestBlockPatchBetweenSteps is the harness self-modification contract:
// a writer that changes code must rewrite IMem (what the CPU executes
// and validates against) and write the physical word (what fires the
// barrier, as the kernel pager does). Chained blocks skip per-entry
// revalidation, so the Poke is what guarantees the patch takes effect
// on the very next Step.
func TestBlockPatchBetweenSteps(t *testing.T) {
	const iters = 1000
	c := loopCPU(iters)
	c.SetEngine(EngineBlocks)
	patched := false
	var left uint32
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		// Patch only at a loop-head Step boundary so the remaining
		// iteration count is exact: switch the accumulator step from
		// +r3 (5) to +1.
		if !patched && c.PC() == 2 && c.Regs[1] <= iters/2 && c.Regs[1] > 0 {
			patched = true
			left = c.Regs[1]
			c.IMem.Set(2, w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1))))
			c.Bus.MMU.Phys.Poke(2, 0)
		}
	}
	if !patched {
		t.Fatal("patch point never reached (no loop-head Step boundary)")
	}
	if want := (iters-left)*5 + left; c.Regs[2] != want {
		t.Errorf("r2 = %d, want %d (stale block executed after patch)", c.Regs[2], want)
	}
	if c.Trans.BlockChained == 0 {
		t.Error("loop ran without chaining; the chain-trust path was not exercised")
	}
	if c.Trans.BlockInvalidations == 0 {
		t.Error("Poke into cached text never tripped the write barrier")
	}
}

// TestBlockDMAInvalidation has the DMA engine overwrite the loop's own
// text words on stolen free cycles while the loop is hot and chained.
// Each DMA word-write must drop the covering block mid-loop; execution
// continues exactly (IMem is untouched) and matches the fast path with
// the identical DMA schedule.
func TestBlockDMAInvalidation(t *testing.T) {
	build := func() *CPU {
		c := loopCPU(5000)
		c.SetEngine(EngineBlocks)
		dma := mem.NewDMA(c.Bus.MMU.Phys)
		c.Bus.DMA = dma
		// Dst 0 overwrites physical words 0..7: the loop's text range.
		dma.Queue(mem.Transfer{Src: 0x4000, Dst: 0, Words: 8})
		return c
	}
	blk := build()
	run(t, blk, 1_000_000)

	fast := build()
	fast.SetEngine(EngineFast)
	run(t, fast, 1_000_000)

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
	if blk.Trans.BlockChained == 0 {
		t.Error("loop ran without chaining")
	}
	if blk.Trans.BlockInvalidations == 0 {
		t.Error("DMA writes into cached text never tripped the write barrier")
	}
}

// TestBlockEngineToggle switches the superblock engine on and off
// mid-run; machine state is shared with the per-instruction path, so
// execution must continue seamlessly from any Step boundary.
func TestBlockEngineToggle(t *testing.T) {
	c := loopCPU(300)
	c.SetEngine(EngineBlocks)
	for !c.Halted {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
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
