package cpu

// Formation cost and record ownership: compiling a trace allocates per
// trace, never per op, and nothing a compiled trace keeps is shared with
// another trace or with the formation that built it.

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"unsafe"

	"mips/internal/isa"
)

// formationLoopCPU builds a counted loop whose body is segs straight-line
// segments of per ALU words, each ended by a jump to the next segment
// (the last by the backward branch), so one recording fuses segs blocks
// into a single closed trace of segs*(per+2) ops: per ALU ops, the
// terminator, and its delay-slot nop. With packed, every odd ALU word
// also loads a data word into r8, a packed word. The loop starts at
// word 1.
func formationLoopCPU(segs, per int, packed bool) *CPU {
	words := []isa.Instr{w(isa.LoadImm32(1, 1<<20))} // 0
	for s := 0; s < segs; s++ {
		for i := 0; i < per; i++ {
			if s == 0 && i == 0 {
				words = append(words, w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))))
				continue
			}
			r := isa.Reg(2 + i%6)
			add := isa.ALU(isa.OpAdd, r, isa.R(r), isa.Imm(1))
			if packed && i%2 == 1 {
				pw, ok := isa.Pack(add, isa.LoadDisp(8, 9, 2))
				if !ok {
					panic("pack failed")
				}
				words = append(words, pw)
				continue
			}
			words = append(words, w(add))
		}
		if s < segs-1 {
			// Jump over one never-executed pad word: a target right
			// after the delay slot would leave the queue sequential.
			j := isa.Jump("")
			j.Target = int32(len(words) + 3)
			words = append(words, w(j), w(isa.Nop()), halt)
			continue
		}
		br := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
		br.Target = 1
		words = append(words, w(br), w(isa.Nop()))
	}
	return newTestCPU(append(words, halt)...)
}

// firstRecording runs c until it compiles its first trace and returns a
// copy of the recording that trace formed from.
func firstRecording(t *testing.T, c *CPU) TraceRecording {
	t.Helper()
	var rec TraceRecording
	c.SetJITHook(func(e JITEvent) {
		if e.Kind == JITFormed {
			rec = c.captureRecording(e.PC)
		}
	})
	for i := 0; i < 10_000 && c.Trans.TraceCompiled == 0; i++ {
		c.RunSteps(1000)
	}
	c.SetJITHook(nil)
	if c.Trans.TraceCompiled == 0 {
		t.Fatal("loop never compiled a trace")
	}
	return rec
}

// TestTraceFormationAllocs pins formation's allocation count: re-forming
// a recorded path — validation, flattening, compilation, installation —
// allocates the trace, its op records and its spans, the same three
// objects for a 10-op trace as for a 200-op one, and for a loop of
// packed words. The records formation decodes the recorded words into
// live on its own frame.
func TestTraceFormationAllocs(t *testing.T) {
	const want = 3
	for _, tc := range []struct {
		segs, per, ops int
		packed         bool
	}{
		{segs: 1, per: 8, ops: 10},
		{segs: 4, per: 48, ops: 200},
		{segs: 2, per: 16, ops: 36, packed: true},
	} {
		c := formationLoopCPU(tc.segs, tc.per, tc.packed)
		rec := firstRecording(t, c)
		compiled := c.Trans.TraceCompiled
		allocs := testing.AllocsPerRun(100, func() { c.replayRecording(rec) })
		if c.Trans.TraceCompiled == compiled {
			t.Fatalf("%d-op loop: replaying the recording compiled nothing", tc.ops)
		}
		tr := c.traceAt(rec.entry, &c.trec.ctx)
		if tr == nil || len(tr.ins) != tc.ops {
			t.Fatalf("%d-op loop: replay installed no trace of that length", tc.ops)
		}
		if allocs != want {
			t.Errorf("%d-op trace: formation makes %v allocations, want %d", tc.ops, allocs, want)
		}
	}
}

// TestTraceInstSize pins a compiled op at 64 bytes or less and a
// block's immutable part at 48 bytes or less, besides the words it
// caches: published translations live as long as their image, every op
// of every trace is one record, and every block one blockCode.
func TestTraceInstSize(t *testing.T) {
	if n := unsafe.Sizeof(traceInst{}); n > 64 {
		t.Errorf("a compiled trace op takes %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(blockCode{}); n > 48 {
		t.Errorf("a block's immutable part takes %d bytes, want at most 48", n)
	}
}

// eventHash folds a CPU's memory, branch, and exception hook events
// into one FNV-64a stream, so two runs compare event for event.
type eventHash struct {
	sum interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	buf [14]byte
}

func attachEventHash(c *CPU) *eventHash {
	e := &eventHash{sum: fnv.New64a()}
	put := func(tag byte, a, b, d uint32, f bool) {
		e.buf[0] = tag
		binary.LittleEndian.PutUint32(e.buf[1:], a)
		binary.LittleEndian.PutUint32(e.buf[5:], b)
		binary.LittleEndian.PutUint32(e.buf[9:], d)
		e.buf[13] = 0
		if f {
			e.buf[13] = 1
		}
		e.sum.Write(e.buf[:14])
	}
	c.SetMemHook(func(pc, addr uint32, store bool) { put('m', pc, addr, 0, store) })
	c.SetBranchHook(func(pc, target uint32, taken bool) { put('b', pc, target, 0, taken) })
	c.SetExcHook(func(pc uint32, primary, secondary isa.Cause, code uint16) {
		put('x', pc, uint32(primary), uint32(secondary)<<16|uint32(code), false)
	})
	return e
}

// cloneWord returns a word with the same pieces at new addresses:
// architecturally identical, but a different identity, so installing it
// is a real code patch to every cache keyed on the word.
func cloneWord(in isa.Instr) isa.Instr {
	var out isa.Instr
	if in.ALU != nil {
		p := *in.ALU
		out.ALU = &p
	}
	if in.Mem != nil {
		p := *in.Mem
		out.Mem = &p
	}
	return out
}

// TestTraceReformAliasing repeatedly drops and re-forms the traces of the
// LFSR indirect-jump workload on one CPU. At instruction counts picked by a second LFSR, a word of the loop is
// replaced by an identical clone through WriteCode, which drops
// everything covering it, and the tier
// re-forms from live memory. Because every patch is architecturally
// invisible, the run must match a blocks-engine run with the same patch
// schedule event for event: a record shared between a dropped trace and
// its replacement, or with formation's own flattening, would replay the
// wrong word somewhere along the way.
func TestTraceReformAliasing(t *testing.T) {
	const n = 20_000
	run := func(e Engine) (*CPU, uint64, int) {
		c := lfsrIndirectCPU(n)
		c.SetEngine(e)
		h := attachEventHash(c)
		sched := uint32(0x9E3779B9)
		next := uint64(0)
		patches := 0
		for !c.Halted {
			if c.Stats.Instructions < next {
				c.RunSteps(next - c.Stats.Instructions)
				continue
			}
			// One Galois step of the schedule LFSR picks the gap to the
			// next patch and the loop word (3..37) to clone.
			sched = sched>>1 ^ lfsrTaps&-(sched&1)
			pa := 3 + sched%35
			c.WriteCode(pa, []isa.Instr{cloneWord(c.IMem.At(pa))})
			next = c.Stats.Instructions + 4000 + uint64(sched>>8%16000)
			patches++
		}
		return c, h.sum.Sum64(), patches
	}
	trc, trcHash, patches := run(EngineTraces)
	blk, blkHash, _ := run(EngineBlocks)

	if trc.Regs != blk.Regs {
		t.Errorf("registers diverge:\n traces %v\n blocks %v", trc.Regs, blk.Regs)
	}
	if trc.Stats != blk.Stats {
		t.Errorf("stats diverge:\n traces %+v\n blocks %+v", trc.Stats, blk.Stats)
	}
	if trcHash != blkHash {
		t.Error("observer event streams diverge")
	}
	if want := lfsrIndirectR2(n); trc.Regs[2] != want {
		t.Errorf("r2 = %d, want %d", trc.Regs[2], want)
	}
	if patches < 10 {
		t.Fatalf("only %d patches landed; the re-formation cycle is barely exercised", patches)
	}
	if trc.Trans.TraceInvalidations == 0 || trc.Trans.TraceCompiled < 2 {
		t.Errorf("patches dropped %d traces and compiled %d; want drops followed by re-formation",
			trc.Trans.TraceInvalidations, trc.Trans.TraceCompiled)
	}
}
