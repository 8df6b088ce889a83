package cpu

// The superblock execution engine. The dispatcher comes here when the
// fetch queue holds no in-flight branch target: the head of the queue is
// then a block entry point, and the whole straight-line run up to and
// including the next control transfer executes as one translated block
// (blockcache.go) — per-word fetch, queue maintenance, and pipeline
// bookkeeping replaced by one loop over flat records. Packed words and
// anything else without a lean form run on the exact per-instruction
// executor: the reference interpreter remains the oracle, and every
// deviation (fault, trap, interrupt, halt, invalidation, page-map
// change) abandons the block at a precise instruction boundary.

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

// queueSequential reports whether the fetch queue holds only the
// sequential successors of its head — no delayed branch target in
// flight, so the head is a block entry point.
func (c *CPU) queueSequential() bool {
	for i := 1; i < c.pcn; i++ {
		if c.pcq[i] != c.pcq[0]+uint32(i) {
			return false
		}
	}
	return true
}

// leanRead reads a register on the lean block path. With no pending
// load the read has no architectural side effects (the hazard auditor
// only ever fires against a pending load), so it collapses to a
// register-file load; otherwise it defers to readReg for exact audit
// behavior.
func (c *CPU) leanRead(r isa.Reg, vpc uint32) uint32 {
	if c.pendN != 0 {
		return c.readReg(r, vpc)
	}
	return c.Regs[r]
}

// leanOperand reads an operand on the lean path. It repeats leanRead's
// test rather than calling it, which keeps it within the inliner's
// budget: it runs for every register operand of a lean ALU word or
// branch.
func (c *CPU) leanOperand(o fastOp, vpc uint32) uint32 {
	if o.imm {
		return o.val
	}
	if c.pendN == 0 {
		return c.Regs[o.reg]
	}
	return c.readReg(o.reg, vpc)
}

// leanAddr computes a load/store effective address, reading registers
// in the same order as effectiveAddr.
func (c *CPU) leanAddr(d *decoded, vpc uint32) uint32 {
	switch d.mode {
	case isa.AModeAbs:
		return uint32(d.disp)
	case isa.AModeDisp:
		return c.leanRead(d.base, vpc) + uint32(d.disp)
	case isa.AModeIndex:
		return c.leanRead(d.base, vpc) + c.leanRead(d.index, vpc)
	case isa.AModeShift:
		return c.leanRead(d.base, vpc) + c.leanRead(d.index, vpc)>>d.shift
	}
	return 0
}

// leanWord executes one nop, ALU, load or store record at vpc: the
// block engine's one copy of those classes' semantics, run by the body
// loop and the delay-slot drain alike. It counts the word and offers
// its free data cycle to DMA; ticking, interrupt sampling and the fault
// restart stay with the caller, whose fetch queues differ. A fault
// returns its cause with the destination unwritten, exactly like the
// staged-commit path; a completed word returns isa.CauseNone. The
// environment is read from the machine, not passed: the call costs
// less for it, and the body loop runs it once per word.
func (c *CPU) leanWord(d *decoded, vpc uint32) isa.Cause {
	c.Stats.Instructions++
	c.Stats.Cycles++
	cause := isa.CauseNone
	switch d.bclass {
	case bcNop:
		c.Stats.Nops++
	case bcALU:
		c.Stats.Pieces++
		switch d.aluKind {
		case isa.PieceALU:
			a := c.leanOperand(d.a1, vpc)
			var b uint32
			if !d.aluUnary {
				b = c.leanOperand(d.a2, vpc)
			}
			var dstVal uint32
			if d.aluDstRead {
				dstVal = c.leanRead(d.aluDst, vpc)
			}
			v, lo, ovf := aluEval(d.aluOp, a, b, dstVal, c.Lo)
			switch {
			case ovf && c.Sur.OverflowEnabled():
				// As in finishWord, the free data cycle is still
				// accounted and offered before the word restarts.
				cause = isa.CauseOverflow
			case d.aluOp == isa.OpMovLo:
				c.Lo = lo
			default:
				c.Regs[d.aluDst] = v
				c.lastWrite[d.aluDst] = c.seq
			}
		case isa.PieceSetCond:
			a := c.leanOperand(d.a1, vpc)
			b := c.leanOperand(d.a2, vpc)
			var v uint32
			if d.aluCmp.Eval(a, b) {
				v = 1
			}
			c.Regs[d.aluDst] = v
			c.lastWrite[d.aluDst] = c.seq
		}
	case bcLoad:
		c.Stats.Pieces++
		addr := c.leanAddr(d, vpc)
		v, f := c.Bus.Read(addr, c.Mapped())
		if f != nil {
			c.Stats.DataCycles++
			return f.Cause
		}
		c.Stats.Loads++
		if c.onMem != nil {
			c.onMem(vpc, addr, false)
		}
		c.Stats.DataCycles++
		if d.flags&fEager != 0 {
			c.Regs[d.data] = v
			c.lastWrite[d.data] = c.seq
		} else {
			c.writeLoad(d.data, v)
		}
		return isa.CauseNone
	case bcStore:
		c.Stats.Pieces++
		addr := c.leanAddr(d, vpc)
		val := c.leanRead(d.data, vpc)
		if f := c.Bus.Write(addr, val, c.Mapped()); f != nil {
			c.Stats.DataCycles++
			return f.Cause
		}
		c.Stats.Stores++
		if c.onMem != nil {
			c.onMem(vpc, addr, true)
		}
		c.Stats.DataCycles++
		return isa.CauseNone
	}
	c.Stats.FreeCycles++
	c.Bus.offerFree(&c.Stats)
	return cause
}

// runBody executes a block's body words, the one body loop every
// environment shares. It reports false when the block bailed (fault,
// interrupt, halt, invalidation, remap, or an exact-executor word that
// redirected the queue) with the fetch queue already pointing at the
// resume address.
func (c *CPU) runBody(b *block, pc uint32, mapped bool, pmGen uint64) bool {
	bus := c.Bus
	// env is false in the quiet configuration: no DMA to offer cycles
	// to, no ticker to advance, unmapped, no memory hook, and no
	// interrupt pending. Nothing can then raise the line or remap
	// mid-body, so the per-word environmental work is dead; only stores
	// (which can hit a halt device, or start a disk transfer that
	// replaces this block's code) and exact-executor words can end the
	// body early.
	intOK := c.Sur.InterruptsEnabled() && !c.Sur.Supervisor()
	env := bus.DMA != nil || len(bus.tickers) > 0 || mapped || c.onMem != nil || c.intLine && intOK
	code := b.code
	for i := range code {
		vpc := pc + uint32(i)
		d := &code[i]
		c.seq++
		if c.pendN != 0 {
			c.commitLoads()
		}
		if env && c.intLine && intOK {
			c.pcq[0], c.pcn = vpc, 1
			c.exception(isa.CauseInterrupt, isa.CauseNone, 0)
			c.Trans.BlockBails++
			return false
		}
		if d.bclass == bcGeneral {
			// Packed words run through the exact executor with the
			// fetch queue set to what per-word stepping would hold:
			// the two sequential successors.
			c.pcq[0], c.pcq[1] = vpc+1, vpc+2
			c.pcn = 2
			c.execWord(d.src, vpc)
			bus.Tick()
			if c.Halted || c.pcn != 2 || c.pcq[0] != vpc+1 {
				// Halt device, memory fault, or trap: the queue
				// already points where execution must resume.
				c.Trans.BlockBails++
				return false
			}
		} else {
			if cause := c.leanWord(d, vpc); cause != isa.CauseNone {
				c.bailFault(vpc, cause)
				bus.Tick()
				return false
			}
			if !env && d.bclass != bcStore {
				continue
			}
			bus.Tick()
		}
		// A store hitting the halt device ends the block after its
		// word; a store to the disk's go register replaces a page of
		// code synchronously, which may drop this very block; and a
		// store or device tick may have remapped the address space.
		// All end it at an exact instruction boundary.
		if c.Halted || !b.valid || mapped && bus.MMU.Map.Generation() != pmGen {
			c.pcq[0], c.pcn = vpc+1, 1
			c.Trans.BlockBails++
			return false
		}
	}
	return true
}

// bailFault abandons the block at a faulting word: the word restarts at
// the head of the refilled fetch queue (return address zero), exactly
// as finishWord's fault path leaves it.
func (c *CPU) bailFault(vpc uint32, cause isa.Cause) {
	c.pcq[0], c.pcq[1], c.pcq[2] = vpc, vpc+1, vpc+2
	c.pcn = 3
	c.exception(cause, isa.CauseNone, 0)
	c.Trans.BlockBails++
}

// entryPA resolves an entry word as fetched to its instruction-memory
// word pa: through the fetch translation when mapped. ok is false when
// pc does not resolve to instruction memory, leaving the exact fault to
// the per-instruction path. The block table's slot for pa (blockIn)
// holds the block entered there and the compiled trace it carries. The
// unmapped resolution inlines; the mapped one is a call.
func (c *CPU) entryPA(pc uint32, mapped bool) (pa uint32, ok bool) {
	if mapped {
		return c.mappedEntryPA(pc)
	}
	return pc, pc < c.IMem.n
}

// mappedEntryPA is entryPA for a mapped entry word, kept out of line so
// that entryPA inlines.
//
//go:noinline
func (c *CPU) mappedEntryPA(pc uint32) (pa uint32, ok bool) {
	pa, f := c.Bus.MMU.Translate(pc, false, true)
	return pa, f == nil && pa < c.IMem.n
}

// useBlock returns the block the block engine runs at pa: b, the table's
// block there (a hit), or, when b is nil, the block missBlock supplies.
func (c *CPU) useBlock(b *block, pa uint32) *block {
	if b == nil {
		return c.missBlock(pa)
	}
	c.Trans.BlockHits++
	return b
}

// stepBlocks executes a chain of superblocks (body, terminator, and the
// terminator's delay slots) from b, the block entered at the head of
// the fetch queue, within left steps, which must exceed
// blockMaxWords.
func (c *CPU) stepBlocks(b *block, left uint64) {
	pc := c.pcq[0]
	mapped := c.Mapped()
	// An exception ends the chain, so until then a step is an
	// instruction: end bounds the chain in retired instructions.
	end := c.Stats.Instructions + left
	bus := c.Bus
	// With the trace tier live here, chained blocks feed the tier's
	// heat profile and yield to compiled traces: dispatch entry is the
	// only point the trace dispatcher sees, and a long chain would
	// otherwise starve it of both heat and dispatches (the chain's exit
	// PCs cycle around a loop instead of revisiting one entry).
	traceTier := c.engine == EngineTraces && !c.trec.active && c.traceable()
	var ctx mem.Context
	if traceTier {
		ctx = bus.MMU.Context(mapped)
	}

	// Chained blocks execute back to back while nothing needs the
	// dispatcher: the hot loop never leaves this frame. Chaining stops
	// at any block whose exit ran outside the lean classes (a special
	// could have changed privilege, overflow enable, or the address
	// map), at any exception, and at a block that does not fit the
	// steps left.
	for {
		b.execs++
		if c.trec.active {
			c.recTracePoint(b, pc)
		}
		var pmGen uint64
		if mapped {
			pmGen = c.Bus.MMU.Map.Generation()
		}
		exc0 := c.excSeq

		if !c.runBody(b, pc, mapped, pmGen) {
			return
		}

		// The terminator runs from its cached record when one was decoded
		// (skipping re-fetch: the body left the block valid),
		// then the delay slots of a taken transfer drain — from their
		// cached records while those stay coherent, else on the exact
		// engine — until the fetch queue is sequential again. The queue is
		// pre-filled so the terminator's pipeline refill is a no-op.
		t := pc + b.n
		c.pcq[0], c.pcq[1], c.pcq[2] = t, t+1, t+2
		c.pcn = 3
		if b.termless {
			return
		}
		// Chaining may continue only through exits proven lean: a
		// cached control-class terminator and cached lean delay slots.
		// A path recording may additionally look across an unprivileged
		// packed terminator (control piece sharing the word with
		// computation): the drain below still leaves the machine at an
		// exact boundary, the halt/exception/sequential checks still
		// gate the continuation, and trace validation decides whether
		// the packed word compiles. Without this the hottest loops the
		// reorganizer packs most aggressively could never record a
		// multi-block path.
		chainable := b.hasTerm && (b.term.bclass >= bcBranch ||
			(c.trec.active && b.term.bclass == bcGeneral && b.term.flags&fPriv == 0))
		if b.hasTerm {
			c.dsStep(&b.term)
		} else {
			c.step()
		}
		for k := 0; !c.Halted && !c.queueSequential() && k < pcqCap && c.Stats.Instructions < end; k++ {
			if j := c.pcq[0] - (t + 1); j < uint32(b.dsN) && b.valid &&
				(!mapped || bus.MMU.Map.Generation() == pmGen) {
				if b.ds[j].bclass == bcGeneral {
					chainable = false
				}
				c.dsStep(&b.ds[j])
			} else {
				chainable = false
				c.step()
			}
		}
		if !chainable || c.Halted || c.excSeq != exc0 || !c.queueSequential() {
			return
		}
		if c.trec.active && c.trec.n > traceMaxBlocks {
			// The recording buffer is full: chaining further retires
			// instructions the recording cannot use (formation truncates
			// at traceMaxBlocks anyway), charging the block tier for
			// nothing. End the recording chain at this exact boundary.
			return
		}
		// The next entry's table slot answers both questions: whether a
		// trace is ready there (the dispatcher runs it) and which block
		// to chain to. A block whose heat reaches the threshold here ends
		// the chain with its count left there, so the dispatcher's own
		// bump starts the recording at once.
		npc := c.pcq[0]
		pa, ok := c.entryPA(npc, mapped)
		if !ok {
			return
		}
		nb := c.blockIn(pa)
		hit := nb != nil
		if !hit {
			nb = c.missBlock(pa)
		}
		if traceTier && nb.traceFor(npc, &ctx) != nil {
			return
		}
		if c.trec.active && nb.pub != nil && (nb.tr == nil || nb.tr.adopted) && nb.pub.tr.Load() != nil {
			// A recording ends where another machine published a trace:
			// the trace formed here runs into that one instead of
			// copying its ops. The machine's own traces do not end it,
			// so the traces an image's publisher forms take the shapes
			// one machine's profile gives them.
			c.recTracePoint(nb, npc)
			return
		}
		if hit {
			c.Trans.BlockHits++
		}
		if traceTier && nb.heatBump() || c.Stats.Instructions+uint64(nb.n) >= end {
			return
		}
		c.Trans.BlockChained++
		b, pc = nb, npc
	}
}

// dsStep executes one word at the head of the fetch queue from a cached
// record: the full preamble and exact queue maintenance of step, minus
// the fetch (a code write drops the block before its records can go
// stale, and the caller checks the block is still valid). Nop,
// ALU, load and store records run through leanWord and control records
// inline; anything else goes through the exact executor.
func (c *CPU) dsStep(d *decoded) {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	c.fill()
	if c.intLine && c.Sur.InterruptsEnabled() && !c.Sur.Supervisor() {
		c.exception(isa.CauseInterrupt, isa.CauseNone, 0)
		return
	}
	if d.flags&fPriv != 0 && !c.Sur.Supervisor() {
		c.exception(isa.CausePrivilege, isa.CauseNone, 0)
		return
	}
	pc := c.popPC()
	switch d.bclass {
	case bcGeneral:
		c.execWord(d.src, pc)
	case bcNop, bcALU, bcLoad, bcStore:
		if cause := c.leanWord(d, pc); cause != isa.CauseNone {
			// The word restarts at the head of the queue, as
			// finishWord leaves a faulting word.
			c.pushPC(pc)
			c.exception(cause, isa.CauseNone, 0)
		}
	default:
		c.Stats.Instructions++
		c.Stats.Cycles++
		c.Stats.Pieces++
		c.Stats.Branches++
		switch d.bclass {
		case bcBranch:
			a := c.leanOperand(d.m1, pc)
			b := c.leanOperand(d.m2, pc)
			taken := d.memCmp.Eval(a, b)
			if taken {
				c.Stats.TakenBranches++
				c.scheduleBranch(d.target, isa.BranchDelay)
			}
			if c.onBranch != nil {
				c.onBranch(pc, d.target, taken)
			}
		case bcJump:
			c.Stats.TakenBranches++
			c.scheduleBranch(d.target, isa.BranchDelay)
			if c.onBranch != nil {
				c.onBranch(pc, d.target, true)
			}
		case bcCall:
			c.Stats.TakenBranches++
			c.scheduleBranch(d.target, isa.BranchDelay)
			if c.onBranch != nil {
				c.onBranch(pc, d.target, true)
			}
			// The link commit lands after the branch hook, as on the
			// staged path: the hook observes the pre-call register file.
			c.Regs[d.linkDst] = pc + 1 + isa.BranchDelay
			c.lastWrite[d.linkDst] = c.seq
		case bcJumpInd:
			c.Stats.TakenBranches++
			target := c.leanOperand(d.m1, pc)
			c.scheduleBranch(target, isa.IndirectJumpDelay)
			if c.onBranch != nil {
				c.onBranch(pc, target, true)
			}
		}
		c.Stats.FreeCycles++
		c.Bus.offerFree(&c.Stats)
	}
	c.Bus.Tick()
}
