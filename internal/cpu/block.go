package cpu

// The superblock execution engine. Step dispatches here when the fetch
// queue holds no in-flight branch target: the head of the queue is then
// a block entry point, and the whole straight-line run up to and
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

// recordChain notes that this block was followed by the block s at
// virtual entry vpc. Two edges cover the common shapes (a loop back
// edge plus a fall-through or exit); further successors churn the
// second slot so pathological indirect fan-out stays bounded.
func (lb *block) recordChain(vpc uint32, s *block) {
	for i := 0; i < lb.succN; i++ {
		if lb.succVPC[i] == vpc {
			lb.succ[i] = s
			return
		}
	}
	if lb.succN < len(lb.succ) {
		lb.succVPC[lb.succN] = vpc
		lb.succ[lb.succN] = s
		lb.succN++
		return
	}
	lb.succVPC[1] = vpc
	lb.succ[1] = s
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
		if d.mode == isa.AModeLongImm {
			// The long immediate comes from the instruction stream, not
			// the data port: no data cycle and no load delay.
			c.Regs[d.data] = uint32(d.disp)
			c.lastWrite[d.data] = c.seq
			break
		}
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
	// mid-body, so the per-word environmental work is dead and nop
	// runs retire in bulk; only stores (which can invalidate this
	// block or hit a halt device) and exact-executor words can end
	// the body early.
	intOK := c.Sur.InterruptsEnabled() && !c.Sur.Supervisor()
	env := bus.DMA != nil || len(bus.tickers) > 0 || mapped || c.onMem != nil || c.intLine && intOK
	n := b.n
	for i := uint32(0); i < n; i++ {
		vpc := pc + i
		d := &b.code[i]
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
		switch {
		case d.bclass == bcNop && !env && c.pendN == 0:
			// A run of nops (nopRun is set on every body nop) retires
			// in bulk: nops cannot fault, write, or invalidate
			// anything, and with no pending load nothing commits
			// mid-run.
			k := uint64(d.nopRun)
			c.seq += k - 1
			c.Stats.Instructions += k
			c.Stats.Cycles += k
			c.Stats.Nops += k
			c.Stats.FreeCycles += k
			i += uint32(k) - 1
			continue
		case d.bclass == bcGeneral:
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
		default:
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
		// word; a store, DMA move, or device tick may have
		// invalidated this very block or remapped the address space.
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

// stepBlocks executes one superblock (body, terminator, and the
// terminator's delay slots) starting at the head of the fetch queue.
// It returns false, with no architectural effect, if the entry cannot
// be resolved to instruction memory — the caller then takes the exact
// path, which raises the fetch fault with reference semantics.
func (c *CPU) stepBlocks() bool {
	b, ok := c.runBlocks()
	// The chain anchor is written once per Step, not once per chained
	// block: the hot chain loop alternating between two blocks would
	// otherwise emit a GC pointer-write barrier every iteration.
	if b != nil && c.lastBlk != b {
		c.lastBlk = b
	}
	return ok
}

// runBlocks resolves the entry block and executes the chain, returning
// the last block that ran so the caller can anchor the next Step's
// chain lookup on it.
func (c *CPU) runBlocks() (*block, bool) {
	pc := c.pcq[0]
	mapped := c.Mapped()
	prev := c.lastBlk

	// Resolve the entry to a block: through a chain edge when one
	// matches (mapping off only — a chained pointer bakes in a
	// virtual-to-physical identity), else through the cache.
	var b *block
	if prev != nil && !mapped {
		for i := 0; i < prev.succN; i++ {
			if prev.succVPC[i] == pc {
				if s := prev.succ[i]; s.valid && s.pa == pc {
					b = s
					c.Trans.BlockChained++
				}
				break
			}
		}
	}
	if b == nil {
		pa := pc
		if mapped {
			p, f := c.Bus.MMU.Translate(pc, false, true)
			if f != nil {
				return nil, false
			}
			pa = p
		}
		if pa >= c.IMem.n {
			return nil, false
		}
		if cached := *c.blockSlot(pa); cached != nil && cached.valid && cached.pa == pa {
			b = cached
			c.Trans.BlockHits++
		} else {
			b = c.translateBlock(pa)
		}
		// Per-word identity validation against live instruction
		// memory, the same rule a per-instruction fetch obeys by
		// reading it. The write barrier already catches
		// physical-memory writers; this catches direct IMem rewriting
		// (harnesses, image loaders). Chain-followed entries skip it:
		// a chain edge is only followed while the barrier holds the
		// target valid, and every chain is entered through a validated
		// cache lookup first.
		if !c.blockCurrent(b) {
			b = c.translateBlock(b.pa)
		}
		if prev != nil && prev.valid && !mapped {
			prev.recordChain(pc, b)
		}
	}
	bus := c.Bus
	// With the trace tier live here, chained entries feed the tier's
	// heat profile and yield to compiled traces: Step entry is the only
	// point the trace dispatcher sees, and a 64-deep chain would
	// otherwise starve it of both heat and dispatches (the chain's exit
	// PCs cycle around a loop instead of revisiting one entry).
	traceTier := c.engine == EngineTraces && !c.trec.active && c.traceable()
	var ctx mem.Context
	if traceTier {
		ctx = bus.MMU.Context(mapped)
	}

	// Chained blocks execute back to back inside one Step while nothing
	// needs the per-step dispatch: the hot loop never leaves this
	// frame. Chaining stops at any block whose exit ran outside the
	// lean classes (a special could have changed privilege, overflow
	// enable, or the address map), at any exception, and at a bounded
	// follow count so Run's step budget keeps teeth.
	for follow := 0; ; follow++ {
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
			return b, true
		}

		// The terminator runs from its cached record when one was decoded
		// (skipping re-fetch: its identity was validated with the body),
		// then the delay slots of a taken transfer drain — from their
		// cached records while those stay coherent, else on the exact
		// engine — until the fetch queue is sequential again. The queue is
		// pre-filled so the terminator's pipeline refill is a no-op.
		t := pc + b.n
		c.pcq[0], c.pcq[1], c.pcq[2] = t, t+1, t+2
		c.pcn = 3
		if b.termless {
			return b, true
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
		for k := 0; !c.Halted && !c.queueSequential() && k < pcqCap; k++ {
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
		if !chainable || c.Halted || c.excSeq != exc0 ||
			follow >= c.chainFollow || !c.queueSequential() {
			return b, true
		}
		if c.trec.active && c.trec.n > traceMaxBlocks {
			// The recording buffer is full: chaining further retires
			// instructions the recording cannot use (formation truncates
			// at traceMaxBlocks anyway), charging the block tier for
			// nothing. End the recording Step at this exact boundary.
			return b, true
		}
		npc := c.pcq[0]
		if traceTier && c.traceYield(npc, &ctx) {
			return b, true
		}
		var nb *block
		for i := 0; i < b.succN; i++ {
			if b.succVPC[i] == npc {
				if s := b.succ[i]; s.valid && s.pa == npc {
					nb = s
					c.Trans.BlockChained++
				}
				break
			}
		}
		if nb == nil && c.trec.active && c.traceable() {
			// A recording must capture the whole hot path, but chain
			// edges toward trace-covered entries are never built (trace
			// dispatch intercepts those entries before the block engine
			// sees them), and mapped code keeps no edges at all. Resolve
			// through the cache exactly as dispatch entry does, fetch
			// translation included — translation cost is formation-time,
			// paid once.
			nb = c.recordSuccessor(b, npc, mapped)
		}
		if nb == nil {
			return b, true
		}
		b, pc = nb, npc
	}
}

// recordSuccessor resolves a recording's next block at npc the way
// runBlocks resolves its entry: translated when mapped (the same fetch
// translation the next Step's entry would make), then through the block
// cache. It returns nil when npc does not resolve, leaving the exact
// fault to the next Step. Unmapped successors also become chain edges;
// mapped ones cannot, since an edge bakes in the address identity.
func (c *CPU) recordSuccessor(b *block, npc uint32, mapped bool) *block {
	pa := npc
	if mapped {
		p, f := c.Bus.MMU.Translate(npc, false, true)
		if f != nil {
			return nil
		}
		pa = p
	}
	if pa >= c.IMem.n {
		return nil
	}
	var nb *block
	if cached := *c.blockSlot(pa); cached != nil && cached.valid && cached.pa == pa {
		nb = cached
		c.Trans.BlockHits++
	} else {
		nb = c.translateBlock(pa)
	}
	if !c.blockCurrent(nb) {
		nb = c.translateBlock(nb.pa)
	}
	if b.valid && !mapped {
		b.recordChain(npc, nb)
	}
	return nb
}

// blockCurrent reports whether every word a block caches — body,
// terminator, delay slots — still matches live instruction memory.
func (c *CPU) blockCurrent(b *block) bool {
	for i := uint32(0); i < b.n; i++ {
		if c.IMem.At(b.pa+i) != b.code[i].src {
			return false
		}
	}
	if b.hasTerm {
		if c.IMem.At(b.pa+b.n) != b.term.src {
			return false
		}
		for j := uint32(0); j < uint32(b.dsN); j++ {
			if c.IMem.At(b.pa+b.n+1+j) != b.ds[j].src {
				return false
			}
		}
	} else if b.n == 0 && c.IMem.At(b.pa) != b.entrySrc {
		return false
	}
	return true
}

// dsStep executes one word at the head of the fetch queue from a cached
// record: the full Step preamble and exact queue maintenance of
// step, minus the fetch (the caller validated the record's identity
// at block entry and keeps it coherent through the write barrier). Nop,
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
