package cpu

// The superblock execution engine. Step dispatches here when the fetch
// queue holds no in-flight branch target: the head of the queue is then
// a block entry point, and the whole straight-line run up to and
// including the next control transfer executes as one translated block
// (blockcache.go) — per-word fetch, queue maintenance, and pipeline
// bookkeeping replaced by a tight loop over flat records with the
// block's statically known cost. Delay slots and anything the lean
// paths cannot prove equivalent run on the exact per-instruction
// engine: the reference interpreter remains the oracle, and every
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

func (c *CPU) leanOperand(o fastOp, vpc uint32) uint32 {
	if o.imm {
		return o.val
	}
	return c.leanRead(o.reg, vpc)
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

// leanALU executes the compute and writeback of a word whose only work
// is a single ALU-class piece. It reports overflow instead of raising
// it (ovfOn is the entry-latched trap enable — only exceptions and
// special pieces change it, and both end a block), leaving the
// destination unwritten in that case exactly like the staged-commit
// path.
func (c *CPU) leanALU(d *decoded, vpc uint32, ovfOn bool) bool {
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
		if ovf && ovfOn {
			return true
		}
		if d.aluOp == isa.OpMovLo {
			c.Lo = lo
		} else {
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
	return false
}

// runPure executes a block whose body is nothing but nops and ALU
// words, with the bulk accounting precomputed at translation time. The
// caller has proved no step of the body can deviate: no loads are
// pending (so reads are side-effect free and nothing commits mid-run),
// no tickers or DMA exist (so no device can observe or perturb the
// run), the interrupt line is low, and overflow cannot trap.
func (c *CPU) runPure(b *block, n uint32) {
	for i := uint32(0); i < n; i++ {
		d := &b.code[i]
		c.seq++
		if d.bclass == bcNop {
			continue
		}
		switch d.aluKind {
		case isa.PieceALU:
			a := d.a1.val
			if !d.a1.imm {
				a = c.Regs[d.a1.reg]
			}
			var bv uint32
			if !d.aluUnary {
				bv = d.a2.val
				if !d.a2.imm {
					bv = c.Regs[d.a2.reg]
				}
			}
			var dstVal uint32
			if d.aluDstRead {
				dstVal = c.Regs[d.aluDst]
			}
			v, lo, _ := aluEval(d.aluOp, a, bv, dstVal, c.Lo)
			if d.aluOp == isa.OpMovLo {
				c.Lo = lo
			} else {
				c.Regs[d.aluDst] = v
				c.lastWrite[d.aluDst] = c.seq
			}
		case isa.PieceSetCond:
			a := d.a1.val
			if !d.a1.imm {
				a = c.Regs[d.a1.reg]
			}
			bv := d.a2.val
			if !d.a2.imm {
				bv = c.Regs[d.a2.reg]
			}
			var v uint32
			if d.aluCmp.Eval(a, bv) {
				v = 1
			}
			c.Regs[d.aluDst] = v
			c.lastWrite[d.aluDst] = c.seq
		}
	}
	// Bulk accounting from the translation-time cost: one cycle per
	// word, every data-memory cycle free (no DMA exists to claim them).
	c.Stats.Instructions += uint64(n)
	c.Stats.Cycles += uint64(n)
	c.Stats.Pieces += b.sPieces
	c.Stats.Nops += b.sNops
	c.Stats.FreeCycles += uint64(n)
}

// runQuiet executes a block body in the quiet configuration (no DMA,
// no tickers, unmapped, no memory hook, no interrupt pending): the
// per-word environmental checks of the general loop are provably dead,
// and with no tickers every Bus.Tick is a no-op and is omitted. It
// reports false when the block bailed (fault, halt, invalidation, or an
// exact-executor word that redirected the queue) with the fetch queue
// already pointing at the resume address.
func (c *CPU) runQuiet(b *block, pc uint32, ovfOn bool) bool {
	n := b.n
	for i := uint32(0); i < n; i++ {
		d := &b.code[i]
		c.seq++
		if c.pendN != 0 {
			c.commitLoads()
		}
		switch d.bclass {
		case bcNop:
			if k := uint64(d.nopRun); k > 1 && c.pendN == 0 {
				c.seq += k - 1
				c.Stats.Instructions += k
				c.Stats.Cycles += k
				c.Stats.Nops += k
				c.Stats.FreeCycles += k
				i += uint32(k) - 1
				continue
			}
			c.Stats.Instructions++
			c.Stats.Cycles++
			c.Stats.Nops++
			c.Stats.FreeCycles++
		case bcALU:
			c.Stats.Instructions++
			c.Stats.Cycles++
			c.Stats.FreeCycles++
			if c.leanALU(d, pc+i, ovfOn) {
				c.bailFault(pc+i, isa.CauseOverflow)
				return false
			}
		case bcLoad:
			c.Stats.Instructions++
			c.Stats.Cycles++
			c.Stats.Pieces++
			if d.mode == isa.AModeLongImm {
				c.Regs[d.data] = uint32(d.disp)
				c.lastWrite[d.data] = c.seq
				c.Stats.FreeCycles++
				break
			}
			addr := c.leanAddr(d, pc+i)
			v, f := c.Bus.Read(addr, false)
			if f != nil {
				c.Stats.DataCycles++
				c.bailFault(pc+i, f.Cause)
				return false
			}
			c.Stats.Loads++
			c.Stats.DataCycles++
			if d.flags&fEager != 0 {
				c.Regs[d.data] = v
				c.lastWrite[d.data] = c.seq
			} else {
				c.writeLoad(d.data, v)
			}
		case bcStore:
			c.Stats.Instructions++
			c.Stats.Cycles++
			c.Stats.Pieces++
			addr := c.leanAddr(d, pc+i)
			val := c.leanRead(d.data, pc+i)
			if f := c.Bus.Write(addr, val, false); f != nil {
				c.Stats.DataCycles++
				c.bailFault(pc+i, f.Cause)
				return false
			}
			c.Stats.Stores++
			c.Stats.DataCycles++
			if c.Halted {
				c.pcq[0], c.pcn = pc+i+1, 1
				c.Trans.BlockBails++
				return false
			}
			if !b.valid {
				c.pcq[0], c.pcn = pc+i+1, 1
				c.Trans.BlockBails++
				return false
			}
		default:
			vpc := pc + i
			c.pcq[0], c.pcq[1] = vpc+1, vpc+2
			c.pcn = 2
			c.execWord(d.src, vpc)
			if c.Halted || c.pcn != 2 || c.pcq[0] != vpc+1 {
				c.Trans.BlockBails++
				return false
			}
			if !b.valid {
				c.pcq[0], c.pcn = vpc+1, 1
				c.Trans.BlockBails++
				return false
			}
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
	doTick := len(bus.tickers) > 0
	dmaOn := bus.DMA != nil
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
		ovfOn := c.Sur.OverflowEnabled()
		n := b.n
		exc0 := c.excSeq

		if b.pure && n > 0 && c.pendN == 0 && !c.intLine &&
			!dmaOn && !doTick && !(ovfOn && b.hasOvf) {
			c.runPure(b, n)
		} else if n > 0 && !dmaOn && !doTick && !mapped && c.onMem == nil &&
			!(c.intLine && c.Sur.InterruptsEnabled() && !c.Sur.Supervisor()) {
			// Quiet configuration: no DMA to offer cycles to, no ticker
			// to advance, no mapping generation to track, no memory
			// hook, and no interrupt pending. Nothing can raise the
			// line or remap mid-body, so the per-word environmental
			// checks vanish; only stores (which can invalidate this
			// block or hit a halt device) and exact-executor words keep
			// their exit checks.
			if !c.runQuiet(b, pc, ovfOn) {
				return b, true
			}
		} else if n > 0 {
			intOK := c.Sur.InterruptsEnabled() && !c.Sur.Supervisor()
			for i := uint32(0); i < n; i++ {
				vpc := pc + i
				c.seq++
				if c.pendN != 0 {
					c.commitLoads()
				}
				if c.intLine && intOK {
					c.pcq[0], c.pcn = vpc, 1
					c.exception(isa.CauseInterrupt, isa.CauseNone, 0)
					c.Trans.BlockBails++
					return b, true
				}
				d := &b.code[i]
				switch d.bclass {
				case bcNop:
					// A run of nops retires in bulk when nothing can
					// observe the intermediate cycles: no DMA to offer
					// them to, no ticker to advance, no pending load
					// whose commit lands mid-run. Nops cannot fault,
					// write, or invalidate anything, and without
					// tickers no interrupt can rise inside the run.
					if k := uint64(d.nopRun); k > 1 && !dmaOn && !doTick &&
						c.pendN == 0 {
						c.seq += k - 1
						c.Stats.Instructions += k
						c.Stats.Cycles += k
						c.Stats.Nops += k
						c.Stats.FreeCycles += k
						i += uint32(k) - 1
						continue
					}
					c.Stats.Instructions++
					c.Stats.Cycles++
					c.Stats.Nops++
					c.Stats.FreeCycles++
					if dmaOn {
						bus.offerFree(&c.Stats)
					}
					if doTick {
						bus.Tick()
					}
				case bcALU:
					c.Stats.Instructions++
					c.Stats.Cycles++
					if c.leanALU(d, vpc, ovfOn) {
						// Mirror finishWord on the overflow path: the free
						// data cycle is accounted and offered first, then
						// the word restarts at the head of the saved queue.
						c.Stats.FreeCycles++
						if dmaOn {
							bus.offerFree(&c.Stats)
						}
						c.bailFault(vpc, isa.CauseOverflow)
						bus.Tick()
						return b, true
					}
					c.Stats.FreeCycles++
					if dmaOn {
						bus.offerFree(&c.Stats)
					}
					if doTick {
						bus.Tick()
					}
				case bcLoad:
					c.Stats.Instructions++
					c.Stats.Cycles++
					c.Stats.Pieces++
					if d.mode == isa.AModeLongImm {
						// The long immediate comes from the instruction
						// stream, not the data port: no data cycle and no
						// load delay.
						c.Regs[d.data] = uint32(d.disp)
						c.lastWrite[d.data] = c.seq
						c.Stats.FreeCycles++
						if dmaOn {
							bus.offerFree(&c.Stats)
						}
						if doTick {
							bus.Tick()
						}
						break
					}
					addr := c.leanAddr(d, vpc)
					v, f := bus.Read(addr, mapped)
					if f != nil {
						c.Stats.DataCycles++
						c.bailFault(vpc, f.Cause)
						bus.Tick()
						return b, true
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
					if doTick {
						bus.Tick()
					}
				case bcStore:
					c.Stats.Instructions++
					c.Stats.Cycles++
					c.Stats.Pieces++
					addr := c.leanAddr(d, vpc)
					val := c.leanRead(d.data, vpc)
					if f := bus.Write(addr, val, mapped); f != nil {
						c.Stats.DataCycles++
						c.bailFault(vpc, f.Cause)
						bus.Tick()
						return b, true
					}
					c.Stats.Stores++
					if c.onMem != nil {
						c.onMem(vpc, addr, true)
					}
					c.Stats.DataCycles++
					if doTick {
						bus.Tick()
					}
					if c.Halted {
						// The store hit the halt device; the word itself
						// completed.
						c.pcq[0], c.pcn = vpc+1, 1
						c.Trans.BlockBails++
						return b, true
					}
				default:
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
						return b, true
					}
				}
				// A store, DMA move, or device tick may have invalidated
				// this very block or remapped the address space; both end
				// the block at an exact instruction boundary.
				if !b.valid || (mapped && bus.MMU.Map.Generation() != pmGen) {
					c.pcq[0], c.pcn = vpc+1, 1
					c.Trans.BlockBails++
					return b, true
				}
			}
		}

		// The terminator runs from its cached record when one was decoded
		// (skipping re-fetch: its identity was validated with the body),
		// then the delay slots of a taken transfer drain — from their
		// cached records while those stay coherent, else on the exact
		// engine — until the fetch queue is sequential again. The queue is
		// pre-filled so the terminator's pipeline refill is a no-op.
		t := pc + n
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
			c.dsStep(&b.term, dmaOn, doTick, ovfOn)
		} else {
			c.step()
		}
		for k := 0; !c.Halted && !c.queueSequential() && k < pcqCap; k++ {
			if j := c.pcq[0] - (t + 1); j < uint32(b.dsN) && b.valid &&
				(!mapped || bus.MMU.Map.Generation() == pmGen) {
				if b.ds[j].bclass == bcGeneral {
					chainable = false
				}
				c.dsStep(&b.ds[j], dmaOn, doTick, ovfOn)
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
// at block entry and keeps it coherent through the write barrier). Lean
// classes run inline; anything else goes through the exact executor.
func (c *CPU) dsStep(d *decoded, dmaOn, doTick, ovfOn bool) {
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
	c.Stats.Instructions++
	c.Stats.Cycles++
	switch d.bclass {
	case bcNop:
		c.Stats.Nops++
		c.Stats.FreeCycles++
		if dmaOn {
			c.Bus.offerFree(&c.Stats)
		}
	case bcALU:
		if c.leanALU(d, pc, ovfOn) {
			c.Stats.FreeCycles++
			if dmaOn {
				c.Bus.offerFree(&c.Stats)
			}
			c.pushPC(pc)
			c.exception(isa.CauseOverflow, isa.CauseNone, 0)
			c.Bus.Tick()
			return
		}
		c.Stats.FreeCycles++
		if dmaOn {
			c.Bus.offerFree(&c.Stats)
		}
	case bcLoad:
		c.Stats.Pieces++
		if d.mode == isa.AModeLongImm {
			c.Regs[d.data] = uint32(d.disp)
			c.lastWrite[d.data] = c.seq
			c.Stats.FreeCycles++
			if dmaOn {
				c.Bus.offerFree(&c.Stats)
			}
			break
		}
		addr := c.leanAddr(d, pc)
		v, f := c.Bus.Read(addr, c.Mapped())
		if f != nil {
			c.Stats.DataCycles++
			c.pushPC(pc)
			c.exception(f.Cause, isa.CauseNone, 0)
			c.Bus.Tick()
			return
		}
		c.Stats.Loads++
		if c.onMem != nil {
			c.onMem(pc, addr, false)
		}
		c.Stats.DataCycles++
		c.writeLoad(d.data, v)
	case bcStore:
		c.Stats.Pieces++
		addr := c.leanAddr(d, pc)
		val := c.leanRead(d.data, pc)
		if f := c.Bus.Write(addr, val, c.Mapped()); f != nil {
			c.Stats.DataCycles++
			c.pushPC(pc)
			c.exception(f.Cause, isa.CauseNone, 0)
			c.Bus.Tick()
			return
		}
		c.Stats.Stores++
		if c.onMem != nil {
			c.onMem(pc, addr, true)
		}
		c.Stats.DataCycles++
	case bcBranch:
		c.Stats.Pieces++
		c.Stats.Branches++
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
		c.Stats.FreeCycles++
		if dmaOn {
			c.Bus.offerFree(&c.Stats)
		}
	case bcJump:
		c.Stats.Pieces++
		c.Stats.Branches++
		c.Stats.TakenBranches++
		c.scheduleBranch(d.target, isa.BranchDelay)
		if c.onBranch != nil {
			c.onBranch(pc, d.target, true)
		}
		c.Stats.FreeCycles++
		if dmaOn {
			c.Bus.offerFree(&c.Stats)
		}
	case bcCall:
		c.Stats.Pieces++
		c.Stats.Branches++
		c.Stats.TakenBranches++
		c.scheduleBranch(d.target, isa.BranchDelay)
		if c.onBranch != nil {
			c.onBranch(pc, d.target, true)
		}
		// The link commit lands after the branch hook, as on the
		// staged path: the hook observes the pre-call register file.
		c.Regs[d.linkDst] = pc + 1 + isa.BranchDelay
		c.lastWrite[d.linkDst] = c.seq
		c.Stats.FreeCycles++
		if dmaOn {
			c.Bus.offerFree(&c.Stats)
		}
	case bcJumpInd:
		c.Stats.Pieces++
		c.Stats.Branches++
		c.Stats.TakenBranches++
		target := c.leanOperand(d.m1, pc)
		c.scheduleBranch(target, isa.IndirectJumpDelay)
		if c.onBranch != nil {
			c.onBranch(pc, target, true)
		}
		c.Stats.FreeCycles++
		if dmaOn {
			c.Bus.offerFree(&c.Stats)
		}
	default:
		c.Stats.Instructions--
		c.Stats.Cycles--
		c.execWord(d.src, pc)
		c.Bus.Tick()
		return
	}
	if doTick {
		c.Bus.Tick()
	}
}
