package cpu

// Trace compilation and dispatch: the execution half of the trace JIT
// tier. A validated flat path (trace_form.go) compiles to one contiguous
// array of op records — threaded code, one record per instruction word —
// each naming a static handler chosen at compile time for the word's
// class and operand shape. Dispatch runs the array with no per-word
// fetch, no queue maintenance, no environmental checks, and no
// statistics updates: a clean pass bulk-adds the precomputed cost of the
// whole trace.
//
// A pending load is a run-time test, not a handler: every handler that
// can meet one commits it when c.pendN != 0 and reads through the
// audited leanRead, which with nothing pending is a register-file load.
// Formation marks each position a pending load can reach (trace_form.go);
// only unmarked positions take the check-free specializations (trAdd,
// trSub, trMov, trLoadDisp, trStoreDisp).
//
// Every check a handler would repeat per word is hoisted to dispatch
// entry, where stepTraces has already discharged it: no DMA engine
// exists, a matching translation context (the trace's key) stands in
// for every fetch translation, the tickers' horizon covers the whole
// trace so none can raise the interrupt line mid-trace, privilege,
// overflow enable and the page map can only change through words a
// trace refuses to contain or device references it exits before. No
// store inside a trace can change code: stores reach data memory only,
// and the one store that rewrites instruction memory (the kernel disk's
// go register) is a device reference. Every memory handler reads and
// writes physical memory directly: under a mapped context it first
// translates the reference and exits before one a device claims, and an
// unmapped trace runs only on a deviceless bus (traceable), where the
// address is physical.
//
// Exits are exact. Each record carries the statistics prefix of the
// words before it, and the precise fetch-queue image for each way it
// can leave: the fault-restart queue an exception saves as return
// addresses and the redirect queues of a mispredicted branch direction
// or indirect-jump target. An exiting handler accounts the prefix plus its own word's
// partial contribution. A trace therefore abandons execution at an
// exact instruction boundary with the machine indistinguishable from
// the block engine having run the same prefix — the tier-bail ladder
// (trace -> superblock -> per-instruction stepping) never shows through
// architecturally.

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

// Per-class happy-path cost of one word, identical to what execWord
// accounts for the same word.
var (
	wcNop    = wordCost{instr: 1, nops: 1}.pack()
	wcALU    = wordCost{instr: 1, pieces: 1}.pack()
	wcLoad   = wordCost{instr: 1, pieces: 1, loads: 1, data: 1}.pack()
	wcStore  = wordCost{instr: 1, pieces: 1, stores: 1, data: 1}.pack()
	wcBranch = wordCost{instr: 1, pieces: 1, branches: 1}.pack()
	wcTaken  = wordCost{instr: 1, pieces: 1, branches: 1, taken: 1}.pack()
	// A faulting memory word accounts its data cycle but not the
	// load/store completion count, exactly like finishWord's fault path.
	wcMemFault = wordCost{instr: 1, pieces: 1, data: 1}.pack()

	// Packed words carry two active pieces; otherwise the same shapes.
	wcPackedLoad     = wordCost{instr: 1, pieces: 2, loads: 1, data: 1}.pack()
	wcPackedStore    = wordCost{instr: 1, pieces: 2, stores: 1, data: 1}.pack()
	wcPackedTaken    = wordCost{instr: 1, pieces: 2, branches: 1, taken: 1}.pack()
	wcPackedMemFault = wordCost{instr: 1, pieces: 2, data: 1}.pack()
)

// rdOp reads a predecoded operand for a check-free specialization: no
// load can be pending at its position, so the register file is current.
func rdOp(c *CPU, o fastOp) uint32 {
	if o.imm {
		return o.val
	}
	return c.Regs[o.reg]
}

// leanRead reads a register for a handler that may run with a load
// pending. With none the read has no architectural side effects (the
// hazard auditor only ever fires against a pending load), so it
// collapses to a register-file load; otherwise it defers to readReg for
// exact audit behavior.
func (c *CPU) leanRead(r isa.Reg, vpc uint32) uint32 {
	if c.pendN != 0 {
		return c.readReg(r, vpc)
	}
	return c.Regs[r]
}

// leanOperand is leanRead for a predecoded operand. It repeats
// leanRead's test rather than calling it, which keeps it within the
// inliner's budget: it runs for every register operand of a handler
// that may meet a pending load.
func (c *CPU) leanOperand(o fastOp, vpc uint32) uint32 {
	if o.imm {
		return o.val
	}
	if c.pendN == 0 {
		return c.Regs[o.reg]
	}
	return c.readReg(o.reg, vpc)
}

// charge accounts an early exit at in: the prefix of the ops before it
// plus w, the exiting word's own contribution.
func (c *CPU) charge(in *traceInst, w traceCost) {
	in.pre.plus(w).add(&c.Stats)
}

// deoptDevice is the exit reason of a mapped reference a device claims.
// It lies outside the guard-exit partition: runTrace counts it as an
// environment deopt.
const deoptDevice = NumDeoptReasons

// traceFault abandons the trace at a faulting word: the word restarts
// at the head of the restored fetch queue (return address zero),
// exactly as finishWord's fault path leaves it. The caller has already
// accounted the executed prefix. Only a packed word whose ALU piece overflowed while
// its memory piece also faulted has a secondary cause (overflow
// primary, the memory fault secondary).
func (c *CPU) traceFault(q [3]uint32, primary, secondary isa.Cause) {
	c.deopt = DeoptFault
	c.pcq[0], c.pcq[1], c.pcq[2] = q[0], q[1], q[2]
	c.pcn = 3
	c.exception(primary, secondary, 0)
}

// runTrace executes a compiled trace from its entry, then chains
// trace-to-trace through the block table (a loop trace chains to itself)
// while each trace entered fits the steps left of the run. A guard exit
// that raised no exception and left the fetch queue sequential (a
// branch recorded taken that fell through) chains too. One that left
// delay slots in flight ends the chain: dispatch steps them on the
// exact executor, and the queue they leave is then sequential, often at
// the entry of the trace covering the path execution actually took. The
// dispatch guards hold for the whole chain: nothing inside a trace can
// change the translation context ctx or what stepTraces checked
// (privilege, overflow enable and the page map only change through
// words a trace refuses to contain or through devices, whose references
// exit before the access), so the TLB, synced here, serves the mapped
// handlers' probes. The tickers are advanced only afterwards, so each
// trace entered must fit what is left of their horizon and of the run's
// steps (until the exception that ends the chain, each step is an
// instruction).
func (c *CPU) runTrace(tr *trace, ctx *mem.Context, horizon, left uint64) {
	c.trOvfOn, c.trMapped = c.Sur.OverflowEnabled(), ctx.Mapped
	if ctx.Mapped {
		c.Bus.MMU.SyncTLB()
	}
	exc0 := c.excSeq
	i0 := c.Stats.Instructions
	end := i0 + min(horizon, left)
	for {
		c.Trans.TraceDispatchHits++
		tr.hits++
		if !tr.warm {
			tr.warm = true
			if c.onJIT != nil {
				c.emitJIT(JITEvent{Kind: JITDispatchCold, PC: tr.pc, Len: uint32(len(tr.ins))})
			}
		}
		ins := tr.ins
		clean := true
		xi := 0
		t0 := c.Stats.Instructions
		for i := range ins {
			in := &ins[i]
			if !in.fn(c, in) {
				clean, xi = false, i
				break
			}
		}
		if clean {
			tr.cost.add(&c.Stats)
			c.pcq[0], c.pcn = tr.endPC, 1
		}
		tr.instrs += c.Stats.Instructions - t0
		if !clean {
			// The handler set c.deopt immediately before returning
			// false. A device reference left the word to the lower
			// tiers: that is the environment, not a guard. Every other
			// exit counts one guard exit by reason.
			r := c.deopt
			if r == deoptDevice {
				c.Trans.TraceDeoptEnvironment++
				return
			}
			c.Trans.TraceGuardExits++
			c.Trans.TraceDeopts[r]++
			tr.deopts[r]++
			if c.onJIT != nil {
				c.emitJIT(JITEvent{Kind: JITGuardExit, Reason: uint8(r), PC: tr.pc, Len: uint32(xi)})
			}
			if c.excSeq != exc0 || !c.queueSequential() {
				return
			}
		}
		pa, ok := c.entryPA(c.pcq[0], ctx.Mapped)
		if !ok {
			return
		}
		nt := c.blockIn(pa).traceFor(c.pcq[0], ctx)
		if nt == nil {
			return
		}
		if w := uint64(len(nt.ins)); c.Stats.Instructions+w > end {
			c.standDown(w, horizon-(c.Stats.Instructions-i0))
			return
		}
		tr = nt
	}
}

// standDown counts a ready trace of w words too long to enter: lost trace
// time, not a guard failure. The bound was a ticker's when its horizon
// is shorter, else the run's budget.
func (c *CPU) standDown(w, horizon uint64) {
	if w > horizon {
		c.Trans.TraceDeoptEnvironment++
	} else {
		c.Trans.TraceDeoptChainBudget++
	}
}

// compileTrace builds the op record array for a flattened path, one
// record per word. It is total over validated words: formation already
// refused everything the handlers cannot specialize, so a nil return
// means an internal inconsistency and the path is simply not installed.
// Compilation makes a constant number of allocations whatever the
// trace's length, and every op keeps its operands itself: a trace holds
// no pointer into the blocks it was formed from. Under a mapped ctx,
// memory words take the handlers that translate (no check-free
// specialization does).
func (c *CPU) compileTrace(words []traceWord, ctx *mem.Context, entry, endPC uint32, spans []traceSpan) *trace {
	if len(words) == 0 {
		return nil
	}
	// The machine's trace and its code are one allocation; a published
	// code keeps the small record of the machine that formed it alive.
	f := new(struct {
		trace
		code traceCode
	})
	f.code = traceCode{pc: entry, ctx: *ctx, endPC: endPC, spans: spans, ins: make([]traceInst, len(words))}
	f.traceCode = &f.code
	tr := &f.trace
	mapped := ctx.Mapped
	var pre traceCost
	for i := range words {
		w := &words[i]
		in := &tr.ins[i]
		in.vpc, in.pre = w.vpc, pre
		in.target, in.flags = w.x, w.shape
		var happy traceCost
		switch w.d.bclass {
		case bcNop:
			in.fn, happy = trNop, wcNop
		case bcGeneral:
			// Formation admits only the packed shapes the ISA encodes
			// (packedShape).
			d := w.d
			aluFields(in, d)
			in.data, in.base, in.imm = d.data, d.base, uint32(d.disp)
			switch d.memKind {
			case isa.PieceLoad:
				in.fn, happy = trPackedMem, wcPackedLoad
			case isa.PieceStore:
				in.fn, happy = trPackedMem, wcPackedStore
				in.flags |= tfStore
			case isa.PieceJump:
				in.fn, in.target, happy = trPackedJump, d.target, wcPackedTaken
			default:
				return nil
			}
		case bcALU:
			happy = compileALU(in, w)
		case bcLoad, bcStore:
			happy = compileMem(in, w, mapped)
		case bcBranch:
			in.a, in.b, in.cmp, in.target = w.d.m1, w.d.m2, w.d.memCmp, w.d.target
			in.fn, happy = trBranch, wcBranch
			if w.taken {
				in.flags |= tfTaken
				happy = wcTaken
			}
		case bcJump:
			in.fn, in.target, happy = trJump, w.d.target, wcTaken
		case bcCall:
			in.fn, in.target, in.dst, happy = trCall, w.d.target, w.d.linkDst, wcTaken
		case bcJumpInd:
			in.fn, in.a, happy = trJumpInd, w.d.m1, wcTaken
		default:
			return nil
		}
		pre = pre.plus(happy)
	}
	tr.cost = pre
	return tr
}

// compileALU picks the handler of a single-ALU-piece word. Positions a
// pending load cannot reach specialize the dominant ops; every other
// word takes the generic handler of its kind.
func compileALU(in *traceInst, w *traceWord) traceCost {
	d := w.d
	aluFields(in, d)
	switch {
	case d.aluKind == isa.PieceSetCond:
		in.fn = trSetCond
	case w.hazard:
		in.fn = trALU
	case d.aluOp == isa.OpMov:
		in.fn = trMov
	case d.aluOp == isa.OpAdd:
		in.fn = trAdd
	case d.aluOp == isa.OpSub:
		in.fn = trSub
	default:
		in.fn = trALU
	}
	return wcALU
}

// aluFields copies a word's computation piece into in.
func aluFields(in *traceInst, d *decoded) {
	in.a, in.b, in.dst, in.op, in.cmp = d.a1, d.a2, d.aluDst, d.aluOp, d.aluCmp
	in.flags |= flagIf(d.aluUnary, tfUnary) | flagIf(d.aluDstRead, tfDstRead) |
		flagIf(d.aluKind == isa.PieceSetCond, tfSetCond)
}

// compileMem picks the handler of a load or store word: a displacement
// reference in an unmapped trace, at a position a pending load cannot
// reach, takes the check-free specialization; every other takes trLoad
// or trStore.
func compileMem(in *traceInst, w *traceWord, mapped bool) traceCost {
	d := w.d
	in.data, in.base, in.index, in.shift = d.data, d.base, d.index, d.shift
	in.mode, in.imm = d.mode, uint32(d.disp)
	in.flags |= flagIf(w.eager, tfEager)
	lean := !mapped && !w.hazard && d.mode == isa.AModeDisp
	if d.bclass == bcStore {
		in.fn = trStore
		if lean {
			in.fn = trStoreDisp
		}
		return wcStore
	}
	in.fn = trLoad
	if lean {
		in.fn = trLoadDisp
	}
	return wcLoad
}

// trNop runs a nop word: it only commits a load that falls due.
func trNop(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	return true
}

// packedALU evaluates the computation piece of a packed word: operand
// reads in the exact executor's order, overflow latched against the
// dispatch-latched trap enable. It returns the value to commit to the
// ALU destination and whether an enabled overflow occurred; the caller
// owns commit order and the overflow exit.
func (c *CPU) packedALU(in *traceInst) (v uint32, ovf bool) {
	vpc := in.vpc
	a := c.leanOperand(in.a, vpc)
	var b uint32
	if in.flags&tfSetCond != 0 {
		if in.cmp.Eval(a, c.leanOperand(in.b, vpc)) {
			v = 1
		}
		return v, false
	}
	if in.flags&tfUnary == 0 {
		b = c.leanOperand(in.b, vpc)
	}
	var dstVal uint32
	if in.flags&tfDstRead != 0 {
		dstVal = c.leanRead(in.dst, vpc)
	}
	v, _, o := aluEval(in.op, a, b, dstVal, c.Lo)
	return v, o && c.trOvfOn
}

// The packed handlers run the three packed shapes the ISA encodes
// (isa.CanPack) — an ALU or set-condition piece sharing its word with a
// displacement load, a displacement store, or a direct jump — as one
// specialized op instead of routing through the exact executor.
// Semantics mirror execWord + finishWord exactly: operand reads before
// address reads, the memory piece executing even when the ALU piece
// overflowed (a store commits to memory, a load counts, and only the
// register writes are suppressed), overflow primary over a memory fault,
// and the staged commit order (ALU write, then the load's delayed
// write). Position exactness comes from the flattened queues, so packed
// words compile anywhere in a trace — body, delay slot, terminator.

// trPackedMem runs a packed ALU + load or store word, in mapped and
// unmapped traces alike. It computes the address straight from the
// register file and, in a mapped trace, translates it before any
// audited read, so a reference a device claims exits with nothing of
// the word done (an unmapped trace runs only on a deviceless bus, so its
// addresses are physical). The base and data reads repeat through the
// audited path after the ALU piece's operands, in the executor's order.
func trPackedMem(c *CPU, in *traceInst) bool {
	vpc := in.vpc
	store := in.flags&tfStore != 0
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	addr := c.Regs[in.base] + in.imm
	pa := addr
	var f *mem.Fault
	if c.trMapped {
		var dev bool
		if pa, dev, f = c.Bus.translateUser(addr, store); dev {
			return c.deviceExit(in)
		}
	}
	aluV, ovf := c.packedALU(in)
	c.leanRead(in.base, vpc)
	var v uint32
	if store {
		val := c.Regs[in.data]
		c.leanRead(in.data, vpc)
		if f == nil {
			f = c.Bus.MMU.Phys.Write(pa, val)
		}
	} else if f == nil {
		v, f = c.Bus.MMU.Phys.Read(pa)
	}
	if f != nil {
		c.charge(in, wcPackedMemFault)
		if ovf {
			c.traceFault(in.faultQueue(), isa.CauseOverflow, f.Cause)
		} else {
			c.traceFault(in.faultQueue(), f.Cause, isa.CauseNone)
		}
		return false
	}
	if c.onMem != nil {
		c.onMem(vpc, addr, store)
	}
	if ovf {
		// The reference completed and counts; only the register writes
		// are suppressed, and the word restarts through the exception.
		w := wcPackedLoad
		if store {
			w = wcPackedStore
		}
		c.charge(in, w)
		c.traceFault(in.faultQueue(), isa.CauseOverflow, isa.CauseNone)
		return false
	}
	c.Regs[in.dst] = aluV
	c.lastWrite[in.dst] = c.seq
	if !store {
		c.writeLoad(in.data, v)
	}
	return true
}

// trPackedJump runs a packed ALU + direct jump terminator: always taken,
// so the only exit is overflow. The word is accounted with its jump,
// then restarts through the exact fault queue its redirect leaves.
func trPackedJump(c *CPU, in *traceInst) bool {
	vpc := in.vpc
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	aluV, ovf := c.packedALU(in)
	if c.onBranch != nil {
		c.onBranch(vpc, in.target, true)
	}
	if ovf {
		c.charge(in, wcPackedTaken)
		c.traceFault([3]uint32{vpc, vpc + 1, in.target}, isa.CauseOverflow, isa.CauseNone)
		return false
	}
	c.Regs[in.dst] = aluV
	c.lastWrite[in.dst] = c.seq
	return true
}

// The single-ALU-piece handlers. The overflow-capable ops check the
// dispatch-latched trap enable and exit through the exact fault path,
// accounting the full word; everything else is pure compute and
// writeback.

// trSetCond runs a set-condition word.
func trSetCond(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	var v uint32
	if in.cmp.Eval(c.leanOperand(in.a, in.vpc), c.leanOperand(in.b, in.vpc)) {
		v = 1
	}
	c.Regs[in.dst] = v
	c.lastWrite[in.dst] = c.seq
	return true
}

func trAdd(c *CPU, in *traceInst) bool {
	c.seq++
	a, b := rdOp(c, in.a), rdOp(c, in.b)
	v := a + b
	if c.trOvfOn && addOverflows(a, b, v) {
		c.charge(in, wcALU)
		c.traceFault(in.faultQueue(), isa.CauseOverflow, isa.CauseNone)
		return false
	}
	c.Regs[in.dst] = v
	c.lastWrite[in.dst] = c.seq
	return true
}

func trSub(c *CPU, in *traceInst) bool {
	c.seq++
	a, b := rdOp(c, in.a), rdOp(c, in.b)
	v := a - b
	if c.trOvfOn && subOverflows(a, b, v) {
		c.charge(in, wcALU)
		c.traceFault(in.faultQueue(), isa.CauseOverflow, isa.CauseNone)
		return false
	}
	c.Regs[in.dst] = v
	c.lastWrite[in.dst] = c.seq
	return true
}

func trMov(c *CPU, in *traceInst) bool {
	c.seq++
	c.Regs[in.dst] = rdOp(c, in.a)
	c.lastWrite[in.dst] = c.seq
	return true
}

// trALU runs any ALU word through the shared evaluator.
func trALU(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	a := c.leanOperand(in.a, in.vpc)
	var b uint32
	if in.flags&tfUnary == 0 {
		b = c.leanOperand(in.b, in.vpc)
	}
	var dstVal uint32
	if in.flags&tfDstRead != 0 {
		dstVal = c.leanRead(in.dst, in.vpc)
	}
	v, lo, ovf := aluEval(in.op, a, b, dstVal, c.Lo)
	if ovf && c.trOvfOn {
		c.charge(in, wcALU)
		c.traceFault(in.faultQueue(), isa.CauseOverflow, isa.CauseNone)
		return false
	}
	if in.op == isa.OpMovLo {
		c.Lo = lo
		return true
	}
	c.Regs[in.dst] = v
	c.lastWrite[in.dst] = c.seq
	return true
}

// The memory handlers compute the effective address straight from the
// register file. In a mapped trace they translate it through the MMU
// (its TLB first), the fault latched exactly as the bus latches one; a
// physical address a device claims exits before the access, with nothing
// of the word done, so the lower tiers run the device reference — and
// tick for it — exactly. Only then does a pending load's audited read
// repeat the register reads, in the executor's order. A load fires the
// memory hook and commits eagerly when the flattened successor proves
// the delay window unobservable, else through the exact delayed-commit
// machinery.

// traceAddr computes a load/store effective address from the register
// file, with no hazard audit.
func (c *CPU) traceAddr(in *traceInst) uint32 {
	switch in.mode {
	case isa.AModeAbs:
		return in.imm
	case isa.AModeDisp:
		return c.Regs[in.base] + in.imm
	case isa.AModeIndex:
		return c.Regs[in.base] + c.Regs[in.index]
	}
	return c.Regs[in.base] + c.Regs[in.index]>>in.shift
}

// auditAddr repeats an effective address's register reads through the
// hazard-audited path, in effectiveAddr's order. Callers run it only
// with a load pending.
func (c *CPU) auditAddr(in *traceInst) {
	switch in.mode {
	case isa.AModeDisp:
		c.readReg(in.base, in.vpc)
	case isa.AModeIndex, isa.AModeShift:
		c.readReg(in.base, in.vpc)
		c.readReg(in.index, in.vpc)
	}
}

// deviceExit leaves a mapped trace before a device reference at in. The
// word has not started: the sequence counter steps back and the fetch
// queue holds the word's restart image. Pending-load commits it drained
// were due at this word either way, so the replay finds the same
// register file.
func (c *CPU) deviceExit(in *traceInst) bool {
	c.seq--
	c.deopt = deoptDevice
	in.pre.add(&c.Stats)
	q := in.faultQueue()
	c.pcq[0], c.pcq[1], c.pcq[2] = q[0], q[1], q[2]
	c.pcn = 3
	return false
}

// trLoad runs a load of any addressing mode.
func trLoad(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	addr := c.traceAddr(in)
	pa := addr
	var f *mem.Fault
	if c.trMapped {
		var dev bool
		if pa, dev, f = c.Bus.translateUser(addr, false); dev {
			return c.deviceExit(in)
		}
	}
	if c.pendN != 0 {
		c.auditAddr(in)
	}
	var v uint32
	if f == nil {
		v, f = c.Bus.MMU.Phys.Read(pa)
	}
	if f != nil {
		c.charge(in, wcMemFault)
		c.traceFault(in.faultQueue(), f.Cause, isa.CauseNone)
		return false
	}
	return c.loadDone(in, addr, v)
}

// trLoadDisp runs a base+displacement load in an unmapped trace, at a
// position a pending load cannot reach.
func trLoadDisp(c *CPU, in *traceInst) bool {
	c.seq++
	addr := c.Regs[in.base] + in.imm
	v, f := c.Bus.MMU.Phys.Read(addr)
	if f != nil {
		c.charge(in, wcMemFault)
		c.traceFault(in.faultQueue(), f.Cause, isa.CauseNone)
		return false
	}
	return c.loadDone(in, addr, v)
}

// loadDone finishes a completed load: it runs the memory hook and
// writes the destination, at once or after the load delay.
func (c *CPU) loadDone(in *traceInst, addr, v uint32) bool {
	if c.onMem != nil {
		c.onMem(in.vpc, addr, false)
	}
	if in.flags&tfEager != 0 {
		c.Regs[in.data] = v
		c.lastWrite[in.data] = c.seq
	} else {
		c.writeLoad(in.data, v)
	}
	return true
}

// trStore runs a store of any addressing mode.
func trStore(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	addr := c.traceAddr(in)
	pa := addr
	var f *mem.Fault
	if c.trMapped {
		var dev bool
		if pa, dev, f = c.Bus.translateUser(addr, true); dev {
			return c.deviceExit(in)
		}
	}
	val := c.Regs[in.data]
	if c.pendN != 0 {
		c.auditAddr(in)
		c.readReg(in.data, in.vpc)
	}
	if f == nil {
		f = c.Bus.MMU.Phys.Write(pa, val)
	}
	if f != nil {
		c.charge(in, wcMemFault)
		c.traceFault(in.faultQueue(), f.Cause, isa.CauseNone)
		return false
	}
	return c.storeDone(in, addr)
}

// trStoreDisp runs a base+displacement store in an unmapped trace, at a
// position a pending load cannot reach.
func trStoreDisp(c *CPU, in *traceInst) bool {
	c.seq++
	addr := c.Regs[in.base] + in.imm
	if f := c.Bus.MMU.Phys.Write(addr, c.Regs[in.data]); f != nil {
		c.charge(in, wcMemFault)
		c.traceFault(in.faultQueue(), f.Cause, isa.CauseNone)
		return false
	}
	return c.storeDone(in, addr)
}

// storeDone finishes a completed store: it runs the memory hook and
// continues the trace.
func (c *CPU) storeDone(in *traceInst, addr uint32) bool {
	if c.onMem != nil {
		c.onMem(in.vpc, addr, true)
	}
	return true
}

// The control handlers. A conditional branch carries its recorded
// direction as the guard: the actual condition is evaluated exactly,
// and when it disagrees the handler fires the branch hook for the real
// outcome, accounts the word, restores the queue the real direction
// produces, and exits.

// trBranch runs a conditional branch recorded in the direction tfTaken
// holds.
func trBranch(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	t := in.cmp.Eval(c.leanOperand(in.a, in.vpc), c.leanOperand(in.b, in.vpc))
	if c.onBranch != nil {
		c.onBranch(in.vpc, in.target, t)
	}
	if t == (in.flags&tfTaken != 0) {
		return true
	}
	c.deopt = DeoptBranchDirection
	if t {
		c.charge(in, wcTaken)
		c.pcq[0], c.pcq[1] = in.vpc+1, in.target
		c.pcn = 2
	} else {
		c.charge(in, wcBranch) // the not-taken exit never counts a taken branch
		c.pcq[0], c.pcn = in.vpc+1, 1
	}
	return false
}

// trJump runs an unconditional direct jump: always taken, no guard, no
// exit — the flattening already placed the target's words next.
func trJump(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	if c.onBranch != nil {
		c.onBranch(in.vpc, in.target, true)
	}
	return true
}

// trCall runs a call: an unconditional jump plus the link-register
// commit, which lands after the branch hook exactly as on the staged
// path.
func trCall(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	if c.onBranch != nil {
		c.onBranch(in.vpc, in.target, true)
	}
	c.Regs[in.dst] = in.vpc + 1 + isa.BranchDelay
	c.lastWrite[in.dst] = c.seq
	return true
}

// trJumpInd runs an indirect jump with the recorded target as the
// guard. A different runtime target fires the hook for the real target,
// accounts the word, restores the exact two-delay redirect queue, and
// exits.
func trJumpInd(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	t := c.leanOperand(in.a, in.vpc)
	if c.onBranch != nil {
		c.onBranch(in.vpc, t, true)
	}
	if t != in.target {
		c.deopt = DeoptIndirectTarget
		c.charge(in, wcTaken)
		c.pcq[0], c.pcq[1], c.pcq[2] = in.vpc+1, in.vpc+2, t
		c.pcn = 3
		return false
	}
	return true
}
