package cpu

// Trace compilation and dispatch: the execution half of the trace JIT
// tier. A validated flat path (trace_form.go) compiles to one contiguous
// array of op records — threaded code, one record per instruction word
// (consecutive nops collapse into one) — each naming a static handler
// chosen at compile time for the word's class and operand shape. Dispatch
// runs the array with no per-word fetch, no queue maintenance, no
// environmental checks, and no statistics updates: a clean pass bulk-adds
// the precomputed cost of the whole trace.
//
// A pending load is a run-time test, not a handler: every handler that
// can meet one commits it when c.pendN != 0 and reads through the
// audited lean path, which with nothing pending is a register-file load.
// Formation marks each position a pending load can reach (trace_form.go);
// only unmarked positions take the check-free specializations (trAdd,
// trSub, trOr, trMov, trLoadDisp, trStoreDisp).
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

// Per-class happy-path cost of one word, identical to what the block
// engine's lean word executor (leanWord) accounts for the same word.
var (
	wcNop     = wordCost{instr: 1, nops: 1}.pack()
	wcALU     = wordCost{instr: 1, pieces: 1}.pack()
	wcLoadImm = wordCost{instr: 1, pieces: 1}.pack()
	wcLoad    = wordCost{instr: 1, pieces: 1, loads: 1, data: 1}.pack()
	wcStore   = wordCost{instr: 1, pieces: 1, stores: 1, data: 1}.pack()
	wcBranch  = wordCost{instr: 1, pieces: 1, branches: 1}.pack()
	wcTaken   = wordCost{instr: 1, pieces: 1, branches: 1, taken: 1}.pack()
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
// exactly as bailFault leaves it. The caller has already accounted the
// executed prefix.
func (c *CPU) traceFault(q [3]uint32, cause isa.Cause) {
	c.deopt = DeoptFault
	c.pcq[0], c.pcq[1], c.pcq[2] = q[0], q[1], q[2]
	c.pcn = 3
	c.exception(cause, isa.CauseNone, 0)
}

// traceFault2 is traceFault with a secondary cause: a packed word whose
// ALU piece overflowed while its memory piece also faulted, ordered by
// the exception priority rule (overflow primary, mapping secondary).
func (c *CPU) traceFault2(q [3]uint32, primary, secondary isa.Cause) {
	c.deopt = DeoptFault
	c.pcq[0], c.pcq[1], c.pcq[2] = q[0], q[1], q[2]
	c.pcn = 3
	c.exception(primary, secondary, 0)
}

// runTrace executes a compiled trace from its entry, then chains
// trace-to-trace through the cache (a loop trace chains to itself)
// while each trace entered fits the steps left of the run. A guard exit
// chains too when it left a single-entry (hence sequential) queue and
// raised no exception: a mispredicted direction frequently lands at the
// entry of the trace covering the other path, and bouncing through the
// lower tiers for one dispatch would forfeit the trace. The dispatch
// guards hold for the whole chain: nothing inside a trace can change the
// translation context ctx or what stepTraces checked (privilege,
// overflow enable and the page map only change through words a trace
// refuses to contain or through devices, whose references exit before
// the access), so the TLB, synced here, serves the mapped handlers'
// probes. The tickers are advanced only afterwards, so each trace
// entered must fit what is left of their horizon and of the run's steps
// (until the exception that ends the chain, each step is an instruction).
func (c *CPU) runTrace(tr *trace, ctx *mem.Context, horizon, left uint64) {
	c.trOvfOn = c.Sur.OverflowEnabled()
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
		c.trCur = tr
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
			tr.instrs += c.Stats.Instructions - t0
		} else {
			tr.instrs += c.Stats.Instructions - t0
			// The handler set c.deopt immediately before returning
			// false. A device reference left the word to the lower
			// tiers: that is the environment, not a guard. Mispredicted
			// directions and indirect targets first try to resolve
			// inside the tier — chain straight into the trace or side
			// stub covering where execution actually went — and only an
			// unresolved exit counts as a guard exit, so the per-reason
			// slots stay an exact partition of the total and every op
			// exit counts exactly one of guard-exit, side-hit, or IC-hit.
			r := c.deopt
			if r == deoptDevice {
				c.Trans.TraceDeoptEnvironment++
				return
			}
			if (r == DeoptBranchDirection || r == DeoptIndirectTarget) && c.excSeq == exc0 {
				if nt := c.sideResolve(tr, xi, r, ctx, end-c.Stats.Instructions); nt != nil {
					tr = nt
					continue
				}
			}
			c.Trans.TraceGuardExits++
			c.Trans.TraceDeopts[r]++
			tr.deopts[r]++
			if c.onJIT != nil {
				c.emitJIT(JITEvent{Kind: JITGuardExit, Reason: uint8(r), PC: tr.pc, Len: uint32(xi)})
			}
			if c.Halted || c.excSeq != exc0 || c.pcn != 1 {
				return
			}
		}
		// A loop trace re-enters itself: under the same context, in the
		// same slot, so the lookup would return it (side stubs never sit
		// in the cache, so they always look up).
		nt := tr
		if c.pcq[0] != tr.pc || !tr.valid || tr.side {
			nt = c.traceAt(c.pcq[0], ctx)
		}
		if nt == nil {
			return
		}
		if c.Stats.Instructions+uint64(nt.words) > end {
			c.standDown(uint64(nt.words), horizon-(c.Stats.Instructions-i0))
			return
		}
		tr = nt
	}
}

// sideResolve tries to keep a mispredicted-direction or wrong-target
// exit inside the trace tier. The exiting op left the exact
// architectural fetch queue, which is all the classification needs:
//
//   - a sequential queue (the cold arm starts at the next word, no
//     delay slot in flight) chains into a compiled trace there;
//   - a branch redirect queue [ds, target] chains into the op's side
//     stub — the flattened delay slot ending at the target — compiling
//     it once the exit crosses sideThreshold;
//   - an indirect redirect queue [ds0, ds1, target] looks the target up
//     in the op's inline cache (MRU first), installing a new stub on a
//     hot miss.
//
// room is what is left of the tickers' horizon and the run's steps: a
// continuation longer than that stays unresolved. A successful
// resolution returns the trace to continue in, having counted a side/IC
// hit; nil falls back to the guard-exit path.
func (c *CPU) sideResolve(tr *trace, xi int, r DeoptReason, ctx *mem.Context, room uint64) *trace {
	if c.pcn == 1 || (c.pcn == 2 && c.pcq[1] == c.pcq[0]+1) {
		if nt := c.traceAt(c.pcq[0], ctx); nt != nil && uint64(nt.words) <= room {
			c.Trans.TraceSideHits++
			tr.sideHits++
			return nt
		}
		return nil
	}
	// A stub is at most two words.
	if tr.sides == nil || room < 2 {
		return nil
	}
	s := &tr.sides[tr.ins[xi].sx]
	if r == DeoptBranchDirection {
		if c.pcn != 2 {
			return nil
		}
		if st := s.br; st != nil && st.valid {
			c.Trans.TraceSideHits++
			tr.sideHits++
			return st
		}
		s.br = nil // dropped by a code write: rebuild from live memory
		if s.hot == sideNever {
			return nil
		}
		s.hot++
		if s.hot < sideThreshold {
			return nil
		}
		st := c.buildSideStub(ctx, c.pcq[0], 1, c.pcq[1])
		if st == nil {
			s.hot = sideNever
			return nil
		}
		s.hot = 0
		s.br = st
		c.Trans.TraceSideCompiled++
		if c.onJIT != nil {
			c.emitJIT(JITEvent{Kind: JITSideCompiled, PC: st.pc, Len: uint32(len(st.ins))})
		}
		c.Trans.TraceSideHits++
		tr.sideHits++
		return st
	}
	// DeoptIndirectTarget: queue is [vpc+1, vpc+2, target].
	if c.pcn != 3 {
		return nil
	}
	t := c.pcq[2]
	if st := s.ic[0]; st != nil && st.valid && s.icTgt[0] == t {
		c.Trans.TraceICHits++
		tr.icHits++
		return st
	}
	if st := s.ic[1]; st != nil && st.valid && s.icTgt[1] == t {
		s.ic[0], s.ic[1] = s.ic[1], s.ic[0]
		s.icTgt[0], s.icTgt[1] = s.icTgt[1], s.icTgt[0]
		c.Trans.TraceICHits++
		tr.icHits++
		return st
	}
	if s.hot == sideNever {
		return nil
	}
	s.hot++
	if s.hot < sideThreshold {
		return nil
	}
	st := c.buildSideStub(ctx, c.pcq[0], 2, t)
	if st == nil {
		// Compilability depends only on the delay-slot words, which are
		// the same for every target: poison the whole slot.
		s.hot = sideNever
		return nil
	}
	s.hot = 0
	s.ic[1], s.icTgt[1] = s.ic[0], s.icTgt[0]
	s.ic[0], s.icTgt[0] = st, t
	c.Trans.TraceICInstalls++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITSideCompiled, PC: st.pc, Len: uint32(len(st.ins))})
	}
	c.Trans.TraceICHits++
	tr.icHits++
	return st
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

// buildSideStub compiles the minimal continuation of a guard exit: the
// dsN delay-slot words still in flight (starting at dsPC), flattened
// with the exact fault-restart queues of a drain toward
// control target x, ending at x. After a clean stub pass the queue is
// [x] and the ordinary chain loop picks up the trace there — so the
// stub stitches the parent to the cold path's own trace, forming a
// trace tree, without ever returning to dispatch.
//
// The words come fresh from live instruction memory, never from the
// parent's recording: a stub built after self-modification must reflect
// what the lower tiers would fetch. Under a mapped context each word's
// address translates first, exactly as the lower tiers' fetch of it next
// would; a word that does not translate builds no stub. The stub runs
// only from its parent's side slot, so only under the parent's context,
// which it shares. Stubs are derived state like every trace — a code
// write drops them, validity is checked at every use, and a dropped
// stub re-forms from memory on the next hot exit.
func (c *CPU) buildSideStub(ctx *mem.Context, dsPC uint32, dsN int, x uint32) *trace {
	var ds [2]decoded
	var words [2]traceWord
	var spans [2]traceSpan
	ns := 0
	for k := 0; k < dsN; k++ {
		vpc := dsPC + uint32(k)
		pa := vpc
		if ctx.Mapped {
			var f *mem.Fault
			if pa, f = c.Bus.MMU.Translate(vpc, false, true); f != nil {
				return nil
			}
		}
		if pa >= c.IMem.n {
			return nil
		}
		in := c.IMem.At(pa)
		if in.ALU == nil && in.Mem == nil {
			return nil
		}
		d := &ds[k]
		decodeWord(d, in)
		classifyLean(d)
		if !dsCompilable(d) {
			return nil
		}
		// Entry state is unknown (a load may be pending from the
		// parent): no stub word takes a check-free specialization.
		words[k] = traceWord{d: d, vpc: vpc, x: x, shape: qFirst, hazard: true}
		if ns > 0 && spans[ns-1].pa+spans[ns-1].n == pa {
			spans[ns-1].n++
		} else {
			spans[ns] = traceSpan{pa: pa, n: 1}
			ns++
		}
	}
	words[dsN-1].shape = qLast
	tr := c.compileTrace(words[:dsN], ctx, dsPC, x, append([]traceSpan(nil), spans[:ns]...))
	if tr == nil {
		return nil
	}
	tr.side = true
	c.installSideTrace(tr)
	return tr
}

// sideGuard reports whether a word compiles to an op whose guard can
// exit toward a resolvable continuation (a branch direction or an
// indirect target), and so needs a side slot. No packed word the ISA
// encodes carries such a guard.
func sideGuard(d *decoded) bool {
	return d.bclass == bcBranch || d.bclass == bcJumpInd
}

// compileTrace builds the op record array for a flattened path. It is
// total over validated words: formation already refused everything the
// handlers cannot specialize, so a nil return means an internal
// inconsistency and the path is simply not installed. A counting pass
// sizes the records, the decoded copies of bcGeneral words, and the
// side slots exactly, so compilation makes a constant number of
// allocations whatever the trace's length. The trace keeps nothing of
// words, whose decoded pointers reach into the recorded blocks or a
// side stub's stack. Under a mapped ctx, memory words take the handlers
// that translate (no check-free specialization does); no word the exact
// executor runs references memory, so none can reach a device mid-trace.
func (c *CPU) compileTrace(words []traceWord, ctx *mem.Context, entry, endPC uint32, spans []traceSpan) *trace {
	n, ng, ns := 0, 0, 0
	for i := 0; i < len(words); i++ {
		d := words[i].d
		switch {
		case d.bclass == bcNop:
			for i+1 < len(words) && words[i+1].d.bclass == bcNop {
				i++
			}
		case d.bclass == bcGeneral:
			ng++
		}
		if sideGuard(d) {
			ns++
		}
		n++
	}
	if n == 0 {
		return nil
	}
	tr := &trace{pc: entry, ctx: *ctx, words: uint32(len(words)), endPC: endPC,
		spans: spans, ins: make([]traceInst, n)}
	mapped := ctx.Mapped
	if ng > 0 {
		tr.dec = make([]decoded, 0, ng)
	}
	if ns > 0 {
		tr.sides = make([]sideSlot, ns)
	}
	var pre traceCost
	sx := uint8(0)
	for i, k := 0, 0; i < len(words); k++ {
		w := &words[i]
		in := &tr.ins[k]
		in.vpc, in.pre = w.vpc, pre
		if w.d.bclass == bcNop {
			// Collapse the run of consecutive nops (crossing block
			// boundaries in the flattened path) into one op.
			run := 1
			for i+run < len(words) && words[i+run].d.bclass == bcNop {
				run++
			}
			in.fn, in.imm = trNops, uint32(run)
			for j := 0; j < run; j++ {
				pre = pre.plus(wcNop)
			}
			i += run
			continue
		}
		in.target, in.shape = w.x, w.shape
		if sideGuard(w.d) {
			in.sx = sx
			sx++
		}
		var happy traceCost
		switch w.d.bclass {
		case bcGeneral:
			// The cap was sized by the counting pass: append never moves
			// the table, so earlier records' pointers stay valid.
			tr.dec = append(tr.dec, *w.d)
			in.d = &tr.dec[len(tr.dec)-1]
			happy = compileGeneral(in)
		case bcALU:
			happy = compileALU(in, w)
		case bcLoad:
			happy = compileLoad(in, w, mapped)
		case bcStore:
			happy = compileStore(in, w, mapped)
		case bcBranch:
			in.a, in.b, in.cmp, in.target = w.d.m1, w.d.m2, w.d.memCmp, w.d.target
			in.taken = w.taken
			in.fn, happy = trBranchNotTaken, wcBranch
			if w.taken {
				in.fn, happy = trBranchTaken, wcTaken
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
		i++
	}
	tr.cost = pre
	return tr
}

// compileGeneral picks the handler of a packed or otherwise unclassified
// word (in.d already holds its decoded copy) and returns its happy-path
// cost. Formation admits only the packed shapes the ISA encodes
// (packedShape): an ALU or set-condition piece with a displacement load,
// a displacement store, or a direct jump, each with its own handler.
// Every other general word has no memory piece and runs through the
// exact executor, accounting its own statistics live (so it contributes
// nothing to the trace's bulk cost or to later exit prefixes).
func compileGeneral(in *traceInst) traceCost {
	switch in.d.memKind {
	case isa.PieceLoad:
		in.fn = trPackedLoad
		return wcPackedLoad
	case isa.PieceStore:
		in.fn = trPackedStore
		return wcPackedStore
	case isa.PieceJump:
		in.fn = trPackedJump
		return wcPackedTaken
	}
	in.fn = trGeneral
	return traceCost{}
}

// compileALU picks the handler of a single-ALU-piece word. Positions a
// pending load cannot reach specialize the dominant ops; every other
// word takes the generic handler of its kind.
func compileALU(in *traceInst, w *traceWord) traceCost {
	d := w.d
	in.a, in.b, in.dst = d.a1, d.a2, d.aluDst
	in.op, in.cmp, in.unary, in.dstRead = d.aluOp, d.aluCmp, d.aluUnary, d.aluDstRead
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
	case d.aluOp == isa.OpOr:
		in.fn = trOr
	default:
		in.fn = trALU
	}
	return wcALU
}

// compileLoad picks the handler of a load word: long immediates never
// touch the data port; a displacement load in an unmapped trace, at a
// position a pending load cannot reach, takes the check-free
// specialization; every other load takes trLoad.
func compileLoad(in *traceInst, w *traceWord, mapped bool) traceCost {
	d := w.d
	in.data, in.base, in.index, in.shift = d.data, d.base, d.index, d.shift
	in.mode, in.imm, in.eager = d.mode, uint32(d.disp), w.eager
	switch {
	case d.mode == isa.AModeLongImm:
		in.fn = trLoadImm
		return wcLoadImm
	case !mapped && !w.hazard && d.mode == isa.AModeDisp:
		in.fn = trLoadDisp
	default:
		in.fn = trLoad
	}
	return wcLoad
}

// compileStore picks the handler of a store word, as compileLoad does.
func compileStore(in *traceInst, w *traceWord, mapped bool) traceCost {
	d := w.d
	in.data, in.base, in.index, in.shift = d.data, d.base, d.index, d.shift
	in.mode, in.imm = d.mode, uint32(d.disp)
	if !mapped && !w.hazard && d.mode == isa.AModeDisp {
		in.fn = trStoreDisp
	} else {
		in.fn = trStore
	}
	return wcStore
}

// trNops runs a collapsed nop run. Pending-load commits drain at each
// word exactly as per-word stepping would; once nothing is pending, the
// rest of the run is one sequence-counter bump.
func trNops(c *CPU, in *traceInst) bool {
	n := in.imm
	for ; n != 0 && c.pendN != 0; n-- {
		c.seq++
		c.commitLoads()
	}
	c.seq += uint64(n)
	return true
}

// trGeneral runs an unpacked body word with no lean class through the
// exact executor, exactly as the block engine's body loop runs one:
// the word accounts its own statistics live, and any redirect, halt,
// or fault exits the trace at the boundary the executor left.
func trGeneral(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	vpc := in.vpc
	e0 := c.excSeq
	c.pcq[0], c.pcq[1] = vpc+1, vpc+2
	c.pcn = 2
	c.execWord(in.d.src, vpc)
	if c.Halted || c.pcn != 2 || c.pcq[0] != vpc+1 {
		switch {
		case c.Halted:
			c.deopt = DeoptHalt
		case c.excSeq != e0:
			c.deopt = DeoptFault
		default:
			c.deopt = DeoptQueueShape
		}
		c.charge(in, traceCost{})
		return false
	}
	return true
}

// packedALU evaluates the computation piece of a packed word: operand
// reads in the exact executor's order, overflow latched against the
// dispatch-latched trap enable. It returns the value to commit to the
// ALU destination and whether an enabled overflow occurred; the caller
// owns commit order and the overflow exit.
func (c *CPU) packedALU(d *decoded, vpc uint32) (v uint32, ovf bool) {
	a := c.leanOperand(d.a1, vpc)
	var b uint32
	if d.aluKind == isa.PieceSetCond {
		if d.aluCmp.Eval(a, c.leanOperand(d.a2, vpc)) {
			v = 1
		}
		return v, false
	}
	if !d.aluUnary {
		b = c.leanOperand(d.a2, vpc)
	}
	var dstVal uint32
	if d.aluDstRead {
		dstVal = c.leanRead(d.aluDst, vpc)
	}
	v, _, o := aluEval(d.aluOp, a, b, dstVal, c.Lo)
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
// words compile anywhere in a trace — body, delay slot, terminator —
// unlike trGeneral's fixed sequential shape. The memory handlers serve
// mapped and unmapped traces alike: they compute the address straight
// from the register file and, in a mapped trace, translate it before
// any audited read, so a reference a device claims exits with nothing
// of the word done (an unmapped trace runs only on a deviceless bus,
// so its addresses are physical); the base read repeats through the
// audited path after the ALU piece's operands, in the executor's order.

// trPackedLoad runs a packed ALU + load word.
func trPackedLoad(c *CPU, in *traceInst) bool {
	d, vpc := in.d, in.vpc
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	addr := c.Regs[d.base] + uint32(d.disp)
	pa := addr
	var f *mem.Fault
	if c.trCur.ctx.Mapped {
		var dev bool
		if pa, dev, f = c.Bus.translateUser(addr, false); dev {
			return c.deviceExit(in)
		}
	}
	aluV, ovf := c.packedALU(d, vpc)
	c.leanRead(d.base, vpc) // the audited address read
	var v uint32
	if f == nil {
		v, f = c.Bus.MMU.Phys.Read(pa)
	}
	if f != nil {
		c.charge(in, wcPackedMemFault)
		if ovf {
			c.traceFault2(in.faultQueue(), isa.CauseOverflow, f.Cause)
		} else {
			c.traceFault(in.faultQueue(), f.Cause)
		}
		return false
	}
	if c.onMem != nil {
		c.onMem(vpc, addr, false)
	}
	if ovf {
		// The load completed and counts; only the writes are suppressed.
		c.charge(in, wcPackedLoad)
		c.traceFault(in.faultQueue(), isa.CauseOverflow)
		return false
	}
	c.Regs[d.aluDst] = aluV
	c.lastWrite[d.aluDst] = c.seq
	c.writeLoad(d.data, v)
	return true
}

// trPackedStore runs a packed ALU + store word.
func trPackedStore(c *CPU, in *traceInst) bool {
	d, vpc := in.d, in.vpc
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	addr := c.Regs[d.base] + uint32(d.disp)
	pa := addr
	var f *mem.Fault
	if c.trCur.ctx.Mapped {
		var dev bool
		if pa, dev, f = c.Bus.translateUser(addr, true); dev {
			return c.deviceExit(in)
		}
	}
	aluV, ovf := c.packedALU(d, vpc)
	val := c.Regs[d.data]
	c.leanRead(d.base, vpc) // the audited address and data reads
	c.leanRead(d.data, vpc)
	if f == nil {
		f = c.Bus.MMU.Phys.Write(pa, val)
	}
	if f != nil {
		c.charge(in, wcPackedMemFault)
		if ovf {
			c.traceFault2(in.faultQueue(), isa.CauseOverflow, f.Cause)
		} else {
			c.traceFault(in.faultQueue(), f.Cause)
		}
		return false
	}
	if c.onMem != nil {
		c.onMem(vpc, addr, true)
	}
	if ovf {
		// The store hit memory; the register write is suppressed and the
		// word restarts through the exception.
		c.charge(in, wcPackedStore)
		c.traceFault(in.faultQueue(), isa.CauseOverflow)
		return false
	}
	c.Regs[d.aluDst] = aluV
	c.lastWrite[d.aluDst] = c.seq
	return true
}

// trPackedJump runs a packed ALU + direct jump terminator: always taken,
// so the only exit is overflow. The word is accounted with its jump,
// then restarts through the exact fault queue its redirect leaves.
func trPackedJump(c *CPU, in *traceInst) bool {
	d, vpc := in.d, in.vpc
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	aluV, ovf := c.packedALU(d, vpc)
	if c.onBranch != nil {
		c.onBranch(vpc, d.target, true)
	}
	if ovf {
		c.charge(in, wcPackedTaken)
		c.traceFault([3]uint32{vpc, vpc + 1, d.target}, isa.CauseOverflow)
		return false
	}
	c.Regs[d.aluDst] = aluV
	c.lastWrite[d.aluDst] = c.seq
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
		c.traceFault(in.faultQueue(), isa.CauseOverflow)
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
		c.traceFault(in.faultQueue(), isa.CauseOverflow)
		return false
	}
	c.Regs[in.dst] = v
	c.lastWrite[in.dst] = c.seq
	return true
}

func trOr(c *CPU, in *traceInst) bool {
	c.seq++
	c.Regs[in.dst] = rdOp(c, in.a) | rdOp(c, in.b)
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
	if !in.unary {
		b = c.leanOperand(in.b, in.vpc)
	}
	var dstVal uint32
	if in.dstRead {
		dstVal = c.leanRead(in.dst, in.vpc)
	}
	v, lo, ovf := aluEval(in.op, a, b, dstVal, c.Lo)
	if ovf && c.trOvfOn {
		c.charge(in, wcALU)
		c.traceFault(in.faultQueue(), isa.CauseOverflow)
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

// trLoadImm runs a long-immediate load, which never touches the data
// port.
func trLoadImm(c *CPU, in *traceInst) bool {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	c.Regs[in.data] = in.imm
	c.lastWrite[in.data] = c.seq
	return true
}

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
	if c.trCur.ctx.Mapped {
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
		c.traceFault(in.faultQueue(), f.Cause)
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
		c.traceFault(in.faultQueue(), f.Cause)
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
	if in.eager {
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
	if c.trCur.ctx.Mapped {
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
		c.traceFault(in.faultQueue(), f.Cause)
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
		c.traceFault(in.faultQueue(), f.Cause)
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

// branchCond evaluates a branch's condition at its position.
func (c *CPU) branchCond(in *traceInst) bool {
	if c.pendN != 0 {
		c.commitLoads()
	}
	return in.cmp.Eval(c.leanOperand(in.a, in.vpc), c.leanOperand(in.b, in.vpc))
}

// trBranchTaken runs a branch recorded taken.
func trBranchTaken(c *CPU, in *traceInst) bool {
	c.seq++
	t := c.branchCond(in)
	if c.onBranch != nil {
		c.onBranch(in.vpc, in.target, t)
	}
	if !t {
		c.deopt = DeoptBranchDirection
		c.charge(in, wcBranch) // the not-taken exit never counts a taken branch
		c.pcq[0], c.pcn = in.vpc+1, 1
		return false
	}
	return true
}

// trBranchNotTaken runs a branch recorded not taken.
func trBranchNotTaken(c *CPU, in *traceInst) bool {
	c.seq++
	t := c.branchCond(in)
	if c.onBranch != nil {
		c.onBranch(in.vpc, in.target, t)
	}
	if t {
		c.deopt = DeoptBranchDirection
		c.charge(in, wcTaken)
		c.pcq[0], c.pcq[1] = in.vpc+1, in.target
		c.pcn = 2
		return false
	}
	return true
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
