package cpu

// Trace formation: the profile-guided half of the trace JIT tier.
//
// The trace dispatcher (stepTraces) sits one tier above the superblock
// engine. When the fetch queue is sequential and the tier may run here
// (traceable: no DMA, and no devices unless the CPU runs mapped user
// code), the head of the queue under the current translation context is
// a trace entry candidate. A compiled trace there executes directly
// (trace_compile.go) when its longest clean pass fits the tickers'
// horizon. Otherwise the heat count of the entry accumulates on the
// machine's golden code (pubEntry.heat; block chains count the blocks
// they enter too), and on reaching the threshold the dispatch runs the
// block engine with path recording switched on: every chained superblock it executes is noted (in mapped
// mode each successor resolves through the fetch translation, as a
// block entry does). The recorded path —
// the actual hot route through the code, taken branches included — is
// then validated and flattened into one trace: body words, terminators,
// and delay slots of all recorded blocks in execution order, with the
// branch directions the recording observed baked in as guards.
//
// Validation is conservative. A word the compiler cannot run (a packed
// word outside the shapes the ISA encodes, a trap, special or
// privileged terminator), a terminator whose direction cannot be
// derived from the recorded successor, or a degenerate branch whose
// target falls inside its own shadow truncates the path at the last
// whole block; paths that truncate to nothing mark the entry block
// never-hot so steady state stops re-recording (and re-allocating). A
// path that closes back on its own entry becomes a self-looping trace —
// the ideal case, re-entered by the dispatch chain loop without leaving
// the frame.

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

// heatNever marks an entry whose path failed to form a trace; its heat
// never triggers a recording again on that golden code.
const heatNever = ^uint32(0)

// tracePoint is one recorded step of a hot path: a superblock and the
// entry PC it executed at.
type tracePoint struct {
	b  *block
	pc uint32
}

// traceRec is the in-flight path recording, switched on for a single
// chain by stepTraces, with the translation context the chain started
// under (the formed trace's key). Fixed capacity: recording never
// allocates.
type traceRec struct {
	active bool
	n      int
	ctx    mem.Context
	pts    [traceMaxBlocks + 1]tracePoint
}

// recTracePoint notes one block execution on the recorded path. Called
// from the block engine's chain loop while recording is active.
func (c *CPU) recTracePoint(b *block, pc uint32) {
	if c.trec.n < len(c.trec.pts) {
		c.trec.pts[c.trec.n] = tracePoint{b: b, pc: pc}
		c.trec.n++
	}
}

// traceWord is one flattened word of a formable path: its decoded
// record plus everything the compiler needs to build its op — the
// exit-queue shape and control target that fix its exact fault-restart
// queue, and the recorded control direction for terminators. d points
// into the records formation decoded on its own frame, and compileTrace
// copies out whatever the trace keeps.
type traceWord struct {
	d   *decoded
	vpc uint32
	// x is a control target: where a delay slot's fetch queue heads
	// (its exit queues end there), or the recorded target of an
	// indirect-jump terminator.
	x uint32
	// shape selects the word's exit queues (qSeq, qFirst, qLast).
	shape uint8
	// taken is the recorded direction of a bcBranch terminator.
	taken bool
	// hazard marks a position a pending load may reach. Every handler
	// tests for one at run time; hazard only keeps the word off the
	// check-free specializations, which read the register file unaudited
	// and drain no commit.
	hazard bool
	// eager marks a load whose delayed commit is unobservable inside
	// the trace (the next word never reads the destination), committed
	// immediately.
	eager bool
}

// traceable reports whether the trace tier may run in the machine's
// current state. Compiled traces model no DMA engine (it claims free
// cycles word by word) and no device references, which any unmapped
// load or store on a machine with devices may be. Mapped user code
// qualifies anyway: its references translate into page frames, a
// device hit exits before the access, and tickers bound each trace by
// their horizon. Supervisor code on such a machine runs unmapped, so it
// stays on the lower tiers.
func (c *CPU) traceable() bool {
	return c.Bus.DMA == nil && (len(c.Bus.devices) == 0 || c.Mapped())
}

// stepTraces is the trace tier's dispatch. It resolves the entry block
// at the head of the fetch queue (adopting or translating it first if
// need be) and runs the compiled trace the block holds when one may run
// there within left steps. Otherwise it counts the block's heat when no
// trace is ready and runs the block engine from it, with path recording
// on when the heat reaches the formation threshold. It returns false, with
// no architectural effect, only when the entry does not resolve to
// instruction memory.
func (c *CPU) stepTraces(left uint64) bool {
	pc := c.pcq[0]
	mapped := c.Mapped()
	pa, ok := c.entryPA(pc, mapped)
	if !ok {
		return false
	}
	b := c.blockIn(pa)
	hit := b != nil
	if !hit {
		b = c.missBlock(pa)
	}
	ctx := c.Bus.MMU.Context(mapped)
	tr := b.traceFor(pc, &ctx)
	if tr != nil && c.enterTrace(tr, &ctx, left) {
		return true
	}
	if hit {
		c.Trans.BlockHits++
	}
	// At the threshold, this chain runs with path recording on, and a
	// trace forms from what actually executed. The recorded chain
	// retires on the block engine, so residency charges the blocks
	// tier.
	record := tr == nil && c.traceable() && b.pub.bump()
	if record {
		b.pub.cool()
		c.trec.active = true
		c.trec.n = 0
		c.trec.ctx = ctx
	}
	i0 := c.Stats.Instructions
	c.stepBlocks(b, left)
	c.Trans.TierInstrs[TierBlocks] += c.Stats.Instructions - i0
	if record {
		c.trec.active = false
		c.finishTraceRecording(pc)
		clear(c.trec.pts[:c.trec.n]) // hold no block past its recording
		c.trec.n = 0
	}
	return true
}

// enterTrace runs tr, the compiled trace ready at the head of the fetch
// queue under ctx, unless the machine's state keeps it from running
// here within left steps. It returns false when tr retired nothing,
// leaving the head to the lower tiers, which run it in this same Step.
func (c *CPU) enterTrace(tr *trace, ctx *mem.Context, left uint64) bool {
	if !c.traceable() {
		c.Trans.TraceDeoptEnvironment++
		return false
	}
	if c.intLine && c.Sur.InterruptsEnabled() && !c.Sur.Supervisor() {
		// A pending interrupt must be taken before the next word; the
		// lower tiers do that exactly.
		c.Trans.TraceDeoptInterrupt++
		return false
	}
	// A ticker could change what the trace sees before it ends, or the
	// run end inside it: the lower tiers go word by word up to either.
	horizon := c.Bus.horizon()
	if w := uint64(len(tr.ins)); w > min(horizon, left) {
		c.standDown(w, horizon)
		return false
	}
	i0, exc0 := c.Stats.Instructions, c.excSeq
	c.runTrace(tr, ctx, horizon, left)
	n := c.Stats.Instructions - i0
	if n == 0 {
		// The first word left a device reference to the lower tiers.
		return false
	}
	c.Trans.TierInstrs[TierTraces] += n
	if len(c.Bus.tickers) != 0 {
		// Every word the chain retired ran at user level except one
		// that raised an exception, which ends the chain: the lower
		// tiers tick that word only after exception entry, when the
		// timer no longer counts.
		if c.excSeq != exc0 {
			n--
		}
		c.Bus.advance(n)
	}
	return true
}

// markNeverTrace records that paths from the recording's entry do not
// form, for the reason why: stop paying for recordings (and their
// allocations) in steady state. The poisoning is published with the
// entry's heat, whatever the context the recording ran under, so no
// machine on the code records there again; it stops recordings only
// and never changes what runs. Poisoning happens at most once per entry
// (a poisoned entry never reaches the heat threshold again), so
// TracePoisoned counts distinct poisoned entries.
func (c *CPU) markNeverTrace(entry tracePoint, why FormRefusal) {
	entry.b.pub.heat.Store(heatNever)
	c.Trans.TracePoisoned++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITPoisoned, Reason: uint8(why), PC: entry.pc})
	}
}

// packedShape reports whether a word with an active piece in each slot
// has one of the three packed shapes the ISA encodes (isa.CanPack,
// isa.FullWord): an ALU piece other than movlo, or a set-condition
// piece, sharing its word with a displacement load, a displacement
// store, or a direct jump. The packed handlers run exactly these. Only
// a harness writing instruction memory directly can produce any other
// packed word, and the trace tier leaves it to the lower tiers.
func packedShape(d *decoded) bool {
	if d.aluKind != isa.PieceSetCond && (d.aluKind != isa.PieceALU || d.aluOp == isa.OpMovLo) {
		return false
	}
	switch d.memKind {
	case isa.PieceLoad, isa.PieceStore:
		return d.mode == isa.AModeDisp
	}
	return d.memKind == isa.PieceJump
}

// dsCompilable reports whether a delay-slot record can appear inside a
// trace.
func dsCompilable(d *decoded) bool {
	if d.flags&fPriv != 0 {
		return false
	}
	switch d.bclass {
	case bcNop, bcALU, bcLoad, bcStore:
		return true
	case bcGeneral:
		// A packed load or store compiles position-exactly (its handler
		// consumes the flattened queue images), so it may ride in a
		// delay slot. Any other general shape — packed control, traps,
		// specials — may not.
		return d.memKind != isa.PieceJump && packedShape(d)
	}
	return false
}

// validateTraceBlock checks that one recorded block can be compiled in
// full — body, terminator, and the delay slots its recorded direction
// executes — and derives that direction from the recorded successor
// entry nextPC. pc is the block's entry as fetched, which translation
// leaves at the block's own in-page offset. It decodes the block's words
// into recs, which has room for them, in address order: the body, the
// terminator and the delay slots, so a path's first dsCount delay-slot
// records follow its terminator's. It returns ok=false when the block
// must truncate the path, with why classifying the refusal for the
// formation taxonomy.
func validateTraceBlock(b *block, pc, nextPC uint32, recs []decoded) (ok, taken bool, dsCount uint8, why FormRefusal) {
	if b == nil || !b.valid || (b.pa^pc)&(mem.PageWords-1) != 0 || !b.hasTerm || b.termless {
		return false, false, 0, RefusalBlock
	}
	for i, in := range b.words {
		decodeWord(&recs[i], in)
	}
	ds := recs[b.n+1 : b.n+1+uint32(b.dsN)]
	// Every body class compiles but a packed word outside the shapes
	// the ISA encodes (packedShape): the plain classes and the packed
	// shapes specialize, and translation keeps every other general word
	// (traps, specials) out of a block's body. Privileged pieces refuse —
	// they can change what dispatch latched — but translation also ends
	// a block's body before any privileged word, so only the terminator
	// needs the check.
	for i := range recs[:b.n] {
		if d := &recs[i]; d.bclass == bcGeneral && !packedShape(d) {
			return false, false, 0, RefusalBlock
		}
	}
	term := &recs[b.n]
	if term.flags&fPriv != 0 {
		return false, false, 0, RefusalPrivileged
	}
	// The fallthroughs below mean the recorded successor derives no
	// direction, or the direction's delay slots cannot compile.
	why = RefusalDelaySlot
	t := pc + b.n
	switch term.bclass {
	case bcBranch:
		// A branch into its own shadow (target at t+1 or t+2) leaves
		// the recorded successor ambiguous between directions; refuse.
		if term.target == t+1 || term.target == t+2 {
			return false, false, 0, RefusalShadowBranch
		}
		if nextPC == t+1 {
			return true, false, 0, 0
		}
		if nextPC == term.target && len(ds) >= 1 && dsCompilable(&ds[0]) {
			return true, true, 1, 0
		}
	case bcJump, bcCall:
		if nextPC == term.target && len(ds) >= 1 && dsCompilable(&ds[0]) {
			return true, true, 1, 0
		}
	case bcJumpInd:
		// Targets inside the two-word shadow (or just past it, where
		// the queue stays sequential and no delay slot drains) collapse
		// into shapes the flattening cannot represent; refuse.
		if nextPC == t+1 || nextPC == t+2 || nextPC == t+3 {
			return false, false, 0, RefusalJumpInd
		}
		if len(ds) == 2 && dsCompilable(&ds[0]) && dsCompilable(&ds[1]) {
			return true, true, 2, 0
		}
		why = RefusalJumpInd
	case bcGeneral:
		// A packed terminator: ALU + direct jump is the one packed
		// control shape the ISA encodes. Its word runs through
		// trPackedJump and its direction flattens like bcJump's. Traps,
		// special-register terminators, and packed words outside the
		// encodable shapes never compile.
		if term.memKind != isa.PieceJump || !packedShape(term) {
			return false, false, 0, RefusalBlock
		}
		if nextPC == term.target && len(ds) >= 1 && dsCompilable(&ds[0]) {
			return true, true, 1, 0
		}
	default:
		why = RefusalBlock
	}
	return false, false, 0, why
}

// finishTraceRecording validates the recorded path, flattens it to
// trace words, compiles, and installs. entry is the recorded entry PC.
func (c *CPU) finishTraceRecording(entry uint32) {
	pts := c.trec.pts[:c.trec.n]
	if len(pts) < 2 || pts[0].pc != entry {
		// A short path is usually transient — the run's step budget or
		// an interrupt cut the recording chain — so the entry is not
		// poisoned: it re-earns the threshold. Recording is
		// allocation-free up to this point, so retries cost only the
		// recorded chain itself. Structural failures (validation
		// refusing the first block, compilation failing) still poison.
		c.refuseTrace(RefusalShortPath, entry)
		return
	}
	// A path that revisits its entry closes into a loop trace; an open
	// path drops its final block (its exit direction is unknown — it
	// may have bailed mid-body).
	lim := len(pts) - 1
	closed := false
	for i := 1; i < len(pts); i++ {
		if pts[i].pc == entry {
			lim, closed = i, true
			break
		}
	}

	// Pass 1: validate without allocating, truncating at the first
	// block that cannot compile. Each block's words decode into recs
	// after the records the path keeps so far, so flattened word i's
	// record is recs[i]; a block may decode up to blockMaxWords+3 words
	// past the op budget before the budget refuses it.
	var recs [traceMaxOps + blockMaxWords + 3]decoded
	var taken [traceMaxBlocks]bool
	var dsCount [traceMaxBlocks]uint8
	var cut FormRefusal // why the path was truncated, if it was
	ops := 0
	for j := 0; j < lim; j++ {
		nextPC := pts[lim].pc
		if closed && j == lim-1 {
			nextPC = entry
		} else if j+1 < lim {
			nextPC = pts[j+1].pc
		}
		ok, tk, dc, why := validateTraceBlock(pts[j].b, pts[j].pc, nextPC, recs[ops:])
		if !ok {
			// At most one refusal counts per recording: the first block
			// that truncates the path.
			c.refuseTrace(why, pts[j].pc)
			lim, closed, cut = j, false, why
			break
		}
		ops += int(pts[j].b.n) + 1 + int(dc)
		if ops > traceMaxOps {
			c.refuseTrace(RefusalOpBudget, pts[j].pc)
			lim, closed, cut = j, false, RefusalOpBudget
			break
		}
		taken[j], dsCount[j] = tk, dc
	}
	if lim < 1 {
		c.markNeverTrace(pts[0], cut)
		return
	}
	endPC := pts[lim].pc
	if closed {
		endPC = entry
	}
	c.Trans.TraceFormed++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITFormed, PC: entry, Len: uint32(lim)})
	}

	// Pass 2: flatten to trace words with exact per-word exit queues.
	// Validation bounded the word count by traceMaxOps, so the words fit
	// a fixed array on this frame: flattening allocates nothing, and
	// compileTrace copies out everything the trace keeps.
	var buf [traceMaxOps]traceWord
	k := 0 // words flattened so far; word k's record is recs[k]
	spans := make([]traceSpan, 0, lim)
	for j := 0; j < lim; j++ {
		b, pc := pts[j].b, pts[j].pc
		spans = append(spans, traceSpan{pa: b.pa, n: b.cover})
		for i := uint32(0); i < b.n; i++ {
			buf[k] = traceWord{d: &recs[k], vpc: pc + i}
			k++
		}
		t := pc + b.n
		term := &recs[k]
		tw := traceWord{d: term, vpc: t, taken: taken[j]}
		x := term.target // control target the recorded direction follows
		if term.bclass == bcJumpInd {
			x = pts[lim].pc
			if closed && j == lim-1 {
				x = entry
			} else if j+1 < lim {
				x = pts[j+1].pc
			}
			tw.x = x
		}
		buf[k] = tw
		k++
		switch dsCount[j] {
		case 1:
			buf[k] = traceWord{d: &recs[k], vpc: t + 1, x: x, shape: qLast}
		case 2:
			buf[k] = traceWord{d: &recs[k], vpc: t + 1, x: x, shape: qFirst}
			buf[k+1] = traceWord{d: &recs[k+1], vpc: t + 2, x: x, shape: qLast}
		}
		k += int(dsCount[j])
	}
	words := buf[:k]

	// Eager-load marking over the flattened path: the one-word hazard
	// window is observable only by the immediately following word, and
	// inside a trace that word is statically known even across block
	// and branch boundaries. The final word has no known successor, so
	// its load keeps the delayed commit.
	for i := range words {
		w := &words[i]
		if w.d.bclass != bcLoad {
			continue
		}
		if i+1 < len(words) && words[i+1].d.bclass != bcGeneral &&
			!readsReg(words[i+1].d, w.d.data) {
			w.eager = true
		}
	}
	// Hazard positions: loads pending at entry drain within the first
	// two words; a delayed in-trace commit lands two words after its
	// (non-eager) load. Those are the only positions a pending load can
	// reach, so no other position needs the run-time test.
	for i := range words {
		if i < 2 {
			words[i].hazard = true
		}
		d := words[i].d
		if (d.bclass == bcLoad && !words[i].eager) ||
			(d.bclass == bcGeneral && d.memKind == isa.PieceLoad) {
			// A non-eager load's commit lands two words later, and a
			// packed load (always delayed) leaves the same window; no
			// other shape pends a write.
			for k := i + 1; k <= i+2 && k < len(words); k++ {
				words[k].hazard = true
			}
		}
	}

	tr := c.compileTrace(words, &c.trec.ctx, entry, endPC, spans)
	if tr == nil {
		c.markNeverTrace(pts[0], RefusalBlock)
		return
	}
	c.installTrace(pts[0].b, tr)
	if !tr.ctx.Mapped {
		pts[0].b.pub.tr.CompareAndSwap(nil, tr.traceCode)
	}
	c.Trans.TraceCompiled++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITCompiled, PC: entry, Len: uint32(len(tr.ins))})
	}
}

// readsReg reports whether executing a decoded word reads register r,
// conservatively answering true for any piece kind it does not model.
func readsReg(d *decoded, r isa.Reg) bool {
	switch d.aluKind {
	case isa.PieceALU:
		if !d.a1.imm && d.a1.reg == r {
			return true
		}
		if !d.aluUnary && !d.a2.imm && d.a2.reg == r {
			return true
		}
		if d.aluDstRead && d.aluDst == r {
			return true
		}
	case isa.PieceSetCond:
		if (!d.a1.imm && d.a1.reg == r) || (!d.a2.imm && d.a2.reg == r) {
			return true
		}
	}
	switch d.memKind {
	case isa.PieceNop, isa.PieceJump, isa.PieceCall, isa.PieceTrap:
	case isa.PieceLoad, isa.PieceStore:
		if d.memKind == isa.PieceStore && d.data == r {
			return true
		}
		switch d.mode {
		case isa.AModeDisp:
			if d.base == r {
				return true
			}
		case isa.AModeIndex, isa.AModeShift:
			if d.base == r || d.index == r {
				return true
			}
		}
	case isa.PieceBranch:
		if (!d.m1.imm && d.m1.reg == r) || (!d.m2.imm && d.m2.reg == r) {
			return true
		}
	case isa.PieceJumpInd:
		if !d.m1.imm && d.m1.reg == r {
			return true
		}
	default:
		return true
	}
	return false
}

// refuseTrace accounts one formation refusal: the taxonomy counter and,
// when a hook is attached, the event with the refusing block's PC.
func (c *CPU) refuseTrace(why FormRefusal, pc uint32) {
	c.Trans.TraceFormRefusals[why]++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITRefused, Reason: uint8(why), PC: pc})
	}
}
