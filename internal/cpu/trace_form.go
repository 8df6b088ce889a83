package cpu

// Trace formation: the profile-guided half of the trace JIT tier.
//
// The trace dispatcher (stepTraces) sits one tier above the superblock
// engine. When the fetch queue is sequential and the tier may run here
// (traceable: no DMA, and no devices unless the CPU runs mapped user
// code), the head of the queue under the current translation context is
// a trace entry candidate. A compiled trace there executes directly
// (trace_compile.go) when its longest clean pass fits the tickers'
// horizon. Otherwise a per-entry-PC heat counter accumulates, and on
// crossing the threshold the next dispatch runs on the block engine with
// path recording switched on: every chained superblock it executes
// is noted (in mapped mode the recording resolves each successor through
// the translation, as the next block entry would). The recorded path —
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
// whole block; paths that truncate to nothing mark the entry PC
// never-hot so steady state stops re-recording (and re-allocating). A
// path that closes back on its own entry becomes a self-looping trace —
// the ideal case, re-entered by the dispatch chain loop without leaving
// the frame.

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

// heatNever marks an entry PC whose path failed to form a trace; the
// heat counter never triggers again for it (InvalidateTraces resets).
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
// queue, and the recorded control direction for
// terminators. d points at the recorded block's own (immutable) record:
// flattening copies no decoded words, and compileTrace copies out
// whatever the trace keeps.
type traceWord struct {
	d   *decoded
	vpc uint32
	// x is a control target: where a delay slot's drain heads (its exit
	// queues end there), or the recorded target of an indirect-jump
	// terminator.
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
	// immediately like the block engine's fEager.
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

// stepTraces is the trace-tier dispatcher. It returns true when it
// executed something (a compiled trace, or a recorded chain on the block
// engine) within left steps; false falls through to the superblock tier
// untouched.
func (c *CPU) stepTraces(left uint64) bool {
	pc := c.pcq[0]
	ctx := c.Bus.MMU.Context(c.Mapped())
	if !c.traceable() {
		// Count the deopt only when a compiled trace was actually ready
		// here — traceAt's own nil-cache check keeps machines that never
		// compiled a trace free of the bookkeeping.
		if c.traceAt(pc, &ctx) != nil {
			c.Trans.TraceDeoptEnvironment++
		}
		return false
	}
	if tr := c.traceAt(pc, &ctx); tr != nil {
		if c.intLine && c.Sur.InterruptsEnabled() && !c.Sur.Supervisor() {
			// A pending interrupt must be taken before the next word;
			// the lower tiers do that exactly.
			c.Trans.TraceDeoptInterrupt++
			return false
		}
		// A ticker could change what the trace sees before it ends, or the
		// run end inside it: the lower tiers go word by word up to either.
		horizon := c.Bus.horizon()
		if w := uint64(tr.words); w > min(horizon, left) {
			c.standDown(w, horizon)
			return false
		}
		i0, exc0 := c.Stats.Instructions, c.excSeq
		c.runTrace(tr, &ctx, horizon, left)
		n := c.Stats.Instructions - i0
		if n == 0 {
			// The first word left a device reference to the lower tiers,
			// which run it in this same Step.
			return false
		}
		c.Trans.TierInstrs[TierTraces] += n
		if len(c.Bus.tickers) != 0 {
			// Every retired word ran at user level except one that raised
			// an exception: the lower tiers tick that word only after
			// exception entry, when the timer no longer counts.
			if c.excSeq != exc0 {
				n--
			}
			c.Bus.advance(n)
		}
		return true
	}
	if !c.heatBump(pc) {
		return false
	}
	// Threshold crossed: run this chain on the block engine with path
	// recording on, then form a trace from what actually executed. The
	// recorded chain retires on the block engine, so residency charges
	// the blocks tier.
	c.trec.active = true
	c.trec.n = 0
	c.trec.ctx = ctx
	i0 := c.Stats.Instructions
	ok := c.stepBlocks(left)
	c.Trans.TierInstrs[TierBlocks] += c.Stats.Instructions - i0
	c.trec.active = false
	if ok {
		c.finishTraceRecording(pc)
	}
	clear(c.trec.pts[:c.trec.n]) // hold no block past its recording
	c.trec.n = 0
	return ok
}

// heatBump accumulates heat for a trace-cache miss at pc and reports
// whether the formation threshold was crossed.
func (c *CPU) heatBump(pc uint32) bool {
	if c.heat == nil {
		c.heat = make([]heatEntry, heatEntries)
	}
	h := &c.heat[pc&(heatEntries-1)]
	if h.pc != pc {
		if h.n != 0 {
			// The direct-mapped slot held another entry PC still warming
			// (or poisoned): its accumulated heat is lost to aliasing.
			c.Trans.TraceHeatEvicted++
		}
		h.pc, h.n = pc, 1
		return false
	}
	if h.n == heatNever {
		return false
	}
	h.n++
	if h.n >= heatThreshold {
		h.n = 0
		return true
	}
	return false
}

// traceYield reports whether the block chain should end at npc and hand
// control back to the dispatcher: a compiled trace is installed
// there under ctx, or npc's heat just crossed the formation threshold.
// Crossing re-arms the counter one bump below the threshold so the
// dispatcher's own bump starts the recording chain immediately.
func (c *CPU) traceYield(npc uint32, ctx *mem.Context) bool {
	if c.traceAt(npc, ctx) != nil {
		return true
	}
	if c.heatBump(npc) {
		c.heat[npc&(heatEntries-1)].n = heatThreshold - 1
		return true
	}
	return false
}

// markNeverTrace records that paths from pc do not form: stop paying
// for recordings (and their allocations) in steady state. Poisoning
// happens at most once per entry PC (a poisoned entry never crosses the
// heat threshold again), so TracePoisoned counts distinct poisoned
// entries until the next InvalidateTraces.
func (c *CPU) markNeverTrace(pc uint32) {
	if c.heat == nil {
		return
	}
	c.heat[pc&(heatEntries-1)] = heatEntry{pc: pc, n: heatNever}
	c.Trans.TracePoisoned++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITPoisoned, PC: pc, Heat: heatThreshold})
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
// leaves at the block's own in-page offset. It returns ok=false when the
// block must truncate the path, with why classifying the refusal for the
// formation taxonomy.
func validateTraceBlock(b *block, pc, nextPC uint32) (ok, taken bool, dsCount uint8, why FormRefusal) {
	if b == nil || !b.valid || (b.pa^pc)&(mem.PageWords-1) != 0 || !b.hasTerm || b.termless {
		return false, false, 0, RefusalBlock
	}
	// Every body class compiles but a packed word outside the shapes
	// the ISA encodes (packedShape): the lean classes and the packed
	// shapes specialize, and unpacked general words run through the
	// exact executor inside the trace, just as the block engine's body
	// loop runs them. Privileged pieces refuse — they can change what
	// dispatch latched — but translation already ends a block's body
	// before any privileged word, so only the terminator needs the
	// check.
	for i := range b.code[:b.n] {
		d := &b.code[i]
		if d.bclass == bcGeneral && d.aluKind != isa.PieceNop && !packedShape(d) {
			return false, false, 0, RefusalBlock
		}
	}
	term := &b.term
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
		if nextPC == term.target && b.dsN >= 1 && dsCompilable(&b.ds[0]) {
			return true, true, 1, 0
		}
	case bcJump, bcCall:
		if nextPC == term.target && b.dsN >= 1 && dsCompilable(&b.ds[0]) {
			return true, true, 1, 0
		}
	case bcJumpInd:
		// Targets inside the two-word shadow (or just past it, where
		// the queue stays sequential and no delay slot drains) collapse
		// into shapes the flattening cannot represent; refuse.
		if nextPC == t+1 || nextPC == t+2 || nextPC == t+3 {
			return false, false, 0, RefusalJumpInd
		}
		if b.dsN == 2 && dsCompilable(&b.ds[0]) && dsCompilable(&b.ds[1]) {
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
		if nextPC == term.target && b.dsN >= 1 && dsCompilable(&b.ds[0]) {
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
		// A short path is usually transient — the block engine has not
		// chained through this entry yet, or an interrupt cut the
		// recording chain — so the entry is not poisoned: it re-earns the
		// threshold. Recording is allocation-free up to this point, so
		// retries cost only the recorded chain itself. Structural
		// failures (validation refusing the first block, compilation
		// failing) still poison.
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
	// block that cannot compile.
	var taken [traceMaxBlocks]bool
	var dsCount [traceMaxBlocks]uint8
	ops := 0
	for j := 0; j < lim; j++ {
		nextPC := pts[lim].pc
		if closed && j == lim-1 {
			nextPC = entry
		} else if j+1 < lim {
			nextPC = pts[j+1].pc
		}
		ok, tk, dc, why := validateTraceBlock(pts[j].b, pts[j].pc, nextPC)
		if !ok {
			// At most one refusal counts per recording: the first block
			// that truncates the path.
			c.refuseTrace(why, pts[j].pc)
			lim, closed = j, false
			break
		}
		ops += int(pts[j].b.n) + 1 + int(dc)
		if ops > traceMaxOps {
			c.refuseTrace(RefusalOpBudget, pts[j].pc)
			lim, closed = j, false
			break
		}
		taken[j], dsCount[j] = tk, dc
	}
	if lim < 1 {
		c.markNeverTrace(entry)
		return
	}
	endPC := pts[lim].pc
	if closed {
		endPC = entry
	}
	c.Trans.TraceFormed++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITFormed, PC: entry, Len: uint32(lim), Heat: heatThreshold})
	}

	// Pass 2: flatten to trace words with exact per-word exit queues.
	// Validation bounded the word count by traceMaxOps, so the words fit
	// a fixed array on this frame: flattening allocates nothing, and
	// compileTrace copies out everything the trace keeps.
	var buf [traceMaxOps]traceWord
	words := buf[:0]
	spans := make([]traceSpan, 0, lim)
	for j := 0; j < lim; j++ {
		b, pc := pts[j].b, pts[j].pc
		spans = append(spans, traceSpan{pa: b.pa, n: b.cover})
		for i := uint32(0); i < b.n; i++ {
			words = append(words, traceWord{d: &b.code[i], vpc: pc + i})
		}
		t := pc + b.n
		tw := traceWord{d: &b.term, vpc: t, taken: taken[j]}
		x := b.term.target // control target the recorded direction follows
		if b.term.bclass == bcJumpInd {
			x = pts[lim].pc
			if closed && j == lim-1 {
				x = entry
			} else if j+1 < lim {
				x = pts[j+1].pc
			}
			tw.x = x
		}
		words = append(words, tw)
		switch dsCount[j] {
		case 1:
			words = append(words, traceWord{d: &b.ds[0], vpc: t + 1, x: x, shape: qLast})
		case 2:
			words = append(words,
				traceWord{d: &b.ds[0], vpc: t + 1, x: x, shape: qFirst},
				traceWord{d: &b.ds[1], vpc: t + 2, x: x, shape: qLast})
		}
	}

	// Eager-load marking over the flattened path: the one-word hazard
	// window is observable only by the immediately following word, and
	// inside a trace that word is statically known even across block
	// and branch boundaries. The final word has no known successor, so
	// its load keeps the delayed commit.
	for i := range words {
		w := &words[i]
		if w.d.bclass != bcLoad || w.d.mode == isa.AModeLongImm {
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
		if (d.bclass == bcLoad && !words[i].eager && d.mode != isa.AModeLongImm) ||
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
		c.markNeverTrace(entry)
		return
	}
	c.installTrace(tr)
	c.Trans.TraceCompiled++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITCompiled, PC: entry, Len: uint32(len(tr.ins)), Heat: heatThreshold})
	}
}

// refuseTrace accounts one formation refusal: the taxonomy counter and,
// when a hook is attached, the event with the refusing block's PC.
func (c *CPU) refuseTrace(why FormRefusal, pc uint32) {
	c.Trans.TraceFormRefusals[why]++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITRefused, Reason: uint8(why), PC: pc, Heat: heatThreshold})
	}
}
