package cpu

// The trace cache: the fourth execution tier's data structures and
// their coherence machinery. A trace is a hot multi-block path — body
// words, terminators, and delay slots of several superblocks, fused
// across taken branches — compiled to one flat array of op records,
// each naming a static handler (trace_compile.go). Formation is
// profile-guided: per-entry-PC heat counters trigger a one-Step path
// recording through the block engine, and the recorded path compiles
// if every word on it can be specialized (trace_form.go).
//
// A trace is keyed by its entry PC as fetched — virtual when mapped —
// and the translation context it was formed under (mem.Context: the
// mapped flag, the segmentation registers, the page map's identity and
// generation). A matching context at dispatch proves every fetch
// translation and referenced bit the recording saw still holds, so a
// trace never translates its own words. Coherence reuses the superblock
// write barrier: a trace keeps the span list of the physical words it
// compiled from, marks them in the coverage bitmap, and writeBarrier
// drops any trace whose span covers a written physical word. Like
// chain edges, traces trust the barrier rather than
// revalidating every word per dispatch — the same harness contract as
// PR 4: rewrite IMem AND Poke physical. Traces are derived state:
// snapshots exclude them, and LoadImage/RestoreState drop them.

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

const (
	// tcEntries is the trace cache size, direct-mapped by entry PC.
	// Trace entry points are far sparser than block entries.
	tcEntries = 1 << 8

	// heatEntries sizes the direct-mapped heat table; heatThreshold is
	// how many trace-tier dispatch misses an entry PC accumulates
	// before a path recording triggers. The threshold can sit this low
	// because recordings no longer depend on how deeply the block
	// engine has chained (the recording loop resolves successors
	// through the block cache itself) and a transiently short path
	// backs off instead of poisoning, so early recording costs little
	// and short programs reach the trace tier while they still matter.
	heatEntries   = 1 << 9
	heatThreshold = 8

	// traceMaxBlocks bounds how many superblocks one recording may
	// fuse; traceMaxOps bounds the compiled op count.
	traceMaxBlocks = 16
	traceMaxOps    = 256

	// sideThreshold is how many times one op's guard must exit toward
	// the same unresolved continuation before a side stub is compiled
	// for it. Lower than heatThreshold: the parent trace being hot is
	// already established, only the exit's own heat is in question.
	sideThreshold = 16
)

// traceFn is a compiled op's handler: a static, non-capturing function
// chosen at compile time for the op's class, operand shape, and hazard
// position. It returns true to continue the trace, false after exiting
// it (having already restored the fetch queue, accounted the executed
// prefix, and raised any exception) — always at an exact instruction
// boundary.
type traceFn func(c *CPU, in *traceInst) bool

// traceInst is one compiled trace op: the handler plus every operand it
// reads, laid out flat so a trace is one contiguous record array and
// compiling it allocates per trace, never per op. Which fields an op
// uses depends on its handler.
type traceInst struct {
	fn traceFn
	// d is the op's decoded word, for packed and unclassified words
	// (bclass bcGeneral) only: it points into the trace's own dec table.
	d *decoded
	// a and b are the ALU operands, or the compare operands of a branch
	// (a alone: the target register of an indirect jump).
	a, b fastOp
	// pre is the statistics prefix of the ops before this one: what an
	// early exit here accounts, plus the exiting word's own share.
	pre traceCost
	vpc uint32
	// target is a direct control target, the recorded target of an
	// indirect jump, or, for a delay-slot word, the control target its
	// drain heads to (which its exit queues end at).
	target uint32
	// imm is a load/store displacement, absolute address, or long
	// immediate; for a nop run, its length.
	imm uint32

	dst               isa.Reg // ALU destination, or a call's link register
	data, base, index isa.Reg
	shift             uint8
	mode              isa.AddrMode
	op                isa.ALUOp
	cmp               isa.Cmp // ALU set-condition or branch compare
	shape             uint8   // exit queue shape: qSeq, qFirst, or qLast
	sx                uint8   // side slot index, for direction and indirect guards
	unary, dstRead    bool
	taken             bool // a branch's recorded direction
	eager             bool // a load's commit is unobservable: write at once
	guarded           bool // a pending load may exist here: exact reads, per-word drain
}

// Exit queue shapes of a trace word at vpc, with x the control target
// of a delay-slot drain. A shape fixes both queues an exit can leave:
// the fault-restart queue (the three return addresses an exception at
// the word saves) and the completion queue (what remains once the word
// finishes, for an exit at the following boundary).
const (
	qSeq   uint8 = iota // body word or terminator: fault [vpc, vpc+1, vpc+2], completion [vpc+1]
	qFirst              // first of two delay slots: fault [vpc, vpc+1, x], completion [vpc+1, x]
	qLast               // last delay slot: fault [vpc, x, x+1], completion [x]
)

// faultQueue returns the fetch queue a fault at in restarts with.
func (in *traceInst) faultQueue() [3]uint32 {
	switch in.shape {
	case qFirst:
		return [3]uint32{in.vpc, in.vpc + 1, in.target}
	case qLast:
		return [3]uint32{in.vpc, in.target, in.target + 1}
	}
	return [3]uint32{in.vpc, in.vpc + 1, in.vpc + 2}
}

// resumeAfter leaves the fetch queue as it stands once in has
// completed.
func (c *CPU) resumeAfter(in *traceInst) {
	switch in.shape {
	case qFirst:
		c.pcq[0], c.pcq[1], c.pcn = in.vpc+1, in.target, 2
	case qLast:
		c.pcq[0], c.pcq[1], c.pcn = in.target, 0, 1
	default:
		c.pcq[0], c.pcq[1], c.pcn = in.vpc+1, 0, 1
	}
}

// traceCost is the happy-path statistics of a run of trace words,
// precomputed at compile time: the bulk cost a clean pass adds, and per
// op the prefix an early exit accounts instead. Every trace word takes
// exactly one cycle, spent either on a data access or free, so cycles
// and free cycles derive from instr and data. The eight remaining
// counts sit in 16-bit lanes of two words (see wordCost.pack), so
// summing two costs is two adds that stay in registers: no lane can
// carry into the next, because every count stays below 1<<16
// (traceMaxOps words of at most two pieces each).
type traceCost struct{ lo, hi uint64 }

// wordCost is a cost vector in plain fields, for writing the per-word
// constants; pack converts it to the lane form.
type wordCost struct {
	instr, pieces, nops, loads, stores, branches, taken, data uint64
}

func (w wordCost) pack() traceCost {
	return traceCost{
		lo: w.instr | w.pieces<<16 | w.nops<<32 | w.loads<<48,
		hi: w.stores | w.branches<<16 | w.taken<<32 | w.data<<48,
	}
}

// plus returns the sum of two cost vectors.
func (tc traceCost) plus(o traceCost) traceCost {
	return traceCost{tc.lo + o.lo, tc.hi + o.hi}
}

// add accumulates a cost into the CPU statistics.
func (tc traceCost) add(s *Stats) {
	const lane = 1<<16 - 1
	instr, data := tc.lo&lane, tc.hi>>48
	s.Instructions += instr
	s.Cycles += instr
	s.Pieces += tc.lo >> 16 & lane
	s.Nops += tc.lo >> 32 & lane
	s.Loads += tc.lo >> 48
	s.Stores += tc.hi & lane
	s.Branches += tc.hi >> 16 & lane
	s.TakenBranches += tc.hi >> 32 & lane
	s.DataCycles += data
	s.FreeCycles += instr - data
}

// traceSpan is one contiguous instruction-memory range a trace compiled
// from (one recorded superblock's covered words).
type traceSpan struct {
	pa uint32
	n  uint32
}

// sideSlot is one compiled op's side-exit state: how hot its guard
// exits run, the side stub compiled for a branch guard's cold arm, and
// the small inline target cache of an indirect guard (MRU entry first).
// All of it is derived state rebuilt on demand: validity is checked on
// every use, and a dropped stub re-forms from live instruction memory.
type sideSlot struct {
	hot   uint32 // exits observed since the last build (sideNever: poisoned)
	br    *trace // cold-arm stub of a branch-direction guard
	icTgt [2]uint32
	ic    [2]*trace // indirect-target stubs keyed by icTgt
}

// sideNever poisons a side slot whose continuation cannot compile, so
// steady state stops re-attempting (and re-allocating) the build. A
// rebuilt parent trace allocates fresh slots.
const sideNever = ^uint32(0)

// trace is one compiled trace: its key (entry PC and translation
// context), the flat op record array, the bulk cost of a clean pass, the
// resume point after it, and the coherence spans.
type trace struct {
	pc    uint32      // entry PC as fetched (virtual when ctx is mapped)
	ctx   mem.Context // translation context the trace was formed under
	ins   []traceInst
	dec   []decoded // decoded copies of the bcGeneral words ins point at
	cost  traceCost
	words uint32 // instruction words in a clean pass: the most one pass retires
	endPC uint32 // sequential resume point after a clean pass
	spans []traceSpan

	valid   bool
	warm    bool // dispatched at least once (gates the dispatch-cold event)
	side    bool // a side stub: reached by exit-to-entry chaining, not the cache
	liveIdx int  // index in CPU.liveTraces, for swap-removal

	// sides holds the side-exit state of the ops with a direction or
	// indirect-target guard, indexed by their sx. Allocated at compile
	// time so the dispatch path never allocates; nil when no op has such
	// a guard (side stubs never do).
	sides []sideSlot

	// Per-site introspection history, written by the CPU goroutine and
	// read by TraceSites via atomic loads: dispatches, instructions
	// retired inside this trace, guard exits by reason, and exits
	// resolved in-tier (side stubs and inline caches).
	hits     uint64
	instrs   uint64
	sideHits uint64
	icHits   uint64
	deopts   [NumDeoptReasons]uint64
}

// covers reports whether a physical word address falls inside any span.
func (tr *trace) covers(addr uint32) bool {
	for _, sp := range tr.spans {
		if addr-sp.pa < sp.n {
			return true
		}
	}
	return false
}

// heatEntry is one slot of the direct-mapped heat table. boff is the
// entry's backoff exponent: a short-path refusal doubles the effective
// threshold instead of poisoning, so transient failures (the block
// engine had not chained through the entry yet) retry cheaply while
// persistent ones decay toward never without a permanent mark.
type heatEntry struct {
	pc   uint32
	n    uint32
	boff uint8
}

// threshold is the entry's effective formation threshold: the base
// threshold doubled once per backoff step.
func (h *heatEntry) threshold() uint32 { return heatThreshold << h.boff }

// heatBoffMax caps the backoff exponent: 4<<10 = 4096 misses between
// retries is close enough to never while still self-healing if the
// code around the entry changes shape.
const heatBoffMax = 10

// traceIndex is the trace-cache slot of an entry PC under a context.
// Under mapping the segmentation PID register salts it, so processes
// running the same virtual code keep their traces in different slots.
func traceIndex(pc uint32, ctx *mem.Context) uint32 {
	if ctx.Mapped {
		pid, _ := ctx.Seg.Registers()
		pc ^= pid * 0x9E3779B1 >> 24
	}
	return pc & (tcEntries - 1)
}

// traceSlot returns the trace-cache slot for an entry PC and context,
// building the cache lazily.
func (c *CPU) traceSlot(pc uint32, ctx *mem.Context) **trace {
	if c.tc == nil {
		c.tc = make([]*trace, tcEntries)
	}
	return &c.tc[traceIndex(pc, ctx)]
}

// traceAt returns the valid compiled trace entered at pc under ctx, or
// nil.
func (c *CPU) traceAt(pc uint32, ctx *mem.Context) *trace {
	if c.tc == nil {
		return nil
	}
	if tr := c.tc[traceIndex(pc, ctx)]; tr != nil && tr.valid && tr.pc == pc && tr.ctx == *ctx {
		return tr
	}
	return nil
}

// installTrace places a compiled trace in the cache, evicting any slot
// occupant, and arms the write barrier over its spans.
func (c *CPU) installTrace(tr *trace) {
	c.lockTraces()
	slot := c.traceSlot(tr.pc, &tr.ctx)
	if old := *slot; old != nil {
		c.dropTrace(old)
	}
	*slot = tr
	tr.valid = true
	tr.liveIdx = len(c.liveTraces)
	c.liveTraces = append(c.liveTraces, tr)
	c.unlockTraces()
	for _, sp := range tr.spans {
		c.coverWords(sp.pa, sp.n)
	}
	c.armBarrier()
}

// installSideTrace registers a side stub with the live list and the
// write barrier but not the trace cache: a stub's entry is reached with
// a non-sequential fetch queue (mid delay-slot drain), so it must never
// be found by a plain head-of-queue lookup — only by the exit-to-entry
// wiring in its parent's side slot.
func (c *CPU) installSideTrace(tr *trace) {
	c.lockTraces()
	tr.valid = true
	tr.liveIdx = len(c.liveTraces)
	c.liveTraces = append(c.liveTraces, tr)
	c.unlockTraces()
	for _, sp := range tr.spans {
		c.coverWords(sp.pa, sp.n)
	}
	c.armBarrier()
}

// dropTrace invalidates a trace and removes it from the live list.
// Callers under ShareTraces hold the trace mutex (install, barrier,
// bulk invalidation all lock before dropping).
func (c *CPU) dropTrace(tr *trace) {
	if !tr.valid {
		return
	}
	tr.valid = false
	last := len(c.liveTraces) - 1
	moved := c.liveTraces[last]
	c.liveTraces[tr.liveIdx] = moved
	moved.liveIdx = tr.liveIdx
	c.liveTraces[last] = nil
	c.liveTraces = c.liveTraces[:last]
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITInvalidated, PC: tr.pc, Len: uint32(len(tr.ins))})
	}
}

// InvalidateTraces drops every compiled trace and resets the heat
// table. Whole-image reloads and state restores call it so traces never
// outlive the code they were compiled from; the write barrier handles
// everything in between.
func (c *CPU) InvalidateTraces() {
	c.lockTraces()
	emit := c.onJIT != nil
	for _, tr := range c.liveTraces {
		tr.valid = false
		if emit {
			c.emitJIT(JITEvent{Kind: JITInvalidated, PC: tr.pc, Len: uint32(len(tr.ins))})
		}
	}
	clear(c.liveTraces)
	c.liveTraces = c.liveTraces[:0]
	for i := range c.tc {
		c.tc[i] = nil
	}
	c.unlockTraces()
	for i := range c.heat {
		c.heat[i] = heatEntry{}
	}
	c.trec.active = false
	c.trec.n = 0
	clear(c.trec.pts[:])
}
