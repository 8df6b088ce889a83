package cpu

// The trace tier's data structures and their coherence machinery. A
// trace is a hot multi-block path — body words, terminators, and delay
// slots of several superblocks, fused across taken branches — compiled
// to one flat array of op records, each naming a static handler
// (trace_compile.go). Formation is profile-guided: a heat count at each
// entry word (pubEntry.heat) triggers a one-Step path recording through the
// block engine, and the recorded path compiles if every word on it can
// be specialized (trace_form.go).
//
// A trace lives on its entry block (block.tr) in the one table of
// translations, so finding it costs what finding the block does: the
// entry's fetch translation when mapped, then one table read. Each
// block holds at most one trace, keyed by its entry PC as fetched —
// virtual when mapped — and the translation context it was formed under
// (mem.Context: the mapped flag, the segmentation registers, the page
// map's identity and generation). Processes running the same virtual
// code from distinct frames enter distinct blocks, so each keeps its
// own traces. A matching context at dispatch proves every fetch
// translation and referenced bit the recording saw still holds, so a
// trace never translates its own words. Coherence is the superblock
// engine's: a trace keeps the span list of the instruction-memory words
// it compiled from, and a code write (CPU.WriteCode, CPU.ReplaceCode)
// drops every trace whose spans meet the written range. Code changes
// only through those writers, so no trace revalidates its words at
// dispatch. Traces are derived state: snapshots exclude them, and
// RestoreState drops them. An unmapped trace depends on code alone, so
// a machine publishes its immutable part (traceCode) on the golden code
// it runs on for the others to adopt with the entry's block.

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

const (
	// heatThreshold is how many trace-tier dispatch misses an entry
	// accumulates on a golden code, summed over the machines running on
	// it (pubEntry.heat), before a path recording triggers.
	// The threshold can sit this low because recordings do not depend
	// on how deeply the block engine has chained before (every chain
	// step resolves its successor through the block table) and a
	// transiently short path is retried instead of poisoned, so early
	// recording costs little and short programs reach the trace tier
	// while they still matter.
	heatThreshold = 8

	// traceMaxBlocks bounds how many superblocks one recording may
	// fuse; traceMaxOps bounds the compiled op count.
	traceMaxBlocks = 16
	traceMaxOps    = 256
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
	// a and b are the ALU operands, or the compare operands of a branch
	// (a alone: the target register of an indirect jump).
	a, b fastOp
	// pre is the statistics prefix of the ops before this one: what an
	// early exit here accounts, plus the exiting word's own share.
	pre traceCost
	vpc uint32
	// target is a direct control target, the recorded target of an
	// indirect jump, or, for a delay-slot word, the control target its
	// fetch queue heads to (which its exit queues end at).
	target uint32
	// imm is a load/store displacement or absolute address.
	imm uint32

	dst               isa.Reg // ALU destination, or a call's link register
	data, base, index isa.Reg
	shift             uint8
	mode              isa.AddrMode
	op                isa.ALUOp
	cmp               isa.Cmp // ALU set-condition or branch compare
	// flags holds the exit queue shape (qSeq, qFirst or qLast) in its
	// low bits and the tf* attributes above them. A packed word keeps
	// both its pieces in the fields above: its computation piece where
	// an ALU word keeps one, its memory piece where a load or store
	// does.
	flags uint8
}

// Exit queue shapes of a trace word at vpc, with x the control target
// a delay slot's fetch queue heads to. A shape fixes the fault-restart
// queue: the three return addresses an exception at the word saves.
const (
	qSeq   uint8 = iota // body word or terminator: [vpc, vpc+1, vpc+2]
	qFirst              // first of two delay slots: [vpc, vpc+1, x]
	qLast               // last delay slot: [vpc, x, x+1]

	qShapeMask = 3
)

// The attribute bits of traceInst.flags.
const (
	tfUnary   uint8 = 1 << (2 + iota) // the ALU op reads one operand
	tfDstRead                         // the ALU op reads its destination (multiply and divide steps)
	tfTaken                           // a branch's recorded direction
	tfEager                           // a load's commit is unobservable: write at once
	tfStore                           // a packed word's memory piece stores
	tfSetCond                         // a packed word's computation piece is a set-condition
)

// flagIf returns f when on holds, else no bits.
func flagIf(on bool, f uint8) uint8 {
	if on {
		return f
	}
	return 0
}

// faultQueue returns the fetch queue a fault at in restarts with.
func (in *traceInst) faultQueue() [3]uint32 {
	switch in.flags & qShapeMask {
	case qFirst:
		return [3]uint32{in.vpc, in.vpc + 1, in.target}
	case qLast:
		return [3]uint32{in.vpc, in.target, in.target + 1}
	}
	return [3]uint32{in.vpc, in.vpc + 1, in.vpc + 2}
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

// traceCode is a compiled trace's immutable part: its key (entry PC and
// translation context), the flat op record array, the bulk cost of a
// clean pass, the resume point after it, and the coherence spans. An
// unmapped trace is built from code alone, so any machine on the
// golden code it was formed on may adopt it (GoldenCode's published
// table).
type traceCode struct {
	pc  uint32      // entry PC as fetched (virtual when ctx is mapped)
	ctx mem.Context // translation context the trace was formed under
	// ins holds one op per word of a clean pass, so its length is the
	// most one pass retires.
	ins   []traceInst
	cost  traceCost
	endPC uint32 // sequential resume point after a clean pass
	spans []traceSpan
}

// trace is one machine's compiled trace: the shared traceCode plus the
// history only this machine writes.
type trace struct {
	*traceCode

	warm    bool // dispatched at least once (gates the dispatch-cold event)
	adopted bool // taken from the published table, not formed here

	// Per-site introspection history, for TraceSites: dispatches,
	// instructions retired inside this trace, and guard exits by reason.
	hits   uint64
	instrs uint64
	deopts [NumDeoptReasons]uint64
}

// covers reports whether any span meets the n words at pa.
func (tr *traceCode) covers(pa, n uint32) bool {
	for _, sp := range tr.spans {
		if sp.pa < pa+n && pa < sp.pa+sp.n {
			return true
		}
	}
	return false
}

// traceFor returns the compiled trace entered at pc under ctx, if b, the
// block (or nil) in pc's table slot, holds one.
func (b *block) traceFor(pc uint32, ctx *mem.Context) *trace {
	if b == nil {
		return nil
	}
	if tr := b.tr; tr != nil && tr.pc == pc && tr.ctx == *ctx {
		return tr
	}
	return nil
}

// installTrace hangs a compiled trace on its entry block, replacing the
// trace the block held before.
func (c *CPU) installTrace(b *block, tr *trace) {
	if b.tr != nil {
		c.dropTrace(b)
	}
	b.tr = tr
}

// dropTrace takes the compiled trace off b, which holds one.
func (c *CPU) dropTrace(b *block) {
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITInvalidated, PC: b.tr.pc, Len: uint32(len(b.tr.ins))})
	}
	b.tr = nil
}
