// Package reorg is the postpass code reorganizer of paper §4.2.1. MIPS
// has no pipeline interlocks, so the functions interlock hardware would
// provide are imposed by software here:
//
//  1. Reorganization: per-basic-block list scheduling over a machine-
//     level dependency DAG, reordering pieces to cover the load delay and
//     inserting no-ops only when nothing legal can issue.
//  2. Packing: merging independent ALU-class and memory-class pieces
//     into single 32-bit instruction words.
//  3. Branch-delay optimization: filling the delay slot after every
//     control transfer with useful work by the paper's three schemes —
//     move an independent instruction from before the branch; duplicate
//     the head of a backward loop and retarget; or hoist the fall-through
//     successor when its result is dead on the taken path.
//
// The input is a Unit of sequential-semantics statements (one piece
// each, as the compiler emits them); the output is a Unit whose
// statements are pipeline-correct instruction words ready to assemble.
// Statements marked NoReorg pass through untouched, as do pre-packed
// words: the front end has already scheduled them.
package reorg

import (
	"mips/internal/asm"
	"mips/internal/isa"
)

// Options selects which of the three optimizations run. The zero value
// performs only correctness transformation: no-ops are inserted wherever
// the pipeline needs them, in original program order — the "None" row of
// the paper's Table 11.
type Options struct {
	// Reorganize enables DAG scheduling within basic blocks.
	Reorganize bool
	// Pack enables merging pieces into shared instruction words.
	Pack bool
	// FillDelay enables the three branch-delay schemes.
	FillDelay bool
	// AssumeInterlocks targets the counterfactual machine with hardware
	// load interlocks (cpu.CPU.Interlocked): the load-use spacing rules
	// are dropped, so no load no-ops are emitted — the hardware stalls
	// instead. Branch delay slots remain (they are architectural either
	// way). Used by the ablation experiments.
	AssumeInterlocks bool
}

// All enables every optimization: the full reorganizer.
func All() Options { return Options{Reorganize: true, Pack: true, FillDelay: true} }

// loadGap returns the minimum word spacing from a load to its consumer:
// two on the real machine (one instruction between), one when hardware
// interlocks are assumed.
func (o Options) loadGap() int {
	if o.AssumeInterlocks {
		return 1
	}
	return 1 + isa.LoadDelay
}

// Stats reports what the reorganizer did.
type Stats struct {
	InputPieces int // non-nop pieces in
	OutputWords int // instruction words out
	Nops        int // no-op words emitted
	PackedWords int // words carrying two pieces
	DelayFilled int // delay slots filled with useful work
	DelaySlots  int // total delay slots emitted
	SchemeMoved int // slots filled by moving a prior instruction (scheme 1)
	SchemeLoop  int // slots filled by duplicating a loop head (scheme 2)
	SchemeHoist int // slots filled by hoisting the fall-through (scheme 3)
}

// Reorganize transforms a unit under the given options. The result is a
// new unit; the input is not modified.
func Reorganize(u *asm.Unit, opt Options) (*asm.Unit, Stats) {
	var st Stats
	for i := range u.Stmts {
		for j := range u.Stmts[i].Pieces {
			if !u.Stmts[i].Pieces[j].IsNop() {
				st.InputPieces++
			}
		}
	}

	out := &asm.Unit{
		Stmts:      schedule(u.Stmts, opt, &st),
		Data:       append([]asm.DataItem(nil), u.Data...),
		DataLabels: u.DataLabels,
		Entry:      u.Entry,
		TextBase:   u.TextBase,
	}
	if opt.FillDelay {
		fillDelaysGlobal(out, &st)
	}

	for i := range out.Stmts {
		s := &out.Stmts[i]
		st.OutputWords++
		if len(s.Pieces) == 2 {
			st.PackedWords++
		}
		if len(s.Pieces) == 1 && s.Pieces[0].IsNop() {
			st.Nops++
		}
	}
	return out, st
}

// schedule turns a unit's statements into pipeline-correct words, block
// by block. Every emitted word's pieces are the output's own.
func schedule(stmts []asm.Stmt, opt Options, st *Stats) []asm.Stmt {
	n := len(stmts)
	sc := &scheduler{opt: opt, st: st, slab: make([]isa.Piece, 0, n+n/4+16)}
	out := make([]asm.Stmt, 0, n+n/2)
	for _, b := range splitBlocks(stmts) {
		out = sc.scheduleBlock(out, b)
	}
	return out
}

// WordCount returns the number of instruction words a unit assembles to,
// the static count Table 11 compares.
func WordCount(u *asm.Unit) int { return len(u.Stmts) }

// aluClass reports whether a piece occupies the ALU slot of a word.
func aluClass(p *isa.Piece) bool {
	return p.Kind == isa.PieceALU || p.Kind == isa.PieceSetCond
}

// sideEffectFree reports whether executing the piece spuriously (on a
// path where its result is dead) is harmless: no memory traffic that
// could fault, no control transfer, no byte-selector write. Arithmetic
// that could overflow is allowed, matching the paper's own Figure 4
// (which speculates a subtract): the reorganizer assumes compiled code
// runs with overflow detection configured to tolerate it.
//
// One class of load is also speculable: a displacement load off the
// stack pointer. The process's own frame is always resident, so the
// spurious read cannot fault and has no visible effect beyond a dead
// register.
func sideEffectFree(p *isa.Piece) bool {
	switch p.Kind {
	case isa.PieceALU:
		return !p.WritesLo()
	case isa.PieceSetCond:
		return true
	case isa.PieceLoad:
		return p.Mode == isa.AModeLongImm ||
			(p.Mode == isa.AModeDisp && p.Base == isa.RegSP)
	}
	return false
}
