package reorg

import (
	"mips/internal/asm"
	"mips/internal/isa"
)

// block is a maximal straight-line statement sequence: it starts at a
// label (or the unit head) and ends at a control transfer or just before
// the next label. Its statements are a read-only window into the input
// unit; only the first can carry labels. NoReorg statements form blocks
// of their own that the scheduler passes through.
type block struct {
	stmts   []asm.Stmt
	noReorg bool
}

// splitBlocks partitions statements into basic blocks. Reorganization is
// done strictly within blocks (paper §4.2.1: "All code reorganization is
// done on a basic block basis").
func splitBlocks(stmts []asm.Stmt) []block {
	var blocks []block
	start := 0
	cut := func(end int) {
		if end > start {
			blocks = append(blocks, block{stmts: stmts[start:end:end], noReorg: stmts[start].NoReorg})
			start = end
		}
	}
	for i := range stmts {
		s := &stmts[i]
		if len(s.Labels) > 0 || s.NoReorg != stmts[start].NoReorg {
			cut(i)
		}
		if stmtControl(s) != nil {
			cut(i + 1)
		}
	}
	cut(len(stmts))
	return blocks
}

// stmtControl returns the control-flow piece of a statement, if any.
func stmtControl(s *asm.Stmt) *isa.Piece {
	for i := range s.Pieces {
		if s.Pieces[i].IsControl() {
			return &s.Pieces[i]
		}
	}
	return nil
}

// regMask is a register set: bits 0..15 the general registers, bit 16
// the byte selector.
type regMask uint32

const loBit regMask = 1 << 16

// allRegs has every register live — the conservative value at calls,
// indirect jumps, and traps.
const allRegs regMask = 1<<17 - 1

func maskOf(r isa.Reg) regMask { return 1 << r }

// pieceUses returns the registers a piece reads.
func pieceUses(p *isa.Piece) regMask {
	var m regMask
	var buf [3]isa.Reg
	for _, r := range p.Uses(buf[:0]) {
		m |= maskOf(r)
	}
	if p.ReadsLo() {
		m |= loBit
	}
	return m
}

// pieceDefs returns the registers a piece writes.
func pieceDefs(p *isa.Piece) regMask {
	var m regMask
	if d, ok := p.Defs(); ok {
		m |= maskOf(d)
	}
	if p.WritesLo() {
		m |= loBit
	}
	return m
}

// stmtUses and stmtDefs aggregate over a (possibly packed) statement.
// Within one word all reads happen before all writes, so the union is
// exact for liveness.
func stmtUses(s *asm.Stmt) regMask {
	var m regMask
	for i := range s.Pieces {
		m |= pieceUses(&s.Pieces[i])
	}
	return m
}

func stmtDefs(s *asm.Stmt) regMask {
	var m regMask
	for i := range s.Pieces {
		m |= pieceDefs(&s.Pieces[i])
	}
	return m
}
