package isa

import "fmt"

// Instr is one 32-bit instruction word. A word holds up to two pieces:
// an ALU-class piece (ALU operation or set-conditionally) and a
// memory/control-class piece (load, store, jump, or call). The combined
// instruction "can behave much like an auto increment or decrement
// addressing mode" (paper §3.3): the memory piece reads its address
// registers before the ALU piece's result is written back, and a faulting
// memory reference suppresses the ALU write so the instruction restarts
// cleanly.
//
// Compare-and-branch, trap, indirect jump, and special-register pieces
// occupy a full word: the branch needs the ALU for its comparison, and
// the others are rare enough that dedicating a word keeps decode simple.
type Instr struct {
	// ALU is the ALU-class piece, or nil.
	ALU *Piece
	// Mem is the memory/control-class piece, or nil. A full-word piece
	// (branch, trap, indirect jump, special) lives here with ALU nil.
	Mem *Piece
}

// Word wraps a single piece in an instruction word.
func Word(p Piece) Instr {
	q := p
	if aluClass(&q) {
		return Instr{ALU: &q}
	}
	return Instr{Mem: &q}
}

// NopWord is an instruction word containing only a no-op.
func NopWord() Instr { p := Nop(); return Instr{Mem: &p} }

// aluClass reports whether the piece occupies the ALU slot of a word.
func aluClass(p *Piece) bool {
	return p.Kind == PieceALU || p.Kind == PieceSetCond
}

// memClass reports whether the piece can occupy the memory/control slot
// of a packed word. Calls do not fit: the packed half has no room for a
// link register plus a useful target field.
func memClass(p *Piece) bool {
	switch p.Kind {
	case PieceLoad, PieceStore, PieceJump:
		return true
	}
	return false
}

// FullWord reports whether the piece requires an entire instruction word
// to itself. The packed halves are bit-constrained (see Encode): the
// ALU half is a two-address form (destination doubles as first source)
// with a four-bit immediate; the memory half is displacement(base) with
// a four-bit displacement, or a short direct jump or call.
func FullWord(p *Piece) bool {
	switch p.Kind {
	case PieceBranch, PieceJumpInd, PieceTrap, PieceSpecial, PieceNop:
		return true
	case PieceLoad, PieceStore:
		// Only the short-displacement form fits the packed memory half.
		if p.Mode != AModeDisp {
			return true
		}
		return p.Disp < 0 || p.Disp > packedDispMax
	case PieceALU:
		if p.Op == OpMovLo {
			return true // writes the byte selector; keep decode simple
		}
		if !p.Op.Unary() && (p.Src1.IsImm || !p.Src2.FitsPacked() || p.Src1.Reg != p.Dst) {
			// Two-address restriction: dst op= src2.
			return true
		}
		if p.Op.Unary() && (p.Src1.IsImm || p.Src1.Reg != p.Dst) {
			// Unary packed form: dst = op dst.
			return true
		}
		return false
	case PieceSetCond:
		// Packed conditional set: dst = cmp(dst, s2), four-bit immediate.
		return p.Src1.IsImm || p.Src1.Reg != p.Dst || !p.Src2.FitsPacked()
	}
	return false
}

// packedDispMax is the largest displacement representable in the short
// displacement field of a packed load/store half.
const packedDispMax = 15

// PackedJumpRange is the PC-relative reach of a jump or call riding in
// a packed memory half (12-bit signed field).
const PackedJumpRange = 1 << 11

// CanPack reports whether an ALU-class piece and a memory/control-class
// piece may share one instruction word. Beyond the slot classes, the
// packed halves have short immediate fields, the two pieces must not
// write the same register, and a load must not feed the ALU piece in the
// same word (its data arrives a full load delay later).
func CanPack(alu, mem *Piece) bool {
	if alu == nil || mem == nil {
		return false
	}
	if !aluClass(alu) || !memClass(mem) || FullWord(alu) || FullWord(mem) {
		return false
	}
	// Conflicting register writes are undefined on the real machine;
	// the packer must never create them.
	ad, aok := alu.Defs()
	md, mok := mem.Defs()
	if aok && mok && ad == md {
		return false
	}
	// A load packed with an ALU piece that reads the loaded register
	// would read the stale value; keep such pairs apart.
	if mem.Kind == PieceLoad && mok {
		var buf [2]Reg
		for _, u := range alu.Uses(buf[:0]) {
			if u == md {
				return false
			}
		}
	}
	return true
}

// Pack combines two pieces into one instruction word, in either argument
// order. It returns false if the pieces cannot share a word. Commutative
// ALU pieces whose destination matches the second source are swapped
// into the two-address form the packed half encodes. A rejected pairing
// allocates nothing.
func Pack(a, b Piece) (Instr, bool) {
	a = normalizePacked(a)
	b = normalizePacked(b)
	switch {
	case CanPack(&a, &b):
	case CanPack(&b, &a):
		a, b = b, a
	default:
		return Instr{}, false
	}
	alu, mem := a, b
	return Instr{ALU: &alu, Mem: &mem}, true
}

// normalizePacked swaps the sources of a commutative ALU piece when that
// turns it into the packable dst-equals-first-source form.
func normalizePacked(p Piece) Piece {
	if p.Kind != PieceALU || p.Op.Unary() {
		return p
	}
	switch p.Op {
	case OpAdd, OpAnd, OpOr, OpXor:
	default:
		return p
	}
	if !p.Src2.IsImm && p.Src2.Reg == p.Dst && (p.Src1.IsImm || p.Src1.Reg != p.Dst) && p.Src1.FitsPacked() {
		p.Src1, p.Src2 = p.Src2, p.Src1
	}
	return p
}

// Pieces appends the word's pieces in execution order (ALU slot first,
// then the memory/control slot) and returns the extended slice.
func (in Instr) Pieces(dst []*Piece) []*Piece {
	if in.ALU != nil {
		dst = append(dst, in.ALU)
	}
	if in.Mem != nil {
		dst = append(dst, in.Mem)
	}
	return dst
}

// Packed reports whether the word holds two pieces.
func (in Instr) Packed() bool { return in.ALU != nil && in.Mem != nil }

// IsNop reports whether the word performs no work.
func (in Instr) IsNop() bool {
	if in.ALU != nil && !in.ALU.IsNop() {
		return false
	}
	if in.Mem != nil && !in.Mem.IsNop() {
		return false
	}
	return true
}

// Control returns the control-flow piece of the word, if any.
func (in Instr) Control() *Piece {
	if in.Mem != nil && in.Mem.IsControl() {
		return in.Mem
	}
	return nil
}

// MemRef returns the data-memory-referencing piece of the word, if any.
// Instruction words without one leave their data memory cycle free for
// DMA, I/O, or cache write-backs (paper §3.1).
func (in Instr) MemRef() *Piece {
	if in.Mem != nil && in.Mem.IsMem() {
		return in.Mem
	}
	return nil
}

// Validate checks the word's pieces and packing constraints.
func (in Instr) Validate() error {
	if in.ALU == nil && in.Mem == nil {
		return fmt.Errorf("empty instruction word")
	}
	if in.ALU != nil {
		if err := in.ALU.Validate(); err != nil {
			return err
		}
	}
	if in.Mem != nil {
		if err := in.Mem.Validate(); err != nil {
			return err
		}
	}
	if in.Packed() {
		if !CanPack(in.ALU, in.Mem) {
			return fmt.Errorf("illegal packing: %s | %s", in.ALU, in.Mem)
		}
	} else if in.ALU != nil && !aluClass(in.ALU) {
		return fmt.Errorf("%s is not an ALU-class piece", in.ALU)
	}
	return nil
}

func (in Instr) String() string {
	switch {
	case in.Packed():
		return in.ALU.String() + " | " + in.Mem.String()
	case in.ALU != nil:
		return in.ALU.String()
	case in.Mem != nil:
		return in.Mem.String()
	}
	return "<empty>"
}
