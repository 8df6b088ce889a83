package cpu

// Predecoded instruction records: the trace compiler's input format.
// The reference interpreter (execWord) re-examines an instruction
// word's pieces — two pointer indirections, a kind switch, operand
// unwrapping, privilege and nop classification — on every execution,
// and blocks cache the words themselves. Trace formation does that work
// once per word of a recorded path, decoding the recorded blocks' words
// into flat records on its own frame, from which compileTrace picks
// each word's handler and copies its operands, so compiled trace ops
// run with no pointer chasing. Only formation builds these records.

import "mips/internal/isa"

// decoded flags.
const (
	fNop  uint8 = 1 << iota // the word performs no work
	fPriv                   // some piece requires supervisor privilege
)

// fastOp is a predecoded operand: either an immediate value, already
// widened, or a register number.
type fastOp struct {
	imm bool
	reg isa.Reg
	val uint32
}

func mkFastOp(o isa.Operand) fastOp {
	if o.IsImm {
		return fastOp{imm: true, val: uint32(o.Imm)}
	}
	return fastOp{reg: o.Reg}
}

// decoded is the flat record of one instruction word: everything its
// compiled op needs, laid out without indirection.
type decoded struct {
	flags uint8
	// bclass is the word's class (wordClass); bcGeneral claims nothing
	// of the word, so it is always safe.
	bclass uint8

	// ALU slot (PieceALU or PieceSetCond); PieceNop when absent.
	aluKind    isa.PieceKind
	aluOp      isa.ALUOp
	aluUnary   bool
	aluDstRead bool // multiply/divide steps read the destination
	aluDst     isa.Reg
	aluCmp     isa.Cmp
	a1, a2     fastOp

	// Memory/control slot; PieceNop when absent.
	memKind isa.PieceKind
	mode    isa.AddrMode
	memCmp  isa.Cmp
	data    isa.Reg
	base    isa.Reg
	index   isa.Reg
	shift   uint8
	linkDst isa.Reg
	disp    int32
	target  uint32
	m1, m2  fastOp
}

// decodeWord fills d with the flat record for the word in. It mirrors
// exactly what execWord reads from the pieces, except that a word whose
// only piece is a long-immediate load is recorded as the ALU move it
// executes as.
func decodeWord(d *decoded, in isa.Instr) {
	*d = decoded{bclass: wordClass(in), aluKind: isa.PieceNop, memKind: isa.PieceNop}
	if in.IsNop() {
		d.flags |= fNop
	}
	if privileged(in) {
		d.flags |= fPriv
	}
	if p := in.ALU; p != nil && !p.IsNop() {
		d.aluKind = p.Kind
		d.aluOp = p.Op
		d.aluUnary = p.Op.Unary()
		d.aluDstRead = p.Op == isa.OpMStep || p.Op == isa.OpDStep
		d.aluDst = p.Dst
		d.aluCmp = p.Cmp
		d.a1 = mkFastOp(p.Src1)
		d.a2 = mkFastOp(p.Src2)
	}
	if p := in.Mem; p != nil && !p.IsNop() {
		d.memKind = p.Kind
		d.mode = p.Mode
		d.memCmp = p.Cmp
		d.data = p.Data
		d.base = p.Base
		d.index = p.Index
		d.shift = p.Shift
		d.linkDst = p.Dst
		d.disp = p.Disp
		d.target = uint32(p.Target)
		d.m1 = mkFastOp(p.Src1)
		d.m2 = mkFastOp(p.Src2)
	}
	if d.memKind == isa.PieceLoad && d.mode == isa.AModeLongImm && d.aluKind == isa.PieceNop {
		// The constant comes from the instruction stream, not the data
		// port: no data cycle and no load delay, as for a move.
		d.memKind = isa.PieceNop
		d.aluKind, d.aluOp, d.aluUnary, d.aluDst = isa.PieceALU, isa.OpMov, true, d.data
		d.a1 = fastOp{imm: true, val: uint32(d.disp)}
	}
}
