package cpu

// Predecoded instruction records: the flat format the superblock and
// trace tiers store. The reference interpreter (execWord) re-examines an
// instruction word's pieces — two pointer indirections, a kind switch,
// operand unwrapping, privilege and nop classification — on every
// execution. Block translation does that work once per word and keeps
// the result as a decoded record, so block bodies, delay slots and
// compiled trace ops run over flat records with no pointer chasing.
// Every record keeps the word it was decoded from (src): the tiers
// validate it against live instruction memory, and words with no lean
// form run from it through execWord, the one per-instruction executor.

import "mips/internal/isa"

// decoded flags.
const (
	fNop  uint8 = 1 << iota // the word performs no work
	fPriv                   // some piece requires supervisor privilege
	// fEager marks a block-body load whose delayed commit is
	// statically unobservable (the next word neither reads the
	// destination nor can stop the machine), so the block engine
	// writes the register immediately. Set only on block-body
	// records.
	fEager
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

// decoded is the flat executable record of one instruction word. src is
// the word it was decoded from; the rest is everything execution needs,
// laid out without indirection.
type decoded struct {
	src isa.Instr

	flags uint8
	// bclass is the lean execution class the superblock engine assigns
	// at block translation (blockcache.go); bcGeneral, which runs the
	// word through execWord, is always safe.
	bclass uint8
	// nopRun is the length of the consecutive nop run starting at this
	// word, set only on block-body records: the block engine retires a
	// whole run with bulk accounting when nothing can observe the
	// intermediate cycles.
	nopRun uint8

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
// exactly what execWord reads from the pieces.
func decodeWord(d *decoded, in isa.Instr) {
	*d = decoded{src: in, aluKind: isa.PieceNop, memKind: isa.PieceNop}
	if in.IsNop() {
		d.flags |= fNop
	}
	if p := in.ALU; p != nil {
		if p.Privileged() {
			d.flags |= fPriv
		}
		if !p.IsNop() {
			d.aluKind = p.Kind
			d.aluOp = p.Op
			d.aluUnary = p.Op.Unary()
			d.aluDstRead = p.Op == isa.OpMStep || p.Op == isa.OpDStep
			d.aluDst = p.Dst
			d.aluCmp = p.Cmp
			d.a1 = mkFastOp(p.Src1)
			d.a2 = mkFastOp(p.Src2)
		}
	}
	if p := in.Mem; p != nil {
		if p.Privileged() {
			d.flags |= fPriv
		}
		if !p.IsNop() {
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
	}
}
