package ccarch

import "fmt"

// NumRegs is the number of general registers, matched to the MIPS model
// so compiled code is comparable.
const NumRegs = 16

// Reg names a general register.
type Reg uint8

func (r Reg) String() string { return fmt.Sprintf("r%d", r) }

// Op enumerates the instruction classes.
type Op uint8

const (
	OpNop Op = iota
	// Register operations (Table 6 weight 1).
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpMul // native multiply/divide, as on the VAX
	OpDiv
	OpMod
	OpMov // register or immediate move; sets CC only under SetOnMoves
	OpScc // conditional set: dst = cond(flags) ? 1 : 0 (needs Policy.CondSet)
	// Memory references.
	OpLd // dst = mem[base+disp] (counts as a move for CC purposes)
	OpSt // mem[base+disp] = src
	// Compares (Table 6 weight 2).
	OpCmp // flags = src1 - src2
	OpTst // flags from src1
	// Control flow (Table 6 weight 4).
	OpBcc  // branch on condition
	OpJmp  // unconditional jump
	OpCall // subroutine call (pushes return onto link register r15)
	OpRet
	OpHalt
	// Console output (host devices; not counted in any cost class).
	OpPutInt
	OpPutCh

	numOps
)

var opNames = [numOps]string{
	"nop", "add", "sub", "and", "or", "xor", "shl", "shr",
	"mul", "div", "mod", "mov", "s",
	"ld", "st", "cmp", "tst", "b", "jmp", "call", "ret", "halt",
	"putint", "putch",
}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Class is the Table 5/6 accounting class of an instruction.
type Class uint8

const (
	ClassRegOp Class = iota
	ClassCompare
	ClassBranch
	ClassMem
	ClassNone
)

// Operand is a register or immediate source.
type Operand struct {
	IsImm bool
	Reg   Reg
	Imm   int32
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm makes an immediate operand.
func Imm(v int32) Operand { return Operand{IsImm: true, Imm: v} }

func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("#%d", o.Imm)
	}
	return o.Reg.String()
}

// Instr is one instruction.
type Instr struct {
	Op   Op
	Cond Cond // for Bcc and Scc
	Dst  Reg
	Src1 Operand
	Src2 Operand
	Base Reg   // for Ld/St
	Disp int32 // for Ld/St
	// Label is the symbolic target before linking; Target the resolved
	// instruction index.
	Label  string
	Target int
}

// Class returns the accounting class.
func (in *Instr) Class() Class {
	switch in.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv, OpMod, OpMov, OpScc:
		return ClassRegOp
	case OpCmp, OpTst:
		return ClassCompare
	case OpBcc, OpJmp, OpCall, OpRet:
		return ClassBranch
	case OpLd, OpSt:
		return ClassMem
	}
	return ClassNone
}

// SetsCC reports whether the instruction updates the condition codes
// under the policy — the irregularity that makes CC machines painful to
// pipeline (§2.3).
func (in *Instr) SetsCC(p Policy) bool {
	if !p.HasCC {
		return false
	}
	switch in.Op {
	case OpCmp, OpTst:
		return true
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv, OpMod:
		return p.SetOnOps
	case OpMov, OpLd, OpScc:
		return p.SetOnMoves
	}
	return false
}

func (in *Instr) String() string {
	switch in.Op {
	case OpNop, OpRet, OpHalt:
		return in.Op.String()
	case OpBcc:
		return fmt.Sprintf("b%s %s", in.Cond, in.target())
	case OpJmp, OpCall:
		return fmt.Sprintf("%s %s", in.Op, in.target())
	case OpScc:
		return fmt.Sprintf("s%s %s", in.Cond, in.Dst)
	case OpCmp:
		return fmt.Sprintf("cmp %s, %s", in.Src1, in.Src2)
	case OpTst:
		return fmt.Sprintf("tst %s", in.Src1)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", in.Src1, in.Dst)
	case OpLd:
		return fmt.Sprintf("ld %d(%s), %s", in.Disp, in.Base, in.Dst)
	case OpSt:
		return fmt.Sprintf("st %s, %d(%s)", in.Src1, in.Disp, in.Base)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Src1, in.Src2, in.Dst)
	}
}

func (in *Instr) target() string {
	if in.Label != "" {
		return in.Label
	}
	return fmt.Sprintf("@%d", in.Target)
}

// Convenience constructors.

func Nop() Instr                     { return Instr{Op: OpNop} }
func Mov(dst Reg, src Operand) Instr { return Instr{Op: OpMov, Dst: dst, Src1: src} }
func ALU(op Op, dst Reg, a, b Operand) Instr {
	return Instr{Op: op, Dst: dst, Src1: a, Src2: b}
}
func Cmp(a, b Operand) Instr         { return Instr{Op: OpCmp, Src1: a, Src2: b} }
func Tst(a Operand) Instr            { return Instr{Op: OpTst, Src1: a} }
func Bcc(c Cond, label string) Instr { return Instr{Op: OpBcc, Cond: c, Label: label} }
func Jmp(label string) Instr         { return Instr{Op: OpJmp, Label: label} }
func Scc(c Cond, dst Reg) Instr      { return Instr{Op: OpScc, Cond: c, Dst: dst} }
func Ld(dst, base Reg, disp int32) Instr {
	return Instr{Op: OpLd, Dst: dst, Base: base, Disp: disp}
}
func St(src, base Reg, disp int32) Instr {
	return Instr{Op: OpSt, Src1: R(src), Base: base, Disp: disp}
}
func Call(label string) Instr { return Instr{Op: OpCall, Label: label} }
func Ret() Instr              { return Instr{Op: OpRet} }
func Halt() Instr             { return Instr{Op: OpHalt} }

// Program is an instruction sequence with labels.
type Program struct {
	Instrs []Instr
	Labels map[string]int // label -> instruction index
}

// Link resolves labels to instruction indices.
func (p *Program) Link() error {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case OpBcc, OpJmp, OpCall:
			if in.Label == "" {
				continue
			}
			t, ok := p.Labels[in.Label]
			if !ok {
				return fmt.Errorf("undefined label %q", in.Label)
			}
			in.Target = t
		}
	}
	return nil
}

// Builder assembles a Program incrementally.
type Builder struct {
	prog Program
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{prog: Program{Labels: make(map[string]int)}}
}

// Label binds a label to the next instruction.
func (b *Builder) Label(name string) { b.prog.Labels[name] = len(b.prog.Instrs) }

// Emit appends instructions.
func (b *Builder) Emit(ins ...Instr) { b.prog.Instrs = append(b.prog.Instrs, ins...) }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.prog.Instrs) }

// Program links and returns the built program.
func (b *Builder) Program() (*Program, error) {
	p := b.prog
	if err := p.Link(); err != nil {
		return nil, err
	}
	return &p, nil
}
