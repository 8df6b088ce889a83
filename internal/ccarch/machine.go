package ccarch

import (
	"errors"
	"fmt"
	"strings"
)

// ErrHalted is returned once the machine executes halt.
var ErrHalted = errors.New("ccarch: halted")

// Stats accumulates dynamic instruction counts by accounting class, the
// quantities Tables 5 and 6 weigh.
type Stats struct {
	Instructions uint64
	RegOps       uint64
	Compares     uint64
	Branches     uint64 // executed control-flow instructions
	TakenBranch  uint64
	MemRefs      uint64
}

// Weights are the Table 6 cost weights: "register operations take time
// 1, compares take time 2, and branches take time 4". Memory references
// carry the Table 9 memory cost.
type Weights struct {
	RegOp, Compare, Branch, Mem float64
}

// PaperWeights returns the Table 6 weighting.
func PaperWeights() Weights { return Weights{RegOp: 1, Compare: 2, Branch: 4, Mem: 4} }

// Cost applies the weights to the dynamic counts.
func (s Stats) Cost(w Weights) float64 {
	return float64(s.RegOps)*w.RegOp + float64(s.Compares)*w.Compare +
		float64(s.Branches)*w.Branch + float64(s.MemRefs)*w.Mem
}

// StaticCost applies the weights to a program's static instructions.
func StaticCost(p *Program, w Weights) float64 {
	var total float64
	for i := range p.Instrs {
		switch p.Instrs[i].Class() {
		case ClassRegOp:
			total += w.RegOp
		case ClassCompare:
			total += w.Compare
		case ClassBranch:
			total += w.Branch
		case ClassMem:
			total += w.Mem
		}
	}
	return total
}

// Machine executes programs under a policy.
type Machine struct {
	Policy Policy
	Regs   [NumRegs]uint32
	Flags  Flags
	Mem    []uint32
	Stats  Stats
	// Out collects console output from the put instructions.
	Out strings.Builder

	pc     int
	link   []int // call stack
	halted bool
}

// NewMachine returns a machine with the given memory size in words.
func NewMachine(p Policy, memWords int) *Machine {
	return &Machine{Policy: p, Mem: make([]uint32, memWords)}
}

func (m *Machine) operand(o Operand) uint32 {
	if o.IsImm {
		return uint32(o.Imm)
	}
	return m.Regs[o.Reg]
}

// ccTable records, per opcode, whether an instruction with that opcode
// sets the condition codes under a policy.
type ccTable [numOps]bool

func newCCTable(p Policy) (t ccTable) {
	for op := range t {
		in := Instr{Op: Op(op)}
		t[op] = in.SetsCC(p)
	}
	return t
}

// Run executes the program from instruction 0 until halt or the step
// limit. Which opcodes set the condition codes is decided once, from the
// policy at entry.
func (m *Machine) Run(p *Program, maxSteps uint64) error {
	m.pc = 0
	m.halted = false
	sets := newCCTable(m.Policy)
	for steps := uint64(0); ; steps++ {
		if steps >= maxSteps {
			return fmt.Errorf("ccarch: step limit exceeded at pc=%d", m.pc)
		}
		if err := m.step(p, &sets); err != nil {
			if errors.Is(err, ErrHalted) {
				return nil
			}
			return err
		}
	}
}

// Step executes one instruction.
func (m *Machine) Step(p *Program) error {
	sets := newCCTable(m.Policy)
	return m.step(p, &sets)
}

// step executes one instruction; sets says which opcodes update the
// condition codes.
func (m *Machine) step(p *Program, sets *ccTable) error {
	if m.halted {
		return ErrHalted
	}
	if m.pc < 0 || m.pc >= len(p.Instrs) {
		return fmt.Errorf("ccarch: pc %d out of range", m.pc)
	}
	in := &p.Instrs[m.pc]
	m.pc++
	m.Stats.Instructions++

	setFlags := func(f Flags) {
		if sets[in.Op] {
			m.Flags = f
		}
	}

	switch in.Op {
	case OpNop:
	case OpAdd:
		a, b := m.operand(in.Src1), m.operand(in.Src2)
		m.Regs[in.Dst] = a + b
		m.Stats.RegOps++
		setFlags(fromAdd(a, b))
	case OpSub:
		a, b := m.operand(in.Src1), m.operand(in.Src2)
		m.Regs[in.Dst] = a - b
		m.Stats.RegOps++
		setFlags(fromSub(a, b))
	case OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv, OpMod:
		a, b := m.operand(in.Src1), m.operand(in.Src2)
		var v uint32
		switch in.Op {
		case OpAnd:
			v = a & b
		case OpOr:
			v = a | b
		case OpXor:
			v = a ^ b
		case OpShl:
			v = a << (b & 31)
		case OpShr:
			v = a >> (b & 31)
		case OpMul:
			v = uint32(int32(a) * int32(b))
		case OpDiv:
			if b == 0 {
				return fmt.Errorf("ccarch: division by zero at pc=%d", m.pc-1)
			}
			v = uint32(int32(a) / int32(b))
		case OpMod:
			if b == 0 {
				return fmt.Errorf("ccarch: modulo by zero at pc=%d", m.pc-1)
			}
			v = uint32(int32(a) % int32(b))
		}
		m.Regs[in.Dst] = v
		m.Stats.RegOps++
		setFlags(fromResult(v))
	case OpMov:
		v := m.operand(in.Src1)
		m.Regs[in.Dst] = v
		m.Stats.RegOps++
		setFlags(fromResult(v))
	case OpScc:
		if !m.Policy.CondSet {
			return fmt.Errorf("ccarch: %s has no conditional set", m.Policy.Name)
		}
		var v uint32
		if m.Flags.Holds(in.Cond) {
			v = 1
		}
		m.Regs[in.Dst] = v
		m.Stats.RegOps++
		// scc itself is a move for CC purposes.
		setFlags(fromResult(v))
	case OpLd:
		addr := m.Regs[in.Base] + uint32(in.Disp)
		if addr >= uint32(len(m.Mem)) {
			return fmt.Errorf("ccarch: load out of range at %#x", addr)
		}
		v := m.Mem[addr]
		m.Regs[in.Dst] = v
		m.Stats.MemRefs++
		setFlags(fromResult(v))
	case OpSt:
		addr := m.Regs[in.Base] + uint32(in.Disp)
		if addr >= uint32(len(m.Mem)) {
			return fmt.Errorf("ccarch: store out of range at %#x", addr)
		}
		m.Mem[addr] = m.operand(in.Src1)
		m.Stats.MemRefs++
	case OpCmp:
		if !m.Policy.HasCC {
			return fmt.Errorf("ccarch: %s has no condition codes", m.Policy.Name)
		}
		m.Flags = fromSub(m.operand(in.Src1), m.operand(in.Src2))
		m.Stats.Compares++
	case OpTst:
		if !m.Policy.HasCC {
			return fmt.Errorf("ccarch: %s has no condition codes", m.Policy.Name)
		}
		m.Flags = fromResult(m.operand(in.Src1))
		m.Stats.Compares++
	case OpBcc:
		m.Stats.Branches++
		if m.Flags.Holds(in.Cond) {
			m.Stats.TakenBranch++
			m.pc = in.Target
		}
	case OpJmp:
		m.Stats.Branches++
		m.Stats.TakenBranch++
		m.pc = in.Target
	case OpCall:
		m.Stats.Branches++
		m.Stats.TakenBranch++
		m.link = append(m.link, m.pc)
		m.pc = in.Target
	case OpRet:
		m.Stats.Branches++
		m.Stats.TakenBranch++
		if len(m.link) == 0 {
			return fmt.Errorf("ccarch: return with empty call stack")
		}
		m.pc = m.link[len(m.link)-1]
		m.link = m.link[:len(m.link)-1]
	case OpPutInt:
		fmt.Fprintf(&m.Out, "%d\n", int32(m.operand(in.Src1)))
	case OpPutCh:
		m.Out.WriteByte(byte(m.operand(in.Src1)))
	case OpHalt:
		m.halted = true
		return ErrHalted
	default:
		return fmt.Errorf("ccarch: unknown op %d", in.Op)
	}
	return nil
}
