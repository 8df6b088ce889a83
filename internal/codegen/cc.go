package codegen

import (
	"fmt"

	"mips/internal/ccarch"
	"mips/internal/lang"
)

// BoolStrategy selects how boolean expressions compile on the
// condition-code machine — the three alternatives of paper §2.3.2 and
// Figures 1-2.
type BoolStrategy uint8

const (
	// BoolFullEval evaluates every operand to a 0/1 value with branch
	// sequences and combines them bitwise (Figure 1, left).
	BoolFullEval BoolStrategy = iota
	// BoolEarlyOut short-circuits with branch chains (Figure 1, right).
	BoolEarlyOut
	// BoolCondSet uses the conditional-set instruction (Figure 2);
	// requires a policy with scc (the M68000 row).
	BoolCondSet
)

func (s BoolStrategy) String() string {
	switch s {
	case BoolFullEval:
		return "full-eval"
	case BoolEarlyOut:
		return "early-out"
	case BoolCondSet:
		return "cond-set"
	}
	return "?"
}

// CCOptions configures the condition-code backend.
type CCOptions struct {
	Policy   ccarch.Policy
	Strategy BoolStrategy
	// Eliminate runs the redundant-compare elimination after code
	// generation (the Table 3 measurement).
	Eliminate bool
}

// CCResult is the compiled program, its initial data image, and the
// compare-elimination report.
type CCResult struct {
	Prog    *ccarch.Program
	Init    map[int32]uint32
	Savings ccarch.CmpSavings
}

// GenCC compiles a Pasqual program for the condition-code machine. The
// CC machine is always word-allocated (it has no byte insert/extract),
// so instruction counts compare against word-allocated MIPS code.
func GenCC(p *lang.Program, opt CCOptions) (res CCResult, err error) {
	defer catch(&err)
	if opt.Strategy == BoolCondSet && !opt.Policy.CondSet {
		return res, fmt.Errorf("codegen: policy %s has no conditional set", opt.Policy.Name)
	}
	g := &ccGen{
		prog: p,
		lay:  NewLayout(p, lang.WideAlloc, true),
		opt:  opt,
		b:    ccarch.NewBuilder(),
	}
	g.gen()
	cp, perr := g.b.Program()
	if perr != nil {
		return res, perr
	}
	if opt.Eliminate {
		cp, res.Savings = ccarch.EliminateCompares(cp, opt.Policy)
	} else {
		// Count compares even when not eliminating, for the tables.
		_, res.Savings = ccarch.EliminateCompares(cp, opt.Policy)
	}
	res.Prog = cp
	res.Init = g.lay.Init
	return res, nil
}

// CCMemWords is the CC machine's memory size in words.
const CCMemWords = 1 << 16

// RunCC executes a compiled CC program with its initial data image.
func RunCC(res CCResult, policy ccarch.Policy, maxSteps uint64) (string, ccarch.Stats, error) {
	return RunCCIn(make([]uint32, CCMemWords), res, policy, maxSteps)
}

// RunCCIn is RunCC on mem, a memory of CCMemWords words that it clears
// first: a caller that runs many programs reuses one memory instead of
// allocating a new one per run.
func RunCCIn(mem []uint32, res CCResult, policy ccarch.Policy, maxSteps uint64) (string, ccarch.Stats, error) {
	if len(mem) != CCMemWords {
		return "", ccarch.Stats{}, fmt.Errorf("codegen: CC memory of %d words, want %d", len(mem), CCMemWords)
	}
	clear(mem)
	m := &ccarch.Machine{Policy: policy, Mem: mem}
	for addr, val := range res.Init {
		m.Mem[addr] = val
	}
	err := m.Run(res.Prog, maxSteps)
	return m.Out.String(), m.Stats, err
}

type ccGen struct {
	prog *lang.Program
	lay  *Layout
	opt  CCOptions
	b    *ccarch.Builder

	inUse  [ccarch.NumRegs]bool
	frame  *Frame
	labelN int
}

// CC-machine register conventions: r0 is a hardwired zero by software
// convention (never written), r1..r11 are temporaries, r13 scratch,
// r14 the stack pointer.
const (
	ccZero    = ccarch.Reg(0)
	ccTmpLo   = ccarch.Reg(1)
	ccTmpHi   = ccarch.Reg(11)
	ccScratch = ccarch.Reg(13)
	ccSP      = ccarch.Reg(14)
)

func (g *ccGen) emit(ins ...ccarch.Instr) { g.b.Emit(ins...) }
func (g *ccGen) label(name string)        { g.b.Label(name) }

func (g *ccGen) newLabel() string {
	g.labelN++
	return fmt.Sprintf(".C%d", g.labelN)
}

func (g *ccGen) alloc(pos lang.Pos) ccarch.Reg {
	for r := ccTmpLo; r <= ccTmpHi; r++ {
		if !g.inUse[r] {
			g.inUse[r] = true
			return r
		}
	}
	fail(pos, "expression too deep: out of temporary registers")
	return 0
}

func (g *ccGen) free(r ccarch.Reg) { g.inUse[r] = false }

func (g *ccGen) gen() {
	g.frame = g.lay.Frames[nil]
	g.emit(ccarch.Mov(ccSP, ccarch.Imm(g.lay.StackTop)))
	g.adjustSP(-g.frame.Size)
	g.stmts(g.prog.Body)
	g.emit(ccarch.Halt())
	for _, proc := range g.prog.Procs {
		g.genProc(proc)
	}
}

func (g *ccGen) genProc(proc *lang.ProcDecl) {
	g.frame = g.lay.Frames[proc]
	g.label("p$" + proc.Name)
	g.stmts(proc.Body)
	if proc.ResultObj != nil {
		g.emit(ccarch.Ld(ccTmpLo, ccSP, g.frame.Offsets[proc.ResultObj]))
	}
	g.emit(ccarch.Ret())
}

func (g *ccGen) adjustSP(delta int32) {
	if delta == 0 {
		return
	}
	if delta > 0 {
		g.emit(ccarch.ALU(ccarch.OpAdd, ccSP, ccarch.R(ccSP), ccarch.Imm(delta)))
	} else {
		g.emit(ccarch.ALU(ccarch.OpSub, ccSP, ccarch.R(ccSP), ccarch.Imm(-delta)))
	}
}
