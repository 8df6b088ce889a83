package tables

import (
	"fmt"

	"mips/internal/ccarch"
	"mips/internal/codegen"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
)

// boolSupport is one row of Table 5: an architectural support level for
// boolean evaluation.
type boolSupport struct {
	name  string
	paper string // the paper's compare/register/branch counts per operator
	// compile returns static and dynamic class counts for a program.
	counts func(src string) (classCounts, classCounts, error)
}

// classCounts tallies instructions by the Table 5 accounting classes.
type classCounts struct {
	Compare, RegOp, Branch, Mem float64
}

func (c classCounts) sub(o classCounts) classCounts {
	return classCounts{
		Compare: c.Compare - o.Compare,
		RegOp:   c.RegOp - o.RegOp,
		Branch:  c.Branch - o.Branch,
		Mem:     c.Mem - o.Mem,
	}
}

func (c classCounts) scale(k float64) classCounts {
	return classCounts{Compare: c.Compare * k, RegOp: c.RegOp * k, Branch: c.Branch * k, Mem: c.Mem * k}
}

// cost applies the Table 6 weights (register 1, compare 2, branch 4);
// memory references excluded, as the paper compares evaluation code only.
func (c classCounts) cost() float64 {
	return c.RegOp*1 + c.Compare*2 + c.Branch*4
}

func (c classCounts) String() string {
	return fmt.Sprintf("%.1f/%.1f/%.1f", c.Compare, c.RegOp, c.Branch)
}

// mipsCounts compiles for MIPS and tallies naive pieces (static) plus a
// dynamic run.
func mipsCounts(p *pass, src string, noSetCond bool) (classCounts, classCounts, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return classCounts{}, classCounts{}, err
	}
	unit, err := codegen.GenMIPS(prog, codegen.MIPSOptions{NoSetCond: noSetCond})
	if err != nil {
		return classCounts{}, classCounts{}, err
	}
	var static classCounts
	for _, s := range unit.Stmts {
		for i := range s.Pieces {
			addPieceClass(&static, &s.Pieces[i])
		}
	}
	res, err := p.run(src, codegen.MIPSOptions{NoSetCond: noSetCond}, reorg.Options{}, 50_000_000, false)
	if err != nil {
		return classCounts{}, classCounts{}, err
	}
	dynamic := classCounts{
		Branch: float64(res.Stats.Branches),
		Mem:    float64(res.Stats.Loads + res.Stats.Stores),
	}
	// Dynamic compare/reg split is not in cpu.Stats; approximate by the
	// static ratio applied to executed pieces less branches and memory.
	rest := float64(res.Stats.Pieces) - dynamic.Branch - dynamic.Mem
	sr := static.Compare + static.RegOp
	if sr > 0 && rest > 0 {
		dynamic.Compare = rest * static.Compare / sr
		dynamic.RegOp = rest * static.RegOp / sr
	}
	return static, dynamic, nil
}

func addPieceClass(c *classCounts, p *isa.Piece) {
	switch p.Kind {
	case isa.PieceSetCond:
		c.Compare++
	case isa.PieceALU:
		c.RegOp++
	case isa.PieceBranch, isa.PieceJump, isa.PieceCall, isa.PieceJumpInd:
		c.Branch++
	case isa.PieceLoad, isa.PieceStore:
		if p.Mode == isa.AModeLongImm {
			c.RegOp++
		} else {
			c.Mem++
		}
	}
}

// ccCounts compiles for the CC machine and tallies classes.
func ccCounts(src string, pol ccarch.Policy, strat codegen.BoolStrategy) (classCounts, classCounts, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return classCounts{}, classCounts{}, err
	}
	res, err := codegen.GenCC(prog, codegen.CCOptions{Policy: pol, Strategy: strat})
	if err != nil {
		return classCounts{}, classCounts{}, err
	}
	var static classCounts
	for i := range res.Prog.Instrs {
		switch res.Prog.Instrs[i].Class() {
		case ccarch.ClassCompare:
			static.Compare++
		case ccarch.ClassRegOp:
			static.RegOp++
		case ccarch.ClassBranch:
			static.Branch++
		case ccarch.ClassMem:
			static.Mem++
		}
	}
	_, st, err := codegen.RunCC(res, pol, 50_000_000)
	if err != nil {
		return classCounts{}, classCounts{}, err
	}
	dynamic := classCounts{
		Compare: float64(st.Compares),
		RegOp:   float64(st.RegOps),
		Branch:  float64(st.Branches),
		Mem:     float64(st.MemRefs),
	}
	return static, dynamic, nil
}

// boolSupports returns the four Table 5 support levels.
func boolSupports(p *pass) []boolSupport {
	return []boolSupport{
		{
			name:  "set conditionally, no CC (MIPS)",
			paper: "2/1/0",
			counts: func(src string) (classCounts, classCounts, error) {
				return mipsCounts(p, src, false)
			},
		},
		{
			name:  "CC and conditional set (M68000)",
			paper: "2/3/0",
			counts: func(src string) (classCounts, classCounts, error) {
				return ccCounts(src, ccarch.PolicyM68000, codegen.BoolCondSet)
			},
		},
		{
			name:  "CC and branch, full evaluation",
			paper: "2/2/2",
			counts: func(src string) (classCounts, classCounts, error) {
				return ccCounts(src, ccarch.PolicyVAX, codegen.BoolFullEval)
			},
		},
		{
			name:  "CC and branch, early-out",
			paper: "2/0/2 (dyn 2/0/1.5)",
			counts: func(src string) (classCounts, classCounts, error) {
				return ccCounts(src, ccarch.PolicyVAX, codegen.BoolEarlyOut)
			},
		},
	}
}

// boolExprProgram builds a store-context benchmark: `reps` boolean
// assignments, each with `ops` boolean operators over comparisons.
// Operands vary so half the comparisons are true.
func boolExprProgram(ops, reps int, jump bool) string {
	src := "program boolbench;\nvar f: boolean; r, j: integer;\nvar a, b, c, d: integer;\nbegin\n"
	src += "  a := 1; b := 2; c := 3; d := 4;\n"
	src += "  for r := 1 to " + fmt.Sprint(reps) + " do begin\n"
	expr := "(a = 1)"
	terms := []string{"(b = 9)", "(c = 3)", "(d = 9)", "(a < b)", "(c > d)"}
	for i := 0; i < ops; i++ {
		conn := " or "
		if i%2 == 1 {
			conn = " and "
		}
		expr += conn + terms[i%len(terms)]
	}
	if jump {
		src += "    if " + expr + " then j := j + 1\n"
	} else {
		src += "    f := " + expr + ";\n    if f then j := j + 1\n"
	}
	src += "  end;\n  writeint(j)\nend.\n"
	return src
}

// boolBaseline is the same program with the boolean work removed, used
// to subtract loop and output overhead.
func boolBaseline(reps int) string {
	return `program boolbase;
var f: boolean; r, j: integer;
var a, b, c, d: integer;
begin
  a := 1; b := 2; c := 3; d := 4;
  for r := 1 to ` + fmt.Sprint(reps) + ` do begin
    j := j + 1
  end;
  writeint(j)
end.
`
}

// table5 measures operations per boolean operator under each support
// level: compile a 2-operator store-context expression and a baseline,
// and attribute the difference to the operators.
func table5(p *pass) (*Table, error) {
	const ops, reps = 2, 10
	t := &Table{
		ID:     "Table 5",
		Title:  "Operations per boolean operator (compare/register/branch)",
		Header: []string{"support", "static (measured)", "dynamic (measured)", "paper static", "paper dynamic"},
	}
	src := boolExprProgram(ops, reps, false)
	base := boolBaseline(reps)
	for _, s := range boolSupports(p) {
		se, de, err := s.counts(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		sb, db, err := s.counts(base)
		if err != nil {
			return nil, err
		}
		static := se.sub(sb).scale(1.0 / ops)
		dynamic := de.sub(db).scale(1.0 / (ops * reps))
		paperDyn := s.paper
		t.AddRow(s.name, static.String(), dynamic.String(), s.paper, paperDyn)
	}
	t.Note("counts per boolean operator, overhead-subtracted; paper's idealized rows shown for comparison")
	return t, nil
}

// table6 computes the weighted cost of boolean evaluation (register 1,
// compare 2, branch 4) for store and jump contexts under each support
// level, and the improvement of the MIPS styles over pure
// compare-and-branch.
//
// Paper: set conditionally improves 53.5% over full evaluation and
// 36.5% over early-out; conditional set improves 33.0% and 8.6%.
func table6(p *pass) (*Table, error) {
	const ops, reps = 2, 10
	t := &Table{
		ID:     "Table 6",
		Title:  "Cost of evaluating boolean expressions (weights: reg 1, cmp 2, br 4)",
		Header: []string{"support", "store ctx", "jump ctx", "total", "paper total"},
	}
	paperTotals := []string{"12.5", "18.0", "26.9 (early-out 19.7)", "19.7"}
	var totals []float64
	for i, s := range boolSupports(p) {
		var contexts [2]float64
		for ci, jump := range []bool{false, true} {
			se, _, err := s.counts(boolExprProgram(ops, reps, jump))
			if err != nil {
				return nil, err
			}
			sb, _, err := s.counts(boolBaseline(reps))
			if err != nil {
				return nil, err
			}
			contexts[ci] = se.sub(sb).cost()
		}
		// Weight store/jump by the paper's Table 4 mix.
		total := 0.191*contexts[0] + 0.809*contexts[1]
		totals = append(totals, total)
		t.AddRow(s.name, f2(contexts[0]), f2(contexts[1]), f2(total), paperTotals[i])
	}
	if len(totals) == 4 {
		imp := func(a, b float64) string { return pct((b - a) / b) }
		t.Note("set-conditionally vs CC-branch full eval: %s better (paper 53.5%%)", imp(totals[0], totals[2]))
		t.Note("set-conditionally vs CC-branch early-out: %s better (paper 36.5%%)", imp(totals[0], totals[3]))
		t.Note("conditional set vs CC-branch full eval: %s better (paper 33.0%%)", imp(totals[1], totals[2]))
	}
	return t, nil
}
