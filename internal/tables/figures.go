package tables

import (
	"mips/internal/ccarch"
	"mips/internal/codegen"
	"mips/internal/lang"
	"mips/internal/reorg"
)

// figureSource is the paper's running example for Figures 1-3:
// Found := (Rec = Key) OR (I = 13), with operand values making exactly
// one comparison true (the average case the paper's dynamic counts
// assume).
const figureSource = `
program figures;
var found: boolean; rec, key, i: integer;
begin
  rec := 1; key := 2; i := 13;
  found := (rec = key) or (i = 13)
end.
`

// figureBaseline is the same program without the boolean assignment.
const figureBaseline = `
program figures;
var found: boolean; rec, key, i: integer;
begin
  rec := 1; key := 2; i := 13
end.
`

// figureCC measures the boolean assignment's static/dynamic instruction
// and branch counts on the CC machine under a strategy.
func figureCC(pol ccarch.Policy, strat codegen.BoolStrategy) (static, dynamic, branches float64, err error) {
	count := func(src string) (float64, float64, float64, error) {
		prog, err := lang.Parse(src)
		if err != nil {
			return 0, 0, 0, err
		}
		res, err := codegen.GenCC(prog, codegen.CCOptions{Policy: pol, Strategy: strat})
		if err != nil {
			return 0, 0, 0, err
		}
		_, st, err := codegen.RunCC(res, pol, 1_000_000)
		if err != nil {
			return 0, 0, 0, err
		}
		return float64(len(res.Prog.Instrs)), float64(st.Instructions), float64(st.Branches), nil
	}
	se, de, be, err := count(figureSource)
	if err != nil {
		return 0, 0, 0, err
	}
	sb, db, bb, err := count(figureBaseline)
	if err != nil {
		return 0, 0, 0, err
	}
	return se - sb, de - db, be - bb, nil
}

func figureTable(id, title string, pol ccarch.Policy, strat codegen.BoolStrategy,
	paperStatic, paperDyn, paperBranch string) (*Table, error) {
	s, d, br, err := figureCC(pol, strat)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"measure", "measured", "paper"},
	}
	t.AddRow("static instructions", f2(s), paperStatic)
	t.AddRow("dynamic instructions", f2(d), paperDyn)
	t.AddRow("branches executed", f2(br), paperBranch)
	return t, nil
}

// figure1 measures the condition-code branch styles for the running
// example. Paper: full evaluation 8 static / 7 average dynamic, always
// 2 branches; early-out 6 static / 4.25 average dynamic, 1 branch on
// average.
func figure1(*pass) (*Table, error) {
	full, err := figureTable("Figure 1 (full)",
		"Boolean evaluation with condition codes, full evaluation (VAX)",
		ccarch.PolicyVAX, codegen.BoolFullEval, "8", "7 (avg)", "2")
	if err != nil {
		return nil, err
	}
	early, err := figureTable("Figure 1 (early-out)",
		"Boolean evaluation with condition codes, early-out (VAX)",
		ccarch.PolicyVAX, codegen.BoolEarlyOut, "6", "4.25 (avg)", "1 (avg)")
	if err != nil {
		return nil, err
	}
	full.Rows = append(full.Rows, []string{"--- early-out ---", "", ""})
	full.Rows = append(full.Rows, early.Rows...)
	full.Title = "Evaluating boolean expressions with condition codes (Found := (Rec=Key) OR (I=13))"
	full.ID = "Figure 1"
	return full, nil
}

// figure2 measures the conditional-set version. Paper: 5 static and
// dynamic instructions, no branches.
func figure2(*pass) (*Table, error) {
	return figureTable("Figure 2",
		"Boolean expression evaluation using conditional set (M68000)",
		ccarch.PolicyM68000, codegen.BoolCondSet, "5", "5", "0")
}

// figure3 measures the MIPS set-conditionally version. Paper: 3 static
// and dynamic instructions, no branches.
func figure3(p *pass) (*Table, error) {
	count := func(src string) (float64, float64, float64, error) {
		prog, err := lang.Parse(src)
		if err != nil {
			return 0, 0, 0, err
		}
		unit, err := codegen.GenMIPS(prog, codegen.MIPSOptions{})
		if err != nil {
			return 0, 0, 0, err
		}
		var static float64
		for _, s := range unit.Stmts {
			static += float64(len(s.Pieces))
		}
		res, err := p.run(src, codegen.MIPSOptions{}, reorg.Options{}, 1_000_000, false)
		if err != nil {
			return 0, 0, 0, err
		}
		return static, float64(res.Stats.Pieces), float64(res.Stats.Branches), nil
	}
	se, de, be, err := count(figureSource)
	if err != nil {
		return nil, err
	}
	sb, db, bb, err := count(figureBaseline)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Figure 3",
		Title:  "Boolean expression evaluation using set conditionally (MIPS)",
		Header: []string{"measure", "measured", "paper"},
	}
	t.AddRow("static pieces", f2(se-sb), "3")
	t.AddRow("dynamic pieces", f2(de-db), "3")
	t.AddRow("branches executed", f2(be-bb), "0")
	t.Note("sequence: seteq rec,key,r1 / seteq i,#13,r2 / or r1,r2,found — plus operand loads and the result store in this memory-resident model")
	return t, nil
}
