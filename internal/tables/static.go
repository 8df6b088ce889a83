package tables

import (
	"fmt"

	"mips/internal/analysis"
	"mips/internal/ccarch"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/lang"
)

// parseAll parses the whole corpus.
func parseAll() ([]*lang.Program, error) {
	var out []*lang.Program
	for _, p := range corpus.All() {
		prog, err := lang.Parse(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		prog.Name = p.Name
		out = append(out, prog)
	}
	return out, nil
}

// table1 regenerates the constant-magnitude distribution.
//
// Paper: 0: 24.8%, 1: 19.0%, 2: 4.1%, 3-15: 20.8%, 16-255: 26.8%,
// >255: 4.5%; a 4-bit constant covers ~70% and the 8-bit move immediate
// all but ~5%.
func table1(*pass) (*Table, error) {
	progs, err := parseAll()
	if err != nil {
		return nil, err
	}
	var d analysis.ConstDist
	for _, p := range progs {
		c := analysis.Constants(p)
		d.Zero += c.Zero
		d.One += c.One
		d.Two += c.Two
		d.To15 += c.To15
		d.To255 += c.To255
		d.Large += c.Large
		d.CharTo255 += c.CharTo255
	}
	t := &Table{
		ID:     "Table 1",
		Title:  "Constant distribution in programs (static, by magnitude)",
		Header: []string{"absolute value", "measured", "paper"},
	}
	fr := d.Fraction()
	paper := []string{"24.8%", "19.0%", "4.1%", "20.8%", "26.8%", "4.5%"}
	labels := []string{"0", "1", "2", "3 - 15", "16 - 255", "> 255"}
	for i, l := range labels {
		t.AddRow(l, pct(fr[i]), paper[i])
	}
	t.Note("4-bit field covers %s (paper ~70%%); 8-bit move immediate covers %s (paper ~95%%)",
		pct(d.Covered4Bit()), pct(d.Covered8Bit()))
	t.Note("of the 16-255 bucket, %d of %d are character constants (paper: 'the large majority')",
		d.CharTo255, d.To255)
	t.Note("%d constants over %d corpus programs", d.Total(), len(progs))
	return t, nil
}

// table2 renders the condition-code taxonomy. It is definitional: the
// policy set drives every CC experiment in this package.
func table2(*pass) (*Table, error) {
	t := &Table{
		ID:     "Table 2",
		Title:  "Condition code operations",
		Header: []string{"machine", "has CC", "set on ops", "set on moves", "conditional set"},
	}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, p := range ccarch.Policies() {
		t.AddRow(p.Name, yn(p.HasCC), yn(p.SetOnOps), yn(p.SetOnMoves), yn(p.CondSet))
	}
	t.Note("MIPS row: conditional control flow via compare-and-branch; booleans via set-conditionally")
	return t, nil
}

// table3 regenerates the use-of-condition-codes measurement: how many
// explicit compares a CC machine's implicit codes eliminate.
//
// Paper: 2273 compares; 25 (1.1%) saved when only operators set the
// codes; 733 saved when moves set them too, but 706 of those are moves
// executed only to set the codes — net savings 2.1%.
func table3(*pass) (*Table, error) {
	progs, err := parseAll()
	if err != nil {
		return nil, err
	}
	var ops, moves ccarch.CmpSavings
	for _, p := range progs {
		r1, err := codegen.GenCC(p, codegen.CCOptions{
			Policy: ccarch.Policy360, Strategy: codegen.BoolEarlyOut, Eliminate: true,
		})
		if err != nil {
			return nil, err
		}
		ops.TotalCompares += r1.Savings.TotalCompares
		ops.SavedByOps += r1.Savings.SavedByOps
		ops.SavedByMoves += r1.Savings.SavedByMoves

		r2, err := codegen.GenCC(p, codegen.CCOptions{
			Policy: ccarch.PolicyVAX, Strategy: codegen.BoolEarlyOut, Eliminate: true,
		})
		if err != nil {
			return nil, err
		}
		moves.TotalCompares += r2.Savings.TotalCompares
		moves.SavedByOps += r2.Savings.SavedByOps
		moves.SavedByMoves += r2.Savings.SavedByMoves
		moves.MovesSettingCC += r2.Savings.MovesSettingCC
	}
	t := &Table{
		ID:     "Table 3",
		Title:  "Use of condition codes (static compares saved)",
		Header: []string{"measure", "measured", "paper"},
	}
	t.AddRow("compares without condition codes", num(ops.TotalCompares), "2273")
	t.AddRow("saved, CC set by operators only", fmt.Sprintf("%d = %s", ops.Saved(),
		pct(float64(ops.Saved())/float64(max(1, ops.TotalCompares)))), "25 = 1.1%")
	t.AddRow("saved, CC set by operators and moves", num(moves.Saved()), "733")
	t.AddRow("of which moves whose CC was consumed", num(moves.MovesSettingCC), "706")
	t.AddRow("savings for operators and moves", pct(float64(moves.Saved())/float64(max(1, moves.TotalCompares))), "2.1% net")
	t.Note("paper's conclusion: 'the number of instructions saved by condition codes is so small as to be essentially useless'")
	t.Note("our move-policy share runs higher than the paper's net 2.1%%: this memory-resident code generator reloads a variable before each test, and on a VAX-style machine every such load sets the codes; the paper's netting (733 saved less 706 moves present only to set codes = 27) reflects a register-resident compiler")
	return t, nil
}

// table4 regenerates the boolean-expression census.
//
// Paper: 1.66 operators per boolean expression; 80.9% end in jumps,
// 19.1% in stores.
func table4(*pass) (*Table, error) {
	progs, err := parseAll()
	if err != nil {
		return nil, err
	}
	var b analysis.BoolStats
	for _, p := range progs {
		s := analysis.Booleans(p)
		b.Expressions += s.Expressions
		b.Operators += s.Operators
		b.EndInJump += s.EndInJump
		b.EndInStore += s.EndInStore
		b.BareComparisons += s.BareComparisons
	}
	t := &Table{
		ID:     "Table 4",
		Title:  "Boolean expressions (static census)",
		Header: []string{"measure", "measured", "paper"},
	}
	t.AddRow("average operators/boolean expression", f2(b.AvgOperators()), "1.66")
	t.AddRow("boolean expressions ending in jumps", pct(b.JumpFraction()), "80.9%")
	t.AddRow("boolean expressions ending in stores", pct(1-b.JumpFraction()), "19.1%")
	t.Note("%d expressions with boolean operators; %d additional bare comparisons in conditions",
		b.Expressions, b.BareComparisons)
	return t, nil
}
