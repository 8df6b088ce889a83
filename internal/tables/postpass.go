package tables

import (
	"mips/internal/asm"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/lang"
	"mips/internal/reorg"
)

// table11Stages are the cumulative postpass stages in paper order.
var table11Stages = []struct {
	name string
	opt  reorg.Options
}{
	{"none (no-ops inserted)", reorg.Options{}},
	{"reorganization", reorg.Options{Reorganize: true}},
	{"packing", reorg.Options{Reorganize: true, Pack: true}},
	{"branch delay", reorg.All()},
}

// table11 regenerates the cumulative postpass-optimization improvements
// on the Table 11 benchmarks: static instruction-word counts for each
// stage, and the total improvement.
//
// Paper: Fibonacci 63→63→55→50 (20.6%), Puzzle0 843→834→776→634
// (24.8%), Puzzle1 1219→1113→992→791 (35.1%).
func table11(*pass) (*Table, error) {
	t := &Table{
		ID:    "Table 11",
		Title: "Cumulative improvements with postpass optimization (static words)",
	}
	t.Header = []string{"optimization"}
	benches := corpus.Table11()
	for _, b := range benches {
		t.Header = append(t.Header, b.Name)
	}

	counts := make([][]int, len(table11Stages))
	for si, stage := range table11Stages {
		row := []string{stage.name}
		for _, b := range benches {
			prog, err := lang.Parse(b.Source)
			if err != nil {
				return nil, err
			}
			unit, err := codegen.GenMIPS(prog, codegen.MIPSOptions{})
			if err != nil {
				return nil, err
			}
			ro, _ := reorg.Reorganize(unit, stage.opt)
			n := reorg.WordCount(ro)
			counts[si] = append(counts[si], n)
			row = append(row, num(n))
		}
		t.AddRow(row...)
	}
	impRow := []string{"total improvement"}
	for i := range benches {
		none, full := counts[0][i], counts[len(counts)-1][i]
		impRow = append(impRow, pct(float64(none-full)/float64(none)))
	}
	t.AddRow(impRow...)
	t.AddRow("paper improvement", "20.6%", "24.8%", "35.1%")
	t.Note("paper absolute counts (PCC pieces): fib 63→50, puzzle0 843→634, puzzle1 1219→791")
	return t, nil
}

// figure4Source is the paper's Figure 4 fragment in our dialect.
const figure4Source = `
	.entry start
start:	ld 2(sp), r0
	ble r0, #1, L11
	sub r0, #1, r2
	st r2, 2(sp)
	ld 3(sp), r5
	add r0, r5, r0
	add r4, #1, r4
	jmp L3
L11:	nop
L3:	trap #0
`

// figure4 regenerates the reorganization example: the fragment's word
// count at each stage, plus the fully scheduled listing.
func figure4(*pass) (*Table, error) {
	t := &Table{
		ID:     "Figure 4",
		Title:  "Reorganization, packing, and branch delay on the paper's fragment",
		Header: []string{"stage", "words", "no-ops", "packed", "delay slots filled"},
	}
	for _, stage := range table11Stages {
		u, err := asm.Parse(figure4Source)
		if err != nil {
			return nil, err
		}
		ro, st := reorg.Reorganize(u, stage.opt)
		t.AddRow(stage.name, num(reorg.WordCount(ro)), num(st.Nops), num(st.PackedWords), num(st.DelayFilled))
	}
	u, _ := asm.Parse(figure4Source)
	ro, _ := reorg.Reorganize(u, reorg.All())
	t.Note("fully reorganized listing:")
	for _, s := range ro.Stmts {
		line := "    "
		for _, l := range s.Labels {
			line += l + ": "
		}
		line += s.Pieces[0].String()
		if len(s.Pieces) > 1 {
			line += " | " + s.Pieces[1].String()
		}
		t.Notes = append(t.Notes, line)
	}
	return t, nil
}
