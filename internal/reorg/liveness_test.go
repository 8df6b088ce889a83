package reorg

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mips/internal/asm"
	"mips/internal/isa"
)

// checkKeptLiveness schedules u under opt, then drives the global delay
// pass one fill at a time. Before each round it checks that the liveness
// kept across fills, once solved, equals a fresh computeLiveness of the
// current code: the same live-in sets and the same label map. It returns
// the statistics of the run, whose scheme counts say which fills it made.
func checkKeptLiveness(u *asm.Unit, opt Options) (Stats, error) {
	var st Stats
	out := &asm.Unit{Stmts: schedule(u.Stmts, opt, &st), DataLabels: u.DataLabels}
	lv := newLiveness(out)
	for pass := 0; pass <= len(out.Stmts); pass++ {
		fills := st.SchemeLoop + st.SchemeHoist
		lv.solve()
		fresh := computeLiveness(out)
		if !slices.Equal(lv.in, fresh.in) {
			for i := range fresh.in {
				if i >= len(lv.in) || lv.in[i] != fresh.in[i] {
					return st, fmt.Errorf("after %d fills: live-in differs first at statement %d (kept %d entries, fresh %d)",
						fills, i, len(lv.in), len(fresh.in))
				}
			}
			return st, fmt.Errorf("after %d fills: kept %d live-in entries, fresh %d", fills, len(lv.in), len(fresh.in))
		}
		if !maps.Equal(lv.labelStmt, fresh.labelStmt) {
			return st, fmt.Errorf("after %d fills: label map differs", fills)
		}
		if !fillOnce(out, lv, &st) {
			break
		}
	}
	return st, nil
}

// randomCFG strings randomBlock bodies together with loop branches,
// forward branches, jumps, calls and the odd indirect jump, labelling
// about half the blocks so that some fall-through words are unlabelled
// and can be hoisted.
func randomCFG(r *rand.Rand) *asm.Unit {
	nb := 2 + r.Intn(7)
	labelled := make([]bool, nb)
	labelled[0] = true
	for b := 1; b < nb; b++ {
		labelled[b] = r.Intn(2) == 0
	}
	target := func() string {
		for {
			if b := r.Intn(nb); labelled[b] {
				return fmt.Sprintf("L%d", b)
			}
		}
	}
	reg := func() isa.Operand { return isa.R(isa.Reg(1 + r.Intn(9))) }
	var stmts []asm.Stmt
	for b := 0; b < nb; b++ {
		body := randomBlock(r, 1+r.Intn(8))
		if len(body) == 0 {
			body = []asm.Stmt{{Pieces: []isa.Piece{isa.Mov(isa.Reg(1+r.Intn(9)), isa.Imm(1))}}}
		}
		if labelled[b] {
			body[0].Labels = []string{fmt.Sprintf("L%d", b)}
		}
		stmts = append(stmts, body...)
		var ctrl isa.Piece
		switch r.Intn(8) {
		case 0, 1, 2:
			ctrl = isa.Branch(isa.CmpNE, reg(), reg(), target())
		case 3:
			ctrl = isa.Branch(isa.CmpEQ0, reg(), isa.Imm(0), target())
		case 4:
			ctrl = isa.Jump(target())
		case 5:
			ctrl = isa.Call(target(), isa.Reg(15))
		case 6:
			if r.Intn(3) == 0 {
				ctrl = isa.JumpInd(isa.Reg(15))
			}
		}
		if ctrl.Kind != isa.PieceNop {
			stmts = append(stmts, asm.Stmt{Pieces: []isa.Piece{ctrl}})
		}
	}
	stmts = append(stmts, asm.Stmt{Pieces: []isa.Piece{isa.Trap(0)}})
	return &asm.Unit{Stmts: stmts}
}

// fillOptionSets are the option sets under which the global delay pass
// runs.
var fillOptionSets = []Options{
	All(),
	{FillDelay: true},
	{Reorganize: true, Pack: true, FillDelay: true, AssumeInterlocks: true},
}

// TestKeptLivenessMatchesFreshSolve: over random control-flow graphs,
// the liveness the delay pass keeps across fills is, after every fill,
// exactly what a fresh solve of the current code gives.
func TestKeptLivenessMatchesFreshSolve(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	r := rand.New(rand.NewSource(7))
	var loops, hoists int
	for trial := 0; trial < trials; trial++ {
		u := randomCFG(r)
		for _, opt := range fillOptionSets {
			st, err := checkKeptLiveness(u, opt)
			if err != nil {
				ro, _ := Reorganize(u, opt)
				t.Fatalf("trial %d opts %+v: %v\nfinal code:\n%s", trial, opt, err, dump(ro))
			}
			loops += st.SchemeLoop
			hoists += st.SchemeHoist
		}
	}
	t.Logf("%d scheme-2 and %d scheme-3 fills checked", loops, hoists)
	if loops == 0 || hoists == 0 {
		t.Fatal("the generator must exercise both global fill schemes")
	}
}
