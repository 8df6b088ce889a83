package reorg

import (
	"strconv"

	"mips/internal/asm"
	"mips/internal/isa"
)

// fillDelaysGlobal applies the cross-block branch-delay schemes (paper
// §4.2.1, schemes 2 and 3) to delay slots scheme 1 left as no-ops:
//
//   - scheme 2: a backward (loop) branch duplicates the first word of
//     the loop into its delay slot and retargets to the following word;
//     legal when the duplicate is side-effect free and its result is
//     dead on the fall-through (loop exit) path. Unconditional jumps and
//     calls duplicate unconditionally — the slot executes exactly when
//     the transfer happens, so any non-control word is legal.
//   - scheme 3: a conditional branch hoists the next sequential word
//     into its delay slot; legal when that word has no other
//     predecessors (no label), is side-effect free, and its result is
//     dead on the taken path.
//
// Neither scheme touches NoReorg code: not its branches, its slots, nor
// its words as the duplicated or hoisted word.
//
// The pass iterates to a fixpoint since each fill changes the layout;
// the bound is the number of delay slots, so it always terminates. The
// liveness flow facts live as long as the pass: each fill updates the
// nodes it touched, and each round solves them afresh.
func fillDelaysGlobal(u *asm.Unit, st *Stats) {
	lv := newLiveness(u)
	for pass := 0; pass <= len(u.Stmts); pass++ {
		lv.solve()
		if !fillOnce(u, lv, st) {
			return
		}
	}
}

// fillOnce makes the first legal fill, in program order, and reports
// whether it found one.
func fillOnce(u *asm.Unit, lv *liveness, st *Stats) bool {
	for i := 0; i < len(u.Stmts); i++ {
		s := &u.Stmts[i]
		ctrl := stmtControl(s)
		if ctrl == nil || ctrl.Delay() != 1 || s.NoReorg {
			continue
		}
		if i+1 >= len(u.Stmts) {
			continue
		}
		if slot := &u.Stmts[i+1]; !isNopStmt(slot) || len(slot.Labels) > 0 || slot.NoReorg {
			continue
		}
		switch ctrl.Kind {
		case isa.PieceJump, isa.PieceCall:
			if lv.duplicateTarget(u, i, ctrl, false) {
				st.DelayFilled++
				st.SchemeLoop++
				return true
			}
		case isa.PieceBranch:
			if target, ok := lv.labelStmt[ctrl.Label]; ok && target <= i {
				if lv.duplicateTarget(u, i, ctrl, true) {
					st.DelayFilled++
					st.SchemeLoop++
					return true
				}
			}
			if lv.hoistFallThrough(u, i, ctrl) {
				st.DelayFilled++
				st.SchemeHoist++
				return true
			}
		}
	}
	return false
}

func isNopStmt(s *asm.Stmt) bool {
	return len(s.Pieces) == 1 && s.Pieces[0].IsNop()
}

// duplicateTarget implements scheme 2: copy the transfer target's first
// word into the delay slot at branchIdx+1 and retarget the control piece
// past it. For a conditional branch the duplicate also executes on the
// fall-through path, so it must be side-effect free with a dead result
// there; an unconditional transfer has no such path.
func (lv *liveness) duplicateTarget(u *asm.Unit, branchIdx int, ctrl *isa.Piece, conditional bool) bool {
	ti, ok := lv.labelStmt[ctrl.Label]
	if !ok || ti+1 >= len(u.Stmts) {
		return false
	}
	w0 := &u.Stmts[ti]
	if w0.NoReorg || stmtControl(w0) != nil || isNopStmt(w0) {
		return false
	}
	// Duplicating the word that is the branch itself or its slot would
	// self-interfere.
	if ti == branchIdx || ti == branchIdx+1 {
		return false
	}
	if conditional {
		for i := range w0.Pieces {
			if !sideEffectFree(&w0.Pieces[i]) {
				return false
			}
		}
		// The result must be dead on the fall-through path, which begins
		// right after the delay slot.
		if stmtDefs(w0)&lv.liveAt(branchIdx+2) != 0 {
			return false
		}
	}
	// A load may not sit in the delay slot if the retargeted first word
	// reads it in the very next cycle — the original code had the same
	// adjacency, so it is already spaced; loads are still rejected for
	// conditional duplicates by sideEffectFree above.

	// Install the duplicate and retarget past it. The branch's pieces
	// belong to the output (the scheduler copied them), so the edit
	// cannot reach the input unit.
	u.Stmts[branchIdx+1].Pieces = clonePieces(w0.Pieces)
	newLabel := lv.labelFor(u, ti+1)
	for i := range u.Stmts[branchIdx].Pieces {
		if u.Stmts[branchIdx].Pieces[i].IsControl() {
			u.Stmts[branchIdx].Pieces[i].Label = newLabel
		}
	}
	lv.setNode(u, branchIdx+1)
	return true
}

// hoistFallThrough implements scheme 3: move the word after the delay
// slot into the slot. It then executes on both paths, so it must be
// side-effect free, its result dead at the branch target, and it must
// have no other predecessors.
func (lv *liveness) hoistFallThrough(u *asm.Unit, branchIdx int, ctrl *isa.Piece) bool {
	fi := branchIdx + 2
	if fi >= len(u.Stmts) {
		return false
	}
	f0 := &u.Stmts[fi]
	if f0.NoReorg || len(f0.Labels) > 0 || stmtControl(f0) != nil || isNopStmt(f0) {
		return false
	}
	for i := range f0.Pieces {
		if !sideEffectFree(&f0.Pieces[i]) {
			return false
		}
	}
	ti, ok := lv.labelStmt[ctrl.Label]
	if !ok {
		return false
	}
	if stmtDefs(f0)&lv.liveAt(ti) != 0 {
		return false
	}
	// Move: the slot takes f0's pieces; f0 is deleted.
	u.Stmts[branchIdx+1].Pieces = f0.Pieces
	u.Stmts = append(u.Stmts[:fi], u.Stmts[fi+1:]...)
	lv.deleted(u, fi)
	lv.setNode(u, branchIdx+1)
	return true
}

func clonePieces(ps []isa.Piece) []isa.Piece {
	out := make([]isa.Piece, len(ps))
	copy(out, ps)
	return out
}

// labelFor returns a label bound to statement index i, creating a fresh
// one if none exists. A fresh name must collide with no statement label
// (the label map holds them all) and no data label.
func (lv *liveness) labelFor(u *asm.Unit, i int) string {
	if len(u.Stmts[i].Labels) > 0 {
		return u.Stmts[i].Labels[0]
	}
	for n := lv.nextLabel; ; n++ {
		name := ".d2." + strconv.Itoa(n)
		_, stmt := lv.labelStmt[name]
		_, data := u.DataLabels[name]
		if !stmt && !data {
			u.Stmts[i].Labels = append(u.Stmts[i].Labels, name)
			lv.labelStmt[name] = i
			lv.nextLabel = n + 1
			return name
		}
	}
}
