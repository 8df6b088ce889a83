package reorg

import (
	"mips/internal/asm"
	"mips/internal/isa"
)

// liveness holds per-statement register liveness over the scheduled
// unit, used by the delay-filling schemes to prove a duplicated or
// hoisted result dead on the path that should not observe it (the
// paper's Figure 4 relies on exactly this: "r2 is 'dead' outside of the
// section shown").
//
// The flow facts (each statement's masks and successors, and the label
// map) are built once per unit and kept in step with the code as fills
// edit it; solve recomputes in[] from them.
type liveness struct {
	nodes     []flowNode
	in        []regMask
	labelStmt map[string]int
	nextLabel int // no ".d2.N" label with a smaller N is free
}

// flowNode is one statement's share of the dataflow problem: its live-in
// is use | (out &^ def), where out is every register if all is set, and
// otherwise the union of in[target] (if target >= 0) and, if next is
// set, the following statement's in.
type flowNode struct {
	use, def regMask
	target   int32
	next     bool
	all      bool
}

// liveAt returns the registers live immediately before statement i.
func (lv *liveness) liveAt(i int) regMask {
	if i < 0 || i >= len(lv.in) {
		return allRegs
	}
	return lv.in[i]
}

// computeLiveness builds the flow facts of a unit and solves them once.
func computeLiveness(u *asm.Unit) *liveness {
	lv := newLiveness(u)
	lv.solve()
	return lv
}

// newLiveness builds the flow facts of a unit: the label map and every
// statement's node.
func newLiveness(u *asm.Unit) *liveness {
	n := len(u.Stmts)
	lv := &liveness{
		nodes:     make([]flowNode, n),
		in:        make([]regMask, n),
		labelStmt: make(map[string]int, n/4),
	}
	for i := range u.Stmts {
		for _, l := range u.Stmts[i].Labels {
			lv.labelStmt[l] = i
		}
	}
	for i := range u.Stmts {
		lv.setNode(u, i)
	}
	return lv
}

// setNode derives statement i's node, honoring delay-slot control flow:
// the statement after a branch always executes, and the transfer happens
// after it. Calls, traps, indirect jumps, and returns-from-exception are
// treated conservatively (all registers live).
func (lv *liveness) setNode(u *asm.Unit, i int) {
	s := &u.Stmts[i]
	nd := flowNode{use: stmtUses(s), def: stmtDefs(s), target: -1}
	c := stmtControl(s)
	if c != nil && (c.Kind == isa.PieceCall || c.Kind == isa.PieceTrap) {
		// The callee or monitor routine may read anything.
		nd.use = allRegs
	}
	switch {
	case i == len(u.Stmts)-1:
		// The last statement precedes the end of the program.
		nd.all = true
	case i >= 2 && delayOf(&u.Stmts[i-2]) == 2:
		// A statement two after an indirect jump precedes an unknown
		// target.
		nd.all = true
	case c != nil && c.Kind == isa.PieceSpecial && c.SpecOp == isa.SpecRFE:
		nd.all = true
	case i >= 1 && delayOf(&u.Stmts[i-1]) == 1:
		// The statement one after a delayed transfer flows to the target
		// (and, for conditional branches and calls, the fall-through).
		c := stmtControl(&u.Stmts[i-1])
		ti, ok := lv.labelStmt[c.Label]
		if !ok {
			nd.all = true // unresolved target: be safe
			break
		}
		nd.target = int32(ti)
		nd.next = c.Kind != isa.PieceJump
	default:
		nd.next = true
	}
	lv.nodes[i] = nd
}

// delayOf returns the branch delay of a statement's control piece, or 0.
func delayOf(s *asm.Stmt) int {
	if c := stmtControl(s); c != nil {
		return c.Delay()
	}
	return 0
}

// solve runs the backward dataflow to its least fixpoint, starting from
// nothing live. It never starts from the previous solution: a fill adds
// definitions, so a warm start could settle on a larger fixpoint.
func (lv *liveness) solve() {
	nodes, in := lv.nodes, lv.in
	clear(in)
	n := len(nodes)
	for pass := 0; pass < 4*n+8; pass++ {
		changed := false
		for i := n - 1; i >= 0; i-- {
			nd := &nodes[i]
			out := allRegs
			if !nd.all {
				out = 0
				if nd.target >= 0 {
					out = in[nd.target]
				}
				if nd.next {
					out |= in[i+1]
				}
			}
			if v := nd.use | (out &^ nd.def); v != in[i] {
				in[i] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// deleted removes statement i's node after the statement itself was
// removed from u, shifting every later index down by one. Statement i
// carried no labels, so nothing targeted it. The caller refreshes the
// statement before the gap, which may now be the last.
func (lv *liveness) deleted(u *asm.Unit, i int) {
	n := len(lv.nodes) - 1
	copy(lv.nodes[i:], lv.nodes[i+1:])
	lv.nodes = lv.nodes[:n]
	lv.in = lv.in[:n]
	for j := range lv.nodes {
		if int(lv.nodes[j].target) > i {
			lv.nodes[j].target--
		}
	}
	for l, j := range lv.labelStmt {
		if j > i {
			lv.labelStmt[l] = j - 1
		}
	}
	// The statements after the gap have new neighbours.
	for j := i; j < min(i+2, n); j++ {
		lv.setNode(u, j)
	}
}
