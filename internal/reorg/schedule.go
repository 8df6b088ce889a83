package reorg

import (
	"mips/internal/asm"
	"mips/internal/isa"
)

// dep is a scheduling edge: succ may not execute until minGap
// instruction words after pred (1 = strictly after; 2 = one word
// between, the load-use spacing).
type dep struct {
	pred, succ int
	minGap     int
}

// dag is the machine-level dependency graph of one basic block's pieces
// (paper §4.2.1 step 1: "create a machine-level dag that represents the
// dependencies between individual instruction pieces"). Its edges are
// flat: out[outAt[i]:outAt[i+1]] leave node i and in[inAt[i]:inAt[i+1]]
// enter it. One dag is reused for every block of a unit.
type dag struct {
	pieces     []isa.Piece
	defs, uses []regMask // per node, computed once
	out, in    []dep
	outAt      []int
	inAt       []int
	npreds     []int // predecessor counts
	height     []int // longest path to a sink, the priority heuristic
}

// preds returns the edges entering node i.
func (d *dag) preds(i int) []dep { return d.in[d.inAt[i]:d.inAt[i+1]] }

// succs returns the edges leaving node i.
func (d *dag) succs(i int) []dep { return d.out[d.outAt[i]:d.outAt[i+1]] }

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build constructs dependence edges over pieces:
//
//   - true dependences (read after write), with the load-use gap when the
//     producer is a load;
//   - anti and output dependences (write after read/write);
//   - the byte-selector chain (movlo feeds ic);
//   - conservative memory ordering: stores are ordered against all other
//     memory references ("the algorithm must also avoid reordering loads
//     and stores that might be aliased"), loads may pass loads;
//   - special pieces and control flow are scheduling barriers.
func (d *dag) build(pieces []isa.Piece, loadGap int) {
	n := len(pieces)
	d.pieces = pieces
	d.defs = resize(d.defs, n)
	d.uses = resize(d.uses, n)
	d.outAt = resize(d.outAt, n+1)
	d.inAt = resize(d.inAt, n+1)
	d.npreds = resize(d.npreds, n)
	d.height = resize(d.height, n)
	d.out = d.out[:0]
	for i := range pieces {
		d.defs[i], d.uses[i] = pieceDefs(&pieces[i]), pieceUses(&pieces[i])
		d.npreds[i] = 0
	}
	edge := func(p, s, gap int) {
		if p == s {
			return
		}
		d.out = append(d.out, dep{pred: p, succ: s, minGap: gap})
		d.npreds[s]++
	}
	barrier := func(p *isa.Piece) bool {
		return p.IsControl() || p.Kind == isa.PieceSpecial
	}

	for i := 0; i < n; i++ {
		d.outAt[i] = len(d.out)
		pi := &pieces[i]
		iDefs, iUses := d.defs[i], d.uses[i]
		for j := i + 1; j < n; j++ {
			pj := &pieces[j]
			jDefs, jUses := d.defs[j], d.uses[j]

			switch {
			case iDefs&jUses != 0:
				// True dependence. A data-memory load's value arrives a
				// word late; a long immediate comes from the instruction
				// stream and has no delay.
				gap := 1
				if pi.Kind == isa.PieceLoad && pi.Mode != isa.AModeLongImm {
					gap = loadGap
				}
				edge(i, j, gap)
			case iUses&jDefs != 0 || (iDefs&jDefs != 0 && iDefs != 0):
				// Anti or output dependence: order only.
				edge(i, j, 1)
			}

			// Memory ordering: any pair involving a store is kept in
			// program order.
			if (pi.Kind == isa.PieceStore && pj.IsMem()) ||
				(pj.Kind == isa.PieceStore && pi.IsMem()) {
				edge(i, j, 1)
			}

			// Barriers order against everything.
			if barrier(pi) || barrier(pj) {
				edge(i, j, 1)
			}
		}
	}
	d.outAt[n] = len(d.out)

	// Group the same edges by successor.
	at := 0
	for i := 0; i < n; i++ {
		d.inAt[i] = at
		at += d.npreds[i]
	}
	d.inAt[n] = at
	d.in = resize(d.in, at)
	next := d.height // scratch: the next free entry per successor
	copy(next, d.inAt[:n])
	for _, e := range d.out {
		d.in[next[e.succ]] = e
		next[e.succ]++
	}

	// Longest-path heights for the selection heuristic.
	for i := n - 1; i >= 0; i-- {
		h := 0
		for _, e := range d.succs(i) {
			if d.height[e.succ]+1 > h {
				h = d.height[e.succ] + 1
			}
		}
		d.height[i] = h
	}
}

// scheduler holds what every block's scheduling rebuilds: the DAG, the
// per-node issue state, the block's flattened pieces, and the slab the
// emitted words' pieces are carved from. One scheduler serves one
// Reorganize call.
type scheduler struct {
	opt       Options
	st        *Stats
	d         dag
	pieces    []isa.Piece
	scheduled []bool
	slotOf    []int
	npreds    []int
	slab      []isa.Piece
}

// take returns n pieces from the slab. Each window's capacity is capped
// at its length, so no later append or assignment through one word's
// Pieces can reach a neighbour's.
func (sc *scheduler) take(n int) []isa.Piece {
	if len(sc.slab)+n > cap(sc.slab) {
		sc.slab = make([]isa.Piece, 0, max(256, n))
	}
	k := len(sc.slab)
	sc.slab = sc.slab[:k+n]
	return sc.slab[k : k+n : k+n]
}

// word returns a statement holding copies of the given pieces.
func (sc *scheduler) word(ps ...isa.Piece) asm.Stmt {
	w := sc.take(len(ps))
	copy(w, ps)
	return asm.Stmt{Pieces: w}
}

// nop returns a no-op statement.
func (sc *scheduler) nop() asm.Stmt { return sc.word(isa.Nop()) }

// passThrough appends a block's statements unchanged, each with pieces
// the output owns.
func (sc *scheduler) passThrough(out []asm.Stmt, b block) []asm.Stmt {
	for _, s := range b.stmts {
		s.Pieces = sc.word(s.Pieces...).Pieces
		out = append(out, s)
	}
	return out
}

// scheduleBlock appends one block's sequential statements to out as
// pipeline-correct instruction words. Pre-packed and NoReorg blocks pass
// through unchanged (trusting the front end, per the paper's pseudo-op).
func (sc *scheduler) scheduleBlock(out []asm.Stmt, b block) []asm.Stmt {
	opt, st := sc.opt, sc.st
	if b.noReorg {
		return sc.passThrough(out, b)
	}

	// Flatten to single pieces, dropping input no-ops — in sequential
	// semantics they are pure label anchors, and the scheduler re-inserts
	// any the pipeline actually needs. Blocks containing pre-packed words
	// pass through unchanged (the front end scheduled them).
	pieces := sc.pieces[:0]
	for i := range b.stmts {
		if len(b.stmts[i].Pieces) > 1 {
			return sc.passThrough(out, b)
		}
		if b.stmts[i].Pieces[0].IsNop() {
			continue
		}
		pieces = append(pieces, b.stmts[i].Pieces[0])
	}
	sc.pieces = pieces

	// Split off the block-final control piece; it is scheduled last and
	// its delay slots appended after.
	var ctrl *isa.Piece
	if n := len(pieces); n > 0 && pieces[n-1].IsControl() {
		ctrl = &pieces[n-1]
		pieces = pieces[:n-1]
	}

	start := len(out)
	out = sc.scheduleBody(out, pieces)
	body := out[start:]

	// The last executed word of a block must not be a load: the
	// successor block's first word would read it one word too early.
	// With a control piece the delay slot provides the spacing. A
	// machine with hardware interlocks needs neither rule.
	if ctrl == nil {
		if n := len(body); n > 0 && !opt.AssumeInterlocks && wordLoads(&body[n-1]) {
			body = append(body, sc.nop())
		}
	} else {
		// The control piece reads its operands at its own slot; if the
		// preceding word loads a register the control reads, space it.
		cu := pieceUses(ctrl)
		if n := len(body); n > 0 && !opt.AssumeInterlocks && loadDefs(&body[n-1])&cu != 0 {
			body = append(body, sc.nop())
		}
		body = append(body, sc.word(*ctrl))
		// Emit the delay slots as no-ops; scheme 1 may pull a body word
		// down, the global pass may fill the rest.
		delay := ctrl.Delay()
		st.DelaySlots += delay
		for i := 0; i < delay; i++ {
			if opt.FillDelay && tryMoveIntoDelay(&body, ctrl) {
				st.DelayFilled++
				st.SchemeMoved++
				continue
			}
			body = append(body, sc.nop())
		}
		if opt.Pack {
			sc.tryPackControl(&body, delay)
		}
	}

	if len(body) == 0 {
		body = append(body, sc.nop())
	}
	body[0].Labels = b.stmts[0].Labels
	return append(out[:start], body...)
}

// scheduleBody list-schedules the non-control pieces of a block,
// appending the words to out.
func (sc *scheduler) scheduleBody(out []asm.Stmt, pieces []isa.Piece) []asm.Stmt {
	if len(pieces) == 0 {
		return out
	}
	opt := sc.opt
	if !opt.Reorganize {
		return sc.scheduleInOrder(out, pieces)
	}
	d := &sc.d
	d.build(pieces, opt.loadGap())
	n := len(pieces)

	scheduled := resize(sc.scheduled, n)
	slotOf := resize(sc.slotOf, n)
	npreds := resize(sc.npreds, n)
	sc.scheduled, sc.slotOf, sc.npreds = scheduled, slotOf, npreds
	clear(scheduled)
	copy(npreds, d.npreds)

	slot := 0
	remaining := n

	// legalAt reports whether node i may issue in the given slot.
	legalAt := func(i, s int) bool {
		for _, e := range d.preds(i) {
			if !scheduled[e.pred] {
				return false
			}
			if s < slotOf[e.pred]+e.minGap {
				return false
			}
		}
		return true
	}
	issue := func(i int) {
		scheduled[i] = true
		slotOf[i] = slot
		remaining--
		for _, e := range d.succs(i) {
			npreds[e.succ]--
		}
	}

	for remaining > 0 {
		// Gather ready nodes (all predecessors scheduled).
		best := -1
		for i := 0; i < n; i++ {
			if scheduled[i] || npreds[i] > 0 || !legalAt(i, slot) {
				continue
			}
			if best < 0 || better(d, i, best) {
				best = i
			}
		}
		if best < 0 {
			// Nothing can issue: a no-op covers the latency (step 4 of
			// the paper's algorithm).
			out = append(out, sc.nop())
			slot++
			continue
		}
		issue(best)
		word := asm.Stmt{}

		// Packing: prefer a second piece that fits the hole in this
		// nonfull word. It must be ready and legal in the same slot and
		// independent of the co-resident piece (no edge between them).
		if opt.Pack {
			for i := 0; i < n; i++ {
				if scheduled[i] || npreds[i] > 0 || !legalAt(i, slot) {
					continue
				}
				if dependent(d, best, i) {
					continue
				}
				if in, ok := isa.Pack(d.pieces[best], d.pieces[i]); ok {
					word = sc.word(*in.ALU, *in.Mem)
					issue(i)
					break
				}
			}
		}
		if word.Pieces == nil {
			word = sc.word(d.pieces[best])
		}
		out = append(out, word)
		slot++
	}
	return out
}

// scheduleInOrder keeps the original piece order and inserts no-ops
// exactly where the pipeline requires them — the unoptimized baseline.
// With packing enabled it still merges adjacent independent pairs.
func (sc *scheduler) scheduleInOrder(out []asm.Stmt, pieces []isa.Piece) []asm.Stmt {
	opt := sc.opt
	var lastLoadDefs regMask // defs of a load in the previous word
	for i := 0; i < len(pieces); i++ {
		p := &pieces[i]
		if !opt.AssumeInterlocks && lastLoadDefs&pieceUses(p) != 0 {
			out = append(out, sc.nop())
			lastLoadDefs = 0
		}
		var word asm.Stmt
		if opt.Pack && i+1 < len(pieces) {
			q := &pieces[i+1]
			if lastLoadDefs&pieceUses(q) == 0 && independentPieces(p, q) {
				if in, ok := isa.Pack(*p, *q); ok {
					word = sc.word(*in.ALU, *in.Mem)
					i++
				}
			}
		}
		if word.Pieces == nil {
			word = sc.word(*p)
		}
		out = append(out, word)
		lastLoadDefs = loadDefs(&word)
	}
	return out
}

// independentPieces reports whether two pieces have no register or
// memory dependence, so they may share a word in either order.
func independentPieces(p, q *isa.Piece) bool {
	pd, pu := pieceDefs(p), pieceUses(p)
	qd, qu := pieceDefs(q), pieceUses(q)
	if pd&qu != 0 || qd&pu != 0 || (pd&qd != 0 && pd != 0) {
		return false
	}
	if (p.Kind == isa.PieceStore && q.IsMem()) || (q.Kind == isa.PieceStore && p.IsMem()) {
		return false
	}
	return true
}

// dependent reports whether nodes a and b are directly connected in the DAG.
func dependent(d *dag, a, b int) bool {
	for _, e := range d.preds(b) {
		if e.pred == a {
			return true
		}
	}
	for _, e := range d.preds(a) {
		if e.pred == b {
			return true
		}
	}
	return false
}

// better is the selection heuristic: prefer the node with the longer
// path to a sink (critical path first); break ties toward loads, whose
// latency wants covering early; then program order.
func better(d *dag, i, best int) bool {
	if d.height[i] != d.height[best] {
		return d.height[i] > d.height[best]
	}
	iLoad := d.pieces[i].Kind == isa.PieceLoad
	bLoad := d.pieces[best].Kind == isa.PieceLoad
	if iLoad != bLoad {
		return iLoad
	}
	return i < best
}

// tryMoveIntoDelay implements delay scheme 1: move the last body word
// into the slot after the control piece. body currently ends with the
// control word (and possibly already-moved slots).
func tryMoveIntoDelay(body *[]asm.Stmt, ctrl *isa.Piece) bool {
	// Find the control word's position.
	b := *body
	ci := -1
	for i := range b {
		if len(b[i].Pieces) == 1 && b[i].Pieces[0].IsControl() {
			ci = i
		}
	}
	if ci <= 0 {
		return false
	}
	cand := b[ci-1]
	// The moved word must be real work, independent of the branch, and
	// must not be a load (it would become the block's final word).
	if len(cand.Pieces) == 1 && cand.Pieces[0].IsNop() {
		return false
	}
	if wordLoads(&cand) {
		return false
	}
	cu, cd := pieceUses(ctrl), pieceDefs(ctrl)
	if stmtDefs(&cand)&cu != 0 || stmtUses(&cand)&cd != 0 || stmtDefs(&cand)&cd != 0 {
		return false
	}
	// Moving the word exposes the control piece to the word before it:
	// check the load-use spacing is still met.
	if ci >= 2 && loadDefs(&b[ci-2])&cu != 0 {
		return false
	}
	// Splice: [... prev cand ctrl ...] -> [... prev ctrl cand ...]
	b[ci-1], b[ci] = b[ci], b[ci-1]
	*body = b
	return true
}

// tryPackControl merges the word before a direct jump into the control
// word when they can share it: the transfer happens after the delay
// slot either way, so executing the ALU piece in the jump's own word is
// equivalent and one word shorter. (Compare-and-branch words need the
// ALU for their comparison; calls need the link field; neither packs.)
func (sc *scheduler) tryPackControl(body *[]asm.Stmt, delay int) {
	b := *body
	ci := len(b) - 1 - delay
	if ci < 1 {
		return
	}
	cw := &b[ci]
	if len(cw.Pieces) != 1 {
		return
	}
	ctrl := cw.Pieces[0]
	if ctrl.Kind != isa.PieceJump {
		return
	}
	prev := &b[ci-1]
	if len(prev.Pieces) != 1 {
		return
	}
	alu := prev.Pieces[0]
	if !aluClass(&alu) {
		return
	}
	if _, ok := isa.Pack(alu, ctrl); !ok {
		return
	}
	prev.Pieces = sc.word(alu, ctrl).Pieces
	*body = append(b[:ci], b[ci+1:]...)
}

// wordLoads reports whether the word contains a data-memory load.
func wordLoads(s *asm.Stmt) bool {
	for i := range s.Pieces {
		if s.Pieces[i].Kind == isa.PieceLoad && s.Pieces[i].Mode != isa.AModeLongImm {
			return true
		}
	}
	return false
}

// loadDefs returns the registers defined by delayed (data-memory) load
// pieces of the word.
func loadDefs(s *asm.Stmt) regMask {
	var m regMask
	for i := range s.Pieces {
		if s.Pieces[i].Kind == isa.PieceLoad && s.Pieces[i].Mode != isa.AModeLongImm {
			m |= pieceDefs(&s.Pieces[i])
		}
	}
	return m
}
