package cpu

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// storedPages counts the pages an instruction memory has storage for.
func storedPages(m *InstrMem) int {
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// privatePages counts the pages a fork has storage of its own for: the
// stored pages that are not its golden image's.
func privatePages(m *InstrMem) int {
	n := 0
	for i, pg := range m.pages {
		if pg != nil && (i >= len(m.base) || pg != m.base[i]) {
			n++
		}
	}
	return n
}

// TestInstrMemPagedLength pins the paged instruction memory's exact
// length semantics: storage only for pages that hold a non-empty word,
// empty words inside the length decode as illegal, and a fetch at the
// length is a page fault.
func TestInstrMemPagedLength(t *testing.T) {
	c := newTestCPU()
	add := w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))
	c.IMem.Set(5000, add)
	if c.IMem.Len() != 5001 || storedPages(&c.IMem) != 1 {
		t.Fatalf("Set(5000): len %d with %d pages, want 5001 with 1", c.IMem.Len(), storedPages(&c.IMem))
	}
	c.IMem.Write(6000, make([]isa.Instr, 3000))
	if c.IMem.Len() != 9000 || storedPages(&c.IMem) != 1 {
		t.Fatalf("writing empty words: len %d with %d pages, want 9000 with 1", c.IMem.Len(), storedPages(&c.IMem))
	}
	if got := c.IMem.At(5000); got != add {
		t.Fatalf("At(5000) = %v", got)
	}
	if _, f := c.fetch(4999); f == nil || f.Cause != isa.CauseIllegal {
		t.Errorf("fetch of an empty word inside the length: fault %v, want illegal", f)
	}
	if _, f := c.fetch(9000); f == nil || f.Cause != isa.CausePageFault {
		t.Errorf("fetch at the length: fault %v, want page fault", f)
	}
	c.IMem.Replace(4*mem.PageWords, mem.PageWords, []isa.Instr{add})
	if c.IMem.Len() != 9000 || storedPages(&c.IMem) != 1 || c.IMem.At(5000) != (isa.Instr{}) {
		t.Errorf("Replace of the frame: len %d with %d pages, At(5000) = %v; want the old page dropped",
			c.IMem.Len(), storedPages(&c.IMem), c.IMem.At(5000))
	}
	if got := c.IMem.At(4 * mem.PageWords); got != add {
		t.Errorf("Replace did not install the frame's code: %v", got)
	}

	st := c.CaptureState()
	if len(st.IMem) != 9000 || st.IMem[4*mem.PageWords] != add {
		t.Fatalf("capture flattened %d words", len(st.IMem))
	}
	r := newTestCPU()
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if r.IMem.Len() != 9000 || storedPages(&r.IMem) != 1 || r.IMem.At(4*mem.PageWords) != add {
		t.Errorf("restore: len %d with %d pages", r.IMem.Len(), storedPages(&r.IMem))
	}
}

// TestGoldenCodeForkCopyOnWrite pins the fork contract for instruction
// memory: a fork allocates no page until it writes one, a write copies
// exactly that page, and neither the golden image nor a sibling fork
// sees the write. Dropping a shared page drops only the reference, and
// a restore ends the sharing.
func TestGoldenCodeForkCopyOnWrite(t *testing.T) {
	add := w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))
	sub := w(isa.ALU(isa.OpSub, 2, isa.R(2), isa.Imm(1)))
	st := newTestCPU().CaptureState()
	st.IMem = make([]isa.Instr, 3*imemPageWords+10)
	for _, pa := range []int{0, 1, 2*imemPageWords + 5, 3*imemPageWords + 9} {
		st.IMem[pa] = add
	}
	g := GoldenCodeFromState(&st)
	if n := storedPages(&InstrMem{pages: g.pages}); n != 3 {
		t.Fatalf("golden image stores %d pages, want 3 (page 1 holds no code)", n)
	}
	if n := testing.AllocsPerRun(10, func() { _ = g.fork() }); n != 0 {
		t.Errorf("fork allocated %.0f times, want 0", n)
	}
	a, b := g.fork(), g.fork()
	if a.base == nil || privatePages(&a) != 0 {
		t.Fatalf("fresh fork: %d private pages, want every page shared", privatePages(&a))
	}

	pa := uint32(2*imemPageWords + 7)
	a.Set(pa, sub)
	copied := a.pages[2]
	if n := privatePages(&a); n != 1 || copied == g.pages[2] {
		t.Errorf("after one write: %d private pages, want that one page copied", n)
	}
	a.Set(pa+1, sub)
	if n := privatePages(&a); n != 1 || a.pages[2] != copied {
		t.Errorf("second write into the copied page: %d private pages, want no further copy", n)
	}
	if a.At(pa) != sub || a.At(2*imemPageWords+5) != add {
		t.Error("the writer lost its write or the page's other words")
	}
	if b.At(pa) != (isa.Instr{}) || g.pages[2][7] != (isa.Instr{}) {
		t.Error("the write leaked into the golden image or a sibling fork")
	}

	b.Replace(0, imemPageWords, nil)
	if n := privatePages(&b); n != 0 || b.pages[0] != nil {
		t.Errorf("dropping a shared page: %d private pages, want no copy", n)
	}
	if b.At(0) != (isa.Instr{}) || g.pages[0][0] != add {
		t.Error("Replace did not drop the page, or wrote through to the golden image")
	}
	b.Set(imemPageWords+3, add)
	if n := privatePages(&b); n != 1 || b.pages[2] != g.pages[2] || b.pages[3] != g.pages[3] {
		t.Errorf("first write into a page the image has no storage for: %d private pages, want only that one", n)
	}

	c := newTestCPU()
	if err := c.RestoreFork(&st, g); err != nil {
		t.Fatal(err)
	}
	if got := c.CaptureState().IMem; len(got) != len(st.IMem) || got[2*imemPageWords+5] != add || got[imemPageWords] != (isa.Instr{}) {
		t.Error("a fork's capture differs from the capture it was forked from")
	}
	if err := c.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i, pg := range c.IMem.pages {
		if pg != nil && pg == g.pages[i] {
			t.Errorf("restore over a fork kept sharing page %d", i)
		}
	}
}

// TestTranslateBlockAllocsConstant holds block translation to one
// allocation count whatever the block's length: the body is counted
// first and allocated once at its exact size.
func TestTranslateBlockAllocsConstant(t *testing.T) {
	var want float64
	for i, n := range []int{1, 7, 31, blockMaxWords - 1} {
		words := make([]isa.Instr, n, n+1)
		for k := range words {
			words[k] = w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))
		}
		c := newTestCPU(append(words, halt)...)
		var b *block
		got := testing.AllocsPerRun(20, func() { b = c.translateBlock(0) })
		if b.n != uint32(n) || !b.hasTerm {
			t.Fatalf("%d-word body: translated n=%d hasTerm=%v", n, b.n, b.hasTerm)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%d-word body: %.0f allocations per translation, want %.0f as for 1 word", n, got, want)
		}
	}
}

// TestInvalidationDropsTranslationRefs pins that dropped blocks and
// traces become unreachable: after a write-barrier drop, InvalidateBlocks
// and InvalidateTraces, no slot past the live lists' lengths and no
// trace recording entry still points at one.
func TestInvalidationDropsTranslationRefs(t *testing.T) {
	c := tracesCPU(5000)
	check := func(when string) {
		t.Helper()
		if n := c.staleTranslationRefs(); n != 0 {
			t.Errorf("%s: %d stale translation references", when, n)
		}
	}
	stepUntil := func(cond func() bool) {
		t.Helper()
		for !cond() {
			if c.Halted {
				t.Fatal("halted before the trace tier warmed up")
			}
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepUntil(func() bool { return c.Trans.TraceDispatchHits > 0 && c.PC() == 2 })
	check("after trace formation")
	c.Bus.MMU.Phys.Poke(2, 0) // the word is unchanged in IMem: only the barrier fires
	if c.Trans.TraceInvalidations == 0 {
		t.Fatal("the Poke dropped no trace; the test is vacuous")
	}
	check("after a write-barrier drop")
	hits := c.Trans.TraceDispatchHits
	stepUntil(func() bool { return c.Trans.TraceDispatchHits > hits && c.PC() == 2 })
	if len(c.liveBlocks) == 0 || len(c.liveTraces) == 0 {
		t.Fatal("nothing translated; the test is vacuous")
	}
	c.InvalidateBlocks()
	check("after InvalidateBlocks")
	c.InvalidateTraces()
	check("after InvalidateTraces")
	run(t, c, 1_000_000)
	if c.Regs[2] != 25000 {
		t.Errorf("r2 = %d, want 25000", c.Regs[2])
	}
}
