package cpu

import (
	"reflect"
	"strings"
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
	c.WriteCode(5000, []isa.Instr{add})
	if c.IMem.Len() != 5001 || storedPages(&c.IMem) != 1 {
		t.Fatalf("WriteCode(5000): len %d with %d pages, want 5001 with 1", c.IMem.Len(), storedPages(&c.IMem))
	}
	c.WriteCode(6000, make([]isa.Instr, 3000))
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
	c.ReplaceCode(4*mem.PageWords, mem.PageWords, []isa.Instr{add})
	if c.IMem.Len() != 9000 || storedPages(&c.IMem) != 1 || c.IMem.At(5000) != (isa.Instr{}) {
		t.Errorf("Replace of the frame: len %d with %d pages, At(5000) = %v; want the old page dropped",
			c.IMem.Len(), storedPages(&c.IMem), c.IMem.At(5000))
	}
	if got := c.IMem.At(4 * mem.PageWords); got != add {
		t.Errorf("Replace did not install the frame's code: %v", got)
	}

	st := c.CaptureState()
	if st.IMemLen != 9000 || len(st.IMem) != 1 || st.IMem[0].Base != 4*mem.PageWords ||
		len(st.IMem[0].Words) != 1 || st.IMem[0].Words[0] != add {
		t.Fatalf("capture of %d words holds runs %v, want one word at %d", st.IMemLen, st.IMem, 4*mem.PageWords)
	}
	r := newTestCPU()
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if r.IMem.Len() != 9000 || storedPages(&r.IMem) != 1 || r.IMem.At(4*mem.PageWords) != add {
		t.Errorf("restore: len %d with %d pages", r.IMem.Len(), storedPages(&r.IMem))
	}
}

// TestCaptureCodeRuns pins the capture of instruction memory: the
// maximal runs of non-empty words in address order, a run crossing a
// page boundary staying whole and an empty word ending one. A restore
// rebuilds the same memory, storing only the pages that hold code.
func TestCaptureCodeRuns(t *testing.T) {
	add := w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))
	sub := w(isa.ALU(isa.OpSub, 2, isa.R(2), isa.Imm(1)))
	c := newTestCPU()
	c.WriteCode(0, []isa.Instr{add})
	c.WriteCode(imemPageWords-1, []isa.Instr{add, sub})        // crosses into page 1
	c.WriteCode(imemPageWords+2, []isa.Instr{sub})             // after one empty word
	c.WriteCode(4*imemPageWords+7, []isa.Instr{add, add, sub}) // pages 2 and 3 hold nothing
	c.WriteCode(5*imemPageWords, make([]isa.Instr, 40))        // empty words only grow it
	st := c.CaptureState()
	want := []CodeRun{
		{Base: 0, Words: []isa.Instr{add}},
		{Base: imemPageWords - 1, Words: []isa.Instr{add, sub}},
		{Base: imemPageWords + 2, Words: []isa.Instr{sub}},
		{Base: 4*imemPageWords + 7, Words: []isa.Instr{add, add, sub}},
	}
	if st.IMemLen != 5*imemPageWords+40 || !reflect.DeepEqual(st.IMem, want) {
		t.Fatalf("capture: %d words, runs %v; want %d words, runs %v", st.IMemLen, st.IMem, 5*imemPageWords+40, want)
	}
	if err := st.ValidateIMem(); err != nil {
		t.Fatalf("a capture fails its own validation: %v", err)
	}
	r := newTestCPU()
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if r.IMem.Len() != st.IMemLen || storedPages(&r.IMem) != 3 {
		t.Errorf("restore: %d words with %d stored pages, want %d with 3", r.IMem.Len(), storedPages(&r.IMem), st.IMemLen)
	}
	for pa := uint32(0); pa < st.IMemLen; pa++ {
		if r.IMem.At(pa) != c.IMem.At(pa) {
			t.Fatalf("restored word %d = %v, want %v", pa, r.IMem.At(pa), c.IMem.At(pa))
		}
	}
}

// TestValidateIMemRejectsMalformedRuns pins the run rules a restore
// holds a capture to: a length within mem.MaxPhysWords, runs inside it,
// in address order and disjoint.
func TestValidateIMemRejectsMalformedRuns(t *testing.T) {
	add := w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))
	two := []isa.Instr{add, add}
	for name, c := range map[string]struct {
		n    uint32
		runs []CodeRun
		want string
	}{
		"over-max":        {mem.MaxPhysWords + 1, nil, "limit"},
		"run-past-end":    {100, []CodeRun{{Base: 99, Words: two}}, "exceeds"},
		"run-base-wraps":  {100, []CodeRun{{Base: 1<<32 - 1, Words: two}}, "exceeds"},
		"unsorted":        {100, []CodeRun{{Base: 50, Words: two}, {Base: 10, Words: two}}, "order"},
		"overlapping":     {100, []CodeRun{{Base: 10, Words: two}, {Base: 11, Words: two}}, "overlaps"},
		"duplicated-base": {100, []CodeRun{{Base: 10, Words: two}, {Base: 10, Words: two}}, "overlaps"},
	} {
		st := newTestCPU().CaptureState()
		st.IMemLen, st.IMem = c.n, c.runs
		err := st.ValidateIMem()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ValidateIMem = %v, want an error saying %q", name, err, c.want)
		}
		if err := newTestCPU().RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted the capture", name)
		}
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
	st.IMemLen = 3*imemPageWords + 10
	st.IMem = []CodeRun{
		{Base: 0, Words: []isa.Instr{add, add}},
		{Base: 2*imemPageWords + 5, Words: []isa.Instr{add}},
		{Base: 3*imemPageWords + 9, Words: []isa.Instr{add}},
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
	a.write(pa, []isa.Instr{sub})
	copied := a.pages[2]
	if n := privatePages(&a); n != 1 || copied == g.pages[2] {
		t.Errorf("after one write: %d private pages, want that one page copied", n)
	}
	a.write(pa+1, []isa.Instr{sub})
	if n := privatePages(&a); n != 1 || a.pages[2] != copied {
		t.Errorf("second write into the copied page: %d private pages, want no further copy", n)
	}
	if a.At(pa) != sub || a.At(2*imemPageWords+5) != add {
		t.Error("the writer lost its write or the page's other words")
	}
	if b.At(pa) != (isa.Instr{}) || g.pages[2][7] != (isa.Instr{}) {
		t.Error("the write leaked into the golden image or a sibling fork")
	}

	b.replace(0, imemPageWords, nil)
	if n := privatePages(&b); n != 0 || b.pages[0] != nil {
		t.Errorf("dropping a shared page: %d private pages, want no copy", n)
	}
	if b.At(0) != (isa.Instr{}) || g.pages[0][0] != add {
		t.Error("replace did not drop the page, or wrote through to the golden image")
	}
	b.write(imemPageWords+3, []isa.Instr{add})
	if n := privatePages(&b); n != 1 || b.pages[2] != g.pages[2] || b.pages[3] != g.pages[3] {
		t.Errorf("first write into a page the image has no storage for: %d private pages, want only that one", n)
	}

	c := newTestCPU()
	if err := c.RestoreFork(&st, g); err != nil {
		t.Fatal(err)
	}
	if got := c.CaptureState(); got.IMemLen != st.IMemLen || !reflect.DeepEqual(got.IMem, st.IMem) {
		t.Errorf("a fork's capture (%d words, runs %v) differs from the capture it was forked from", got.IMemLen, got.IMem)
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
		var b blockCode
		got := testing.AllocsPerRun(20, func() { c.translateBlock(&b, 0) })
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
// traces become unreachable: after a code write's drop and after
// dropTranslations, no block-table slot, no slot past the live lists'
// lengths and no trace recording entry still points at one.
func TestInvalidationDropsTranslationRefs(t *testing.T) {
	c := tracesCPU(5000)
	check := func(when string) {
		t.Helper()
		if n := c.staleTranslationRefs(); n != 0 {
			t.Errorf("%s: %d stale translation references", when, n)
		}
	}
	// Two steps reach the loop head; from there each 80-step run is
	// twenty iterations (words 2..5) and returns to it.
	c.RunSteps(2)
	stepUntil := func(cond func() bool) {
		t.Helper()
		for !cond() {
			if c.Halted {
				t.Fatal("halted before the trace tier warmed up")
			}
			c.RunSteps(80)
		}
	}
	stepUntil(func() bool { return c.Trans.TraceDispatchHits > 0 && c.PC() == 2 })
	check("after trace formation")
	c.WriteCode(2, []isa.Instr{c.IMem.At(2)}) // the same word: only the drop is seen
	if c.Trans.TraceInvalidations == 0 {
		t.Fatal("the code write dropped no trace; the test is vacuous")
	}
	check("after a code write's drop")
	hits := c.Trans.TraceDispatchHits
	stepUntil(func() bool { return c.Trans.TraceDispatchHits > hits && c.PC() == 2 })
	if len(c.liveBlocks()) == 0 || len(c.liveTraces()) == 0 {
		t.Fatal("nothing translated; the test is vacuous")
	}
	c.dropTranslations()
	check("after dropTranslations")
	run(t, c, 1_000_000)
	if c.Regs[2] != 25000 {
		t.Errorf("r2 = %d, want 25000", c.Regs[2])
	}
}
