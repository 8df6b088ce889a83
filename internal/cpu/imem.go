package cpu

import (
	"slices"

	"mips/internal/isa"
	"mips/internal/mem"
)

// Instruction memory is paged the way physical data memory is
// (mem.Physical): a page has storage only once it holds a non-empty
// word, so a kernel machine whose code sits in a few frames above the
// kernel's own costs those pages, not a flat array up to its highest
// frame. The length stays exact: a fetch at or past it is a page fault,
// and an empty word below it decodes as illegal.
//
// A fork (GoldenCode.fork) starts on an immutable golden image's page
// table, allocating nothing. Any write into a shared page copies that
// one page first (and the table, the first time); dropping a shared
// page (Replace) only drops the reference. Restoring over a fork ends
// the sharing wholesale.

// imemPageBits sizes an instruction-memory page: 256 words (4 KB). A
// data frame spans four, and a page-in allocates only those that hold
// code; a cold kernel boot allocated 45 KB with these pages and 54 KB
// with frame-sized ones.
const (
	imemPageBits  = 8
	imemPageWords = 1 << imemPageBits
	imemPageMask  = imemPageWords - 1
)

var _ = [1]struct{}{}[mem.PageWords%imemPageWords] // a frame is whole pages

// imemPage is one page of instruction memory.
type imemPage [imemPageWords]isa.Instr

// InstrMem is the instruction memory, indexed by physical word address.
// Harnesses read it with At and write it with Set or Write; direct
// rewriting of code must also Poke the physical word (see tracecache.go)
// so the translation caches notice.
type InstrMem struct {
	// n is the length in words. pages has one entry per page below n; a
	// nil page reads as empty words, and every word at or past n is
	// empty.
	n     uint32
	pages []*imemPage
	// base is the golden page table a fork shares: a page still equal
	// to its base entry is copied before any write. A restore clears it.
	base []*imemPage
}

// Len returns the memory's length in words.
func (m *InstrMem) Len() uint32 { return m.n }

// At returns the word at pa. Words of a page without storage, and words
// at or past Len, are empty.
func (m *InstrMem) At(pa uint32) isa.Instr {
	if i := pa >> imemPageBits; i < uint32(len(m.pages)) {
		if pg := m.pages[i]; pg != nil {
			return pg[pa&imemPageMask]
		}
	}
	return isa.Instr{}
}

// Set writes one word, growing the memory to cover pa.
func (m *InstrMem) Set(pa uint32, in isa.Instr) { m.Write(pa, []isa.Instr{in}) }

// Write copies words into memory starting at pa, growing it to cover
// them. Only pages that hold, or receive, a non-empty word get storage.
func (m *InstrMem) Write(pa uint32, words []isa.Instr) {
	m.grow(pa + uint32(len(words)))
	for len(words) > 0 {
		i, off := pa>>imemPageBits, pa&imemPageMask
		n := min(uint32(len(words)), imemPageWords-off)
		if m.pages[i] != nil || slices.ContainsFunc(words[:n], nonEmpty) {
			copy(m.writable(i)[off:], words[:n])
		}
		pa, words = pa+n, words[n:]
	}
}

// Replace sets the n words at pa to words followed by empty words,
// growing the memory to cover them; pa and n must be whole pages. The
// pages are dropped first, so only those that receive code get storage.
func (m *InstrMem) Replace(pa, n uint32, words []isa.Instr) {
	m.grow(pa + n)
	m.ownTable()
	clear(m.pages[pa>>imemPageBits : (pa+n)>>imemPageBits])
	m.Write(pa, words[:min(uint32(len(words)), n)])
}

func nonEmpty(in isa.Instr) bool { return in.ALU != nil || in.Mem != nil }

// grow extends the length to at least n words. A fork's table has no
// spare capacity, so growing it never writes the golden image's.
func (m *InstrMem) grow(n uint32) {
	if n <= m.n {
		return
	}
	m.n = n
	if need := int((n + imemPageMask) >> imemPageBits); need > len(m.pages) {
		m.pages = append(m.pages, make([]*imemPage, need-len(m.pages))...)
	}
}

// writable returns page i with storage of the memory's own, copying it
// first if it is still shared with the golden image.
func (m *InstrMem) writable(i uint32) *imemPage {
	pg := m.pages[i]
	shared := i < uint32(len(m.base)) && pg == m.base[i]
	if pg != nil && !shared {
		return pg
	}
	m.ownTable()
	own := new(imemPage)
	if pg != nil {
		*own = *pg
	}
	m.pages[i] = own
	return own
}

// ownTable gives a fork a page table of its own before it changes an
// entry: it starts on the golden image's.
func (m *InstrMem) ownTable() {
	if len(m.pages) > 0 && len(m.base) > 0 && &m.pages[0] == &m.base[0] {
		m.pages = slices.Clone(m.pages)
	}
}

// flatten returns the memory as one physically indexed slice of Len
// words, sharing nothing with it.
func (m *InstrMem) flatten() []isa.Instr {
	out := make([]isa.Instr, m.n)
	for i, pg := range m.pages {
		if pg != nil {
			copy(out[i<<imemPageBits:], pg[:])
		}
	}
	return out
}

// restore replaces the memory with a flat capture, ending any sharing.
// Only pages that hold code get storage.
func (m *InstrMem) restore(words []isa.Instr) {
	*m = InstrMem{}
	m.Write(0, words)
}

// GoldenCode is an immutable instruction-memory image that forks share
// copy-on-write, the instruction half of mem.Golden. Its pages are
// never written after construction, so any number of forks may read
// them from any number of goroutines.
type GoldenCode struct {
	n     uint32
	pages []*imemPage
}

// GoldenCodeFromState builds the golden image of a capture's
// instruction memory, with storage only for the pages that hold code.
// It shares nothing with the capture.
func GoldenCodeFromState(st *State) *GoldenCode {
	var m InstrMem
	m.restore(st.IMem)
	return &GoldenCode{n: m.n, pages: m.pages}
}

// fork returns an instruction memory sharing the image's page table and
// every page in it.
func (g *GoldenCode) fork() InstrMem {
	return InstrMem{n: g.n, pages: g.pages[:len(g.pages):len(g.pages)], base: g.pages}
}
