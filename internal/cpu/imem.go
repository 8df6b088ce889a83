package cpu

import (
	"fmt"
	"slices"
	"sync/atomic"

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
// page (replace) only drops the reference. A restore forks the golden
// image of the capture instead.

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
// Anyone may read it with At and Len. Only the CPU writes it: through
// WriteCode and ReplaceCode, which drop the translations of the words
// they change, and through a restore, which drops every translation.
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

// write copies words into memory starting at pa, growing it to cover
// them. Only pages that hold, or receive, a non-empty word get storage.
func (m *InstrMem) write(pa uint32, words []isa.Instr) {
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

// replace sets the n words at pa to words followed by empty words,
// growing the memory to cover them; pa and n must be whole pages. The
// pages are dropped first, so only those that receive code get storage.
func (m *InstrMem) replace(pa, n uint32, words []isa.Instr) {
	m.grow(pa + n)
	m.ownTable()
	clear(m.pages[pa>>imemPageBits : (pa+n)>>imemPageBits])
	m.write(pa, words[:min(uint32(len(words)), n)])
}

// WriteCode copies words into instruction memory starting at pa,
// growing it to cover them, and drops every translated block and trace
// whose cached words meet the written range. Data memory writes never
// reach instruction memory, so this and ReplaceCode are the only ways
// to change the code of a running machine.
func (c *CPU) WriteCode(pa uint32, words []isa.Instr) {
	c.IMem.write(pa, words)
	c.codeWritten(pa, uint32(len(words)))
}

// ReplaceCode sets the n words at pa to words followed by empty words,
// as a page-in does, and drops the translations that meet them; pa and
// n must be whole pages.
func (c *CPU) ReplaceCode(pa, n uint32, words []isa.Instr) {
	c.IMem.replace(pa, n, words)
	c.codeWritten(pa, n)
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

// CodeRun is one maximal run of non-empty words in a capture of
// instruction memory: Words[i] is the word at physical address Base+i.
type CodeRun struct {
	Base  uint32
	Words []isa.Instr
}

// capture returns the memory's code as its maximal runs of non-empty
// words, in address order, sharing nothing with it. It reads only the
// pages that have storage.
func (m *InstrMem) capture() []CodeRun {
	var runs []CodeRun
	for i, pg := range m.pages {
		if pg == nil {
			continue
		}
		base := uint32(i) << imemPageBits
		for k, in := range pg {
			if !nonEmpty(in) {
				continue
			}
			pa := base + uint32(k)
			if n := len(runs); n > 0 && runs[n-1].Base+uint32(len(runs[n-1].Words)) == pa {
				runs[n-1].Words = append(runs[n-1].Words, in)
			} else {
				runs = append(runs, CodeRun{Base: pa, Words: []isa.Instr{in}})
			}
		}
	}
	return runs
}

// restore replaces the memory with a capture of n words holding runs,
// ending any sharing. Only pages that hold code get storage. The runs
// must lie inside the n words (State.ValidateIMem).
func (m *InstrMem) restore(n uint32, runs []CodeRun) {
	*m = InstrMem{}
	m.grow(n)
	for _, r := range runs {
		m.write(r.Base, r.Words)
	}
}

// ValidateIMem checks that the capture's instruction memory is at most
// mem.MaxPhysWords long and that its runs are in address order, do not
// overlap, and lie inside it. It does not look at the words.
func (st *State) ValidateIMem() error {
	if st.IMemLen > mem.MaxPhysWords {
		return fmt.Errorf("instruction memory of %d words exceeds the %d-word limit", st.IMemLen, mem.MaxPhysWords)
	}
	next := uint64(0)
	for _, r := range st.IMem {
		end := uint64(r.Base) + uint64(len(r.Words))
		switch {
		case uint64(r.Base) < next:
			return fmt.Errorf("code run at %d is out of order or overlaps the run before it", r.Base)
		case end > uint64(st.IMemLen):
			return fmt.Errorf("code run at %d (%d words) exceeds the %d-word instruction memory", r.Base, len(r.Words), st.IMemLen)
		}
		next = end
	}
	return nil
}

// GoldenCode is an immutable instruction-memory image that forks share
// copy-on-write, the instruction half of mem.Golden. Its pages are
// never written after construction, so any number of forks may read
// them from any number of goroutines.
//
// It also carries what the machines running on it learn about its
// code, per entry word (pubEntry): the immutable part of the block
// translated there (blockCode), of the unmapped trace formed there
// (traceCode), each built from these pages alone, and the trace tier's
// heat there. Every machine runs on a golden code (LoadCode) from
// construction to halt: it publishes what it builds, adopts what it
// finds on a miss in its own table, and counts its trace-tier misses
// into the code's heat, so code that every run executes only a few
// times still reaches the formation threshold, once for the image. Its
// execution counts and trace history stay its own. A code write moves
// the machine to a code of its own (codeWritten), which no other
// machine reads. Translations are set once, first publisher wins, and
// never change or go away: they die with the golden code. Every field
// of an entry is atomic, and so are the page slots, so no lock is held.
type GoldenCode struct {
	n     uint32
	pages []*imemPage
	pub   []atomic.Pointer[pubPage] // indexed like pages
}

// pubPage holds the entries published for one instruction-memory page,
// each at its entry word's offset.
type pubPage [imemPageWords]pubEntry

// pubEntry is what is published at one entry word.
type pubEntry struct {
	b  atomic.Pointer[blockCode]
	tr atomic.Pointer[traceCode]
	// heat counts the trace-tier misses of every machine on the code at
	// this entry toward the formation threshold (heatNever once a
	// recording from here failed to form). Starting a recording resets
	// it, so the other machines count afresh while the recording's
	// trace is published.
	heat atomic.Uint32
}

// NewGoldenCode builds the golden image of an instruction memory of n
// words holding runs, with storage only for the pages that hold code.
// The runs must be in address order, must not overlap and must lie
// inside the n words (State.ValidateIMem). It shares nothing with them.
func NewGoldenCode(n uint32, runs []CodeRun) *GoldenCode {
	var m InstrMem
	m.restore(n, runs)
	return &GoldenCode{n: m.n, pages: m.pages, pub: make([]atomic.Pointer[pubPage], len(m.pages))}
}

// GoldenCodeFromState builds the golden image of a capture's
// instruction memory (NewGoldenCode).
func GoldenCodeFromState(st *State) *GoldenCode { return NewGoldenCode(st.IMemLen, st.IMem) }

// fork returns an instruction memory sharing the image's page table and
// every page in it.
func (g *GoldenCode) fork() InstrMem {
	return InstrMem{n: g.n, pages: g.pages[:len(g.pages):len(g.pages)], base: g.pages}
}

// entry returns the published entry of word pa, which lies below g.n,
// adding its page on first use (first adder wins).
func (g *GoldenCode) entry(pa uint32) *pubEntry {
	slot := &g.pub[pa>>imemPageBits]
	pg := slot.Load()
	if pg == nil {
		if pg = new(pubPage); !slot.CompareAndSwap(nil, pg) {
			pg = slot.Load()
		}
	}
	return &pg[pa&imemPageMask]
}

// bump counts one trace-tier miss at the entry for the whole image and
// reports whether the count has reached the formation threshold. A
// poisoned entry never does.
func (e *pubEntry) bump() bool {
	for {
		h := e.heat.Load()
		if h == heatNever {
			return false
		}
		if e.heat.CompareAndSwap(h, h+1) {
			return h+1 >= heatThreshold
		}
	}
}

// cool restarts the entry's count, unless it is poisoned.
func (e *pubEntry) cool() {
	for h := e.heat.Load(); h != heatNever && !e.heat.CompareAndSwap(h, 0); h = e.heat.Load() {
	}
}

// LoadCode makes instruction memory a copy-on-write fork of code and
// moves the machine onto code, dropping every translation it held: a
// block-table miss then adopts the block published on code (and, on
// the trace tier, the trace entered there) instead of translating, what
// the machine translates or forms unmapped it publishes there, and its
// trace-tier heat is the code's.
func (c *CPU) LoadCode(code *GoldenCode) {
	c.dropTranslations()
	c.IMem = code.fork()
	c.code = code
}
