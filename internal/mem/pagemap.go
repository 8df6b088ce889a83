package mem

import "mips/internal/isa"

// PageBits is the log2 of the page size in words: 1K-word (4KB) pages.
const PageBits = 10

// PageWords is the page size in words.
const PageWords = 1 << PageBits

// PTE is one entry of the off-chip page map.
type PTE struct {
	Frame      uint32 // physical frame number
	Valid      bool
	Writable   bool
	Referenced bool
	Dirty      bool
}

// PageMap is the off-chip page-level mapping unit. Because the on-chip
// segmentation already confines each process to its own slice of the
// 16M-word system virtual space, one map "can simultaneously contain
// entries for many processes without a corresponding increase in the tag
// field size" (paper §3.1): the map is indexed by system virtual page,
// with the PID already folded into the top bits.
type PageMap struct {
	entries map[uint32]PTE
	// gen counts structural edits (Map/Unmap), so translation caches
	// built over this map can detect staleness with one compare.
	gen uint64
}

// NewPageMap returns an empty page map. Its table is allocated by the
// first Map, so a machine that never maps a page never pays for it.
func NewPageMap() *PageMap { return &PageMap{} }

// Map installs a translation for the given system virtual page.
func (m *PageMap) Map(vpage, frame uint32, writable bool) {
	if m.entries == nil {
		m.entries = make(map[uint32]PTE)
	}
	m.entries[vpage] = PTE{Frame: frame, Valid: true, Writable: writable}
	m.gen++
}

// Unmap removes a translation.
func (m *PageMap) Unmap(vpage uint32) {
	delete(m.entries, vpage)
	m.gen++
}

// Generation returns the map-edit counter; it advances on every Map and
// Unmap, never on translation-time referenced/dirty updates.
func (m *PageMap) Generation() uint64 { return m.gen }

// Entry returns the entry for a page.
func (m *PageMap) Entry(vpage uint32) (PTE, bool) {
	e, ok := m.entries[vpage]
	return e, ok
}

// Len returns the number of installed translations.
func (m *PageMap) Len() int { return len(m.entries) }

// Pages calls fn for every mapped page until fn returns false.
func (m *PageMap) Pages(fn func(vpage uint32, e PTE) bool) {
	for v, e := range m.entries {
		if !fn(v, e) {
			return
		}
	}
}

// Translate maps a system virtual word address to a physical word
// address, updating the referenced and dirty bits. A missing or invalid
// entry, or a write to a read-only page, is a page fault to be resolved
// by the operating system (demand paging, paper §3.3).
func (m *PageMap) Translate(sysVirt uint32, write bool) (uint32, *Fault) {
	vpage := sysVirt >> PageBits
	e, ok := m.entries[vpage]
	if !ok || !e.Valid {
		return 0, &Fault{Cause: isa.CausePageFault, Addr: sysVirt, Write: write}
	}
	if write && !e.Writable {
		return 0, &Fault{Cause: isa.CausePageFault, Addr: sysVirt, Write: true}
	}
	e.Referenced = true
	if write {
		e.Dirty = true
	}
	m.entries[vpage] = e
	return e.Frame<<PageBits | sysVirt&(PageWords-1), nil
}

// MMU combines the on-chip segmentation unit, the off-chip page map, and
// physical memory into the processor's view of storage. When mapping is
// disabled (supervisor running in physical address space after an
// exception) addresses bypass both units. A small translation cache
// (tlb.go) memoizes the seg+map walk per page; it revalidates its fill
// context on every lookup, so Seg and Map may be reassigned freely.
type MMU struct {
	Seg  SegUnit
	Map  *PageMap
	Phys *Physical

	tlb tlbState
}

// NewMMU builds an MMU over the given physical memory with an empty page
// map and a full-space segment for PID 0.
func NewMMU(phys *Physical) *MMU {
	return &MMU{
		Seg:  NewSegUnit(0, MappedSpaceBits),
		Map:  NewPageMap(),
		Phys: phys,
	}
}

// Translate maps a user address to a physical address. mapped selects
// whether the segmentation and page map are active. Repeated references
// to the same page are served by the translation cache; misses walk the
// segmentation unit and page map and memoize the result.
func (m *MMU) Translate(addr uint32, write, mapped bool) (uint32, *Fault) {
	if !mapped {
		return addr, nil
	}
	if pa, ok := m.tlbLookup(addr, write); ok {
		return pa, nil
	}
	sys, f := m.Seg.Translate(addr)
	if f != nil {
		return 0, f
	}
	pa, f := m.Map.Translate(sys, write)
	if f != nil {
		return 0, f
	}
	m.tlbFill(addr, pa, write)
	return pa, nil
}

// Read fetches the word at a (possibly mapped) address.
func (m *MMU) Read(addr uint32, mapped bool) (uint32, *Fault) {
	pa, f := m.Translate(addr, false, mapped)
	if f != nil {
		return 0, f
	}
	return m.Phys.Read(pa)
}

// Write stores a word at a (possibly mapped) address.
func (m *MMU) Write(addr, val uint32, mapped bool) *Fault {
	pa, f := m.Translate(addr, true, mapped)
	if f != nil {
		return f
	}
	return m.Phys.Write(pa, val)
}
