package mem

// The translation cache: a small direct-mapped TLB inside the MMU that
// memoizes the segmentation-unit + page-map walk per (process, page).
// The paper puts the mapping chain in dedicated hardware precisely so
// it costs nothing per reference; the simulator follows suit so the
// mapped hot path is an index, a tag compare, and an or — not a seg
// range check plus a Go map lookup with referenced/dirty write-back.
//
// Coherence is by generation, not by per-entry bookkeeping:
//
//   - the page map counts every Map/Unmap in a generation number; a
//     stale generation flushes the TLB before the next lookup;
//   - the segmentation registers (PID, space size) are part of the TLB's
//     fill context (a Context, the same key the trace tier compiles
//     under); any change — a context switch — flushes likewise, as does
//     swapping the MMU's Seg or Map wholesale;
//   - referenced/dirty bits stay exact: an entry is filled only after
//     the slow path has set the referenced bit, and write hits are only
//     served by entries whose page already had its dirty bit set (a
//     write through a read-filled entry takes the slow path once).
//
// Within one user page, segment-region validity and page permissions
// are uniform (regions and pages are both at least 2^10-word aligned),
// so a per-page entry can stand in for every word of the page. Faults
// are never cached.

// TLB geometry: direct-mapped, power-of-two entries, indexed by the low
// bits of the user virtual page number.
const (
	tlbBits = 7
	// TLBEntries is the number of translation-cache entries.
	TLBEntries = 1 << tlbBits
	tlbMask    = TLBEntries - 1
)

// tlbEntry states.
const (
	tlbInvalid uint8 = iota
	tlbClean         // filled by a read; the page's referenced bit is set
	tlbDirty         // filled by a write; the page's dirty bit is also set
)

// tlbEntry caches one user-page translation under the fill-time
// segmentation context.
type tlbEntry struct {
	vpage uint32 // user virtual page number (tag)
	frame uint32 // physical frame number
	state uint8
}

// tlbState is the translation cache embedded in the MMU, together with
// the context it was filled under.
type tlbState struct {
	entries [TLBEntries]tlbEntry
	ctx     Context
}

// Context is the translation context a reference resolves under:
// whether mapping is on and, when it is, the segmentation registers and
// the page map's identity and edit generation. Two mapped references
// made under equal contexts translate identically, and every referenced
// bit the first set still stands at the second — a PTE's referenced and
// dirty bits are cleared only by Map, which advances the generation.
// The TLB checks its fill context against it on every lookup; the CPU's
// trace tier keys compiled traces by it, so a trace whose context
// matches needs none of the fetch translations its recording made.
type Context struct {
	Mapped bool
	Seg    SegUnit
	Map    *PageMap
	Gen    uint64
}

// Context returns the translation context references resolve under:
// the zero Context when mapping is off, else the current segmentation
// registers and page map.
func (m *MMU) Context(mapped bool) Context {
	if !mapped {
		return Context{}
	}
	return Context{Mapped: true, Seg: m.Seg, Map: m.Map, Gen: m.Map.gen}
}

// FlushTLB invalidates every translation-cache entry. Translation
// re-validates the fill context on every lookup, so explicit flushes
// are needed only by code that mutates page-table entries behind the
// page map's back (tests, mostly).
func (m *MMU) FlushTLB() {
	clear(m.tlb.entries[:]) // the zero entry is tlbInvalid
}

// tlbLookup returns the cached physical address for a mapped reference,
// if the cache can serve it exactly. The second result reports a hit.
func (m *MMU) tlbLookup(addr uint32, write bool) (uint32, bool) {
	if !m.SyncTLB() {
		return 0, false
	}
	return m.Probe(addr, write)
}

// SyncTLB revalidates the TLB's fill context against the current one,
// flushing it on a change, and reports whether the context held.
// Translate does this on every lookup; a caller that holds the context
// fixed across many references syncs once and then uses Probe.
func (m *MMU) SyncTLB() bool {
	if ctx := m.Context(true); ctx != m.tlb.ctx {
		m.FlushTLB()
		m.tlb.ctx = ctx
		return false
	}
	return true
}

// Probe serves a mapped reference from the TLB alone, if the TLB can
// serve it exactly, without revalidating the fill context. It is exact
// only while the context has not changed since the last SyncTLB or
// Translate: the CPU's trace tier syncs at dispatch and runs each trace
// under one fixed context, falling back to Translate on a miss. Any
// other caller uses Translate.
func (m *MMU) Probe(addr uint32, write bool) (uint32, bool) {
	vpage := addr >> PageBits
	e := &m.tlb.entries[vpage&tlbMask]
	if e.state == tlbInvalid || e.vpage != vpage {
		return 0, false
	}
	if write && e.state != tlbDirty {
		// The page's dirty bit may not be set yet: take the slow path
		// once so the page map records the write.
		return 0, false
	}
	return e.frame<<PageBits | addr&(PageWords-1), true
}

// tlbFill records a successful slow-path translation. The slow path has
// already updated the page's referenced (and, for writes, dirty) bits.
func (m *MMU) tlbFill(addr, pa uint32, write bool) {
	vpage := addr >> PageBits
	e := &m.tlb.entries[vpage&tlbMask]
	e.vpage = vpage
	e.frame = pa >> PageBits
	if write {
		e.state = tlbDirty
	} else {
		e.state = tlbClean
	}
}
