package mem

import "slices"

// Copy-on-write forks over a golden frame set. A Golden is the frozen
// page-frame table of a pre-booted machine's memory, and Fork builds a
// Physical whose table starts as a reference to the golden's: every
// page reads the golden frame until the first store that changes a word
// of it, which copies that one frame (mem.go, Physical.own) before the
// store lands; the write barrier fires exactly as for any store. A fork
// therefore costs O(pages-touched), never O(memory): its only
// allocations are its 64-entry top level, one chunk per 64 pages it
// writes into, and one frame per page it writes.
//
// Concurrency contract: a Golden's chunks and frames are never written
// after construction, so any number of forks may read them from any
// number of goroutines without synchronization. Each fork's private state
// (frames, fault counter) follows the Physical contract — one machine,
// one goroutine at a time.

// Golden is an immutable frame set shared copy-on-write by forks.
type Golden struct {
	size     uint32
	romLimit uint32
	top      []*chunk // never written: forks copy a chunk or frame before storing
}

// GoldenFromState materializes a golden frame set from a physical-
// memory capture (the snapshot payload's PhysState). Only the pages the
// capture's runs cover get frames. The result shares nothing with the
// capture. The capture must pass Validate.
func GoldenFromState(st PhysState) *Golden {
	p := NewPhysical(int(st.Size))
	p.load(st.Runs)
	return &Golden{size: p.size, romLimit: st.ROMLimit, top: p.top}
}

// Size returns the frame set's size in words.
func (g *Golden) Size() uint32 { return g.size }

// Pages returns the frame set's size in pages (the last page may be
// partial on non-page-multiple memories).
func (g *Golden) Pages() int { return int((g.size + PageWords - 1) / PageWords) }

// Fork returns a new Physical sharing the golden frames copy-on-write.
// The fork starts with every page shared and no private frames at all;
// the first store that changes a word of a page copies that one frame.
func (g *Golden) Fork() *Physical {
	return &Physical{
		size:     g.size,
		romLimit: g.romLimit,
		top:      slices.Clone(g.top),
		base:     g.top,
		forked:   true,
	}
}

// COWStats describes a memory's copy-on-write state.
type COWStats struct {
	// Forked reports whether the memory was created by Golden.Fork and
	// still shares frames with its golden image.
	Forked bool
	// PrivatePages is the number of pages privatized by stores.
	PrivatePages int
	// Faults is the number of COW frame copies performed (equals
	// PrivatePages while the fork is live; survives a restore).
	Faults uint64
}

// COWStats returns the memory's copy-on-write counters. Zero-valued for
// memories that were never forked.
func (p *Physical) COWStats() COWStats {
	st := COWStats{Forked: p.forked, Faults: p.cowFaults}
	if p.forked {
		for ci, ch := range p.top {
			for i, fr := range ch {
				if fr != p.base[ci][i] {
					st.PrivatePages++
				}
			}
		}
	}
	return st
}
