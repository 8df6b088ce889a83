// Package mem models the MIPS memory architecture (paper §3.1): a
// word-addressed physical memory with a ROM region for the dispatch
// routine, an on-chip segmentation unit that inserts a process identifier
// into the top bits of every virtual address, an optional off-chip
// page-level mapping unit, and a DMA engine that consumes the free memory
// cycles the processor announces on its status pin.
package mem

import (
	"fmt"
	"slices"

	"mips/internal/isa"
)

// Fault describes a memory exception: the cause that will be written
// into the surprise register and the offending address.
type Fault struct {
	Cause isa.Cause
	Addr  uint32
	Write bool
}

func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("%s fault: %s at word %#x", f.Cause, op, f.Addr)
}

// Physical is the physical word memory. The first RomWords words are the
// dispatch ROM: "it must be put in a ROM on the virtual address bus"
// (paper §3.3); writes to sealed ROM fail.
//
// Every memory is a page-frame table over an immutable backing. The
// backing is a Golden's frames (a copy-on-write fork, cow.go) or
// nothing, in which case a page reads as zero. The first store to a page
// gives the memory its own copy of that frame, so a memory costs the
// pages it has written, not its size. The table has two levels: one
// chunk per 64 pages, and a chunk still shared with the backing is
// copied on the first store into any of its pages. A fork therefore
// allocates only its top level.
type Physical struct {
	size     uint32
	romLimit uint32

	// top maps every page to its frame. base is the backing's table,
	// which top starts as a copy of: a chunk or frame top still shares
	// with base is the backing's, and a store copies it first.
	top, base []*chunk

	// forked is set by Golden.Fork and cleared by RestoreState;
	// cowFaults counts the frames a fork copied on first write.
	forked    bool
	cowFaults uint64
}

// chunkBits sizes the second level of the page-frame table: each chunk
// maps 1<<chunkBits pages. A 16 MB memory has 4096 pages, so its top
// level is 64 chunk pointers.
const (
	chunkBits  = 6
	chunkPages = 1 << chunkBits
	chunkShift = PageBits + chunkBits
)

// frame is one page of physical memory.
type frame [PageWords]uint32

// chunk maps chunkPages consecutive pages to their frames.
type chunk [chunkPages]*frame

// MaxPhysWords bounds every physical memory: the 16M-word system virtual
// space of the mapping unit. Larger sizes, whether asked for or read
// from a capture, are rejected.
const MaxPhysWords = 1 << MappedSpaceBits

// zeroFrame is the frame of every page in emptyTable, the backing of a
// memory that has none: every page reads zero. Neither is ever written.
var (
	zeroFrame  frame
	emptyTable = func() []*chunk {
		ch := new(chunk)
		for i := range ch {
			ch[i] = &zeroFrame
		}
		t := make([]*chunk, MaxPhysWords>>chunkShift)
		for i := range t {
			t[i] = ch
		}
		return t
	}()
)

// NewPhysical returns a zeroed physical memory of the given size in
// words. No page has storage until it is written. It panics if words is
// negative or above MaxPhysWords.
func NewPhysical(words int) *Physical {
	if words < 0 || words > MaxPhysWords {
		panic(fmt.Sprintf("mem: NewPhysical(%d) outside [0, %d]", words, MaxPhysWords))
	}
	p := &Physical{size: uint32(words)}
	p.unback()
	return p
}

// unback makes every page of the memory read zero, with no backing.
func (p *Physical) unback() {
	p.base = emptyTable[:(p.size+1<<chunkShift-1)>>chunkShift]
	p.top = slices.Clone(p.base)
	p.forked = false
}

// Size returns the memory size in words.
func (p *Physical) Size() uint32 { return p.size }

// SealROM write-protects addresses below limit. The kernel loads the
// dispatch routine first, then seals it.
func (p *Physical) SealROM(limit uint32) { p.romLimit = limit }

// ROMLimit returns the first writable address.
func (p *Physical) ROMLimit() uint32 { return p.romLimit }

// Read returns the word at a physical address.
func (p *Physical) Read(addr uint32) (uint32, *Fault) {
	if addr >= p.size {
		return 0, &Fault{Cause: isa.CausePageFault, Addr: addr}
	}
	return p.top[addr>>chunkShift][addr>>PageBits&(chunkPages-1)][addr&(PageWords-1)], nil
}

// Write stores a word at a physical address. Writing sealed ROM is a
// fault: the dispatch routine must always be resident and intact. The
// first store to a page that changes a word gives the memory its own
// frame for it. Physical memory is the data half of the machine's
// separate instruction and data interfaces: no write here changes an
// instruction the processor fetches.
func (p *Physical) Write(addr, val uint32) *Fault {
	if addr >= p.size || addr < p.romLimit {
		return &Fault{Cause: isa.CausePageFault, Addr: addr, Write: true}
	}
	// writable, inlined by hand: every CPU store comes here, and the
	// compiler will not inline writable itself (its call to own puts it
	// over the inlining budget). BenchmarkPhysicalLoadStore measures the
	// difference.
	ci, i, off := addr>>chunkShift, addr>>PageBits&(chunkPages-1), addr&(PageWords-1)
	if fr := p.top[ci][i]; fr != p.base[ci][i] {
		fr[off] = val
	} else if fr[off] != val {
		// A store that leaves its word as it was keeps sharing the
		// backing frame.
		p.own(addr >> PageBits)[off] = val
	}
	return nil
}

// Poke writes a word ignoring ROM protection; used only by loaders and
// devices. Out-of-range pokes are dropped (a device writing past the end
// of installed memory). Pokes make frames as Write does, and like it
// never change code.
func (p *Physical) Poke(addr, val uint32) {
	if addr >= p.size {
		return
	}
	p.writable(addr >> PageBits)[addr&(PageWords-1)] = val
}

// FillPage sets a page to data followed by zeros, ignoring ROM
// protection like Poke. It leaves what PageWords zero Pokes followed by
// one Poke per data word would: the same contents, the same frames and
// copy-on-write counts. Words past the end of memory are dropped; data longer than a page is
// cut at the page's end.
func (p *Physical) FillPage(page uint32, data []uint32) {
	base := page << PageBits
	if page >= MaxPhysWords>>PageBits || base >= p.size {
		return
	}
	n := min(p.size-base, PageWords)
	fr := p.writable(page)
	clear(fr[:n])
	data = data[:min(uint32(len(data)), n)]
	copy(fr[:], data)
}

// writable returns the page's frame, first giving the memory its own
// copy if the frame is still the backing's.
func (p *Physical) writable(page uint32) *frame {
	ci, i := page>>chunkBits, page&(chunkPages-1)
	if fr := p.top[ci][i]; fr != p.base[ci][i] {
		return fr
	}
	return p.own(page)
}

// own copies the page's backing frame — a golden frame behind a fork, or
// zeros — into a frame of the memory's own and returns it. The first
// store into a chunk still shared with the backing also copies the
// chunk.
func (p *Physical) own(page uint32) *frame {
	ci, i := page>>chunkBits, page&(chunkPages-1)
	ch := p.top[ci]
	if ch == p.base[ci] {
		ch = new(chunk)
		*ch = *p.base[ci]
		p.top[ci] = ch
	}
	var fr *frame
	if src := ch[i]; src != &zeroFrame {
		// Cloning skips zeroing memory the copy overwrites anyway.
		fr = (*frame)(slices.Clone(src[:]))
	} else {
		fr = new(frame)
	}
	ch[i] = fr
	if p.forked {
		p.cowFaults++
	}
	return fr
}

// Peek reads a word without fault semantics; used by tests and tools.
func (p *Physical) Peek(addr uint32) uint32 {
	if addr >= p.size {
		return 0
	}
	return p.top[addr>>chunkShift][addr>>PageBits&(chunkPages-1)][addr&(PageWords-1)]
}
