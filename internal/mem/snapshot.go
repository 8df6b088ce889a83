package mem

import (
	"fmt"
	"sort"
)

// The capture/restore pairs below externalize the memory system's state
// for package sim's machine snapshots. Only architectural state is
// captured: the MMU's translation cache is derived (it revalidates its
// fill context on every lookup) and is simply flushed on restore.

// PhysRun is one dense run of nonzero words in a physical-memory
// capture. Physical memory is overwhelmingly zero on real workloads
// (a 16 MB machine with a few resident pages), so the capture is
// run-length sparse rather than a full image.
type PhysRun struct {
	Base  uint32
	Words []uint32
}

// PhysState is a capture of physical memory.
type PhysState struct {
	Size     uint32
	ROMLimit uint32
	Runs     []PhysRun
}

// physRunGap is the number of consecutive zero words the capture scan
// tolerates inside one run before closing it; merging nearby runs keeps
// the run count (and per-run overhead) small. A page with no frame is
// longer than the gap, so skipping it closes an open run exactly as
// scanning its zeros would.
const physRunGap = 16

var _ [PageWords - physRunGap - 1]struct{} // PageWords > physRunGap

// Validate checks that the capture describes a memory of at most
// MaxPhysWords with every run inside it.
func (st *PhysState) Validate() error {
	if st.Size > MaxPhysWords {
		return fmt.Errorf("mem: capture of %d words exceeds the %d-word limit", st.Size, MaxPhysWords)
	}
	for _, run := range st.Runs {
		if uint64(run.Base)+uint64(len(run.Words)) > uint64(st.Size) {
			return fmt.Errorf("mem: run at %d (%d words) exceeds the %d-word memory", run.Base, len(run.Words), st.Size)
		}
	}
	return nil
}

// CaptureState snapshots memory contents and the ROM seal. The result
// shares no storage with the memory. It scans only pages that have a
// frame, so it costs O(frames), and its runs are those of a word-by-word
// scan of the whole memory. On a COW fork the capture reads through the
// golden frames, so a fork's checkpoint is self-contained: it restores
// anywhere with no reference to the template it forked from.
func (p *Physical) CaptureState() PhysState {
	st := PhysState{Size: p.size, ROMLimit: p.romLimit}
	open := false // a run starts at start and its last nonzero word is at last
	var start, last uint32
	zeros := 0
	closeRun := func() {
		run := make([]uint32, last-start+1)
		for k := range run {
			run[k] = p.Peek(start + uint32(k))
		}
		st.Runs = append(st.Runs, PhysRun{Base: start, Words: run})
		open = false
	}
	for page := uint32(0); page<<PageBits < p.size; page++ {
		fr := p.top[page>>chunkBits][page&(chunkPages-1)]
		if fr == &zeroFrame {
			if open {
				closeRun()
			}
			continue
		}
		base := page << PageBits
		n := min(p.size-base, PageWords)
		for k, w := range fr[:n] {
			switch addr := base + uint32(k); {
			case w != 0 && !open:
				open, start, last, zeros = true, addr, addr, 0
			case w != 0:
				last, zeros = addr, 0
			case open:
				if zeros++; zeros > physRunGap {
					closeRun()
				}
			}
		}
	}
	if open {
		closeRun()
	}
	return st
}

// load stores the capture's runs, giving each page they cover a frame.
// The runs must lie inside the memory (PhysState.Validate).
func (p *Physical) load(runs []PhysRun) {
	for _, run := range runs {
		for addr, words := run.Base, run.Words; len(words) > 0; {
			n := copy(p.writable(addr >> PageBits)[addr&(PageWords-1):], words)
			addr, words = addr+uint32(n), words[n:]
		}
	}
}

// RestoreState replaces memory contents with a previous capture. The
// memory must have been constructed at the captured size. The write
// barrier is not invoked: restore accompanies a cache invalidation on
// the CPU side, which is the only barrier consumer. Restoring over a
// COW fork drops the golden sharing; only the pages the capture's runs
// cover get frames.
func (p *Physical) RestoreState(st PhysState) error {
	if st.Size != p.size {
		return fmt.Errorf("mem: restore: memory is %d words, capture is %d", p.size, st.Size)
	}
	if err := st.Validate(); err != nil {
		return fmt.Errorf("mem: restore: %w", err)
	}
	p.unback()
	p.load(st.Runs)
	p.romLimit = st.ROMLimit
	return nil
}

// PTEEntry is one page-map entry in an MMU capture, keyed by system
// virtual page.
type PTEEntry struct {
	VPage uint32
	PTE   PTE
}

// MMUState is a capture of the segmentation registers and the page map,
// including the map's edit generation (so translation caches built over
// the restored map observe the same staleness signal).
type MMUState struct {
	SegBase  uint32
	SegLimit uint32
	Pages    []PTEEntry
	Gen      uint64
}

// CaptureState snapshots the MMU's architectural state. Entries are
// sorted by page so identical machines capture identical bytes.
func (m *MMU) CaptureState() MMUState {
	base, limit := m.Seg.Registers()
	st := MMUState{SegBase: base, SegLimit: limit, Gen: m.Map.gen}
	st.Pages = make([]PTEEntry, 0, len(m.Map.entries))
	for v, e := range m.Map.entries {
		st.Pages = append(st.Pages, PTEEntry{VPage: v, PTE: e})
	}
	sort.Slice(st.Pages, func(i, j int) bool { return st.Pages[i].VPage < st.Pages[j].VPage })
	return st
}

// RestoreState replaces the segmentation registers and page map with a
// previous capture and flushes the translation cache.
func (m *MMU) RestoreState(st MMUState) {
	m.Seg = SetRegisters(st.SegBase, st.SegLimit)
	pm := &PageMap{gen: st.Gen}
	if len(st.Pages) > 0 {
		pm.entries = make(map[uint32]PTE, len(st.Pages))
	}
	for _, e := range st.Pages {
		pm.entries[e.VPage] = e.PTE
	}
	m.Map = pm
	m.FlushTLB()
}

// TransferState is one queued DMA move in a capture.
type TransferState struct {
	Src, Dst uint32
	Words    uint32
	Done     uint32
}

// DMAState is a capture of the DMA engine: the transfer queue with
// per-transfer progress, the cycle accounting, and the read/write
// half-cycle phase (the engine's only sub-word-move state).
type DMAState struct {
	Queue   []TransferState
	Moved   uint64
	Offered uint64
	Half    bool
}

// CaptureState snapshots the DMA engine.
func (d *DMA) CaptureState() DMAState {
	st := DMAState{Moved: d.moved, Offered: d.offered, Half: d.half}
	for i := range d.queue {
		t := &d.queue[i]
		st.Queue = append(st.Queue, TransferState{Src: t.Src, Dst: t.Dst, Words: t.Words, Done: t.done})
	}
	return st
}

// RestoreState replaces the DMA engine's state with a previous capture.
func (d *DMA) RestoreState(st DMAState) {
	d.queue = nil
	for _, t := range st.Queue {
		d.queue = append(d.queue, Transfer{Src: t.Src, Dst: t.Dst, Words: t.Words, done: t.Done})
	}
	d.moved = st.Moved
	d.offered = st.Offered
	d.half = st.Half
}
