package kernel

import (
	"cmp"
	"slices"

	"mips/internal/isa"
)

// State is a capture of the kernel machine's device complement: the
// console, the interval timer, the paging disk (backing store included),
// and the page-map port's staging registers. The CPU, physical memory,
// and MMU are captured separately by their own packages; the kernel's
// own scheduling state (process table, counters) lives in kernel RAM and
// rides along in the physical-memory capture.
type State struct {
	Console []byte

	TimerPeriod  uint32
	TimerCounter uint32
	TimerPending bool

	DiskVPage  uint32
	DiskFrame  uint32
	DiskPages  []DiskPage
	DiskReads  int
	DiskWrites int

	PMVPage uint32
	PMFrame uint32
	PMFlags uint32

	NProc int
}

// DiskPage is one backing-store page: data words, instruction words, or
// both (the machine's dual memory interface pages them together).
type DiskPage struct {
	VPage uint32
	Data  []uint32
	Code  []isa.Instr
}

// CaptureState snapshots the device state. Disk pages are sorted by
// virtual page so identical machines capture identical bytes; page
// contents are copied, sharing nothing with the live machine.
func (m *Machine) CaptureState() State {
	st := State{
		Console:      append([]byte(nil), m.dev.console.Bytes()...),
		TimerPeriod:  m.dev.timer.period,
		TimerCounter: m.dev.timer.counter,
		TimerPending: m.dev.timer.pending,
		DiskVPage:    m.disk.vpage,
		DiskFrame:    m.disk.frame,
		DiskReads:    m.disk.reads,
		DiskWrites:   m.disk.writes,
		PMVPage:      m.pmPort.vpage,
		PMFrame:      m.pmPort.frame,
		PMFlags:      m.pmPort.flags,
		NProc:        m.nproc,
	}
	for _, pg := range m.disk.pages {
		st.DiskPages = append(st.DiskPages, DiskPage{
			VPage: pg.VPage,
			Data:  append([]uint32(nil), pg.Data...),
			Code:  append([]isa.Instr(nil), pg.Code...),
		})
	}
	return st
}

// RestoreState replaces the device state with a previous capture. The
// caller restores the CPU, physical memory, and MMU separately.
//
// The backing store is adopted by reference, not copied (see disk): a
// capture's page list, sorted and with every page backed, is shared
// until the machine first changes it.
func (m *Machine) RestoreState(st State) {
	m.dev.console.Reset()
	m.dev.console.Write(st.Console)
	m.dev.timer.period = st.TimerPeriod
	m.dev.timer.counter = st.TimerCounter
	m.dev.timer.pending = st.TimerPending
	m.disk.vpage = st.DiskVPage
	m.disk.frame = st.DiskFrame
	m.disk.reads = st.DiskReads
	m.disk.writes = st.DiskWrites
	m.disk.pages, m.disk.shared = st.DiskPages, true
	if !diskSorted(st.DiskPages) {
		// Not as CaptureState writes it: merge the pages in page order,
		// later halves of one page replacing earlier ones.
		pages := slices.Clone(st.DiskPages)
		slices.SortStableFunc(pages, func(a, b DiskPage) int { return cmp.Compare(a.VPage, b.VPage) })
		m.disk.pages, m.disk.shared = nil, false
		for _, pg := range pages {
			m.disk.addPage(pg.VPage, pg.Code, pg.Data)
		}
	}
	m.pmPort.vpage = st.PMVPage
	m.pmPort.frame = st.PMFrame
	m.pmPort.flags = st.PMFlags
	m.nproc = st.NProc
}

// diskSorted reports whether pages is a page list CaptureState could
// have written: strictly sorted by page, every page with contents.
func diskSorted(pages []DiskPage) bool {
	for i, pg := range pages {
		if pg.Data == nil && pg.Code == nil || i > 0 && pages[i-1].VPage >= pg.VPage {
			return false
		}
	}
	return true
}
