package kernel

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/mem"
)

// Memory-mapped device registers. The window sits above physical RAM;
// only unmapped (supervisor) references can reach it, which together
// with the two-level privilege scheme "protects the exterior mapping
// unit and any peripherals ... from user level processes" (paper §3.2).
const (
	// IOBase sits above the largest supported RAM (4M words) and within
	// the reach of a long-immediate constant (signed 24 bits), so the
	// kernel can name device registers in one instruction.
	IOBase = 6 << 20

	RegHalt       = IOBase + 0  // write: stop the machine
	RegConsoleCh  = IOBase + 1  // write: append a character
	RegConsoleInt = IOBase + 2  // write: append a decimal integer and newline
	RegFaultAddr  = IOBase + 3  // read: system virtual address of the last fault
	RegFaultWrite = IOBase + 4  // read: 1 if the last fault was a write
	RegIntSource  = IOBase + 5  // read: which device requests service (prioritized)
	RegTimerAck   = IOBase + 6  // write: acknowledge the timer interrupt
	RegTimerSet   = IOBase + 7  // write: set the timer period (0 disables)
	RegDiskVPage  = IOBase + 8  // write: virtual page to transfer
	RegDiskFrame  = IOBase + 9  // write: frame to fill or write back
	RegDiskGo     = IOBase + 10 // write: read the page into the frame (immediate)
	RegPMVPage    = IOBase + 11 // write: page-map port, virtual page
	RegPMFrame    = IOBase + 12 // write: page-map port, frame
	RegPMFlags    = IOBase + 13 // write: page-map port, flags (bit0 writable)
	RegPMOp       = IOBase + 14 // write: 1 install, 2 remove
	RegDiskWrite  = IOBase + 15 // write: write the frame back to the page (immediate)
	ioLimit       = IOBase + 16
)

// Interrupt source codes returned by RegIntSource, the "external
// prioritization logic" the global interrupt handler queries (§3.3).
const (
	IntNone  = 0
	IntTimer = 1
)

// devices is the single bus device multiplexing all kernel peripherals.
// One struct keeps the address decode in one place, as a real I/O
// decoder would.
type devices struct {
	m *Machine

	console bytes.Buffer
	timer   timer
}

type timer struct {
	period  uint32
	counter uint32
	pending bool
}

func (d *devices) Window() (lo, hi uint32) { return IOBase, ioLimit }

func (d *devices) ReadWord(phys uint32) uint32 {
	switch phys {
	case RegFaultAddr:
		if f := d.m.CPU.Bus.LastFault; f != nil {
			return f.Addr
		}
	case RegFaultWrite:
		if f := d.m.CPU.Bus.LastFault; f != nil && f.Write {
			return 1
		}
	case RegIntSource:
		if d.timer.pending {
			return IntTimer
		}
		return IntNone
	}
	return 0
}

func (d *devices) WriteWord(phys, val uint32) {
	switch phys {
	case RegHalt:
		d.m.CPU.Halt()
	case RegConsoleCh:
		d.console.WriteByte(byte(val))
	case RegConsoleInt:
		d.console.WriteString(strconv.FormatInt(int64(int32(val)), 10))
		d.console.WriteByte('\n')
	case RegTimerAck:
		d.timer.pending = false
		d.updateIntLine()
	case RegTimerSet:
		d.timer.period = val
		d.timer.counter = 0
	case RegDiskVPage:
		d.m.disk.vpage = val
	case RegDiskFrame:
		d.m.disk.frame = val
	case RegDiskGo:
		d.m.disk.transfer(d.m)
	case RegDiskWrite:
		d.m.disk.writeBack(d.m)
	case RegPMVPage:
		d.m.pmPort.vpage = val
	case RegPMFrame:
		d.m.pmPort.frame = val
	case RegPMFlags:
		d.m.pmPort.flags = val
	case RegPMOp:
		switch val {
		case 1:
			d.m.CPU.Bus.MMU.Map.Map(d.m.pmPort.vpage, d.m.pmPort.frame, d.m.pmPort.flags&1 != 0)
		case 2:
			d.m.CPU.Bus.MMU.Map.Unmap(d.m.pmPort.vpage)
		}
	}
}

// Tick advances the interval timer; on expiry it raises the single
// interrupt line until acknowledged. The timer counts user-level cycles
// only — it meters process time, so a long exception path cannot starve
// the process it interrupts.
func (d *devices) Tick() {
	if !d.m.CPU.Sur.Supervisor() {
		d.Advance(1)
	}
}

// Horizon is how many user-level cycles the timer absorbs up to the one
// that raises the interrupt line: unlimited while it is disabled, else
// the cycles left in the current period.
func (d *devices) Horizon() uint64 {
	if d.timer.period == 0 {
		return ^uint64(0)
	}
	return d.toExpiry()
}

// toExpiry is how many ticks of an enabled timer end with the one that
// expires it (a counter at or past the period expires on the next).
func (d *devices) toExpiry() uint64 {
	if d.timer.counter >= d.timer.period {
		return 1
	}
	return uint64(d.timer.period - d.timer.counter)
}

// Advance counts n user-level cycles at once, exactly as n Ticks at user
// level would: each expiry resets the counter to zero and raises the
// line.
func (d *devices) Advance(n uint64) {
	if d.timer.period == 0 || n == 0 {
		return
	}
	first := d.toExpiry()
	if n < first {
		d.timer.counter += uint32(n)
		return
	}
	d.timer.counter = uint32((n - first) % uint64(d.timer.period))
	d.timer.pending = true
	d.updateIntLine()
}

func (d *devices) updateIntLine() {
	d.m.CPU.Interrupt(d.timer.pending)
}

// pmPort is the staging registers of the off-chip page map's MMIO port.
type pmPort struct {
	vpage, frame, flags uint32
}

// disk is the paging store: the contents of every backed system virtual
// page (both data words and instruction words, since the machine has a
// dual instruction/data memory interface), sorted by page. A "go"
// command copies the page into the selected frame.
//
// Page contents are never changed in place: a write replaces a page's
// slice. A restored disk adopts its capture's page list by reference
// (shared) and copies it before its first change, so any number of
// machines restored from one capture — warm forks sharing a template's
// decoded wire — share the list and the pages.
type disk struct {
	vpage, frame uint32
	pages        []DiskPage // sorted by VPage; each has Data or Code
	shared       bool       // pages belongs to a capture
	reads        int
	writes       int
}

// page returns the backing contents of vpage, empty if it has none.
func (dk *disk) page(vpage uint32) DiskPage {
	if i, ok := dk.find(vpage); ok {
		return dk.pages[i]
	}
	return DiskPage{}
}

func (dk *disk) find(vpage uint32) (int, bool) {
	return slices.BinarySearchFunc(dk.pages, vpage, func(pg DiskPage, v uint32) int {
		return cmp.Compare(pg.VPage, v)
	})
}

// addPage installs backing-store contents for a system virtual page. A
// nil half leaves that half of the page as it was.
func (dk *disk) addPage(vpage uint32, code []isa.Instr, data []uint32) {
	if code == nil && data == nil {
		return
	}
	if dk.shared {
		dk.pages, dk.shared = slices.Clone(dk.pages), false
	}
	i, ok := dk.find(vpage)
	if !ok {
		dk.pages = slices.Insert(dk.pages, i, DiskPage{VPage: vpage})
	}
	if code != nil {
		dk.pages[i].Code = code
	}
	if data != nil {
		dk.pages[i].Data = data
	}
}

// transfer fills the selected frame from backing store. A page with no
// backing contents is zero-filled (fresh stack or heap).
func (dk *disk) transfer(m *Machine) {
	dk.reads++
	pg := dk.page(dk.vpage)
	m.Phys.FillPage(dk.frame, pg.Data)
	// Instruction memory is physically indexed alongside data memory.
	m.CPU.IMem.Replace(dk.frame<<mem.PageBits, mem.PageWords, pg.Code)
}

// writeBack copies the selected frame's contents out to backing store,
// so an evicted dirty page survives until its next fault.
func (dk *disk) writeBack(m *Machine) {
	dk.writes++
	base := dk.frame << mem.PageBits
	data := make([]uint32, mem.PageWords)
	for i := uint32(0); i < mem.PageWords; i++ {
		data[i] = m.Phys.Peek(base + i)
	}
	var code []isa.Instr
	if base+mem.PageWords <= m.CPU.IMem.Len() {
		code = make([]isa.Instr, mem.PageWords)
		for i := range code {
			code[i] = m.CPU.IMem.At(base + uint32(i))
		}
	}
	dk.addPage(dk.vpage, code, data)
}

var _ cpu.Device = (*devices)(nil)
var _ cpu.Ticker = (*devices)(nil)
