package kernel

import (
	"fmt"
	"sync"

	"mips/internal/asm"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/mem"
	"mips/internal/reorg"
)

// Machine is a complete MIPS system: processor, physical memory, the
// kernel in ROM, and the device complement (console, timer, paging disk,
// page-map port, halt register).
type Machine struct {
	CPU  *cpu.CPU
	Phys *mem.Physical

	dev    devices
	disk   disk
	pmPort pmPort
	kim    *isa.Image

	nproc int
}

// Config adjusts machine construction.
type Config struct {
	// PhysWords is the physical memory size in words (default 1<<22,
	// 16 MB).
	PhysWords int
	// TimerPeriod, if nonzero, makes the interval timer raise the
	// interrupt line every TimerPeriod instructions (preemptive
	// round-robin scheduling).
	TimerPeriod uint32
}

// kernelImages memoizes the assembled kernel per physical page count
// (the only input to kernelSource). Assembling the kernel — parse,
// reorganize, encode — dominates machine construction, and every
// machine of a given memory size runs byte-identical kernel text, so
// one assembly per size serves the whole process. The cached image is
// shared read-only: LoadImage copies the words into instruction memory
// and never writes the image.
var kernelImages sync.Map // phys pages (uint32) -> *isa.Image

// kernelImage returns the assembled kernel for a machine with the given
// number of physical pages, building and caching it on first use.
func kernelImage(physPages uint32) (*isa.Image, error) {
	if im, ok := kernelImages.Load(physPages); ok {
		return im.(*isa.Image), nil
	}
	unit, err := asm.Parse(kernelSource(physPages))
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	ro, _ := reorg.Reorganize(unit, reorg.All())
	im, err := asm.Assemble(ro)
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	if len(im.Words) >= causeTab {
		return nil, fmt.Errorf("kernel text too large: %d words", len(im.Words))
	}
	cached, _ := kernelImages.LoadOrStore(physPages, im)
	return cached.(*isa.Image), nil
}

// NewMachine builds and boots-ready a machine: the kernel is assembled
// through the reorganizer, loaded at physical address zero, and sealed
// as ROM.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.PhysWords == 0 {
		cfg.PhysWords = 1 << 22
	}
	if err := CheckPhysWords(cfg.PhysWords); err != nil {
		return nil, err
	}
	m, err := NewMachineShell(mem.NewPhysical(cfg.PhysWords), cfg)
	if err != nil {
		return nil, err
	}
	if err := m.CPU.LoadImage(m.kim); err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	m.Phys.SealROM(ROMLimit)
	m.Phys.Poke(kFrameNxt, FirstUserFrame)
	m.Phys.Poke(kEvictPtr, FirstUserFrame)
	return m, nil
}

// CheckPhysWords reports whether a kernel machine can run on a physical
// memory of n words: one that leaves at least one user frame and stays
// below the device window.
func CheckPhysWords(n int) error {
	if n > IOBase {
		return fmt.Errorf("kernel: physical memory (%d words) overlaps the device window at %d", n, IOBase)
	}
	if n < (FirstUserFrame+1)<<mem.PageBits {
		return fmt.Errorf("kernel: %d words leave no user frames", n)
	}
	return nil
}

// NewMachineShell builds a machine chassis — CPU, bus, devices, empty
// backing store — around an existing physical memory WITHOUT writing a
// single word of it: no kernel load into memory, no ROM seal, no
// kernel-RAM pokes. It serves the paths whose memory already holds a
// booted machine: a copy-on-write fork of a template, where writing the
// kernel text, ROM seal, or scheduler RAM would both be redundant and
// privatize pages the fork may never touch, and a memory restored from
// a capture. The caller restores CPU, MMU, and device state from the
// capture immediately after.
func NewMachineShell(phys *mem.Physical, cfg Config) (*Machine, error) {
	if err := CheckPhysWords(int(phys.Size())); err != nil {
		return nil, err
	}
	im, err := kernelImage(phys.Size() >> mem.PageBits)
	if err != nil {
		return nil, err
	}
	m := &Machine{Phys: phys}
	bus := cpu.NewBus(phys)
	m.CPU = cpu.New(bus)
	m.dev.m = m
	m.dev.timer.period = cfg.TimerPeriod
	bus.Attach(&m.dev)
	m.kim = im
	return m, nil
}

// AddProcess loads a user image as a new process with the given address
// space size (log2 words; 16 gives the minimum 65K-word space). The
// image is placed in backing store; nothing is resident until the first
// page fault.
func (m *Machine) AddProcess(im *isa.Image, spaceBits uint8) (pid uint32, err error) {
	if m.nproc >= MaxProcs {
		return 0, fmt.Errorf("process table full")
	}
	if err := im.Validate(); err != nil {
		return 0, err
	}
	idx := m.nproc
	pid = uint32(idx + 1)
	seg := mem.NewSegUnit(pid, spaceBits)
	if seg.PID() != pid {
		return 0, fmt.Errorf("pid %d does not fit %d-bit space", pid, spaceBits)
	}

	// Spread the text over backing pages.
	codePages := make(map[uint32][]isa.Instr)
	for i, w := range im.Words {
		va := uint32(im.TextBase) + uint32(i)
		sys, f := seg.Translate(va)
		if f != nil {
			return 0, fmt.Errorf("text outside address space at %#x", va)
		}
		vp, off := sys>>mem.PageBits, sys&(mem.PageWords-1)
		pg := codePages[vp]
		if pg == nil {
			pg = make([]isa.Instr, mem.PageWords)
			codePages[vp] = pg
		}
		pg[off] = w
	}
	dataPages := make(map[uint32][]uint32)
	for addr, val := range im.Data {
		sys, f := seg.Translate(uint32(addr))
		if f != nil {
			return 0, fmt.Errorf("data outside address space at %#x", addr)
		}
		vp, off := sys>>mem.PageBits, sys&(mem.PageWords-1)
		pg := dataPages[vp]
		if pg == nil {
			pg = make([]uint32, mem.PageWords)
			dataPages[vp] = pg
		}
		pg[off] = val
	}
	for vp, pg := range codePages {
		m.disk.addPage(vp, pg, dataPages[vp])
		delete(dataPages, vp)
	}
	for vp, pg := range dataPages {
		m.disk.addPage(vp, nil, pg)
	}

	// Initial register state in the process table. The stack pointer
	// starts at the top of the 32-bit space (the upper valid region);
	// stack pages are zero-filled on first touch.
	slot := uint32(kProcTab + idx*slotWords)
	m.Phys.Poke(slot+14, 0xFFFFFFFF-uint32(mem.PageWords)) // initial sp
	// Saved surprise: supervisor current (exception frame shape),
	// previous level user; the restore path ORs in mapping+interrupts.
	m.Phys.Poke(slot+slotSur, uint32(isa.Surprise(0).SetSupervisor(true)))
	entry := uint32(im.Entry)
	m.Phys.Poke(slot+slotRet0, entry)
	m.Phys.Poke(slot+slotRet0+1, entry+1)
	m.Phys.Poke(slot+slotRet0+2, entry+2)
	m.Phys.Poke(slot+slotAlive, 1)
	m.Phys.Poke(slot+slotPID, pid)
	m.Phys.Poke(slot+slotBits, uint32(spaceBits))

	m.nproc++
	m.Phys.Poke(kNProc, uint32(m.nproc))
	m.Phys.Poke(kNAlive, m.Phys.Peek(kNAlive)+1)
	return pid, nil
}

// Run boots the machine (reset exception into the dispatch ROM) and
// executes until halt or the step limit. It returns the number of
// instructions executed.
func (m *Machine) Run(maxSteps uint64) (uint64, error) {
	m.CPU.Reset()
	return m.CPU.Run(maxSteps)
}

// ConsoleOutput returns everything written through the console device.
func (m *Machine) ConsoleOutput() string { return m.dev.console.String() }

// KernelImage returns the assembled dispatch-ROM image, whose symbol
// table names the kernel's handlers (for profiler symbolization).
func (m *Machine) KernelImage() *isa.Image { return m.kim }

// CurrentPID returns the process identifier of the process the kernel
// scheduler currently runs (the segmentation PID of its address space),
// or 0 before any process has been loaded. Observability code polls it
// on exception returns to detect context switches.
func (m *Machine) CurrentPID() uint32 {
	if m.nproc == 0 {
		return 0
	}
	idx := m.Phys.Peek(kCurrent)
	return m.Phys.Peek(kProcTab + idx*slotWords + slotPID)
}

// PageFaults returns the kernel's demand-paging count.
func (m *Machine) PageFaults() uint32 { return m.Phys.Peek(kNFault) }

// ContextSwitches returns the kernel's context-switch count.
func (m *Machine) ContextSwitches() uint32 { return m.Phys.Peek(kNSwitch) }

// DiskReads returns the number of pages fetched from backing store.
func (m *Machine) DiskReads() int { return m.disk.reads }

// DiskWrites returns the number of evicted pages written back.
func (m *Machine) DiskWrites() int { return m.disk.writes }

// Evictions returns the kernel's page-replacement count.
func (m *Machine) Evictions() uint32 { return m.Phys.Peek(kNEvict) }

// ResidentPages returns the number of installed page translations.
func (m *Machine) ResidentPages() int { return m.CPU.Bus.MMU.Map.Len() }
