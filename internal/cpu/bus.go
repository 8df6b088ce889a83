package cpu

import (
	"mips/internal/mem"
)

// Device is a memory-mapped peripheral on the physical address bus.
// The paper's protection scheme relies on peripherals living on the
// virtual address bus where user-level processes cannot reach them
// unmapped (paper §3.2); in this model devices claim physical word
// addresses and the kernel reaches them with mapping disabled.
type Device interface {
	// Window reports the physical word addresses the device claims:
	// lo inclusive through hi exclusive.
	Window() (lo, hi uint32)
	// ReadWord returns the device register at the address.
	ReadWord(phys uint32) uint32
	// WriteWord stores to the device register at the address.
	WriteWord(phys, val uint32)
}

// Bus is the processor's data-memory interface: the MMU (segmentation
// unit, page map, physical RAM) plus memory-mapped devices and the DMA
// engine that consumes free memory cycles.
type Bus struct {
	MMU     *mem.MMU
	DMA     *mem.DMA
	devices []attached
	devLo   uint32 // the lowest address any device claims
	tickers []Ticker

	// LastFault is the external mapping unit's fault latch: the most
	// recent translation fault, which the page-fault handler reads
	// through the fault-register device to learn the faulting address.
	LastFault *mem.Fault
}

// Ticker is implemented by devices that advance with executed
// instructions (timers). The per-instruction engines tick the bus once
// per executed word. The trace tier retires whole traces with no word
// boundary in between, so it asks every ticker how far it may run first
// and advances them in one call afterwards. It runs on a machine with
// devices only in mapped user mode, so Horizon and Advance count
// instructions retired at user level.
type Ticker interface {
	// Tick advances the device by one executed instruction word.
	Tick()
	// Horizon reports how many user-level instructions the device can
	// absorb before the CPU could see a change: the device may raise
	// the interrupt line on the last of them, not before.
	Horizon() uint64
	// Advance moves the device forward by n user-level instructions,
	// exactly as n Ticks at user level would.
	Advance(n uint64)
}

// attached is a device with its claim: n words from lo.
type attached struct {
	Device
	lo, n uint32
}

// NewBus builds a bus over the given physical memory.
func NewBus(phys *mem.Physical) *Bus {
	return &Bus{MMU: mem.NewMMU(phys), devLo: ^uint32(0)}
}

// Attach adds a memory-mapped device. Devices that also implement
// Ticker advance with executed instructions.
func (b *Bus) Attach(d Device) {
	lo, hi := d.Window()
	b.devices = append(b.devices, attached{Device: d, lo: lo, n: hi - lo})
	b.devLo = min(b.devLo, lo)
	if t, ok := d.(Ticker); ok {
		b.tickers = append(b.tickers, t)
	}
}

// Tick advances time-driven devices by one machine cycle.
func (b *Bus) Tick() {
	for _, t := range b.tickers {
		t.Tick()
	}
}

// horizon is the fewest instructions any ticker can absorb before the
// CPU could see a change; unlimited with no tickers.
func (b *Bus) horizon() uint64 {
	h := ^uint64(0)
	for _, t := range b.tickers {
		h = min(h, t.Horizon())
	}
	return h
}

// advance moves every ticker forward by n user-level instructions.
func (b *Bus) advance(n uint64) {
	for _, t := range b.tickers {
		t.Advance(n)
	}
}

func (b *Bus) device(phys uint32) Device {
	if phys < b.devLo {
		return nil
	}
	for _, d := range b.devices {
		if phys-d.lo < d.n {
			return d.Device
		}
	}
	return nil
}

// Read fetches a data word. mapped selects whether the segmentation and
// page map translate the address.
func (b *Bus) Read(addr uint32, mapped bool) (uint32, *mem.Fault) {
	if !mapped && len(b.devices) == 0 {
		// Unmapped access on a deviceless bus: translation is the
		// identity and no device can claim the address. LastFault is
		// only ever set by translation faults, so this path preserves
		// it exactly.
		return b.MMU.Phys.Read(addr)
	}
	pa, f := b.MMU.Translate(addr, false, mapped)
	if f != nil {
		b.LastFault = f
		return 0, f
	}
	if d := b.device(pa); d != nil {
		return d.ReadWord(pa), nil
	}
	return b.MMU.Phys.Read(pa)
}

// translateUser resolves a mapped data reference for the trace tier:
// a TLB probe, valid because the tier synced the TLB at dispatch and
// runs under one fixed context, falling back to the MMU's translation,
// with a fault latched exactly as Read and Write latch one. dev reports
// a physical address a device claims, whose access the caller leaves to
// the lower tiers.
func (b *Bus) translateUser(addr uint32, write bool) (pa uint32, dev bool, f *mem.Fault) {
	pa, ok := b.MMU.Probe(addr, write)
	if !ok {
		if pa, f = b.MMU.Translate(addr, write, true); f != nil {
			b.LastFault = f
			return 0, false, f
		}
	}
	return pa, pa >= b.devLo && b.device(pa) != nil, nil
}

// Write stores a data word.
func (b *Bus) Write(addr, val uint32, mapped bool) *mem.Fault {
	if !mapped && len(b.devices) == 0 {
		return b.MMU.Phys.Write(addr, val)
	}
	pa, f := b.MMU.Translate(addr, true, mapped)
	if f != nil {
		b.LastFault = f
		return f
	}
	if d := b.device(pa); d != nil {
		d.WriteWord(pa, val)
		return nil
	}
	return b.MMU.Phys.Write(pa, val)
}

// OfferFreeCycle forwards an unused data-memory cycle to the DMA engine,
// if one is attached. It reports whether the cycle was consumed.
func (b *Bus) OfferFreeCycle() bool {
	if b.DMA == nil {
		return false
	}
	return b.DMA.OfferFreeCycle()
}
