package mem

// Transfer is one queued DMA block move in physical address space.
type Transfer struct {
	Src, Dst uint32 // physical word addresses
	Words    uint32
	done     uint32
}

// Remaining returns the number of words not yet moved.
func (t *Transfer) Remaining() uint32 { return t.Words - t.done }

// DMA is a block-transfer engine that feeds on the processor's free
// memory cycles: "a status pin on the processor indicates the presence
// of an upcoming free memory cycle. Thus, these cycles can be used for
// DMA, I/O or cache write-backs" (paper §3.1). Each offered free cycle
// moves one word of the front transfer.
type DMA struct {
	phys    *Physical
	queue   []Transfer
	moved   uint64
	offered uint64
	half    bool // a read half-cycle has been consumed
}

// NewDMA returns a DMA engine over the given physical memory.
func NewDMA(phys *Physical) *DMA {
	return &DMA{phys: phys}
}

// Queue appends a block transfer.
func (d *DMA) Queue(t Transfer) {
	if t.Words > 0 {
		d.queue = append(d.queue, t)
	}
}

// Busy reports whether any transfer is pending.
func (d *DMA) Busy() bool { return len(d.queue) > 0 }

// Pending returns the number of words still queued across all transfers.
func (d *DMA) Pending() uint32 {
	var n uint32
	for i := range d.queue {
		n += d.queue[i].Remaining()
	}
	return n
}

// OfferFreeCycle gives the engine one free data-memory cycle. It moves
// one word of the front transfer and reports whether the cycle was used.
// A free cycle carries one memory access; a word copy needs a read and a
// write, so the engine uses alternate cycles for each half. For the
// simulator's bandwidth accounting the distinction is immaterial; we
// model one word moved per two offered cycles.
func (d *DMA) OfferFreeCycle() bool {
	d.offered++
	if len(d.queue) == 0 {
		return false
	}
	if !d.half {
		// Read half of the word move.
		d.half = true
		return true
	}
	d.half = false
	t := &d.queue[0]
	src, dst := t.Src+t.done, t.Dst+t.done
	v := d.phys.Peek(src)
	d.phys.Poke(dst, v)
	t.done++
	d.moved++
	if t.done == t.Words {
		d.queue = d.queue[1:]
	}
	return true
}

// Moved returns the total number of words transferred.
func (d *DMA) Moved() uint64 { return d.moved }

// Offered returns the total number of free cycles offered.
func (d *DMA) Offered() uint64 { return d.offered }
