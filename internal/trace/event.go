// Package trace is the observability layer of the simulator stack. It
// has three parts, mirroring how the paper's evaluation is built on
// dynamic measurement before any optimization claim:
//
//   - a structured event tracer: a fixed-capacity ring buffer of typed,
//     cycle-timestamped events (instruction retire, load/store, taken
//     branch, exception entry/exit, page fault, DMA-consumed free cycle,
//     context switch, monitor call), exportable as Chrome trace_event
//     JSON for Perfetto and as human-readable text;
//   - a metrics registry: named counters and gauges the cpu, mem, and
//     kernel layers are registered into, with a snapshot/delta API and a
//     deterministic JSON serialization for trajectory tracking;
//   - a cycle-attribution profiler: per-PC and per-symbol histograms of
//     cycles, nops, and stalls plus a load-use-distance histogram, with
//     a flat-profile report that localizes scheduling overhead per
//     function.
//
// All three attach to the simulated machine through an Observer, which
// installs the cpu/mem hook points. With no observer attached the
// simulator's hot path stays hook-free (every hook site is a nil check).
package trace

import "fmt"

// Kind classifies a trace event.
type Kind uint8

const (
	// KindRetire is one executed instruction word.
	KindRetire Kind = iota
	// KindLoad and KindStore are completed data-memory references;
	// Addr holds the virtual address.
	KindLoad
	KindStore
	// KindBranch is an executed control-transfer piece; Addr holds the
	// target and Arg is 1 if the transfer was taken.
	KindBranch
	// KindExcEnter is an exception entry; Arg packs the primary cause
	// (bits 0-7), secondary cause (bits 8-15), and trap code (bits 16-27).
	// PC is the first saved return address.
	KindExcEnter
	// KindExcExit is a return from exception; PC is the resume address.
	KindExcExit
	// KindPageFault is a mapping fault (page or segment); Addr holds the
	// faulting address from the external mapping unit's latch.
	KindPageFault
	// KindDMA is one word moved by the DMA engine on a free memory
	// cycle; Arg holds the source and Addr the destination address.
	// Nothing records it any more; it keeps its value so the kinds after
	// it keep theirs.
	KindDMA
	// KindSwitch is a kernel context switch; Arg holds the incoming PID.
	KindSwitch
	// KindSyscall is a monitor call (software trap); Arg holds the
	// 12-bit trap code.
	KindSyscall

	numKinds
)

var kindNames = [numKinds]string{
	"retire", "load", "store", "branch", "exc-enter", "exc-exit",
	"page-fault", "dma", "switch", "syscall",
}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Event is one trace record. The struct is fixed-size and pointer-free
// so the ring buffer never allocates after construction.
type Event struct {
	// Seq is the monotonic event sequence number, assigned at append.
	Seq uint64
	// Cycle is the machine cycle count when the event was recorded.
	Cycle uint64
	// PC is the word address of the instruction involved.
	PC uint32
	// Addr is a kind-specific address (memory address, branch target...).
	Addr uint32
	// Arg is a kind-specific argument (cause pack, trap code, PID...).
	Arg uint32
	// PID identifies the kernel process the event belongs to (0 on the
	// bare machine and during boot).
	PID uint16
	// Kind classifies the event.
	Kind Kind
}

// ExcCauses unpacks the Arg of a KindExcEnter event.
func (e Event) ExcCauses() (primary, secondary uint8, trapCode uint16) {
	return uint8(e.Arg), uint8(e.Arg >> 8), uint16(e.Arg >> 16 & 0xFFF)
}

// PackExcArg builds the Arg of a KindExcEnter event.
func PackExcArg(primary, secondary uint8, trapCode uint16) uint32 {
	return uint32(primary) | uint32(secondary)<<8 | uint32(trapCode&0xFFF)<<16
}

// DefaultRingCap is the ring capacity used when none is given: large
// enough to hold the tail of any run, small enough to allocate fast.
const DefaultRingCap = 1 << 16

// Ring is a fixed-capacity event ring buffer. Appends never allocate;
// once full, the oldest events are overwritten and counted as dropped.
type Ring struct {
	buf   []Event
	total uint64
}

// NewRing returns a ring holding up to capacity events (DefaultRingCap
// if capacity is not positive).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Append records an event, assigning its sequence number.
func (r *Ring) Append(e Event) {
	e.Seq = r.total
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = e
	}
	r.total++
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return cap(r.buf) }

// Len returns the number of events currently retained.
func (r *Ring) Len() int { return len(r.buf) }

// Total returns the number of events ever appended.
func (r *Ring) Total() uint64 { return r.total }

// Dropped returns the number of events overwritten by wraparound.
func (r *Ring) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// Events returns the retained events oldest-first. The slice is freshly
// allocated; the ring may keep appending afterwards.
func (r *Ring) Events() []Event {
	out := make([]Event, len(r.buf))
	if r.total <= uint64(cap(r.buf)) {
		copy(out, r.buf)
		return out
	}
	split := int(r.total % uint64(cap(r.buf)))
	n := copy(out, r.buf[split:])
	copy(out[n:], r.buf[:split])
	return out
}
