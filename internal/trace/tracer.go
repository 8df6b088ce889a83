package trace

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"mips/internal/isa"
)

// Tracer records structured events into a ring buffer, optionally
// streaming the first N retired instructions as text (the legacy
// `mipsrun -trace N` format) and fanning events out to any live
// subscribers (the telemetry server's SSE endpoint).
type Tracer struct {
	ring *Ring

	stream   io.Writer
	streamN  uint64
	streamed uint64

	// subs is a copy-on-write subscriber list. The emit path pays one
	// atomic pointer load per event; with no subscriber that load reads
	// nil and nothing else happens, so attaching a tracer without a
	// live stream costs what it always did.
	subs  atomic.Pointer[[]*Sink]
	subMu sync.Mutex
}

// DefaultSinkBuffer is the per-subscriber event buffer used when
// Subscribe is given a non-positive size.
const DefaultSinkBuffer = 1024

// Sink is one bounded subscription to a tracer's live event stream.
// Delivery never blocks the emitting (simulation) goroutine: when the
// buffer is full the event is dropped and counted instead. The ring
// remains the complete record; a sink is a best-effort tail.
type Sink struct {
	ch      chan Event
	dropped atomic.Uint64
}

// Events returns the subscription channel. It is never closed; a
// consumer stops by unsubscribing and walking away.
func (s *Sink) Events() <-chan Event { return s.ch }

// Dropped returns how many events were discarded because the buffer was
// full when they were emitted.
func (s *Sink) Dropped() uint64 { return s.dropped.Load() }

func (s *Sink) offer(e Event) {
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
	}
}

// Subscribe attaches a new bounded sink receiving every event emitted
// from now on. buf is the channel buffer (DefaultSinkBuffer if not
// positive). Safe to call from any goroutine.
func (t *Tracer) Subscribe(buf int) *Sink {
	if buf <= 0 {
		buf = DefaultSinkBuffer
	}
	s := &Sink{ch: make(chan Event, buf)}
	t.subMu.Lock()
	defer t.subMu.Unlock()
	var cur []*Sink
	if p := t.subs.Load(); p != nil {
		cur = *p
	}
	next := make([]*Sink, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, s)
	t.subs.Store(&next)
	return s
}

// Unsubscribe detaches a sink. The sink's channel is left open (an
// in-flight non-blocking send must never panic); it simply stops
// receiving.
func (t *Tracer) Unsubscribe(s *Sink) {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	p := t.subs.Load()
	if p == nil {
		return
	}
	next := make([]*Sink, 0, len(*p))
	for _, cur := range *p {
		if cur != s {
			next = append(next, cur)
		}
	}
	if len(next) == 0 {
		t.subs.Store(nil)
		return
	}
	t.subs.Store(&next)
}

// Subscribers returns the number of attached sinks.
func (t *Tracer) Subscribers() int {
	if p := t.subs.Load(); p != nil {
		return len(*p)
	}
	return 0
}

func (t *Tracer) publish(e Event) {
	if p := t.subs.Load(); p != nil {
		for _, s := range *p {
			s.offer(e)
		}
	}
}

// NewTracer returns a tracer over a fresh ring of the given capacity
// (DefaultRingCap if capacity is not positive).
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: NewRing(capacity)}
}

// StreamText makes the tracer print the first n retired instructions to
// w as they execute, one per line: sequence number, PC, disassembly.
func (t *Tracer) StreamText(w io.Writer, n uint64) {
	t.stream = w
	t.streamN = n
}

// Ring returns the underlying event ring.
func (t *Tracer) Ring() *Ring { return t.ring }

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event { return t.ring.Events() }

// Emit appends an event to the ring and fans it out to subscribers.
func (t *Tracer) Emit(e Event) {
	e.Seq = t.ring.Total() // Append assigns this same sequence number
	t.ring.Append(e)
	t.publish(e)
}

// retire records an instruction-retire event and feeds the text stream.
func (t *Tracer) retire(pid uint16, cycle uint64, pc uint32, in isa.Instr) {
	t.Emit(Event{Kind: KindRetire, Cycle: cycle, PC: pc, PID: pid})
	if t.stream != nil && t.streamed < t.streamN {
		fmt.Fprintf(t.stream, "%8d  pc=%-6d %s\n", t.streamed, pc, in)
		t.streamed++
	}
}
