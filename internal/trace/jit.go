package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"mips/internal/cpu"
)

// JITLog is a bounded, drop-and-count log of JIT lifecycle events
// (cpu.JITEvent): trace formation, compilation, cold dispatch, reasoned
// guard exits, refusals, poisonings, invalidations. It follows the same
// observer contract as Tracer: Attach installs the CPU hook, the CPU
// goroutine is the single producer, and readers (Events, WriteJSONL,
// the telemetry server) take a short mutex to copy out. When the ring
// fills, the oldest events are overwritten and counted in Dropped —
// the log never blocks and never grows.
//
// Subscribers get a live feed through buffered channels; a slow
// subscriber loses events (counted per subscriber) rather than stalling
// the machine. Detached (no Attach), the CPU pays only a nil check.
type JITLog struct {
	mu      sync.Mutex
	buf     []cpu.JITEvent
	next    int    // ring write cursor
	filled  bool   // ring has wrapped at least once
	total   uint64 // events ever recorded
	dropped uint64 // events overwritten after wrap
	subs    map[*JITSink]bool
}

// JITSink is one subscriber's bounded live feed, mirroring the Tracer
// Sink contract: the producer's send never blocks, overflow is dropped
// and counted here.
type JITSink struct {
	ch      chan cpu.JITEvent
	dropped atomic.Uint64
}

// Events is the receive side of the sink.
func (s *JITSink) Events() <-chan cpu.JITEvent { return s.ch }

// Dropped counts events this sink missed because its buffer was full.
func (s *JITSink) Dropped() uint64 { return s.dropped.Load() }

// DefaultJITLogSize bounds the retained event window when callers do
// not choose one. Formation events are rare; guard exits dominate, and
// 4096 of them is minutes of steady state on the bench workloads.
const DefaultJITLogSize = 4096

// NewJITLog builds a log retaining up to size events (DefaultJITLogSize
// when size <= 0).
func NewJITLog(size int) *JITLog {
	if size <= 0 {
		size = DefaultJITLogSize
	}
	return &JITLog{buf: make([]cpu.JITEvent, size)}
}

// Attach installs the log as the CPU's JIT hook. One log may observe
// only one CPU at a time per the single-writer convention; attaching to
// a second CPU is fine once the first is done (the job service reuses
// logs across sequential jobs).
func (l *JITLog) Attach(c *cpu.CPU) {
	c.SetJITHook(l.Record)
}

// Record appends one event, overwriting (and counting) the oldest when
// the ring is full, then fans out to subscribers without blocking.
func (l *JITLog) Record(e cpu.JITEvent) {
	l.mu.Lock()
	if l.filled {
		l.dropped++
	}
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.filled = true
	}
	l.total++
	for s := range l.subs {
		select {
		case s.ch <- e:
		default:
			s.dropped.Add(1)
		}
	}
	l.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (l *JITLog) Events() []cpu.JITEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.filled {
		return append([]cpu.JITEvent(nil), l.buf[:l.next]...)
	}
	out := make([]cpu.JITEvent, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// Len reports how many events are currently retained.
func (l *JITLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filled {
		return len(l.buf)
	}
	return l.next
}

// Total reports how many events were ever recorded.
func (l *JITLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped reports how many events fell off the ring (the drop-and-count
// contract: bounded memory, honest accounting).
func (l *JITLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Subscribe returns a buffered live feed of future events
// (DefaultSinkBuffer when buffer <= 0). Sends never block: events
// beyond the buffer are dropped and counted against the sink, not the
// machine.
func (l *JITLog) Subscribe(buffer int) *JITSink {
	if buffer <= 0 {
		buffer = DefaultSinkBuffer
	}
	s := &JITSink{ch: make(chan cpu.JITEvent, buffer)}
	l.mu.Lock()
	if l.subs == nil {
		l.subs = make(map[*JITSink]bool)
	}
	l.subs[s] = true
	l.mu.Unlock()
	return s
}

// Subscribers reports how many sinks are attached (tests use it to
// sequence emits after a stream handler's subscribe).
func (l *JITLog) Subscribers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs)
}

// Unsubscribe detaches a sink and closes its channel. Idempotent.
func (l *JITLog) Unsubscribe(s *JITSink) {
	l.mu.Lock()
	if l.subs[s] {
		delete(l.subs, s)
		close(s.ch)
	}
	l.mu.Unlock()
}

// JITEventJSON is the wire shape of one event, shared by the JSONL
// export, the telemetry endpoints, and the SSE stream.
type JITEventJSON struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Reason string `json:"reason,omitempty"`
	PC     uint32 `json:"pc"`
	Len    uint32 `json:"len,omitempty"`
}

// MarshalJITEvent converts a cpu.JITEvent to its wire shape, decoding
// the reason byte per kind.
func MarshalJITEvent(e cpu.JITEvent) JITEventJSON {
	return JITEventJSON{
		Cycle:  e.Cycle,
		Kind:   e.Kind.String(),
		Reason: jitReason(e),
		PC:     e.PC,
		Len:    e.Len,
	}
}

// jitReason decodes the per-kind reason byte; kinds without a reason
// axis return "".
func jitReason(e cpu.JITEvent) string {
	switch e.Kind {
	case cpu.JITGuardExit:
		return cpu.DeoptReason(e.Reason).String()
	case cpu.JITRefused, cpu.JITPoisoned:
		return cpu.FormRefusal(e.Reason).String()
	}
	return ""
}

// WriteJSONL writes the retained events as JSON lines, oldest first.
// This is the `mipsrun -jitlog` format: one self-describing object per
// line, greppable and jq-able.
func (l *JITLog) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l.Events() {
		if err := enc.Encode(MarshalJITEvent(e)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChromeJSON exports the retained events as Chrome trace_event
// JSON on a dedicated JIT lane (cycles as microseconds, matching the
// Tracer export, so the two files line up when loaded side by side).
func (l *JITLog) WriteChromeJSON(w io.Writer) error {
	return WriteJITChromeJSON(w, l.Events())
}

// jitTid is the synthetic lane carrying JIT lifecycle instants in the
// Chrome export; it deliberately avoids the Tracer's process lanes and
// kernelTid.
const jitTid = 998

// WriteJITChromeJSON exports JIT events (oldest-first) as Chrome
// trace_event JSON loadable by Perfetto and chrome://tracing. Guard
// exits render as "deopt:<reason>" instants, refusals as
// "refuse:<reason>", so the reason taxonomy is visible directly in the
// timeline without opening args.
func WriteJITChromeJSON(w io.Writer, events []cpu.JITEvent) error {
	out := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: chromePID, Tid: 0,
			Args: map[string]any{"name": "mips"}},
		{Name: "thread_name", Ph: "M", Pid: chromePID, Tid: jitTid,
			Args: map[string]any{"name": "jit (tier events)"}},
	}
	for _, e := range events {
		name := e.Kind.String()
		args := map[string]any{"pc": e.PC}
		if e.Len != 0 {
			args["len"] = e.Len
		}
		switch e.Kind {
		case cpu.JITGuardExit:
			name = "deopt:" + cpu.DeoptReason(e.Reason).String()
			args["reason"] = cpu.DeoptReason(e.Reason).String()
		case cpu.JITRefused:
			name = "refuse:" + cpu.FormRefusal(e.Reason).String()
			args["reason"] = cpu.FormRefusal(e.Reason).String()
		case cpu.JITPoisoned:
			name = "poisoned"
			args["reason"] = cpu.FormRefusal(e.Reason).String()
		}
		out = append(out, chromeEvent{Name: name, Ph: "i", Ts: e.Cycle,
			Pid: chromePID, Tid: jitTid, S: "t", Args: args})
	}
	return json.NewEncoder(w).Encode(chromeTrace{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"clock": "machine cycles as trace microseconds"},
	})
}

// JITTraceSite is the wire shape of one live trace's residency record:
// where it starts, how big it is, how often it runs, and how it deopts,
// with the entry PC symbolized against the profiler's images when one
// is available.
type JITTraceSite struct {
	EntryPC uint32            `json:"entry_pc"`
	EndPC   uint32            `json:"end_pc"`
	Symbol  string            `json:"symbol,omitempty"`
	Ops     int               `json:"ops"`
	Blocks  int               `json:"blocks"`
	Words   uint32            `json:"words"`
	Hits    uint64            `json:"hits"`
	Instrs  uint64            `json:"instrs"`
	Deopts  map[string]uint64 `json:"deopts,omitempty"`
	// Adopted is true for a trace the machine took from the golden code
	// it loaded, false for one it formed itself.
	Adopted bool `json:"adopted"`
}

// JITBlockSite is the block-tier counterpart: one live superblock's
// entry, size and execution count.
type JITBlockSite struct {
	EntryPC uint32 `json:"entry_pc"`
	Words   uint32 `json:"words"`
	Execs   uint64 `json:"execs"`
	Symbol  string `json:"symbol,omitempty"`
}

// JITSites is the per-PC tier heatmap served by /jit/traces: the live
// traces and blocks with residency counters, plus the global tier
// split so a reader can tell how much execution the listed sites cover.
type JITSites struct {
	Traces []JITTraceSite    `json:"traces"`
	Blocks []JITBlockSite    `json:"blocks"`
	Tiers  map[string]uint64 `json:"tiers"`
}

// CollectJITSites snapshots the CPU's live traces and blocks into the
// wire shape, sorted hottest-first. The profiler is optional; when
// present, entry PCs gain "symbol+offset" names (user image first, then
// kernel). A live reader calls it between a run's quanta, never while
// the CPU runs: the job service under a job's mutex, mipsrun -serve
// under its run loop's.
func CollectJITSites(c *cpu.CPU, p *Profiler) JITSites {
	sites := JITSites{Tiers: make(map[string]uint64, int(cpu.NumTiers))}
	for t := cpu.Tier(0); t < cpu.NumTiers; t++ {
		sites.Tiers[t.String()] = c.Trans.TierInstr(t)
	}
	for _, s := range c.TraceSites() {
		js := JITTraceSite{
			EntryPC: s.EntryPC, EndPC: s.EndPC, Symbol: symbolize(p, s.EntryPC),
			Ops: s.Ops, Blocks: s.Blocks, Words: s.Words,
			Hits: s.Hits, Instrs: s.Instrs, Adopted: s.Adopted,
		}
		for r := cpu.DeoptReason(0); r < cpu.NumDeoptReasons; r++ {
			if n := s.Deopts[r]; n != 0 {
				if js.Deopts == nil {
					js.Deopts = make(map[string]uint64)
				}
				js.Deopts[r.String()] = n
			}
		}
		sites.Traces = append(sites.Traces, js)
	}
	for _, s := range c.BlockSites() {
		sites.Blocks = append(sites.Blocks, JITBlockSite{
			EntryPC: s.EntryPC, Words: s.Words, Execs: s.Execs,
			Symbol: symbolize(p, s.EntryPC),
		})
	}
	sort.Slice(sites.Traces, func(i, j int) bool {
		if sites.Traces[i].Hits != sites.Traces[j].Hits {
			return sites.Traces[i].Hits > sites.Traces[j].Hits
		}
		return sites.Traces[i].EntryPC < sites.Traces[j].EntryPC
	})
	sort.Slice(sites.Blocks, func(i, j int) bool {
		if sites.Blocks[i].Execs != sites.Blocks[j].Execs {
			return sites.Blocks[i].Execs > sites.Blocks[j].Execs
		}
		return sites.Blocks[i].EntryPC < sites.Blocks[j].EntryPC
	})
	return sites
}

func symbolize(p *Profiler, pc uint32) string {
	if p == nil {
		return ""
	}
	name, off, ok := p.Symbolize(pc, false)
	if !ok {
		name, off, ok = p.Symbolize(pc, true)
	}
	if !ok {
		return ""
	}
	if off == 0 {
		return name
	}
	return fmt.Sprintf("%s+%d", name, off)
}
