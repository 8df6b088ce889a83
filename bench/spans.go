package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around each call the benchmark makes
// into a layer of the simulator: name, layer, start, duration, the span
// that caused it, and the request (operation) it belongs to. Spans stay
// in memory and are written once, at exit, as Chrome trace_event JSON
// that Perfetto and chrome://tracing open.

// maxSpans bounds the recorder's memory; spans beyond it are counted
// and dropped.
const maxSpans = 200_000

// Lanes are the trace's threads: one per goroutine that makes calls.
const (
	laneWorkload = 1 // the in-process workload loop
	laneProbe    = 2 // the layer probes
	laneSubmit   = 3 // the job client's submitting connection
	lanePoll     = 4 // the job client's polling connection
)

var laneNames = map[int]string{
	laneWorkload: "workload",
	laneProbe:    "layer probes",
	laneSubmit:   "job client: submit",
	lanePoll:     "job client: poll",
}

type spanRecord struct {
	name, layer     string
	start, dur      time.Duration // start is relative to the recorder's t0
	id, parent, req uint64
	lane            int
}

// recorder collects spans. A nil *recorder records nothing, so untraced
// code paths pass nil and pay only for the clock reads.
type recorder struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []spanRecord
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is an open interval; end closes it.
type span struct {
	rec         *recorder
	name, layer string
	start       time.Time
	id, parent  uint64
	req         uint64
	lane        int
}

// begin opens a root span for request req on a lane.
func (r *recorder) begin(lane int, req uint64, layer, name string) span {
	s := span{rec: r, name: name, layer: layer, req: req, lane: lane, start: time.Now()}
	if r != nil {
		s.id = r.ids.Add(1)
	}
	return s
}

// child opens a span caused by s, on the same request.
func (s span) child(layer, name string) span {
	c := span{rec: s.rec, name: name, layer: layer, req: s.req, lane: s.lane, parent: s.id, start: time.Now()}
	if s.rec != nil {
		c.id = s.rec.ids.Add(1)
	}
	return c
}

// childOn is child on another lane, for a request that crosses
// goroutines.
func (s span) childOn(lane int, layer, name string) span {
	c := s.child(layer, name)
	c.lane = lane
	return c
}

// end closes the span, records it when tracing, and returns its length.
func (s span) end() time.Duration {
	d := time.Since(s.start)
	r := s.rec
	if r == nil {
		return d
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, spanRecord{
			name: s.name, layer: s.layer, start: s.start.Sub(r.t0), dur: d,
			id: s.id, parent: s.parent, req: s.req, lane: s.lane,
		})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return d
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeChrome writes the recorded spans as Chrome trace_event JSON
// (complete "X" events, timestamps in microseconds).
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench"}}}
	for lane, name := range laneNames {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane, Args: map[string]any{"name": name}})
	}
	for _, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X", Ts: micros(s.start), Dur: micros(s.dur), Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": r.dropped},
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
