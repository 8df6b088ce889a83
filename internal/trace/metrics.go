package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind classifies a registered metric for exposition (the
// Prometheus TYPE line served by internal/telemetry).
type MetricKind uint8

const (
	// MetricGauge is a level that may rise and fall (resident pages,
	// pending DMA words).
	MetricGauge MetricKind = iota
	// MetricCounter is a monotonically non-decreasing total (cycles,
	// instructions, page faults).
	MetricCounter
)

func (k MetricKind) String() string {
	if k == MetricCounter {
		return "counter"
	}
	return "gauge"
}

// metricSource is one registered series: the sampling function plus the
// exposition metadata.
type metricSource struct {
	fn   func() uint64
	kind MetricKind
	help string
}

// Registry is a set of named metrics: owned counters and sampled gauges.
// The simulated layers (cpu, mem, kernel) are registered into one
// registry, replacing scattered per-layer accessors with a uniform
// snapshot/delta API. Sources are sampled only at Snapshot time, so a
// registered machine pays nothing while running.
//
// Concurrency contract: each metric has a single writer — the goroutine
// running the simulation it measures. Snapshot may be called from any
// goroutine (the live telemetry server samples while the machine runs);
// owned Counters are fully synchronized via atomics, and the standard
// gauges registered by RegisterCPUStats read their fields with atomic
// loads, so concurrent samples are never torn. Gauges that sample
// through accessor methods (the kernel counters) are best-effort when
// read mid-run: values are monotonic but may lag by an update. A
// registry whose reader must never overlap the writer (the race
// detector counts an atomic load against a plain write) is guarded by
// the lock the writer holds while it runs (Guard).
type Registry struct {
	mu      sync.Mutex
	guard   sync.Locker
	sources map[string]metricSource
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]metricSource)}
}

// Counter is a registry-owned monotonic counter. It is safe for
// concurrent use: increments are atomic, and Value (sampled by
// Registry.Snapshot, possibly from the telemetry goroutine) is an
// atomic load.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Counter registers and returns a new owned counter. Registering a
// duplicate name panics: metric names identify series across runs.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(name, metricSource{fn: c.Value, kind: MetricCounter})
	return c
}

// Gauge registers a sampled level metric: fn is called at every
// Snapshot.
func (r *Registry) Gauge(name string, fn func() uint64) {
	r.register(name, metricSource{fn: fn, kind: MetricGauge})
}

// CounterFunc registers a sampled metric that is semantically a
// monotonic total — an externally-owned counter read at Snapshot time.
// The distinction from Gauge is exposition metadata only.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.register(name, metricSource{fn: fn, kind: MetricCounter})
}

func (r *Registry) register(name string, src metricSource) {
	if err := r.tryRegister(name, src); err != nil {
		panic(err.Error())
	}
}

// tryRegister installs a source, reporting a duplicate name as an error
// instead of panicking. The Register* helpers (register.go) build on it
// so attaching a whole machine twice is an explicit, recoverable error.
func (r *Registry) tryRegister(name string, src metricSource) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sources[name]; dup {
		return fmt.Errorf("trace: duplicate metric %q", name)
	}
	r.sources[name] = src
	return nil
}

// Registered reports whether a metric name is already taken.
func (r *Registry) Registered(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sources[name]
	return ok
}

// Unregister removes a metric, reporting whether it existed. Together
// with UnregisterPrefix it is the explicit swap path: re-registering a
// machine requires removing the old series first, so a silent overwrite
// can never splice two machines' histories into one series.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sources[name]
	delete(r.sources, name)
	return ok
}

// UnregisterPrefix removes every metric whose name starts with prefix
// and returns how many were removed.
func (r *Registry) UnregisterPrefix(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.sources {
		if strings.HasPrefix(name, prefix) {
			delete(r.sources, name)
			n++
		}
	}
	return n
}

// Describe attaches help text to a registered metric, surfaced as the
// HELP line of the Prometheus exposition. Describing an unregistered
// name is a no-op.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if src, ok := r.sources[name]; ok {
		src.help = help
		r.sources[name] = src
	}
}

// Meta returns a metric's kind and help text.
func (r *Registry) Meta(name string) (MetricKind, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	src := r.sources[name]
	return src.kind, src.help
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sources))
	for n := range r.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Guard makes every Snapshot hold l while it samples. A writer that
// holds l while the measured machine runs (mipsrun -serve's run loop,
// across each quantum) then has every sample land between its runs, at
// a step boundary. Call it before the registry is shared.
func (r *Registry) Guard(l sync.Locker) { r.guard = l }

// Snapshot samples every metric.
func (r *Registry) Snapshot() Snapshot {
	if r.guard != nil {
		r.guard.Lock()
		defer r.guard.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Snapshot, len(r.sources))
	for n, src := range r.sources {
		s[n] = src.fn()
	}
	return s
}

// Snapshot is one sample of a registry: metric name to value.
type Snapshot map[string]uint64

// Delta returns the per-metric change since prev (s minus prev). The
// receiver is the newer snapshot; metrics absent from prev — counters
// registered after prev was taken, such as a new experiment source
// attached to a live telemetry server — are surfaced with their full
// value (they started at zero). Metrics absent from s are omitted. A
// metric that shrank reports 0 rather than a wrapped uint64: Delta is
// meant for monotonic series, and a rate of "absurdly huge" is strictly
// worse than "none" when a gauge dips between samples.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for n, v := range s {
		if p := prev[n]; v >= p {
			d[n] = v - p
		} else {
			d[n] = 0
		}
	}
	return d
}

// WriteJSON serializes the snapshot as indented JSON with sorted keys,
// so identical snapshots produce identical bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadSnapshot deserializes a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return s, nil
}
