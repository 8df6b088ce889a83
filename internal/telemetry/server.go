// Package telemetry makes a running simulation observable over HTTP.
// It is the live counterpart of the offline artifacts package trace
// already writes (metrics JSON, Chrome traces, flat-profile text):
//
//	/metrics        Prometheus text exposition rendered from live
//	                trace.Registry snapshots
//	/trace/stream   Server-Sent Events tailing the trace ring through a
//	                bounded drop-counting sink (never blocks the CPU);
//	                ?source=jit tails the JIT event log instead
//	/jit/traces     the per-PC tier heatmap: live trace/block cache
//	                sites with residency and per-reason deopt counters
//	/jit/events     the bounded JIT event log's retained window as JSON
//	/profile/flame  the cycle profiler as folded-stack flamegraph text
//	/profile/top    the flat profile as JSON
//	/status         run identity plus instruction/cycle rates computed
//	                from periodic snapshot deltas
//
// The server only ever reads: the simulation keeps single-writer
// ownership of every counter, and with no server attached the machine
// pays nothing at all (the zero-overhead hook contract of package
// trace is unchanged).
package telemetry

import (
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"mips/internal/trace"
)

// Source is one labeled metrics registry. The label becomes the
// `experiment` label of every series in the Prometheus exposition; the
// empty label (a single-run tool like mipsrun) emits bare series.
type Source struct {
	Label    string
	Registry *trace.Registry
}

// TraceSampler hands /trace/stream?sample=K a bounded set of live
// tracers: the first k registered (k <= 0 means all) plus the total
// population, so the stream can report exactly how much it skipped.
// The fleet trace directory implements it.
type TraceSampler interface {
	SampleTracers(k int) (names []string, tracers []*trace.Tracer, total int)
}

// Config assembles a Server.
type Config struct {
	// Program and Args identify the run on /status (e.g. "mipsrun",
	// its argv).
	Program string
	Args    []string
	// Engine names the execution engine /status reports (a
	// sim.Engine's String form, e.g. "traces").
	Engine string

	// Tracer, if non-nil, backs /trace/stream.
	Tracer *trace.Tracer
	// Sampler, if non-nil, backs /trace/stream?sample=K: the stream
	// tails K of the sampler's tracers (per-job tracers in mipsd)
	// through one merged drop-counting channel.
	Sampler TraceSampler
	// Profiler, if non-nil, backs /profile/flame and /profile/top. New
	// marks it shared (trace.Profiler.Share) so live reads are safe.
	Profiler *trace.Profiler

	// JIT, if non-nil, backs /jit/events and /trace/stream?source=jit:
	// the bounded JIT event log the machine records into.
	JIT *trace.JITLog
	// JITSites, if non-nil, backs /jit/traces: a per-job-label snapshot
	// of the live trace/block caches (the per-PC tier heatmap). mipsrun
	// closes over its one machine (cpu.ShareTraces makes the live read
	// safe — see SingleJITSites); mipsd collects each job's sites at
	// quantum boundaries.
	JITSites func() map[string]trace.JITSites

	// SampleInterval is the /status rate-sampler period (default 1s).
	SampleInterval time.Duration
	// SinkBuffer is the per-client event buffer for /trace/stream
	// (default trace.DefaultSinkBuffer).
	SinkBuffer int
	// Heartbeat is the SSE keepalive/drop-report period (default 1s).
	Heartbeat time.Duration
}

// Server is an embeddable HTTP telemetry server. Construct with New,
// add sources, then either Start it on an address or mount Handler
// into an existing mux.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	mu          sync.Mutex
	sources     []Source
	collectors  []func(io.Writer) error
	metricsBody func(io.Writer) error
	fleetFolded func(io.Writer) error

	// SSE per-client drop accounting, exposed on /metrics as
	// telemetry_sse_dropped{client="cN"}: live clients report through
	// their registered closure; drops of disconnected clients fold into
	// the closed total so the fleet-wide sum never goes backwards.
	sseMu            sync.Mutex
	sseSeq           uint64
	sseLive          map[string]func() uint64
	sseClosedDropped uint64
	sseEverConnected bool

	rateMu   sync.Mutex
	lastSnap trace.Snapshot
	lastAt   time.Time
	instRate float64
	cycRate  float64

	ln   net.Listener
	hs   *http.Server
	stop chan struct{}
	wg   sync.WaitGroup
}

// New returns a server over the given configuration. The profiler, if
// any, is switched to shared (locked) mode, so call New before the run
// starts.
func New(cfg Config) *Server {
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.Profiler != nil {
		cfg.Profiler.Share()
	}
	s := &Server{cfg: cfg, start: time.Now(), stop: make(chan struct{})}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace/stream", s.handleTraceStream)
	s.mux.HandleFunc("/jit/traces", s.handleJITTraces)
	s.mux.HandleFunc("/jit/events", s.handleJITEvents)
	s.mux.HandleFunc("/profile/flame", s.handleFlame)
	s.mux.HandleFunc("/profile/top", s.handleTop)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// AddSource attaches a labeled registry. Safe to call from any
// goroutine at any time — the parallel experiment runner registers each
// experiment's registry as its worker starts it. Labels should be
// unique; duplicate labels emit duplicate series.
func (s *Server) AddSource(label string, reg *trace.Registry) {
	s.mu.Lock()
	s.sources = append(s.sources, Source{Label: label, Registry: reg})
	s.mu.Unlock()
}

// Sources returns a snapshot of the attached sources, sorted by label
// for deterministic exposition.
func (s *Server) Sources() []Source {
	s.mu.Lock()
	out := make([]Source, len(s.sources))
	copy(out, s.sources)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// AddCollector appends a metrics collector: a function writing extra
// Prometheus exposition text (complete HELP/TYPE'd families) after the
// source registries on /metrics. The fleet rollup and per-tenant
// gauges hang here. Call before Start.
func (s *Server) AddCollector(fn func(io.Writer) error) {
	s.mu.Lock()
	s.collectors = append(s.collectors, fn)
	s.mu.Unlock()
}

// SetMetricsBody overrides the whole /metrics body. The federation
// coordinator uses it to merge peer scrapes with the local exposition;
// the override typically calls RenderLocalMetrics for the local part.
// Call before Start.
func (s *Server) SetMetricsBody(fn func(io.Writer) error) {
	s.mu.Lock()
	s.metricsBody = fn
	s.mu.Unlock()
}

// SetFleetFolded installs the /profile/flame?scope=fleet renderer: a
// function writing merged folded-stack text for every profiled job (and
// federated peers). Call before Start.
func (s *Server) SetFleetFolded(fn func(io.Writer) error) {
	s.mu.Lock()
	s.fleetFolded = fn
	s.mu.Unlock()
}

// Handler returns the telemetry mux, for mounting into another server
// or an httptest harness.
func (s *Server) Handler() http.Handler { return s.mux }

// Mount adds a handler to the telemetry mux under the given pattern
// (net/http ServeMux syntax, method patterns included). cmd/mipsd uses
// it to expose the simulation job service next to /metrics and /status.
// Call before Start.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Start listens on addr (":0" picks a free port), serves in the
// background, and starts the rate sampler. It returns the bound
// address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln) // returns on Close
	}()
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.SampleInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return ln.Addr(), nil
}

// Close stops the listener and the sampler. Safe to call once.
func (s *Server) Close() error {
	close(s.stop)
	var err error
	if s.hs != nil {
		err = s.hs.Close()
	}
	s.wg.Wait()
	return err
}

// aggregate sums the current snapshot of every source per metric name.
func (s *Server) aggregate() trace.Snapshot {
	sum := trace.Snapshot{}
	for _, src := range s.Sources() {
		for name, v := range src.Registry.Snapshot() {
			sum[name] += v
		}
	}
	return sum
}

// sample advances the rate estimator: one snapshot delta over the
// elapsed wall time since the previous sample.
func (s *Server) sample() {
	cur := s.aggregate()
	now := time.Now()
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	if s.lastSnap != nil {
		if dt := now.Sub(s.lastAt).Seconds(); dt > 0 {
			d := cur.Delta(s.lastSnap)
			s.instRate = float64(d["cpu.instructions"]) / dt
			s.cycRate = float64(d["cpu.cycles"]) / dt
		}
	}
	s.lastSnap = cur
	s.lastAt = now
}

// rates returns the most recent sampled rates.
func (s *Server) rates() (instPerSec, cycPerSec float64) {
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	return s.instRate, s.cycRate
}

// handleIndex lists the endpoints, so hitting the root with curl or a
// browser is self-documenting.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("mips telemetry\n" +
		"  /metrics        Prometheus exposition (fleet rollup + peers when federated)\n" +
		"  /trace/stream   live trace events (SSE; ?sample=K tails K jobs; ?source=jit tails the JIT log)\n" +
		"  /jit/traces     per-PC tier heatmap: live trace/block sites with deopt reasons\n" +
		"  /jit/events     retained JIT event log window (JSON; ?n=K keeps the last K)\n" +
		"  /profile/flame  folded-stack flamegraph (?scope=fleet merges all jobs)\n" +
		"  /profile/top    flat profile JSON (?n=20)\n" +
		"  /status         run identity and rates\n"))
}
