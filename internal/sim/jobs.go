package sim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mips/internal/cpu"
	"mips/internal/trace"
)

// The job service runs many machines concurrently on a bounded worker
// pool. Scheduling is checkpoint-preempt-resume: a worker runs one job
// for a step quantum, then requeues it, so long simulations share the
// pool fairly and every job sits at an instruction boundary between
// quanta — which is what makes mid-run snapshot download and restored
// resumption safe. The simulation hot path takes no locks: a job's
// mutex is held across a whole quantum, and all cross-goroutine
// coordination happens at quantum boundaries.
//
// What a job shows its readers is kept apart from its machine. The
// worker publishes an immutable record at each state transition
// (queued, running, terminal) and counts instructions, steps and quanta
// in atomics, so Status and Wait never take the job mutex, and neither
// does any read of a finished job. A job keeps its output, its encoded
// snapshot and, with a JIT log attached, its trace sites in its
// terminal record and drops its machine. Only Output, Snapshot and
// JITSites of a running job take the mutex, because they need the
// machine at a quantum boundary. The service keeps at most QueueDepth
// finished jobs; the earliest finished is evicted first.

// JobState is a job's lifecycle state.
type JobState int

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobCancelled
)

func (s JobState) terminal() bool { return s >= JobDone }

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Service errors.
var (
	// ErrQueueFull is backpressure: the service already holds QueueDepth
	// unfinished jobs. Retry after some complete.
	ErrQueueFull = errors.New("sim: job queue full")
	// ErrClosed means the service no longer accepts jobs.
	ErrClosed = errors.New("sim: job service closed")
	// ErrTimeout marks a job that exceeded its wall-clock timeout.
	ErrTimeout = errors.New("sim: job timeout")
	// ErrJobNotFound means the service never issued the job ID.
	ErrJobNotFound = errors.New("sim: no such job")
	// ErrJobEvicted means the job finished and has since left the
	// service's bounded history of finished jobs.
	ErrJobEvicted = errors.New("sim: job evicted from history")

	errNotStarted = errors.New("sim: job has not started")
)

// DefaultTenant is the tenant label of jobs submitted without one.
const DefaultTenant = "default"

// JobSample is the fleet-rollup view of one terminal job: everything a
// per-tenant aggregation layer needs, captured at the instant the job
// reached its terminal state. The xlate.* translation-cache totals of
// the job's machine ride along in Counters so cache behavior is
// attributable per tenant.
type JobSample struct {
	Tenant  string
	Name    string
	Engine  string // resolved engine, or "none" if the machine never built
	Outcome string // done | failed | cancelled

	LatencySeconds   float64 // admission to terminal state
	AdmissionSeconds float64 // submission to a runnable machine (built + ready for its first instruction)
	InstrsPerSec     float64 // retirement rate over running wall time
	Instructions     uint64
	Preempts         uint64 // scheduling quanta (checkpoint-preemptions)

	Counters map[string]uint64 // xlate.* totals from the machine, jobs.cow_faults for template forks
}

// TracerRegistry receives per-job tracers as traced jobs build their
// machines; the fleet trace directory implements it, making every
// traced job a sampled-SSE source.
type TracerRegistry interface {
	AddTracer(name string, t *trace.Tracer)
	RemoveTracer(name string)
}

// ServiceConfig sizes the job service.
type ServiceConfig struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds unfinished jobs in the system; Submit returns
	// ErrQueueFull beyond it (default 256). It also bounds the finished
	// jobs the service keeps answering for.
	QueueDepth int
	// Quantum is the steps (see Machine.RunSteps) a job runs per turn
	// before being checkpoint-preempted (default 1_000_000).
	Quantum uint64
	// DefaultMaxSteps bounds the steps of jobs that do not set MaxSteps
	// (default 500_000_000).
	DefaultMaxSteps uint64
	// Metrics, if non-nil, receives the service's jobs.* counters.
	Metrics *trace.Registry
	// OnJobTerminal, if non-nil, receives one JobSample per job that
	// reaches a terminal state, on the worker goroutine that finished
	// it, before the job's terminal state is published. It must be fast
	// and must not call back into the Service or the Job (the job's
	// mutex is held). The fleet rollup hangs here.
	OnJobTerminal func(JobSample)
	// Tracers, if non-nil, receives every traced job's tracer as the
	// job builds its machine.
	Tracers TracerRegistry
	// JIT, if non-nil, receives every job's trace-JIT lifecycle events
	// (formation, guard exits by reason, invalidations) into one shared
	// bounded log. Unlike Profile/Trace it does not force the exact
	// engine — the hook only fires from the superblock/trace machinery,
	// so jobs keep their configured engine.
	JIT *trace.JITLog
}

// JobSpec describes one submission.
type JobSpec struct {
	// Name labels the job in listings.
	Name string
	// Tenant labels the job for the fleet rollup (DefaultTenant if
	// empty).
	Tenant string
	// Template names the golden template the job's Build forks from, if
	// any. The service only uses it as a label (jobs.template_forks,
	// Status) — the fork itself happens inside Build.
	Template string
	// Build constructs the machine. It runs on a worker goroutine at the
	// job's first quantum, so heavy setup (compilation, snapshot decode)
	// never blocks Submit.
	Build func() (*Machine, error)
	// MaxSteps bounds the steps the job runs (0 = the service default).
	MaxSteps uint64
	// Timeout, if nonzero, fails the job when its wall-clock age exceeds
	// it (checked at quantum boundaries).
	Timeout time.Duration
	// Profile attaches a cycle-attribution profiler to the job's
	// machine. Profiled jobs run on the exact per-instruction engine
	// (observer hooks force it), so they trade speed for attribution;
	// their folded stacks merge into the fleet flamegraph.
	Profile bool
	// Trace attaches an event tracer, registered with the service's
	// TracerRegistry so the job becomes a sampled-SSE source. Traced
	// jobs also run on the exact engine.
	Trace bool
}

// Job is one tracked simulation.
type Job struct {
	ID   string
	Name string

	svc      *Service
	spec     JobSpec
	seq      uint64 // submission number: the N of ID "job-N"
	maxSteps uint64
	created  time.Time
	deadline time.Time

	// rec is what readers see: replaced, never modified, at each state
	// transition, and loaded without j.mu.
	rec          atomic.Pointer[jobRecord]
	instructions atomic.Uint64
	steps        atomic.Uint64 // steps run: instructions plus exception entries
	quanta       atomic.Uint64

	// mu is held by the worker for a whole quantum and guards the
	// worker's state below. Readers take it only to reach a running
	// job's machine, so they wait at most one quantum and never stall
	// the run loop mid-step.
	mu       sync.Mutex
	state    JobState
	m        *Machine  // nil before the build and after the terminal state
	admitted time.Time // machine built and ready to retire its first instruction

	cancelled atomic.Bool
	done      chan struct{} // closed once the terminal record is published

	// prof is set once when a profiled job builds its machine; readers
	// (the fleet flamegraph merge) load it without touching j.mu, so a
	// profile read never waits out a quantum.
	prof atomic.Pointer[trace.Profiler]
}

// jobRecord is one published, immutable view of a job.
type jobRecord struct {
	state    JobState
	err      error
	started  time.Time
	finished time.Time

	// Terminal records only: what the machine left behind when the job
	// dropped it. built is false for a job whose machine never built.
	built       bool
	output      string
	snapshot    []byte
	snapshotErr error
	sites       *trace.JITSites // nil without ServiceConfig.JIT
}

// Service is the concurrent job scheduler. Construct with NewService;
// Close (or Drain then Close) when finished.
type Service struct {
	cfg ServiceConfig

	mu           sync.Mutex
	jobs         map[string]*Job
	order        []*Job // tracked jobs in submission order
	finished     []*Job // tracked terminal jobs, earliest finished first
	seq          uint64
	active       int
	tenantActive map[string]int
	closed       bool

	ready chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	mSubmitted *trace.Counter
	mCompleted *trace.Counter
	mFailed    *trace.Counter
	mCancelled *trace.Counter
	mRejected  *trace.Counter
	mQuanta    *trace.Counter
	mForks     *trace.Counter
	mCOWFaults *trace.Counter
}

// NewService starts a job service.
func NewService(cfg ServiceConfig) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 1_000_000
	}
	if cfg.DefaultMaxSteps == 0 {
		cfg.DefaultMaxSteps = 500_000_000
	}
	s := &Service{
		cfg:          cfg,
		jobs:         make(map[string]*Job),
		tenantActive: make(map[string]int),
		ready:        make(chan *Job, cfg.QueueDepth),
		stop:         make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		s.mSubmitted = reg.Counter("jobs.submitted")
		reg.Describe("jobs.submitted", "jobs accepted by Submit")
		s.mCompleted = reg.Counter("jobs.completed")
		reg.Describe("jobs.completed", "jobs that ran to a clean halt")
		s.mFailed = reg.Counter("jobs.failed")
		reg.Describe("jobs.failed", "jobs that errored, timed out, or hit their step limit")
		s.mCancelled = reg.Counter("jobs.cancelled")
		reg.Describe("jobs.cancelled", "jobs cancelled before completion")
		s.mRejected = reg.Counter("jobs.rejected")
		reg.Describe("jobs.rejected", "submissions rejected by queue backpressure")
		s.mQuanta = reg.Counter("jobs.quanta")
		reg.Describe("jobs.quanta", "scheduling quanta executed (checkpoint-preemptions)")
		s.mForks = reg.Counter("jobs.template_forks")
		reg.Describe("jobs.template_forks", "jobs admitted by forking a golden template")
		s.mCOWFaults = reg.Counter("jobs.cow_faults")
		reg.Describe("jobs.cow_faults", "copy-on-write page privatizations across terminal forked jobs")
		reg.Gauge("jobs.active", func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return uint64(s.active)
		})
		reg.Describe("jobs.active", "unfinished jobs in the system")
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func inc(c *trace.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Submit enqueues a job. It is cheap and non-blocking: machine
// construction is deferred to the first quantum. Returns ErrQueueFull
// when QueueDepth unfinished jobs are already in the system, ErrClosed
// after Drain or Close.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	if spec.Build == nil {
		return nil, errors.New("sim: job spec needs a Build function")
	}
	if spec.Tenant == "" {
		spec.Tenant = DefaultTenant
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.active >= s.cfg.QueueDepth {
		s.mu.Unlock()
		inc(s.mRejected)
		return nil, ErrQueueFull
	}
	s.seq++
	j := &Job{
		ID:       jobID(s.seq),
		Name:     spec.Name,
		svc:      s,
		spec:     spec,
		seq:      s.seq,
		state:    JobQueued,
		maxSteps: spec.MaxSteps,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	if j.maxSteps == 0 {
		j.maxSteps = s.cfg.DefaultMaxSteps
	}
	if spec.Timeout > 0 {
		j.deadline = j.created.Add(spec.Timeout)
	}
	j.rec.Store(&jobRecord{state: JobQueued})
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.active++
	s.tenantActive[spec.Tenant]++
	s.mu.Unlock()
	inc(s.mSubmitted)
	// Capacity equals QueueDepth and admission is bounded by it, so this
	// send never blocks.
	s.ready <- j
	return j, nil
}

func jobID(seq uint64) string { return "job-" + strconv.FormatUint(seq, 10) }

// issued returns the submission number of an ID this service handed
// out, tracked or evicted; s.mu is held.
func (s *Service) issued(id string) (uint64, bool) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	return n, err == nil && n >= 1 && n <= s.seq && id == jobID(n)
}

// Job returns a tracked job by ID. It returns ErrJobEvicted for a job
// that has left the bounded history of finished jobs, and
// ErrJobNotFound for an ID the service never issued.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	if _, ok := s.issued(id); ok {
		return nil, fmt.Errorf("%w: %q", ErrJobEvicted, id)
	}
	return nil, fmt.Errorf("%w: %q", ErrJobNotFound, id)
}

// Jobs returns every tracked job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.order)
}

// JobsAfter returns the tracked jobs submitted after the job with ID
// cursor, in submission order; an empty cursor returns them all. A
// cursor whose job was evicted still resumes after it; one the service
// never issued returns ErrJobNotFound.
func (s *Service) JobsAfter(cursor string) ([]*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	if cursor != "" {
		var ok bool
		if n, ok = s.issued(cursor); !ok {
			return nil, fmt.Errorf("%w: %q", ErrJobNotFound, cursor)
		}
	}
	i, found := slices.BinarySearchFunc(s.order, n, bySeq)
	if found {
		i++
	}
	return slices.Clone(s.order[i:]), nil
}

func bySeq(j *Job, seq uint64) int { return cmp.Compare(j.seq, seq) }

// Cancel requests cancellation; the job reaches JobCancelled at its
// next quantum boundary. Returns false for untracked IDs.
func (s *Service) Cancel(id string) bool {
	j, err := s.Job(id)
	if err != nil {
		return false
	}
	j.cancelled.Store(true)
	return true
}

// Drain stops accepting new jobs and waits until every accepted job
// reaches a terminal state or the context expires.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := s.active
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close stops the workers. In-flight quanta finish; jobs still queued
// stay JobQueued. Call Drain first for a graceful shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.ready:
			if s.runQuantum(j) {
				select {
				case s.ready <- j:
				case <-s.stop:
					return
				}
			}
		}
	}
}

// runQuantum advances one job by one quantum and reports whether it
// should be requeued.
func (s *Service) runQuantum(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	if j.cancelled.Load() {
		s.finishLocked(j, JobCancelled, nil)
		return false
	}
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		s.finishLocked(j, JobFailed, ErrTimeout)
		return false
	}
	if j.m == nil {
		m, err := j.spec.Build()
		if err != nil {
			s.finishLocked(j, JobFailed, err)
			return false
		}
		j.m = m
		s.attachJobObservers(j)
		// Boot here so the admission stamp covers everything between
		// Submit and the machine being able to retire its first
		// instruction (boot is a no-op on restored/forked machines).
		m.Boot()
		j.admitted = time.Now()
		if j.spec.Template != "" {
			inc(s.mForks)
		}
	}
	if j.state == JobQueued {
		j.state = JobRunning
		j.rec.Store(&jobRecord{state: JobRunning, started: time.Now()})
	}
	q := s.cfg.Quantum
	steps := j.steps.Load()
	if rem := j.maxSteps - steps; rem < q {
		q = rem
	}
	exc := j.m.Stats().TotalExceptions()
	executed, halted := j.m.RunSteps(q)
	steps += executed + j.m.Stats().TotalExceptions() - exc
	j.steps.Store(steps)
	j.instructions.Add(executed)
	j.quanta.Add(1)
	inc(s.mQuanta)
	switch {
	case halted:
		s.finishLocked(j, JobDone, nil)
		return false
	case steps >= j.maxSteps:
		s.finishLocked(j, JobFailed, fmt.Errorf("step limit %d exceeded", j.maxSteps))
		return false
	case j.cancelled.Load():
		s.finishLocked(j, JobCancelled, nil)
		return false
	}
	return true
}

// attachJobObservers wires the per-job profiler/tracer right after the
// machine builds, before its first quantum runs; j.mu is held.
func (s *Service) attachJobObservers(j *Job) {
	if s.cfg.JIT != nil {
		s.cfg.JIT.Attach(j.m.CPU())
	}
	if !j.spec.Profile && !j.spec.Trace {
		return
	}
	obs := &trace.Observer{}
	if j.spec.Profile {
		p := trace.NewProfiler()
		// Shared: the fleet flamegraph reads while the job runs.
		p.Share()
		for _, im := range j.m.Images() {
			p.AddImage(im)
		}
		obs.Profiler = p
		j.prof.Store(p)
	}
	var tr *trace.Tracer
	if j.spec.Trace {
		tr = trace.NewTracer(0)
		obs.Tracer = tr
	}
	if k := j.m.Kernel(); k != nil {
		obs.AttachMachine(k)
	} else {
		obs.Attach(j.m.CPU())
	}
	if tr != nil && s.cfg.Tracers != nil {
		s.cfg.Tracers.AddTracer(j.ID, tr)
	}
}

// finishLocked moves a job to a terminal state; j.mu is held. The
// finished stamp comes first, so the encoding below adds nothing to the
// job's latency. The terminal record takes the output, snapshot and JIT
// sites, and the job drops its machine before anyone can see it done.
func (s *Service) finishLocked(j *Job, state JobState, err error) {
	r := &jobRecord{state: state, err: err, started: j.rec.Load().started, finished: time.Now()}
	j.state = state
	switch state {
	case JobDone:
		inc(s.mCompleted)
	case JobFailed:
		inc(s.mFailed)
	case JobCancelled:
		inc(s.mCancelled)
	}
	if j.spec.Template != "" && j.m != nil && s.mCOWFaults != nil {
		s.mCOWFaults.Add(j.m.COWStats().Faults)
	}
	if j.spec.Trace && s.cfg.Tracers != nil {
		// Terminal jobs emit no more events; stop offering them as
		// sampled-SSE sources (clients already tailing drain normally).
		s.cfg.Tracers.RemoveTracer(j.ID)
	}
	if fn := s.cfg.OnJobTerminal; fn != nil {
		fn(s.sampleLocked(j, r))
	}
	if j.m != nil {
		r.built = true
		r.output = j.m.Output()
		r.snapshot, r.snapshotErr = j.m.SnapshotBytes()
		if s.cfg.JIT != nil {
			sites := trace.CollectJITSites(j.m.CPU(), j.prof.Load())
			r.sites = &sites
		}
	}
	j.rec.Store(r)
	j.m = nil
	s.retire(j)
	close(j.done)
}

// retire takes a terminal job out of the admission count and adds it
// to the history of finished jobs, evicting the earliest finished
// beyond QueueDepth.
func (s *Service) retire(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	s.tenantActive[j.spec.Tenant]--
	if s.tenantActive[j.spec.Tenant] <= 0 {
		delete(s.tenantActive, j.spec.Tenant)
	}
	s.finished = append(s.finished, j)
	for len(s.finished) > s.cfg.QueueDepth {
		old := s.finished[0]
		s.finished[0] = nil // the backing array must not keep it alive
		s.finished = s.finished[1:]
		delete(s.jobs, old.ID)
		i, _ := slices.BinarySearchFunc(s.order, old.seq, bySeq)
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// sampleLocked captures the job's fleet-rollup sample from its
// terminal record r; j.mu is held and the machine is still attached,
// so every field is final.
func (s *Service) sampleLocked(j *Job, r *jobRecord) JobSample {
	instructions := j.instructions.Load()
	sample := JobSample{
		Tenant:         j.spec.Tenant,
		Name:           j.Name,
		Engine:         "none",
		Outcome:        r.state.String(),
		LatencySeconds: r.finished.Sub(j.created).Seconds(),
		Instructions:   instructions,
		Preempts:       j.quanta.Load(),
	}
	if !j.admitted.IsZero() {
		sample.AdmissionSeconds = j.admitted.Sub(j.created).Seconds()
	}
	if !r.started.IsZero() {
		if run := r.finished.Sub(r.started).Seconds(); run > 0 {
			sample.InstrsPerSec = float64(instructions) / run
		}
	}
	if j.m != nil {
		sample.Engine = j.m.Engine().String()
		ts := j.m.Trans()
		sample.Counters = map[string]uint64{
			"xlate.block_hits":               ts.BlockHits,
			"xlate.block_chained":            ts.BlockChained,
			"xlate.block_translations":       ts.BlockTranslations,
			"xlate.block_invalidations":      ts.BlockInvalidations,
			"xlate.block_bails":              ts.BlockBails,
			"xlate.trace.formed":             ts.TraceFormed,
			"xlate.trace.compiled":           ts.TraceCompiled,
			"xlate.trace.guard_exits":        ts.TraceGuardExits,
			"xlate.trace.invalidations":      ts.TraceInvalidations,
			"xlate.trace.dispatch_hits":      ts.TraceDispatchHits,
			"xlate.trace.poisoned":           ts.TracePoisoned,
			"xlate.block_adoptions":          ts.BlockAdoptions,
			"xlate.trace.adopted":            ts.TraceAdoptions,
			"xlate.trace.deopt.environment":  ts.TraceDeoptEnvironment,
			"xlate.trace.deopt.interrupt":    ts.TraceDeoptInterrupt,
			"xlate.trace.deopt.chain_budget": ts.TraceDeoptChainBudget,
		}
		for r := cpu.DeoptReason(0); r < cpu.NumDeoptReasons; r++ {
			sample.Counters["xlate.trace.guard_exits."+r.String()] = ts.TraceDeopts[r]
		}
		for r := cpu.FormRefusal(0); r < cpu.NumFormRefusals; r++ {
			sample.Counters["xlate.trace.refuse."+r.String()] = ts.TraceFormRefusals[r]
		}
		for tier := cpu.Tier(0); tier < cpu.NumTiers; tier++ {
			sample.Counters["xlate.tier."+tier.String()] = ts.TierInstrs[tier]
		}
		if j.spec.Template != "" {
			sample.Counters["jobs.cow_faults"] = j.m.COWStats().Faults
		}
	}
	return sample
}

// JITSites snapshots the job's trace/block caches — the per-PC tier
// heatmap — symbolized against its profiler when one is attached. A
// running job's are read at a quantum boundary, so the machine is idle
// for the read. A finished job answers
// with the sites collected as it finished, which it keeps only when the
// service has a JIT log (ServiceConfig.JIT).
func (j *Job) JITSites() (trace.JITSites, bool) {
	var sites trace.JITSites
	r, err := j.withMachine(func(m *Machine) { sites = trace.CollectJITSites(m.CPU(), j.prof.Load()) })
	switch {
	case err != nil:
		return sites, false
	case r == nil:
		return sites, true
	case r.sites != nil:
		return *r.sites, true
	}
	return sites, false
}

// withMachine calls fn with a running job's machine at a quantum
// boundary and returns a nil record. Once the job has finished it
// returns the terminal record instead, without taking j.mu. It returns
// errNotStarted for a job without a machine, before or after the
// terminal state.
func (j *Job) withMachine(fn func(*Machine)) (*jobRecord, error) {
	r := j.rec.Load()
	if !r.state.terminal() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if r = j.rec.Load(); !r.state.terminal() { // else it finished while we waited
			if j.m == nil {
				return nil, errNotStarted
			}
			fn(j.m)
			return nil, nil
		}
	}
	if !r.built {
		return nil, errNotStarted
	}
	return r, nil
}

// FleetJITSites collects every built job's tier heatmap, keyed
// "id/name", for the telemetry server's /jit/traces endpoint.
func (s *Service) FleetJITSites() map[string]trace.JITSites {
	out := make(map[string]trace.JITSites)
	for _, j := range s.Jobs() {
		if sites, ok := j.JITSites(); ok {
			out[j.ID+"/"+j.Name] = sites
		}
	}
	return out
}

// TenantActive returns the number of unfinished jobs per tenant.
func (s *Service) TenantActive() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.tenantActive))
	for t, n := range s.tenantActive {
		if n > 0 {
			out[t] = uint64(n)
		}
	}
	return out
}

// FleetFolded merges the folded profiles of every profiled job —
// running or terminal — into one stack -> cycles map. Profilers are
// shared, so this never waits out a quantum.
func (s *Service) FleetFolded() map[string]uint64 {
	out := make(map[string]uint64)
	for _, j := range s.Jobs() {
		for stack, n := range j.FoldedProfile() {
			out[stack] += n
		}
	}
	return out
}

// Profiler returns the job's profiler, or nil if the job was not
// submitted with Profile or has not built its machine yet. It does not
// take the job mutex, so it is safe mid-quantum.
func (j *Job) Profiler() *trace.Profiler { return j.prof.Load() }

// FoldedProfile returns the job's folded cycle-attribution stacks, or
// nil for unprofiled jobs. Safe mid-quantum: the profiler is shared.
func (j *Job) FoldedProfile() map[string]uint64 {
	p := j.prof.Load()
	if p == nil {
		return nil
	}
	return p.Folded()
}

// Wait blocks until the job reaches a terminal state or the context
// expires, returning the job's error.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.rec.Load().err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status is a point-in-time view of a job.
type Status struct {
	ID           string        `json:"id"`
	Name         string        `json:"name,omitempty"`
	Tenant       string        `json:"tenant,omitempty"`
	Template     string        `json:"template,omitempty"`
	State        string        `json:"state"`
	Instructions uint64        `json:"instructions"`
	Steps        uint64        `json:"steps"`
	Quanta       uint64        `json:"quanta"`
	MaxSteps     uint64        `json:"max_steps"`
	Error        string        `json:"error,omitempty"`
	Output       string        `json:"output,omitempty"`
	Created      time.Time     `json:"created"`
	Started      time.Time     `json:"started"`
	Finished     time.Time     `json:"finished"`
	Elapsed      time.Duration `json:"-"`
}

// Status reports the job's current state from its published record; it
// never waits for the worker. Output is included only for terminal jobs
// (use Snapshot to inspect a running one).
func (j *Job) Status() Status {
	r := j.rec.Load()
	st := Status{
		ID:           j.ID,
		Name:         j.Name,
		Tenant:       j.spec.Tenant,
		Template:     j.spec.Template,
		State:        r.state.String(),
		Instructions: j.instructions.Load(),
		Steps:        j.steps.Load(),
		Quanta:       j.quanta.Load(),
		MaxSteps:     j.maxSteps,
		Created:      j.created,
		Started:      r.started,
		Finished:     r.finished,
	}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	if r.built {
		st.Output = r.output
		st.Elapsed = r.finished.Sub(r.started)
	}
	return st
}

// Output returns the job's console output so far: a running job's at a
// quantum boundary, a finished job's from its record.
func (j *Job) Output() (string, error) {
	var out string
	r, err := j.withMachine(func(m *Machine) { out = m.Output() })
	if r != nil {
		out = r.output
	}
	return out, err
}

// Snapshot checkpoints the job's machine. Safe at any time: a running
// job is captured at a quantum boundary, so always at an instruction
// boundary. A finished job returns the snapshot of its final state,
// encoded as it finished, shared: callers must not modify it. A queued
// job that has not built its machine yet cannot be snapshotted.
func (j *Job) Snapshot() ([]byte, error) {
	var snap []byte
	var encodeErr error
	r, err := j.withMachine(func(m *Machine) { snap, encodeErr = m.SnapshotBytes() })
	switch {
	case err != nil:
		return nil, err
	case r != nil:
		return r.snapshot, r.snapshotErr
	}
	return snap, encodeErr
}
