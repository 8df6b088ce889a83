package sim

// The zero-overhead contract, pinned: with no telemetry attached — no
// metrics registry, no terminal-sample callback, no tracer directory,
// no profiler — the job hot path (one whole scheduling quantum)
// performs zero heap allocations. The fleet observability layer is
// strictly pay-for-what-you-observe, and this test is what keeps it
// that way. An internal-package test so it can drive runQuantum
// directly, with no worker goroutines muddying the measurement.

import (
	"testing"
	"time"

	"mips/internal/asm"
	"mips/internal/reorg"
)

// newQuietSpinJob builds a service with every telemetry hook absent and
// one never-halting job whose machine is already built, so each
// runQuantum call is purely the steady-state hot path.
func newQuietSpinJob(tb testing.TB, quantum uint64) (*Service, *Job) {
	tb.Helper()
	// Text at 16, codegen.BareTextBase: word 0 holds the monitor's rfe.
	u, err := asm.Parse("\t.text 16\n\t.entry main\nmain:\tjmp main\n")
	if err != nil {
		tb.Fatal(err)
	}
	ro, _ := reorg.Reorganize(u, reorg.All())
	im, err := asm.Assemble(ro)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New()
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		tb.Fatal(err)
	}
	// No NewService: workers would race us for the job. The struct is
	// assembled by hand exactly as Submit would leave it.
	s := &Service{
		cfg:          ServiceConfig{Quantum: quantum, DefaultMaxSteps: 1 << 62},
		jobs:         make(map[string]*Job),
		tenantActive: map[string]int{DefaultTenant: 1},
		ready:        make(chan *Job, 1),
		stop:         make(chan struct{}),
	}
	j := &Job{
		ID:       "bench-1",
		Name:     "spin",
		svc:      s,
		spec:     JobSpec{Tenant: DefaultTenant},
		state:    JobQueued,
		m:        m,
		maxSteps: 1 << 62,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.active = 1
	return s, j
}

func TestJobServiceNoTelemetryZeroAlloc(t *testing.T) {
	s, j := newQuietSpinJob(t, 10_000)
	// One warm-up quantum takes the job through its JobQueued →
	// JobRunning transition and any lazy engine state.
	if !s.runQuantum(j) {
		t.Fatal("spin job finished unexpectedly")
	}
	hits := j.m.Trans().TraceDispatchHits
	allocs := testing.AllocsPerRun(20, func() {
		if !s.runQuantum(j) {
			t.Fatal("spin job finished unexpectedly")
		}
	})
	if allocs != 0 {
		t.Fatalf("job hot path allocated %.1f times per quantum with no telemetry attached; want 0", allocs)
	}
	if j.m.Trans().TraceDispatchHits == hits {
		t.Fatal("the measured quanta dispatched no compiled trace")
	}
}

// BenchmarkJobServiceNoTelemetry is the bench-gate twin of the test
// above: allocs/op must stay 0 and ns/op tracks the scheduling quantum
// overhead on top of raw execution.
func BenchmarkJobServiceNoTelemetry(b *testing.B) {
	s, j := newQuietSpinJob(b, 10_000)
	if !s.runQuantum(j) {
		b.Fatal("spin job finished unexpectedly")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.runQuantum(j) {
			b.Fatal("spin job finished unexpectedly")
		}
	}
}
