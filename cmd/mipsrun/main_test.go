package main

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/telemetry"
	"mips/internal/trace"
)

// TestLiveSitesBetweenQuanta reads the machine's trace and block sites,
// as /jit/traces does, in a loop while the run loop runs queens on the
// trace tier. Under go test -race any read that overlapped a quantum
// would report the CPU's plain writes to the site counters and the
// block table. The reader watches from before the run starts until it
// has landed once mid-run, so it does not depend on when the host
// schedules it, and the run must end exactly as one Machine.Run call
// would.
func TestLiveSitesBetweenQuanta(t *testing.T) {
	p, err := corpus.Get("queens")
	if err != nil {
		t.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		t.Fatal(err)
	}
	newMachine := func() *sim.Machine {
		m, err := sim.New(sim.WithEngine(sim.Traces))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(im); err != nil {
			t.Fatal(err)
		}
		return m
	}

	var live liveMachine
	live.set(newMachine())
	var done atomic.Bool
	midRun := make(chan int, 1)
	stop := live.watch()
	go func() {
		n := 0
		for !done.Load() {
			if s := live.sites(nil); len(s.Traces) > 0 && !done.Load() {
				if n++; n == 1 {
					stop()
				}
			}
		}
		midRun <- n
	}()
	err = live.run(50_000_000, 1000)
	done.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-midRun; n == 0 {
		t.Error("no read saw a compiled trace while the run loop ran")
	}

	ref := newMachine()
	if _, err := ref.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if got, want := live.m.Output(), ref.Output(); got != want {
		t.Errorf("output %q, want %q", got, want)
	}
	if got, want := *live.m.Stats(), *ref.Stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if s := live.sites(nil); len(s.Traces) == 0 || s.Tiers["traces"] == 0 {
		t.Errorf("final sites hold no trace: %+v", s)
	}
}

// tracesRetired matches the trace tier's residency line of /metrics.
var tracesRetired = regexp.MustCompile(`(?m)^xlate_tier_traces (\d+)$`)

// TestLiveMetricsBetweenQuanta renders /metrics and /status, as a
// scraper of mipsrun -serve does, in a loop while the run loop runs
// queens on the trace tier in small quanta. The machine's counters
// register into the served registry and the CPU writes them plainly, so
// under go test -race a sample that overlapped a quantum would report a
// race. A scrape must see the trace tier mid-run (the scraper watches
// from before the run starts until it has), and the last one the run's
// final count.
func TestLiveMetricsBetweenQuanta(t *testing.T) {
	p, err := corpus.Get("queens")
	if err != nil {
		t.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		t.Fatal(err)
	}
	registry := trace.NewRegistry()
	var live liveMachine
	srv := live.server(telemetry.Config{Program: "mipsrun", Engine: "traces"}, registry)
	m, err := sim.New(sim.WithEngine(sim.Traces), sim.WithTelemetry(registry))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	live.set(m)
	scrape := func(path string) string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	retired := func(body string) uint64 {
		mm := tracesRetired.FindStringSubmatch(body)
		if mm == nil {
			return 0
		}
		n, _ := strconv.ParseUint(mm[1], 10, 64)
		return n
	}

	var done atomic.Bool
	midRun := make(chan int, 1)
	stop := live.watch()
	go func() {
		n := 0
		for !done.Load() {
			scrape("/status")
			if retired(scrape("/metrics")) > 0 && !done.Load() {
				if n++; n == 1 {
					stop()
				}
			}
		}
		midRun <- n
	}()
	err = live.run(50_000_000, 1000)
	done.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-midRun; n == 0 {
		t.Error("no scrape saw the trace tier retire an instruction while the run loop ran")
	}
	if got, want := retired(scrape("/metrics")), m.Trans().TierInstrs[cpu.TierTraces]; got == 0 || got != want {
		t.Errorf("final scrape: %d instructions on the trace tier, want %d", got, want)
	}
}

// TestLiveRunStepLimit: a run that does not halt within its steps fails
// as Machine.Run does, whatever the quantum.
func TestLiveRunStepLimit(t *testing.T) {
	p, err := corpus.Get("fib")
	if err != nil {
		t.Fatal(err)
	}
	im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, quantum := range []uint64{7, 1000, 5000} {
		var live liveMachine
		m, err := sim.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(im); err != nil {
			t.Fatal(err)
		}
		ref, err := sim.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Load(im); err != nil {
			t.Fatal(err)
		}
		live.set(m)
		got := live.run(5000, quantum)
		_, want := ref.Run(5000)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("quantum %d: error %v, want %v", quantum, got, want)
		}
		if m.Stats().Instructions != ref.Stats().Instructions {
			t.Errorf("quantum %d: %d instructions, want %d", quantum, m.Stats().Instructions, ref.Stats().Instructions)
		}
	}
}
