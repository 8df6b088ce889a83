package tables

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mips/internal/sim"
	"mips/internal/trace"
)

func benchFixture(cycles uint64) map[string]CoreBenchEntry {
	return map[string]CoreBenchEntry{
		"fib": {
			Metrics:               trace.Snapshot{"cpu.cycles": cycles, "cpu.instructions": cycles - 5},
			NopFraction:           0.20,
			FreeBandwidthFraction: 0.40,
		},
		"puzzle0": {
			Metrics:               trace.Snapshot{"cpu.cycles": 1000, "cpu.instructions": 995},
			NopFraction:           0.10,
			FreeBandwidthFraction: 0.35,
		},
	}
}

// TestBenchDiffIdentical is half of the acceptance criterion: identical
// artifacts produce zero regressions.
func TestBenchDiffIdentical(t *testing.T) {
	old := benchFixture(50000)
	deltas := DiffCoreBench(old, benchFixture(50000))
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	for _, d := range deltas {
		if d.CyclesPct != 0 || d.OnlyOld || d.OnlyNew {
			t.Errorf("identical inputs produced delta %+v", d)
		}
	}
	if bad := Regressions(deltas, 2.0); len(bad) != 0 {
		t.Fatalf("identical inputs flagged regressions: %v", bad)
	}
}

// TestBenchDiffTenPercentRegression is the other half: a synthetic 10%
// cycle regression must trip a 2% gate.
func TestBenchDiffTenPercentRegression(t *testing.T) {
	old := benchFixture(50000)
	cur := benchFixture(55000) // fib +10%
	deltas := DiffCoreBench(old, cur)
	bad := Regressions(deltas, 2.0)
	if len(bad) != 1 || bad[0].Name != "fib" {
		t.Fatalf("regressions = %+v, want exactly fib", bad)
	}
	if bad[0].CyclesPct < 9.9 || bad[0].CyclesPct > 10.1 {
		t.Errorf("fib delta = %.2f%%, want ~10%%", bad[0].CyclesPct)
	}
	// A 10% regression passes a 15% gate.
	if loose := Regressions(deltas, 15.0); len(loose) != 0 {
		t.Errorf("10%% regression tripped a 15%% gate: %v", loose)
	}
	// Improvements never trip the gate.
	if better := Regressions(DiffCoreBench(old, benchFixture(45000)), 2.0); len(better) != 0 {
		t.Errorf("improvement flagged as regression: %v", better)
	}
}

func TestBenchDiffMissingAndNew(t *testing.T) {
	old := benchFixture(50000)
	cur := benchFixture(50000)
	delete(cur, "puzzle0")
	cur["fresh"] = CoreBenchEntry{Metrics: trace.Snapshot{"cpu.cycles": 10}}
	deltas := DiffCoreBench(old, cur)
	bad := Regressions(deltas, 2.0)
	if len(bad) != 1 || bad[0].Name != "puzzle0" || !bad[0].OnlyOld {
		t.Fatalf("regressions = %+v, want puzzle0 missing", bad)
	}
	table := BenchDiffTable(deltas, 2.0).Render()
	if !strings.Contains(table, "MISSING") || !strings.Contains(table, "new") {
		t.Errorf("rendered table lacks MISSING/new verdicts:\n%s", table)
	}
}

// TestBenchDiffNewMetricKeysInformational pins the contract the trace
// tier relies on: an artifact that grows new metric keys (the
// xlate.trace.* counter family) against an older baseline is surfaced
// in the delta but never trips the gate.
func TestBenchDiffNewMetricKeysInformational(t *testing.T) {
	old := benchFixture(50000)
	cur := benchFixture(50000)
	fib := cur["fib"]
	fib.Metrics = trace.Snapshot{
		"cpu.cycles":                50000,
		"cpu.instructions":          49995,
		"xlate.trace.formed":        3,
		"xlate.trace.compiled":      3,
		"xlate.trace.dispatch_hits": 812,
	}
	cur["fib"] = fib
	deltas := DiffCoreBench(old, cur)
	if bad := Regressions(deltas, 2.0); len(bad) != 0 {
		t.Fatalf("new metric keys flagged as regression: %+v", bad)
	}
	var fd *BenchDelta
	for i := range deltas {
		if deltas[i].Name == "fib" {
			fd = &deltas[i]
		}
	}
	want := []string{"xlate.trace.compiled", "xlate.trace.dispatch_hits", "xlate.trace.formed"}
	if fd == nil || len(fd.NewMetricKeys) != len(want) {
		t.Fatalf("fib delta = %+v, want new keys %v", fd, want)
	}
	for i, k := range want {
		if fd.NewMetricKeys[i] != k {
			t.Errorf("NewMetricKeys[%d] = %q, want %q", i, fd.NewMetricKeys[i], k)
		}
	}
	if table := BenchDiffTable(deltas, 2.0).Render(); !strings.Contains(table, "(+3 metrics)") {
		t.Errorf("rendered table lacks informational metric note:\n%s", table)
	}
}

// TestBenchDiffJobsKeysInformational pins the same contract for the
// warm-fork admission counters: jobs.* keys appearing in an entry (or a
// whole new "admission" entry) against an older baseline are surfaced
// informationally and never trip the gate.
func TestBenchDiffJobsKeysInformational(t *testing.T) {
	old := benchFixture(50000)
	cur := benchFixture(50000)
	fib := cur["fib"]
	fib.Metrics = trace.Snapshot{
		"cpu.cycles":             50000,
		"cpu.instructions":       49995,
		"jobs.template_forks":    1,
		"jobs.cow_faults":        12,
		"jobs.cow_private_pages": 12,
	}
	cur["fib"] = fib
	cur["admission"] = CoreBenchEntry{Metrics: trace.Snapshot{
		"cpu.cycles":      50000,
		"jobs.cow_faults": 12,
	}}
	deltas := DiffCoreBench(old, cur)
	if bad := Regressions(deltas, 2.0); len(bad) != 0 {
		t.Fatalf("jobs.* keys flagged as regression: %+v", bad)
	}
	var fd *BenchDelta
	for i := range deltas {
		if deltas[i].Name == "fib" {
			fd = &deltas[i]
		}
	}
	want := []string{"jobs.cow_faults", "jobs.cow_private_pages", "jobs.template_forks"}
	if fd == nil || len(fd.NewMetricKeys) != len(want) {
		t.Fatalf("fib delta = %+v, want new keys %v", fd, want)
	}
	for i, k := range want {
		if fd.NewMetricKeys[i] != k {
			t.Errorf("NewMetricKeys[%d] = %q, want %q", i, fd.NewMetricKeys[i], k)
		}
	}
	if table := BenchDiffTable(deltas, 2.0).Render(); !strings.Contains(table, "(+3 metrics)") {
		t.Errorf("rendered table lacks informational metric note:\n%s", table)
	}
}

// TestBenchDiffResidencySections pins the informational tier-residency
// and deopt-reason comparison: shares computed against cpu.instructions
// per artifact, reasons unioned across both sides, nothing gated, and
// benchmarks without tier accounting skipped entirely.
func TestBenchDiffResidencySections(t *testing.T) {
	old := benchFixture(50000)
	cur := benchFixture(50000)
	fib := old["fib"]
	fib.Metrics = trace.Snapshot{
		"cpu.cycles":        50000,
		"cpu.instructions":  40000,
		"xlate.tier.blocks": 30000,
		"xlate.tier.traces": 10000,
		"xlate.trace.guard_exits.branch_direction": 900,
	}
	old["fib"] = fib
	fib = cur["fib"]
	fib.Metrics = trace.Snapshot{
		"cpu.cycles":        50000,
		"cpu.instructions":  40000,
		"xlate.tier.blocks": 8000,
		"xlate.tier.traces": 32000,
		"xlate.trace.guard_exits.branch_direction": 90,
		"xlate.trace.guard_exits.indirect_target":  12,
	}
	cur["fib"] = fib

	res := DiffResidency(old, cur)
	if len(res) != 1 || res[0].Name != "fib" {
		t.Fatalf("residency deltas = %+v, want exactly fib (puzzle0 has no tier counters)", res)
	}
	d := res[0]
	if got := d.OldTiers["blocks"]; got != 0.75 {
		t.Errorf("old blocks share = %v, want 0.75", got)
	}
	if got := d.NewTiers["traces"]; got != 0.80 {
		t.Errorf("new traces share = %v, want 0.80", got)
	}
	want := []DeoptDelta{
		{Reason: "branch_direction", Old: 900, New: 90},
		{Reason: "indirect_target", Old: 0, New: 12},
	}
	if len(d.Deopts) != len(want) {
		t.Fatalf("deopt deltas = %+v, want %+v", d.Deopts, want)
	}
	for i := range want {
		if d.Deopts[i] != want[i] {
			t.Errorf("Deopts[%d] = %+v, want %+v", i, d.Deopts[i], want[i])
		}
	}
	// Residency shifts and deopt-mix changes never trip the gate.
	if bad := Regressions(DiffCoreBench(old, cur), 2.0); len(bad) != 0 {
		t.Errorf("informational sections flagged as regression: %+v", bad)
	}
	rt := BenchResidencyTable(res).Render()
	for _, s := range []string{"fib", "blocks", "traces", "+55.0pp", "-55.0pp"} {
		if !strings.Contains(rt, s) {
			t.Errorf("residency table lacks %q:\n%s", s, rt)
		}
	}
	dt := BenchDeoptTable(res).Render()
	for _, s := range []string{"branch_direction", "-810", "indirect_target", "+12"} {
		if !strings.Contains(dt, s) {
			t.Errorf("deopt table lacks %q:\n%s", s, dt)
		}
	}
	// Artifacts with no tier accounting anywhere render nothing.
	if BenchResidencyTable(nil) != nil || BenchDeoptTable(nil) != nil {
		t.Error("empty residency input rendered a table")
	}
}

// TestBenchDiffRoundTripsArtifact pins that the reader consumes exactly
// what WriteCoreBench produces.
func TestBenchDiffRoundTripsArtifact(t *testing.T) {
	old := benchFixture(50000)
	var buf bytes.Buffer
	if err := WriteCoreBench(&buf, old); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCoreBenchFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	deltas := DiffCoreBench(old, got)
	for _, d := range deltas {
		if d.CyclesPct != 0 || d.OnlyOld || d.OnlyNew {
			t.Errorf("artifact round trip produced delta %+v", d)
		}
	}
}

// TestCoreBenchRunSink checks the telemetry hook: every
// non-heavy corpus program's registry reaches the sink exactly once,
// and the sink sees the same registry the entry was sampled from.
func TestCoreBenchRunSink(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full corpus")
	}
	var mu sync.Mutex
	regs := map[string]*trace.Registry{}
	bench, err := CoreBenchRun(2, sim.Default, func(name string, reg *trace.Registry) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := regs[name]; dup {
			t.Errorf("sink called twice for %s", name)
		}
		regs[name] = reg
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != len(bench) {
		t.Fatalf("sink saw %d registries, bench has %d entries", len(regs), len(bench))
	}
	for name, entry := range bench {
		reg := regs[name]
		if reg == nil {
			t.Errorf("no registry for %s", name)
			continue
		}
		if got := reg.Snapshot()["cpu.cycles"]; got != entry.Metrics["cpu.cycles"] {
			t.Errorf("%s: sink registry cycles %d, entry %d", name, got, entry.Metrics["cpu.cycles"])
		}
	}
}
