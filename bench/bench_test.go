package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"mips/internal/sim"
	"mips/internal/tables"
)

// testReps keeps the layer probes short in tests; every metric is
// still produced.
const testReps = 1

// TestPaperGoldenAllEngines renders the whole evaluation on every
// engine and requires each rendering to equal the golden file byte for
// byte.
func TestPaperGoldenAllEngines(t *testing.T) {
	t.Cleanup(func() { sim.SetDefault(sim.Traces) })
	for _, e := range []sim.Engine{sim.Reference, sim.FastPath, sim.Blocks, sim.Traces} {
		results := tables.RunAllWith(tables.All(), 1, e, nil)
		bench, err := tables.CoreBenchRun(1, e, nil)
		if err != nil {
			t.Fatalf("%s: corebench: %v", e, err)
		}
		out, err := renderEvaluation(results, bench)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if out != paperGolden {
			t.Errorf("%s: evaluation differs from testdata/paper.golden", e)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult requires a clean run that emits exactly the listed
// metrics, each with its unit and a finite value.
func checkResult(t *testing.T, workload string, res result, want []specMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", workload, len(res.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, w.Name)
		case got.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, w.Name, got.Unit, w.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, w.Name, got.Value)
		}
	}
	for name := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", workload, name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for about a second, and the
// traced run of one, and checks each emits the metrics BENCHMARK.json
// lists with no failed operation.
func TestWorkloadsSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // mipsd is built here
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	byName := map[string]workload{}
	for _, w := range workloads {
		byName[w.name] = w
	}
	for _, sw := range spec.Workloads {
		w, ok := byName[sw.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", sw.Name)
			continue
		}
		res, err := w.run(runConfig{seed: 1, seconds: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, w.name, res, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}

	cfg := runConfig{seed: 1, seconds: time.Second, rec: newRecorder()}
	res, err := runTraced(byName["corpus-short"], cfg, testReps)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	checkResult(t, "corpus-short (traced)", res, spec.PerLayer)
	spans := filepath.Join(t.TempDir(), "spans.json")
	if err := cfg.rec.writeChrome(spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("spans file: %v", err)
	}
	layers := map[string]bool{}
	for _, e := range trace.TraceEvents {
		layers[e.Cat] = true
	}
	for _, l := range []string{"lang", "codegen", "reorg", "asm", "cpu", "mem", "kernel", "sim", "tables", "http"} {
		if !layers[l] {
			t.Errorf("no span of layer %s in the trace", l)
		}
	}
}

// countMetrics are the per-layer metrics read from the layers' counters
// rather than from a clock. Only these may back a claim that rests on a
// count, so they must repeat exactly.
var countMetrics = []string{
	"cpu.tier_share.fast.short", "cpu.tier_share.blocks.short", "cpu.tier_share.traces.short",
	"cpu.tier_share.fast.long", "cpu.tier_share.blocks.long", "cpu.tier_share.traces.long",
	"cpu.guard_exits_per_kinstr.short", "cpu.guard_exits_per_kinstr.long",
	"cpu.traces_formed.short", "cpu.traces_formed.long", "cpu.deopt_chain_budget.long",
	"kernel.tier_share.blocks", "kernel.page_faults", "kernel.ctxswitches",
	"mem.cow_faults_per_job", "sim.preempts_per_job",
	"sim.snapshot_kb.bare", "sim.snapshot_kb.kernel",
}

// TestLayerCountsDeterministic makes two traced runs of the layer
// probes with one seed and requires identical counts.
func TestLayerCountsDeterministic(t *testing.T) {
	var runs [2]metrics
	for i := range runs {
		m, err := probeLayers(testReps, 7, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = m
	}
	for _, name := range countMetrics {
		a, ok := runs[0][name]
		if !ok {
			t.Errorf("%s not reported", name)
			continue
		}
		if b := runs[1][name]; a != b {
			t.Errorf("%s: %v, then %v", name, a.Value, b.Value)
		}
	}
}

// TestScheduleSeeded checks that the seed only orders the jobs: the
// same seed repeats the sequence, another seed permutes it, and the
// count of each class of job stays fixed.
func TestScheduleSeeded(t *testing.T) {
	const rounds = 40
	names := func(seed int64) []string {
		var out []string
		for _, c := range schedule(seed, rounds*len(jobClasses)) {
			out = append(out, c.name)
		}
		return out
	}
	counts := func(xs []string) map[string]int {
		m := map[string]int{}
		for _, x := range xs {
			m[x]++
		}
		return m
	}
	a, b, c := names(1), names(1), names(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if !reflect.DeepEqual(counts(a), counts(c)) {
		t.Errorf("per-class counts differ: %v vs %v", counts(a), counts(c))
	}
	for _, class := range jobClasses {
		if got := counts(a)[class.name]; got != rounds {
			t.Errorf("%s: %d jobs in %d rounds, want %d", class.name, got, rounds, rounds)
		}
	}
}
