package tables

import (
	"sync/atomic"
	"testing"

	"mips/internal/sim"
)

// fakeExps builds cheap experiments whose tables record their own index,
// so ordering bugs are visible without running real simulations.
func fakeExps(n int) []Experiment {
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		name := string(rune('a' + i))
		exps[i] = Experiment{Name: name, Run: func() (*Table, error) {
			return &Table{ID: name, Rows: [][]string{{name}}}, nil
		}}
	}
	return exps
}

func TestRunAllPreservesOrder(t *testing.T) {
	exps := fakeExps(11)
	for _, workers := range []int{0, 1, 3, 64} {
		results := RunAll(exps, workers)
		if len(results) != len(exps) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(exps))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, r.Name, r.Err)
			}
			if r.Name != exps[i].Name || r.Table.ID != exps[i].Name {
				t.Errorf("workers=%d: slot %d holds %s, want %s", workers, i, r.Name, exps[i].Name)
			}
		}
	}
}

func TestRunAllRunsEachOnce(t *testing.T) {
	const n = 40
	var counts [n]int32
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{Name: "e", Run: func() (*Table, error) {
			atomic.AddInt32(&counts[i], 1)
			return &Table{}, nil
		}}
	}
	RunAll(exps, 7)
	for i, c := range counts {
		if c != 1 {
			t.Errorf("experiment %d ran %d times", i, c)
		}
	}
}

// TestRunAllDeterministic regenerates a slice of the real evaluation at
// several worker counts and asserts the rendered output is identical —
// the property cmd/paperbench -j relies on.
func TestRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	var exps []Experiment
	for _, e := range All() {
		switch e.Name {
		case "table1", "table2", "freecycles":
			exps = append(exps, e)
		}
	}
	render := func(results []Result) string {
		var out string
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Name, r.Err)
			}
			out += r.Table.Render()
		}
		return out
	}
	serial := render(RunAll(exps, 1))
	parallel := render(RunAll(exps, 0))
	if serial != parallel {
		t.Error("parallel run rendered differently from serial run")
	}
}

func TestCoreBenchRunMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus twice")
	}
	serial, err := CoreBenchRun(1, sim.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CoreBenchRun(0, sim.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("entry counts differ: %d vs %d", len(serial), len(parallel))
	}
	for name, se := range serial {
		pe, ok := parallel[name]
		if !ok {
			t.Errorf("%s missing from parallel run", name)
			continue
		}
		if se.NopFraction != pe.NopFraction ||
			se.FreeBandwidthFraction != pe.FreeBandwidthFraction {
			t.Errorf("%s: derived ratios differ between serial and parallel", name)
		}
		for k, v := range se.Metrics {
			if pe.Metrics[k] != v {
				t.Errorf("%s: metric %s = %d serial vs %d parallel", name, k, v, pe.Metrics[k])
			}
		}
	}
}
