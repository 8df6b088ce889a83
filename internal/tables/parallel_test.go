package tables

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mips/internal/cpu"
	"mips/internal/sim"
)

// fakeExps builds cheap experiments whose tables record their own index,
// so ordering bugs are visible without running real simulations.
func fakeExps(n int) []Experiment {
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		name := string(rune('a' + i))
		exps[i] = Experiment{Name: name, run: func(*pass) (*Table, error) {
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
		exps[i] = Experiment{Name: "e", run: func(*pass) (*Table, error) {
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

// TestRunAllDeterministic regenerates the whole evaluation at several
// worker counts and asserts the rendered output is identical — the
// property cmd/paperbench -j relies on — and that every table equals
// the one its experiment renders alone, on a pass of its own: sharing
// artifacts across experiments changes no byte.
func TestRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	exps := All()
	alone := make([]string, len(exps))
	for i, e := range exps {
		tab, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		alone[i] = tab.Render()
	}
	for _, workers := range []int{1, 0, 4} {
		for i, r := range RunAll(exps, workers) {
			if r.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, r.Name, r.Err)
			}
			if got := r.Table.Render(); got != alone[i] {
				t.Errorf("workers=%d: %s rendered differently from its run alone:\n%s\nwant:\n%s",
					workers, r.Name, got, alone[i])
			}
		}
	}
}

// TestShareComputesOncePerKey asks for a few keys from many goroutines
// at once: each key is computed by one asker, the rest wait for its
// value, and an error is kept like a value.
func TestShareComputesOncePerKey(t *testing.T) {
	var mu sync.Mutex
	m := map[int]*memo[int]{}
	var calls [4]atomic.Int32
	errOdd := errors.New("odd key")
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % len(calls)
			v, err := share(&mu, m, k, func() (int, error) {
				calls[k].Add(1)
				if k%2 == 1 {
					return 0, errOdd
				}
				return 10 * k, nil
			})
			if k%2 == 1 && err != errOdd || k%2 == 0 && (err != nil || v != 10*k) {
				t.Errorf("key %d: got (%d, %v)", k, v, err)
			}
		}(g)
	}
	wg.Wait()
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want once", k, n)
		}
	}
}

// passProbe is an experiment that hands its test the pass it ran on.
func passProbe(got **pass) Experiment {
	return Experiment{Name: "probe", run: func(p *pass) (*Table, error) {
		*got = p
		return &Table{}, nil
	}}
}

// TestPassComputesEachArtifactOnce counts the work one evaluation pass
// does: each distinct corpus artifact exactly once, whatever the worker
// count, and all of it again on the next pass, since no pass is reused.
//
//	reference mixes: 11 programs x 2 allocation modes (Tables 7, 8, 10
//	                 and the byte-overhead sweep each ask for both)
//	compiles:        27 distinct (source, options) keys
//	bare runs:       27 distinct (compile key, step cap, interlocked) keys
func TestPassComputesEachArtifactOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	const interpretations, compiles, runs = 22, 27, 27
	// Two passes at four workers: the second must redo everything.
	for _, workers := range []int{1, 4, 4} {
		var p *pass
		results := RunAll(append(All(), passProbe(&p)), workers)
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, r.Name, r.Err)
			}
		}
		got := [3]int64{p.interpretations.Load(), p.compiles.Load(), p.runs.Load()}
		if want := [3]int64{interpretations, compiles, runs}; got != want {
			t.Errorf("workers=%d: interpretations/compiles/runs = %v, want %v", workers, got, want)
		}
	}
}

// TestPassCarriesEngine runs a pass on the reference engine while the
// process default stays at Traces: every CPU the experiments build must
// run on the pass's engine, and the pass must leave the default alone.
func TestPassCarriesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	var mu sync.Mutex
	engines := map[cpu.Engine]int{}
	p := newPass(sim.Reference)
	p.attach = func(c *cpu.CPU) {
		mu.Lock()
		engines[c.Engine()]++
		mu.Unlock()
	}
	for _, r := range p.runAll(All(), 4, nil) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
	}
	if len(engines) != 1 || engines[cpu.EngineReference] == 0 {
		t.Errorf("CPUs built per engine = %v, want all on the reference engine", engines)
	}

	RunAllWith(fakeExps(1), 1, sim.Reference, nil)
	m, err := sim.New()
	if err != nil {
		t.Fatal(err)
	}
	if e := m.CPU().Engine(); e != cpu.EngineTraces {
		t.Errorf("after a reference-engine run, a default machine runs on engine %d, want traces", e)
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
