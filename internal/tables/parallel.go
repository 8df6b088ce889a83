package tables

import (
	"runtime"
	"sync"

	"mips/internal/sim"
)

// The experiments of one run share a pass (pass.go): each corpus
// artifact two experiments need is computed once, by whichever asks
// first, and the other waits for it. Artifacts are deterministic, so
// regenerating the full evaluation still parallelizes without changing
// a byte. The pool below fans the work out over a bounded number of
// goroutines while keeping the output deterministic: results land in a
// slice indexed by input position, so callers print them in exactly the
// order a serial run would.

// Result is one experiment's outcome from a parallel run.
type Result struct {
	Name  string
	Table *Table
	Err   error
}

// RunAll executes the experiments across a bounded worker pool and
// returns their results in input order. workers <= 0 selects
// GOMAXPROCS workers.
func RunAll(exps []Experiment, workers int) []Result {
	return RunAllWith(exps, workers, sim.Default, nil)
}

// RunAllWith is RunAll with the execution engine selectable and a
// completion hook. The experiments share one pass, which builds every
// machine on the given engine; results are engine-independent — the
// choice changes only how fast the evaluation runs — and the process
// default engine is left alone. onDone, if non-nil, is called with each
// result as its experiment finishes, from the worker goroutine that ran
// it. The telemetry server uses it to expose live experiment progress;
// the hook must therefore be safe for concurrent calls (trace.Counter
// increments are).
func RunAllWith(exps []Experiment, workers int, engine sim.Engine, onDone func(Result)) []Result {
	return newPass(engine).runAll(exps, workers, onDone)
}

// runAll runs the experiments on the pass.
func (p *pass) runAll(exps []Experiment, workers int, onDone func(Result)) []Result {
	results := make([]Result, len(exps))
	forEachIndexed(len(exps), workers, func(i int) {
		tab, err := exps[i].run(p)
		results[i] = Result{Name: exps[i].Name, Table: tab, Err: err}
		if onDone != nil {
			onDone(results[i])
		}
	})
	return results
}

// forEachIndexed calls fn(i) for every i in [0, n) across a pool of the
// given size. Each index is handled exactly once; fn must write only to
// its own slot of any shared output.
func forEachIndexed(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
