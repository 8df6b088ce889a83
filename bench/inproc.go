package main

import (
	_ "embed"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/tables"
)

// The in-process workloads run on one goroutine, in a closed loop: the
// next operation starts when the previous one has finished.

// paperGolden is the output of `paperbench -engine reference -core-json ”`.
//
//go:embed testdata/paper.golden
var paperGolden string

// The in-process workloads set up several times and report the median:
// paperSetups warm-up passes (~250 ms each), or corpusSetups rounds of
// compiling the images and running each once (~15 ms each). A set-up
// that short is easily cut by a time slice, so there are many.
const (
	paperSetups  = 11
	corpusSetups = 61
)

// maxSteps bounds one corpus run; the longest program retires ~505K
// instructions.
const maxSteps = 50_000_000

// Programs under 30K instructions, where machine construction and
// trace formation are a large share of an operation, and programs of
// 42K-505K instructions, where steady-state trace dispatch dominates.
var (
	shortPrograms = []string{"calc", "strings", "tokenizer", "formatter", "puzzle0", "puzzle1"}
	longPrograms  = []string{"fib", "netcheck", "matrix", "queens", "sort"}
)

// program is a corpus program with its compiled image and the output
// it must print.
type program struct {
	corpus.Program
	im   *isa.Image
	want string
}

// expectedOutputs maps every corpus program to the output it must
// print: its golden Output or, for programs without one, what the
// reference interpreter prints, the oracle the corpus tests use.
var expectedOutputs = sync.OnceValues(func() (map[string]string, error) {
	out := map[string]string{}
	for _, p := range corpus.All() {
		if p.Output != "" {
			out[p.Name] = p.Output
			continue
		}
		prog, err := lang.Parse(p.Source)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p.Name, err)
		}
		if out[p.Name], err = (&lang.Interp{Mode: lang.WordAlloc, Fuel: 500_000_000}).Run(prog); err != nil {
			return nil, fmt.Errorf("interpreting %s: %w", p.Name, err)
		}
	}
	return out, nil
})

// compileImage compiles a corpus program with every reorganizer pass,
// for the bare machine or for a kernel process, as cmd/mipsd does.
func compileImage(p corpus.Program, kernelTarget bool) (*isa.Image, error) {
	mopt := codegen.MIPSOptions{}
	if kernelTarget {
		mopt.StackTop = codegen.KernelStackTop
	}
	im, _, err := codegen.CompileMIPS(p.Source, mopt, reorg.All())
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", p.Name, err)
	}
	return im, nil
}

// compile compiles the named corpus programs.
func compile(names []string, kernelTarget bool) ([]program, error) {
	wants, err := expectedOutputs()
	if err != nil {
		return nil, err
	}
	out := make([]program, len(names))
	for i, name := range names {
		p, err := corpus.Get(name)
		if err != nil {
			return nil, err
		}
		im, err := compileImage(p, kernelTarget)
		if err != nil {
			return nil, err
		}
		out[i] = program{p, im, wants[name]}
	}
	return out, nil
}

// runProgram is one corpus operation: build a bare machine on the
// default engine, load the image, run it to halt and check its output.
func runProgram(p program, parent span) error {
	s := parent.child("sim", "sim.New")
	m, err := sim.New()
	s.end()
	if err != nil {
		return err
	}
	s = parent.child("sim", "Machine.Load")
	err = m.Load(p.im)
	s.end()
	if err != nil {
		return err
	}
	s = parent.child("cpu", "Machine.Run")
	_, err = m.Run(maxSteps)
	s.end()
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	if got := m.Output(); got != p.want {
		return fmt.Errorf("%s: output %q, want %q", p.Name, got, p.want)
	}
	return nil
}

// runCorpus returns the workload that runs the named programs
// round-robin, each round in a seeded order.
func runCorpus(names []string) func(runConfig) (result, error) {
	return func(cfg runConfig) (result, error) {
		var progs []program
		var setup []float64
		for i := 0; i < corpusSetups; i++ {
			start := time.Now()
			var err error
			if progs, err = compile(names, false); err != nil {
				return result{}, err
			}
			for _, p := range progs {
				if err := runProgram(p, span{}); err != nil {
					return result{}, fmt.Errorf("warm-up: %w", err)
				}
			}
			setup = append(setup, time.Since(start).Seconds())
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		var order []int
		return closedLoop(cfg, setup, func(i int) (string, func(span) error) {
			if i%len(progs) == 0 {
				order = rng.Perm(len(progs))
			}
			p := progs[order[i%len(progs)]]
			return p.Name, func(root span) error { return runProgram(p, root) }
		})
	}
}

// closedLoop runs operations back to back for cfg.seconds and builds
// the workload's result. next(i) names the class of operation i and
// returns the function that runs it.
func closedLoop(cfg runConfig, setup []float64, next func(i int) (string, func(span) error)) (result, error) {
	lat, tracedLat := samples{}, samples{}
	res := result{}
	rss := sampleRSS(os.Getpid())
	for deadline := time.Now().Add(cfg.seconds); time.Now().Before(deadline); res.Attempted++ {
		class, run := next(res.Attempted)
		rec := opRecorder(cfg.rec, res.Attempted)
		root := rec.begin(laneWorkload, uint64(res.Attempted), "bench", "op "+class)
		err := run(root)
		d := root.end()
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "bench:", err)
			continue
		}
		if rec != nil {
			tracedLat.add(class, ms(d))
		} else {
			lat.add(class, ms(d))
		}
	}
	rssMB := rss()
	res.Correct = res.Failed == 0
	if cfg.rec != nil {
		res.Metrics = tracedLatency(tracedLat, lat)
		return res, nil
	}
	res.Metrics = endToEnd(lat, rssMB, setup)
	return res, nil
}

// passTimes holds how long each experiment of one evaluation pass took,
// keyed by experiment name, plus "corebench".
type passTimes map[string]time.Duration

// paperPass regenerates the whole evaluation once, running the
// experiments in the given order on one worker, and renders it in paper
// order exactly as cmd/paperbench prints it.
func paperPass(order []int, parent span) (string, passTimes, error) {
	all := tables.All()
	exps := make([]tables.Experiment, len(order))
	for i, k := range order {
		exps[i] = all[k]
	}
	times := passTimes{}
	// With one worker the experiments run in sequence on this goroutine,
	// so each completion ends one experiment's span and starts the next.
	next := 0
	cur := parent.child("tables", exps[0].Name)
	results := tables.RunAllWith(exps, 1, sim.Default, func(r tables.Result) {
		times[r.Name] = cur.end()
		if next++; next < len(exps) {
			cur = parent.child("tables", exps[next].Name)
		}
	})
	s := parent.child("tables", "corebench")
	bench, err := tables.CoreBenchRun(1, sim.Default, nil)
	times["corebench"] = s.end()
	if err != nil {
		return "", nil, fmt.Errorf("corebench: %w", err)
	}
	out, err := renderEvaluation(results, bench)
	return out, times, err
}

// renderEvaluation renders experiment results (in any order) and the
// corebench table the way cmd/paperbench prints them.
func renderEvaluation(results []tables.Result, bench map[string]tables.CoreBenchEntry) (string, error) {
	byName := map[string]tables.Result{}
	for _, r := range results {
		if r.Err != nil {
			return "", fmt.Errorf("%s: %w", r.Name, r.Err)
		}
		byName[r.Name] = r
	}
	var b strings.Builder
	for _, e := range tables.All() {
		b.WriteString(byName[e.Name].Table.Render())
		b.WriteByte('\n')
	}
	b.WriteString(tables.CoreBenchTable(bench).Render())
	b.WriteByte('\n')
	return b.String(), nil
}

// checkedPass is one paper operation: a pass in a seeded experiment
// order whose output must match the golden evaluation byte for byte.
func checkedPass(rng *rand.Rand, parent span) error {
	out, _, err := paperPass(rng.Perm(len(tables.All())), parent)
	if err != nil {
		return err
	}
	if out != paperGolden {
		return errors.New("evaluation output differs from testdata/paper.golden")
	}
	return nil
}

// runPaper is the "regenerate the evaluation" workload. Its operation
// is the whole pass, timed as one class: the fastest of each
// experiment's ~40 runs moved by 6-11% run to run, the fastest pass by
// 3% or less.
func runPaper(cfg runConfig) (result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var setup []float64
	for i := 0; i < paperSetups; i++ {
		start := time.Now()
		if err := checkedPass(rng, span{}); err != nil {
			return result{}, fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	return closedLoop(cfg, setup, func(int) (string, func(span) error) {
		return "pass", func(root span) error { return checkedPass(rng, root) }
	})
}
