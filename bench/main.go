// Command bench is the repository's end-to-end benchmark. It runs one
// or all of four workloads and prints, as the last line of its output,
// one JSON object: whether every output was correct, how many
// operations were attempted and failed, and the metrics by name with
// their units.
//
// Usage, from the root of the repository:
//
//	sh bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                [-json FILE] [-spans FILE]
//
// Workloads: paper, corpus-short, corpus-long, mipsd (default: all four
// in turn). A run that completes exits 0 and reports wrong outputs in
// its result; one that cannot run exits 1 without a result. The seed
// only permutes the order of a workload's operations; the count of each
// kind is fixed. With -trace 0 the end-to-end metrics
// are measured with tracing off. With -trace 1 the run records spans
// around the benchmark's calls into each layer, runs the layer probes,
// and reports the per-layer metrics instead; -spans writes the spans as
// Chrome trace_event JSON. README.md explains the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// rec is nil for the untraced run. In the traced run it records the
	// workload's spans, and the workload alternates traced and untraced
	// operations so that it can report the tracing overhead.
	rec *recorder
}

type workload struct {
	name string
	run  func(runConfig) (result, error)
}

var workloads = []workload{
	{"paper", runPaper},
	{"corpus-short", runCorpus(shortPrograms)},
	{"corpus-long", runCorpus(longPrograms)},
	{"mipsd", runMipsd},
}

func main() {
	name := flag.String("workload", "", "workload to run: paper, corpus-short, corpus-long or mipsd (default: all)")
	seed := flag.Int64("seed", 1, "seed that orders the workload's operations")
	seconds := flag.Float64("seconds", 10, "seconds each workload measures for")
	traced := flag.Int("trace", 0, "1 for the traced run: per-layer metrics instead of end-to-end ones")
	jsonOut := flag.String("json", "", "also write the result objects to this file")
	spansOut := flag.String("spans", "", "traced run: write the spans to this file as Chrome trace_event JSON")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	var rec *recorder
	if *traced == 1 {
		rec = newRecorder()
	}
	results := map[string]result{}
	for _, w := range selected {
		cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), rec: rec}
		var res result
		var err error
		if rec != nil {
			res, err = runTraced(w, cfg, probeReps)
		} else {
			res, err = w.run(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		results[w.name] = res
		printResult(w.name, res)
	}
	if rec != nil && *spansOut != "" {
		if err := rec.writeChrome(*spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// runTraced is the traced run of a workload: the workload itself,
// recording spans into cfg.rec, then the layer probes.
func runTraced(w workload, cfg runConfig, reps int) (result, error) {
	res, err := w.run(cfg)
	if err != nil {
		return res, err
	}
	layers, err := probeLayers(reps, cfg.seed, cfg.rec)
	if err != nil {
		return res, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range layers {
		res.Metrics[k] = v
	}
	return res, nil
}

// printResult prints the metrics one per line, then the result object
// as a single JSON line.
func printResult(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Printf("# %-44s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil { // a metric with no samples is NaN, which JSON cannot carry
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// endToEnd builds the end-to-end metrics every workload reports from
// its latencies (ms, by class), the resident-set samples of the process
// doing the work, and the set-up times.
//
// The latency reported is each class's minimum: the time an operation
// takes when nothing else on the host slows it. On a small shared host
// the median and the tail move by 7-36% between runs as other tenants
// come and go, while the minimum over hundreds of operations repeats
// within a few percent, so only the minimum can gate a change.
func endToEnd(lat samples, rss, setup []float64) metrics {
	m := metrics{}
	m.set("op_ms_min", "ms", lat.classQuantile(0))
	m.set("rss_mb", "MB", median(rss))
	m.set("setup_s", "s", median(setup))
	return m
}

// tracedLatency compares the traced and the untraced operations of a
// traced run, and reports the untraced operations' median and 90th
// percentile latency, by class. Those two are what a user of the
// workload waits, queueing included, but they move by 7-36% between
// runs on a small shared host, so they are reported here, with no
// bound, and not among the end-to-end metrics.
func tracedLatency(traced, untraced samples) metrics {
	m := metrics{}
	m.set("bench.trace_overhead_pct", "%", 100*(traced.classQuantile(0.5)/untraced.classQuantile(0.5)-1))
	m.set("bench.op_ms_p50", "ms", untraced.classQuantile(0.5))
	m.set("bench.op_ms_p90", "ms", untraced.classQuantile(0.9))
	return m
}

// opRecorder returns the recorder for operation i: in a traced run,
// even operations are traced and odd ones are not.
func opRecorder(rec *recorder, i int) *recorder {
	if i%2 == 0 {
		return rec
	}
	return nil
}
