// Command paperbench regenerates every table and figure of the paper's
// evaluation and prints them with the published values alongside.
//
// Usage:
//
//	paperbench [-core-json FILE] [-j N] [-serve ADDR] [-engine ENGINE]
//	           [experiment ...]
//
// With no arguments every experiment runs in paper order. Experiment
// names: table1..table11, figure1..figure4, freecycles, ctxswitch,
// ablation-*, corebench.
//
// -j runs the experiments across N workers (0 = one per CPU). The
// experiments are independent simulations, and results are printed in
// paper order regardless of which worker finishes first, so -j changes
// only wall-clock time, never output.
//
// -serve exposes live telemetry over HTTP while the evaluation runs:
// /metrics aggregates every corebench program's registry under an
// `experiment` label alongside the driver's own progress counters, and
// /status reports aggregate rates. After the run the process stays up
// so the final state remains inspectable — Ctrl-C to exit.
//
// The corebench experiment also writes BENCH_core.json (configurable
// with -core-json): a machine-readable per-program record of cycles,
// nops, and free-bandwidth fraction, collected through the metrics
// registry. cmd/benchdiff compares two such artifacts and gates CI on
// regressions.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"mips/internal/sim"
	"mips/internal/tables"
	"mips/internal/telemetry"
	"mips/internal/trace"
)

func main() {
	coreJSON := flag.String("core-json", "BENCH_core.json", "file for the corebench metrics JSON (empty to disable)")
	workers := flag.Int("j", 1, "experiment worker count (0 = one per CPU)")
	serve := flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :9417)")
	engineFlag := flag.String("engine", "traces", "execution engine: reference | fast | blocks | traces")
	flag.Parse()
	engine, err := sim.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[a] = true
	}
	var exps []tables.Experiment
	for _, e := range tables.All() {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		exps = append(exps, e)
	}
	runCore := len(want) == 0 || want["corebench"]

	// With -serve, the driver itself reports progress through a
	// registry, and every corebench program's registry is attached as a
	// labeled source the moment its worker starts it.
	var srv *telemetry.Server
	var onDone func(tables.Result)
	var coreSink func(name string, reg *trace.Registry)
	if *serve != "" {
		srv = telemetry.New(telemetry.Config{Program: "paperbench", Args: os.Args[1:], Engine: engine.String()})
		progress := trace.NewRegistry()
		total := progress.Counter("paperbench.experiments_total")
		done := progress.Counter("paperbench.experiments_done")
		failed := progress.Counter("paperbench.experiments_failed")
		progress.Describe("paperbench.experiments_total", "experiments scheduled this run")
		progress.Describe("paperbench.experiments_done", "experiments completed")
		progress.Describe("paperbench.experiments_failed", "experiments that returned an error")
		total.Add(uint64(len(exps)))
		if runCore {
			total.Inc() // corebench runs as one more experiment
		}
		srv.AddSource("paperbench", progress)
		onDone = func(r tables.Result) {
			done.Inc()
			if r.Err != nil {
				failed.Inc()
			}
		}
		coreSink = func(name string, reg *trace.Registry) { srv.AddSource(name, reg) }
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: serving live telemetry at %s\n", displayURL(addr))
		defer holdAndClose(srv, displayURL(addr))
	}

	failedRun := false
	for _, r := range tables.RunAllWith(exps, *workers, engine, onDone) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, r.Err)
			failedRun = true
			continue
		}
		fmt.Println(r.Table.Render())
	}
	if runCore {
		err := runCoreBench(*coreJSON, *workers, engine, coreSink)
		if srv != nil {
			onDone(tables.Result{Name: "corebench", Err: err})
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "corebench: %v\n", err)
			failedRun = true
		}
	}
	if failedRun {
		os.Exit(1)
	}
}

// runCoreBench runs the corpus once, prints the rendered table, and
// writes the same data machine-readably to jsonName.
func runCoreBench(jsonName string, workers int, engine sim.Engine, sink func(string, *trace.Registry)) error {
	bench, err := tables.CoreBenchRun(workers, engine, sink)
	if err != nil {
		return err
	}
	fmt.Println(tables.CoreBenchTable(bench).Render())
	if jsonName == "" {
		return nil
	}
	f, err := os.Create(jsonName)
	if err != nil {
		return err
	}
	if err := tables.WriteCoreBench(f, bench); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "paperbench: wrote %s\n", jsonName)
	return nil
}

// holdAndClose keeps the telemetry server up after the evaluation so
// the final aggregated state stays inspectable, until interrupted.
func holdAndClose(srv *telemetry.Server, url string) {
	fmt.Fprintf(os.Stderr, "paperbench: run complete; telemetry still served at %s — Ctrl-C to exit\n", url)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	cancel()
	srv.Close()
}

// displayURL renders a bound address as a clickable URL, mapping
// wildcard hosts to localhost.
func displayURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}
