// Command mipsrun executes a MIPS image on the simulator.
//
// Usage:
//
//	mipsrun [-max N] [-stats] [-kernel] [-timer N] [-engine ENGINE]
//	        [-prof] [-trace N] [-trace-json FILE] [-metrics FILE]
//	        [-flame FILE] [-serve ADDR] [-corpus NAME]
//	        image.img ...
//
// By default images run on the bare machine with host-serviced monitor
// calls. With -kernel, each image is loaded as a process of the full
// machine: dispatch ROM, demand paging, and (with -timer) preemptive
// round-robin scheduling. -corpus NAME compiles and runs the named
// built-in corpus program instead of reading image files.
//
// -engine selects the execution engine: reference (the interpreter,
// one instruction at a time), fast (the same per-instruction stepping,
// counted as the fast tier), blocks (the superblock translation
// engine), or traces (the trace JIT tier layered on the superblock
// engine, the default). The engines are observably identical; the
// choice changes only simulation speed.
//
// Observability (packages trace and telemetry):
//
//	-prof            print a flat cycle-attribution profile to stderr
//	-prof-top N      number of hot instruction words in the profile (default 20)
//	-trace N         print the first N executed instructions to stderr
//	-trace-json FILE write the event ring as Chrome trace_event JSON
//	                 (open with Perfetto or chrome://tracing)
//	-trace-buf N     event ring capacity (default 65536)
//	-metrics FILE    write a metrics-registry snapshot as JSON
//	-flame FILE      write the profile as folded-stack flamegraph text
//	-jitlog FILE     record the trace-JIT event log (formation, guard
//	                 exits by deopt reason, invalidations) and write it
//	                 as JSON lines; a per-reason summary prints to stderr
//	-jitlog-chrome FILE
//	                 write the JIT event log as Chrome trace_event JSON
//	-jitlog-buf N    JIT event ring capacity (default 4096; oldest
//	                 events are dropped and counted beyond it)
//	-serve ADDR      serve live telemetry over HTTP while the program
//	                 runs (/metrics, /trace/stream, /profile/flame,
//	                 /profile/top, /status — plus /jit/traces,
//	                 /jit/events and /trace/stream?source=jit with
//	                 -jitlog); after the run the process stays up so the
//	                 final state remains inspectable — Ctrl-C to exit.
//	                 With -jitlog the server does not imply the
//	                 per-instruction tracer (its step hook would force
//	                 per-instruction execution and starve the trace
//	                 tier); pass -trace-json explicitly to get both
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/telemetry"
	"mips/internal/trace"
)

func main() {
	maxSteps := flag.Uint64("max", 500_000_000, "step limit")
	stats := flag.Bool("stats", false, "print execution statistics")
	useKernel := flag.Bool("kernel", false, "run under the kernel with demand paging")
	timer := flag.Uint("timer", 0, "timer period in user instructions (0 = off; implies -kernel)")
	engineFlag := flag.String("engine", "traces", "execution engine: reference | fast | blocks | traces")
	traceN := flag.Uint64("trace", 0, "print the first N executed instructions to stderr")
	traceJSON := flag.String("trace-json", "", "write Chrome trace_event JSON to this file")
	traceBuf := flag.Int("trace-buf", trace.DefaultRingCap, "event ring capacity")
	prof := flag.Bool("prof", false, "print a flat cycle-attribution profile to stderr")
	profTop := flag.Int("prof-top", 20, "hot instruction words to list in the profile")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot as JSON to this file")
	flameOut := flag.String("flame", "", "write a folded-stack flamegraph to this file (implies profiling)")
	jitlogOut := flag.String("jitlog", "", "write the trace-JIT event log as JSON lines to this file")
	jitlogChrome := flag.String("jitlog-chrome", "", "write the trace-JIT event log as Chrome trace_event JSON to this file")
	jitlogBuf := flag.Int("jitlog-buf", trace.DefaultJITLogSize, "JIT event ring capacity")
	serve := flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :9417)")
	corpusName := flag.String("corpus", "", "run the named built-in corpus program instead of image files")
	flag.Parse()
	if (flag.NArg() == 0) == (*corpusName == "") {
		fmt.Fprintln(os.Stderr, "usage: mipsrun [flags] image.img ...  |  mipsrun [flags] -corpus NAME")
		os.Exit(2)
	}
	engine, err := sim.ParseEngine(*engineFlag)
	if err != nil {
		fatal(err)
	}

	var images []*isa.Image
	var imageNames []string
	if *corpusName != "" {
		p, err := corpus.Get(*corpusName)
		if err != nil {
			fatal(err)
		}
		mopt := codegen.MIPSOptions{}
		if *useKernel || *timer > 0 {
			mopt.StackTop = codegen.KernelStackTop
		}
		im, _, err := codegen.CompileMIPS(p.Source, mopt, reorg.All())
		if err != nil {
			fatal(fmt.Errorf("corpus %s: %w", *corpusName, err))
		}
		images = append(images, im)
		imageNames = append(imageNames, *corpusName)
	}
	for _, name := range flag.Args() {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		im, err := isa.ReadImage(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		images = append(images, im)
		imageNames = append(imageNames, name)
	}

	// Assemble the observer from whatever the flags ask for; obs stays
	// nil (and the simulator hook-free) when no observability is wanted.
	// A live server implies a tracer (it backs /trace/stream) and keeps
	// whatever profiler the flags created — unless a jitlog was asked
	// for: the implied tracer's step hook forces per-instruction
	// execution, which would starve the trace tier the jitlog exists
	// to observe. Explicit -trace/-trace-json still wins.
	jitIntrospect := *jitlogOut != "" || *jitlogChrome != ""
	var obs *trace.Observer
	var tracer *trace.Tracer
	var profiler *trace.Profiler
	if *traceN > 0 || *traceJSON != "" || (*serve != "" && !jitIntrospect) {
		tracer = trace.NewTracer(*traceBuf)
		if *traceN > 0 {
			tracer.StreamText(os.Stderr, *traceN)
		}
	}
	if *prof || *flameOut != "" {
		profiler = trace.NewProfiler()
		for _, im := range images {
			profiler.AddImage(im)
		}
	}
	if tracer != nil || profiler != nil {
		obs = &trace.Observer{Tracer: tracer, Profiler: profiler}
	}
	registry := trace.NewRegistry()

	// The JIT event log rides along whenever a jitlog export is asked
	// for; with -serve it also backs /jit/events, /jit/traces and the
	// jit SSE source. The machine pointer is published after build so
	// live /jit/traces reads are well ordered.
	var jitLog *trace.JITLog
	var liveMachine atomic.Pointer[sim.Machine]
	if *jitlogOut != "" || *jitlogChrome != "" {
		jitLog = trace.NewJITLog(*jitlogBuf)
	}

	var srv *telemetry.Server
	var liveURL string
	if *serve != "" {
		cfg := telemetry.Config{
			Program: "mipsrun", Args: os.Args[1:], Engine: engine.String(),
			Tracer: tracer, Profiler: profiler,
		}
		if jitLog != nil {
			cfg.JIT = jitLog
			cfg.JITSites = telemetry.SingleJITSites("machine", func() trace.JITSites {
				m := liveMachine.Load()
				if m == nil {
					return trace.JITSites{}
				}
				return trace.CollectJITSites(m.CPU(), profiler)
			})
		}
		srv = telemetry.New(cfg)
		srv.AddSource("", registry)
		addr, err := srv.Start(*serve)
		if err != nil {
			fatal(err)
		}
		liveURL = displayURL(addr)
		fmt.Fprintf(os.Stderr, "mipsrun: serving live telemetry at %s (metrics, trace/stream, profile/flame, profile/top, status)\n", liveURL)
	}

	opts := []sim.Option{sim.WithEngine(engine), sim.WithTelemetry(registry)}
	if obs != nil {
		opts = append(opts, sim.WithObserver(obs))
	}
	if jitLog != nil {
		shareTraces := srv != nil
		opts = append(opts, sim.WithAttach(func(c *cpu.CPU) {
			jitLog.Attach(c)
			if shareTraces {
				// /jit/traces reads the live trace/block caches while
				// the machine runs; share their structural mutations.
				c.ShareTraces()
			}
		}))
	}
	if *useKernel || *timer > 0 || len(images) > 1 {
		opts = append(opts, sim.WithKernel(kernel.Config{TimerPeriod: uint32(*timer)}))
	}
	m, err := sim.New(opts...)
	if err != nil {
		fatal(err)
	}
	liveMachine.Store(m)
	for i, im := range images {
		if err := m.Load(im); err != nil {
			fatal(fmt.Errorf("%s: %w", imageNames[i], err))
		}
	}
	_, err = m.Run(*maxSteps)
	fmt.Print(m.Output())
	if err != nil {
		fatal(err)
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "mipsrun: %s\n", m.Stats())
		fmt.Fprintf(os.Stderr, "mipsrun: %s\n", m.Trans())
	}
	if profiler != nil && *prof {
		if err := profiler.WriteReport(os.Stderr, *profTop); err != nil {
			fatal(err)
		}
		if srv != nil {
			fmt.Fprintf(os.Stderr, "mipsrun: profile also live at %s/profile/flame and %s/profile/top\n", liveURL, liveURL)
		}
	}
	if profiler != nil && *flameOut != "" {
		if err := writeFile(*flameOut, func(w io.Writer) error {
			return telemetry.WriteFolded(w, profiler)
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mipsrun: wrote folded flamegraph to %s\n", *flameOut)
	}
	if tracer != nil && *traceJSON != "" {
		if err := writeFile(*traceJSON, tracer.WriteChromeJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mipsrun: wrote %d trace events to %s (%d dropped)\n",
			tracer.Ring().Len(), *traceJSON, tracer.Ring().Dropped())
	}
	if jitLog != nil {
		if *jitlogOut != "" {
			if err := writeFile(*jitlogOut, jitLog.WriteJSONL); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "mipsrun: wrote %d jit events to %s (%d dropped from the ring)\n",
				jitLog.Len(), *jitlogOut, jitLog.Dropped())
		}
		if *jitlogChrome != "" {
			if err := writeFile(*jitlogChrome, jitLog.WriteChromeJSON); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "mipsrun: wrote jit Chrome trace to %s\n", *jitlogChrome)
		}
		printDeoptSummary(os.Stderr, m.Trans())
		if srv != nil {
			fmt.Fprintf(os.Stderr, "mipsrun: jit introspection also live at %s/jit/traces and %s/jit/events\n", liveURL, liveURL)
		}
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, registry.Snapshot().WriteJSON); err != nil {
			fatal(err)
		}
		if srv != nil {
			fmt.Fprintf(os.Stderr, "mipsrun: metrics also live at %s/metrics (Prometheus exposition)\n", liveURL)
		}
	}

	if srv != nil {
		fmt.Fprintf(os.Stderr, "mipsrun: run complete; telemetry still served at %s — Ctrl-C to exit\n", liveURL)
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		<-ctx.Done()
		cancel()
		srv.Close()
	}
}

// printDeoptSummary prints the guard-exit taxonomy hottest-first, so
// `mipsrun -jitlog` answers "why does this program leave its traces"
// without opening the log.
func printDeoptSummary(w io.Writer, ts *cpu.TranslationStats) {
	if ts.TraceGuardExits == 0 {
		fmt.Fprintln(w, "mipsrun: jit deopts: none (every trace dispatch ran to completion)")
		return
	}
	type row struct {
		reason cpu.DeoptReason
		n      uint64
	}
	rows := make([]row, 0, cpu.NumDeoptReasons)
	for r := cpu.DeoptReason(0); r < cpu.NumDeoptReasons; r++ {
		if ts.TraceDeopts[r] > 0 {
			rows = append(rows, row{r, ts.TraceDeopts[r]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	fmt.Fprintf(w, "mipsrun: jit deopts (%d guard exits):", ts.TraceGuardExits)
	for _, r := range rows {
		fmt.Fprintf(w, " %s=%d", r.reason, r.n)
	}
	fmt.Fprintln(w)
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

func writeFile(name string, write func(w io.Writer) error) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mipsrun:", err)
	os.Exit(1)
}
