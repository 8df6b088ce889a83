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
	"runtime"
	"sort"
	"sync"
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
	"mips/internal/telemetry/fleet"
	"mips/internal/trace"
)

func main() {
	maxSteps := flag.Uint64("max", 500_000_000, "step limit (instructions retired plus exceptions entered)")
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
	// jit SSE source, which reads the machine between run quanta.
	var jitLog *trace.JITLog
	var live liveMachine
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
				return live.sites(profiler)
			})
		}
		srv = live.server(cfg, registry)
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
		opts = append(opts, sim.WithAttach(jitLog.Attach))
	}
	if *useKernel || *timer > 0 || len(images) > 1 {
		opts = append(opts, sim.WithKernel(kernel.Config{TimerPeriod: uint32(*timer)}))
	}
	m, err := sim.New(opts...)
	if err != nil {
		fatal(err)
	}
	for i, im := range images {
		if err := m.Load(im); err != nil {
			fatal(fmt.Errorf("%s: %w", imageNames[i], err))
		}
	}
	live.set(m)
	quantum := *maxSteps
	if srv != nil {
		quantum = liveQuantum
	}
	err = live.run(*maxSteps, quantum)
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
			return fleet.WriteFolded(w, profiler.Folded())
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

// liveQuantum is the most steps the run loop takes between two chances
// for a live reader, the job service's default quantum.
const liveQuantum = 1_000_000

// liveMachine is the machine the run loop drives and /jit/traces,
// /metrics and /status read. The loop holds mu across each quantum, so a
// read lands between two quanta, at a step boundary, as a job service
// reader's does. Readers take mu through Lock, which counts them as
// waiting until they hold it, and the loop hands mu to every waiting
// reader before its next quantum: a mutex the loop re-locked at once
// would let a whole run pass by a reader. A reader the host has not
// scheduled yet is not waiting, though; one that must see the run
// mid-way registers first with watch.
type liveMachine struct {
	mu      sync.Mutex
	waiting atomic.Int32
	m       *sim.Machine

	// quanta counts the quanta run (guarded by mu), readAt holds its
	// value at the last reader's Lock, and watchers counts the readers
	// registered with watch.
	quanta   uint64
	readAt   atomic.Uint64
	watchers atomic.Int32
}

// Lock takes the machine for a reader between two quanta.
func (l *liveMachine) Lock() {
	l.waiting.Add(1)
	l.mu.Lock()
	l.waiting.Add(-1)
	l.readAt.Store(l.quanta)
}

// watch registers a standing reader until the returned stop is called:
// after every quantum, the last included, the loop waits until a reader
// has taken the machine. A reader registered before the run starts
// therefore meets the run loop at every quantum boundary, however the
// host schedules its goroutine.
func (l *liveMachine) watch() (stop func()) {
	l.watchers.Add(1)
	return func() { l.watchers.Add(-1) }
}

// Unlock releases the machine after a reader's Lock.
func (l *liveMachine) Unlock() { l.mu.Unlock() }

func (l *liveMachine) set(m *sim.Machine) {
	l.Lock()
	l.m = m
	l.Unlock()
}

// run executes at most maxSteps steps in quanta of at most quantum,
// and fails as Machine.Run does when the machine has not halted by
// then. With quantum equal to maxSteps it is one call.
func (l *liveMachine) run(maxSteps, quantum uint64) error {
	for steps := uint64(0); steps < maxSteps; {
		l.mu.Lock()
		exc := l.m.Stats().TotalExceptions()
		n, halted := l.m.RunSteps(min(quantum, maxSteps-steps))
		steps += n + l.m.Stats().TotalExceptions() - exc
		l.quanta++
		quanta := l.quanta
		l.mu.Unlock()
		// Yield at least once, so a reader not yet running gets its
		// chance, then until every waiting reader holds the machine and,
		// while a reader watches, until a reader has read this quantum.
		for {
			runtime.Gosched()
			if l.waiting.Load() == 0 && (l.watchers.Load() == 0 || l.readAt.Load() == quanta) {
				break
			}
		}
		if halted {
			return nil
		}
	}
	return fmt.Errorf("cpu: step limit %d exceeded at pc=%d", maxSteps, l.m.CPU().PC())
}

// server builds the -serve telemetry server over registry, the one the
// machine's counters register into. /metrics, /status and the rate
// sampler read the registry only between quanta, as /jit/traces reads
// the sites, so no sample overlaps the CPU's plain counter writes.
func (l *liveMachine) server(cfg telemetry.Config, registry *trace.Registry) *telemetry.Server {
	registry.Guard(l)
	srv := telemetry.New(cfg)
	srv.AddSource("", registry)
	return srv
}

// sites collects the machine's trace and block sites between quanta.
func (l *liveMachine) sites(p *trace.Profiler) trace.JITSites {
	l.Lock()
	defer l.Unlock()
	if l.m == nil {
		return trace.JITSites{}
	}
	return trace.CollectJITSites(l.m.CPU(), p)
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
