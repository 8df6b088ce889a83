// Command mipsd serves the concurrent simulation job service over HTTP.
//
// Usage:
//
//	mipsd [-addr :9418] [-workers N] [-queue N] [-quantum N] [-max N]
//	      [-engine ENGINE] [-peers URL,URL]
//
// mipsd runs many simulations at once on a bounded worker pool. Jobs
// are submitted over HTTP and preempted at checkpoint boundaries every
// -quantum scheduler steps, so a handful of workers makes fair progress
// across hundreds of queued machines. Clients may download a live
// snapshot of any running job and resubmit it later — to the same
// daemon, a different one, or a different engine.
//
// The job API is versioned under /v1. Jobs cold-boot from a corpus
// program or a snapshot upload, or warm-fork from a named template — a
// golden snapshot held pre-decoded so admission costs O(pages-touched)
// copy-on-write work instead of a full boot:
//
//	POST   /v1/jobs               submit ({"program": "sieve"},
//	                              {"snapshot": base64}, or
//	                              {"template": "name"}; optional
//	                              tenant/profile/trace fields)
//	GET    /v1/jobs               list jobs (?state=, ?limit=, ?after=)
//	GET    /v1/jobs/{id}          one job's status
//	GET    /v1/jobs/{id}/output   console output (terminal states)
//	GET    /v1/jobs/{id}/profile  folded cycle stacks (profile: true jobs)
//	GET    /v1/jobs/{id}/snapshot checkpoint download (binary, resumable)
//	POST   /v1/jobs/{id}/cancel   request cancellation
//	PUT    /v1/templates/{name}   create a template from a program or
//	                              snapshot (optional warmup_steps)
//	GET    /v1/templates          list templates
//	GET    /v1/templates/{name}   template metadata
//	DELETE /v1/templates/{name}   remove a template
//
// Errors are a JSON envelope {"error": "...", "code": "..."} with
// machine-readable codes (queue_full, closed, not_found, bad_spec,
// template_missing). Only the /v1 paths serve jobs; unversioned /jobs
// paths answer 404.
//
// Submittable programs are the built-in corpus; the telemetry surface
// serves the job service's counters plus the fleet rollup:
//
//	GET  /metrics                     Prometheus exposition: jobs.* and
//	                                  xlate.* counters, per-tenant
//	                                  latency/rate quantiles, SSE drops;
//	                                  federated peers merge in with a
//	                                  worker="host:port" label
//	GET  /profile/flame?scope=fleet   merged flamegraph of every profiled
//	                                  job (and federated peers)
//	GET  /trace/stream?sample=K       SSE tail of K traced jobs
//	GET  /trace/stream?source=jit     SSE tail of the shared JIT event log
//	GET  /jit/traces                  per-job tier heatmap: live trace and
//	                                  superblock sites with deopt reasons
//	GET  /jit/events                  the shared JIT event log's retained
//	                                  window (JSON)
//	GET  /fleet/peers                 list federated peers
//	POST /fleet/peers                 add a peer ({"url": "host:port"})
//	DELETE /fleet/peers?url=...       remove a peer
//
// A worker is a plain mipsd; a coordinator is a mipsd started with
// -peers (or taught its peers via POST /fleet/peers) whose /metrics and
// fleet flamegraph scrape and merge every peer on each request.
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
	"strings"
	"syscall"
	"time"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/isa"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/telemetry"
	"mips/internal/telemetry/fleet"
	"mips/internal/trace"
)

func main() {
	addr := flag.String("addr", ":9418", "HTTP listen address")
	workers := flag.Int("workers", 0, "simulation worker count (0 = one per CPU)")
	queue := flag.Int("queue", 256, "job queue depth (admission bound)")
	quantum := flag.Uint64("quantum", 1_000_000, "preemption quantum in scheduler steps")
	maxSteps := flag.Uint64("max", 500_000_000, "default per-job step budget")
	engineFlag := flag.String("engine", "traces", "default execution engine: reference | fast | blocks | traces")
	peersFlag := flag.String("peers", "", "comma-separated peer mipsd URLs to federate (coordinator mode)")
	drainWait := flag.Duration("drain", 10*time.Second, "graceful-drain bound on shutdown")
	jitlogBuf := flag.Int("jitlog-buf", trace.DefaultJITLogSize, "shared JIT event ring capacity")
	flag.Parse()
	engine, err := sim.ParseEngine(*engineFlag)
	if err != nil {
		fatal(err)
	}
	sim.SetDefault(engine)

	// Fleet observability: terminal jobs roll into sharded per-tenant
	// sketches, traced jobs register as sampled-SSE sources, and -peers
	// turns this daemon into a coordinator that merges peer scrapes.
	rollup := fleet.NewRollup(fleet.DefaultRollupShards)
	directory := fleet.NewDirectory()
	fed := fleet.NewFederation(fleet.DefaultScrapeTimeout)
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if _, err := fed.AddPeer(p); err != nil {
				fatal(err)
			}
		}
	}

	metrics := trace.NewRegistry()
	// One shared JIT event log observes every job's trace-JIT lifecycle;
	// /jit/events serves its retained window and ?source=jit tails it.
	jitLog := trace.NewJITLog(*jitlogBuf)
	svc := sim.NewService(sim.ServiceConfig{
		Workers:         *workers,
		QueueDepth:      *queue,
		Quantum:         *quantum,
		DefaultMaxSteps: *maxSteps,
		Metrics:         metrics,
		Tracers:         directory,
		JIT:             jitLog,
		OnJobTerminal: func(s sim.JobSample) {
			rollup.Observe(fleet.JobSample{
				Tenant:           s.Tenant,
				Engine:           s.Engine,
				Outcome:          s.Outcome,
				LatencySeconds:   s.LatencySeconds,
				AdmissionSeconds: s.AdmissionSeconds,
				InstrsPerSec:     s.InstrsPerSec,
				Instructions:     s.Instructions,
				Preempts:         s.Preempts,
				Counters:         s.Counters,
			})
		},
	})

	srv := telemetry.New(telemetry.Config{
		Program: "mipsd", Args: os.Args[1:], Engine: engine.String(),
		Sampler:  directory,
		JIT:      jitLog,
		JITSites: svc.FleetJITSites,
	})
	srv.AddSource("", metrics)
	srv.AddCollector(rollup.WriteExposition)
	srv.AddCollector(func(w io.Writer) error { return writeTenantActive(w, svc) })
	srv.SetMetricsBody(func(w io.Writer) error {
		return fed.WriteMergedMetrics(w, srv.RenderLocalMetrics)
	})
	srv.SetFleetFolded(func(w io.Writer) error {
		merged, _ := fed.MergedFolded(svc.FleetFolded())
		return fleet.WriteFolded(w, merged)
	})
	templates := sim.NewTemplatePool()
	handler := svc.Handler(sim.HTTPConfig{Programs: corpusPrograms(), Templates: templates})
	srv.Mount("/v1/", handler)
	srv.Mount("/fleet/peers", fed.Handler())

	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mipsd: serving simulation jobs at %s (POST /v1/jobs, PUT /v1/templates/{name}, /metrics, /status)\n", displayURL(bound))
	if peers := fed.Peers(); len(peers) > 0 {
		fmt.Fprintf(os.Stderr, "mipsd: federating %d peers: %s\n", len(peers), strings.Join(peers, ", "))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	cancel()
	fmt.Fprintln(os.Stderr, "mipsd: draining...")
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainWait)
	svc.Drain(drainCtx)
	cancelDrain()
	svc.Close()
	srv.Close()
}

// writeTenantActive exposes the per-tenant unfinished-job gauge next to
// the rollup's terminal-job families: together they answer "who is
// running now" and "how did their jobs behave".
func writeTenantActive(w io.Writer, svc *sim.Service) error {
	if _, err := fmt.Fprint(w,
		"# HELP jobs_tenant_active unfinished jobs per tenant\n# TYPE jobs_tenant_active gauge\n"); err != nil {
		return err
	}
	active := svc.TenantActive()
	tenants := make([]string, 0, len(active))
	for t := range active {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		if _, err := fmt.Fprintf(w, "jobs_tenant_active{tenant=%q} %d\n", t, active[t]); err != nil {
			return err
		}
	}
	return nil
}

// corpusPrograms exposes every built-in corpus program to the job
// service, compiled on demand for the requested machine layout.
func corpusPrograms() map[string]sim.ProgramFunc {
	progs := map[string]sim.ProgramFunc{}
	for _, p := range corpus.All() {
		p := p
		progs[p.Name] = func(kernelTarget bool) (*isa.Image, error) {
			mopt := codegen.MIPSOptions{}
			if kernelTarget {
				mopt.StackTop = codegen.KernelStackTop
			}
			im, _, err := codegen.CompileMIPS(p.Source, mopt, reorg.All())
			return im, err
		}
	}
	return progs
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mipsd:", err)
	os.Exit(1)
}
