package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"mips/internal/asm"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/lang"
	"mips/internal/mem"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/tables"
)

// The layer probes give the per-layer metrics. Every traced run makes
// the same probes, whatever its workload, so every per-layer metric is
// reported on every workload and means the same thing on each. Each
// probe times the benchmark's own calls into one layer's public
// functions, inside spans; counts come from the layers' counters.

// probeReps is how many times the traced run repeats each timed probe
// measurement; the median is reported.
const probeReps = 5

// serviceJobs is the length of the in-process job-service run: one
// second of the mix.
const serviceJobs = mixRate

// A probe measures one layer: reps timed repetitions per measurement,
// inputs ordered by seed, spans under parent, metrics into m.
type probe struct {
	name string
	run  func(reps int, seed int64, parent span, m metrics) error
}

var probes = []probe{
	{"compile", probeCompile},
	{"cpu", probeCPU},
	{"snapshot", probeSnapshot},
	{"mem", probeMem},
	{"kernel", probeKernel},
	{"service", probeService},
	{"tables", probeTables},
}

// probeLayers runs every probe and returns the per-layer metrics.
func probeLayers(reps int, seed int64, rec *recorder) (metrics, error) {
	m := metrics{}
	root := rec.begin(laneProbe, 0, "bench", "layer probes")
	defer root.end()
	for _, p := range probes {
		s := root.child("bench", "probe "+p.name)
		err := p.run(reps, seed, s, m)
		s.end()
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
	}
	return m, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocatedKB runs f and returns the kilobytes of heap the process
// allocated meanwhile. Nothing else allocates while a probe runs.
func allocatedKB(f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024, err
}

// probeCompile times the four compiler stages on every corpus program:
// the geometric mean over programs of each stage's median time.
func probeCompile(reps int, _ int64, parent span, m metrics) error {
	var stages [4][]float64
	for _, p := range corpus.All() {
		var t [4][]float64
		for r := 0; r < reps; r++ {
			s := parent.child("lang", "lang.Parse")
			prog, err := lang.Parse(p.Source)
			t[0] = append(t[0], us(s.end()))
			if err != nil {
				return err
			}
			s = parent.child("codegen", "codegen.GenMIPS")
			unit, err := codegen.GenMIPS(prog, codegen.MIPSOptions{})
			t[1] = append(t[1], us(s.end()))
			if err != nil {
				return err
			}
			s = parent.child("reorg", "reorg.Reorganize")
			out, _ := reorg.Reorganize(unit, reorg.All())
			t[2] = append(t[2], us(s.end()))
			s = parent.child("asm", "asm.Assemble")
			_, err = asm.Assemble(out)
			t[3] = append(t[3], us(s.end()))
			if err != nil {
				return err
			}
		}
		for i := range stages {
			stages[i] = append(stages[i], median(t[i]))
		}
	}
	for i, name := range []string{"lang.parse_us", "codegen.gen_us", "reorg.reorganize_us", "asm.assemble_us"} {
		m.set(name, "us", geomean(stages[i]))
	}
	return nil
}

// probeCPU runs every short and long corpus program on each engine and
// reads the trace tier's counters from the default engine's runs.
func probeCPU(reps int, _ int64, parent span, m metrics) error {
	engines := []sim.Engine{sim.Reference, sim.FastPath, sim.Blocks, sim.Traces}
	var newUS []float64
	for _, set := range []struct {
		name  string
		progs []string
	}{{"short", shortPrograms}, {"long", longPrograms}} {
		progs, err := compile(set.progs, false)
		if err != nil {
			return err
		}
		nsPerInstr := map[sim.Engine][]float64{}
		var trans cpu.TranslationStats // summed over the set, traces engine
		var instrs uint64
		var newSum, opSum, allocKB float64
		for _, p := range progs {
			kb, err := allocatedKB(func() error { return runProgram(p, span{}) })
			if err != nil {
				return err
			}
			allocKB += kb
			for _, e := range engines {
				var runNs, newT, opT []float64
				for r := 0; r < reps; r++ {
					op := parent.child("bench", "run "+p.Name+" on "+e.String())
					s := op.child("sim", "sim.New")
					mach, err := sim.New(sim.WithEngine(e))
					dNew := s.end()
					if err != nil {
						return err
					}
					if err := mach.Load(p.im); err != nil {
						return err
					}
					s = op.child("cpu", "Machine.Run")
					n, err := mach.Run(maxSteps)
					dRun := s.end()
					dOp := op.end()
					if err != nil {
						return fmt.Errorf("%s on %s: %w", p.Name, e, err)
					}
					if mach.Output() != p.want {
						return fmt.Errorf("%s on %s: output %q, want %q", p.Name, e, mach.Output(), p.want)
					}
					runNs = append(runNs, float64(dRun)/float64(n))
					newT = append(newT, us(dNew))
					opT = append(opT, us(dOp))
					if e == sim.Traces && r == 0 {
						t := mach.Trans()
						instrs += n
						for k := range trans.TierInstrs {
							trans.TierInstrs[k] += t.TierInstrs[k]
						}
						trans.TraceGuardExits += t.TraceGuardExits
						trans.TraceFormed += t.TraceFormed
						trans.TraceDeoptChainBudget += t.TraceDeoptChainBudget
					}
				}
				nsPerInstr[e] = append(nsPerInstr[e], median(runNs))
				if e == sim.Traces {
					m.set("cpu.ns_per_instr.traces."+p.Name, "ns/instr", median(runNs))
					newUS = append(newUS, newT...)
					newSum += median(newT)
					opSum += median(opT)
				}
			}
		}
		for _, e := range engines {
			m.set("cpu.ns_per_instr."+e.String()+"."+set.name, "ns/instr", geomean(nsPerInstr[e]))
		}
		// The reference tier retires nothing on the traces engine.
		for _, t := range []cpu.Tier{cpu.TierFast, cpu.TierBlocks, cpu.TierTraces} {
			m.set("cpu.tier_share."+t.String()+"."+set.name, "fraction", float64(trans.TierInstrs[t])/float64(instrs))
		}
		m.set("cpu.guard_exits_per_kinstr."+set.name, "count/kinstr", 1000*float64(trans.TraceGuardExits)/float64(instrs))
		m.set("cpu.traces_formed."+set.name, "count", float64(trans.TraceFormed))
		m.set("sim.alloc_kb_per_op."+set.name, "KB", allocKB/float64(len(progs)))
		switch set.name {
		case "short":
			m.set("sim.new_share.short", "fraction", newSum/opSum)
		case "long":
			m.set("cpu.deopt_chain_budget.long", "count", float64(trans.TraceDeoptChainBudget))
		}
	}
	m.set("sim.new_us.bare", "us", median(newUS))
	return nil
}

// kernelMachine builds a kernel machine with the given processes
// loaded and booted.
func kernelMachine(cfg kernel.Config, ims ...*isa.Image) (*sim.Machine, error) {
	mach, err := sim.New(sim.WithKernel(cfg))
	if err != nil {
		return nil, err
	}
	for _, im := range ims {
		if err := mach.Load(im); err != nil {
			return nil, err
		}
	}
	mach.Boot()
	return mach, nil
}

// runChecked runs a machine to halt and checks its output.
func runChecked(mach *sim.Machine, want string) (uint64, error) {
	n, err := mach.Run(maxSteps)
	if err != nil {
		return n, err
	}
	if got := mach.Output(); got != want {
		return n, fmt.Errorf("output %q, want %q", got, want)
	}
	return n, nil
}

// fibTemplate captures the golden template the job mix forks.
func fibTemplate(fibKernel *isa.Image) (*sim.Template, error) {
	master, err := kernelMachine(kernel.Config{}, fibKernel)
	if err != nil {
		return nil, err
	}
	return sim.NewTemplatePool().Capture(mixTemplate, master, 0)
}

// probeSnapshot times snapshot encode and restore of finished fib
// machines, template capture and template fork.
func probeSnapshot(reps int, _ int64, parent span, m metrics) error {
	fib, err := corpus.Get("fib")
	if err != nil {
		return err
	}
	bare, err := compileImage(fib, false)
	if err != nil {
		return err
	}
	kern, err := compileImage(fib, true)
	if err != nil {
		return err
	}
	newBare := func() (*sim.Machine, error) {
		mach, err := sim.New()
		if err == nil {
			err = mach.Load(bare)
		}
		return mach, err
	}
	newKernel := func() (*sim.Machine, error) { return kernelMachine(kernel.Config{}, kern) }
	for _, c := range []struct {
		name  string
		build func() (*sim.Machine, error)
	}{{"bare", newBare}, {"kernel", newKernel}} {
		mach, err := c.build()
		if err != nil {
			return err
		}
		if _, err := runChecked(mach, fib.Output); err != nil {
			return fmt.Errorf("%s fib: %w", c.name, err)
		}
		var enc, dec []float64
		var snap []byte
		var restored *sim.Machine
		for r := 0; r < reps; r++ {
			s := parent.child("sim", "Machine.SnapshotBytes")
			snap, err = mach.SnapshotBytes()
			enc = append(enc, ms(s.end()))
			if err != nil {
				return err
			}
			s = parent.child("sim", "sim.Restore")
			restored, err = sim.Restore(bytes.NewReader(snap))
			dec = append(dec, ms(s.end()))
			if err != nil {
				return err
			}
		}
		if restored.Output() != fib.Output {
			return fmt.Errorf("restored %s fib: output %q", c.name, restored.Output())
		}
		m.set("sim.snapshot_encode_ms."+c.name, "ms", median(enc))
		m.set("sim.restore_ms."+c.name, "ms", median(dec))
		m.set("sim.snapshot_kb."+c.name, "KB", float64(len(snap))/1024)
	}

	var capture, fork []float64
	var tpl *sim.Template
	for r := 0; r < reps; r++ {
		master, err := newKernel()
		if err != nil {
			return err
		}
		s := parent.child("sim", "TemplatePool.Capture")
		tpl, err = sim.NewTemplatePool().Capture(mixTemplate, master, 0)
		capture = append(capture, ms(s.end()))
		if err != nil {
			return err
		}
	}
	for r := 0; r < 20*reps; r++ {
		s := parent.child("sim", "Template.Fork")
		_, err := tpl.Fork()
		fork = append(fork, us(s.end()))
		if err != nil {
			return err
		}
	}
	kb, err := allocatedKB(func() error {
		_, err := tpl.Fork()
		return err
	})
	if err != nil {
		return err
	}
	m.set("sim.fork_alloc_kb", "KB", kb)
	m.set("sim.capture_ms", "ms", median(capture))
	m.set("sim.fork_us", "us", median(fork))
	return nil
}

// probeMem times address translation inside and beyond the TLB's
// reach, golden-frame forks and copy-on-write first writes, and counts
// the copy-on-write faults of one forked fib job.
func probeMem(reps int, _ int64, parent span, m metrics) error {
	// Pages p and p+TLBEntries share a slot of the direct-mapped TLB.
	// The first TLBEntries/2 pages all fit; cycling through 2*TLBEntries
	// pages evicts every entry before its page comes round again.
	const pages = 2 * mem.TLBEntries
	mmu := mem.NewMMU(mem.NewPhysical(pages * mem.PageWords))
	for p := uint32(0); p < pages; p++ {
		sys, f := mmu.Seg.Translate(p << mem.PageBits)
		if f != nil {
			return f
		}
		mmu.Map.Map(sys>>mem.PageBits, p, true)
	}
	translate := func(name string, n, reach int) (float64, error) {
		var ns []float64
		for r := 0; r < reps; r++ {
			s := parent.child("mem", "MMU.Translate "+name)
			for i := 0; i < n; i++ {
				addr := uint32(i%reach)<<mem.PageBits | uint32(i)&(mem.PageWords-1)
				if _, f := mmu.Translate(addr, false, true); f != nil {
					return 0, f
				}
			}
			ns = append(ns, float64(s.end())/float64(n))
		}
		return median(ns), nil
	}
	hit, err := translate("hit", 1<<20, mem.TLBEntries/2)
	if err != nil {
		return err
	}
	miss, err := translate("miss", 1<<18, pages)
	if err != nil {
		return err
	}
	m.set("mem.translate_ns.hit", "ns", hit)
	m.set("mem.translate_ns.miss", "ns", miss)

	fib, err := corpus.Get("fib")
	if err != nil {
		return err
	}
	kern, err := compileImage(fib, true)
	if err != nil {
		return err
	}
	master, err := kernelMachine(kernel.Config{}, kern)
	if err != nil {
		return err
	}
	golden := mem.GoldenFromState(master.Kernel().Phys.CaptureState())
	var fork, firstWrite []float64
	for r := 0; r < 20*reps; r++ {
		s := parent.child("mem", "Golden.Fork")
		golden.Fork()
		fork = append(fork, us(s.end()))
	}
	const writes = 64
	for r := 0; r < reps; r++ {
		phys := golden.Fork()
		s := parent.child("mem", "Physical.Write (first, copy-on-write)")
		for k := 0; k < writes; k++ {
			if f := phys.Write(uint32(golden.Pages()/2+k)<<mem.PageBits, 1); f != nil {
				return f
			}
		}
		firstWrite = append(firstWrite, us(s.end())/writes)
	}
	m.set("mem.golden_fork_us", "us", median(fork))
	m.set("mem.cow_first_write_us", "us", median(firstWrite))

	tpl, err := fibTemplate(kern)
	if err != nil {
		return err
	}
	job, err := tpl.Fork()
	if err != nil {
		return err
	}
	if _, err := runChecked(job, fib.Output); err != nil {
		return fmt.Errorf("forked fib: %w", err)
	}
	m.set("mem.cow_faults_per_job", "count", float64(job.COWStats().Faults))
	return nil
}

// probeKernel times kernel boot and kernel-hosted runs, alone and two
// at a time under the interval timer.
func probeKernel(reps int, _ int64, parent span, m metrics) error {
	progs, err := compile([]string{"fib", "queens"}, true)
	if err != nil {
		return err
	}
	var boot []float64
	for r := 0; r < 4*reps; r++ {
		s := parent.child("kernel", "boot (sim.New + Load + Boot)")
		_, err := kernelMachine(kernel.Config{}, progs[0].im)
		boot = append(boot, us(s.end()))
		if err != nil {
			return err
		}
	}
	m.set("kernel.boot_us", "us", median(boot))
	kb, err := allocatedKB(func() error {
		_, err := kernelMachine(kernel.Config{}, progs[0].im)
		return err
	})
	if err != nil {
		return err
	}
	m.set("kernel.boot_alloc_kb", "KB", kb)

	var instrs, blocks, faults uint64
	for _, p := range progs {
		var ns []float64
		for r := 0; r < reps; r++ {
			mach, err := kernelMachine(kernel.Config{}, p.im)
			if err != nil {
				return err
			}
			s := parent.child("kernel", "Machine.Run "+p.Name)
			n, err := runChecked(mach, p.want)
			ns = append(ns, float64(s.end())/float64(n))
			if err != nil {
				return fmt.Errorf("kernel %s: %w", p.Name, err)
			}
			if r == 0 {
				instrs += n
				blocks += mach.Trans().TierInstrs[cpu.TierBlocks]
				faults += uint64(mach.Kernel().PageFaults())
			}
		}
		m.set("kernel.ns_per_instr."+p.Name, "ns/instr", median(ns))
	}
	// Kernel-hosted programs retire nothing in the trace tier today, so
	// the blocks tier's share is the one to watch.
	m.set("kernel.tier_share.blocks", "fraction", float64(blocks)/float64(instrs))
	m.set("kernel.page_faults", "count", float64(faults))

	// Two fib processes preempted by the timer. Compiled programs end by
	// halting the machine, so the first to finish prints the output.
	var ns []float64
	var switches uint32
	for r := 0; r < reps; r++ {
		mach, err := kernelMachine(kernel.Config{TimerPeriod: 500}, progs[0].im, progs[0].im)
		if err != nil {
			return err
		}
		s := parent.child("kernel", "Machine.Run fib x2, timer")
		n, err := runChecked(mach, progs[0].want)
		ns = append(ns, float64(s.end())/float64(n))
		if err != nil {
			return fmt.Errorf("two fib processes: %w", err)
		}
		switches = mach.Kernel().ContextSwitches()
	}
	m.set("kernel.ns_per_instr.timer", "ns/instr", median(ns))
	m.set("kernel.ctxswitches", "count", float64(switches))
	return nil
}

// probeService runs the job mix against an in-process job service
// behind its HTTP handler on a loopback server, and reads each job's
// admission and run time from the service's terminal samples.
func probeService(reps int, seed int64, parent span, m metrics) error {
	var mu sync.Mutex
	var jobs []sim.JobSample
	var bareCompileMs []float64
	svc := sim.NewService(sim.ServiceConfig{OnJobTerminal: func(s sim.JobSample) {
		mu.Lock()
		jobs = append(jobs, s)
		mu.Unlock()
	}})
	defer svc.Close()
	progs := map[string]sim.ProgramFunc{}
	for _, p := range corpus.All() {
		p := p
		progs[p.Name] = func(kernelTarget bool) (*isa.Image, error) {
			start := time.Now()
			im, err := compileImage(p, kernelTarget)
			if !kernelTarget {
				mu.Lock()
				bareCompileMs = append(bareCompileMs, ms(time.Since(start)))
				mu.Unlock()
			}
			return im, err
		}
	}
	srv := httptest.NewServer(svc.Handler(sim.HTTPConfig{Programs: progs}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	if err := call(c, "PUT", srv.URL+"/v1/templates/"+mixTemplate, templateBody, nil); err != nil {
		return err
	}
	st := runMix(srv.URL, schedule(seed, serviceJobs), mixRate, parent.rec)
	if st.failed > 0 {
		return fmt.Errorf("%d of %d jobs failed, first: %w", st.failed, st.attempted, st.firstErr)
	}

	mu.Lock()
	defer mu.Unlock()
	adm, run := samples{}, samples{}
	var coldBare []float64
	var preempts uint64
	for _, j := range jobs {
		kind := j.Name[:strings.IndexByte(j.Name, '/')]
		adm.add(kind, 1000*j.AdmissionSeconds)
		run.add(kind, 1000*(j.LatencySeconds-j.AdmissionSeconds))
		if kind == "cold_bare" {
			coldBare = append(coldBare, 1000*j.LatencySeconds)
		}
		preempts += j.Preempts
	}
	for _, kind := range []string{"fork", "cold_kernel", "cold_bare"} {
		if len(adm[kind]) == 0 {
			return errors.New("no " + kind + " jobs ran; the service run is too short")
		}
		m.set("sim.admission_ms_p50."+kind, "ms", quantile(adm[kind], 0.5))
		m.set("sim.admission_ms_p90."+kind, "ms", quantile(adm[kind], 0.9))
		m.set("sim.run_ms_p50."+kind, "ms", quantile(run[kind], 0.5))
	}
	m.set("sim.preempts_per_job", "count", float64(preempts)/float64(len(jobs)))
	m.set("codegen.compile_share.mipsd", "fraction", median(bareCompileMs)/median(coldBare))
	m.set("sim.http.submit_ms_p50", "ms", quantile(st.submitMs, 0.5))
	m.set("sim.http.submit_ms_p90", "ms", quantile(st.submitMs, 0.9))
	m.set("sim.http.status_ms_p50", "ms", quantile(st.statusMs, 0.5))
	m.set("sim.http.status_ms_p90", "ms", quantile(st.statusMs, 0.9))
	m.set("sim.http.snapshot_ms_p50", "ms", quantile(st.snapshotMs, 0.5))
	m.set("sim.http.gen_lag_ms_p90", "ms", quantile(st.lagMs, 0.9))
	m.set("sim.http.polls_per_job", "count", float64(st.polls)/float64(st.attempted))
	return nil
}

// probeTables times every experiment of the evaluation, run in paper
// order on one worker.
func probeTables(reps int, _ int64, parent span, m metrics) error {
	order := make([]int, len(tables.All()))
	for i := range order {
		order[i] = i
	}
	times := map[string][]float64{}
	for r := 0; r < reps; r++ {
		out, t, err := paperPass(order, parent)
		if err != nil {
			return err
		}
		if out != paperGolden {
			return errors.New("evaluation output differs from testdata/paper.golden")
		}
		for name, d := range t {
			times[name] = append(times[name], ms(d))
		}
	}
	kb, err := allocatedKB(func() error {
		_, _, err := paperPass(order, span{})
		return err
	})
	if err != nil {
		return err
	}
	m.set("tables.alloc_mb_per_pass", "MB", kb/1024)
	for name, v := range times {
		if name == "corebench" {
			m.set("tables.corebench_ms", "ms", median(v))
		} else {
			m.set("tables.exp_ms."+name, "ms", median(v))
		}
	}
	return nil
}
