package sim_test

// Warm-fork admission must be invisible to the program: a job forked
// from a golden template must be observably identical — output, stats,
// registers, memory image, and observer event stream — to a job that
// cold-booted the same machine. These tests pin that on all four
// engines, with many concurrent forks sharing one golden frame set
// (run under -race), with a writer mutating pages while sibling forks
// read them, and across a snapshot-preempt-resume of a forked job.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/mem"
	"mips/internal/sim"
)

// bakeTemplate builds the template master (bare machine, fib) and
// captures it into a fresh pool.
func bakeTemplate(t *testing.T, warmup uint64) (*sim.TemplatePool, *sim.Template) {
	t.Helper()
	im := compileCorpus(t, "fib", false)
	// The master runs warm-up on the reference engine; snapshots are
	// engine-agnostic, so forks still run on any engine.
	master, err := sim.New(sim.WithEngine(sim.Reference))
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Load(im); err != nil {
		t.Fatal(err)
	}
	pool := sim.NewTemplatePool()
	tpl, err := pool.Capture("fib", master, warmup)
	if err != nil {
		t.Fatal(err)
	}
	return pool, tpl
}

// coldRun runs fib cold on the given engine with a fresh hasher and
// returns its image.
func coldRun(t *testing.T, eng sim.Engine, stepHook bool) machineImage {
	t.Helper()
	im := compileCorpus(t, "fib", false)
	eh := newEventHasher()
	m, err := sim.New(sim.WithEngine(eng), sim.WithHooks(eh.hooks(stepHook)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	return capture(t, m, eh)
}

// TestTemplateForkDifferential forks several jobs from one template
// concurrently on every engine; each fork's whole observable image must
// equal the cold-booted run's. Run under -race this also exercises the
// golden frame set's share-without-synchronization contract.
func TestTemplateForkDifferential(t *testing.T) {
	_, tpl := bakeTemplate(t, 0)
	engines := []sim.Engine{sim.Reference, sim.FastPath, sim.Blocks, sim.Traces}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			stepHook := eng != sim.Blocks && eng != sim.Traces
			straight := coldRun(t, eng, stepHook)

			const nForks = 3
			var wg sync.WaitGroup
			images := make([]machineImage, nForks)
			cows := make([]mem.COWStats, nForks)
			errs := make([]error, nForks)
			for i := 0; i < nForks; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					eh := newEventHasher()
					f, err := tpl.Fork(sim.WithEngine(eng), sim.WithHooks(eh.hooks(stepHook)))
					if err != nil {
						errs[i] = err
						return
					}
					if _, err := f.Run(200_000_000); err != nil {
						errs[i] = err
						return
					}
					images[i] = capture(t, f, eh)
					cows[i] = f.COWStats()
				}(i)
			}
			wg.Wait()
			for i := 0; i < nForks; i++ {
				if errs[i] != nil {
					t.Fatalf("fork %d: %v", i, errs[i])
				}
				diffImages(t, straight, images[i])
				if !cows[i].Forked || cows[i].Faults == 0 {
					t.Errorf("fork %d ran without COW faults (%+v); the fork path was not exercised", i, cows[i])
				}
			}
			if straight.output == "" {
				t.Error("no output; the comparison is vacuous")
			}
		})
	}
}

// TestTemplateForkKernel forks the full kernel machine — demand paging,
// preemptive timer, two processes — and compares against cold boot.
// It also pins the O(pages-touched) claim: the fork must privatize far
// fewer pages than the machine holds.
func TestTemplateForkKernel(t *testing.T) {
	im := compileCorpus(t, "fib", true)
	build := func(eh *eventHasher) *sim.Machine {
		opts := []sim.Option{
			sim.WithEngine(sim.FastPath),
			sim.WithKernel(kernel.Config{TimerPeriod: 500}),
		}
		if eh != nil {
			opts = append(opts, sim.WithHooks(eh.hooks(false)))
		}
		m, err := sim.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := m.Load(im); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	ehA := newEventHasher()
	a := build(ehA)
	if _, err := a.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	straight := capture(t, a, ehA)
	if straight.output == "" {
		t.Fatal("kernel run produced no output; the comparison is vacuous")
	}

	pool := sim.NewTemplatePool()
	tpl, err := pool.Capture("fib-kernel", build(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	ehB := newEventHasher()
	f, err := tpl.Fork(sim.WithHooks(ehB.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Kernel() == nil {
		t.Fatal("forked machine lost its kernel")
	}
	if f.Template() != "fib-kernel" {
		t.Fatalf("fork template = %q", f.Template())
	}
	if _, err := f.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, straight, capture(t, f, ehB))

	cow := f.COWStats()
	totalPages := int(f.CPU().Bus.MMU.Phys.Size()+mem.PageWords-1) / mem.PageWords
	if cow.Faults == 0 {
		t.Error("kernel fork ran without a single COW fault")
	}
	if cow.PrivatePages*2 >= totalPages {
		t.Errorf("fork privatized %d of %d pages; admission is not O(pages-touched)", cow.PrivatePages, totalPages)
	}
}

// TestTemplateForkIsolation has a writer fork mutating pages while
// sibling forks read the same addresses concurrently: the siblings must
// keep seeing the golden contents (run under -race).
func TestTemplateForkIsolation(t *testing.T) {
	_, tpl := bakeTemplate(t, 0)
	writer, err := tpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[uint32]uint32)
	phys := writer.CPU().Bus.MMU.Phys
	addrs := []uint32{0, 100, mem.PageWords, 2 * mem.PageWords, 3*mem.PageWords + 17, phys.Size() - 1}
	for _, a := range addrs {
		golden[a] = phys.Peek(a)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for round := uint32(0); round < 100; round++ {
			for _, a := range addrs {
				phys.Poke(a, 0xBAD00000|round)
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sibling, err := tpl.Fork()
			if err != nil {
				t.Error(err)
				return
			}
			sp := sibling.CPU().Bus.MMU.Phys
			<-start
			for round := 0; round < 100; round++ {
				for _, a := range addrs {
					if v := sp.Peek(a); v != golden[a] {
						t.Errorf("sibling saw writer's mutation at %#x: %#x (golden %#x)", a, v, golden[a])
						return
					}
				}
			}
			if st := sibling.COWStats(); st.PrivatePages != 0 {
				t.Errorf("read-only sibling privatized %d pages", st.PrivatePages)
			}
		}()
	}
	close(start)
	wg.Wait()

	if st := writer.COWStats(); st.Faults == 0 {
		t.Error("writer fork poked pages without COW faults")
	}
}

// bytesPerRun reports the heap bytes f allocates per call, averaged
// over n calls on one P so other goroutines add as little as possible.
func bytesPerRun(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestTemplateForkSharesInstructionPages pins the copy-on-write rule for
// instruction memory: a fork starts with no instruction page of its
// own, so its first harness write allocates one page copy (4 KB) and a
// second write into that page allocates nothing more; neither the
// template nor a sibling fork sees the write. Siblings, bare and
// kernel, then run to halt concurrently over the shared pages (run
// under -race).
func TestTemplateForkSharesInstructionPages(t *testing.T) {
	_, tpl := bakeTemplate(t, 0)
	writer, err := tpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	pa := writer.CPU().PC()
	orig := writer.CPU().IMem.At(pa)
	nop := isa.Word(isa.Nop())
	const page = 256 * unsafe.Sizeof(isa.Instr{})
	fork := bytesPerRun(20, func() { _, _ = tpl.Fork() })
	once := bytesPerRun(20, func() {
		f, _ := tpl.Fork()
		f.CPU().WriteCode(pa, []isa.Instr{nop})
	}) - fork
	twice := bytesPerRun(20, func() {
		f, _ := tpl.Fork()
		f.CPU().WriteCode(pa, []isa.Instr{nop})
		f.CPU().WriteCode(pa+1, []isa.Instr{nop})
	}) - fork
	if once < float64(page) || once >= 2*float64(page) {
		t.Errorf("a fork's first instruction write allocates %.0f B; want one %d B page copy", once, page)
	}
	if twice-once > float64(page)/4 {
		t.Errorf("a second write into the copied page allocates %.0f B more; want no further copy", twice-once)
	}
	writer.CPU().WriteCode(pa, []isa.Instr{nop})
	if writer.CPU().IMem.At(pa) != nop {
		t.Fatal("the writer lost its write")
	}
	if later, err := tpl.Fork(); err != nil || later.CPU().IMem.At(pa) != orig {
		t.Fatalf("the write reached the template (err %v)", err)
	}

	kim := compileCorpus(t, "fib", true)
	kmaster, err := sim.New(sim.WithKernel(kernel.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := kmaster.Load(kim); err != nil {
		t.Fatal(err)
	}
	ktpl, err := sim.NewTemplatePool().Capture("fib-kernel", kmaster, 0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	outs := make([]string, 8)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := tpl
			if i%2 == 1 {
				from = ktpl
			}
			f, err := from.Fork()
			if err != nil {
				t.Error(err)
				return
			}
			if f.CPU().IMem.At(pa) != orig && i%2 == 0 {
				t.Error("a sibling saw the writer's instruction")
			}
			if _, err := f.Run(100_000_000); err != nil {
				t.Error(err)
				return
			}
			outs[i] = f.Output()
		}()
	}
	wg.Wait()
	for i := 2; i < len(outs); i++ {
		if outs[i] != outs[i%2] || outs[i] == "" {
			t.Errorf("fork %d output %q, want %q", i, outs[i], outs[i%2])
		}
	}
}

// TestTemplateForkSnapshotPreemptResume checkpoints a forked job
// mid-run — the capture must flatten the COW pages into a
// self-contained snapshot — and resumes it after the template is gone.
func TestTemplateForkSnapshotPreemptResume(t *testing.T) {
	straight := coldRun(t, sim.FastPath, true)

	pool, tpl := bakeTemplate(t, 0)
	eh := newEventHasher()
	f, err := tpl.Fork(sim.WithHooks(eh.hooks(true)))
	if err != nil {
		t.Fatal(err)
	}
	if _, halted := f.RunSteps(2000); halted {
		t.Fatal("fork finished before the checkpoint; the test is vacuous")
	}
	if f.COWStats().Faults == 0 {
		t.Fatal("fork checkpoint lands before any COW fault; the flattening property is vacuous")
	}
	snap, err := f.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	// Drop the template entirely: the snapshot must restore without it.
	if !pool.Delete("fib") {
		t.Fatal("template delete failed")
	}
	r, err := sim.Restore(bytes.NewReader(snap), sim.WithHooks(eh.hooks(true)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Template() != "fib" {
		t.Errorf("restored fork lost its template provenance: %q", r.Template())
	}
	if st := r.COWStats(); st.Forked {
		t.Errorf("restored machine still claims COW sharing: %+v", st)
	}
	if _, err := r.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	diffImages(t, straight, capture(t, r, eh))
}

// TestTemplateForkNoCopiesUntilWrite pins the admission cost claim the
// benchmark gate relies on: a fresh fork has made zero page copies, and
// page copies appear only as stores land.
func TestTemplateForkNoCopiesUntilWrite(t *testing.T) {
	_, tpl := bakeTemplate(t, 0)
	f, err := tpl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	st := f.COWStats()
	if !st.Forked || st.PrivatePages != 0 || st.Faults != 0 {
		t.Fatalf("fresh fork COW state %+v; admission copied pages before first write", st)
	}
	if _, halted := f.RunSteps(500); !halted {
		// fib may or may not halt in 500 steps; either way stores landed.
		_ = halted
	}
	if st := f.COWStats(); st.Faults == 0 {
		t.Fatal("running fork never faulted a page copy")
	}
}

// TestForkAndRestoreStartCold pins that translation counters describe
// only a machine's own work, like the caches they count: a fork of a
// template warmed on the trace tier, and a restore of the same
// snapshot, start with zero Trans, and the fork then forms exactly the
// traces a cold machine forms instead of adding them to the template's.
func TestForkAndRestoreStartCold(t *testing.T) {
	im := compileCorpus(t, "fib", false)
	master, err := sim.New(sim.WithEngine(sim.Traces))
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Load(im); err != nil {
		t.Fatal(err)
	}
	// 1,324 steps form six traces, long before fib halts.
	tpl, err := sim.NewTemplatePool().Capture("fib", master, 1324)
	if err != nil {
		t.Fatal(err)
	}
	if master.Trans().TraceFormed == 0 {
		t.Fatal("warm-up formed no trace; the test is vacuous")
	}

	f, err := tpl.Fork(sim.WithEngine(sim.Traces))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Restore(bytes.NewReader(tpl.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*sim.Machine{"fork": f, "restore": r} {
		if got := *m.Trans(); got != (cpu.TranslationStats{}) {
			t.Errorf("%s starts with Trans %+v, want zero", name, got)
		}
	}

	// A machine loaded with master's image adopts master's traces, so
	// the cold machine gets an image of its own.
	cold, err := sim.New(sim.WithEngine(sim.Traces))
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Load(compileCorpus(t, "fib", false)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*sim.Machine{f, cold} {
		if _, err := m.Run(200_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := f.Trans().TraceFormed, cold.Trans().TraceFormed; got != want {
		t.Errorf("fork formed %d traces, cold machine %d", got, want)
	}
}

// TestTemplateWarmupFork captures a template after a warm-up budget;
// forks resume mid-program and must still finish with the cold run's
// output and cumulative instruction count.
func TestTemplateWarmupFork(t *testing.T) {
	straight := coldRun(t, sim.Traces, false)

	_, tpl := bakeTemplate(t, 3000)
	f, err := tpl.Fork(sim.WithEngine(sim.Traces))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if !f.Halted() {
		t.Fatal("warm fork did not halt")
	}
	if got := f.Output(); got != straight.output {
		t.Errorf("warm fork output = %q, want %q", got, straight.output)
	}
	// Stats ride the snapshot: the fork's cumulative counts must equal
	// the uninterrupted run's.
	if got := f.Stats().Instructions; got != straight.stats.Instructions {
		t.Errorf("warm fork retired %d cumulative instructions, want %d", got, straight.stats.Instructions)
	}
}
