package sim_test

// A job's published record: readers never wait for the worker, a
// finished job keeps its output and snapshot but not its machine, and
// the history of finished jobs is bounded by the queue depth.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mips/internal/corpus"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/sim"
	"mips/internal/trace"
)

// within fails the test if f does not return in time.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked while a worker was busy", what)
	}
}

// TestSubmitNeverWaitsOutABuild holds the only worker inside a job's
// Build and requires every submission and status read to return
// meanwhile, in-process and over HTTP.
func TestSubmitNeverWaitsOutABuild(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	progs := testPrograms(t)
	fib := progs["fib"]
	progs["blocked"] = func(kernelTarget bool) (*isa.Image, error) {
		entered <- struct{}{}
		<-release
		return fib(kernelTarget)
	}
	svc := sim.NewService(sim.ServiceConfig{Workers: 1})
	ts := httptest.NewServer(svc.Handler(sim.HTTPConfig{Programs: progs}))
	t.Cleanup(func() {
		releaseOnce.Do(func() { close(release) })
		ts.Close()
		svc.Close()
	})
	client := &http.Client{Timeout: 10 * time.Second}
	call := func(method, path, body string) sim.Status {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s while a worker was busy: %v", method, path, err)
		}
		defer resp.Body.Close()
		var st sim.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
			t.Fatalf("%s %s: status %d, undecodable job status (%v)", method, path, resp.StatusCode, err)
		}
		return st
	}

	blocked := call("POST", "/v1/jobs", `{"program":"blocked"}`)
	select {
	case <-entered:
	case <-time.After(time.Minute):
		t.Fatal("the worker never started the job's build")
	}

	im := compileCorpus(t, "fib", false)
	var j *sim.Job
	within(t, "Submit", func() {
		var err error
		j, err = svc.Submit(sim.JobSpec{Name: "fib", Build: buildFor(im, sim.Traces)})
		if err != nil {
			t.Error(err)
		}
	})
	if j == nil {
		t.FailNow()
	}
	within(t, "Job.Status", func() {
		if st := j.Status(); st.State != "queued" {
			t.Errorf("a job behind the busy worker is %s, want queued", st.State)
		}
	})
	if st := call("POST", "/v1/jobs", `{"program":"fib"}`); st.State != "queued" {
		t.Errorf("POST /v1/jobs answered state %s, want queued", st.State)
	}
	if st := call("GET", "/v1/jobs/"+blocked.ID, ""); st.State != "queued" {
		t.Errorf("GET of the job in its build answered state %s, want queued", st.State)
	}

	releaseOnce.Do(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, job := range svc.Jobs() {
		if err := job.Wait(ctx); err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
	}
}

// TestJobReadersAcrossTheTerminalState reads one job from several
// goroutines while it runs in small quanta and finishes. Every output a
// reader sees is a prefix of the program's, and after the finish every
// read comes from the terminal record: the full output, a snapshot that
// restores to it, and the JIT sites kept for the service's JIT log.
func TestJobReadersAcrossTheTerminalState(t *testing.T) {
	p, err := corpus.Get("sort")
	if err != nil {
		t.Fatal(err)
	}
	im := compileCorpus(t, "sort", false)
	svc := sim.NewService(sim.ServiceConfig{Workers: 2, Quantum: 200, JIT: trace.NewJITLog(1 << 10)})
	defer svc.Close()
	j, err := svc.Submit(sim.JobSpec{Name: "sort", Build: buildFor(im, sim.Traces)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for finished := false; !finished; {
				finished = j.Status().State == "done"
				if out, err := j.Output(); err == nil && !strings.HasPrefix(p.Output, out) {
					t.Errorf("a reader saw output %q, not a prefix of the program's", out)
				}
				j.Snapshot()
				j.JITSites()
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if out, err := j.Output(); err != nil || out != p.Output {
		t.Errorf("finished output = %q (%v), want %q", out, err, p.Output)
	}
	snap, err := j.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Restore(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if m.Output() != p.Output || !m.Halted() {
		t.Errorf("the finished snapshot restores to output %q (halted %v)", m.Output(), m.Halted())
	}
	if sites, ok := j.JITSites(); !ok || sites.Tiers["traces"] == 0 {
		t.Errorf("finished job's JIT sites: ok %v, tiers %v", ok, sites.Tiers)
	}
}

// TestServiceEvictsFinishedJobs runs 12 jobs through a service of queue
// depth 4 beside one job that never finishes: only the 4 latest
// finished jobs stay, an evicted ID answers ErrJobEvicted (410
// "evicted" over HTTP), and a list cursor naming an evicted job
// resumes after it.
func TestServiceEvictsFinishedJobs(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 2, QueueDepth: 4, Quantum: 500})
	spin := h.submit(map[string]any{"program": "spin", "engine": "fast", "max_steps": uint64(1 << 40)})
	ids := []string{spin.ID}
	for i := 0; i < 12; i++ {
		st := h.submit(map[string]any{"program": "fib", "name": fmt.Sprintf("fib-%d", i)})
		if final := h.waitDone(st.ID); final.State != "done" {
			t.Fatalf("%s ended %s", st.ID, final.State)
		}
		ids = append(ids, st.ID)
	}
	tracked := func() []string {
		var out []string
		for _, j := range h.svc.Jobs() {
			out = append(out, j.ID)
		}
		return out
	}
	if got, want := tracked(), append([]string{spin.ID}, ids[9:]...); !slices.Equal(got, want) {
		t.Fatalf("tracked jobs = %v, want the running job and the 4 latest finished %v", got, want)
	}

	for _, id := range ids[1:9] {
		if _, err := h.svc.Job(id); !errors.Is(err, sim.ErrJobEvicted) {
			t.Errorf("Job(%s): err = %v, want ErrJobEvicted", id, err)
		}
	}
	for _, id := range []string{"job-99", "job-0", "job-01", "nope"} {
		if _, err := h.svc.Job(id); !errors.Is(err, sim.ErrJobNotFound) {
			t.Errorf("Job(%s): err = %v, want ErrJobNotFound", id, err)
		}
	}
	for _, path := range []string{"", "/output", "/snapshot", "/profile"} {
		resp, body := h.get("/v1/jobs/" + ids[1] + path)
		if resp.StatusCode != http.StatusGone || h.errCode(body) != sim.CodeEvicted {
			t.Errorf("GET evicted%s: status %d code %q, want 410 %q", path, resp.StatusCode, h.errCode(body), sim.CodeEvicted)
		}
	}
	resp, body := h.postJSON("/v1/jobs/"+ids[1]+"/cancel", nil)
	if resp.StatusCode != http.StatusGone || h.errCode(body) != sim.CodeEvicted {
		t.Errorf("cancel evicted: status %d code %q, want 410", resp.StatusCode, h.errCode(body))
	}
	resp, body = h.get("/v1/jobs/job-99")
	if resp.StatusCode != http.StatusNotFound || h.errCode(body) != sim.CodeNotFound {
		t.Errorf("GET never-issued job: status %d code %q, want 404", resp.StatusCode, h.errCode(body))
	}
	for _, id := range ids[9:] {
		if resp, body := h.get("/v1/jobs/" + id + "/snapshot"); resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET retained %s/snapshot: status %d, %d bytes", id, resp.StatusCode, len(body))
		}
	}

	// Finishing the long job evicts the earliest finished one.
	h.postJSON("/v1/jobs/"+spin.ID+"/cancel", nil)
	h.waitDone(spin.ID)
	if got, want := tracked(), append([]string{spin.ID}, ids[10:]...); !slices.Equal(got, want) {
		t.Fatalf("after the long job finished, tracked = %v, want %v", got, want)
	}

	listAfter := func(cursor string) (int, []string) {
		resp, body := h.get("/v1/jobs?after=" + cursor)
		var page struct {
			Jobs []sim.Status `json:"jobs"`
		}
		json.Unmarshal(body, &page)
		var out []string
		for _, st := range page.Jobs {
			out = append(out, st.ID)
		}
		return resp.StatusCode, out
	}
	for _, c := range []struct {
		cursor string
		want   []string
	}{
		{spin.ID, ids[10:]},   // tracked
		{ids[3], ids[10:]},    // evicted: resumes after it
		{ids[10], ids[11:]},   // tracked
		{ids[12], []string{}}, // the last
	} {
		code, got := listAfter(c.cursor)
		if code != http.StatusOK || !slices.Equal(got, c.want) {
			t.Errorf("?after=%s: status %d, jobs %v, want 200 %v", c.cursor, code, got, c.want)
		}
	}
	if code, _ := listAfter("job-99"); code != http.StatusBadRequest {
		t.Errorf("?after= a never-issued job: status %d, want 400", code)
	}
}

// TestServiceFinishedJobRetention pins what a finished job costs the
// service: at most its output, its snapshot and a small constant. It
// runs 200 jobs of three mipsd kinds (kernel fib forked from a
// template, cold kernel strings, cold bare calc) and measures the live
// heap after two collections; a job that kept its machine would hold
// 130–210 KB more.
func TestServiceFinishedJobRetention(t *testing.T) {
	const jobs = 200
	const perJobConstant = 2048
	kfib := compileCorpus(t, "fib", true)
	kstrings := compileCorpus(t, "strings", true)
	calc := compileCorpus(t, "calc", false)
	kernelBuild := func(im *isa.Image) func() (*sim.Machine, error) {
		return func() (*sim.Machine, error) {
			m, err := sim.New(sim.WithKernel(kernel.Config{}))
			if err != nil {
				return nil, err
			}
			return m, m.Load(im)
		}
	}
	master, err := kernelBuild(kfib)()
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := sim.NewTemplatePool().Capture("fib-kernel", master, 0)
	if err != nil {
		t.Fatal(err)
	}
	builds := []func() (*sim.Machine, error){
		func() (*sim.Machine, error) { return tpl.Fork() },
		kernelBuild(kstrings),
		buildFor(calc, sim.Traces),
	}
	svc := sim.NewService(sim.ServiceConfig{Workers: 2})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		j, err := svc.Submit(sim.JobSpec{Build: builds[i%len(builds)]})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("%s: %v", j.ID, err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	kept := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / jobs
	var payload int
	for _, j := range svc.Jobs() {
		out, err := j.Output()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := j.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		payload += len(out) + len(snap)
	}
	if n := len(svc.Jobs()); n != jobs {
		t.Fatalf("service tracks %d jobs, want %d", n, jobs)
	}
	limit := float64(payload)/jobs + perJobConstant
	t.Logf("kept %.0f B per finished job; output+snapshot %.0f B", kept, float64(payload)/jobs)
	if kept > limit {
		t.Errorf("a finished job keeps %.0f B of heap, want at most its output and snapshot plus %d B (%.0f B)", kept, perJobConstant, limit)
	}
}

// TestHTTPFinishedSnapshotMatchesMachine pins the migrate path: the
// snapshot a finished job serves is byte for byte the snapshot of a
// machine that ran the same job to the same halt.
func TestHTTPFinishedSnapshotMatchesMachine(t *testing.T) {
	const quantum = 1_000_000
	pool := sim.NewTemplatePool()
	progs := testPrograms(t)
	svc := sim.NewService(sim.ServiceConfig{Workers: 2, Quantum: quantum})
	ts := httptest.NewServer(svc.Handler(sim.HTTPConfig{Programs: progs, Templates: pool}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	h := &httpHarness{t: t, ts: ts, svc: svc}
	if resp, body := h.do(http.MethodPut, "/v1/templates/fib-kernel", map[string]any{"program": "fib", "kernel": true}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("template put: status %d: %s", resp.StatusCode, body)
	}
	tpl, err := pool.Get("fib-kernel")
	if err != nil {
		t.Fatal(err)
	}
	fib, err := progs["fib"](false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		req   map[string]any
		build func() (*sim.Machine, error)
	}{
		{"fork", map[string]any{"template": "fib-kernel", "engine": "traces"}, func() (*sim.Machine, error) {
			return tpl.Fork(sim.WithEngine(sim.Traces))
		}},
		{"cold", map[string]any{"program": "fib", "engine": "fast"}, buildFor(fib, sim.FastPath)},
	} {
		st := h.submit(c.req)
		if final := h.waitDone(st.ID); final.State != "done" {
			t.Fatalf("%s: job ended %s (%s)", c.name, final.State, final.Error)
		}
		resp, served := h.get("/v1/jobs/" + st.ID + "/snapshot")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: snapshot status %d", c.name, resp.StatusCode)
		}
		m, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		for halted := false; !halted; {
			_, halted = m.RunSteps(quantum)
		}
		want, err := m.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want) {
			t.Errorf("%s: the finished job serves a %d-byte snapshot that differs from the %d-byte snapshot of the same run", c.name, len(served), len(want))
		}
		restored, err := sim.Restore(bytes.NewReader(served))
		if err != nil {
			t.Fatal(err)
		}
		if restored.Output() != m.Output() {
			t.Errorf("%s: restored output %q, want %q", c.name, restored.Output(), m.Output())
		}
	}
}
