package sim_test

// End-to-end over the wire: submit a job, poll it to completion, fetch
// its output and snapshot, resubmit the snapshot as a new job, and get
// the same answer — the same loop scripts/mipsd_smoke.sh runs against a
// real daemon in CI.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mips/internal/asm"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/isa"
	"mips/internal/reorg"
	"mips/internal/sim"
)

func testPrograms(t *testing.T) map[string]sim.ProgramFunc {
	t.Helper()
	progs := map[string]sim.ProgramFunc{}
	for _, name := range []string{"fib", "sort"} {
		p, err := corpus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		src := p.Source
		progs[name] = func(kernelTarget bool) (*isa.Image, error) {
			mopt := codegen.MIPSOptions{}
			if kernelTarget {
				mopt.StackTop = codegen.KernelStackTop
			}
			im, _, err := codegen.CompileMIPS(src, mopt, reorg.All())
			return im, err
		}
	}
	// A program that never halts, for cancellation and backpressure.
	progs["spin"] = func(bool) (*isa.Image, error) {
		// Text at 16, codegen.BareTextBase: word 0 holds the monitor's rfe.
		u, err := asm.Parse("\t.text 16\n\t.entry main\nmain:\tjmp main\n")
		if err != nil {
			return nil, err
		}
		ro, _ := reorg.Reorganize(u, reorg.All())
		return asm.Assemble(ro)
	}
	return progs
}

type httpHarness struct {
	t   *testing.T
	ts  *httptest.Server
	svc *sim.Service
}

func newHTTPHarness(t *testing.T, cfg sim.ServiceConfig) *httpHarness {
	t.Helper()
	svc := sim.NewService(cfg)
	ts := httptest.NewServer(svc.Handler(sim.HTTPConfig{Programs: testPrograms(t)}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &httpHarness{t: t, ts: ts, svc: svc}
}

func (h *httpHarness) postJSON(path string, body any) (*http.Response, []byte) {
	h.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func (h *httpHarness) get(path string) (*http.Response, []byte) {
	h.t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// submit posts a job and returns its status.
func (h *httpHarness) submit(req map[string]any) sim.Status {
	h.t.Helper()
	resp, body := h.postJSON("/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		h.t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st sim.Status
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatalf("submit response: %v", err)
	}
	return st
}

// waitDone polls a job's status endpoint until it is terminal.
func (h *httpHarness) waitDone(id string) sim.Status {
	h.t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, body := h.get("/v1/jobs/" + id)
		if resp.StatusCode != http.StatusOK {
			h.t.Fatalf("status %s: %d: %s", id, resp.StatusCode, body)
		}
		var st sim.Status
		if err := json.Unmarshal(body, &st); err != nil {
			h.t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("job %s never finished", id)
	return sim.Status{}
}

func TestHTTPJobLifecycle(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 2, Quantum: 500})

	// Unknown program and bad engine are rejected eagerly.
	if resp, _ := h.postJSON("/v1/jobs", map[string]any{"program": "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown program: status %d", resp.StatusCode)
	}
	if resp, _ := h.postJSON("/v1/jobs", map[string]any{"program": "fib", "engine": "warp"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine: status %d", resp.StatusCode)
	}

	// Submit, poll to done, read the output.
	st := h.submit(map[string]any{"program": "fib", "engine": "blocks"})
	final := h.waitDone(st.ID)
	if final.State != "done" {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
	resp, out := h.get("/v1/jobs/" + st.ID + "/output")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("output: status %d", resp.StatusCode)
	}
	p, _ := corpus.Get("fib")
	if p.Output != "" && string(out) != p.Output {
		t.Errorf("output = %q, want %q", out, p.Output)
	}

	// The terminal job still snapshots; resubmitting the snapshot runs
	// to the same output (it is already halted, so it finishes at once).
	resp, snap := h.get("/v1/jobs/" + st.ID + "/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	re := h.submit(map[string]any{"snapshot": snap, "engine": "fast", "name": "fib-resumed"})
	refinal := h.waitDone(re.ID)
	if refinal.State != "done" {
		t.Fatalf("resumed job state = %s (%s)", refinal.State, refinal.Error)
	}
	if refinal.Output != string(out) {
		t.Errorf("resumed output = %q, want %q", refinal.Output, out)
	}

	// The listing shows both jobs.
	resp, body := h.get("/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list struct{ Jobs []sim.Status }
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Errorf("listing has %d jobs, want 2", len(list.Jobs))
	}

	// Unknown job IDs 404.
	if resp, _ := h.get("/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
}

func TestHTTPSnapshotMidRunMigratesEngines(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 1, Quantum: 200})

	st := h.submit(map[string]any{"program": "sort", "engine": "reference"})
	// Poll for a mid-run snapshot (409 until the machine is built).
	var snap []byte
	deadline := time.Now().Add(time.Minute)
	for {
		resp, body := h.get("/v1/jobs/" + st.ID + "/snapshot")
		if resp.StatusCode == http.StatusOK {
			snap = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot: last status %d", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	re := h.submit(map[string]any{"snapshot": snap, "engine": "blocks"})
	a := h.waitDone(st.ID)
	b := h.waitDone(re.ID)
	if a.State != "done" || b.State != "done" {
		t.Fatalf("states: original %s (%s), resumed %s (%s)", a.State, a.Error, b.State, b.Error)
	}
	if a.Output != b.Output {
		t.Errorf("engine migration changed output:\n original %q\n  resumed %q", a.Output, b.Output)
	}
	if a.Output == "" {
		t.Error("no output; the comparison is vacuous")
	}
}

func TestHTTPCancelAndBackpressure(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 1, QueueDepth: 2, Quantum: 100})

	// Two never-halting jobs fill the queue; the third bounces with 429.
	longjob := map[string]any{"program": "spin", "engine": "reference", "max_steps": uint64(200_000_000)}
	a := h.submit(longjob)
	b := h.submit(longjob)
	resp, _ := h.postJSON("/v1/jobs", longjob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}

	// Cancel both over the wire.
	for _, id := range []string{a.ID, b.ID} {
		resp, body := h.postJSON("/v1/jobs/"+id+"/cancel", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d: %s", id, resp.StatusCode, body)
		}
	}
	for _, id := range []string{a.ID, b.ID} {
		if st := h.waitDone(id); st.State != "cancelled" && st.State != "done" {
			t.Errorf("job %s state = %s after cancel", id, st.State)
		}
	}
}

// TestHTTPKernelJob submits a multi-process kernel job over the wire.
func TestHTTPKernelJob(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 2, Quantum: 2000})
	st := h.submit(map[string]any{"program": "fib", "kernel": true, "timer": 400, "processes": 2})
	final := h.waitDone(st.ID)
	if final.State != "done" {
		t.Fatalf("kernel job state = %s (%s)", final.State, final.Error)
	}
	if final.Output == "" {
		t.Error("kernel job produced no console output")
	}

	// processes > 1 without kernel is a 400.
	if resp, _ := h.postJSON("/v1/jobs", map[string]any{"program": "fib", "processes": 2}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bare multi-process: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPTenantAndProfile covers the fleet-facing request fields: a
// tenant label that survives into status, a profiled job whose folded
// stacks are served at /v1/jobs/{id}/profile, and the 409 for jobs that
// were not profiled.
func TestHTTPTenantAndProfile(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 2, Quantum: 500})

	st := h.submit(map[string]any{"program": "fib", "tenant": "acme", "profile": true})
	if st.Tenant != "acme" {
		t.Errorf("submit status tenant = %q, want acme", st.Tenant)
	}
	final := h.waitDone(st.ID)
	if final.State != "done" {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}
	if final.Tenant != "acme" {
		t.Errorf("final status tenant = %q, want acme", final.Tenant)
	}

	resp, body := h.get("/v1/jobs/" + st.ID + "/profile")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status = %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("profile endpoint returned no folded stacks")
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "user;") && !strings.HasPrefix(line, "kernel;") {
			t.Errorf("folded line %q lacks an address-space frame", line)
		}
		if strings.LastIndexByte(line, ' ') < 0 {
			t.Errorf("folded line %q has no count", line)
		}
	}

	// Default tenant fills in; unprofiled jobs 409 on /profile.
	plain := h.submit(map[string]any{"program": "fib"})
	if plain.Tenant != sim.DefaultTenant {
		t.Errorf("default tenant = %q, want %q", plain.Tenant, sim.DefaultTenant)
	}
	h.waitDone(plain.ID)
	if resp, _ := h.get("/v1/jobs/" + plain.ID + "/profile"); resp.StatusCode != http.StatusConflict {
		t.Errorf("unprofiled job profile status = %d, want 409", resp.StatusCode)
	}
}
