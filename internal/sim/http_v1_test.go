package sim_test

// The /v1 surface: versioned paths, the uniform JSON error envelope
// with machine-readable codes, list filtering/pagination, and the
// template CRUD + warm-fork admission flow.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"mips/internal/corpus"
	"mips/internal/sim"
)

// do issues a request with a JSON body (nil = empty) and returns the
// response and body bytes.
func (h *httpHarness) do(method, path string, body any) (*http.Response, []byte) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// errCode decodes the error envelope and returns its code, failing the
// test if the body is not a well-formed envelope.
func (h *httpHarness) errCode(body []byte) string {
	h.t.Helper()
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		h.t.Fatalf("error response is not the JSON envelope: %v (%s)", err, body)
	}
	if env.Error == "" {
		h.t.Fatalf("error envelope has empty error field: %s", body)
	}
	return env.Code
}

// TestHTTPErrorEnvelope pins the machine-readable error codes: every
// failing response is {"error": ..., "code": ...} with the documented
// code.
func TestHTTPErrorEnvelope(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 1, QueueDepth: 1, Quantum: 100})

	// bad_spec: unknown program, bad engine, malformed body, conflicting
	// sources.
	resp, body := h.postJSON("/v1/jobs", map[string]any{"program": "nope"})
	if resp.StatusCode != http.StatusBadRequest || h.errCode(body) != sim.CodeBadSpec {
		t.Errorf("unknown program: status %d code %q, want 400 %q", resp.StatusCode, h.errCode(body), sim.CodeBadSpec)
	}
	resp, body = h.postJSON("/v1/jobs", map[string]any{"program": "fib", "engine": "warp"})
	if resp.StatusCode != http.StatusBadRequest || h.errCode(body) != sim.CodeBadSpec {
		t.Errorf("bad engine: status %d code %q", resp.StatusCode, h.errCode(body))
	}
	resp, body = h.postJSON("/v1/jobs", map[string]any{"program": "fib", "template": "tpl"})
	if resp.StatusCode != http.StatusBadRequest || h.errCode(body) != sim.CodeBadSpec {
		t.Errorf("program+template: status %d code %q", resp.StatusCode, h.errCode(body))
	}

	// not_found: unknown job ID.
	resp, body = h.get("/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound || h.errCode(body) != sim.CodeNotFound {
		t.Errorf("unknown job: status %d code %q, want 404 %q", resp.StatusCode, h.errCode(body), sim.CodeNotFound)
	}

	// template_missing: submitting against and fetching a template the
	// pool does not hold.
	resp, body = h.postJSON("/v1/jobs", map[string]any{"template": "ghost"})
	if resp.StatusCode != http.StatusNotFound || h.errCode(body) != sim.CodeTemplateMissing {
		t.Errorf("submit ghost template: status %d code %q, want 404 %q", resp.StatusCode, h.errCode(body), sim.CodeTemplateMissing)
	}
	resp, body = h.get("/v1/templates/ghost")
	if resp.StatusCode != http.StatusNotFound || h.errCode(body) != sim.CodeTemplateMissing {
		t.Errorf("get ghost template: status %d code %q", resp.StatusCode, h.errCode(body))
	}
	resp, body = h.do(http.MethodDelete, "/v1/templates/ghost", nil)
	if resp.StatusCode != http.StatusNotFound || h.errCode(body) != sim.CodeTemplateMissing {
		t.Errorf("delete ghost template: status %d code %q", resp.StatusCode, h.errCode(body))
	}

	// queue_full: one never-halting job fills the depth-1 queue.
	longjob := map[string]any{"program": "spin", "engine": "reference", "max_steps": uint64(200_000_000)}
	st := h.submit(longjob)
	resp, body = h.postJSON("/v1/jobs", longjob)
	if resp.StatusCode != http.StatusTooManyRequests || h.errCode(body) != sim.CodeQueueFull {
		t.Errorf("overflow: status %d code %q, want 429 %q", resp.StatusCode, h.errCode(body), sim.CodeQueueFull)
	}
	h.postJSON("/v1/jobs/"+st.ID+"/cancel", nil)
	h.waitDone(st.ID)

	// closed: a drained service refuses new work.
	h.svc.Close()
	resp, body = h.postJSON("/v1/jobs", map[string]any{"program": "fib"})
	if resp.StatusCode != http.StatusServiceUnavailable || h.errCode(body) != sim.CodeClosed {
		t.Errorf("closed service: status %d code %q, want 503 %q", resp.StatusCode, h.errCode(body), sim.CodeClosed)
	}
}

// TestHTTPTemplateLifecycle runs the whole warm-fork flow over the
// wire: bake a template from a program, fork jobs from it, compare the
// fork's output against a cold-boot run, then delete the template.
func TestHTTPTemplateLifecycle(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 2, Quantum: 500})

	// Bake: PUT a program template.
	resp, body := h.do(http.MethodPut, "/v1/templates/fib-warm", map[string]any{"program": "fib"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("template put: status %d: %s", resp.StatusCode, body)
	}
	var info sim.TemplateInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "fib-warm" || info.PhysWords == 0 || info.Bytes == 0 {
		t.Fatalf("template info = %+v", info)
	}

	// Listing and single get both show it.
	resp, body = h.get("/v1/templates")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("template list: status %d", resp.StatusCode)
	}
	var list struct {
		Templates []sim.TemplateInfo `json:"templates"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Templates) != 1 || list.Templates[0].Name != "fib-warm" {
		t.Fatalf("template listing = %+v", list.Templates)
	}
	if resp, _ := h.get("/v1/templates/fib-warm"); resp.StatusCode != http.StatusOK {
		t.Fatalf("template get: status %d", resp.StatusCode)
	}

	// Cold-boot reference run.
	cold := h.submit(map[string]any{"program": "fib", "engine": "fast"})
	coldFinal := h.waitDone(cold.ID)
	if coldFinal.State != "done" {
		t.Fatalf("cold job state = %s (%s)", coldFinal.State, coldFinal.Error)
	}

	// Fork two jobs from the template on different engines.
	for _, engine := range []string{"reference", "blocks"} {
		st := h.submit(map[string]any{"template": "fib-warm", "engine": engine})
		if st.Template != "fib-warm" {
			t.Errorf("submit status template = %q, want fib-warm", st.Template)
		}
		final := h.waitDone(st.ID)
		if final.State != "done" {
			t.Fatalf("forked job (%s) state = %s (%s)", engine, final.State, final.Error)
		}
		if final.Output != coldFinal.Output {
			t.Errorf("forked output (%s) = %q, want cold-boot %q", engine, final.Output, coldFinal.Output)
		}
		if final.Template != "fib-warm" {
			t.Errorf("final status template = %q", final.Template)
		}
	}
	p, _ := corpus.Get("fib")
	if p.Output != "" && coldFinal.Output != p.Output {
		t.Errorf("cold output = %q, want corpus %q", coldFinal.Output, p.Output)
	}

	// The fork count shows in template metadata.
	resp, body = h.get("/v1/templates/fib-warm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("template get: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Forks != 2 {
		t.Errorf("template forks = %d, want 2", info.Forks)
	}

	// Delete; the template is gone but nothing else broke.
	resp, _ = h.do(http.MethodDelete, "/v1/templates/fib-warm", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("template delete: status %d", resp.StatusCode)
	}
	if resp, _ := h.get("/v1/templates/fib-warm"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted template still served: status %d", resp.StatusCode)
	}

	// Template PUT with neither/both sources is a bad_spec.
	resp, body = h.do(http.MethodPut, "/v1/templates/x", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest || h.errCode(body) != sim.CodeBadSpec {
		t.Errorf("empty template put: status %d code %q", resp.StatusCode, h.errCode(body))
	}
}

// TestHTTPListFilterPagination covers ?state=, ?limit=, and ?after= on
// GET /v1/jobs.
func TestHTTPListFilterPagination(t *testing.T) {
	h := newHTTPHarness(t, sim.ServiceConfig{Workers: 2, Quantum: 500})

	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		st := h.submit(map[string]any{"program": "fib", "name": fmt.Sprintf("fib-%d", i)})
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := h.waitDone(id); st.State != "done" {
			t.Fatalf("job %s state = %s", id, st.State)
		}
	}

	var page struct {
		Jobs []sim.Status `json:"jobs"`
		Next string       `json:"next"`
	}
	decode := func(body []byte) {
		page = struct {
			Jobs []sim.Status `json:"jobs"`
			Next string       `json:"next"`
		}{}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("list decode: %v (%s)", err, body)
		}
	}

	// Unpaginated: all five, submission order.
	resp, body := h.get("/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	decode(body)
	if len(page.Jobs) != 5 || page.Next != "" {
		t.Fatalf("full list: %d jobs, next %q", len(page.Jobs), page.Next)
	}
	for i, st := range page.Jobs {
		if st.ID != ids[i] {
			t.Errorf("list order: job %d = %s, want %s", i, st.ID, ids[i])
		}
	}

	// Paginate by 2: three pages, cursor chained.
	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination did not terminate")
		}
		path := "/v1/jobs?limit=2"
		if cursor != "" {
			path += "&after=" + cursor
		}
		_, body := h.get(path)
		decode(body)
		for _, st := range page.Jobs {
			got = append(got, st.ID)
		}
		if page.Next == "" {
			break
		}
		cursor = page.Next
	}
	if len(got) != 5 {
		t.Fatalf("paginated walk returned %d jobs: %v", len(got), got)
	}
	for i := range got {
		if got[i] != ids[i] {
			t.Errorf("paginated order: %d = %s, want %s", i, got[i], ids[i])
		}
	}

	// State filter: everything is done; nothing is running.
	_, body = h.get("/v1/jobs?state=done")
	decode(body)
	if len(page.Jobs) != 5 {
		t.Errorf("state=done: %d jobs, want 5", len(page.Jobs))
	}
	_, body = h.get("/v1/jobs?state=running")
	decode(body)
	if len(page.Jobs) != 0 {
		t.Errorf("state=running: %d jobs, want 0", len(page.Jobs))
	}

	// Bad state and bad cursor are bad_spec.
	resp, body = h.get("/v1/jobs?state=zombie")
	if resp.StatusCode != http.StatusBadRequest || h.errCode(body) != sim.CodeBadSpec {
		t.Errorf("bad state: status %d code %q", resp.StatusCode, h.errCode(body))
	}
	resp, body = h.get("/v1/jobs?after=job-999")
	if resp.StatusCode != http.StatusBadRequest || h.errCode(body) != sim.CodeBadSpec {
		t.Errorf("bad cursor: status %d code %q", resp.StatusCode, h.errCode(body))
	}
	resp, body = h.get("/v1/jobs?limit=bogus")
	if resp.StatusCode != http.StatusBadRequest || h.errCode(body) != sim.CodeBadSpec {
		t.Errorf("bad limit: status %d code %q", resp.StatusCode, h.errCode(body))
	}

	// The unversioned list is gone.
	if resp, _ = h.get("/jobs"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs: status %d, want 404", resp.StatusCode)
	}

	resp, _ = h.get("/v1/jobs/" + ids[0] + "/status")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/{id}/status: status %d, want 404 (the alias is gone)", resp.StatusCode)
	}
	resp, _ = h.get("/v1/jobs/" + ids[0] + "/output")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1 output: status %d", resp.StatusCode)
	}
}
