package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"mips/internal/isa"
	"mips/internal/kernel"
)

// HTTP surface of the job service (cmd/mipsd mounts it on the
// telemetry server). The versioned surface lives under /v1:
//
//	POST   /v1/jobs                  submit a job (JSON body, see jobRequest)
//	GET    /v1/jobs                  list jobs (?state= filter, ?limit=/?after= pagination)
//	GET    /v1/jobs/{id}             one job's status (a finished job keeps
//	                                 its status, output and snapshot until
//	                                 QueueDepth later jobs have finished)
//	GET    /v1/jobs/{id}/output      console output so far (text)
//	GET    /v1/jobs/{id}/profile     folded cycle stacks (text; profile: true jobs)
//	GET    /v1/jobs/{id}/snapshot    checkpoint download (binary, resumable)
//	POST   /v1/jobs/{id}/cancel      request cancellation
//	PUT    /v1/templates/{name}      create/replace a golden template (JSON body, see templateRequest)
//	GET    /v1/templates             list templates
//	GET    /v1/templates/{name}      one template's metadata
//	DELETE /v1/templates/{name}      delete a template (live forks keep running)
//
// Every error response is one JSON envelope:
//
//	{"error": "human-readable message", "code": "machine_readable_code"}
//
// with codes queue_full, closed, not_found, evicted, bad_spec,
// template_missing.
//
// A submitted job names a built-in program, carries a snapshot from a
// previous run (the snapshot endpoint's bytes, base64 in JSON) to
// resume it — possibly on a different engine — or names a template to
// warm-fork from.

// ProgramFunc compiles a named program; kernelTarget selects the
// kernel-process memory layout. cmd/mipsd supplies the corpus this way
// so the sim package stays free of the compiler. The image it returns
// may be shared across jobs, concurrent ones included (cmd/mipsd
// returns one image per program and target): Load, and every machine
// built from it, only reads the image.
type ProgramFunc func(kernelTarget bool) (*isa.Image, error)

// HTTPConfig assembles the job HTTP handler.
type HTTPConfig struct {
	// Programs maps submittable program names to their builders.
	Programs map[string]ProgramFunc
	// Templates is the golden-template pool served under /v1/templates
	// and forked by template submissions. Handler creates a private pool
	// when nil.
	Templates *TemplatePool
}

// Machine-readable error codes carried in the JSON error envelope.
const (
	CodeQueueFull       = "queue_full"       // admission backpressure; retry after jobs finish
	CodeClosed          = "closed"           // service is draining/closed
	CodeNotFound        = "not_found"        // no such job, or state not available yet
	CodeEvicted         = "evicted"          // the job finished and left the bounded history (410)
	CodeBadSpec         = "bad_spec"         // malformed or inconsistent request
	CodeTemplateMissing = "template_missing" // no such template
)

// errorEnvelope is the uniform JSON error body.
type errorEnvelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	Name      string `json:"name"`       // display label (default: program/template)
	Tenant    string `json:"tenant"`     // fleet-rollup tenant label (default "default")
	Program   string `json:"program"`    // built-in program name
	Snapshot  []byte `json:"snapshot"`   // base64 snapshot to resume instead
	Template  string `json:"template"`   // golden template to warm-fork instead
	Engine    string `json:"engine"`     // reference | fast | blocks | traces (default: process default)
	Kernel    bool   `json:"kernel"`     // run under the kernel machine
	Timer     uint32 `json:"timer"`      // kernel timer period (implies kernel)
	Processes int    `json:"processes"`  // kernel: copies of the program to load (default 1)
	SpaceBits uint8  `json:"space_bits"` // kernel address-space size (default 16)
	MaxSteps  uint64 `json:"max_steps"`  // step budget (default: service default)
	TimeoutMS int64  `json:"timeout_ms"` // wall-clock bound (0 = none)
	Profile   bool   `json:"profile"`    // attach a profiler (exact engine; fleet flamegraph)
	Trace     bool   `json:"trace"`      // attach a tracer (exact engine; sampled SSE source)
}

// templateRequest is the PUT /v1/templates/{name} body: either a
// program spec (the machine is built, booted, optionally warmed up,
// and captured server-side) or a pre-captured snapshot.
type templateRequest struct {
	Program     string `json:"program"`      // built-in program to bake in
	Snapshot    []byte `json:"snapshot"`     // pre-captured snapshot instead
	Engine      string `json:"engine"`       // capture engine (forks may override; snapshots are engine-agnostic)
	Kernel      bool   `json:"kernel"`       // bake the kernel machine
	Timer       uint32 `json:"timer"`        // kernel timer period (implies kernel)
	Processes   int    `json:"processes"`    // kernel: copies of the program (default 1)
	SpaceBits   uint8  `json:"space_bits"`   // kernel address-space size (default 16)
	WarmupSteps uint64 `json:"warmup_steps"` // steps to run before capture
}

// jobListPage is the GET /v1/jobs response envelope.
type jobListPage struct {
	Jobs []Status `json:"jobs"`
	// Next, when set, is the ?after= cursor for the next page.
	Next string `json:"next,omitempty"`
}

// templateList is the GET /v1/templates response envelope.
type templateList struct {
	Templates []TemplateInfo `json:"templates"`
}

// Handler returns the job service's HTTP API, the /v1 surface.
func (s *Service) Handler(cfg HTTPConfig) http.Handler {
	if cfg.Templates == nil {
		cfg.Templates = NewTemplatePool()
	}
	h := &jobHandler{svc: s, cfg: cfg}
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("POST /v1/jobs/{$}", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{$}", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("GET /v1/jobs/{id}/output", h.output)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", h.profile)
	mux.HandleFunc("GET /v1/jobs/{id}/snapshot", h.snapshot)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", h.cancel)
	mux.HandleFunc("PUT /v1/templates/{name}", h.templatePut)
	mux.HandleFunc("GET /v1/templates", h.templateIndex)
	mux.HandleFunc("GET /v1/templates/{$}", h.templateIndex)
	mux.HandleFunc("GET /v1/templates/{name}", h.templateGet)
	mux.HandleFunc("DELETE /v1/templates/{name}", h.templateDelete)

	return mux
}

type jobHandler struct {
	svc *Service
	cfg HTTPConfig
}

func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorEnvelope{Error: err.Error(), Code: code})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (h *jobHandler) submit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSnapshotPayload)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := h.buildSpec(req)
	if errors.Is(err, ErrTemplateMissing) {
		httpError(w, http.StatusNotFound, CodeTemplateMissing, err)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	j, err := h.svc.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, CodeQueueFull, err)
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, CodeClosed, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// buildSpec validates a request eagerly (unknown program or template,
// bad engine, malformed snapshot) but defers machine construction to
// the worker pool.
func (h *jobHandler) buildSpec(req jobRequest) (JobSpec, error) {
	engine, err := ParseEngine(req.Engine)
	if err != nil {
		return JobSpec{}, err
	}
	spec := JobSpec{
		Name:     req.Name,
		Tenant:   req.Tenant,
		MaxSteps: req.MaxSteps,
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		Profile:  req.Profile,
		Trace:    req.Trace,
	}
	sources := 0
	for _, given := range []bool{req.Program != "", len(req.Snapshot) > 0, req.Template != ""} {
		if given {
			sources++
		}
	}
	if sources > 1 {
		return JobSpec{}, errors.New("give exactly one of program, snapshot, or template")
	}
	if req.Template != "" {
		t, err := h.cfg.Templates.Get(req.Template)
		if err != nil {
			return JobSpec{}, err
		}
		if spec.Name == "" {
			spec.Name = req.Template
		}
		spec.Template = req.Template
		spec.Build = func() (*Machine, error) {
			return t.Fork(WithEngine(engine))
		}
		return spec, nil
	}
	if len(req.Snapshot) > 0 {
		wire, err := decodeWire(bytes.NewReader(req.Snapshot))
		if err != nil {
			return JobSpec{}, err
		}
		if spec.Name == "" {
			spec.Name = "restore"
		}
		spec.Build = func() (*Machine, error) {
			return buildFromWire(wire, nil, []Option{WithEngine(engine)})
		}
		return spec, nil
	}
	prog, ok := h.cfg.Programs[req.Program]
	if !ok {
		names := make([]string, 0, len(h.cfg.Programs))
		for n := range h.cfg.Programs {
			names = append(names, n)
		}
		sort.Strings(names)
		return JobSpec{}, fmt.Errorf("unknown program %q (have %v)", req.Program, names)
	}
	if spec.Name == "" {
		spec.Name = req.Program
	}
	useKernel := req.Kernel || req.Timer > 0
	nproc := req.Processes
	if nproc <= 0 {
		nproc = 1
	}
	if nproc > 1 && !useKernel {
		return JobSpec{}, errors.New("multiple processes need kernel: true")
	}
	spec.Build = func() (*Machine, error) {
		return buildProgramMachine(prog, engine, useKernel, req.Timer, req.SpaceBits, nproc)
	}
	return spec, nil
}

// buildProgramMachine compiles a program and loads it into a fresh
// machine — the cold-boot admission path, shared by job submission and
// template baking.
func buildProgramMachine(prog ProgramFunc, engine Engine, useKernel bool, timer uint32, spaceBits uint8, nproc int) (*Machine, error) {
	im, err := prog(useKernel)
	if err != nil {
		return nil, err
	}
	opts := []Option{WithEngine(engine)}
	if useKernel {
		opts = append(opts, WithKernel(kernel.Config{TimerPeriod: timer}))
		if spaceBits > 0 {
			opts = append(opts, WithSpaceBits(spaceBits))
		}
	}
	m, err := New(opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nproc; i++ {
		if err := m.Load(im); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// list serves GET /v1/jobs: submission order, optionally filtered by
// ?state= and paginated with ?limit= / ?after= (an ID from a previous
// page; the page starts strictly after it, even if that job has been
// evicted since).
func (h *jobHandler) list(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	if state != "" {
		switch state {
		case JobQueued.String(), JobRunning.String(), JobDone.String(), JobFailed.String(), JobCancelled.String():
		default:
			httpError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("unknown state %q", state))
			return
		}
	}
	jobs, err := h.svc.JobsAfter(q.Get("after"))
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("unknown cursor %q", q.Get("after")))
		return
	}
	limit := 0
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("bad limit %q", s))
			return
		}
		limit = n
	}

	page := jobListPage{Jobs: []Status{}}
	for _, j := range jobs {
		st := j.Status()
		if state != "" && st.State != state {
			continue
		}
		if limit > 0 && len(page.Jobs) == limit {
			page.Next = page.Jobs[len(page.Jobs)-1].ID
			break
		}
		page.Jobs = append(page.Jobs, st)
	}
	writeJSON(w, http.StatusOK, page)
}

func (h *jobHandler) job(w http.ResponseWriter, r *http.Request) *Job {
	j, err := h.svc.Job(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrJobEvicted):
		httpError(w, http.StatusGone, CodeEvicted, err)
	case err != nil:
		httpError(w, http.StatusNotFound, CodeNotFound, err)
	}
	return j
}

func (h *jobHandler) status(w http.ResponseWriter, r *http.Request) {
	if j := h.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (h *jobHandler) output(w http.ResponseWriter, r *http.Request) {
	j := h.job(w, r)
	if j == nil {
		return
	}
	out, err := j.Output()
	if err != nil {
		httpError(w, http.StatusConflict, CodeNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(out))
}

// profile serves the job's folded cycle-attribution stacks as text,
// heaviest stack first — the same format /profile/flame emits, so the
// output feeds flamegraph tooling directly.
func (h *jobHandler) profile(w http.ResponseWriter, r *http.Request) {
	j := h.job(w, r)
	if j == nil {
		return
	}
	folded := j.FoldedProfile()
	if folded == nil {
		httpError(w, http.StatusConflict, CodeNotFound, errors.New("job was not submitted with profile: true (or has not built its machine)"))
		return
	}
	type row struct {
		stack string
		n     uint64
	}
	rows := make([]row, 0, len(folded))
	for s, n := range folded {
		rows = append(rows, row{s, n})
	}
	sort.Slice(rows, func(i, k int) bool {
		if rows[i].n != rows[k].n {
			return rows[i].n > rows[k].n
		}
		return rows[i].stack < rows[k].stack
	})
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, rw := range rows {
		fmt.Fprintf(w, "%s %d\n", rw.stack, rw.n)
	}
}

func (h *jobHandler) snapshot(w http.ResponseWriter, r *http.Request) {
	j := h.job(w, r)
	if j == nil {
		return
	}
	snap, err := j.Snapshot()
	if err != nil {
		httpError(w, http.StatusConflict, CodeNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.snap", j.ID))
	w.Write(snap)
}

func (h *jobHandler) cancel(w http.ResponseWriter, r *http.Request) {
	j := h.job(w, r)
	if j == nil {
		return
	}
	h.svc.Cancel(j.ID)
	writeJSON(w, http.StatusOK, j.Status())
}

// templatePut creates or replaces a golden template: from a program
// spec — built, booted, optionally warmed up, and captured here, since
// template baking is the one-time preparation the fork path amortizes —
// or from pre-captured snapshot bytes.
func (h *jobHandler) templatePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req templateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSnapshotPayload)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("bad request body: %w", err))
		return
	}
	if (req.Program == "") == (len(req.Snapshot) == 0) {
		httpError(w, http.StatusBadRequest, CodeBadSpec, errors.New("give exactly one of program or snapshot"))
		return
	}
	if len(req.Snapshot) > 0 {
		t, err := h.cfg.Templates.Put(name, req.Snapshot)
		if err != nil {
			httpError(w, http.StatusBadRequest, CodeBadSpec, err)
			return
		}
		writeJSON(w, http.StatusCreated, t.Info())
		return
	}
	engine, err := ParseEngine(req.Engine)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	prog, ok := h.cfg.Programs[req.Program]
	if !ok {
		httpError(w, http.StatusBadRequest, CodeBadSpec, fmt.Errorf("unknown program %q", req.Program))
		return
	}
	useKernel := req.Kernel || req.Timer > 0
	nproc := req.Processes
	if nproc <= 0 {
		nproc = 1
	}
	if nproc > 1 && !useKernel {
		httpError(w, http.StatusBadRequest, CodeBadSpec, errors.New("multiple processes need kernel: true"))
		return
	}
	m, err := buildProgramMachine(prog, engine, useKernel, req.Timer, req.SpaceBits, nproc)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	t, err := h.cfg.Templates.Capture(name, m, req.WarmupSteps)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadSpec, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.Info())
}

func (h *jobHandler) templateIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, templateList{Templates: h.cfg.Templates.List()})
}

func (h *jobHandler) templateGet(w http.ResponseWriter, r *http.Request) {
	t, err := h.cfg.Templates.Get(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, CodeTemplateMissing, err)
		return
	}
	writeJSON(w, http.StatusOK, t.Info())
}

func (h *jobHandler) templateDelete(w http.ResponseWriter, r *http.Request) {
	if !h.cfg.Templates.Delete(r.PathValue("name")) {
		httpError(w, http.StatusNotFound, CodeTemplateMissing, fmt.Errorf("%w: %q", ErrTemplateMissing, r.PathValue("name")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
