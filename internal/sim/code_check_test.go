package sim

// A snapshot's instruction words reach the engines unchecked unless the
// decoder checks them: a register field past the register file indexes
// out of range mid-run, and no mipsd worker recovers from that panic.
// Restore, template PUT and job submission must reject every word
// isa.Instr.Validate rejects, as a malformed snapshot.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"mips/internal/asm"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/reorg"
)

// craftedCode returns snapshots that are well formed except for one
// instruction word, each re-encoded with a valid checksum (mutated bytes
// would die at the checksum, before the word is ever looked at).
func craftedCode(t *testing.T) map[string][]byte {
	t.Helper()
	fib, err := os.ReadFile("testdata/fib.snap")
	if err != nil {
		t.Fatal(err)
	}
	atPC := func(in isa.Instr) []byte {
		w, err := decodeWire(bytes.NewReader(fib))
		if err != nil {
			t.Fatal(err)
		}
		pc := w.CPU.PCQ[0]
		for _, r := range w.CPU.IMem {
			if r.Base <= pc && pc-r.Base < uint32(len(r.Words)) {
				r.Words[pc-r.Base] = in
				return encodeCrafted(t, w)
			}
		}
		t.Fatalf("no code run holds the PC %d", pc)
		return nil
	}
	add := isa.ALU(isa.OpAdd, 200, isa.R(1), isa.R(2))
	alu := isa.ALU(isa.OpAdd, 1, isa.R(1), isa.R(2))
	beq := isa.Branch(isa.CmpEQ, isa.R(1), isa.R(2), "")
	return map[string][]byte{
		"bad-register":    atPC(isa.Word(add)),
		"illegal-packing": atPC(isa.Instr{ALU: &alu, Mem: &beq}),
		"disk-code-page":  kernelDiskCode(t, isa.Word(add)),
	}
}

// kernelDiskCode snapshots a kernel machine with one process loaded and
// replaces a word of a code page on its backing store with in.
func kernelDiskCode(t *testing.T, in isa.Instr) []byte {
	t.Helper()
	u, err := asm.Parse("\t.entry main\nmain:\tjmp main\n")
	if err != nil {
		t.Fatal(err)
	}
	ro, _ := reorg.Reorganize(u, reorg.All())
	im, err := asm.Assemble(ro)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(WithKernel(kernel.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		t.Fatal(err)
	}
	snap, err := m.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	w, err := decodeWire(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range w.Kern.DiskPages {
		if len(pg.Code) != 0 {
			pg.Code[0] = in
			return encodeCrafted(t, w)
		}
	}
	t.Fatal("kernel snapshot holds no code page on its backing store")
	return nil
}

func TestSnapshotIllegalCodeRejected(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1, QueueDepth: 4, Quantum: 100})
	ts := httptest.NewServer(svc.Handler(HTTPConfig{Templates: NewTemplatePool()}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	post := func(snap []byte) (int, []byte) {
		body, _ := json.Marshal(map[string]any{"snapshot": snap})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	pool := NewTemplatePool()
	for name, snap := range craftedCode(t) {
		if _, err := Restore(bytes.NewReader(snap)); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: Restore error %v, want ErrSnapshotFormat", name, err)
		}
		if _, err := pool.Put(name, snap); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: template Put error %v, want ErrSnapshotFormat", name, err)
		}
		status, out := post(snap)
		var env errorEnvelope
		json.Unmarshal(out, &env)
		if status != http.StatusBadRequest || env.Code != CodeBadSpec {
			t.Errorf("%s: POST /v1/jobs: status %d code %q, want 400 %q", name, status, env.Code, CodeBadSpec)
		}
	}

	// The service still runs jobs, and the untouched snapshot, with its
	// unwritten (zero) instruction words, still restores and finishes.
	fib, err := os.ReadFile("testdata/fib.snap")
	if err != nil {
		t.Fatal(err)
	}
	status, out := post(fib)
	var st Status
	if err := json.Unmarshal(out, &st); status != http.StatusAccepted || err != nil {
		t.Fatalf("POST /v1/jobs with fib.snap: status %d: %s", status, out)
	}
	j, err := svc.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != "done" {
		t.Errorf("fib.snap job finished %q (%s), want done", st.State, st.Error)
	}
}
