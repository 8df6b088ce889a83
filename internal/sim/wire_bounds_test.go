package sim

// Snapshot bytes carry the size of the memory they describe. A few-KB
// snapshot with a valid checksum must not make any path that reads it
// allocate by that size: Restore, TemplatePool.Put, and both HTTP
// routes that take snapshot bytes reject it as malformed up front.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/mem"
)

// craftedWires are payloads whose memory no machine can have.
func craftedWires() map[string]*snapshotWire {
	run := func(base uint32) []mem.PhysRun { return []mem.PhysRun{{Base: base, Words: []uint32{1, 2}}} }
	add := isa.Word(isa.ALU(isa.OpAdd, 1, isa.R(1), isa.Imm(1)))
	code := func(n uint32, bases ...uint32) *snapshotWire {
		w := &snapshotWire{Phys: mem.PhysState{Size: 1 << 16}, CPU: cpu.State{IMemLen: n}}
		for _, b := range bases {
			w.CPU.IMem = append(w.CPU.IMem, cpu.CodeRun{Base: b, Words: []isa.Instr{add, add}})
		}
		return w
	}
	return map[string]*snapshotWire{
		"bare-size-2^32-1":     {Phys: mem.PhysState{Size: 1<<32 - 1}},
		"bare-over-max":        {Phys: mem.PhysState{Size: mem.MaxPhysWords + 1}},
		"kernel-size-2^32-1":   {Kernel: true, Kern: &kernel.State{}, Phys: mem.PhysState{Size: 1<<32 - 1}},
		"kernel-over-io":       {Kernel: true, Kern: &kernel.State{}, Phys: mem.PhysState{Size: kernel.IOBase + 1}},
		"kernel-no-user-frame": {Kernel: true, Kern: &kernel.State{}, Phys: mem.PhysState{Size: 1 << 12}},
		"run-past-end":         {Phys: mem.PhysState{Size: 1 << 16, Runs: run(1<<16 - 1)}},
		"run-base-wraps":       {Phys: mem.PhysState{Size: 1 << 16, Runs: run(1<<32 - 1)}},
		"imem-size-2^32-1":     code(1<<32 - 1),
		"imem-over-max":        code(mem.MaxPhysWords+1, 16),
		"code-run-past-end":    code(1<<12, 1<<12-1),
		"code-run-base-wraps":  code(1<<12, 1<<32-1),
		"code-runs-unsorted":   code(1<<12, 100, 16),
		"code-runs-overlap":    code(1<<12, 16, 17),
	}
}

func encodeCrafted(t *testing.T, w *snapshotWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeWire(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// heapBytes reports the bytes f allocates.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestSnapshotMemoryBoundsRejected(t *testing.T) {
	pool := NewTemplatePool()
	for name, w := range craftedWires() {
		snap := encodeCrafted(t, w)
		var restoreErr, putErr error
		n := heapBytes(func() {
			_, restoreErr = Restore(bytes.NewReader(snap))
			_, putErr = pool.Put("crafted", snap)
		})
		if !errors.Is(restoreErr, ErrSnapshotFormat) {
			t.Errorf("%s: Restore error %v, want ErrSnapshotFormat", name, restoreErr)
		}
		if !errors.Is(putErr, ErrSnapshotFormat) {
			t.Errorf("%s: Put error %v, want ErrSnapshotFormat", name, putErr)
		}
		if n > 1<<20 {
			t.Errorf("%s: rejecting a %d-byte snapshot allocated %d bytes", name, len(snap), n)
		}
	}
	if len(pool.List()) != 0 {
		t.Errorf("pool stored a crafted template: %v", pool.List())
	}
}

func TestSnapshotMemoryBoundsHTTP(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1, QueueDepth: 4, Quantum: 100})
	ts := httptest.NewServer(svc.Handler(HTTPConfig{Templates: NewTemplatePool()}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	snap := encodeCrafted(t, craftedWires()["bare-size-2^32-1"])
	for _, c := range []struct{ method, path string }{
		{"POST", "/v1/jobs"},
		{"PUT", "/v1/templates/crafted"},
	} {
		body, _ := json.Marshal(map[string]any{"snapshot": snap})
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Code != CodeBadSpec {
			t.Errorf("%s %s: status %d code %q, want 400 %q", c.method, c.path, resp.StatusCode, env.Code, CodeBadSpec)
		}
	}
}

// TestNewRejectsOversizedMemory pins that WithPhysWords honours the same
// bound as snapshots.
func TestNewRejectsOversizedMemory(t *testing.T) {
	if _, err := New(WithPhysWords(mem.MaxPhysWords + 1)); err == nil {
		t.Fatal("New accepted a memory above mem.MaxPhysWords")
	}
	if _, err := New(WithPhysWords(mem.MaxPhysWords)); err != nil {
		t.Fatalf("New at mem.MaxPhysWords: %v", err)
	}
}
