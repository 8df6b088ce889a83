package sim_test

// A ProgramFunc may hand every job the same image (cmd/mipsd compiles
// each corpus program once per target), so concurrent jobs must only
// read it. Under -race this test catches any write to a shared image
// made while building or running its machines.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/sim"
)

func TestConcurrentJobsShareOneImage(t *testing.T) {
	shared := map[bool]*isa.Image{
		false: compileCorpus(t, "fib", false),
		true:  compileCorpus(t, "fib", true),
	}
	progs := map[string]sim.ProgramFunc{
		"fib": func(kernelTarget bool) (*isa.Image, error) { return shared[kernelTarget], nil },
	}
	svc := sim.NewService(sim.ServiceConfig{Workers: 4, QueueDepth: 64, Quantum: 2000})
	ts := httptest.NewServer(svc.Handler(sim.HTTPConfig{Programs: progs}))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	h := &httpHarness{t: t, ts: ts, svc: svc}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	kinds := []struct {
		name  string
		req   map[string]any
		timer uint32
		nproc int
	}{
		{"bare", map[string]any{"program": "fib"}, 0, 1},
		{"kernel", map[string]any{"program": "fib", "kernel": true}, 0, 1},
		{"kernel-2proc", map[string]any{"program": "fib", "timer": 500, "processes": 2}, 500, 2},
	}
	const jobs = 8
	for _, k := range kinds {
		want := freshOutput(t, k.timer, k.nproc, k.name != "bare")
		var ids []string
		for range jobs {
			ids = append(ids, h.submit(k.req).ID)
		}
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := jobOutput(ctx, svc, id, want); err != nil {
					t.Errorf("%s: %v", k.name, err)
				}
			}()
		}
		wg.Wait()
	}
}

// freshOutput runs a fresh compile of fib on a machine of its own.
func freshOutput(t *testing.T, timer uint32, nproc int, kern bool) string {
	t.Helper()
	var opts []sim.Option
	if kern {
		opts = append(opts, sim.WithKernel(kernel.Config{TimerPeriod: timer}))
	}
	m, err := sim.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	im := compileCorpus(t, "fib", kern)
	for range nproc {
		if err := m.Load(im); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Output() == "" {
		t.Fatal("fib printed nothing; the comparison is vacuous")
	}
	return m.Output()
}

// jobOutput waits for a job and checks it finished with output want.
func jobOutput(ctx context.Context, svc *sim.Service, id, want string) error {
	j, err := svc.Job(id)
	if err != nil {
		return err
	}
	if err := j.Wait(ctx); err != nil {
		return err
	}
	if st := j.Status(); st.State != "done" {
		return fmt.Errorf("job %s finished %q (%s)", id, st.State, st.Error)
	}
	got, err := j.Output()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("job %s output %q, want a fresh compile's %q", id, got, want)
	}
	return nil
}
