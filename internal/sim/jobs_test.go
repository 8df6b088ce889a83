package sim_test

// The job service's contract: many machines share a bounded worker pool
// fairly through checkpoint-preemption, submission backpressure is
// explicit, and a job snapshotted mid-run resumes into the same final
// output. The concurrency tests here are the ones `go test -race` leans
// on.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"mips/internal/asm"
	"mips/internal/corpus"
	"mips/internal/isa"
	"mips/internal/reorg"
	"mips/internal/sim"
	"mips/internal/trace"
)

// spinImage assembles an image that never halts, for cancellation and
// backpressure tests.
func spinImage(t *testing.T) *isa.Image {
	t.Helper()
	// Text at 16, codegen.BareTextBase: word 0 holds the monitor's rfe.
	u, err := asm.Parse("\t.text 16\n\t.entry main\nmain:\tjmp main\n")
	if err != nil {
		t.Fatal(err)
	}
	ro, _ := reorg.Reorganize(u, reorg.All())
	im, err := asm.Assemble(ro)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func buildFor(im *isa.Image, engine sim.Engine) func() (*sim.Machine, error) {
	return func() (*sim.Machine, error) {
		m, err := sim.New(sim.WithEngine(engine))
		if err != nil {
			return nil, err
		}
		if err := m.Load(im); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// TestServiceManyConcurrentJobs runs 64 jobs over a small worker pool
// with a quantum tiny enough that every job is preempted many times,
// and verifies each finishes with the right output.
func TestServiceManyConcurrentJobs(t *testing.T) {
	p, err := corpus.Get("fib")
	if err != nil {
		t.Fatal(err)
	}
	im := compileCorpus(t, "fib", false)
	reg := trace.NewRegistry()
	svc := sim.NewService(sim.ServiceConfig{
		Workers:    4,
		QueueDepth: 128,
		// Small enough that every engine is preempted repeatedly — one
		// Blocks step retires a whole chained superblock run, so fib is
		// only ~120 Blocks steps end to end.
		Quantum: 40,
		Metrics: reg,
	})
	defer svc.Close()

	const n = 64
	jobs := make([]*sim.Job, 0, n)
	engines := []sim.Engine{sim.Reference, sim.FastPath, sim.Blocks}
	for i := 0; i < n; i++ {
		j, err := svc.Submit(sim.JobSpec{
			Name:  "fib",
			Build: buildFor(im, engines[i%len(engines)]),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		st := j.Status()
		if st.State != "done" {
			t.Errorf("job %d state = %s (%s)", i, st.State, st.Error)
		}
		if st.Quanta < 2 {
			t.Errorf("job %d ran in %d quanta; preemption never happened", i, st.Quanta)
		}
		if p.Output != "" && st.Output != p.Output {
			t.Errorf("job %d output = %q, want %q", i, st.Output, p.Output)
		}
	}
	snap := reg.Snapshot()
	if snap["jobs.completed"] != n {
		t.Errorf("jobs.completed = %d, want %d", snap["jobs.completed"], n)
	}
	if snap["jobs.active"] != 0 {
		t.Errorf("jobs.active = %d after all jobs finished", snap["jobs.active"])
	}
}

// TestServiceBackpressure pins the admission bound: QueueDepth
// unfinished jobs in the system rejects the next Submit with
// ErrQueueFull, and capacity frees as jobs finish.
func TestServiceBackpressure(t *testing.T) {
	im := spinImage(t)
	reg := trace.NewRegistry()
	svc := sim.NewService(sim.ServiceConfig{
		Workers:    1,
		QueueDepth: 2,
		Quantum:    100,
		Metrics:    reg,
	})
	defer svc.Close()

	j1, err := svc.Submit(sim.JobSpec{Build: buildFor(im, sim.FastPath)})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(sim.JobSpec{Build: buildFor(im, sim.FastPath)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(sim.JobSpec{Build: buildFor(im, sim.FastPath)}); !errors.Is(err, sim.ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if got := reg.Snapshot()["jobs.rejected"]; got != 1 {
		t.Errorf("jobs.rejected = %d, want 1", got)
	}

	svc.Cancel(j1.ID)
	svc.Cancel(j2.ID)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	j1.Wait(ctx)
	j2.Wait(ctx)
	if _, err := svc.Submit(sim.JobSpec{Build: buildFor(im, sim.FastPath), MaxSteps: 200}); err != nil {
		t.Fatalf("submit after capacity freed: %v", err)
	}
}

// TestServiceCancelAndTimeout covers the two ways a job dies at a
// quantum boundary.
func TestServiceCancelAndTimeout(t *testing.T) {
	im := spinImage(t)
	svc := sim.NewService(sim.ServiceConfig{Workers: 2, Quantum: 100})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	j, err := svc.Submit(sim.JobSpec{Name: "spin", Build: buildFor(im, sim.FastPath)})
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Cancel(j.ID) {
		t.Fatal("Cancel returned false for a live job")
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st := j.Status(); st.State != "cancelled" {
		t.Errorf("state = %s, want cancelled", st.State)
	}

	jt, err := svc.Submit(sim.JobSpec{
		Name:    "spin-timeout",
		Build:   buildFor(im, sim.FastPath),
		Timeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jt.Wait(ctx); !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("wait: err = %v, want ErrTimeout", err)
	}
	if st := jt.Status(); st.State != "failed" {
		t.Errorf("state = %s, want failed", st.State)
	}

	if svc.Cancel("job-999") {
		t.Error("Cancel invented a job")
	}
}

// TestServiceStepLimit pins that a job that never halts fails cleanly
// at its step budget.
func TestServiceStepLimit(t *testing.T) {
	im := spinImage(t)
	svc := sim.NewService(sim.ServiceConfig{Workers: 1, Quantum: 100})
	defer svc.Close()
	j, err := svc.Submit(sim.JobSpec{Build: buildFor(im, sim.FastPath), MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := j.Wait(ctx); err == nil {
		t.Fatal("spin job completed without error")
	}
	if st := j.Status(); st.State != "failed" {
		t.Errorf("state = %s, want failed", st.State)
	}
}

// TestServiceSnapshotMidRunResumes downloads a live job's checkpoint,
// submits it as a new job, and demands both finish with identical
// output — the checkpoint-migration workflow end to end.
func TestServiceSnapshotMidRunResumes(t *testing.T) {
	im := compileCorpus(t, "sort", false)
	svc := sim.NewService(sim.ServiceConfig{Workers: 2, Quantum: 300})
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	j, err := svc.Submit(sim.JobSpec{Name: "sort", Build: buildFor(im, sim.Blocks)})
	if err != nil {
		t.Fatal(err)
	}
	// Grab a checkpoint while the job is (very likely) still running;
	// either way the snapshot is taken at a quantum boundary and must
	// resume to the same final output.
	var snap []byte
	for {
		snap, err = j.Snapshot()
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("job never built its machine")
		case <-time.After(time.Millisecond):
		}
	}
	r, err := svc.Submit(sim.JobSpec{
		Name: "sort-resumed",
		Build: func() (*sim.Machine, error) {
			return sim.Restore(bytes.NewReader(snap))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("original: %v", err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatalf("resumed: %v", err)
	}
	jOut, _ := j.Output()
	rOut, _ := r.Output()
	if jOut != rOut {
		t.Errorf("resumed output %q != original %q", rOut, jOut)
	}
	if jOut == "" {
		t.Error("sort produced no output; the comparison is vacuous")
	}
}

// TestServiceDrain pins graceful shutdown: Drain refuses new work and
// returns once every accepted job is terminal.
func TestServiceDrain(t *testing.T) {
	im := compileCorpus(t, "fib", false)
	svc := sim.NewService(sim.ServiceConfig{Workers: 2, Quantum: 1000})
	for i := 0; i < 8; i++ {
		if _, err := svc.Submit(sim.JobSpec{Build: buildFor(im, sim.FastPath)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := svc.Submit(sim.JobSpec{Build: buildFor(im, sim.FastPath)}); !errors.Is(err, sim.ErrClosed) {
		t.Fatalf("submit after drain: err = %v, want ErrClosed", err)
	}
	svc.Close()
	for _, j := range svc.Jobs() {
		if st := j.Status(); st.State != "done" {
			t.Errorf("%s state = %s after drain", j.ID, st.State)
		}
	}
}
