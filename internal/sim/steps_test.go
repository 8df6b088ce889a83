package sim_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mips/internal/cpu"
	"mips/internal/kernel"
	"mips/internal/sim"
)

var allEngines = []sim.Engine{sim.Reference, sim.FastPath, sim.Blocks, sim.Traces}

// TestRunStepsLockstepAcrossEngines pins that a step means the same on
// every engine: one seeded sequence of RunSteps calls, run on all four
// engines side by side, leaves identical architectural state after
// every call — bare programs, and two kernel processes preempted by the
// interval timer.
func TestRunStepsLockstepAcrossEngines(t *testing.T) {
	for _, tc := range []struct {
		name, prog string
		kernel     bool
	}{
		{"fib", "fib", false},
		{"queens", "queens", false},
		{"kernel-fib", "fib", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			im := compileCorpus(t, tc.prog, tc.kernel)
			ms := make([]*sim.Machine, len(allEngines))
			for i, e := range allEngines {
				opts, procs := []sim.Option{sim.WithEngine(e)}, 1
				if tc.kernel {
					opts, procs = append(opts, sim.WithKernel(kernel.Config{TimerPeriod: 500})), 2
				}
				m, err := sim.New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < procs; p++ {
					if err := m.Load(im); err != nil {
						t.Fatal(err)
					}
				}
				ms[i] = m
			}
			r := rand.New(rand.NewSource(1))
			for call := 0; !ms[0].Halted(); call++ {
				if call == 10_000 {
					t.Fatal("the run did not finish")
				}
				k := uint64(1 + r.Intn(3000))
				for _, m := range ms {
					m.RunSteps(k)
				}
				ref := ms[0]
				for _, m := range ms[1:] {
					if m.CPU().PC() != ref.CPU().PC() || m.CPU().Regs != ref.CPU().Regs ||
						*m.Stats() != *ref.Stats() || m.Output() != ref.Output() || m.Halted() != ref.Halted() {
						t.Fatalf("call %d, RunSteps(%d): %s at pc %d, %s; reference at pc %d, %s",
							call, k, m.Engine(), m.CPU().PC(), m.Stats(), ref.CPU().PC(), ref.Stats())
					}
				}
			}
			if ms[2].Trans().TierInstrs[cpu.TierBlocks] == 0 || ms[3].Trans().TierInstrs[cpu.TierTraces] == 0 {
				t.Error("the translation tiers retired nothing; the lockstep is vacuous")
			}
		})
	}
}

// runJob submits one bare fib job on engine to svc and waits for it.
func runJob(t *testing.T, svc *sim.Service, e sim.Engine, maxSteps uint64) sim.Status {
	t.Helper()
	j, err := svc.Submit(sim.JobSpec{Name: "fib", Build: buildFor(compileCorpus(t, "fib", false), e), MaxSteps: maxSteps})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	j.Wait(ctx)
	return j.Status()
}

// TestJobStepsAcrossEngines pins a job's step accounting on every
// engine: a job that halts part-way through a quantum reports the steps
// it ran, as a direct RunSteps of the same machine counts them, and a
// step limit fails the job after exactly that many instructions.
func TestJobStepsAcrossEngines(t *testing.T) {
	svc := sim.NewService(sim.ServiceConfig{Workers: 1, Quantum: 100})
	defer svc.Close()
	for _, e := range allEngines {
		m, err := buildFor(compileCorpus(t, "fib", false), e)()
		if err != nil {
			t.Fatal(err)
		}
		m.RunSteps(1 << 30)
		want := m.Stats().Instructions + m.Stats().TotalExceptions()
		if st := runJob(t, svc, e, 0); st.State != "done" || st.Steps != want {
			t.Errorf("%s: finished job is %s after %d steps, want done after %d", e, st.State, st.Steps, want)
		}

		st := runJob(t, svc, e, 5000)
		if st.State != "failed" || st.Error != "step limit 5000 exceeded" || st.Steps != 5000 || st.Instructions != 5000 {
			t.Errorf("%s: 5000-step job is %s (%q) after %d steps and %d instructions, want failed at 5000 of each",
				e, st.State, st.Error, st.Steps, st.Instructions)
		}
	}
}
