package sim_test

// A restore replaces instruction memory wholesale, so it must drop
// every block and trace translated from the code it replaces. Restores
// onto a fresh machine, or over the same code, cannot show a stale
// translation; this test restores one program's capture over a machine
// that has translated another program at the same addresses.

import (
	"testing"

	"mips/internal/sim"
)

func TestRestoreOverOtherCodeDropsTranslations(t *testing.T) {
	// B: fib, captured mid-run on the reference engine, and its
	// reference finish from that capture.
	b, err := sim.New(sim.WithEngine(sim.Reference))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(compileCorpus(t, "fib", false)); err != nil {
		t.Fatal(err)
	}
	if _, halted := b.RunSteps(2000); halted {
		t.Fatal("fib finished before its capture")
	}
	snap, err := b.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	ehRef := newEventHasher()
	ref, err := sim.New(sim.WithEngine(sim.Reference), sim.WithHooks(ehRef.hooks(false)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RestoreOver(ref, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	want := capture(t, ref, ehRef)
	// Stale code tends to loop: stop it well before a minute.
	limit := 2 * want.stats.Instructions

	queens := compileCorpus(t, "queens", false)
	for _, eng := range []sim.Engine{sim.Blocks, sim.Traces} {
		t.Run(eng.String(), func(t *testing.T) {
			// A: queens, run until it has translated blocks (and, on the
			// traces engine, compiled traces) over the addresses fib's
			// code occupies.
			eh := newEventHasher()
			a, err := sim.New(sim.WithEngine(eng), sim.WithHooks(eh.hooks(false)))
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Load(queens); err != nil {
				t.Fatal(err)
			}
			for len(a.CPU().BlockSites()) == 0 || eng == sim.Traces && len(a.CPU().TraceSites()) == 0 {
				if _, halted := a.RunSteps(5000); halted {
					t.Fatal("queens halted before it had blocks and traces")
				}
			}

			if err := sim.RestoreOver(a, snap); err != nil {
				t.Fatal(err)
			}
			*eh = *newEventHasher()
			if _, err := a.Run(limit); err != nil {
				t.Fatal(err)
			}
			diffImages(t, want, capture(t, a, eh))
		})
	}
}
