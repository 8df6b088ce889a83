package sim_test

// Template forks run on their template's golden code (Template.Fork,
// cpu.RestoreFork): the first fork publishes what it translates there,
// and later forks adopt it. A kernel fork pages its program in, which
// moves it to a code of its own; its siblings keep adopting from the
// template's.

import (
	"fmt"
	"sync"
	"testing"

	"mips/internal/kernel"
	"mips/internal/sim"
)

// TestForksAdoptFromTheirTemplate captures templates of bare calc and
// fib and kernel fib and strings right after load, as mipsd captures
// them, and runs trace-tier forks of each, four in turn, then four at a
// time. Every fork must match a reference-engine fork's output,
// statistics, memory and event hash. The first fork adopts nothing; a
// later bare fork translates nothing. A later kernel fork adopts the
// kernel blocks it runs before its first page-in and nothing after it,
// and the fork after it still adopts.
func TestForksAdoptFromTheirTemplate(t *testing.T) {
	for _, tc := range []struct {
		prog   string
		kernel bool
	}{{"calc", false}, {"fib", false}, {"fib", true}, {"strings", true}} {
		t.Run(fmt.Sprintf("%s/kernel=%v", tc.prog, tc.kernel), func(t *testing.T) {
			var opts []sim.Option
			if tc.kernel {
				opts = append(opts, sim.WithKernel(kernel.Config{}))
			}
			master, err := sim.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := master.Load(compileCorpus(t, tc.prog, tc.kernel)); err != nil {
				t.Fatal(err)
			}
			tpl, err := sim.NewTemplatePool().Capture(tc.prog, master, 0)
			if err != nil {
				t.Fatal(err)
			}
			fork := func(eng sim.Engine) (*sim.Machine, *eventHasher) {
				eh := newEventHasher()
				f, err := tpl.Fork(sim.WithEngine(eng), sim.WithHooks(eh.hooks(false)))
				if err != nil {
					t.Fatal(err)
				}
				return f, eh
			}
			finish := func(f *sim.Machine, eh *eventHasher) machineImage {
				if _, err := f.Run(100_000_000); err != nil {
					t.Fatal(err)
				}
				return capture(t, f, eh)
			}
			want := finish(fork(sim.Reference))
			adopted := func(f *sim.Machine) uint64 { return f.Trans().BlockAdoptions + f.Trans().TraceAdoptions }

			for i := range 4 {
				f, eh := fork(sim.Traces)
				if tc.kernel && i > 0 {
					// Quanta longer than a block, so the blocks tier runs,
					// until the quantum that pages the program in.
					for reads := f.Kernel().DiskReads(); f.Kernel().DiskReads() == reads; {
						if _, halted := f.RunSteps(200); halted {
							t.Fatalf("fork %d halted before its first page-in", i+1)
						}
					}
					before := adopted(f)
					if before == 0 {
						t.Errorf("fork %d adopted nothing before its first page-in", i+1)
					}
					diffImages(t, want, finish(f, eh))
					if n := adopted(f); n != before {
						t.Errorf("fork %d adopted %d translations after its first page-in; want a code of its own", i+1, n-before)
					}
				} else {
					diffImages(t, want, finish(f, eh))
				}
				tr := f.Trans()
				t.Logf("fork %d: %d blocks translated, %d adopted, %d traces adopted", i+1, tr.BlockTranslations, tr.BlockAdoptions, tr.TraceAdoptions)
				switch {
				case i == 0 && (adopted(f) != 0 || tr.BlockTranslations == 0):
					t.Errorf("fork 1 adopted %d translations and translated %d blocks; want it to publish", adopted(f), tr.BlockTranslations)
				case i > 0 && !tc.kernel && (tr.BlockTranslations != 0 || tr.BlockAdoptions == 0):
					t.Errorf("fork %d translated %d blocks and adopted %d; want every block adopted", i+1, tr.BlockTranslations, tr.BlockAdoptions)
				case i > 0 && tc.kernel && tr.BlockTranslations == 0:
					t.Errorf("fork %d translated no block after its page-in", i+1)
				}
			}

			var wg sync.WaitGroup
			got := make([]machineImage, 4)
			for i := range got {
				f, eh := fork(sim.Traces)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := f.Run(100_000_000); err != nil {
						t.Error(err)
					}
					if f.Halted() {
						got[i] = capture(t, f, eh)
					}
				}()
			}
			wg.Wait()
			for _, img := range got {
				diffImages(t, want, img)
			}
		})
	}
}
