package sim_test

// A compiled trace lives on its entry block in the CPU's one table of
// translations. Only a code write that meets it, or a newer trace
// formed at the same entry block, may take it out: nothing evicts a
// trace to make room for another.

import (
	"testing"

	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/kernel"
	"mips/internal/sim"
)

// TestCompiledTracesStayLive runs every corpus program on the traces
// engine, bare and as a kernel process, and requires every trace it
// compiled to be live at halt.
func TestCompiledTracesStayLive(t *testing.T) {
	for _, p := range corpus.All() {
		for _, kern := range []bool{false, true} {
			name := p.Name
			opts := []sim.Option{sim.WithEngine(sim.Traces)}
			if kern {
				name += "/kernel"
				opts = append(opts, sim.WithKernel(kernel.Config{}))
			}
			t.Run(name, func(t *testing.T) {
				m, err := sim.New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Load(compileCorpus(t, p.Name, kern)); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(50_000_000); err != nil {
					t.Fatal(err)
				}
				tr := m.Trans()
				if tr.TraceInvalidations != 0 {
					t.Fatalf("%d traces invalidated by code writes; the count below would not be exact", tr.TraceInvalidations)
				}
				if live := len(m.CPU().TraceSites()); uint64(live) != tr.TraceCompiled {
					t.Errorf("%d of %d compiled traces live at halt", live, tr.TraceCompiled)
				}
			})
		}
	}
}

// TestProcessesKeepTheirTraces runs two sort processes under the
// interval timer. They enter the same virtual code from distinct
// frames, so each virtual entry either process compiled a trace at
// must hold one live trace per process at halt.
func TestProcessesKeepTheirTraces(t *testing.T) {
	m, err := sim.New(sim.WithEngine(sim.Traces), sim.WithKernel(kernel.Config{TimerPeriod: 500}))
	if err != nil {
		t.Fatal(err)
	}
	im := compileCorpus(t, "sort", true)
	for range 2 {
		if err := m.Load(im); err != nil {
			t.Fatal(err)
		}
	}
	c := m.CPU()
	compiled := map[uint32]map[uint32]bool{} // entry PC -> PIDs that compiled there
	c.SetJITHook(func(e cpu.JITEvent) {
		if e.Kind != cpu.JITCompiled {
			return
		}
		if compiled[e.PC] == nil {
			compiled[e.PC] = map[uint32]bool{}
		}
		compiled[e.PC][c.Bus.MMU.Seg.PID()] = true
	})
	if _, err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if n := m.Trans().TraceInvalidations; n != 0 {
		t.Fatalf("%d traces invalidated by code writes; the count below would not be exact", n)
	}
	live := map[uint32]int{}
	for _, s := range c.TraceSites() {
		live[s.EntryPC]++
	}
	shared := 0
	for pc, pids := range compiled {
		if len(pids) == 2 {
			shared++
		}
		if live[pc] != len(pids) {
			t.Errorf("entry %d: %d live traces, want one for each of the %d processes that compiled one", pc, live[pc], len(pids))
		}
	}
	if shared == 0 {
		t.Fatal("no entry compiled a trace in both processes; the test is vacuous")
	}
}
