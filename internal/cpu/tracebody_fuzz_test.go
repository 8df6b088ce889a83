package cpu

import "testing"

// traceBodySeeds are FuzzTraceBody's committed inputs: an environment
// and a bbSeed key. Together they reach each packed handler mapped and
// unmapped, with and without a load pending, and through each of its
// exits (overflow and memory fault). The seeds marked dev load from and
// store to the looped layout's device page, through trLoad, trStore,
// trPackedLoad and trPackedStore in turn, and so leave their mapped
// traces through the device exit. The next two, unmapped and mapped,
// run trALU words that read a load's destination in its delay slot,
// which the hazard audit must see. The rest reach what the others miss
// of the generic and check-free handlers: a load pending at a mapped
// trace's nops, set-condition, long-immediate, load and store words,
// the fault exits of trLoad, trStore, trLoadDisp and trStoreDisp, and
// trALU's overflow exit.
var traceBodySeeds = []struct {
	env uint8
	k   uint32
	dev bool
}{
	{0, 85722, false}, {0, 5633, false}, {0, 85870, false},
	{bbMapped, 123869, false}, {bbMapped, 98452, false}, {bbMapped, 129403, false},
	{bbMapped | bbPendingLoad, 9607, false},
	{bbOverflow, 84544, false}, {bbOverflow, 12328, false}, {bbOverflow, 98526, false},
	{bbOverflow | bbMapped, 280053, false}, {bbOverflow | bbMapped, 264570, false}, {bbOverflow | bbMapped, 394747, false},
	{bbMapped, 369, true}, {bbMapped, 359, true}, {bbMapped, 863, true}, {bbMapped, 960, true},
	{0, 145, false}, {bbMapped, 6979, false},
	{bbMapped, 8157, false}, {bbMapped, 6521, false}, {bbMapped, 5, false}, {bbMapped, 13805, false},
	{0, 3940, false}, {0, 7800, false}, {0, 1896, false}, {0, 9178, false},
	{bbOverflow | bbPendingLoad, 12467, false},
}

// FuzzTraceBody runs one random superblock on the trace tier and on the
// reference interpreter and requires the state FuzzBlockBody compares
// to agree. The block loops back to its entry bbLoops times under a
// reserved counter, so it runs hot enough to form, compile and dispatch
// a trace, and its exits reach side stubs and inline caches.
func FuzzTraceBody(f *testing.F) {
	for _, s := range traceBodySeeds {
		f.Add(s.env, bbSeed(s.k))
	}
	f.Fuzz(func(t *testing.T, env uint8, prog []byte) {
		trc := newBBMachine(env, prog, true)
		trc.run(t, env, EngineTraces)
		ref := newBBMachine(env, prog, true)
		ref.run(t, env, EngineReference)
		trc.requireSame(t, "traces", ref)
	})
}

// TestTraceBodySeedsDispatch requires every committed FuzzTraceBody seed
// to dispatch a compiled trace: a seed that never leaves the lower tiers
// tests nothing of the trace tier. A dev seed must also count an
// environment deopt with no ticker attached, which only a device exit
// counts.
func TestTraceBodySeedsDispatch(t *testing.T) {
	for _, s := range traceBodySeeds {
		m := newBBMachine(s.env, bbSeed(s.k), true)
		m.run(t, s.env, EngineTraces)
		if m.c.Trans.TraceDispatchHits == 0 {
			t.Errorf("seed {%#x, %d} never dispatched a trace", s.env, s.k)
		}
		if s.dev && (m.timer != nil || m.c.Trans.TraceDeoptEnvironment == 0) {
			t.Errorf("seed {%#x, %d} took no device exit", s.env, s.k)
		}
	}
}
