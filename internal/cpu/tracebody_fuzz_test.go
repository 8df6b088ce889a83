package cpu

import "testing"

// traceBodySeeds are FuzzTraceBody's committed inputs: an environment
// and a bbSeed key. Together they reach each packed handler mapped and
// unmapped, guarded and unguarded, and through each of its exits
// (overflow, memory fault, and a store's self-invalidation).
var traceBodySeeds = []struct {
	env uint8
	k   uint32
}{
	{0, 85722}, {0, 5633}, {0, 85870},
	{bbMapped, 123869}, {bbMapped, 98452}, {bbMapped, 129403},
	{bbMapped | bbPendingLoad, 9607},
	{bbOverflow, 84544}, {bbOverflow, 12328}, {bbOverflow, 98526},
	{bbOverflow | bbMapped, 280053}, {bbOverflow | bbMapped, 264570}, {bbOverflow | bbMapped, 394747},
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
// tests nothing of the trace tier.
func TestTraceBodySeedsDispatch(t *testing.T) {
	for _, s := range traceBodySeeds {
		m := newBBMachine(s.env, bbSeed(s.k), true)
		m.run(t, s.env, EngineTraces)
		if m.c.Trans.TraceDispatchHits == 0 {
			t.Errorf("seed {%#x, %d} never dispatched a trace", s.env, s.k)
		}
	}
}
