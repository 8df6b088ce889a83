package cpu

import (
	"testing"

	"mips/internal/mem"
)

// traceBodySeeds are FuzzTraceBody's committed inputs: an environment
// and a bbSeed key. Together they reach each packed handler mapped and
// unmapped, with and without a load pending, and through each of its
// exits (overflow and memory fault). The seeds marked dev load from and
// store to the looped layout's device page, through trLoad, trStore and
// trPackedMem (a packed load, then a packed store), and so leave their
// mapped traces through the device exit. The next two, unmapped and
// mapped, run trALU words that read a load's destination in its delay
// slot, which the hazard audit must see. The rest reach what the others
// miss of the generic and check-free handlers: a load pending at a
// mapped trace's nops, set-condition, long-immediate (trALU), load and
// store words, the fault exits of trLoad, trStore, trLoadDisp and
// trStoreDisp, and trALU's overflow exit. The next reaches a mapped
// branch recorded taken with a load pending. Then, in order: guard
// exits of a trBranch recorded not taken, whose delay slot the lower
// tiers then run, unmapped and mapped; guard exits of trJumpInd with
// a load pending, unmapped and mapped, which need bbJumpMove (without
// it the jump always goes where the trace recorded); the overflow exits
// of trAdd and of trSub; a load pending at a trLoad, which a trLoad
// that skips its pending-load commit gets wrong; all mapped with a load
// pending at entry, an or (trALU), a load pending at a trCall, and
// trStore's fault exit; and, mapped, the overflow exits of trAdd, trSub
// and trALU.
var traceBodySeeds = []struct {
	env uint8
	k   uint32
	dev bool
}{
	{0, 85722, false}, {0, 5633, false}, {0, 85870, false},
	{bbMapped, 123869, false}, {bbMapped, 98452, false}, {bbMapped, 129403, false},
	{bbMapped | bbPendingLoad, 9607, false},
	{bbOverflow, 365827, false}, {bbOverflow, 12328, false}, {bbOverflow, 111976, false},
	{bbOverflow | bbMapped, 280053, false}, {bbOverflow | bbMapped, 970137, false}, {bbOverflow | bbMapped, 394747, false},
	{bbMapped, 369, true}, {bbMapped, 359, true}, {bbMapped, 863, true}, {bbMapped, 960, true},
	{0, 145, false}, {bbMapped, 6979, false},
	{bbMapped, 8157, false}, {bbMapped, 6521, false}, {bbMapped, 5, false}, {bbMapped, 13805, false},
	{0, 3940, false}, {0, 7800, false}, {0, 1896, false}, {0, 9178, false},
	{bbOverflow | bbPendingLoad, 12467, false}, {bbMapped | bbPendingLoad, 1360, false},
	{0, 2064, false}, {bbMapped | bbPendingLoad, 19921, false},
	{bbJumpMove, 1887, false}, {bbJumpMove | bbMapped | bbPendingLoad, 5532, false},
	{bbOverflow, 105303, false}, {bbOverflow, 27714, false},
	{bbPendingLoad, 1807, false},
	{bbMapped | bbPendingLoad, 409, false}, {bbMapped | bbPendingLoad, 3464, false}, {bbMapped | bbPendingLoad, 21100, false},
	{bbOverflow | bbMapped, 395650, false}, {bbOverflow | bbMapped, 44354, false}, {bbOverflow | bbMapped | bbPendingLoad, 49456, false},
}

// traceBodyProgs are FuzzTraceBody inputs written out byte by byte, for
// shapes the generator's keys practically never build. The first is a
// looped body in which a load's delayed commit falls due at a nop and
// the next word, a check-free add, reads the loaded register: trNop must
// commit the load. The load address moves every pass, so the stale and
// the loaded values differ.
var traceBodyProgs = []struct {
	env  uint8
	prog []byte
}{
	{0, []byte{
		5,                   // six body words
		1, 1, 0, 4, 8, 4, 3, // add r4, r4, #1
		0,                // nop
		3, 3, 0, 1, 0, 4, // ld r3, 0(r4)
		1, 1, 0, 6, 6, 3, 1, // add r6, r3, #0: reads the stale r3, so the load is not eager
		0,                        // nop: the load's commit falls due
		1, 1, 0, 5, 10, 5, 12, 3, // add r5, r5, r3: check-free, reads the loaded r3
		5, 0, 0, // jump to the tail, with nops in the delay slots
		// Registers r0-r3 hold PageWords, r4 the first data word.
		0, 0, 0, 0, 0, 0, 0, 0, mem.PageWords >> 4, 0,
	}},
}

// FuzzTraceBody runs one random superblock on the trace tier and on the
// reference interpreter and requires the state FuzzBlockBody compares
// to agree. The block loops back to its entry bbLoops times under a
// reserved counter, so it runs hot enough to form, compile and dispatch
// a trace, and the lower tiers run the delay slots its guard exits
// leave in flight.
func FuzzTraceBody(f *testing.F) {
	for _, s := range traceBodySeeds {
		f.Add(s.env, bbSeed(s.k))
	}
	for _, s := range traceBodyProgs {
		f.Add(s.env, s.prog)
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
	for i, s := range traceBodyProgs {
		m := newBBMachine(s.env, s.prog, true)
		m.run(t, s.env, EngineTraces)
		if m.c.Trans.TraceDispatchHits == 0 {
			t.Errorf("written-out input %d never dispatched a trace", i)
		}
	}
}
