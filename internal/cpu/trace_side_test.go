package cpu

// Side-exit traces and indirect inline caches: the deopt-driven half of
// the trace tier. A periodic direction pattern is no test — multi-block
// recording absorbs any period that fits in traceMaxBlocks and the
// trace runs clean — so these workloads derive branch directions and
// indirect targets from a branchless Galois LFSR, which no finite
// recording can predict. The tests pin that (a) the machine stays
// architecturally identical to the lower tiers under ~50% guard
// misprediction, (b) hot exits resolve inside the trace tier through
// side stubs and inline caches, (c) the new counters partition exactly,
// and (d) the derived side state obeys the same coherence and
// allocation rules as the traces it hangs off.

import (
	"testing"

	"mips/internal/isa"
)

var (
	lfsrTaps uint32 = 0xEDB88320
	lfsrSeed uint32 = 0xACE12345
)

// lfsrBranchCPU builds a loop whose branch direction is the LFSR's
// output bit: r4 steps one Galois round per iteration (branchlessly, so
// the only data-dependent branch is the one under test) and the bit
// picks the +3 or +2 arm. Any compiled trace records one direction at
// word 8 and mispredicts about half of all passes — the side-stub
// formation workload.
func lfsrBranchCPU(n int32) *CPU {
	pick := isa.Branch(isa.CmpNE, isa.R(5), isa.Imm(0), "")
	pick.Target = 13
	skip := isa.Jump("")
	skip.Target = 15
	back := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	back.Target = 3
	return newTestCPU(
		w(isa.LoadImm32(1, n)),                          // 0
		w(isa.LoadImm32(8, int32(lfsrTaps))),            // 1
		w(isa.LoadImm32(4, int32(lfsrSeed))),            // 2
		w(isa.ALU(isa.OpAnd, 5, isa.R(4), isa.Imm(1))),  // 3: entry: output bit
		w(isa.ALU(isa.OpSrl, 4, isa.R(4), isa.Imm(1))),  // 4
		w(isa.ALU(isa.OpRSub, 3, isa.R(5), isa.Imm(0))), // 5: mask = 0 - bit
		w(isa.ALU(isa.OpAnd, 3, isa.R(3), isa.R(8))),    // 6
		w(isa.ALU(isa.OpXor, 4, isa.R(4), isa.R(3))),    // 7: feedback
		w(pick),      // 8: bne r5, #0, 13
		w(isa.Nop()), // 9: delay slot (patch target)
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(2))), // 10: clear arm
		w(skip),      // 11: j 15
		w(isa.Nop()), // 12: delay slot
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(3))), // 13: set arm
		w(isa.Nop()), // 14
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 15: converge
		w(back),      // 16: bne r1, #0, 3
		w(isa.Nop()), // 17: delay slot
		halt,         // 18
	)
}

// lfsrBranchR2 is the architectural result the workload must produce.
func lfsrBranchR2(n int32) uint32 {
	s := lfsrSeed
	var r2 uint32
	for i := int32(0); i < n; i++ {
		bit := s & 1
		s = (s >> 1) ^ (lfsrTaps & -bit)
		if bit != 0 {
			r2 += 3
		} else {
			r2 += 2
		}
	}
	return r2
}

// TestSideTraceLFSRBranch pins side-stub formation and the exit
// partition on the unpredictable-direction workload, differentially
// against the other three engines.
func TestSideTraceLFSRBranch(t *testing.T) {
	const n = 4000
	trc := lfsrBranchCPU(n)
	run(t, trc, 1_000_000)

	blk := lfsrBranchCPU(n)
	blk.SetEngine(EngineBlocks)
	run(t, blk, 1_000_000)

	fast := lfsrBranchCPU(n)
	fast.SetEngine(EngineFast)
	run(t, fast, 1_000_000)

	ref := lfsrBranchCPU(n)
	ref.SetEngine(EngineReference)
	run(t, ref, 1_000_000)

	if trc.Regs != blk.Regs || trc.Regs != fast.Regs || trc.Regs != ref.Regs {
		t.Errorf("registers diverge:\n traces %v\n blocks %v\n   fast %v\n    ref %v",
			trc.Regs, blk.Regs, fast.Regs, ref.Regs)
	}
	if trc.Stats != blk.Stats || trc.Stats != fast.Stats || trc.Stats != ref.Stats {
		t.Errorf("stats diverge:\n traces %+v\n blocks %+v\n   fast %+v\n    ref %+v",
			trc.Stats, blk.Stats, fast.Stats, ref.Stats)
	}
	if want := lfsrBranchR2(n); trc.Regs[2] != want {
		t.Errorf("r2 = %d, want %d", trc.Regs[2], want)
	}

	if trc.Trans.TraceCompiled == 0 {
		t.Fatal("workload never compiled a trace; side exits cannot be exercised")
	}
	if trc.Trans.TraceSideCompiled == 0 {
		t.Error("unpredictable branch never compiled a side stub")
	}
	if trc.Trans.TraceSideHits == 0 {
		t.Error("no direction exit was resolved in-tier")
	}
	// The taxonomy still partitions the (now rarer) real guard exits.
	if got, want := trc.Trans.GuardExitReasonTotal(), trc.Trans.TraceGuardExits; got != want {
		t.Errorf("deopt reasons sum to %d, want TraceGuardExits %d", got, want)
	}
	// In-tier resolution must dominate: the whole point of the side stub
	// is that a 50%-mispredicting guard stops exiting to dispatch.
	if trc.Trans.TraceSideHits <= trc.Trans.TraceDeopts[DeoptBranchDirection] {
		t.Errorf("side hits (%d) do not dominate branch-direction exits (%d)",
			trc.Trans.TraceSideHits, trc.Trans.TraceDeopts[DeoptBranchDirection])
	}
	// Side stubs appear in the introspection view, flagged as such, and
	// the per-site counters still sum to the globals (nothing was dropped
	// in this run, so live sites account for everything).
	var stubs int
	var hits, sideHits, icHits uint64
	for _, s := range trc.TraceSites() {
		if s.Side {
			stubs++
		}
		hits += s.Hits
		sideHits += s.SideHits
		icHits += s.ICHits
	}
	if stubs == 0 {
		t.Error("no side stub visible in TraceSites")
	}
	if hits != trc.Trans.TraceDispatchHits {
		t.Errorf("site hits sum to %d, want TraceDispatchHits %d", hits, trc.Trans.TraceDispatchHits)
	}
	if sideHits != trc.Trans.TraceSideHits || icHits != trc.Trans.TraceICHits {
		t.Errorf("per-site side/IC hits (%d/%d) diverge from globals (%d/%d)",
			sideHits, icHits, trc.Trans.TraceSideHits, trc.Trans.TraceICHits)
	}
}

// lfsrIndirectCPU builds a loop whose indirect jump target is COMPUTED
// branchlessly from two LFSR bits — `16 + 4*(bit1+bit0)` picks one of
// three landing sites A/B/C — so the indirect guard itself, not an
// earlier direction guard, is what catches the divergence. The compiled
// trace bakes one target in as the expected continuation; the other two
// must install into the jump op's two-entry inline cache, and three
// targets exactly fill recorded-plus-IC so steady state never churns.
// After the arms converge, a second branch on the LFSR bit adds a ~50%
// mispredicting direction guard, so one workload exercises side stubs
// and inline caches together.
func lfsrIndirectCPU(n int32) *CPU {
	convA := isa.Jump("")
	convA.Target = 28
	convB := isa.Jump("")
	convB.Target = 28
	dir := isa.Branch(isa.CmpNE, isa.R(3), isa.Imm(0), "")
	dir.Target = 34
	skip := isa.Jump("")
	skip.Target = 36
	back := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	back.Target = 3
	return newTestCPU(
		w(isa.LoadImm32(1, n)),                          // 0
		w(isa.LoadImm32(8, int32(lfsrTaps))),            // 1
		w(isa.LoadImm32(4, int32(lfsrSeed))),            // 2
		w(isa.ALU(isa.OpAnd, 6, isa.R(4), isa.Imm(1))),  // 3: entry: bit0
		w(isa.ALU(isa.OpAnd, 5, isa.R(4), isa.Imm(2))),  // 4: bit1 (in place)
		w(isa.ALU(isa.OpSrl, 5, isa.R(5), isa.Imm(1))),  // 5
		w(isa.ALU(isa.OpAdd, 5, isa.R(5), isa.R(6))),    // 6: 0,1,1,2
		w(isa.ALU(isa.OpSll, 5, isa.R(5), isa.Imm(2))),  // 7
		w(isa.ALU(isa.OpAdd, 9, isa.R(5), isa.Imm(16))), // 8: target = 16+4*site
		w(isa.ALU(isa.OpSrl, 4, isa.R(4), isa.Imm(1))),  // 9: LFSR shift
		w(isa.ALU(isa.OpRSub, 3, isa.R(6), isa.Imm(0))), // 10: mask = 0 - bit0
		w(isa.ALU(isa.OpAnd, 7, isa.R(3), isa.R(8))),    // 11
		w(isa.ALU(isa.OpXor, 4, isa.R(4), isa.R(7))),    // 12: feedback
		w(isa.JumpInd(9)),                               // 13: computed target
		w(isa.Nop()),                                    // 14: delay slot
		w(isa.Nop()),                                    // 15: delay slot
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1))),  // 16: A (site 0)
		w(convA),     // 17: j 28
		w(isa.Nop()), // 18: delay slot
		w(isa.Nop()), // 19: pad
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(2))), // 20: B (site 1)
		w(convB),     // 21: j 28
		w(isa.Nop()), // 22: delay slot
		w(isa.Nop()), // 23: pad
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(3))), // 24: C (site 2)
		w(isa.Nop()), // 25
		w(isa.Nop()), // 26
		w(isa.Nop()), // 27
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 28: converge
		w(dir),       // 29: bne r3, #0, 34
		w(isa.Nop()), // 30: delay slot
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(5))), // 31: bit-clear arm
		w(skip),      // 32: j 36
		w(isa.Nop()), // 33: delay slot
		w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(7))), // 34: bit-set arm
		w(isa.Nop()), // 35
		w(back),      // 36: bne r1, #0, 3
		w(isa.Nop()), // 37: delay slot
		halt,         // 38
	)
}

// lfsrIndirectR2 mirrors the workload's accumulation in plain Go.
func lfsrIndirectR2(n int32) uint32 {
	s := lfsrSeed
	var r2 uint32
	for i := int32(0); i < n; i++ {
		bit := s & 1
		site := (s>>1)&1 + bit
		s = (s >> 1) ^ (lfsrTaps & -bit)
		r2 += site + 1 // arms add 1, 2, 3
		if bit != 0 {
			r2 += 7
		} else {
			r2 += 5
		}
	}
	return r2
}

// TestInlineCacheLFSRIndirect pins the indirect inline cache on the
// rotating-target workload, differentially against the other three
// engines: targets beyond the recorded one install into the IC, hot
// lookups resolve in-tier, and the exit/resolution counters partition.
func TestInlineCacheLFSRIndirect(t *testing.T) {
	const n = 4000
	trc := lfsrIndirectCPU(n)
	run(t, trc, 1_000_000)

	blk := lfsrIndirectCPU(n)
	blk.SetEngine(EngineBlocks)
	run(t, blk, 1_000_000)

	fast := lfsrIndirectCPU(n)
	fast.SetEngine(EngineFast)
	run(t, fast, 1_000_000)

	ref := lfsrIndirectCPU(n)
	ref.SetEngine(EngineReference)
	run(t, ref, 1_000_000)

	if trc.Regs != blk.Regs || trc.Regs != fast.Regs || trc.Regs != ref.Regs {
		t.Errorf("registers diverge:\n traces %v\n blocks %v\n   fast %v\n    ref %v",
			trc.Regs, blk.Regs, fast.Regs, ref.Regs)
	}
	if trc.Stats != blk.Stats || trc.Stats != fast.Stats || trc.Stats != ref.Stats {
		t.Errorf("stats diverge:\n traces %+v\n blocks %+v\n   fast %+v\n    ref %+v",
			trc.Stats, blk.Stats, fast.Stats, ref.Stats)
	}
	if want := lfsrIndirectR2(n); trc.Regs[2] != want {
		t.Errorf("r2 = %d, want %d", trc.Regs[2], want)
	}

	if trc.Trans.TraceCompiled == 0 {
		t.Fatal("workload never compiled a trace; the inline cache cannot be exercised")
	}
	if trc.Trans.TraceICInstalls < 2 {
		t.Errorf("rotating indirect target installed %d inline-cache entries, want >= 2 (both non-recorded targets)",
			trc.Trans.TraceICInstalls)
	}
	if trc.Trans.TraceICHits == 0 {
		t.Error("no indirect-target exit was resolved through the inline cache")
	}
	if got, want := trc.Trans.GuardExitReasonTotal(), trc.Trans.TraceGuardExits; got != want {
		t.Errorf("deopt reasons sum to %d, want TraceGuardExits %d", got, want)
	}
	if trc.Trans.TraceICHits <= trc.Trans.TraceDeopts[DeoptIndirectTarget] {
		t.Errorf("IC hits (%d) do not dominate indirect-target exits (%d)",
			trc.Trans.TraceICHits, trc.Trans.TraceDeopts[DeoptIndirectTarget])
	}
}

// TestSideTracePatchInvalidation is the self-modification contract
// applied to a side stub: a patch into the stub's covered word — the
// branch delay slot it compiled — must drop the stub (and its parent)
// through the code write, never replaying stale code, and the stub
// must re-form from the patched memory once its exit runs hot again.
// The patch lands only at run boundaries where the current iteration's
// delay slot has not yet executed (PC <= the branch shadow), so the
// architectural result stays exactly computable. Runs of 97 steps end
// at every word of the loop in turn.
func TestSideTracePatchInvalidation(t *testing.T) {
	const n = 8000
	c := lfsrBranchCPU(n)
	patched := false
	var left uint32
	for !c.Halted {
		c.RunSteps(97)
		// Wait for a live side stub before patching, so the drop path
		// under test actually has a stub to drop. Word 9 (the shadow nop
		// both the parent trace and the stub compiled) becomes an
		// accumulator bump; it executes exactly once per remaining
		// iteration regardless of branch direction.
		if !patched && c.Trans.TraceSideCompiled > 0 && c.PC() <= 9 && c.Regs[1] > 0 {
			patched = true
			left = c.Regs[1]
			c.WriteCode(9, []isa.Instr{w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(10)))})
		}
	}
	if !patched {
		t.Fatal("no run boundary offered a patch point with a live side stub")
	}
	if want := lfsrBranchR2(n) + 10*left; c.Regs[2] != want {
		t.Errorf("r2 = %d, want %d (stale side stub executed after patch)", c.Regs[2], want)
	}
	if c.Trans.TraceInvalidations == 0 {
		t.Error("the patch into side-stub text dropped no trace")
	}
	if c.Trans.TraceSideCompiled < 2 {
		t.Errorf("side stub compiled %d times, want >= 2 (initial build plus post-patch rebuild)",
			c.Trans.TraceSideCompiled)
	}
}

// TestSideTraceZeroAllocSteadyState extends the steady-state allocation
// contract to the new dispatch paths: once side stubs and inline-cache
// entries exist, resolving guard exits through them must not allocate.
func TestSideTraceZeroAllocSteadyState(t *testing.T) {
	c := lfsrIndirectCPU(2_000_000)
	// Warm until formation, stub builds, and IC installs have all
	// happened and every heat entry has settled — never during the
	// measurement.
	for i := 0; i < 1024; i++ {
		c.RunSteps(1000)
	}
	if c.Trans.TraceCompiled == 0 || c.Trans.TraceSideCompiled == 0 || c.Trans.TraceICInstalls == 0 {
		t.Fatalf("warmup did not reach steady state (compiled=%d side=%d ic=%d); the measurement would be vacuous",
			c.Trans.TraceCompiled, c.Trans.TraceSideCompiled, c.Trans.TraceICInstalls)
	}
	d0, r0 := c.Trans.TraceDispatchHits, c.Trans.TraceSideHits+c.Trans.TraceICHits
	avg := testing.AllocsPerRun(100, func() { c.RunSteps(1000) })
	if avg != 0 {
		t.Errorf("steady-state run with live side stubs/ICs allocates %v allocs/op, want 0", avg)
	}
	if c.Trans.TraceDispatchHits == d0 || c.Trans.TraceSideHits+c.Trans.TraceICHits == r0 {
		t.Error("the measured runs resolved no guard exit through a side stub or inline cache")
	}
}
