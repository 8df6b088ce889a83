package cpu

// Guard exits that leave delay slots in flight: a branch recorded not
// taken that was taken leaves [ds, target], and an indirect jump to a
// target the trace did not record leaves [ds0, ds1, target]. The chain
// ends there, and the lower tiers run those words on the exact executor
// before dispatch looks up the next trace. A periodic direction pattern
// is no test — multi-block recording absorbs any period that fits in
// traceMaxBlocks and the trace runs clean — so these workloads derive
// branch directions and indirect targets from a branchless Galois LFSR,
// which no finite recording can predict. The tests pin that (a) the
// machine stays architecturally identical to the lower tiers under ~50%
// guard misprediction, (b) both guard kinds exit and every retired
// instruction is charged to exactly one tier, (c) a code write into a
// delay slot a guard exit leaves in flight drops the trace and never
// runs stale code, (d) those exits allocate nothing, and (e) with a
// timer attached, a delay slot the lower tiers run into a fault leaves
// the timer exactly where the reference engine leaves it.

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

var (
	lfsrTaps uint32 = 0xEDB88320
	lfsrSeed uint32 = 0xACE12345
)

// lfsrBranchCPU builds a loop whose branch direction is the LFSR's
// output bit: r4 steps one Galois round per iteration (branchlessly, so
// the only data-dependent branch is the one under test) and the bit
// picks the +3 or +2 arm. Any compiled trace records one direction at
// word 8 and mispredicts about half of all passes; a taken exit leaves
// word 9, the delay slot, to the lower tiers.
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

// runEveryEngine runs the workload build makes on each engine, traces
// first, and requires the registers and statistics of every other run
// to match the traces run, which it returns.
func runEveryEngine(t *testing.T, build func() *CPU) *CPU {
	t.Helper()
	var trc *CPU
	for _, e := range []Engine{EngineTraces, EngineBlocks, EngineFast, EngineReference} {
		c := build()
		c.SetEngine(e)
		run(t, c, 1_000_000)
		if trc == nil {
			trc = c
			continue
		}
		if c.Regs != trc.Regs {
			t.Errorf("registers diverge:\n traces %v\n engine %d %v", trc.Regs, e, c.Regs)
		}
		if c.Stats != trc.Stats {
			t.Errorf("stats diverge:\n traces %+v\n engine %d %+v", trc.Stats, e, c.Stats)
		}
	}
	return trc
}

// requireGuardExits fails t unless the traces run c exited guards of
// reason r, the reasons partition the guard exits, and every retired
// instruction is charged to one tier, the delay slots a guard exit left
// in flight to the one that ran them.
func requireGuardExits(t *testing.T, c *CPU, r DeoptReason) {
	t.Helper()
	if c.Trans.TraceCompiled == 0 {
		t.Fatal("workload never compiled a trace; guard exits cannot be exercised")
	}
	if c.Trans.TraceDeopts[r] == 0 {
		t.Errorf("no %s guard exit", r)
	}
	if got, want := c.Trans.GuardExitReasonTotal(), c.Trans.TraceGuardExits; got != want {
		t.Errorf("deopt reasons sum to %d, want TraceGuardExits %d", got, want)
	}
	if got, want := c.Trans.TierInstrTotal(), c.Stats.Instructions; got != want {
		t.Errorf("tiers sum to %d, want Instructions %d", got, want)
	}
	var hits, instrs uint64
	for _, s := range c.TraceSites() {
		hits += s.Hits
		instrs += s.Instrs
	}
	if hits != c.Trans.TraceDispatchHits || instrs != c.Trans.TierInstrs[TierTraces] {
		t.Errorf("sites sum to %d hits and %d instructions, want %d and %d",
			hits, instrs, c.Trans.TraceDispatchHits, c.Trans.TierInstrs[TierTraces])
	}
}

// TestTraceExitLFSRBranch pins direction exits on the
// unpredictable-direction workload, differentially against the other
// three engines.
func TestTraceExitLFSRBranch(t *testing.T) {
	const n = 4000
	trc := runEveryEngine(t, func() *CPU { return lfsrBranchCPU(n) })
	if want := lfsrBranchR2(n); trc.Regs[2] != want {
		t.Errorf("r2 = %d, want %d", trc.Regs[2], want)
	}
	requireGuardExits(t, trc, DeoptBranchDirection)
}

// lfsrIndirectCPU builds a loop whose indirect jump target is COMPUTED
// branchlessly from two LFSR bits — `16 + 4*(bit1+bit0)` picks one of
// three landing sites A/B/C — so the indirect guard itself, not an
// earlier direction guard, is what catches the divergence. The compiled
// trace bakes one target in as the expected continuation; an exit to B
// or C leaves both delay slots in flight, and one to A (word 16, right
// after them) leaves a sequential queue. After the arms converge, a second branch on
// the LFSR bit adds a ~50% mispredicting direction guard, so one
// workload exercises both guard kinds together.
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

// TestTraceExitLFSRIndirect pins indirect-target exits, which leave two
// delay slots to the lower tiers, together with the direction exits of
// the same loop, differentially against the other three engines.
func TestTraceExitLFSRIndirect(t *testing.T) {
	const n = 4000
	trc := runEveryEngine(t, func() *CPU { return lfsrIndirectCPU(n) })
	if want := lfsrIndirectR2(n); trc.Regs[2] != want {
		t.Errorf("r2 = %d, want %d", trc.Regs[2], want)
	}
	requireGuardExits(t, trc, DeoptIndirectTarget)
	requireGuardExits(t, trc, DeoptBranchDirection)
}

// TestTraceExitPatch is the self-modification contract applied to a
// delay slot a guard exit leaves in flight: a patch into word 9 — the
// branch's delay slot, which the lower tiers run after a taken exit —
// must drop the trace covering it through the code write, never
// replaying stale code, and the trace must re-form from the patched
// memory and keep exiting before the new word. The
// patch lands only at run boundaries where the current iteration's
// delay slot has not yet executed (PC <= the branch shadow), so the
// architectural result stays exactly computable. Runs of 97 steps end
// at every word of the loop in turn.
func TestTraceExitPatch(t *testing.T) {
	const n = 8000
	c := lfsrBranchCPU(n)
	patched := false
	var left uint32
	var compiled, exits uint64
	for !c.Halted {
		c.RunSteps(97)
		// Wait for direction exits before patching, so a trace covering
		// the delay slot is live. Word 9 (the shadow nop) becomes an
		// accumulator bump; it executes exactly once per remaining
		// iteration regardless of branch direction.
		if !patched && c.Trans.TraceDeopts[DeoptBranchDirection] > 0 && c.PC() <= 9 && c.Regs[1] > 0 {
			patched = true
			left = c.Regs[1]
			compiled, exits = c.Trans.TraceCompiled, c.Trans.TraceDeopts[DeoptBranchDirection]
			c.WriteCode(9, []isa.Instr{w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(10)))})
		}
	}
	if !patched {
		t.Fatal("no run boundary offered a patch point after a direction exit")
	}
	if want := lfsrBranchR2(n) + 10*left; c.Regs[2] != want {
		t.Errorf("r2 = %d, want %d (stale code executed after patch)", c.Regs[2], want)
	}
	if c.Trans.TraceInvalidations == 0 {
		t.Error("the patch into the delay slot dropped no trace")
	}
	if c.Trans.TraceCompiled == compiled || c.Trans.TraceDeopts[DeoptBranchDirection] == exits {
		t.Errorf("after the patch: %d traces compiled, %d direction exits; want the trace re-formed and exiting",
			c.Trans.TraceCompiled-compiled, c.Trans.TraceDeopts[DeoptBranchDirection]-exits)
	}
}

// TestTraceExitZeroAlloc extends the steady-state allocation contract
// to guard exits: once the traces exist, exits that leave delay slots
// to the lower tiers, and the dispatch back into a trace after them,
// must not allocate.
func TestTraceExitZeroAlloc(t *testing.T) {
	c := lfsrIndirectCPU(2_000_000)
	// Warm until formation has happened and every heat entry has
	// settled — never during the measurement.
	for i := 0; i < 1024; i++ {
		c.RunSteps(1000)
	}
	if c.Trans.TraceCompiled == 0 {
		t.Fatal("warmup compiled no trace; the measurement would be vacuous")
	}
	d0, x0 := c.Trans.TraceDispatchHits, c.Trans.TraceDeopts
	avg := testing.AllocsPerRun(100, func() { c.RunSteps(1000) })
	if avg != 0 {
		t.Errorf("steady-state run with guard exits allocates %v allocs/op, want 0", avg)
	}
	x := c.Trans.TraceDeopts
	if c.Trans.TraceDispatchHits == d0 || x[DeoptBranchDirection] == x0[DeoptBranchDirection] ||
		x[DeoptIndirectTarget] == x0[DeoptIndirectTarget] {
		t.Error("the measured runs took no direction or indirect-target exit")
	}
}

// userTimer is a ticking device with the kernel interval timer's
// metering: it counts user-level cycles only, so the word that raises
// an exception ticks after exception entry and is not counted. It never
// expires.
type userTimer struct {
	c     *CPU
	ticks uint64
}

func (d *userTimer) Window() (lo, hi uint32)  { return testTimerReg + 8, testTimerReg + 9 }
func (d *userTimer) ReadWord(uint32) uint32   { return uint32(d.ticks) }
func (d *userTimer) WriteWord(uint32, uint32) {}
func (d *userTimer) Horizon() uint64          { return 1 << 62 }
func (d *userTimer) Advance(n uint64)         { d.ticks += n }
func (d *userTimer) Tick() {
	if !d.c.Sur.Supervisor() {
		d.ticks++
	}
}

// Layout of exitTimerCPU: block A is the last four words of virtual
// page 0 and ends in a branch on r9, which the program never sets, so
// every recording takes it not taken. Its delay slot is the first word
// of a termless block B that fills blockMaxWords, and block C jumps
// back to A. A recording that reaches B ends there (B has no
// terminator), so every trace holding A's branch ends at it: the delay
// slot sits outside every trace, and a code write to it drops none.
const (
	exitA  = mem.PageWords - 4
	exitDS = mem.PageWords // A's delay slot, a load through r8
	exitC  = exitDS + blockMaxWords
)

// exitTimerCPU builds the mapped loop of A, B and C at user level on a
// bus with a userTimer attached. Virtual pages 0 and 1 (the code) map to
// frames 2 and 3, page 2 (the data) to frame 4, and page 3 to the
// timer's frame. The exception vector, physical word 0, halts.
func exitTimerCPU() (*CPU, *userTimer) {
	code := make([]isa.Instr, exitC+2)
	for i := range code {
		code[i] = w(isa.Nop())
	}
	toA := isa.Jump("")
	toA.Target = exitA
	code[0], code[1] = w(isa.LoadImm32(8, 2*mem.PageWords)), w(toA)
	br := isa.Branch(isa.CmpNE, isa.R(9), isa.Imm(0), "")
	br.Target = exitC
	code[exitA] = w(isa.ALU(isa.OpAdd, 2, isa.R(2), isa.Imm(1)))
	code[exitA+1] = w(isa.ALU(isa.OpAdd, 3, isa.R(3), isa.R(2)))
	code[exitA+3] = w(br)
	code[exitDS] = w(isa.LoadDisp(4, 8, 0))
	code[exitDS+1] = w(isa.ALU(isa.OpAdd, 5, isa.R(5), isa.Imm(1)))
	code[exitC] = w(toA)
	c := newTestCPU(halt)
	c.WriteCode(2*mem.PageWords, code)
	tm := &userTimer{c: c}
	c.Bus.Attach(tm)
	mmu := c.Bus.MMU
	mmu.Seg = mem.NewSegUnit(1, mem.MinSpaceBits)
	for vp, frame := range []uint32{2, 3, 4, testTimerReg >> mem.PageBits} {
		sys, _ := mmu.Seg.Translate(uint32(vp) << mem.PageBits)
		mmu.Map.Map(sys>>mem.PageBits, frame, true)
	}
	c.Sur = c.Sur.SetSupervisor(false).SetMapping(true)
	return c, tm
}

// TestTraceExitTimer runs the delay slot a direction exit leaves in
// flight into a fault with a timer attached: a data fault (the load's
// base moved to an unmapped page) and, under mapping, a fetch fault (the
// word erased to unprogrammed memory). A third case moves the load's
// base onto the timer: read before the chain's words advanced it, the
// timer would not yet count the handlers' words. The machines run the
// same number of steps into the loop, take the same perturbation at A's
// entry, and run on (to the halt the exception vector holds, when the
// word faults). The trace tier must leave the reference engine's event
// stream, registers, statistics and return addresses, and its timer
// count: the handlers' words advance the timer after the chain, the
// lower tiers' words tick themselves, and only a handler's own
// exception withholds a tick.
func TestTraceExitTimer(t *testing.T) {
	// Three loop iterations of A, B and C after the two-word preamble
	// and its delay slot leave every machine at A's entry.
	const iter = 4 + blockMaxWords + 2
	for _, tc := range []struct {
		name    string
		perturb func(c *CPU)
	}{
		{"data", func(c *CPU) { c.Regs[8] = 7 * mem.PageWords }},
		{"fetch", func(c *CPU) { c.WriteCode(3*mem.PageWords, []isa.Instr{{}}) }},
		{"device", func(c *CPU) { c.Regs[8] = 3*mem.PageWords + 8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				regs   [isa.NumRegs]uint32
				stats  Stats
				ret    [3]uint32
				pc     uint32
				halted bool
				hash   uint64
				ticks  uint64
			}
			runOn := func(e Engine) (result, TranslationStats) {
				c, tm := exitTimerCPU()
				c.SetEngine(e)
				h := attachEventHash(c)
				if _, halted := c.RunSteps(3 + 200*iter); halted || c.PC() != exitA {
					t.Fatalf("engine %d: warm-up stopped at pc %d, halted %v", e, c.PC(), halted)
				}
				c.Regs[9] = 1
				tc.perturb(c)
				_, halted := c.RunSteps(10 * iter)
				return result{c.Regs, c.Stats, c.Ret, c.PC(), halted, h.sum.Sum64(), tm.ticks}, c.Trans
			}
			ref, _ := runOn(EngineReference)
			got, trans := runOn(EngineTraces)
			if got != ref {
				t.Errorf("traces diverge:\n got %+v\n ref %+v", got, ref)
			}
			if trans.TraceDeopts[DeoptBranchDirection] == 0 {
				t.Errorf("the taken branch did not exit a trace: %s", &trans)
			}
		})
	}
}

// handlerTraceCPU builds a user loop whose trace overflows every 64th
// pass, under an exception handler at the vector that spins a short
// loop, clears the accumulator and returns: both form traces under the
// same (unmapped) context, so after a fault the fetch queue is
// sequential at the entry of the handler's trace.
func handlerTraceCPU() *CPU {
	spin := isa.Branch(isa.CmpNE, isa.R(11), isa.Imm(0), "")
	spin.Target = 1
	back := isa.Branch(isa.CmpNE, isa.R(3), isa.Imm(0), "")
	back.Target = 16
	code := []isa.Instr{
		w(isa.Mov(11, isa.Imm(3))),                       // 0: handler
		w(isa.ALU(isa.OpSub, 11, isa.R(11), isa.Imm(1))), // 1
		w(spin),                   // 2: bne r11, #0, 1
		w(isa.Nop()),              // 3
		w(isa.Mov(1, isa.Imm(0))), // 4: clear the accumulator
		w(isa.RFE()),              // 5
	}
	code = append(code, make([]isa.Instr, 10)...)
	code = append(code,
		w(isa.ALU(isa.OpAdd, 1, isa.R(1), isa.R(2))),   // 16: overflows every 64th pass
		w(isa.ALU(isa.OpSub, 3, isa.R(3), isa.Imm(1))), // 17
		w(back),      // 18: bne r3, #0, 16
		w(isa.Nop()), // 19
		halt,         // 20
	)
	c := newTestCPU(code...)
	c.Regs[2], c.Regs[3] = 0x02000000, 1200
	c.Sur = c.Sur.SetOverflow(true)
	c.SetPC(16)
	return c
}

// TestTraceChainStopsAtException runs a trace that faults into a vector
// whose own trace is ready, in quanta of every size from just above the
// tiers' minimum, against the reference engine. The exception ends the
// chain: the handler's trace must wait for the next dispatch, which
// checks it against the steps left. A chain that went on from the
// vector would count the handler's words against an instruction budget
// that forgot the exception's step, and overrun some quantum by one.
func TestTraceChainStopsAtException(t *testing.T) {
	c := runEveryEngine(t, handlerTraceCPU)
	requireGuardExits(t, c, DeoptFault)
	if c.traceAt(0, &mem.Context{}) == nil {
		t.Fatal("the handler formed no trace; the test is vacuous")
	}
	for q := uint64(blockMaxWords + 1); q < 2*blockMaxWords+8; q++ {
		trc, ref := handlerTraceCPU(), handlerTraceCPU()
		trc.SetEngine(EngineTraces)
		ref.SetEngine(EngineReference)
		for !ref.Halted {
			trc.RunSteps(q)
			ref.RunSteps(q)
			if trc.Stats != ref.Stats || trc.Regs != ref.Regs || trc.PC() != ref.PC() {
				t.Fatalf("quantum %d: traces at pc %d after %d instructions and %d exceptions, reference at pc %d after %d and %d",
					q, trc.PC(), trc.Stats.Instructions, trc.excSeq, ref.PC(), ref.Stats.Instructions, ref.excSeq)
			}
		}
	}
}
