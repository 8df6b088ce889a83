package cpu

import (
	"testing"

	"mips/internal/isa"
)

// shadowBranchCPU builds a counted loop whose inner branch targets its
// own delay slot (word 4 = branch PC 3 + 1): execution is well defined
// on every engine, but trace formation must refuse the block — the
// recorded successor cannot disambiguate the branch direction — and
// poison the entry so steady state stops re-recording.
func shadowBranchCPU(n int32) *CPU { return newTestCPU(shadowBranchWords(n)...) }

// shadowBranchWords is shadowBranchCPU's program.
func shadowBranchWords(n int32) []isa.Instr {
	shadow := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	shadow.Target = 4 // own shadow: branch PC 3, delay slot 4
	back := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	back.Target = 2
	return []isa.Instr{
		w(isa.LoadImm32(1, n)), // 0
		w(isa.Nop()),           // 1
		w(isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1))), // 2: loop entry
		w(shadow),    // 3: bne r1, #0, 4 (own delay slot)
		w(isa.Nop()), // 4: delay slot / shadow target
		w(back),      // 5: bne r1, #0, 2
		w(isa.Nop()), // 6: branch delay
		halt,         // 7
	}
}

// TestHeatNeverShadowBranchPoisoning covers the heatNever path: a hot
// entry whose first block refuses (shadow-target branch) is poisoned,
// the refusal lands in the taxonomy, and — the point of poisoning — the
// entry is never re-recorded: re-running the same code from the same
// machine leaves every formation counter exactly where it was.
func TestHeatNeverShadowBranchPoisoning(t *testing.T) {
	c := shadowBranchCPU(3000)
	var poisonings []JITEvent
	c.SetJITHook(func(e JITEvent) {
		if e.Kind == JITPoisoned {
			poisonings = append(poisonings, e)
		}
	})
	run(t, c, 1_000_000)

	if len(poisonings) == 0 {
		t.Fatal("no poisoned JIT event")
	}
	for _, e := range poisonings {
		if why := FormRefusal(e.Reason); why != RefusalShadowBranch {
			t.Errorf("entry %d poisoned with reason %v, want %v", e.PC, why, RefusalShadowBranch)
		}
	}
	if c.Trans.TraceFormRefusals[RefusalShadowBranch] == 0 {
		t.Fatal("shadow-target branch never refused formation")
	}
	if c.Trans.TracePoisoned == 0 {
		t.Fatal("refused entry was never poisoned")
	}
	// The loop entry (word 2) records a path whose first block is the
	// shadow branch's: the whole recording refuses and the entry must
	// be heatNever.
	if h := c.blockIn(2).pub.heat.Load(); h != heatNever {
		t.Fatalf("loop entry not poisoned: heat %d", h)
	}

	refusals := c.Trans.TraceFormRefusals
	poisoned := c.Trans.TracePoisoned
	formed := c.Trans.TraceFormed

	// Same machine, same code, second run: every poisoned entry stays
	// poisoned, so no recording, refusal, or poisoning may recur.
	c.Halted = false
	c.SetPC(0)
	run(t, c, 1_000_000)
	if c.Trans.TraceFormRefusals != refusals {
		t.Errorf("refusals recounted after poisoning: %v -> %v", refusals, c.Trans.TraceFormRefusals)
	}
	if c.Trans.TracePoisoned != poisoned {
		t.Errorf("entry re-poisoned: %d -> %d", poisoned, c.Trans.TracePoisoned)
	}
	if c.Trans.TraceFormed != formed {
		t.Errorf("poisoned entries re-recorded: formed %d -> %d", formed, c.Trans.TraceFormed)
	}
}

// TestDeoptTaxonomyPartition pins the core invariant on a live machine:
// the per-reason deopt counters partition TraceGuardExits exactly, the
// loop's exit branch shows up as a branch-direction deopt, and the
// per-site view (TraceSites) attributes the same counts per entry PC.
func TestDeoptTaxonomyPartition(t *testing.T) {
	c := tracesCPU(6000)
	run(t, c, 1_000_000)

	if c.Trans.TraceGuardExits == 0 {
		t.Fatal("loop recorded no guard exits; the partition check is vacuous")
	}
	if got, want := c.Trans.GuardExitReasonTotal(), c.Trans.TraceGuardExits; got != want {
		t.Errorf("deopt reasons sum to %d, want TraceGuardExits %d", got, want)
	}
	if c.Trans.TraceDeopts[DeoptBranchDirection] == 0 {
		t.Error("loop exit never counted as a branch-direction deopt")
	}

	sites := c.TraceSites()
	if len(sites) == 0 {
		t.Fatal("no live trace sites after a traced run")
	}
	var hits, instrs uint64
	var perSite [NumDeoptReasons]uint64
	for _, s := range sites {
		hits += s.Hits
		instrs += s.Instrs
		for r, v := range s.Deopts {
			perSite[r] += v
		}
	}
	// Nothing invalidates in this program, so every dispatch and deopt
	// is still attributed to a live site.
	if hits != c.Trans.TraceDispatchHits {
		t.Errorf("site hits sum to %d, want TraceDispatchHits %d", hits, c.Trans.TraceDispatchHits)
	}
	if perSite != c.Trans.TraceDeopts {
		t.Errorf("site deopts %v, want global %v", perSite, c.Trans.TraceDeopts)
	}
	if instrs == 0 || instrs != c.Trans.TierInstrs[TierTraces] {
		t.Errorf("site instrs sum to %d, want trace-tier residency %d", instrs, c.Trans.TierInstrs[TierTraces])
	}
}

// TestTierResidency pins the residency partition per engine: every
// retired instruction charges exactly one tier, and single-engine runs
// charge only their own tier.
func TestTierResidency(t *testing.T) {
	trc := tracesCPU(6000)
	run(t, trc, 1_000_000)
	if got, want := trc.Trans.TierInstrTotal(), trc.Stats.Instructions; got != want {
		t.Errorf("traces run: tiers sum to %d, want Instructions %d", got, want)
	}
	if trc.Trans.TierInstrs[TierTraces] == 0 {
		t.Error("traced loop retired nothing in the trace tier")
	}
	if trc.Trans.TierInstrs[TierBlocks] == 0 {
		t.Error("traced loop retired nothing in the blocks tier (warm-up runs there)")
	}

	fast := loopCPU(1000)
	fast.SetEngine(EngineFast)
	run(t, fast, 1_000_000)
	if fast.Trans.TierInstrs[TierFast] != fast.Stats.Instructions {
		t.Errorf("fast-only run: tier fast %d, want all %d",
			fast.Trans.TierInstrs[TierFast], fast.Stats.Instructions)
	}

	ref := loopCPU(1000)
	ref.SetEngine(EngineReference)
	run(t, ref, 1_000_000)
	if ref.Trans.TierInstrs[TierReference] != ref.Stats.Instructions {
		t.Errorf("reference run: tier reference %d, want all %d",
			ref.Trans.TierInstrs[TierReference], ref.Stats.Instructions)
	}
}

// TestJITEventHook drives the full event lifecycle through SetJITHook:
// a hot loop must report formation, compilation, a single cold dispatch
// per trace, and reasoned guard exits, in a causally sensible order.
func TestJITEventHook(t *testing.T) {
	c := tracesCPU(6000)
	var events []JITEvent
	c.SetJITHook(func(e JITEvent) { events = append(events, e) })
	run(t, c, 1_000_000)

	var byKind [8]int
	for _, e := range events {
		byKind[e.Kind]++
	}
	if byKind[JITFormed] == 0 || byKind[JITCompiled] == 0 {
		t.Fatalf("no formation events: formed=%d compiled=%d", byKind[JITFormed], byKind[JITCompiled])
	}
	if got, want := byKind[JITCompiled], int(c.Trans.TraceCompiled); got != want {
		t.Errorf("compiled events %d, want counter %d", got, want)
	}
	if got, want := byKind[JITDispatchCold], int(c.Trans.TraceCompiled); got != want {
		t.Errorf("dispatch-cold events %d, want one per compiled trace (%d)", got, want)
	}
	if got, want := byKind[JITGuardExit], int(c.Trans.TraceGuardExits); got != want {
		t.Errorf("guard-exit events %d, want counter %d", got, want)
	}
	for _, e := range events {
		if e.Kind == JITGuardExit && DeoptReason(e.Reason) >= NumDeoptReasons {
			t.Fatalf("guard-exit event with invalid reason %d", e.Reason)
		}
		if e.Kind == JITRefused && FormRefusal(e.Reason) >= NumFormRefusals {
			t.Fatalf("refusal event with invalid reason %d", e.Reason)
		}
	}
	// Cycle stamps never decrease: events arrive in machine order.
	var last uint64
	for _, e := range events {
		if e.Cycle < last {
			t.Fatalf("event cycle went backwards: %d after %d", e.Cycle, last)
		}
		last = e.Cycle
	}
}

// TestBlockSitesHeatmap: the per-PC block view counts entries for the
// hot loop block and its execs line up with residency being nonzero.
func TestBlockSitesHeatmap(t *testing.T) {
	c := loopCPU(2000)
	c.SetEngine(EngineBlocks)
	run(t, c, 1_000_000)
	sites := c.BlockSites()
	if len(sites) == 0 {
		t.Fatal("no live blocks after a block-engine run")
	}
	var hot *BlockSite
	for i := range sites {
		if sites[i].EntryPC == 2 {
			hot = &sites[i]
		}
	}
	if hot == nil || hot.Execs < 1000 {
		t.Fatalf("loop block missing or cold in BlockSites: %+v", sites)
	}
	if c.Trans.TierInstrs[TierBlocks] == 0 {
		t.Error("block run retired nothing in the blocks tier")
	}
}

// TestReasonNames pins the metric suffixes: exporters build family
// names from these, so a rename is a breaking change.
func TestReasonNames(t *testing.T) {
	wantDeopt := []string{"branch_direction", "indirect_target", "fault"}
	for r, want := range wantDeopt {
		if got := DeoptReason(r).String(); got != want {
			t.Errorf("DeoptReason(%d) = %q, want %q", r, got, want)
		}
	}
	wantRef := []string{"privileged", "shadow_branch", "jump_ind", "delay_slot", "block", "short_path", "op_budget"}
	for r, want := range wantRef {
		if got := FormRefusal(r).String(); got != want {
			t.Errorf("FormRefusal(%d) = %q, want %q", r, got, want)
		}
	}
	wantTier := []string{"reference", "fast", "blocks", "traces"}
	for r, want := range wantTier {
		if got := Tier(r).String(); got != want {
			t.Errorf("Tier(%d) = %q, want %q", r, got, want)
		}
	}
	wantKind := []string{"formed", "compiled", "dispatch_cold", "guard_exit",
		"invalidated", "refused", "poisoned", "adopted"}
	for k, want := range wantKind {
		if got := JITEventKind(k).String(); got != want {
			t.Errorf("JITEventKind(%d) = %q, want %q", k, got, want)
		}
	}
	if DeoptReason(200).String() != "unknown" || FormRefusal(200).String() != "unknown" ||
		Tier(200).String() != "unknown" || JITEventKind(200).String() != "unknown" {
		t.Error("out-of-range reason does not stringify as unknown")
	}
}
