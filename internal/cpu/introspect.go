package cpu

// Tier introspection: the taxonomy and query surface that makes the
// translation tiers explain themselves. Three pieces live here:
//
//   - the deopt-reason taxonomy: every early trace exit carries a
//     DeoptReason, every refused formation a FormRefusal, and the
//     per-reason counters in TranslationStats partition the legacy
//     totals exactly (TraceDeopts sums to TraceGuardExits);
//   - tier residency: TierInstrs attributes every retired instruction
//     to the engine tier that retired it, and TraceSites/BlockSites
//     expose the per-entry-PC heatmap behind the global counters;
//   - the JIT event hook: a nil-checked callback (SetJITHook) fired on
//     trace formation, compilation, first dispatch, guard exits,
//     refusals, poisonings, and invalidations. With no hook installed
//     the only cost anywhere is a nil check, preserving the zero-cost
//     observer contract.
//
// The counters themselves are unconditional: like the rest of
// TranslationStats they are plain adds on paths that already maintain
// counters, written only by the CPU goroutine and read by observers
// through atomic loads (the package trace registry convention).

import (
	"sync"
	"sync/atomic"
)

// DeoptReason classifies why a compiled trace was abandoned at a guard
// exit. The reasons partition TraceGuardExits: every guard exit
// increments exactly one TraceDeopts slot.
type DeoptReason uint8

const (
	// DeoptBranchDirection: a conditional branch resolved against the
	// recorded direction.
	DeoptBranchDirection DeoptReason = iota
	// DeoptIndirectTarget: an indirect jump resolved to a target other
	// than the recorded one.
	DeoptIndirectTarget
	// DeoptQueueShape: a word the exact executor ran inside the trace
	// left the fetch queue in a shape the flattening did not bake in
	// (the queue-shape guard of trGeneral).
	DeoptQueueShape
	// DeoptFault: the word raised an exception — memory fault,
	// arithmetic overflow, trap — and the trace exited through the
	// exact fault-restart queue.
	DeoptFault
	// DeoptInvalidation: a store inside the trace hit the trace's own
	// code and the write barrier invalidated it mid-run.
	DeoptInvalidation
	// DeoptHalt: a store hit the halt device and stopped the machine
	// mid-trace.
	DeoptHalt

	// NumDeoptReasons bounds the guard-exit reason space.
	NumDeoptReasons
)

// deoptNames are the metric/JSON suffixes, aligned with the constants.
var deoptNames = [NumDeoptReasons]string{
	"branch_direction", "indirect_target", "queue_shape",
	"fault", "invalidation", "halt",
}

func (r DeoptReason) String() string {
	if r < NumDeoptReasons {
		return deoptNames[r]
	}
	return "unknown"
}

// FormRefusal classifies why trace formation refused (truncated at) a
// recorded block, or refused a recording outright.
type FormRefusal uint8

const (
	// RefusalPrivileged: a privileged word in the body or terminator —
	// it could change what dispatch latched.
	RefusalPrivileged FormRefusal = iota
	// RefusalShadowBranch: a branch targeting its own shadow, which
	// leaves the recorded successor ambiguous between directions.
	RefusalShadowBranch
	// RefusalJumpInd: an unflattenable indirect-jump shape — a target
	// inside the two-word shadow, or delay slots that cannot compile.
	RefusalJumpInd
	// RefusalDelaySlot: a taken direct transfer whose delay slot cannot
	// compile, or a recorded successor that derives no direction.
	RefusalDelaySlot
	// RefusalBlock: a recorded block that is invalid, termless, or
	// otherwise not a whole compilable unit.
	RefusalBlock
	// RefusalShortPath: a recording shorter than two blocks (nothing to
	// fuse) or one that does not start at its own entry.
	RefusalShortPath
	// RefusalOpBudget: the flattened path exceeded traceMaxOps.
	RefusalOpBudget

	// NumFormRefusals bounds the refusal reason space.
	NumFormRefusals
)

var refusalNames = [NumFormRefusals]string{
	"privileged", "shadow_branch", "jump_ind", "delay_slot",
	"block", "short_path", "op_budget",
}

func (r FormRefusal) String() string {
	if r < NumFormRefusals {
		return refusalNames[r]
	}
	return "unknown"
}

// Tier identifies one execution engine tier for residency accounting.
type Tier uint8

const (
	// TierReference: per-instruction stepping on EngineReference.
	TierReference Tier = iota
	// TierFast: per-instruction stepping on EngineFast and beneath the
	// translation tiers. It runs the same executor as TierReference.
	TierFast
	// TierBlocks: the superblock engine (chained block runs included).
	TierBlocks
	// TierTraces: the trace JIT tier (chained trace passes included).
	TierTraces

	// NumTiers bounds the tier space.
	NumTiers
)

var tierNames = [NumTiers]string{"reference", "fast", "blocks", "traces"}

func (t Tier) String() string {
	if t < NumTiers {
		return tierNames[t]
	}
	return "unknown"
}

// GuardExitReasonTotal sums the per-reason deopt counters. The taxonomy
// partitions the legacy counter, so this always equals TraceGuardExits;
// the differential suite pins the invariant.
func (t *TranslationStats) GuardExitReasonTotal() uint64 {
	var n uint64
	for _, v := range t.TraceDeopts {
		n += v
	}
	return n
}

// TierInstrTotal sums instructions over all tiers. On a machine run
// from reset it equals Stats.Instructions: every retired instruction is
// attributed to exactly one tier.
func (t *TranslationStats) TierInstrTotal() uint64 {
	var n uint64
	for _, v := range t.TierInstrs {
		n += v
	}
	return n
}

// TierInstr reads one tier's residency counter with an atomic load, so
// a telemetry reader sampling a running CPU never sees a torn value
// (the CPU goroutine remains the single writer).
func (t *TranslationStats) TierInstr(tier Tier) uint64 {
	return atomic.LoadUint64(&t.TierInstrs[tier])
}

// JITEventKind identifies one kind of trace-JIT lifecycle event.
type JITEventKind uint8

const (
	// JITFormed: a recording validated into a formable path (Len counts
	// fused blocks).
	JITFormed JITEventKind = iota
	// JITCompiled: a trace compiled to op records and installed (Len
	// counts compiled ops).
	JITCompiled
	// JITDispatchCold: the first dispatch of a compiled trace.
	JITDispatchCold
	// JITGuardExit: an early trace exit; Reason is the DeoptReason.
	JITGuardExit
	// JITInvalidated: a compiled trace dropped (write barrier, slot
	// eviction, or bulk invalidation).
	JITInvalidated
	// JITRefused: formation truncated at a refusing block; Reason is
	// the FormRefusal.
	JITRefused
	// JITPoisoned: an entry PC marked never-hot (heatNever) after its
	// path failed to form.
	JITPoisoned
	// JITSideCompiled: a side stub compiled for a hot guard exit — the
	// cold arm of a branch-direction guard or an indirect-target miss —
	// and wired exit-to-entry into the trace tree.
	JITSideCompiled
)

var jitKindNames = [...]string{
	"formed", "compiled", "dispatch_cold", "guard_exit",
	"invalidated", "refused", "poisoned", "side_compiled",
}

func (k JITEventKind) String() string {
	if int(k) < len(jitKindNames) {
		return jitKindNames[k]
	}
	return "unknown"
}

// JITEvent is one fixed-size trace-JIT lifecycle event, delivered to
// the SetJITHook callback. PC is the trace entry PC; Len the compiled
// op count (or fused block count for JITFormed); Heat the formation
// threshold in effect; Reason a DeoptReason (guard exits) or a
// FormRefusal (refusals/poisonings).
type JITEvent struct {
	Kind   JITEventKind
	Reason uint8
	Cycle  uint64
	PC     uint32
	Len    uint32
	Heat   uint32
}

// SetJITHook installs an observer invoked on every trace-JIT lifecycle
// event: formation, compilation, first dispatch, guard exits (with
// their deopt reason), refusals, poisonings, and invalidations. Pass
// nil to disable; with no hook the tier pays only nil checks.
func (c *CPU) SetJITHook(fn func(JITEvent)) { c.onJIT = fn }

// emitJIT stamps the machine cycle and delivers one event. Callers
// nil-check c.onJIT first so detached machines pay nothing more.
func (c *CPU) emitJIT(e JITEvent) {
	e.Cycle = c.Stats.Cycles
	c.onJIT(e)
}

// ShareTraces switches the trace cache's structural mutations
// (install, drop, bulk invalidation) behind a mutex so TraceSites and
// BlockSites may be called while the machine runs — the telemetry
// server's live /jit/traces view. Those operations are rare (compile
// and invalidation time only), so sharing costs the hot path nothing.
func (c *CPU) ShareTraces() {
	if c.trMu == nil {
		c.trMu = &sync.Mutex{}
	}
}

func (c *CPU) lockTraces() {
	if c.trMu != nil {
		c.trMu.Lock()
	}
}

func (c *CPU) unlockTraces() {
	if c.trMu != nil {
		c.trMu.Unlock()
	}
}

// TraceSite is the per-entry-PC introspection view of one live compiled
// trace: identity, shape, and its dispatch/retirement/deopt history.
type TraceSite struct {
	EntryPC  uint32
	EndPC    uint32
	Ops      int    // compiled op count (a nop run is one op)
	Blocks   int    // superblocks fused
	Words    uint32 // instruction-memory words covered (span total)
	Side     bool   // a side stub (guard-exit continuation), not a heat-formed entry
	Hits     uint64 // dispatches (cache entry and chaining alike)
	Instrs   uint64 // instructions retired inside this trace
	SideHits uint64 // branch-direction exits here resolved in-tier
	ICHits   uint64 // indirect-target exits here resolved through the ICs
	Deopts   [NumDeoptReasons]uint64
}

// TraceSites returns the introspection view of every live compiled
// trace, unordered. Safe while the machine runs once ShareTraces was
// called (counters are read with atomic loads; the live list is
// guarded by the shared mutex).
func (c *CPU) TraceSites() []TraceSite {
	c.lockTraces()
	defer c.unlockTraces()
	out := make([]TraceSite, 0, len(c.liveTraces))
	for _, tr := range c.liveTraces {
		s := TraceSite{
			EntryPC:  tr.pc,
			EndPC:    tr.endPC,
			Ops:      len(tr.ins),
			Blocks:   len(tr.spans),
			Side:     tr.side,
			Hits:     atomic.LoadUint64(&tr.hits),
			Instrs:   atomic.LoadUint64(&tr.instrs),
			SideHits: atomic.LoadUint64(&tr.sideHits),
			ICHits:   atomic.LoadUint64(&tr.icHits),
		}
		for _, sp := range tr.spans {
			s.Words += sp.n
		}
		for r := range tr.deopts {
			s.Deopts[r] = atomic.LoadUint64(&tr.deopts[r])
		}
		out = append(out, s)
	}
	return out
}

// BlockSite is the per-entry-PC view of one live superblock: its shape
// and how many times the block engine entered it. Together with
// TraceSites it is the per-PC tier heatmap behind TierInstrs.
type BlockSite struct {
	EntryPC uint32
	Words   uint32 // covered words (body, terminator, delay slots)
	Execs   uint64 // times the block engine entered this block
}

// BlockSites returns the per-entry-PC view of every live superblock,
// unordered, under the same sharing rules as TraceSites.
func (c *CPU) BlockSites() []BlockSite {
	c.lockTraces()
	defer c.unlockTraces()
	out := make([]BlockSite, 0, len(c.liveBlocks))
	for _, b := range c.liveBlocks {
		out = append(out, BlockSite{
			EntryPC: b.pa,
			Words:   b.cover,
			Execs:   atomic.LoadUint64(&b.execs),
		})
	}
	return out
}
