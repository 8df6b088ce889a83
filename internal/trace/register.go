package trace

import (
	"fmt"
	"sync/atomic"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/mem"
)

// registrar accumulates CounterFunc/Gauge registrations, turning the
// first duplicate name into an error instead of a panic. Registering
// the same machine (or the same prefix) twice into one registry would
// silently splice two series together; the Register* helpers refuse
// instead, and callers that really mean to swap call UnregisterPrefix
// first.
type registrar struct {
	r   *Registry
	err error
}

func (g *registrar) counter(name, help string, fn func() uint64) {
	if g.err != nil {
		return
	}
	if e := g.r.tryRegister(name, metricSource{fn: fn, kind: MetricCounter}); e != nil {
		g.err = fmt.Errorf("%w (Unregister the old series or use a fresh registry)", e)
		return
	}
	g.r.Describe(name, help)
}

func (g *registrar) gauge(name, help string, fn func() uint64) {
	if g.err != nil {
		return
	}
	if e := g.r.tryRegister(name, metricSource{fn: fn, kind: MetricGauge}); e != nil {
		g.err = fmt.Errorf("%w (Unregister the old series or use a fresh registry)", e)
		return
	}
	g.r.Describe(name, help)
}

// RegisterCPUStats registers every field of a CPU's Stats under the
// given prefix (conventionally "cpu."). The registry samples the struct
// at snapshot time; nothing is added to the execution path. The fields
// are read with atomic loads so a live telemetry server sampling
// mid-run never sees a torn value; the CPU goroutine remains the single
// writer (see the Registry concurrency contract). Registering a prefix
// that is already populated returns an error: re-registration must be
// explicit (UnregisterPrefix, then register again).
func RegisterCPUStats(r *Registry, prefix string, st *cpu.Stats) error {
	g := &registrar{r: r}
	c := func(name, help string, p *uint64) {
		g.counter(prefix+name, help, func() uint64 { return atomic.LoadUint64(p) })
	}
	c("instructions", "executed instruction words (one cycle each on the five-stage pipe)", &st.Instructions)
	c("pieces", "executed non-nop pieces (a packed word contributes two)", &st.Pieces)
	c("nops", "executed no-op words: the explicit cost of software interlocks", &st.Nops)
	c("cycles", "total machine cycles: instructions plus refill and stall penalties", &st.Cycles)
	c("stall_cycles", "hardware-interlock bubbles (interlocked counterfactual only)", &st.StallCycles)
	c("data_cycles", "cycles whose data-memory slot carried a load or store", &st.DataCycles)
	c("free_cycles", "cycles whose data-memory slot went unused (the paper's wasted bandwidth)", &st.FreeCycles)
	c("dma_cycles", "free cycles actually consumed by the DMA engine", &st.DMACycles)
	c("loads", "data-memory loads", &st.Loads)
	c("stores", "data-memory stores", &st.Stores)
	c("branches", "executed control-flow pieces", &st.Branches)
	c("taken_branches", "control-flow pieces that transferred control", &st.TakenBranches)
	g.counter(prefix+"exceptions", "exception entries over all causes", func() uint64 {
		var n uint64
		for i := range st.Exceptions {
			n += atomic.LoadUint64(&st.Exceptions[i])
		}
		return n
	})
	for cause := isa.Cause(0); cause < isa.NumCauses; cause++ {
		c("exceptions."+cause.String(), "exception entries with primary cause "+cause.String(),
			&st.Exceptions[cause])
	}
	return g.err
}

// RegisterTranslation registers the CPU's translation-layer counters —
// superblock cache, trace tier and tier residency — under the given
// prefix (conventionally "xlate."). Like RegisterCPUStats it samples
// with atomic loads and errors on duplicate registration; the CPU
// goroutine remains the single writer.
func RegisterTranslation(r *Registry, prefix string, ts *cpu.TranslationStats) error {
	g := &registrar{r: r}
	c := func(name, help string, p *uint64) {
		g.counter(prefix+name, help, func() uint64 { return atomic.LoadUint64(p) })
	}
	c("block_hits", "superblock table lookups served by a translated block", &ts.BlockHits)
	c("block_chained", "superblocks a chain entered after its first, without returning to dispatch", &ts.BlockChained)
	c("block_translations", "superblocks built (first sight and retranslation alike)", &ts.BlockTranslations)
	c("block_invalidations", "superblocks dropped by a code write", &ts.BlockInvalidations)
	c("block_bails", "mid-block falls back to the exact per-instruction engine", &ts.BlockBails)
	c("trace.formed", "hot-path recordings that produced a formable multi-block trace", &ts.TraceFormed)
	c("trace.compiled", "traces compiled to op record arrays and installed", &ts.TraceCompiled)
	c("trace.guard_exits", "early trace exits: direction and indirect-target guards, faults", &ts.TraceGuardExits)
	c("trace.invalidations", "compiled traces dropped by a code write", &ts.TraceInvalidations)
	c("trace.dispatch_hits", "trace executions started (cache entry and trace-to-trace chaining)", &ts.TraceDispatchHits)
	for reason := cpu.DeoptReason(0); reason < cpu.NumDeoptReasons; reason++ {
		c("trace.guard_exits."+reason.String(),
			"guard exits deopting for reason "+reason.String()+" (partitions trace.guard_exits)",
			&ts.TraceDeopts[reason])
	}
	c("trace.deopt.environment", "trace dispatches refused by DMA, devices while unmapped, a short tick horizon, or a device reference", &ts.TraceDeoptEnvironment)
	c("trace.deopt.interrupt", "trace dispatches refused by a pending interrupt", &ts.TraceDeoptInterrupt)
	c("trace.deopt.chain_budget", "ready traces left unentered because the run had fewer steps left than the trace has words", &ts.TraceDeoptChainBudget)
	for reason := cpu.FormRefusal(0); reason < cpu.NumFormRefusals; reason++ {
		c("trace.refuse."+reason.String(),
			"trace recordings refused or truncated: "+reason.String(),
			&ts.TraceFormRefusals[reason])
	}
	c("trace.poisoned", "entry blocks poisoned (heatNever) after an unformable recording", &ts.TracePoisoned)
	c("block_adoptions", "superblocks adopted from the golden code's published translations instead of translated", &ts.BlockAdoptions)
	c("trace.adopted", "traces adopted from the golden code's published translations instead of formed", &ts.TraceAdoptions)
	for tier := cpu.Tier(0); tier < cpu.NumTiers; tier++ {
		c("tier."+tier.String(),
			"instructions retired in the "+tier.String()+" engine tier (partitions cpu.instructions)",
			&ts.TierInstrs[tier])
	}
	return g.err
}

// RegisterMachine registers a full kernel machine: the CPU stats under
// "cpu.", the translation-layer counters under "xlate.", and the
// kernel's scheduling/paging counters under "kernel.". The kernel
// counters sample through accessor methods and are best-effort when
// read while the machine runs. Registering a second machine into the
// same registry returns an error; swap explicitly with UnregisterPrefix.
func RegisterMachine(r *Registry, m *kernel.Machine) error {
	if err := RegisterCPUStats(r, "cpu.", &m.CPU.Stats); err != nil {
		return err
	}
	if err := RegisterTranslation(r, "xlate.", &m.CPU.Trans); err != nil {
		return err
	}
	g := &registrar{r: r}
	c := func(name, help string, fn func() uint64) {
		g.counter("kernel."+name, help, fn)
	}
	c("page_faults", "demand-paging faults taken", func() uint64 { return uint64(m.PageFaults()) })
	c("context_switches", "scheduler context switches", func() uint64 { return uint64(m.ContextSwitches()) })
	c("evictions", "resident pages evicted", func() uint64 { return uint64(m.Evictions()) })
	c("disk_reads", "pages read from the paging disk", func() uint64 { return uint64(m.DiskReads()) })
	c("disk_writes", "pages written to the paging disk", func() uint64 { return uint64(m.DiskWrites()) })
	g.gauge("kernel.resident_pages", "pages currently resident in physical memory",
		func() uint64 { return uint64(m.ResidentPages()) })
	return g.err
}

// RegisterDMA registers a DMA engine's transfer counters under the
// given prefix (conventionally "dma."). Duplicate registration is an
// error, as for the other Register helpers.
func RegisterDMA(r *Registry, prefix string, d *mem.DMA) error {
	g := &registrar{r: r}
	g.counter(prefix+"words_moved", "words moved on stolen free memory cycles", d.Moved)
	g.counter(prefix+"cycles_offered", "free memory cycles offered to the DMA engine", d.Offered)
	g.gauge(prefix+"words_pending", "words queued awaiting a free memory cycle",
		func() uint64 { return uint64(d.Pending()) })
	return g.err
}
