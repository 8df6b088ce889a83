// Package cpu is a cycle-level simulator of the MIPS processor: a
// single-issue, five-stage, word-addressed pipeline with no hardware
// interlocks. The architectural consequences the paper builds on are
// modeled exactly:
//
//   - the instruction after a load reads the loaded register's old value
//     (load delay 1);
//   - the instruction after any branch, jump, or call always executes
//     (branch delay 1), and two instructions execute after an indirect
//     jump (delay 2);
//   - a faulting memory reference suppresses all register writes of its
//     instruction word, so instructions restart cleanly;
//   - on an exception the machine saves three return addresses, packs the
//     cause into the surprise register, disables mapping and interrupts,
//     and dispatches to physical address zero;
//   - every instruction word without a load/store piece leaves its data
//     memory cycle free, announced to the DMA engine.
//
// Correct code comes from the package reorg scheduler; an optional
// auditor (SetAudit) records load-use violations so tests can prove
// schedules legal.
//
// One executor runs a single instruction word: the reference interpreter
// (execWord), which reads the word's pieces directly. Above it sit two
// translation tiers, selected per CPU by SetEngine: the superblock engine
// (block.go), which decodes straight-line runs once into flat records
// (predecode.go) — the paper's own move of hoisting work out of the
// dynamic hot path, applied to the simulator itself — and the trace tier
// (trace_form.go) layered on it. Both fall back to per-instruction
// stepping at an exact instruction boundary. New starts on the trace
// tier, and the differential tests hold every engine value to identical
// statistics, memory images, and trace event streams.
package cpu

import (
	"errors"
	"fmt"
	"sync"

	"mips/internal/isa"
	"mips/internal/mem"
)

// ErrHalted is returned by Step and Run once the processor has halted.
var ErrHalted = errors.New("cpu: halted")

// pcqCap is the fetch-queue capacity: three live entries (the three
// return addresses an exception saves) plus one slot for re-queuing a
// faulted instruction word ahead of them.
const pcqCap = 4

// CPU is the processor state.
type CPU struct {
	// Regs are the sixteen general registers.
	Regs [isa.NumRegs]uint32
	// Lo is the byte-selector special register.
	Lo uint32
	// Sur is the surprise register.
	Sur isa.Surprise
	// Ret are the three return addresses saved on exception entry.
	Ret [3]uint32

	// IMem is the instruction memory, indexed by physical word address
	// (the dual instruction/data memory interface of §3.2).
	IMem InstrMem
	// Bus is the data-memory interface.
	Bus *Bus

	// Stats accumulates dynamic measurements.
	Stats Stats

	// Interlocked switches on the counterfactual the paper argues
	// against (§4.2.1): hardware load interlocks. Reading a register
	// with a pending load stalls the pipe until the value arrives
	// instead of returning the stale value. Delayed branches remain
	// architectural. Used by the ablation experiments only.
	Interlocked bool

	// Halted is set by the halt device hook or Halt.
	Halted bool

	// pcq is the fetch queue: pcq[0] is the next instruction to execute,
	// and the top three entries are exactly the three return addresses an
	// exception must save (delayed branches put future targets here). It
	// is a fixed array so steady-state execution never allocates.
	pcq [pcqCap]uint32
	pcn int // number of valid entries in pcq

	// pend holds load results not yet visible in the register file
	// (pendN live entries, issue-ordered). A fixed array: the load
	// delay bounds the in-flight count, and keeping it pointer-free
	// spares the hot path any write-barrier traffic.
	pend  [4]delayedWrite
	pendN int

	// excSeq counts exception entries; the block engine compares it
	// across a block to notice a supervisor transition cheaply.
	excSeq uint64

	// lastWrite tracks the sequence number of the latest architectural
	// write to each register, so a delayed load commit never clobbers a
	// younger ALU result.
	lastWrite [isa.NumRegs]uint64

	// stage is the fixed staging area for the current word's register
	// writes (the §3.3 restartability rule), applied by finishWord;
	// nstage counts the staged entries. A fixed array keeps the commit
	// path allocation-free.
	stage  [maxStagedWrites]regWrite
	nstage int

	// engine selects the execution engine (SetEngine).
	engine Engine

	// bc is the superblock engine's direct-mapped cache of translated
	// blocks (block.go), liveBlocks the dense list the write barrier
	// walks, codeBits the coverage bitmap the barrier prefilters with,
	// lastBlk the chain source for the next block entry, and barrierOn
	// records that the physical-memory write barrier has been installed.
	bc         []*block
	bcMask     uint32
	liveBlocks []*block
	codeBits   []uint64
	lastBlk    *block
	barrierOn  bool

	// chainFollow bounds how many chained blocks (or chained traces)
	// one Step may execute; see SetChainFollow.
	chainFollow int

	// tc is the trace tier's direct-mapped cache of compiled traces
	// (trace_form.go, trace_compile.go, tracecache.go), liveTraces the
	// dense list the write barrier walks, heat the per-entry-PC hotness
	// counters that trigger formation, trec the in-flight path
	// recording. trOvfOn is the overflow-enable latch the dispatch loop
	// sets for the compiled ops, and trCur the trace running them (whose
	// valid flag a self-invalidating store checks).
	tc         []*trace
	liveTraces []*trace
	heat       []heatEntry
	trec       traceRec
	trOvfOn    bool
	trCur      *trace

	// Trans counts translation-layer behavior (superblock and trace
	// caches, tier residency) since the CPU was built or last restored.
	// It lives outside Stats so the execution engines remain
	// statistics-identical under the differential tests.
	Trans TranslationStats

	seq     uint64
	intLine bool

	// deopt carries the reason of the most recent trace guard exit:
	// compiled ops set it immediately before returning false, and
	// runTrace consumes it at its single guard-exit accounting site.
	deopt DeoptReason

	// trMu, when non-nil (ShareTraces), guards structural mutation of
	// the live block/trace lists so TraceSites/BlockSites can run while
	// the machine does.
	trMu *sync.Mutex

	audit    func(Hazard)
	onTrap   func(code uint16)
	onStep   func(pc uint32, in isa.Instr)
	onMem    func(pc, addr uint32, store bool)
	onBranch func(pc, target uint32, taken bool)
	onExc    func(pc uint32, primary, secondary isa.Cause, trapCode uint16)
	onRFE    func(pc uint32)
	onStall  func(pc uint32)
	onJIT    func(JITEvent)
}

type delayedWrite struct {
	reg      isa.Reg
	val      uint32
	issuedAt uint64
	commitAt uint64
}

// Engine selects how a CPU executes instructions. Each translation tier
// layers on the one before it and falls back to it at an exact
// instruction boundary; every engine value is observably identical.
type Engine uint8

const (
	// EngineReference steps one instruction at a time through the
	// reference interpreter, the oracle the differential tests compare
	// the others against. Its instructions count as TierReference.
	EngineReference Engine = iota
	// EngineFast also steps one instruction at a time through the
	// reference interpreter, with no translation tier; its instructions,
	// like those stepped beneath the translation tiers, count as
	// TierFast.
	EngineFast
	// EngineBlocks adds the superblock engine above per-instruction
	// stepping; per-step tracers (SetStepHook) and Interlocked mode
	// suspend it.
	EngineBlocks
	// EngineTraces adds the trace tier above the superblock engine.
	// Traces form and run wherever no DMA engine is attached and either
	// no device is or the CPU runs mapped user code — a kernel's
	// processes included, with the interval timer bounding each trace
	// by its tick horizon — and every deviation bails tier by tier:
	// trace to superblock to per-instruction stepping.
	EngineTraces
)

// New builds a CPU over the given bus, starting at word address 0 in
// supervisor state with mapping and interrupts disabled — the power-up
// reset condition. It starts on EngineTraces.
func New(bus *Bus) *CPU {
	c := &CPU{Bus: bus, engine: EngineTraces}
	c.Sur = c.Sur.SetSupervisor(true)
	c.pcq[0], c.pcn = 0, 1
	c.chainFollow = defaultChainFollow
	return c
}

// Reset re-enters the power-up state at word address 0.
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint32{}
	c.Lo = 0
	c.Sur = isa.Surprise(0).SetSupervisor(true).WithCauses(isa.CauseReset, isa.CauseNone)
	c.Ret = [3]uint32{}
	c.pcq[0], c.pcn = 0, 1
	c.pendN = 0
	c.lastWrite = [isa.NumRegs]uint64{}
	c.Halted = false
	c.intLine = false
}

// SetEngine selects the execution engine. It may change between Steps.
func (c *CPU) SetEngine(e Engine) { c.engine = e }

// Engine reports the execution engine.
func (c *CPU) Engine() Engine { return c.engine }

// SetChainFollow tunes how many chained blocks (or chained traces) one
// Step may execute before returning, bounding how much work Run's step
// budget can hide. Values below 1 reset the default.
func (c *CPU) SetChainFollow(n int) {
	if n < 1 {
		n = defaultChainFollow
	}
	c.chainFollow = n
}

// ChainFollow reports the per-Step chain-follow bound.
func (c *CPU) ChainFollow() int { return c.chainFollow }

// PC returns the address of the next instruction to execute.
func (c *CPU) PC() uint32 { return c.pcq[0] }

// SetPC replaces the fetch stream, discarding any pending delayed
// branches. Loaders use it to start execution at an image entry point.
func (c *CPU) SetPC(pc uint32) { c.pcq[0], c.pcn = pc, 1 }

// setPCQueue replaces the fetch stream with three explicit entries (the
// return-from-exception resume sequence).
func (c *CPU) setPCQueue(a, b, d uint32) {
	c.pcq[0], c.pcq[1], c.pcq[2] = a, b, d
	c.pcn = 3
}

// popPC removes and returns the head of the fetch queue. The shift
// moves fixed slots (dead tail entries included) so it compiles to
// register moves instead of a bounded memmove.
func (c *CPU) popPC() uint32 {
	pc := c.pcq[0]
	c.pcq[0], c.pcq[1], c.pcq[2] = c.pcq[1], c.pcq[2], c.pcq[3]
	c.pcn--
	return pc
}

// pushPC re-queues a word address at the head of the fetch queue (the
// restart of a faulted instruction).
func (c *CPU) pushPC(pc uint32) {
	c.pcq[3], c.pcq[2], c.pcq[1] = c.pcq[2], c.pcq[1], c.pcq[0]
	c.pcq[0] = pc
	c.pcn++
}

// SetAudit installs a hazard auditor invoked on every load-use
// violation. Pass nil to disable.
func (c *CPU) SetAudit(fn func(Hazard)) { c.audit = fn }

// SetTrapHook installs a callback invoked (in addition to the
// architectural exception) whenever a software trap executes. Harnesses
// use it to observe monitor calls without a full kernel.
func (c *CPU) SetTrapHook(fn func(code uint16)) { c.onTrap = fn }

// SetStepHook installs a tracer invoked before each executed
// instruction word with its address. Pass nil to disable.
func (c *CPU) SetStepHook(fn func(pc uint32, in isa.Instr)) { c.onStep = fn }

// SetMemHook installs an observer invoked on every completed data-memory
// reference with the issuing PC, the (virtual) address, and whether it
// was a store. Faulting references do not report. Pass nil to disable.
func (c *CPU) SetMemHook(fn func(pc, addr uint32, store bool)) { c.onMem = fn }

// SetBranchHook installs an observer invoked on every executed
// control-transfer piece with the branch PC, the target, and whether the
// transfer was taken (jumps, calls, and indirect jumps always are).
// Pass nil to disable.
func (c *CPU) SetBranchHook(fn func(pc, target uint32, taken bool)) { c.onBranch = fn }

// SetExcHook installs an observer invoked on every exception entry,
// after the architectural state has been saved: pc is the first saved
// return address (the instruction that will restart or resume),
// trapCode is meaningful only when primary is CauseTrap. Pass nil to
// disable.
func (c *CPU) SetExcHook(fn func(pc uint32, primary, secondary isa.Cause, trapCode uint16)) {
	c.onExc = fn
}

// SetRFEHook installs an observer invoked on every return from
// exception with the PC execution resumes at. Pass nil to disable.
func (c *CPU) SetRFEHook(fn func(pc uint32)) { c.onRFE = fn }

// SetStallHook installs an observer invoked once per hardware-interlock
// stall cycle (Interlocked mode only) with the PC of the stalled
// instruction. Pass nil to disable.
func (c *CPU) SetStallHook(fn func(pc uint32)) { c.onStall = fn }

// Interrupt drives the single external interrupt line (paper §3.3:
// "There is a single interrupt line onto the chip"). The level is held
// until released; the processor takes the interrupt before the next
// instruction once interrupts are enabled.
func (c *CPU) Interrupt(level bool) { c.intLine = level }

// Halt stops the processor; Step returns ErrHalted afterwards.
func (c *CPU) Halt() { c.Halted = true }

// LoadImage copies an image into instruction memory and initialized data
// into physical memory, and sets the PC to the entry point.
func (c *CPU) LoadImage(im *isa.Image) error {
	if err := im.Validate(); err != nil {
		return err
	}
	c.IMem.Write(uint32(im.TextBase), im.Words)
	for addr, val := range im.Data {
		c.Bus.MMU.Phys.Poke(uint32(addr), val)
	}
	c.InvalidateTraces()
	c.InvalidateBlocks()
	c.SetPC(uint32(im.Entry))
	return nil
}

// fill extends the fetch queue with sequential addresses so that three
// entries are always present.
func (c *CPU) fill() {
	for c.pcn < 3 {
		c.pcq[c.pcn] = c.pcq[c.pcn-1] + 1
		c.pcn++
	}
}

// scheduleBranch installs a delayed control transfer: after delay more
// sequential instructions, execution continues at target. The queue
// currently holds the instructions after the branch.
func (c *CPU) scheduleBranch(target uint32, delay int) {
	c.fill()
	c.pcq[delay] = target
	c.pcn = delay + 1
}

// commitLoads applies pending load results that have reached their
// commit time, unless a younger write already replaced the register.
// Entries are appended in issue order with a fixed delay, so the due
// ones always form a prefix.
func (c *CPU) commitLoads() {
	i := 0
	for i < c.pendN && c.pend[i].commitAt <= c.seq {
		w := &c.pend[i]
		if c.lastWrite[w.reg] <= w.issuedAt {
			c.Regs[w.reg] = w.val
			c.lastWrite[w.reg] = w.issuedAt
		}
		i++
	}
	if i == 0 {
		return
	}
	n := 0
	for j := i; j < c.pendN; j++ {
		c.pend[n] = c.pend[j]
		n++
	}
	c.pendN = n
}

// readReg reads a register for operand use. Without interlocks a
// pending load is a hazard: the stale value is returned and the auditor
// notified. With interlocks the pipe stalls until the load commits.
func (c *CPU) readReg(r isa.Reg, pc uint32) uint32 {
	if c.Interlocked {
		stalled := false
		n := 0
		for j := 0; j < c.pendN; j++ {
			w := c.pend[j]
			if w.reg != r {
				c.pend[n] = w
				n++
				continue
			}
			// Stall: the value arrives now, one bubble charged.
			if c.lastWrite[w.reg] <= w.issuedAt {
				c.Regs[w.reg] = w.val
				c.lastWrite[w.reg] = w.issuedAt
			}
			stalled = true
		}
		if stalled {
			c.pendN = n
			c.Stats.StallCycles++
			c.Stats.Cycles++
			if c.onStall != nil {
				c.onStall(pc)
			}
		}
		return c.Regs[r]
	}
	if c.audit != nil {
		for j := 0; j < c.pendN; j++ {
			if c.pend[j].reg == r {
				c.audit(Hazard{Seq: c.seq, PC: pc, Reg: r})
			}
		}
	}
	return c.Regs[r]
}

func (c *CPU) operand(o isa.Operand, pc uint32) uint32 {
	if o.IsImm {
		return uint32(o.Imm)
	}
	return c.readReg(o.Reg, pc)
}

// writeReg performs an immediate architectural register write.
func (c *CPU) writeReg(r isa.Reg, v uint32) {
	c.Regs[r] = v
	c.lastWrite[r] = c.seq
}

// writeLoad schedules a load result: invisible to the next instruction,
// visible to the one after (load delay 1).
func (c *CPU) writeLoad(r isa.Reg, v uint32) {
	if c.pendN == len(c.pend) {
		// Cannot happen architecturally (the fixed load delay bounds
		// the in-flight count well below the capacity), but stay safe:
		// retire the oldest entry early.
		w := &c.pend[0]
		if c.lastWrite[w.reg] <= w.issuedAt {
			c.Regs[w.reg] = w.val
			c.lastWrite[w.reg] = w.issuedAt
		}
		for j := 1; j < c.pendN; j++ {
			c.pend[j-1] = c.pend[j]
		}
		c.pendN--
	}
	c.pend[c.pendN] = delayedWrite{
		reg: r, val: v, issuedAt: c.seq, commitAt: c.seq + 1 + isa.LoadDelay,
	}
	c.pendN++
}

// flushPending completes all in-flight load writes immediately — the
// pipeline drain of exception entry: "an attempt is made to complete
// any unfinished instructions" (paper §3.3).
func (c *CPU) flushPending() {
	for j := 0; j < c.pendN; j++ {
		w := &c.pend[j]
		if c.lastWrite[w.reg] <= w.issuedAt {
			c.Regs[w.reg] = w.val
			c.lastWrite[w.reg] = w.issuedAt
		}
	}
	c.pendN = 0
}

// exception performs the architectural exception sequence (paper §3.3).
// If restart is true the current instruction has not completed and the
// fetch queue still has it at the head, so it becomes the first return
// address and will re-execute on return.
func (c *CPU) exception(primary, secondary isa.Cause, trapCode uint16) {
	c.excSeq++
	c.flushPending()
	c.fill()
	c.Ret[0], c.Ret[1], c.Ret[2] = c.pcq[0], c.pcq[1], c.pcq[2]
	c.Sur = c.Sur.Enter(primary, secondary)
	if primary == isa.CauseTrap {
		c.Sur = c.Sur.WithTrapCode(trapCode)
	}
	c.pcq[0], c.pcn = 0, 1
	c.Stats.Exceptions[primary]++
	// Completing in-flight instructions and refilling the pipe costs a
	// pipeline's worth of cycles.
	c.Stats.Cycles += isa.PipeStages
	if c.onExc != nil {
		c.onExc(c.Ret[0], primary, secondary, trapCode)
	}
}

// privileged reports whether any piece of the word requires supervisor
// privilege, without allocating.
func privileged(in isa.Instr) bool {
	if in.ALU != nil && in.ALU.Privileged() {
		return true
	}
	return in.Mem != nil && in.Mem.Privileged()
}

// Step executes one instruction word. It returns ErrHalted once the
// processor stops; architectural faults are not errors — they vector
// through the exception mechanism.
func (c *CPU) Step() error {
	if c.Halted {
		return ErrHalted
	}
	// Superblock and trace dispatch: when the fetch queue holds no
	// in-flight branch target, its head is a block entry point and the
	// whole straight-line run executes as one translated block — or,
	// one tier up, a compiled multi-block trace. Per-step tracers and
	// interlock mode need per-instruction stepping, and a false return
	// (unresolvable entry) falls through tier by tier to the exact path.
	if c.engine >= EngineBlocks && !c.Interlocked && c.onStep == nil &&
		c.queueSequential() {
		if c.engine == EngineTraces && c.stepTraces() {
			return nil
		}
		i0 := c.Stats.Instructions
		ok := c.stepBlocks()
		c.Trans.TierInstrs[TierBlocks] += c.Stats.Instructions - i0
		if ok {
			return nil
		}
	}
	i0 := c.Stats.Instructions
	c.step()
	tier := TierFast
	if c.engine == EngineReference {
		tier = TierReference
	}
	c.Trans.TierInstrs[tier] += c.Stats.Instructions - i0
	return nil
}

// step executes the word at the head of the fetch queue on the
// per-instruction path, with the full preamble: load commit, queue
// refill, and the interrupt sample. Step falls back to it below the
// translation tiers, and the superblock engine calls it for the exits
// and delay slots it has no cached record for.
func (c *CPU) step() {
	c.seq++
	if c.pendN != 0 {
		c.commitLoads()
	}
	c.fill()

	// The single interrupt line is sampled between instructions; the
	// interrupted instruction has not started, so it is return address 0.
	// Supervisor code runs with interrupts deferred until it returns to
	// user level, so the dispatch ROM's save area cannot be clobbered.
	if c.intLine && c.Sur.InterruptsEnabled() && !c.Sur.Supervisor() {
		c.exception(isa.CauseInterrupt, isa.CauseNone, 0)
		return
	}

	pc := c.pcq[0]
	in, fault := c.fetch(pc)
	if fault != nil {
		c.Bus.LastFault = fault
		c.exception(fault.Cause, isa.CauseNone, 0)
		return
	}

	// Privilege is enforced at decode.
	if privileged(in) && !c.Sur.Supervisor() {
		c.exception(isa.CausePrivilege, isa.CauseNone, 0)
		return
	}

	c.popPC()
	if c.onStep != nil {
		c.onStep(pc, in)
	}
	c.execWord(in, pc)
	c.Bus.Tick()
}

// Mapped reports whether addresses currently translate through the
// segmentation unit and page map. The privilege level selects the
// address space (paper §3.2: "the current privilege level and mapping
// state are available to the rest of the system as part of the virtual
// address"): supervisor code always runs physical, which is how the
// return-from-exception sequence alternates between the two spaces.
func (c *CPU) Mapped() bool {
	return c.Sur.MappingEnabled() && !c.Sur.Supervisor()
}

// fetch translates the PC and reads instruction memory.
func (c *CPU) fetch(pc uint32) (isa.Instr, *mem.Fault) {
	pa := pc
	if c.Mapped() {
		var f *mem.Fault
		pa, f = c.Bus.MMU.Translate(pc, false, true)
		if f != nil {
			return isa.Instr{}, f
		}
	}
	if pa >= c.IMem.n {
		return isa.Instr{}, &mem.Fault{Cause: isa.CausePageFault, Addr: pa}
	}
	in := c.IMem.At(pa)
	if in.ALU == nil && in.Mem == nil {
		// Unprogrammed instruction memory decodes as illegal.
		return isa.Instr{}, &mem.Fault{Cause: isa.CauseIllegal, Addr: pa}
	}
	return in, nil
}

// Run executes until the processor halts or the step limit is reached.
// It returns the number of instructions executed and nil on a clean
// halt, or an error describing why execution stopped.
func (c *CPU) Run(maxSteps uint64) (uint64, error) {
	start := c.Stats.Instructions
	for i := uint64(0); i < maxSteps; i++ {
		if err := c.Step(); err != nil {
			if errors.Is(err, ErrHalted) {
				return c.Stats.Instructions - start, nil
			}
			return c.Stats.Instructions - start, err
		}
	}
	if c.Halted {
		return c.Stats.Instructions - start, nil
	}
	return c.Stats.Instructions - start, fmt.Errorf("cpu: step limit %d exceeded at pc=%d", maxSteps, c.PC())
}
