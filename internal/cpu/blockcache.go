package cpu

// The superblock translation cache: the layer above per-instruction
// stepping that decodes straight-line runs of instructions once into
// blocks of flat records (predecode.go; block.go executes them). This
// file owns the data structures and their coherence machinery:
//
//   - translateBlock scans instruction memory from a block entry point
//     up to the next control transfer and builds the flat block record;
//   - a direct-mapped cache keyed by physical entry address holds the
//     blocks, validated by identity (stepBlocks compares every cached
//     source word against live instruction memory on entry);
//   - a write barrier installed on physical memory invalidates every
//     block whose body overlaps a written word — CPU stores, DMA moves,
//     and device pokes included — so paging traffic and self-modifying
//     stores can never leave a stale translation executable. A coverage
//     bitmap keeps the barrier to one bit test on the store fast path.

import (
	"fmt"

	"mips/internal/isa"
	"mips/internal/mem"
)

const (
	// blockMaxWords caps a block's body; longer straight-line runs
	// split into chained blocks.
	blockMaxWords = 64
	// defaultChainFollow is the default bound on how many chained
	// blocks (or chained traces) one Step may execute, so Run's step
	// budget still bounds runaway programs. SetChainFollow tunes it
	// per CPU; the sweep benchmark in bench_test.go justifies the
	// default.
	defaultChainFollow = 64
	// bcMinEntries/bcMaxEntries bound the direct-mapped block cache,
	// grown on demand. Both are powers of two.
	bcMinEntries = 1 << 8
	bcMaxEntries = 1 << 13
)

// Lean execution classes, assigned per body word at translation time.
// The block engine runs bcNop, bcALU, bcLoad and bcStore words through
// its lean word executor (leanWord) and control words through dsStep;
// everything else runs through execWord, which is exact for every word
// kind.
const (
	bcGeneral uint8 = iota // packed or unclassified: execute via execWord
	bcNop                  // the word performs no work
	bcALU                  // single ALU-class piece, no memory piece
	bcLoad                 // single load piece
	bcStore                // single store piece

	// Control classes appear only in terminator and delay-slot records
	// (translation stops a body before any control transfer).
	bcBranch
	bcJump
	bcCall
	bcJumpInd
)

// block is one translated superblock: a straight-line run of body words
// (everything up to, but not including, the next control transfer) plus
// its exit records and chain slots to successor blocks.
type block struct {
	pa uint32 // physical address of the first body word
	n  uint32 // body length in words (0: the entry word is a terminator)

	// code holds the flat executable records of the body words, in
	// execution order; code[i] was decoded from IMem[pa+i] and carries
	// the source identity for entry validation. entrySrc is the same
	// identity for n == 0 blocks, which cache no body.
	code     []decoded
	entrySrc isa.Instr

	// term is the cached record of the terminating word at pa+n, when
	// that word decodes (hasTerm), and ds the records of up to two
	// delay-slot words after it; all execute via dsStep, which skips
	// re-fetch because their identity is validated at block entry.
	// cover is the number of words from pa the write barrier must
	// watch (body, terminator, delay slots).
	term    decoded
	ds      [2]decoded
	dsN     uint8
	hasTerm bool
	cover   uint32

	termless bool // the scan hit a size/page limit, not a real terminator
	valid    bool
	liveIdx  int // index in CPU.liveBlocks, for swap-removal

	// execs counts block-engine entries (lookup and chain alike),
	// written by the CPU goroutine and read by BlockSites via atomic
	// loads for the per-PC tier heatmap.
	execs uint64

	// Chain slots: the last two observed successor entry points, so hot
	// block-to-block transfers skip the cache lookup entirely. Chains
	// are recorded and followed only with mapping disabled, where the
	// virtual entry address is the physical one.
	succVPC [2]uint32
	succ    [2]*block
	succN   int
}

// TranslationStats counts translation-layer behavior: the superblock
// cache, the trace tier, and tier residency. It lives outside Stats
// because Stats is held engine-independent by the differential tests'
// strict equality, while these counters intentionally describe the
// engine itself.
type TranslationStats struct {
	// BlockHits counts block-cache lookups served by a valid block;
	// BlockChained counts entries that skipped the lookup through a
	// chain slot; BlockTranslations counts blocks built (first sight
	// and retranslation after invalidation alike).
	BlockHits         uint64
	BlockChained      uint64
	BlockTranslations uint64
	// BlockInvalidations counts blocks dropped by the memory write
	// barrier (self-modifying stores, DMA, paging traffic).
	BlockInvalidations uint64
	// BlockBails counts mid-block falls back to the exact
	// per-instruction engine: faults, traps, interrupts, halts, and
	// conservative coherence bails after stores.
	BlockBails uint64

	// TraceFormed counts hot-path recordings that finished with a
	// formable multi-block path; TraceCompiled counts traces actually
	// compiled and installed (a formed path whose words
	// cannot all be specialized truncates, and too-short truncations
	// compile nothing).
	TraceFormed   uint64
	TraceCompiled uint64
	// TraceGuardExits counts early trace exits of every kind — branch
	// direction guards, faults, self-invalidating stores — all of which
	// leave the machine at an exact instruction boundary.
	TraceGuardExits uint64
	// TraceInvalidations counts traces dropped by the memory write
	// barrier.
	TraceInvalidations uint64
	// TraceDispatchHits counts trace executions started (cache entry
	// and trace-to-trace chaining alike).
	TraceDispatchHits uint64

	// TraceDeopts partitions TraceGuardExits by DeoptReason: every
	// guard exit increments exactly one slot, so the slots always sum
	// to TraceGuardExits (GuardExitReasonTotal pins the invariant).
	TraceDeopts [NumDeoptReasons]uint64
	// Dispatch-level deopts: times the trace tier stood down before
	// entering a compiled trace, counted only when a compiled trace was
	// actually ready at the pending PC (so quiet machines with no
	// traces pay no bookkeeping and the counters measure lost trace
	// time, not mere configuration).
	//
	// TraceDeoptEnvironment: the environment kept a ready trace from
	// running — DMA attached, devices while unmapped, a tick horizon
	// shorter than the trace, or a mapped reference that reached a
	// device (the trace exits before it). TraceDeoptInterrupt: an interrupt
	// line was pending and must be sampled at the exact engine's
	// boundary. TraceDeoptChainBudget: a trace run returned with the
	// next trace ready only because the chain-follow budget for the
	// Step was exhausted.
	TraceDeoptEnvironment uint64
	TraceDeoptInterrupt   uint64
	TraceDeoptChainBudget uint64

	// TraceFormRefusals counts formation refusals by FormRefusal — at
	// most one per recording, attributed to the first block (or whole
	// path) that refused. TracePoisoned counts entry PCs marked
	// heatNever, never to be recorded again.
	TraceFormRefusals [NumFormRefusals]uint64
	TracePoisoned     uint64

	// Side-exit resolution. TraceSideHits counts branch-direction guard
	// exits resolved inside the trace tier — the exit chained straight
	// into the trace or side stub covering the other direction instead
	// of falling back to dispatch; TraceICHits the same for
	// indirect-target exits resolved through a trace word's inline
	// target cache. Together with TraceGuardExits they partition every
	// op-level trace exit: each exit counts exactly one of the three.
	// TraceSideCompiled counts side stubs compiled for hot branch arms,
	// TraceICInstalls stubs installed into inline-cache entries.
	TraceSideHits     uint64
	TraceICHits       uint64
	TraceSideCompiled uint64
	TraceICInstalls   uint64

	// TraceHeatEvicted counts direct-mapped heat-table slots reclaimed
	// by a colliding entry PC while still warming (or poisoned) — the
	// aliasing that silently stalls trace formation on large corpora.
	TraceHeatEvicted uint64

	// TierInstrs attributes every retired instruction to the engine
	// tier that retired it (per-instruction stepping on the reference
	// engine or beneath a translation tier, superblock engine, trace
	// JIT). On a machine run from reset
	// the slots sum to Stats.Instructions.
	TierInstrs [NumTiers]uint64
}

// String renders the counters as one line. The segments up through
// "traces ..." are a stable prefix for -stats golden users; the deopt,
// refuse, and tier segments introduced with the introspection taxonomy
// append after it and new fields must keep appending, never reorder.
func (t *TranslationStats) String() string {
	return fmt.Sprintf("blocks hit=%d chain=%d xlate=%d inval=%d bail=%d | traces formed=%d compiled=%d hit=%d exit=%d inval=%d"+
		" | deopt dir=%d ind=%d shape=%d fault=%d inval=%d halt=%d env=%d int=%d budget=%d"+
		" | refuse priv=%d shadow=%d jind=%d ds=%d block=%d short=%d ops=%d poison=%d"+
		" | tier ref=%d fast=%d blocks=%d traces=%d"+
		" | side hit=%d ichit=%d comp=%d icinst=%d heatevict=%d",
		t.BlockHits, t.BlockChained, t.BlockTranslations, t.BlockInvalidations, t.BlockBails,
		t.TraceFormed, t.TraceCompiled, t.TraceDispatchHits, t.TraceGuardExits, t.TraceInvalidations,
		t.TraceDeopts[DeoptBranchDirection], t.TraceDeopts[DeoptIndirectTarget], t.TraceDeopts[DeoptQueueShape],
		t.TraceDeopts[DeoptFault], t.TraceDeopts[DeoptInvalidation], t.TraceDeopts[DeoptHalt],
		t.TraceDeoptEnvironment, t.TraceDeoptInterrupt, t.TraceDeoptChainBudget,
		t.TraceFormRefusals[RefusalPrivileged], t.TraceFormRefusals[RefusalShadowBranch],
		t.TraceFormRefusals[RefusalJumpInd], t.TraceFormRefusals[RefusalDelaySlot],
		t.TraceFormRefusals[RefusalBlock], t.TraceFormRefusals[RefusalShortPath],
		t.TraceFormRefusals[RefusalOpBudget], t.TracePoisoned,
		t.TierInstrs[TierReference], t.TierInstrs[TierFast], t.TierInstrs[TierBlocks], t.TierInstrs[TierTraces],
		t.TraceSideHits, t.TraceICHits, t.TraceSideCompiled, t.TraceICInstalls, t.TraceHeatEvicted)
}

// bodyKind reports whether a memory/control slot kind may appear inside
// a block body. Control transfers, traps, and special-register pieces
// terminate the block and execute on the exact per-instruction path.
func bodyKind(k isa.PieceKind) bool {
	return k == isa.PieceNop || k == isa.PieceLoad || k == isa.PieceStore
}

// bodyWord reports whether translation keeps the word in a block's
// body: programmed, unprivileged, and with a memory piece (if any) of a
// body kind. It reads the pieces exactly as decodeWord does.
func bodyWord(in isa.Instr) bool {
	if p := in.ALU; p != nil && p.Privileged() {
		return false
	}
	if p := in.Mem; p != nil && (p.Privileged() || !p.IsNop() && !bodyKind(p.Kind)) {
		return false
	}
	return nonEmpty(in)
}

// classifyLean assigns the lean execution class of one cached word.
// Packed words (both slots active) always classify bcGeneral and run
// through the exact executor.
func classifyLean(d *decoded) {
	switch {
	case d.flags&fNop != 0:
		d.bclass = bcNop
	case d.memKind == isa.PieceNop && d.aluKind != isa.PieceNop:
		d.bclass = bcALU
	case d.aluKind != isa.PieceNop:
		d.bclass = bcGeneral
	case d.memKind == isa.PieceLoad:
		d.bclass = bcLoad
	case d.memKind == isa.PieceStore:
		d.bclass = bcStore
	case d.memKind == isa.PieceBranch:
		d.bclass = bcBranch
	case d.memKind == isa.PieceJump:
		d.bclass = bcJump
	case d.memKind == isa.PieceCall:
		d.bclass = bcCall
	case d.memKind == isa.PieceJumpInd:
		d.bclass = bcJumpInd
	default:
		d.bclass = bcGeneral
	}
}

// readsReg reports whether executing a decoded word reads register r,
// conservatively answering true for any piece kind it does not model.
func readsReg(d *decoded, r isa.Reg) bool {
	switch d.aluKind {
	case isa.PieceALU:
		if !d.a1.imm && d.a1.reg == r {
			return true
		}
		if !d.aluUnary && !d.a2.imm && d.a2.reg == r {
			return true
		}
		if d.aluDstRead && d.aluDst == r {
			return true
		}
	case isa.PieceSetCond:
		if (!d.a1.imm && d.a1.reg == r) || (!d.a2.imm && d.a2.reg == r) {
			return true
		}
	}
	switch d.memKind {
	case isa.PieceNop, isa.PieceJump, isa.PieceCall, isa.PieceTrap:
	case isa.PieceLoad, isa.PieceStore:
		if d.memKind == isa.PieceStore && d.data == r {
			return true
		}
		switch d.mode {
		case isa.AModeDisp:
			if d.base == r {
				return true
			}
		case isa.AModeIndex, isa.AModeShift:
			if d.base == r || d.index == r {
				return true
			}
		}
	case isa.PieceBranch:
		if (!d.m1.imm && d.m1.reg == r) || (!d.m2.imm && d.m2.reg == r) {
			return true
		}
	case isa.PieceJumpInd:
		if !d.m1.imm && d.m1.reg == r {
			return true
		}
	default:
		return true
	}
	return false
}

// blockSlot returns the cache slot for a block entry address, building
// the cache lazily and growing it (up to bcMaxEntries) when the
// program's footprint exceeds it. Growth drops all blocks: the mask
// changes, so existing slot assignments are meaningless.
func (c *CPU) blockSlot(pa uint32) **block {
	if c.bc == nil {
		c.bc = make([]*block, bcMinEntries)
		c.bcMask = bcMinEntries - 1
	}
	if pa >= uint32(len(c.bc)) && len(c.bc) < bcMaxEntries {
		size := len(c.bc)
		for size < bcMaxEntries && uint32(size) <= pa {
			size *= 2
		}
		c.InvalidateBlocks()
		c.bc = make([]*block, size)
		c.bcMask = uint32(size - 1)
	}
	return &c.bc[pa&c.bcMask]
}

// translateBlock scans the straight-line run of instruction words at pa,
// builds the block record, and installs it in the cache (evicting any
// previous occupant of the slot).
func (c *CPU) translateBlock(pa uint32) *block {
	c.Trans.BlockTranslations++
	// Never cross a page boundary: page-granular translation guarantees
	// that virtual and physical in-page offsets agree, so cached words
	// that stay inside the entry's page execute contiguously in both
	// spaces. pageLimit also bounds the cached terminator/delay-slot
	// records; the body is additionally capped at blockMaxWords.
	pageLimit := c.IMem.n
	if pageEnd := pa&^uint32(mem.PageWords-1) + mem.PageWords; pageEnd < pageLimit {
		pageLimit = pageEnd
	}
	limit := pageLimit
	if capEnd := pa + blockMaxWords; capEnd < limit {
		limit = capEnd
	}
	b := &block{pa: pa, valid: true, termless: true}
	// Count the body first so it is allocated once, at its exact length.
	for b.n < limit-pa && bodyWord(c.IMem.At(pa+b.n)) {
		b.n++
	}
	if wa := pa + b.n; wa < limit {
		b.termless = false
		// Unprogrammed memory is a real (faulting) terminator, executed
		// un-cached so the illegal fault stays exact. Any other word
		// is the block's terminator: cached alongside the body so the
		// exit skips a re-fetch. Privileged words also land here,
		// keeping privilege checks out of the body loop.
		if in := c.IMem.At(wa); nonEmpty(in) {
			decodeWord(&b.term, in)
			classifyLean(&b.term)
			b.hasTerm = true
		}
	}
	b.code = make([]decoded, b.n)
	for i := range b.code {
		d := &b.code[i]
		decodeWord(d, c.IMem.At(pa+uint32(i)))
		classifyLean(d)
	}
	if b.n == 0 {
		b.termless = false
		b.entrySrc = c.IMem.At(pa)
	}
	// Eager-load marking. Without hardware interlocks a load's delayed
	// commit is observable only through its one-word hazard window: the
	// word right after the load sees the stale register (and trips the
	// hazard auditor). When that statically known next word does not
	// read the destination, committing immediately is equivalent — any
	// younger write still lands last, and every path that ends the run
	// before the commit time (trap, fault, overflow, interrupt) drains
	// the pipe and commits it anyway. The one exception is a word that
	// can stop the machine without an exception — a store hitting a
	// halt device, or anything routed through the exact executor — so
	// those keep the delayed-commit machinery.
	run := uint8(0)
	for i := len(b.code) - 1; i >= 0; i-- {
		if b.code[i].bclass == bcNop {
			if run < 255 {
				run++
			}
			b.code[i].nopRun = run
		} else {
			run = 0
		}
	}
	for i := range b.code {
		d := &b.code[i]
		if d.bclass != bcLoad || d.mode == isa.AModeLongImm {
			continue
		}
		var next *decoded
		if i+1 < len(b.code) {
			next = &b.code[i+1]
		} else if b.hasTerm {
			next = &b.term
		}
		if next != nil && next.bclass != bcGeneral &&
			next.bclass != bcStore && !readsReg(next, d.data) {
			d.flags |= fEager
		}
	}
	// Cache the delay-slot words after a real terminator: a taken
	// transfer always executes them, and caching them keeps a hot
	// loop's tail off the per-instruction fetch path. Any decodable
	// word qualifies (dsStep checks privilege dynamically and routes
	// non-lean classes through the exact executor).
	if b.hasTerm {
		for wa := pa + b.n + 1; wa < pageLimit && b.dsN < 2; wa++ {
			in := c.IMem.At(wa)
			if in.ALU == nil && in.Mem == nil {
				break
			}
			d := &b.ds[b.dsN]
			decodeWord(d, in)
			classifyLean(d)
			b.dsN++
		}
	}
	// The barrier must watch the whole cached range: body stores, DMA
	// moves on later free cycles, and device ticks can all rewrite a
	// word this block would execute from its cache.
	b.cover = b.n
	if b.hasTerm {
		b.cover += 1 + uint32(b.dsN)
	}

	slot := c.blockSlot(pa)
	c.lockTraces()
	if old := *slot; old != nil {
		c.dropBlock(old)
	}
	*slot = b
	b.liveIdx = len(c.liveBlocks)
	c.liveBlocks = append(c.liveBlocks, b)
	c.unlockTraces()
	if b.cover > 0 {
		c.coverWords(pa, b.cover)
		c.armBarrier()
	}
	return b
}

// dropBlock invalidates a block and removes it from the live list.
func (c *CPU) dropBlock(b *block) {
	if !b.valid {
		return
	}
	b.valid = false
	last := len(c.liveBlocks) - 1
	moved := c.liveBlocks[last]
	c.liveBlocks[b.liveIdx] = moved
	moved.liveIdx = b.liveIdx
	c.liveBlocks[last] = nil
	c.liveBlocks = c.liveBlocks[:last]
}

// coverWords marks the body words of a block in the coverage bitmap the
// write barrier prefilters against. Bits stay set after invalidation
// (conservative: a stale bit costs one live-list walk, never a stale
// execution).
func (c *CPU) coverWords(pa, n uint32) {
	if need := int((pa+n-1)>>6) + 1; need > len(c.codeBits) {
		c.codeBits = append(c.codeBits, make([]uint64, need-len(c.codeBits))...)
	}
	for w := pa; w < pa+n; w++ {
		c.codeBits[w>>6] |= 1 << (w & 63)
	}
}

// armBarrier installs the physical-memory write barrier once the first
// block with a body exists. Reference-only and block-free runs never pay
// for it.
func (c *CPU) armBarrier() {
	if c.barrierOn {
		return
	}
	c.barrierOn = true
	c.Bus.MMU.Phys.SetWriteBarrier(c.writeBarrier)
}

// writeBarrier invalidates every translated block whose body covers the
// written physical word, and every compiled trace whose span list does.
// It runs on every store, DMA move, and device poke, so the common case
// — a write outside any code range — must be one bounds check and one
// bit test.
func (c *CPU) writeBarrier(addr uint32) {
	w := addr >> 6
	if w >= uint32(len(c.codeBits)) || c.codeBits[w]&(1<<(addr&63)) == 0 {
		return
	}
	c.lockTraces()
	defer c.unlockTraces()
	for i := 0; i < len(c.liveBlocks); {
		b := c.liveBlocks[i]
		if addr-b.pa < b.cover {
			c.Trans.BlockInvalidations++
			c.dropBlock(b)
			continue // dropBlock swapped a new block into slot i
		}
		i++
	}
	for i := 0; i < len(c.liveTraces); {
		tr := c.liveTraces[i]
		if tr.covers(addr) {
			c.Trans.TraceInvalidations++
			c.dropTrace(tr)
			continue // dropTrace swapped a new trace into slot i
		}
		i++
	}
}

// InvalidateBlocks drops every translated block. Entry validation
// already keeps the cache coherent word by word; this exists so
// whole-image reloads and cache regrowth release translations eagerly.
// Live traces keep their own coverage, so the bitmap is rebuilt from
// their spans after the clear.
func (c *CPU) InvalidateBlocks() {
	c.lockTraces()
	for _, b := range c.liveBlocks {
		b.valid = false
	}
	clear(c.liveBlocks)
	c.liveBlocks = c.liveBlocks[:0]
	c.unlockTraces()
	for i := range c.bc {
		c.bc[i] = nil
	}
	for i := range c.codeBits {
		c.codeBits[i] = 0
	}
	c.lastBlk = nil
	for _, tr := range c.liveTraces {
		for _, sp := range tr.spans {
			c.coverWords(sp.pa, sp.n)
		}
	}
}
