package cpu

// The superblock translation cache: the layer above per-instruction
// stepping that caches straight-line runs of instructions as blocks of
// the words they hold. block.go runs the cached words; trace formation
// decodes them (predecode.go) for the few blocks a recording reaches.
// This file owns the data structures and their coherence machinery:
//
//   - translateBlock scans instruction memory from a block entry point
//     up to the next control transfer and copies the words it covers,
//     with the classes of its exit words;
//   - an exact table indexed the way instruction memory is (one page of
//     block pointers per instruction-memory page a block was entered
//     in) holds each block at its physical entry word, with the
//     compiled trace entered there: the one table every translation
//     lives in;
//   - the code writers (CPU.WriteCode, CPU.ReplaceCode) invalidate every
//     block whose cached words meet the written range, so a page-in or
//     a patched word can never leave a stale translation executable.
//     Data writes — CPU stores, DMA moves, device pokes — reach only
//     physical memory, never the instruction memory blocks cache;
//   - a block's immutable part (blockCode) is shared: every machine
//     publishes what it translates on the golden code it runs on
//     (CPU.LoadCode), and on a miss adopts what another machine
//     published there (missBlock). A code write moves the machine to a
//     code of its own; a restore, to the code it restores.

import (
	"fmt"
	"sync/atomic"

	"mips/internal/isa"
	"mips/internal/mem"
)

const (
	// blockMaxWords caps a block's body; longer straight-line runs
	// split into chained blocks.
	blockMaxWords = 64
)

// blockPage holds the blocks entered in one instruction-memory page,
// each at its entry word's offset.
type blockPage [imemPageWords]*block

// Word classes (wordClass). Every word executes through execWord
// whatever its class; the classes tell trace formation which handler
// shape a word compiles to, and the block engine's chain rule which
// exits have a known effect.
const (
	bcGeneral uint8 = iota // packed or unclassified
	bcNop                  // the word performs no work
	bcALU                  // single ALU-class piece, no memory piece
	bcLoad                 // single data-port load piece (a lone long immediate is bcALU)
	bcStore                // single store piece

	// Control classes appear only at a block's terminator and delay
	// slots (translation stops a body before any control transfer).
	bcBranch
	bcJump
	bcCall
	bcJumpInd
)

// blockCode is a translated superblock's immutable part: a straight-line
// run of body words (everything up to, but not including, the next
// control transfer) plus the words of its exit. It is copied from
// instruction memory alone and never written once built, so every
// machine running the same golden code may share it (GoldenCode's
// published table).
type blockCode struct {
	pa uint32 // physical address of the first body word
	n  uint32 // body length in words (0: the entry word is a terminator)
	// cover is the number of words from pa the block depends on (body,
	// terminator, delay slots; the entry word of a block that caches
	// none).
	cover uint32

	dsN      uint8 // delay-slot words cached after the terminator
	hasTerm  bool  // the word at pa+n is cached as the terminator
	termless bool  // the scan hit a size/page limit, not a real terminator

	// termClass and termPriv are the terminator's class and whether it
	// is privileged, and dsGeneral whether each delay slot is bcGeneral:
	// all the block engine's chain rule reads of its exit words.
	termClass uint8
	termPriv  bool
	dsGeneral [2]bool

	// words holds the cached words in address order, words[i] copied
	// from IMem[pa+i]: the body as words[:n], then the terminator when
	// hasTerm, then the dsN delay slots. All run from these copies,
	// skipping re-fetch because a code write drops the block first.
	words []isa.Instr
}

// block is one machine's entry in its table of translations: the shared
// immutable blockCode plus the state only this machine writes.
type block struct {
	*blockCode

	valid bool

	// tr is the compiled trace entered at this block's entry word, kept
	// for the entry PC and translation context it was formed under
	// (tr.pc, tr.ctx). Its first span is this block's cover, so a code
	// write that drops the block drops the trace with it.
	tr *trace

	// pub is the entry for this block's entry word on the machine's
	// golden code, which holds the trace tier's heat there
	// (pubEntry.heat).
	pub *pubEntry

	// execs counts block-engine entries (dispatch and chain alike), for
	// BlockSites' per-PC tier heatmap.
	execs uint64
}

// TranslationStats counts translation-layer behavior: the superblock
// cache, the trace tier, and tier residency. It lives outside Stats
// because Stats is held engine-independent by the differential tests'
// strict equality, while these counters intentionally describe the
// engine itself.
type TranslationStats struct {
	// BlockHits counts block-table lookups served by a block;
	// BlockChained counts the blocks a chain enters after its first,
	// without returning to dispatch; BlockTranslations counts blocks
	// built (first sight and retranslation after invalidation alike).
	BlockHits         uint64
	BlockChained      uint64
	BlockTranslations uint64
	// BlockInvalidations counts blocks dropped by a code write
	// (a page-in, or a patch through CPU.WriteCode).
	BlockInvalidations uint64
	// BlockBails counts blocks left mid-body for dispatch: faults,
	// overflows, interrupts, halts, and coherence bails after a word
	// that dropped the block or changed the page map.
	BlockBails uint64

	// TraceFormed counts hot-path recordings that finished with a
	// formable multi-block path; TraceCompiled counts traces actually
	// compiled and installed (a formed path whose words
	// cannot all be specialized truncates, and too-short truncations
	// compile nothing).
	TraceFormed   uint64
	TraceCompiled uint64
	// TraceGuardExits counts early trace exits of every kind — branch
	// direction guards, faults, halts — all of which
	// leave the machine at an exact instruction boundary.
	TraceGuardExits uint64
	// TraceInvalidations counts traces dropped by a code write.
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
	// boundary. TraceDeoptChainBudget: the steps left in the run (see
	// CPU.RunSteps) were too few for the trace ready at the next PC.
	TraceDeoptEnvironment uint64
	TraceDeoptInterrupt   uint64
	TraceDeoptChainBudget uint64

	// TraceFormRefusals counts formation refusals by FormRefusal — at
	// most one per recording, attributed to the first block (or whole
	// path) that refused. TracePoisoned counts entry PCs marked
	// heatNever, never to be recorded again.
	TraceFormRefusals [NumFormRefusals]uint64
	TracePoisoned     uint64

	// BlockAdoptions counts blocks taken from the published table of
	// the golden code a machine runs on (GoldenCode) on an own-table
	// miss, instead of translated; TraceAdoptions counts the published
	// traces taken with them. Both stay zero on the first machine to run
	// a golden code, and on a machine after a code write.
	BlockAdoptions uint64
	TraceAdoptions uint64

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
		" | deopt dir=%d ind=%d fault=%d env=%d int=%d budget=%d"+
		" | refuse priv=%d shadow=%d jind=%d ds=%d block=%d short=%d ops=%d poison=%d"+
		" | tier ref=%d fast=%d blocks=%d traces=%d"+
		" | adopt blocks=%d traces=%d",
		t.BlockHits, t.BlockChained, t.BlockTranslations, t.BlockInvalidations, t.BlockBails,
		t.TraceFormed, t.TraceCompiled, t.TraceDispatchHits, t.TraceGuardExits, t.TraceInvalidations,
		t.TraceDeopts[DeoptBranchDirection], t.TraceDeopts[DeoptIndirectTarget], t.TraceDeopts[DeoptFault],
		t.TraceDeoptEnvironment, t.TraceDeoptInterrupt, t.TraceDeoptChainBudget,
		t.TraceFormRefusals[RefusalPrivileged], t.TraceFormRefusals[RefusalShadowBranch],
		t.TraceFormRefusals[RefusalJumpInd], t.TraceFormRefusals[RefusalDelaySlot],
		t.TraceFormRefusals[RefusalBlock], t.TraceFormRefusals[RefusalShortPath],
		t.TraceFormRefusals[RefusalOpBudget], t.TracePoisoned,
		t.TierInstrs[TierReference], t.TierInstrs[TierFast], t.TierInstrs[TierBlocks], t.TierInstrs[TierTraces],
		t.BlockAdoptions, t.TraceAdoptions)
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

// wordClass returns the class of one instruction word. Packed words
// (both slots active) are always bcGeneral; a lone long-immediate load
// is bcALU, the move it executes as.
func wordClass(in isa.Instr) uint8 {
	alu, m := isa.PieceNop, isa.PieceNop
	if in.ALU != nil {
		alu = in.ALU.Kind
	}
	if in.Mem != nil {
		m = in.Mem.Kind
	}
	switch {
	case in.IsNop():
		return bcNop
	case alu == isa.PieceNop && m == isa.PieceLoad && in.Mem.Mode == isa.AModeLongImm:
		return bcALU
	case m == isa.PieceNop && alu != isa.PieceNop:
		return bcALU
	case alu != isa.PieceNop:
		return bcGeneral
	case m == isa.PieceLoad:
		return bcLoad
	case m == isa.PieceStore:
		return bcStore
	case m == isa.PieceBranch:
		return bcBranch
	case m == isa.PieceJump:
		return bcJump
	case m == isa.PieceCall:
		return bcCall
	case m == isa.PieceJumpInd:
		return bcJumpInd
	}
	return bcGeneral
}

// translateBlock scans the straight-line run of instruction words at pa
// and builds the block's immutable part in b: its cached words and
// the classes of its exit words.
func (c *CPU) translateBlock(b *blockCode, pa uint32) {
	c.Trans.BlockTranslations++
	// Never cross a page boundary: page-granular translation guarantees
	// that virtual and physical in-page offsets agree, so cached words
	// that stay inside the entry's page execute contiguously in both
	// spaces. pageLimit also bounds the cached terminator and delay
	// slots; the body is additionally capped at blockMaxWords.
	pageLimit := c.IMem.n
	if pageEnd := pa&^uint32(mem.PageWords-1) + mem.PageWords; pageEnd < pageLimit {
		pageLimit = pageEnd
	}
	limit := pageLimit
	if capEnd := pa + blockMaxWords; capEnd < limit {
		limit = capEnd
	}
	*b = blockCode{pa: pa, termless: true}
	// Count the cached words first so they are allocated once, at their
	// exact number.
	for b.n < limit-pa && bodyWord(c.IMem.At(pa+b.n)) {
		b.n++
	}
	if wa := pa + b.n; wa < limit {
		b.termless = false
		// Unprogrammed memory is a real (faulting) terminator, executed
		// un-cached so the illegal fault stays exact. Any other word
		// is the block's terminator: cached alongside the body so the
		// exit skips a re-fetch. Privileged words also land here, so a
		// body never holds one (trace formation relies on it).
		if in := c.IMem.At(wa); nonEmpty(in) {
			b.hasTerm = true
			b.termClass, b.termPriv = wordClass(in), privileged(in)
		}
	}
	if b.n == 0 {
		b.termless = false
	}
	// Cache the delay-slot words after a real terminator: a taken
	// transfer always executes them, and caching them keeps a hot
	// loop's tail off the per-instruction fetch path. Any decodable
	// word qualifies: privilege is checked when it runs, as for a
	// fetched word.
	if b.hasTerm {
		for wa := pa + b.n + 1; wa < pageLimit && b.dsN < 2; wa++ {
			in := c.IMem.At(wa)
			if !nonEmpty(in) {
				break
			}
			b.dsGeneral[b.dsN] = wordClass(in) == bcGeneral
			b.dsN++
		}
	}
	// A code write into any word this block would execute from its
	// cache drops it. A block that caches no word still stands for its
	// entry word being unprogrammed.
	b.cover = max(b.n, 1)
	cached := b.n
	if b.hasTerm {
		cached = b.n + 1 + uint32(b.dsN)
		b.cover = cached
	}
	b.words = make([]isa.Instr, cached)
	for i := range b.words {
		b.words[i] = c.IMem.At(pa + uint32(i))
	}
}

// missBlock supplies the block entered at pa when the machine's table
// has none: the block published on the machine's golden code (with its
// published trace on the trace tier), else a new translation, which it
// publishes there. Either way the block goes into the table, tied to
// its published entry. It stays out of line, so the table hit inlines.
func (c *CPU) missBlock(pa uint32) *block {
	e := c.code.entry(pa)
	if bc := e.b.Load(); bc != nil {
		c.Trans.BlockAdoptions++
		b := c.installBlock(&block{blockCode: bc, valid: true, pub: e})
		if tc := e.tr.Load(); tc != nil && c.engine == EngineTraces {
			b.tr = &trace{traceCode: tc, adopted: true}
			c.Trans.TraceAdoptions++
			if c.onJIT != nil {
				c.emitJIT(JITEvent{Kind: JITAdopted, PC: tc.pc, Len: uint32(len(tc.ins))})
			}
		}
		return b
	}
	// A block translated here and its code are one allocation; a
	// published code keeps the small record of this machine alive.
	f := new(struct {
		block
		code blockCode
	})
	c.translateBlock(&f.code, pa)
	f.block = block{blockCode: &f.code, valid: true, pub: e}
	e.b.CompareAndSwap(nil, &f.code)
	return c.installBlock(&f.block)
}

// installBlock enters b in the table, whose slot for b.pa is empty, and
// returns it. The table only grows: no block is dropped to make room
// for another.
func (c *CPU) installBlock(b *block) *block {
	i := b.pa >> imemPageBits
	if need := int(i) + 1; need > len(c.blocks) {
		c.blocks = append(c.blocks, make([]*blockPage, need-len(c.blocks))...)
	}
	if c.blocks[i] == nil {
		c.blocks[i] = new(blockPage)
	}
	c.blocks[i][b.pa&imemPageMask] = b
	return b
}

// blockIn returns the block entered at instruction-memory word pa, or
// nil: the one read of the block table.
func (c *CPU) blockIn(pa uint32) *block {
	if i := pa >> imemPageBits; i < uint32(len(c.blocks)) {
		if pg := c.blocks[i]; pg != nil {
			return pg[pa&imemPageMask]
		}
	}
	return nil
}

// eachBlock calls fn for every block in the table, in entry-word order.
// fn may clear the slot of the block it is given.
func (c *CPU) eachBlock(fn func(b *block)) {
	for _, pg := range c.blocks {
		if pg == nil {
			continue
		}
		for _, b := range pg {
			if b != nil {
				fn(b)
			}
		}
	}
}

// codeWritten drops every translated block whose cached words meet the
// n instruction-memory words at pa, and every compiled trace whose spans
// do. Only the code writers call it. The machine's code no longer is
// the golden code it ran on, so it moves to a new golden code of its
// own, covering its instruction memory, which no other machine reads:
// the surviving blocks move to its entries with their heat (a poisoning
// included), and from here on the machine adopts only what it publishes
// itself. The code has no pages: nothing forks it.
func (c *CPU) codeWritten(pa, n uint32) {
	c.code = &GoldenCode{n: c.IMem.n, pub: make([]atomic.Pointer[pubPage], len(c.IMem.pages))}
	c.eachBlock(func(b *block) {
		if b.tr != nil && b.tr.covers(pa, n) {
			c.Trans.TraceInvalidations++
			c.dropTrace(b)
		}
		if b.pa < pa+n && pa < b.pa+b.cover {
			c.Trans.BlockInvalidations++
			b.valid = false
			c.blocks[b.pa>>imemPageBits][b.pa&imemPageMask] = nil
			return
		}
		e := c.code.entry(b.pa)
		e.heat.Store(b.pub.heat.Load())
		b.pub = e
	})
}

// dropTranslations drops every translated block, every compiled trace
// and any recording in flight. Loading code calls it, so translations
// never outlive the code they were built from; the code writers handle
// everything in between.
func (c *CPU) dropTranslations() {
	c.eachBlock(func(b *block) {
		b.valid = false
		if b.tr != nil {
			c.dropTrace(b)
		}
	})
	clear(c.blocks)
	c.trec.active = false
	c.trec.n = 0
	clear(c.trec.pts[:])
}
