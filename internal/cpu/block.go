package cpu

// The superblock execution engine. The dispatcher comes here when the
// fetch queue holds no in-flight branch target: the head of the queue is
// then a block entry point, and the whole straight-line run up to and
// including the next control transfer executes as one translated block
// (blockcache.go). Every word runs on the reference interpreter
// (execWord) behind step's own preamble, from the copy the block cached
// at translation: the fetch is the only per-word work the block saves,
// besides the dispatch between blocks that chaining skips. Every
// deviation (fault, trap, interrupt, halt, invalidation, page-map
// change) abandons the block at a precise instruction boundary.

import "mips/internal/mem"

// queueSequential reports whether the fetch queue holds only the
// sequential successors of its head — no delayed branch target in
// flight, so the head is a block entry point.
func (c *CPU) queueSequential() bool {
	for i := 1; i < c.pcn; i++ {
		if c.pcq[i] != c.pcq[0]+uint32(i) {
			return false
		}
	}
	return true
}

// entryPA resolves an entry word as fetched to its instruction-memory
// word pa: through the fetch translation when mapped. ok is false when
// pc does not resolve to instruction memory, leaving the exact fault to
// the per-instruction path. The block table's slot for pa (blockIn)
// holds the block entered there and the compiled trace it carries. The
// unmapped resolution inlines; the mapped one is a call.
func (c *CPU) entryPA(pc uint32, mapped bool) (pa uint32, ok bool) {
	if mapped {
		return c.mappedEntryPA(pc)
	}
	return pc, pc < c.IMem.n
}

// mappedEntryPA is entryPA for a mapped entry word, kept out of line so
// that entryPA inlines.
//
//go:noinline
func (c *CPU) mappedEntryPA(pc uint32) (pa uint32, ok bool) {
	pa, f := c.Bus.MMU.Translate(pc, false, true)
	return pa, f == nil && pa < c.IMem.n
}

// useBlock returns the block the block engine runs at pa: b, the table's
// block there (a hit), or, when b is nil, the block missBlock supplies.
func (c *CPU) useBlock(b *block, pa uint32) *block {
	if b == nil {
		return c.missBlock(pa)
	}
	c.Trans.BlockHits++
	return b
}

// stepBlocks executes a chain of superblocks (body, terminator, and the
// terminator's delay slots) from b, the block entered at the head of
// the fetch queue, within left steps, which must exceed
// blockMaxWords.
func (c *CPU) stepBlocks(b *block, left uint64) {
	pc := c.pcq[0]
	mapped := c.Mapped()
	// An exception ends the chain, so until then a step is an
	// instruction: end bounds the chain in retired instructions.
	end := c.Stats.Instructions + left
	bus := c.Bus
	// With the trace tier live here, chained blocks feed the tier's
	// heat profile and yield to compiled traces: dispatch entry is the
	// only point the trace dispatcher sees, and a long chain would
	// otherwise starve it of both heat and dispatches (the chain's exit
	// PCs cycle around a loop instead of revisiting one entry).
	traceTier := c.engine == EngineTraces && !c.trec.active && c.traceable()
	var ctx mem.Context
	if traceTier {
		ctx = bus.MMU.Context(mapped)
	}

	// Chained blocks execute back to back while nothing needs the
	// dispatcher: the hot loop never leaves this frame. Chaining stops
	// at any block whose exit ran a word of no plain class (a special
	// could have changed privilege, overflow enable, or the address
	// map), at any exception, and at a block that does not fit the
	// steps left.
	for {
		b.execs++
		if c.trec.active {
			c.recTracePoint(b, pc)
		}
		var pmGen uint64
		if mapped {
			pmGen = bus.MMU.Map.Generation()
		}
		exc0 := c.excSeq

		body := b.words[:b.n]
		for i := range body {
			c.stepWord(&body[i])
			// An exception (fault, overflow, interrupt) has already
			// redirected the queue; a store hitting the halt device ends
			// the block after its word; a store to the disk's go register
			// replaces a page of code synchronously, which may drop this
			// very block; and a store or device tick may have remapped the
			// address space. All end it at an exact instruction boundary.
			if c.excSeq != exc0 || c.Halted || !b.valid ||
				mapped && bus.MMU.Map.Generation() != pmGen {
				c.Trans.BlockBails++
				return
			}
		}

		// The terminator runs from its cached copy when one was cached
		// (skipping re-fetch: the body left the block valid), then the
		// delay slots of a taken transfer drain — from their cached
		// copies while those stay coherent, else through step — until
		// the fetch queue is sequential again.
		t := pc + b.n
		if b.termless {
			return
		}
		// Chaining may continue only through exits of known effect: a
		// cached control-class terminator and cached delay slots of a
		// plain class (a bcGeneral word could hold a special).
		// A path recording may additionally look across an unprivileged
		// packed terminator (control piece sharing the word with
		// computation): the drain below still leaves the machine at an
		// exact boundary, the halt/exception/sequential checks still
		// gate the continuation, and trace validation decides whether
		// the packed word compiles. Without this the hottest loops the
		// reorganizer packs most aggressively could never record a
		// multi-block path.
		chainable := b.hasTerm && (b.termClass >= bcBranch ||
			(c.trec.active && b.termClass == bcGeneral && !b.termPriv))
		if b.hasTerm {
			c.stepWord(&b.words[b.n])
		} else {
			c.step()
		}
		for k := 0; !c.Halted && !c.queueSequential() && k < pcqCap && c.Stats.Instructions < end; k++ {
			if j := c.pcq[0] - (t + 1); j < uint32(b.dsN) && b.valid &&
				(!mapped || bus.MMU.Map.Generation() == pmGen) {
				if b.dsGeneral[j] {
					chainable = false
				}
				c.stepWord(&b.words[b.n+1+j])
			} else {
				chainable = false
				c.step()
			}
		}
		if !chainable || c.Halted || c.excSeq != exc0 || !c.queueSequential() {
			return
		}
		if c.trec.active && c.trec.n > traceMaxBlocks {
			// The recording buffer is full: chaining further retires
			// instructions the recording cannot use (formation truncates
			// at traceMaxBlocks anyway), charging the block tier for
			// nothing. End the recording chain at this exact boundary.
			return
		}
		// The next entry's table slot answers both questions: whether a
		// trace is ready there (the dispatcher runs it) and which block
		// to chain to. A block whose heat reaches the threshold here ends
		// the chain with its count left there, so the dispatcher's own
		// bump starts the recording at once.
		npc := c.pcq[0]
		pa, ok := c.entryPA(npc, mapped)
		if !ok {
			return
		}
		nb := c.blockIn(pa)
		hit := nb != nil
		if !hit {
			nb = c.missBlock(pa)
		}
		if traceTier && nb.traceFor(npc, &ctx) != nil {
			return
		}
		if c.trec.active && (nb.tr == nil || nb.tr.adopted) && nb.pub.tr.Load() != nil {
			// A recording ends where another machine published a trace:
			// the trace formed here runs into that one instead of
			// copying its ops. The machine's own traces do not end it,
			// so the traces an image's publisher forms take the shapes
			// one machine's profile gives them.
			c.recTracePoint(nb, npc)
			return
		}
		if hit {
			c.Trans.BlockHits++
		}
		if traceTier && nb.pub.bump() || c.Stats.Instructions+uint64(nb.n) >= end {
			return
		}
		c.Trans.BlockChained++
		b, pc = nb, npc
	}
}
