package cpu

// Test-only access to trace formation and to published translations
// for the external tests in formation_bench_test.go and
// published_census_test.go, which need compiled corpus images (and so
// the codegen package, which imports this one).

import (
	"unsafe"

	"mips/internal/isa"
	"mips/internal/mem"
)

// TraceRecording is one captured hot-path recording: the entry PC and
// the recorded block path, replayable through formation.
type TraceRecording struct {
	entry uint32
	pts   []tracePoint
}

// CaptureTraceRecordings installs a JIT hook on c that keeps a copy of
// every recording that validates into a formable path. Detach it with
// SetJITHook(nil) before replaying.
func CaptureTraceRecordings(c *CPU) *[]TraceRecording {
	var recs []TraceRecording
	c.SetJITHook(func(e JITEvent) {
		if e.Kind == JITFormed {
			recs = append(recs, c.captureRecording(e.PC))
		}
	})
	return &recs
}

// captureRecording copies the in-flight recording for entry.
func (c *CPU) captureRecording(entry uint32) TraceRecording {
	return TraceRecording{entry: entry, pts: append([]tracePoint(nil), c.trec.pts[:c.trec.n]...)}
}

// replayRecording runs formation — validation, flattening, compilation
// and installation — over a captured recording.
func (c *CPU) replayRecording(r TraceRecording) {
	c.trec.n = copy(c.trec.pts[:], r.pts)
	c.finishTraceRecording(r.entry)
	clear(c.trec.pts[:c.trec.n])
	c.trec.n = 0
}

// FormTrace replays formation over a captured recording and returns the
// compiled op count of the installed trace (0 if nothing installed).
func (c *CPU) FormTrace(r TraceRecording) int {
	c.replayRecording(r)
	if tr := c.traceAt(r.entry, &c.trec.ctx); tr != nil {
		return len(tr.ins)
	}
	return 0
}

// traceAt returns the compiled trace entered at pc under ctx, or nil.
func (c *CPU) traceAt(pc uint32, ctx *mem.Context) *trace {
	pa, _ := c.entryPA(pc, ctx.Mapped)
	return c.blockIn(pa).traceFor(pc, ctx)
}

// liveBlocks lists the blocks in the block table, in entry-word order.
func (c *CPU) liveBlocks() []*block {
	var bs []*block
	c.eachBlock(func(b *block) { bs = append(bs, b) })
	return bs
}

// liveTraces lists the traces the table's blocks hold, in the order of
// their entry blocks.
func (c *CPU) liveTraces() []*trace {
	var trs []*trace
	c.eachBlock(func(b *block) {
		if b.tr != nil {
			trs = append(trs, b.tr)
		}
	})
	return trs
}

// staleTranslationRefs counts the block-table slots that point at a
// dropped block, and every block pointer left in the trace recording
// buffer: references that keep dropped translations reachable.
func (c *CPU) staleTranslationRefs() int {
	n := 0
	for _, pg := range c.blocks {
		if pg == nil {
			continue
		}
		for _, b := range pg {
			if b != nil && !b.valid {
				n++
			}
		}
	}
	for _, pt := range c.trec.pts {
		if pt.b != nil {
			n++
		}
	}
	return n
}

// Code returns the golden code c runs on.
func Code(c *CPU) *GoldenCode { return c.code }

// TraceCensus counts the unmapped traces published on the image, their
// compiled ops in all, and the distinct instruction-memory words their
// spans cover: ops over words is how much the published traces repeat
// one another. It may run while machines publish.
func (g *GoldenCode) TraceCensus() (traces, ops, words int) {
	covered := make([]bool, g.n)
	for i := range g.pub {
		pg := g.pub[i].Load()
		if pg == nil {
			continue
		}
		for k := range pg {
			tc := pg[k].tr.Load()
			if tc == nil {
				continue
			}
			traces++
			ops += len(tc.ins)
			for _, sp := range tc.spans {
				for pa := sp.pa; pa < sp.pa+sp.n; pa++ {
					if !covered[pa] {
						covered[pa] = true
						words++
					}
				}
			}
		}
	}
	return traces, ops, words
}

// TranslationFootprint counts the blocks in c's table, the words their
// translations cache, and the bytes those translations hold: each
// block's immutable part (blockCode) with what it points to.
func TranslationFootprint(c *CPU) (blocks, words int, bytes uintptr) {
	c.eachBlock(func(b *block) {
		blocks++
		words += int(b.cover)
		bytes += unsafe.Sizeof(block{}) + unsafe.Sizeof(blockCode{}) + uintptr(cap(b.words))*unsafe.Sizeof(isa.Instr{})
	})
	return blocks, words, bytes
}
