package cpu

// Pooled formation heat: machines on one golden code count trace-tier
// misses into its entries, adopt what the others publish, and never
// record where another poisoned. A code write moves a machine to a code
// of its own and takes its blocks' heat along.

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// loadGolden builds a machine with 64K words of physical memory on the
// golden image code, with a halt hook on trap 0.
func loadGolden(code *GoldenCode, e Engine) *CPU {
	c := New(NewBus(mem.NewPhysical(1 << 16)))
	c.SetEngine(e)
	c.LoadCode(code)
	c.SetTrapHook(func(code uint16) {
		if code == 0 {
			c.Halt()
		}
	})
	return c
}

// TestPoisoningIsPublished runs the shadow-branch loop on three
// machines loaded from one golden image, as bare machines load one: the
// first poisons the loop entry, and the second and third adopt the
// poisoning with the entry's pooled heat: they poison nothing and never
// record at the entry, and every machine still runs event for event
// like the reference engine.
func TestPoisoningIsPublished(t *testing.T) {
	const entry = 2
	words := shadowBranchWords(3000)
	code := NewGoldenCode(uint32(len(words)), []CodeRun{{Base: 0, Words: words}})
	load := func(e Engine) (*CPU, *eventHash) {
		c := loadGolden(code, e)
		return c, attachEventHash(c)
	}
	ref, refHash := load(EngineReference)
	run(t, ref, 1_000_000)
	for i := range 3 {
		c, h := load(EngineTraces)
		var atEntry []JITEvent
		c.SetJITHook(func(e JITEvent) {
			if e.PC == entry && (e.Kind == JITFormed || e.Kind == JITRefused || e.Kind == JITPoisoned) {
				atEntry = append(atEntry, e)
			}
		})
		run(t, c, 1_000_000)
		if h.sum.Sum64() != refHash.sum.Sum64() || c.Stats != ref.Stats {
			t.Errorf("machine %d diverges from the reference engine: stats %+v, want %+v", i+1, c.Stats, ref.Stats)
		}
		if i == 0 {
			if c.Trans.TracePoisoned == 0 || len(atEntry) == 0 {
				t.Fatalf("machine 1 poisoned %d entries, %d formation events at the entry; want the entry poisoned",
					c.Trans.TracePoisoned, len(atEntry))
			}
		} else if c.Trans.TracePoisoned != 0 || len(atEntry) != 0 {
			t.Errorf("machine %d poisoned %d entries and recorded at the entry (%+v); want the published poisoning adopted",
				i+1, c.Trans.TracePoisoned, atEntry)
		}
	}
}

// TestHeatSurvivesCodeWrite runs the shadow-branch loop on a golden
// code until its entry is poisoned, then writes a word no block covers.
// The write moves the machine to a code of its own, and every block
// keeps the heat it had, the poisoning included: the machine never
// records at the entry again, the golden code keeps its heat, and the
// run still matches the reference engine event for event.
func TestHeatSurvivesCodeWrite(t *testing.T) {
	const entry = 2
	words := shadowBranchWords(3000)
	tail := uint32(len(words)) // past every word a block caches
	code := NewGoldenCode(tail, []CodeRun{{Base: 0, Words: words}})
	ref := loadGolden(code, EngineReference)
	refHash := attachEventHash(ref)
	ref.WriteCode(tail, []isa.Instr{halt})
	run(t, ref, 1_000_000)

	c := loadGolden(code, EngineTraces)
	h := attachEventHash(c)
	for c.Trans.TracePoisoned == 0 {
		if _, halted := c.RunSteps(100); halted {
			t.Fatal("the machine halted before it poisoned the loop entry")
		}
	}
	heat := map[uint32]uint32{}
	c.eachBlock(func(b *block) { heat[b.pa] = b.pub.heat.Load() })
	if heat[entry] != heatNever {
		t.Fatalf("loop entry heat %d, want it poisoned", heat[entry])
	}
	warm := 0
	for _, n := range heat {
		if n != 0 && n != heatNever {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no block holds heat short of the threshold; the test is vacuous")
	}

	c.WriteCode(tail, []isa.Instr{halt})
	if c.code == code || c.Trans.BlockInvalidations != 0 {
		t.Fatalf("after the write the machine runs on the golden code (%v) or dropped %d blocks; want a code of its own and every block kept",
			c.code == code, c.Trans.BlockInvalidations)
	}
	c.eachBlock(func(b *block) {
		if got := b.pub.heat.Load(); got != heat[b.pa] {
			t.Errorf("block at %d: heat %d after the write, %d before", b.pa, got, heat[b.pa])
		}
		if g := code.entry(b.pa).heat.Load(); g != heat[b.pa] {
			t.Errorf("golden code entry %d: heat %d after the write, %d before", b.pa, g, heat[b.pa])
		}
	})
	poisoned := c.Trans.TracePoisoned
	var atEntry []JITEvent
	c.SetJITHook(func(e JITEvent) {
		if e.PC == entry && (e.Kind == JITFormed || e.Kind == JITRefused || e.Kind == JITPoisoned) {
			atEntry = append(atEntry, e)
		}
	})
	run(t, c, 1_000_000)
	if c.Trans.TracePoisoned != poisoned || len(atEntry) != 0 {
		t.Errorf("after the write the machine poisoned %d more entries and recorded at the entry (%+v)",
			c.Trans.TracePoisoned-poisoned, atEntry)
	}
	if h.sum.Sum64() != refHash.sum.Sum64() || c.Stats != ref.Stats {
		t.Errorf("the machine diverges from the reference engine: stats %+v, want %+v", c.Stats, ref.Stats)
	}
}
