package cpu

// Pooled formation heat: machines attached to one golden image count
// trace-tier misses into the image's entries, adopt what the others
// publish, and never record where another poisoned.

import (
	"testing"

	"mips/internal/mem"
)

// loadGolden builds a machine with 64K words of physical memory on the
// golden image code, attached to it or not, with a halt hook on trap 0.
func loadGolden(code *GoldenCode, attach bool, e Engine) *CPU {
	c := New(NewBus(mem.NewPhysical(1 << 16)))
	c.SetEngine(e)
	c.LoadCode(code, attach)
	c.SetTrapHook(func(code uint16) {
		if code == 0 {
			c.Halt()
		}
	})
	return c
}

// TestPoisoningIsPublished runs the shadow-branch loop on three
// machines loaded from one golden image, as bare machines load one: the
// first keeps its translations to itself, the second attaches and
// poisons the loop entry, and the third attaches after it. The third
// adopts the poisoning with the entry's pooled heat: it poisons nothing
// and never records at the entry, and it still runs event for event
// like the reference engine.
func TestPoisoningIsPublished(t *testing.T) {
	const entry = 2
	words := shadowBranchWords(3000)
	code := NewGoldenCode(uint32(len(words)), []CodeRun{{Base: 0, Words: words}})
	load := func(attach bool, e Engine) (*CPU, *eventHash) {
		c := loadGolden(code, attach, e)
		return c, attachEventHash(c)
	}
	ref, refHash := load(false, EngineReference)
	run(t, ref, 1_000_000)
	for i, attach := range []bool{false, true, true} {
		c, h := load(attach, EngineTraces)
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
		switch i {
		case 1:
			if c.Trans.TracePoisoned == 0 || len(atEntry) == 0 {
				t.Fatalf("machine 2 poisoned %d entries, %d formation events at the entry; want the entry poisoned",
					c.Trans.TracePoisoned, len(atEntry))
			}
		case 2:
			if c.Trans.TracePoisoned != 0 || len(atEntry) != 0 {
				t.Errorf("machine 3 poisoned %d entries and recorded at the entry (%+v); want the published poisoning adopted",
					c.Trans.TracePoisoned, atEntry)
			}
		}
	}
}
