package sim_test

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/sim"
)

// TestBareLoadRejectsTextOutsideMemory pins the bare machine's check on
// an image's text placement, which image files on disk control: text at
// word 0 would have the monitor's rfe overwrite its first word, text
// below it indexes instruction memory out of range, and text past the
// largest physical memory would size instruction memory by the address.
func TestBareLoadRejectsTextOutsideMemory(t *testing.T) {
	for _, base := range []int32{0, -16, 1 << 30} {
		m, err := sim.New(sim.WithEngine(sim.Reference))
		if err != nil {
			t.Fatal(err)
		}
		im := &isa.Image{Words: []isa.Instr{isa.NopWord(), isa.Word(isa.Trap(0))}, TextBase: base, Entry: base}
		if err := m.Load(im); err == nil {
			t.Errorf("text base %d: Load accepted the image", base)
		}
	}
}
