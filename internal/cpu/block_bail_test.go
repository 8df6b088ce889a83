package cpu

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// Layout of the bail tests. The block runs from frame bailFrame, at
// virtual page bailFrame when mapped; frame bailAltFrame holds a second
// version of the same code. A device claims frame bailDevFrame, which
// mapped code reaches through virtual page bailDevPage.
const (
	bailFrame    = 1
	bailAltFrame = 2
	bailDevPage  = 4
	bailDevFrame = 8
	bailAdds     = 8 // body words after the store that fires the device
)

// bailDevice claims frame bailDevFrame and runs act on every store to
// it.
type bailDevice struct {
	act    func()
	stores int
}

func (d *bailDevice) Window() (lo, hi uint32) {
	return bailDevFrame * mem.PageWords, (bailDevFrame + 1) * mem.PageWords
}

func (d *bailDevice) ReadWord(uint32) uint32 { return 0 }

func (d *bailDevice) WriteWord(uint32, uint32) {
	d.stores++
	d.act()
}

// bailCode is one version of the block: a store to the device at
// devAddr, then bailAdds words that each add step to r3, then a halt.
// Every word but the halt is a body word, so the store's successors run
// in the block the store ran in.
func bailCode(devAddr uint32, step int32) []isa.Instr {
	code := []isa.Instr{w(isa.StoreAbs(2, int32(devAddr)))}
	for range bailAdds {
		code = append(code, w(isa.ALU(isa.OpAdd, 3, isa.R(3), isa.Imm(step))))
	}
	return append(code, halt)
}

// TestBlockBodyBailsOnCodeChange has a store in the middle of a block's
// body reach a device that changes the code the rest of the body runs
// from: it either replaces the page the block was translated from, as a
// kernel page-in does, or remaps the virtual page the block runs from
// to a frame holding other code. The block's cached words are then
// stale, and the body loop must leave the block right after the store
// (on the invalidated block in the first case, on the page map's
// generation in the second). Blocks and traces must match the
// reference interpreter, which fetches every word.
func TestBlockBodyBailsOnCodeChange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mapped bool
	}{
		{"replace", false},
		{"remap", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(e Engine) *CPU {
				c := newTestCPU(halt) // exceptions vector to a halt
				pc, devAddr := uint32(bailFrame*mem.PageWords), uint32(bailDevFrame*mem.PageWords)
				dev := &bailDevice{}
				if tc.mapped {
					devAddr = bailDevPage * mem.PageWords
					mmu := c.Bus.MMU
					mmu.Seg = mem.NewSegUnit(1, mem.MinSpaceBits)
					mapPage := func(vp, frame uint32) {
						sys, _ := mmu.Seg.Translate(vp << mem.PageBits)
						mmu.Map.Map(sys>>mem.PageBits, frame, true)
					}
					mapPage(bailFrame, bailFrame)
					mapPage(bailDevPage, bailDevFrame)
					c.WriteCode(bailAltFrame*mem.PageWords, bailCode(devAddr, 3))
					dev.act = func() { mapPage(bailFrame, bailAltFrame) }
					c.Sur = c.Sur.SetSupervisor(false).SetMapping(true)
				} else {
					dev.act = func() { c.ReplaceCode(pc, mem.PageWords, bailCode(devAddr, 3)) }
				}
				c.WriteCode(pc, bailCode(devAddr, 1))
				c.Bus.Attach(dev)
				c.SetPC(pc)
				c.SetEngine(e)
				if _, halted := c.RunSteps(1000); !halted {
					t.Fatalf("engine %d did not halt (pc=%d)", e, c.PC())
				}
				if dev.stores != 1 {
					t.Fatalf("engine %d: device saw %d stores, want 1", e, dev.stores)
				}
				return c
			}
			ref := build(EngineReference)
			if want := uint32(3 * bailAdds); ref.Regs[3] != want {
				t.Fatalf("reference r3 = %d, want %d: the body after the store did not run the new code", ref.Regs[3], want)
			}
			for _, e := range []struct {
				name   string
				engine Engine
			}{{"blocks", EngineBlocks}, {"traces", EngineTraces}} {
				c := build(e.engine)
				(&bbMachine{c: c}).requireSame(t, e.name, &bbMachine{c: ref})
				if c.Trans.TierInstrs[TierBlocks] == 0 || c.Trans.BlockBails == 0 {
					t.Errorf("%s: the store's block did not run and bail on the block engine: %v", e.name, &c.Trans)
				}
			}
		})
	}
}
