package cpu

import (
	"slices"
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// Environment bits of FuzzBlockBody: each switches on one source of
// per-word work the block engine's body loop must honour.
const (
	bbDMA         uint8 = 1 << iota // a DMA transfer steals free cycles
	bbTicker                        // an interval timer raises the interrupt line
	bbMemHook                       // a memory-reference hook is installed
	bbMapped                        // user code runs with mapping on
	bbPendingLoad                   // a load is in flight at block entry
	bbInterrupt                     // the interrupt line is high at block entry
	bbOverflow                      // arithmetic overflow traps
	bbEnvBits     = iota
)

// Layout of the fuzzed program. Physical word 0 is the exception
// vector and halts; the block starts at bbEntry, one word after the
// entry preamble. Page 1 holds the code, pages 2 and 3 data; when
// mapped, virtual pages 1 and 2 map to the same frames and page 3 stays
// unmapped, so data references there page-fault.
const (
	bbEntry   = mem.PageWords + 16
	bbMemTop  = 4 * mem.PageWords
	bbTimerIO = 1 << 20
	bbJumpReg = isa.Reg(isa.NumRegs - 1) // holds the indirect-jump target; never written
	bbLoopReg = isa.Reg(isa.NumRegs - 2) // a looped program's counter; never written by the block
	bbLoops   = 48                       // iterations of a looped program
)

// bbTimer is an interval timer: it raises the interrupt line on the
// tick that exhausts its interval.
type bbTimer struct {
	c     *CPU
	left  uint64
	ticks uint64
}

func (d *bbTimer) Window() (lo, hi uint32)  { return bbTimerIO, bbTimerIO + 1 }
func (d *bbTimer) ReadWord(uint32) uint32   { return uint32(d.ticks) }
func (d *bbTimer) WriteWord(uint32, uint32) {}
func (d *bbTimer) Horizon() uint64          { return d.left }
func (d *bbTimer) Advance(n uint64) {
	for ; n > 0; n-- {
		d.Tick()
	}
}
func (d *bbTimer) Tick() {
	d.ticks++
	if d.left > 0 {
		if d.left--; d.left == 0 {
			d.c.Interrupt(true)
		}
	}
}

// bbGen draws program choices from the fuzz input; an exhausted input
// reads as zeros. A looped program reserves its counter register too.
type bbGen struct {
	in   []byte
	loop bool
}

func (g *bbGen) byte() uint8 {
	if len(g.in) == 0 {
		return 0
	}
	b := g.in[0]
	g.in = g.in[1:]
	return b
}

func (g *bbGen) word() uint32 {
	return uint32(g.byte()) | uint32(g.byte())<<8 | uint32(g.byte())<<16 | uint32(g.byte())<<24
}

// dst is a writable register: any but the reserved ones.
func (g *bbGen) dst() isa.Reg {
	n := uint8(isa.NumRegs - 1)
	if g.loop {
		n--
	}
	return isa.Reg(g.byte() % n)
}

func (g *bbGen) src() isa.Reg { return isa.Reg(g.byte() % isa.NumRegs) }

func (g *bbGen) operand() isa.Operand {
	if b := g.byte(); b&1 != 0 {
		return isa.Imm(int32(int8(b)) >> 1)
	}
	return isa.R(g.src())
}

// addr is a data address in the code page, the data pages, or past
// the end of physical memory.
func (g *bbGen) addr() uint32 {
	if b := g.byte(); b >= 0xF0 {
		return g.word()
	}
	return mem.PageWords + uint32(g.byte())<<4 | uint32(g.byte())&0xF
}

func (g *bbGen) aluPiece() isa.Piece {
	if g.byte()%4 == 0 {
		return isa.SetCond(isa.Cmp(g.byte()%isa.NumCmps), g.dst(), g.operand(), g.operand())
	}
	return isa.ALU(isa.ALUOp(g.byte()%uint8(isa.NumALUOps)), g.dst(), g.operand(), g.operand())
}

func (g *bbGen) memPiece() isa.Piece {
	data, store := g.dst(), g.byte()&1 != 0
	if store {
		data = g.src()
	}
	switch g.byte() % 4 {
	case 0:
		if store {
			return isa.StoreAbs(data, int32(g.addr()))
		}
		return isa.LoadAbs(data, int32(g.addr()))
	case 1:
		disp := int32(int8(g.byte()))
		if store {
			return isa.StoreDisp(data, g.src(), disp)
		}
		return isa.LoadDisp(data, g.src(), disp)
	case 2:
		if store {
			return isa.StoreIndex(data, g.src(), g.src())
		}
		return isa.LoadIndex(data, g.src(), g.src())
	default:
		shift := g.byte() % 8
		if store {
			return isa.StoreShift(data, g.src(), g.src(), shift)
		}
		return isa.LoadShift(data, g.src(), g.src(), shift)
	}
}

// packALU draws the ALU piece of a packed pair. A looped program's is
// in the packed half's two-address form (its destination is its first
// source), so its pairs pack far more often than random ones.
func (g *bbGen) packALU() isa.Piece {
	p := g.aluPiece()
	if g.loop {
		p.Src1 = isa.R(p.Dst)
	}
	return p
}

// packMem draws the memory piece of a packed pair. A looped program's
// is a load or store with the packed half's short displacement.
func (g *bbGen) packMem() isa.Piece {
	if !g.loop {
		return g.memPiece()
	}
	data, base, disp := g.dst(), g.src(), int32(g.byte()&0xF)
	if g.byte()&1 != 0 {
		return isa.StoreDisp(data, base, disp)
	}
	return isa.LoadDisp(data, base, disp)
}

// bodyWord draws a block-body word: a nop, a lone ALU or memory piece,
// a long immediate, or a packed pair.
func (g *bbGen) bodyWord() isa.Instr {
	switch g.byte() % 8 {
	case 0:
		return w(isa.Nop())
	case 1, 2:
		return w(g.aluPiece())
	case 3, 4:
		return w(g.memPiece())
	case 5:
		return w(isa.LoadImm32(g.dst(), int32(g.word())))
	default:
		alu := g.packALU()
		if in, ok := isa.Pack(alu, g.packMem()); ok {
			return in
		}
		return w(alu)
	}
}

// terminator draws the block's control transfer to target.
func (g *bbGen) terminator(target uint32) isa.Instr {
	switch g.byte() % 6 {
	case 0:
		p := isa.Branch(isa.Cmp(g.byte()%isa.NumCmps), g.operand(), g.operand(), "")
		p.Target = int32(target)
		return w(p)
	case 1:
		p := isa.Call("", g.dst())
		p.Target = int32(target)
		return w(p)
	case 2:
		return w(isa.JumpInd(bbJumpReg))
	case 3:
		j := isa.Jump("")
		j.Target = int32(target)
		if in, ok := isa.Pack(g.packALU(), j); ok {
			return in
		}
		return w(j)
	case 4:
		return halt
	default:
		p := isa.Jump("")
		p.Target = int32(target)
		return w(p)
	}
}

// bbMachine is one machine running the fuzzed block, with the logs its
// hooks keep.
type bbMachine struct {
	c        *CPU
	timer    *bbTimer
	refs     []memRef
	audits   []Hazard
	maxSteps int // Steps run allows before it reports a hang
}

type memRef struct {
	pc, addr uint32
	store    bool
}

// newBBMachine builds the machine for one fuzz input: the preamble at
// bbEntry-1 (a load when a pending load is wanted), the body, the
// terminator, two delay-slot words, a halt on the fall-through path and
// a halt at the transfer target. A looped program instead runs both
// paths into a tail at the transfer target that counts bbLoopReg down
// from bbLoops and branches back to bbEntry until it reaches zero.
func newBBMachine(env uint8, prog []byte, loop bool) *bbMachine {
	g := &bbGen{in: prog, loop: loop}
	n := 1 + uint32(g.byte()%48)
	target := bbEntry + n + 4
	code := make([]isa.Instr, 0, n+5)
	pre := isa.NopWord()
	if env&bbPendingLoad != 0 {
		pre = w(isa.LoadAbs(g.dst(), int32(2*mem.PageWords+uint32(g.byte()))))
	}
	code = append(code, pre)
	for i := uint32(0); i < n; i++ {
		code = append(code, g.bodyWord())
	}
	code = append(code, g.terminator(target), g.bodyWord(), g.bodyWord())
	m := &bbMachine{c: newTestCPU(), maxSteps: 1000}
	if loop {
		back := isa.Branch(isa.CmpNE, isa.R(bbLoopReg), isa.Imm(0), "")
		back.Target = bbEntry
		code = append(code, isa.NopWord(),
			w(isa.ALU(isa.OpSub, bbLoopReg, isa.R(bbLoopReg), isa.Imm(1))), // the target
			w(back), isa.NopWord(), halt)
		m.maxSteps = bbLoops * len(code)
	} else {
		code = append(code, halt, halt)
	}
	c := m.c
	c.IMem.Write(0, []isa.Instr{halt})
	c.IMem.Write(bbEntry-1, code)
	for a := uint32(2 * mem.PageWords); a < bbMemTop; a++ {
		c.Bus.MMU.Phys.Poke(a, a*2654435761)
	}
	for r := range c.Regs {
		if b := g.byte(); b >= 0xC0 {
			c.Regs[r] = g.word()
		} else {
			c.Regs[r] = mem.PageWords + uint32(b)<<4 + uint32(g.byte())
		}
	}
	c.Regs[bbJumpReg] = target
	if loop {
		c.Regs[bbLoopReg] = bbLoops
	}
	c.Sur = c.Sur.SetSupervisor(false).SetInterrupts(true).SetOverflow(env&bbOverflow != 0)

	if env&bbDMA != 0 {
		dst := 2*mem.PageWords + uint32(g.byte())
		if g.byte()&1 != 0 {
			dst = bbEntry + uint32(g.byte())%n // the block's own text
		}
		dma := mem.NewDMA(c.Bus.MMU.Phys)
		dma.Queue(mem.Transfer{Src: 3 * mem.PageWords, Dst: dst, Words: 1 + uint32(g.byte()%16)})
		c.Bus.DMA = dma
	}
	if env&bbTicker != 0 {
		m.timer = &bbTimer{c: c, left: 1 + uint64(g.byte()%uint8(n+4))}
		c.Bus.Attach(m.timer)
	}
	if env&bbMemHook != 0 {
		c.SetMemHook(func(pc, addr uint32, store bool) {
			m.refs = append(m.refs, memRef{pc, addr, store})
		})
	}
	c.SetAudit(func(h Hazard) { m.audits = append(m.audits, h) })
	if env&bbMapped != 0 {
		mmu := c.Bus.MMU
		mmu.Seg = mem.NewSegUnit(1, mem.MinSpaceBits)
		for vp := uint32(1); vp <= 2; vp++ {
			sys, _ := mmu.Seg.Translate(vp << mem.PageBits)
			mmu.Map.Map(sys>>mem.PageBits, vp, true)
		}
		c.Sur = c.Sur.SetMapping(true)
	}
	c.SetPC(bbEntry - 1)
	return m
}

// run executes the preamble word on the reference engine, so the block
// is entered with whatever it left in flight, then runs on engine to
// halt. Every path halts: the code is never rewritten, the only
// transfers go forward to a halt, and every exception vectors to one.
func (m *bbMachine) run(t *testing.T, env uint8, engine Engine) {
	t.Helper()
	c := m.c
	c.SetEngine(EngineReference)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if env&bbInterrupt != 0 {
		c.Interrupt(true)
	}
	c.SetEngine(engine)
	for i := 0; !c.Halted; i++ {
		if i == m.maxSteps {
			t.Fatalf("engine %d did not halt (pc=%d)", engine, c.PC())
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// queue is the fetch queue as execution will read it: entries past the
// live ones are the sequential successors fill supplies.
func (m *bbMachine) queue() [pcqCap]uint32 {
	var q [pcqCap]uint32
	for i := range q {
		if i < m.c.pcn {
			q[i] = m.c.pcq[i]
		} else {
			q[i] = q[i-1] + 1
		}
	}
	return q
}

// FuzzBlockBody runs one random superblock — lean, long-immediate and
// packed body words, a control terminator and its delay slots — on the
// block engine and on the reference interpreter, under the environment
// the first argument selects, and requires identical architectural
// state: registers, Lo, the status word, return addresses, memory,
// statistics, the fetch queue, and what the hooks and the timer saw.
func FuzzBlockBody(f *testing.F) {
	// One seed per environment bit, plus the quiet configuration. Each
	// program was picked to reach its bit's mechanism: DMA moves into
	// the block's own text mid-body, the timer fires mid-body, eight
	// memory references, a page fault deep in a mapped body, a hazard
	// on the load in flight at entry, and an overflow trap mid-body.
	for _, s := range []struct {
		env uint8
		k   uint32
	}{
		{0, 102}, {bbDMA, 97}, {bbTicker, 11}, {bbMemHook, 102}, {bbMapped, 211},
		{bbPendingLoad, 1}, {bbInterrupt, 0}, {bbOverflow, 748},
	} {
		f.Add(s.env, bbSeed(s.k))
	}
	f.Fuzz(func(t *testing.T, env uint8, prog []byte) {
		blk := newBBMachine(env, prog, false)
		blk.run(t, env, EngineBlocks)
		ref := newBBMachine(env, prog, false)
		ref.run(t, env, EngineReference)
		blk.requireSame(t, "blocks", ref)
	})
}

// bbSeed expands k into a 256-byte fuzz input with a linear
// congruential generator.
func bbSeed(k uint32) []byte {
	seed := make([]byte, 256)
	for i := range seed {
		k = k*1664525 + 1013904223
		seed[i] = byte(k >> 24)
	}
	return seed
}

// requireSame fails t unless m, run on the engine called name, left the
// architectural state ref left: registers, Lo, the status word, return
// addresses, memory, statistics, the fetch queue, and what the hooks
// and the timer saw.
func (m *bbMachine) requireSame(t *testing.T, name string, ref *bbMachine) {
	t.Helper()
	mc, rc := m.c, ref.c
	if mc.Regs != rc.Regs || mc.Lo != rc.Lo {
		t.Errorf("registers diverge:\n %6s %v lo=%d\n    ref %v lo=%d", name, mc.Regs, mc.Lo, rc.Regs, rc.Lo)
	}
	if mc.Sur != rc.Sur || mc.Ret != rc.Ret {
		t.Errorf("status diverges: %s %s ret %v, ref %s ret %v", name, mc.Sur, mc.Ret, rc.Sur, rc.Ret)
	}
	if mq, rq := m.queue(), ref.queue(); mq != rq {
		t.Errorf("fetch queue diverges: %s %v, ref %v", name, mq, rq)
	}
	if mc.Stats != rc.Stats {
		t.Errorf("stats diverge:\n %6s %+v\n    ref %+v", name, mc.Stats, rc.Stats)
	}
	for a := uint32(0); a < bbMemTop; a++ {
		if mv, rv := mc.Bus.MMU.Phys.Peek(a), rc.Bus.MMU.Phys.Peek(a); mv != rv {
			t.Fatalf("memory[%d] diverges: %s %#x, ref %#x", a, name, mv, rv)
		}
	}
	if !slices.Equal(m.refs, ref.refs) {
		t.Errorf("memory hook diverges:\n %6s %v\n    ref %v", name, m.refs, ref.refs)
	}
	if !slices.Equal(m.audits, ref.audits) {
		t.Errorf("hazard audit diverges:\n %6s %v\n    ref %v", name, m.audits, ref.audits)
	}
	if m.timer != nil && m.timer.ticks != ref.timer.ticks {
		t.Errorf("timer ticks diverge: %s %d, ref %d", name, m.timer.ticks, ref.timer.ticks)
	}
}
