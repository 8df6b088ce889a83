package cpu

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

// regWrite is a register write staged during word execution. All writes
// are staged and applied only after the word's memory reference commits,
// implementing the restartability rule of §3.3: "requiring an
// instruction that calls for a memory reference to not allow register
// writes to take place until after the reference has been committed".
type regWrite struct {
	reg     isa.Reg
	val     uint32
	delayed bool // load result: visible only after the load delay
}

// maxStagedWrites bounds the register writes one instruction word can
// stage: at most one from the ALU slot and one from the memory/control
// slot, so the fixed staging array never spills to the heap.
const maxStagedWrites = 4

// stagePut stages one register write for commit at the end of the word.
func (c *CPU) stagePut(r isa.Reg, v uint32, delayed bool) {
	c.stage[c.nstage] = regWrite{reg: r, val: v, delayed: delayed}
	c.nstage++
}

// execWord executes one instruction word on the reference path: reads
// all sources, performs the memory reference, computes ALU results, then
// commits writes. A memory fault or enabled overflow suppresses every
// write and vectors through the exception sequence. It is the one
// per-instruction executor: Step and the translation tiers' general-word
// fallbacks run words through it. The tiers' specialized paths must stay
// observably identical to it; the differential tests enforce that.
func (c *CPU) execWord(in isa.Instr, pc uint32) {
	c.Stats.Instructions++
	c.Stats.Cycles++
	if in.IsNop() {
		c.Stats.Nops++
		c.Stats.FreeCycles++
		c.Bus.offerFree(&c.Stats)
		return
	}

	c.nstage = 0
	var loVal uint32
	hasLo := false
	overflow := false
	var memFault *mem.Fault
	var trapCode = -1

	// ALU-class piece: compute but do not write yet.
	if p := in.ALU; p != nil && !p.IsNop() {
		c.Stats.Pieces++
		switch p.Kind {
		case isa.PieceALU:
			v, lo, ovf := c.evalALU(p, pc)
			if ovf && c.Sur.OverflowEnabled() {
				overflow = true
			}
			if p.Op == isa.OpMovLo {
				loVal, hasLo = lo, true
			} else {
				c.stagePut(p.Dst, v, false)
			}
		case isa.PieceSetCond:
			a := c.operand(p.Src1, pc)
			b := c.operand(p.Src2, pc)
			var v uint32
			if p.Cmp.Eval(a, b) {
				v = 1
			}
			c.stagePut(p.Dst, v, false)
		}
	}

	// Memory/control piece.
	usedDataCycle := false
	if p := in.Mem; p != nil && !p.IsNop() {
		c.Stats.Pieces++
		switch p.Kind {
		case isa.PieceLoad:
			usedDataCycle = true
			if p.Mode == isa.AModeLongImm {
				// The long immediate comes from the instruction stream,
				// not the data port: no data cycle and no load delay.
				usedDataCycle = false
				c.stagePut(p.Data, uint32(p.Disp), false)
				break
			}
			addr := c.effectiveAddr(p, pc)
			v, f := c.Bus.Read(addr, c.Mapped())
			if f != nil {
				memFault = f
				break
			}
			c.Stats.Loads++
			if c.onMem != nil {
				c.onMem(pc, addr, false)
			}
			c.stagePut(p.Data, v, true)
		case isa.PieceStore:
			usedDataCycle = true
			addr := c.effectiveAddr(p, pc)
			val := c.readReg(p.Data, pc)
			if f := c.Bus.Write(addr, val, c.Mapped()); f != nil {
				memFault = f
				break
			}
			c.Stats.Stores++
			if c.onMem != nil {
				c.onMem(pc, addr, true)
			}
		case isa.PieceBranch:
			c.Stats.Branches++
			a := c.operand(p.Src1, pc)
			b := c.operand(p.Src2, pc)
			taken := p.Cmp.Eval(a, b)
			if taken {
				c.Stats.TakenBranches++
				c.scheduleBranch(uint32(p.Target), isa.BranchDelay)
			}
			if c.onBranch != nil {
				c.onBranch(pc, uint32(p.Target), taken)
			}
		case isa.PieceJump:
			c.Stats.Branches++
			c.Stats.TakenBranches++
			c.scheduleBranch(uint32(p.Target), isa.BranchDelay)
			if c.onBranch != nil {
				c.onBranch(pc, uint32(p.Target), true)
			}
		case isa.PieceCall:
			c.Stats.Branches++
			c.Stats.TakenBranches++
			// The link value is the address the subroutine returns to:
			// past the call and its delay slot.
			c.stagePut(p.Dst, pc+1+isa.BranchDelay, false)
			c.scheduleBranch(uint32(p.Target), isa.BranchDelay)
			if c.onBranch != nil {
				c.onBranch(pc, uint32(p.Target), true)
			}
		case isa.PieceJumpInd:
			c.Stats.Branches++
			c.Stats.TakenBranches++
			target := c.operand(p.Src1, pc)
			c.scheduleBranch(target, isa.IndirectJumpDelay)
			if c.onBranch != nil {
				c.onBranch(pc, target, true)
			}
		case isa.PieceTrap:
			trapCode = int(p.TrapCode)
		case isa.PieceSpecial:
			c.execSpecial(p)
		}
	}

	c.finishWord(pc, usedDataCycle, overflow, memFault, trapCode, loVal, hasLo)
}

// finishWord is the tail of word execution: data-slot accounting, the
// exception priority rule, the staged-write commit, and software-trap
// entry.
func (c *CPU) finishWord(pc uint32, usedDataCycle, overflow bool, memFault *mem.Fault, trapCode int, loVal uint32, hasLo bool) {
	// Account the data-memory slot.
	if usedDataCycle {
		c.Stats.DataCycles++
	} else {
		c.Stats.FreeCycles++
		c.Bus.offerFree(&c.Stats)
	}

	// Exception priority within one word: the ALU piece is logically
	// first (paper §3.3 orders an overflow ahead of a younger mapping
	// error), so overflow is the primary cause with any memory fault
	// secondary. Either suppresses all writes.
	if overflow || memFault != nil {
		primary, secondary := isa.CauseNone, isa.CauseNone
		switch {
		case overflow && memFault != nil:
			primary, secondary = isa.CauseOverflow, memFault.Cause
		case overflow:
			primary = isa.CauseOverflow
		default:
			primary = memFault.Cause
		}
		// The word did not complete: put it back at the head of the
		// fetch queue so it is return address zero and restarts.
		c.pushPC(pc)
		c.exception(primary, secondary, 0)
		return
	}

	// Commit.
	for i := 0; i < c.nstage; i++ {
		w := &c.stage[i]
		if w.delayed {
			c.writeLoad(w.reg, w.val)
		} else {
			c.writeReg(w.reg, w.val)
		}
	}
	if hasLo {
		c.Lo = loVal
	}

	// A software trap completes before the exception is taken, so the
	// saved return addresses resume after it.
	if trapCode >= 0 {
		// The hook observes the register file as the monitor routine
		// would — after the exception's pipeline drain.
		c.flushPending()
		if c.onTrap != nil {
			c.onTrap(uint16(trapCode))
			if c.Halted {
				// The hook stopped the machine (a halt monitor call);
				// no exception is taken and the saved state stands.
				return
			}
		}
		c.exception(isa.CauseTrap, isa.CauseNone, uint16(trapCode))
	}
}

// offerFree hands the free data cycle to the DMA engine and accounts it.
func (b *Bus) offerFree(s *Stats) {
	if b.OfferFreeCycle() {
		s.DMACycles++
	}
}

// evalALU computes an ALU piece on the reference path: it reads the
// operands in architectural order and defers the arithmetic to aluEval.
func (c *CPU) evalALU(p *isa.Piece, pc uint32) (val, lo uint32, overflow bool) {
	a := c.operand(p.Src1, pc)
	var b uint32
	if !p.Op.Unary() {
		b = c.operand(p.Src2, pc)
	}
	var dstVal uint32
	if p.Op == isa.OpMStep || p.Op == isa.OpDStep {
		dstVal = c.readReg(p.Dst, pc)
	}
	return aluEval(p.Op, a, b, dstVal, c.Lo)
}

// aluEval is the pure ALU core shared by execWord and the translation
// tiers: given the already-read operand values (a, b), the destination's
// current value (multiply/divide steps only), and the byte selector, it
// returns the result, the new byte-selector value for movlo, and whether
// signed overflow occurred.
func aluEval(op isa.ALUOp, a, b, dstVal, lo uint32) (val, loOut uint32, overflow bool) {
	switch op {
	case isa.OpAdd:
		val = a + b
		overflow = addOverflows(a, b, val)
	case isa.OpSub:
		val = a - b
		overflow = subOverflows(a, b, val)
	case isa.OpRSub:
		val = b - a
		overflow = subOverflows(b, a, val)
	case isa.OpAnd:
		val = a & b
	case isa.OpOr:
		val = a | b
	case isa.OpXor:
		val = a ^ b
	case isa.OpBic:
		val = a &^ b
	case isa.OpSll:
		val = shiftL(a, b)
	case isa.OpSrl:
		val = shiftR(a, b)
	case isa.OpSra:
		val = shiftRA(a, b)
	case isa.OpRSll:
		val = shiftL(b, a)
	case isa.OpRSrl:
		val = shiftR(b, a)
	case isa.OpRSra:
		val = shiftRA(b, a)
	case isa.OpMov:
		val = a
	case isa.OpNot:
		val = ^a
	case isa.OpNeg:
		val = -a
		overflow = a == 1<<31 // negating the minimum integer overflows
	case isa.OpXC:
		// Extract byte: the low two bits of the byte pointer select the
		// byte; byte 0 is the most significant (text reads left to right).
		val = ExtractByte(b, a)
	case isa.OpIC:
		// Insert byte: replace byte (lo mod 4) of the word with the low
		// byte of the source.
		val = InsertByte(b, lo, a)
	case isa.OpMovLo:
		loOut = a
	case isa.OpMStep:
		// Multiply step: conditionally accumulate. dst += s1 when the low
		// bit of s2 is set; the shift-and-add multiply loop is built from
		// this plus plain shifts.
		val = dstVal
		if b&1 != 0 {
			val += a
		}
	case isa.OpDStep:
		// Divide step: shift the accumulator left, inserting the top bit
		// of s2.
		val = dstVal<<1 | b>>31
	}
	return val, loOut, overflow
}

// execSpecial executes a special-register piece. Privilege was already
// checked at decode.
func (c *CPU) execSpecial(p *isa.Piece) {
	reg := p.SpecReg
	switch p.SpecOp {
	case isa.SpecRead:
		var v uint32
		switch reg {
		case isa.SpecLo:
			v = c.Lo
		case isa.SpecSurprise:
			v = uint32(c.Sur)
		case isa.SpecSegBase:
			v, _ = c.Bus.MMU.Seg.Registers()
		case isa.SpecSegLimit:
			_, v = c.Bus.MMU.Seg.Registers()
		case isa.SpecRet0:
			v = c.Ret[0]
		case isa.SpecRet1:
			v = c.Ret[1]
		case isa.SpecRet2:
			v = c.Ret[2]
		}
		c.stagePut(p.Dst, v, false)
	case isa.SpecWrite:
		v := c.Regs[p.Src1.Reg]
		switch reg {
		case isa.SpecLo:
			c.Lo = v
		case isa.SpecSurprise:
			c.Sur = isa.Surprise(v)
		case isa.SpecSegBase:
			_, limit := c.Bus.MMU.Seg.Registers()
			c.Bus.MMU.Seg = mem.SetRegisters(v, limit)
		case isa.SpecSegLimit:
			base, _ := c.Bus.MMU.Seg.Registers()
			c.Bus.MMU.Seg = mem.SetRegisters(base, v)
		case isa.SpecRet0:
			c.Ret[0] = v
		case isa.SpecRet1:
			c.Ret[1] = v
		case isa.SpecRet2:
			c.Ret[2] = v
		}
	case isa.SpecRFE:
		// Return from exception: restore the previous privilege level and
		// resume at the three saved return addresses — the offending
		// instruction, its successor, then the pending branch target.
		c.Sur = c.Sur.Leave()
		c.setPCQueue(c.Ret[0], c.Ret[1], c.Ret[2])
		if c.onRFE != nil {
			c.onRFE(c.Ret[0])
		}
	}
}

// effectiveAddr computes a load/store address.
func (c *CPU) effectiveAddr(p *isa.Piece, pc uint32) uint32 {
	switch p.Mode {
	case isa.AModeAbs:
		return uint32(p.Disp)
	case isa.AModeDisp:
		return c.readReg(p.Base, pc) + uint32(p.Disp)
	case isa.AModeIndex:
		return c.readReg(p.Base, pc) + c.readReg(p.Index, pc)
	case isa.AModeShift:
		return c.readReg(p.Base, pc) + c.readReg(p.Index, pc)>>p.Shift
	}
	return 0
}

func shiftL(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v << by
}

func shiftR(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v >> by
}

func shiftRA(v, by uint32) uint32 {
	if by >= 32 {
		by = 31
	}
	return uint32(int32(v) >> by)
}

func addOverflows(a, b, sum uint32) bool {
	return (a^b)&(1<<31) == 0 && (a^sum)&(1<<31) != 0
}

func subOverflows(a, b, diff uint32) bool {
	return (a^b)&(1<<31) != 0 && (a^diff)&(1<<31) != 0
}

// ExtractByte returns byte (ptr mod 4) of the word, zero extended. Byte
// zero is the most significant byte.
func ExtractByte(word, ptr uint32) uint32 {
	sel := ptr & 3
	return word >> (8 * (3 - sel)) & 0xFF
}

// InsertByte returns the word with byte (sel mod 4) replaced by the low
// byte of src.
func InsertByte(word, sel, src uint32) uint32 {
	s := sel & 3
	shift := 8 * (3 - s)
	return word&^(0xFF<<shift) | (src&0xFF)<<shift
}
