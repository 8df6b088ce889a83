package cpu

// The predecode cache: the simulator's own application of the paper's
// thesis that work belongs out of the dynamic hot path. The reference
// engine re-examines an instruction word's pieces — two pointer
// indirections, a kind switch, operand unwrapping, privilege and nop
// classification — on every execution. The fast path does all of that
// once per (physical address, word) pair and stores the result as a
// flat executable record in a direct-mapped cache; steady-state
// execution then runs over contiguous flat records with no pointer
// chasing and no heap allocation.
//
// Correctness with a mutable instruction store is by identity check,
// not by write hooks: every fetch compares the cached record's source
// word against the live IMem slot (isa.Instr is two piece pointers, so
// the comparison is two loads). Any path that changes instruction
// memory — LoadImage reuse, a harness writing c.IMem[pc] directly, the
// kernel's paging disk recycling a frame for a different process's code
// page — changes the slot's piece pointers and misses the cache, which
// re-decodes. LoadImage additionally drops the whole cache so records
// for a discarded image do not linger.

import (
	"mips/internal/isa"
	"mips/internal/mem"
)

const (
	// pdMinEntries is the predecode cache size allocated on the first
	// fast-path fetch; the cache grows on demand up to pdMaxEntries and
	// is then direct-mapped over the low address bits. Both are powers
	// of two.
	pdMinEntries = 1 << 8
	pdMaxEntries = 1 << 15
)

// decoded flags.
const (
	fNop  uint8 = 1 << iota // the word performs no work
	fPriv                   // some piece requires supervisor privilege
	// fEager marks a block-body load whose delayed commit is
	// statically unobservable (the next word neither reads the
	// destination nor can stop the machine), so the block engine
	// writes the register immediately. Set only on block-private
	// records, never in the predecode cache.
	fEager
)

// fastOp is a predecoded operand: either an immediate value, already
// widened, or a register number.
type fastOp struct {
	imm bool
	reg isa.Reg
	val uint32
}

func mkFastOp(o isa.Operand) fastOp {
	if o.IsImm {
		return fastOp{imm: true, val: uint32(o.Imm)}
	}
	return fastOp{reg: o.Reg}
}

// fastOperand reads a predecoded operand with the same architectural
// side effects (hazard audit, interlock stalls) as operand.
func (c *CPU) fastOperand(o fastOp, pc uint32) uint32 {
	if o.imm {
		return o.val
	}
	return c.readReg(o.reg, pc)
}

// decoded is the flat executable record of one instruction word. pa and
// src identify the word it was decoded from; the rest is everything
// execution needs, laid out without indirection.
type decoded struct {
	pa  uint32
	src isa.Instr

	flags uint8
	// bclass is the lean execution class the superblock engine assigns
	// at block translation (blockcache.go); predecode-cache records
	// leave it at bcGeneral, which is always safe.
	bclass uint8
	// nopRun is the length of the consecutive nop run starting at this
	// word, set only on block-body records: the block engine retires a
	// whole run with bulk accounting when nothing can observe the
	// intermediate cycles.
	nopRun uint8

	// ALU slot (PieceALU or PieceSetCond); PieceNop when absent.
	aluKind    isa.PieceKind
	aluOp      isa.ALUOp
	aluUnary   bool
	aluDstRead bool // multiply/divide steps read the destination
	aluDst     isa.Reg
	aluCmp     isa.Cmp
	a1, a2     fastOp

	// Memory/control slot; PieceNop when absent.
	memKind  isa.PieceKind
	mode     isa.AddrMode
	memCmp   isa.Cmp
	data     isa.Reg
	base     isa.Reg
	index    isa.Reg
	shift    uint8
	linkDst  isa.Reg
	specOp   isa.SpecialOp
	specReg  isa.SpecialReg
	trapCode uint16
	disp     int32
	target   uint32
	m1, m2   fastOp
}

// decodeWord fills d with the flat record for the word in at physical
// address pa. It mirrors exactly what execWord reads from the pieces.
func decodeWord(d *decoded, pa uint32, in isa.Instr) {
	*d = decoded{pa: pa, src: in, aluKind: isa.PieceNop, memKind: isa.PieceNop}
	if in.IsNop() {
		d.flags |= fNop
	}
	if p := in.ALU; p != nil {
		if p.Privileged() {
			d.flags |= fPriv
		}
		if !p.IsNop() {
			d.aluKind = p.Kind
			d.aluOp = p.Op
			d.aluUnary = p.Op.Unary()
			d.aluDstRead = p.Op == isa.OpMStep || p.Op == isa.OpDStep
			d.aluDst = p.Dst
			d.aluCmp = p.Cmp
			d.a1 = mkFastOp(p.Src1)
			d.a2 = mkFastOp(p.Src2)
		}
	}
	if p := in.Mem; p != nil {
		if p.Privileged() {
			d.flags |= fPriv
		}
		if !p.IsNop() {
			d.memKind = p.Kind
			d.mode = p.Mode
			d.memCmp = p.Cmp
			d.data = p.Data
			d.base = p.Base
			d.index = p.Index
			d.shift = p.Shift
			d.linkDst = p.Dst
			d.specOp = p.SpecOp
			d.specReg = p.SpecReg
			d.trapCode = p.TrapCode
			d.disp = p.Disp
			d.target = uint32(p.Target)
			d.m1 = mkFastOp(p.Src1)
			d.m2 = mkFastOp(p.Src2)
		}
	}
}

// InvalidateDecoded drops the predecode cache; the next fast-path fetch
// allocates a fresh one. Fetch validation (comparing the cached source
// word against live instruction memory) already keeps the cache
// coherent; this exists so whole-image reloads release records eagerly
// instead of aging them out slot by slot.
func (c *CPU) InvalidateDecoded() { c.pd = nil }

// pdSlot returns the cache slot for a physical address, growing the
// direct-mapped cache (up to pdMaxEntries) when the program's footprint
// exceeds it, so small programs keep a small cache and large ones avoid
// conflict misses. Mapped fetches (grow false) never grow it: their page
// frames may lie anywhere in physical memory, so covering one would size
// the cache by the machine's memory — megabytes cleared for a kernel
// machine's first user fetch — rather than by the code it runs. They
// share the cache, direct-mapped, as it stands.
func (c *CPU) pdSlot(pa uint32, grow bool) *decoded {
	if pa >= uint32(len(c.pd)) && len(c.pd) < pdMaxEntries && (grow || c.pd == nil) {
		size := max(len(c.pd), pdMinEntries)
		for grow && size < pdMaxEntries && uint32(size) <= pa {
			size *= 2
		}
		c.pd = make([]decoded, size)
		c.pdMask = uint32(size - 1)
	}
	return &c.pd[pa&c.pdMask]
}

// fetchFast translates the PC and returns the predecoded record for the
// instruction there, decoding on a miss. Fault behavior is identical to
// fetch.
func (c *CPU) fetchFast(pc uint32) (*decoded, *mem.Fault) {
	pa := pc
	mapped := c.Mapped()
	if mapped {
		var f *mem.Fault
		pa, f = c.Bus.MMU.Translate(pc, false, true)
		if f != nil {
			return nil, f
		}
	}
	if pa >= uint32(len(c.IMem)) {
		return nil, &mem.Fault{Cause: isa.CausePageFault, Addr: pa}
	}
	in := c.IMem[pa]
	if in.ALU == nil && in.Mem == nil {
		// Unprogrammed instruction memory decodes as illegal.
		return nil, &mem.Fault{Cause: isa.CauseIllegal, Addr: pa}
	}
	d := c.pdSlot(pa, !mapped)
	if d.pa != pa || d.src != in {
		// A populated slot bound to a different physical address is a
		// direct-mapped collision: the aliasing case the d.pa binding
		// exists to keep from cross-validating.
		if d.pa != pa && (d.src.ALU != nil || d.src.Mem != nil) {
			c.Trans.PredecodeCollisions++
		}
		c.Trans.PredecodeMisses++
		decodeWord(d, pa, in)
	} else {
		c.Trans.PredecodeHits++
	}
	return d, nil
}

// stepFast is the fast-path body of Step after the common preamble:
// fetch through the predecode cache, then execute the flat record.
func (c *CPU) stepFast(pc uint32) {
	d, fault := c.fetchFast(pc)
	if fault != nil {
		c.Bus.LastFault = fault
		c.exception(fault.Cause, isa.CauseNone, 0)
		return
	}

	// Privilege is enforced at decode, here predecoded into a flag.
	if d.flags&fPriv != 0 && !c.Sur.Supervisor() {
		c.exception(isa.CausePrivilege, isa.CauseNone, 0)
		return
	}

	c.popPC()
	if c.onStep != nil {
		c.onStep(pc, d.src)
	}
	c.execFast(d, pc)
	c.Bus.Tick()
}

// fastAddr computes a load/store effective address from a flat record,
// reading registers in the same order as effectiveAddr.
func (c *CPU) fastAddr(d *decoded, pc uint32) uint32 {
	switch d.mode {
	case isa.AModeAbs:
		return uint32(d.disp)
	case isa.AModeDisp:
		return c.readReg(d.base, pc) + uint32(d.disp)
	case isa.AModeIndex:
		return c.readReg(d.base, pc) + c.readReg(d.index, pc)
	case isa.AModeShift:
		return c.readReg(d.base, pc) + c.readReg(d.index, pc)>>d.shift
	}
	return 0
}

// execFast executes one predecoded instruction word. It is the flat
// mirror of execWord: same read order, same statistics, same hook
// firings, same fault behavior, ending in the shared finishWord tail.
func (c *CPU) execFast(d *decoded, pc uint32) {
	c.Stats.Instructions++
	c.Stats.Cycles++
	if d.flags&fNop != 0 {
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
	trapCode := -1

	// ALU-class piece: compute but do not write yet.
	switch d.aluKind {
	case isa.PieceALU:
		c.Stats.Pieces++
		a := c.fastOperand(d.a1, pc)
		var b uint32
		if !d.aluUnary {
			b = c.fastOperand(d.a2, pc)
		}
		var dstVal uint32
		if d.aluDstRead {
			dstVal = c.readReg(d.aluDst, pc)
		}
		v, lo, ovf := aluEval(d.aluOp, a, b, dstVal, c.Lo)
		if ovf && c.Sur.OverflowEnabled() {
			overflow = true
		}
		if d.aluOp == isa.OpMovLo {
			loVal, hasLo = lo, true
		} else {
			c.stagePut(d.aluDst, v, false)
		}
	case isa.PieceSetCond:
		c.Stats.Pieces++
		a := c.fastOperand(d.a1, pc)
		b := c.fastOperand(d.a2, pc)
		var v uint32
		if d.aluCmp.Eval(a, b) {
			v = 1
		}
		c.stagePut(d.aluDst, v, false)
	}

	// Memory/control piece.
	usedDataCycle := false
	switch d.memKind {
	case isa.PieceNop:
	case isa.PieceLoad:
		c.Stats.Pieces++
		usedDataCycle = true
		if d.mode == isa.AModeLongImm {
			// The long immediate comes from the instruction stream,
			// not the data port: no data cycle and no load delay.
			usedDataCycle = false
			c.stagePut(d.data, uint32(d.disp), false)
			break
		}
		addr := c.fastAddr(d, pc)
		v, f := c.Bus.Read(addr, c.Mapped())
		if f != nil {
			memFault = f
			break
		}
		c.Stats.Loads++
		if c.onMem != nil {
			c.onMem(pc, addr, false)
		}
		c.stagePut(d.data, v, true)
	case isa.PieceStore:
		c.Stats.Pieces++
		usedDataCycle = true
		addr := c.fastAddr(d, pc)
		val := c.readReg(d.data, pc)
		if f := c.Bus.Write(addr, val, c.Mapped()); f != nil {
			memFault = f
			break
		}
		c.Stats.Stores++
		if c.onMem != nil {
			c.onMem(pc, addr, true)
		}
	case isa.PieceBranch:
		c.Stats.Pieces++
		c.Stats.Branches++
		a := c.fastOperand(d.m1, pc)
		b := c.fastOperand(d.m2, pc)
		taken := d.memCmp.Eval(a, b)
		if taken {
			c.Stats.TakenBranches++
			c.scheduleBranch(d.target, isa.BranchDelay)
		}
		if c.onBranch != nil {
			c.onBranch(pc, d.target, taken)
		}
	case isa.PieceJump:
		c.Stats.Pieces++
		c.Stats.Branches++
		c.Stats.TakenBranches++
		c.scheduleBranch(d.target, isa.BranchDelay)
		if c.onBranch != nil {
			c.onBranch(pc, d.target, true)
		}
	case isa.PieceCall:
		c.Stats.Pieces++
		c.Stats.Branches++
		c.Stats.TakenBranches++
		// The link value is the address the subroutine returns to:
		// past the call and its delay slot.
		c.stagePut(d.linkDst, pc+1+isa.BranchDelay, false)
		c.scheduleBranch(d.target, isa.BranchDelay)
		if c.onBranch != nil {
			c.onBranch(pc, d.target, true)
		}
	case isa.PieceJumpInd:
		c.Stats.Pieces++
		c.Stats.Branches++
		c.Stats.TakenBranches++
		target := c.fastOperand(d.m1, pc)
		c.scheduleBranch(target, isa.IndirectJumpDelay)
		if c.onBranch != nil {
			c.onBranch(pc, target, true)
		}
	case isa.PieceTrap:
		c.Stats.Pieces++
		trapCode = int(d.trapCode)
	case isa.PieceSpecial:
		c.Stats.Pieces++
		c.doSpecial(d.specOp, d.specReg, d.linkDst, d.m1.reg)
	}

	c.finishWord(pc, usedDataCycle, overflow, memFault, trapCode, loVal, hasLo)
}
