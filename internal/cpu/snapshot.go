package cpu

import (
	"fmt"

	"mips/internal/isa"
	"mips/internal/mem"
)

// State is the complete architectural state of the processor at an
// instruction boundary: everything a restored CPU needs to continue the
// exact event stream of the original. The translation caches
// (superblocks, traces, and the staging area) are deliberately
// absent — they are derived state, rebuilt on demand, and dropping them
// cannot change observable behavior. So are the counters that describe
// them (Trans).
type State struct {
	Regs [isa.NumRegs]uint32
	Lo   uint32
	Sur  isa.Surprise
	Ret  [3]uint32

	// PCQ/PCN are the fetch queue: in-flight delayed-branch targets.
	PCQ [pcqCap]uint32
	PCN int

	// Pend holds load results not yet visible in the register file.
	Pend []PendingLoad

	Seq       uint64
	ExcSeq    uint64
	LastWrite [isa.NumRegs]uint64

	IntLine     bool
	Halted      bool
	Interlocked bool

	Stats Stats

	// IMemLen is instruction memory's length in words, and IMem its
	// code: the maximal runs of non-empty words, in address order. Every
	// word below IMemLen outside the runs is empty.
	IMemLen uint32
	IMem    []CodeRun
	// LastFault is the external mapping unit's fault latch.
	LastFault *mem.Fault
}

// PendingLoad is one in-flight delayed load write.
type PendingLoad struct {
	Reg      isa.Reg
	Val      uint32
	IssuedAt uint64
	CommitAt uint64
}

// CaptureState snapshots the processor's architectural state. It must
// be called at an instruction boundary (between Step calls); the
// returned State shares nothing with the CPU.
func (c *CPU) CaptureState() State {
	st := State{
		Regs:        c.Regs,
		Lo:          c.Lo,
		Sur:         c.Sur,
		Ret:         c.Ret,
		PCQ:         c.pcq,
		PCN:         c.pcn,
		Seq:         c.seq,
		ExcSeq:      c.excSeq,
		LastWrite:   c.lastWrite,
		IntLine:     c.intLine,
		Halted:      c.Halted,
		Interlocked: c.Interlocked,
		Stats:       c.Stats,
	}
	for i := 0; i < c.pendN; i++ {
		w := c.pend[i]
		st.Pend = append(st.Pend, PendingLoad{
			Reg: w.reg, Val: w.val, IssuedAt: w.issuedAt, CommitAt: w.commitAt,
		})
	}
	st.IMemLen, st.IMem = c.IMem.n, c.IMem.capture()
	if f := c.Bus.LastFault; f != nil {
		fc := *f
		st.LastFault = &fc
	}
	return st
}

// RestoreState replaces the processor's architectural state with a
// previous capture. The machine moves to a new golden code built from
// the capture's instruction memory (GoldenCodeFromState), which holds
// storage only for the pages that hold code, and loads it as
// RestoreFork does.
func (c *CPU) RestoreState(st State) error {
	if err := st.ValidateIMem(); err != nil {
		return fmt.Errorf("cpu: restore: %w", err)
	}
	return c.RestoreFork(&st, GoldenCodeFromState(&st))
}

// RestoreFork replaces the processor's architectural state with a
// previous capture, loading code (LoadCode), which must be the golden
// image of st's instruction memory (GoldenCodeFromState); st.IMem
// itself is not read, and st is only read. The translated blocks and
// traces are dropped, and the machine adopts what other machines on
// code published, so the restored machine produces the exact event
// stream the original would have. The translation-layer counters
// (Trans) restart from zero with the caches they describe.
func (c *CPU) RestoreFork(st *State, code *GoldenCode) error {
	if st.PCN < 1 || st.PCN > pcqCap {
		return fmt.Errorf("cpu: restore: fetch queue depth %d out of range", st.PCN)
	}
	if len(st.Pend) > len(c.pend) {
		return fmt.Errorf("cpu: restore: %d pending loads exceed capacity %d", len(st.Pend), len(c.pend))
	}
	c.Regs = st.Regs
	c.Lo = st.Lo
	c.Sur = st.Sur
	c.Ret = st.Ret
	c.pcq = st.PCQ
	c.pcn = st.PCN
	c.pendN = len(st.Pend)
	for i, w := range st.Pend {
		c.pend[i] = delayedWrite{reg: w.Reg, val: w.Val, issuedAt: w.IssuedAt, commitAt: w.CommitAt}
	}
	c.seq = st.Seq
	c.excSeq = st.ExcSeq
	c.lastWrite = st.LastWrite
	c.intLine = st.IntLine
	c.Halted = st.Halted
	c.Interlocked = st.Interlocked
	c.Stats = st.Stats
	c.nstage = 0
	c.Bus.LastFault = nil
	if st.LastFault != nil {
		fc := *st.LastFault
		c.Bus.LastFault = &fc
	}
	c.LoadCode(code)
	c.Trans = TranslationStats{}
	return nil
}
