package trace

import (
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
)

// Observer binds a Tracer and/or a Profiler to one simulated machine by
// installing the cpu hook points. Either part may be nil; the hooks
// fan events out to whichever parts are present. Detaching restores the
// hook-free (zero-overhead) fast path.
type Observer struct {
	// Tracer, if non-nil, receives structured events.
	Tracer *Tracer
	// Profiler, if non-nil, accumulates cycle attribution.
	Profiler *Profiler

	c      *cpu.CPU
	pidFn  func() uint16
	curPID uint16

	// inKernel tracks whether execution is at exception level: set on
	// every exception entry, cleared on return from exception. The
	// profiler keeps kernel and user cycles in separate spaces because
	// their addresses overlap numerically.
	inKernel bool
}

// Attach installs the observer's hooks on a bare CPU. Any previously
// installed step/mem/branch/exception/rfe/stall hooks are replaced (the
// trap hook, which services monitor calls, is left alone).
func (o *Observer) Attach(c *cpu.CPU) {
	o.c = c
	c.SetStepHook(o.onStep)
	c.SetMemHook(o.onMem)
	c.SetBranchHook(o.onBranch)
	c.SetExcHook(o.onExc)
	c.SetRFEHook(o.onRFE)
	c.SetStallHook(o.onStall)
}

// AttachMachine installs the observer on a full kernel machine. Context
// switches are detected by polling the scheduler's current process on
// every exception return, so each event carries the PID of the process
// it belongs to (one Perfetto lane per process). The machine boots into
// the dispatch ROM, so execution starts at exception level.
func (o *Observer) AttachMachine(m *kernel.Machine) {
	o.Attach(m.CPU)
	o.pidFn = func() uint16 { return uint16(m.CurrentPID()) }
	o.inKernel = true
	if p := o.Profiler; p != nil {
		p.AddKernelImage(m.KernelImage())
	}
}

// Detach clears every hook the observer installed, restoring the
// zero-observer fast path.
func (o *Observer) Detach() {
	if o.c == nil {
		return
	}
	o.c.SetStepHook(nil)
	o.c.SetMemHook(nil)
	o.c.SetBranchHook(nil)
	o.c.SetExcHook(nil)
	o.c.SetRFEHook(nil)
	o.c.SetStallHook(nil)
	o.c = nil
}

func (o *Observer) cycle() uint64 { return o.c.Stats.Cycles }

func (o *Observer) onStep(pc uint32, in isa.Instr) {
	if t := o.Tracer; t != nil {
		t.retire(o.curPID, o.cycle(), pc, in)
	}
	if p := o.Profiler; p != nil {
		p.step(pc, in, o.inKernel)
	}
}

func (o *Observer) onMem(pc, addr uint32, store bool) {
	t := o.Tracer
	if t == nil {
		return
	}
	k := KindLoad
	if store {
		k = KindStore
	}
	t.Emit(Event{Kind: k, Cycle: o.cycle(), PID: o.curPID, PC: pc, Addr: addr})
}

func (o *Observer) onBranch(pc, target uint32, taken bool) {
	t := o.Tracer
	if t == nil || !taken {
		return
	}
	t.Emit(Event{Kind: KindBranch, Cycle: o.cycle(), PID: o.curPID, PC: pc, Addr: target, Arg: 1})
}

func (o *Observer) onExc(pc uint32, primary, secondary isa.Cause, trapCode uint16) {
	// The refill penalty interrupts the context that was running; charge
	// it there, then enter the kernel space.
	if p := o.Profiler; p != nil {
		p.exception(pc, o.inKernel)
	}
	o.inKernel = true
	t := o.Tracer
	if t == nil {
		return
	}
	cyc := o.cycle()
	t.Emit(Event{
		Kind: KindExcEnter, Cycle: cyc, PID: o.curPID, PC: pc,
		Arg: PackExcArg(uint8(primary), uint8(secondary), trapCode),
	})
	switch primary {
	case isa.CauseTrap:
		t.Emit(Event{Kind: KindSyscall, Cycle: cyc, PID: o.curPID, PC: pc, Arg: uint32(trapCode)})
	case isa.CausePageFault, isa.CauseSegFault:
		var addr uint32
		if f := o.c.Bus.LastFault; f != nil {
			addr = f.Addr
		}
		t.Emit(Event{Kind: KindPageFault, Cycle: cyc, PID: o.curPID, PC: pc, Addr: addr})
	}
}

func (o *Observer) onRFE(pc uint32) {
	o.inKernel = false
	if t := o.Tracer; t != nil {
		t.Emit(Event{Kind: KindExcExit, Cycle: o.cycle(), PID: o.curPID, PC: pc})
	}
	// The scheduler commits a context switch by returning into the new
	// process, so the exception return is the place to sample it.
	if o.pidFn != nil {
		if np := o.pidFn(); np != o.curPID {
			o.curPID = np
			if t := o.Tracer; t != nil {
				t.Emit(Event{Kind: KindSwitch, Cycle: o.cycle(), PID: np, PC: pc, Arg: uint32(np)})
			}
		}
	}
}

func (o *Observer) onStall(pc uint32) {
	if p := o.Profiler; p != nil {
		p.stall(pc, o.inKernel)
	}
}
