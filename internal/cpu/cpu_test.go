package cpu

import (
	"testing"

	"mips/internal/isa"
	"mips/internal/mem"
)

// newTestCPU builds a CPU with 64K words of physical memory and a halt
// hook on trap 0.
func newTestCPU(words ...isa.Instr) *CPU {
	phys := mem.NewPhysical(1 << 16)
	c := New(NewBus(phys))
	c.IMem.Write(0, words)
	c.SetTrapHook(func(code uint16) {
		if code == 0 {
			c.Halt()
		}
	})
	return c
}

// run executes until halt or failure.
func run(t *testing.T, c *CPU, max uint64) {
	t.Helper()
	if _, err := c.Run(max); err != nil {
		t.Fatalf("run: %v (pc=%d, sur=%s)", err, c.PC(), c.Sur)
	}
}

func w(p isa.Piece) isa.Instr { return isa.Word(p) }

var halt = w(isa.Trap(0))

func TestALUArithmetic(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(10))),
		w(isa.Mov(2, isa.Imm(3))),
		w(isa.ALU(isa.OpAdd, 3, isa.R(1), isa.R(2))),   // 13
		w(isa.ALU(isa.OpSub, 4, isa.R(1), isa.R(2))),   // 7
		w(isa.ALU(isa.OpRSub, 5, isa.R(2), isa.R(1))),  // 10-3 = 7
		w(isa.ALU(isa.OpSll, 6, isa.R(1), isa.Imm(2))), // 40
		w(isa.ALU(isa.OpXor, 7, isa.R(1), isa.R(2))),   // 9
		halt,
	)
	run(t, c, 100)
	want := map[isa.Reg]uint32{3: 13, 4: 7, 5: 7, 6: 40, 7: 9}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestReverseOperatorsGiveNegativeConstants(t *testing.T) {
	// rsub #5, r1 computes 5 - r1; with r1 = 3 the result is 2, and
	// sub r1, #5 gives -2 — the two ways the ISA expresses ±small
	// constants without a sign bit (paper §2.2).
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(3))),
		w(isa.ALU(isa.OpRSub, 2, isa.Imm(5), isa.R(1))), // r1 - 5 = -2
		w(isa.ALU(isa.OpSub, 3, isa.R(1), isa.Imm(5))),  // r1 - 5 = -2
		halt,
	)
	run(t, c, 100)
	if int32(c.Regs[2]) != -2 || int32(c.Regs[3]) != -2 {
		t.Errorf("r2 = %d, r3 = %d, want -2, -2", int32(c.Regs[2]), int32(c.Regs[3]))
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c := newTestCPU(
		w(isa.LoadImm32(1, 0x1234)),
		w(isa.Mov(2, isa.Imm(100))),
		w(isa.StoreDisp(1, 2, 5)), // mem[105] = r1
		w(isa.LoadDisp(3, 2, 5)),  // r3 = mem[105]
		w(isa.Nop()),              // load delay
		w(isa.Mov(4, isa.R(3))),
		halt,
	)
	run(t, c, 100)
	if c.Regs[4] != 0x1234 {
		t.Errorf("r4 = %#x, want 0x1234", c.Regs[4])
	}
	if c.Stats.Loads != 1 || c.Stats.Stores != 1 {
		t.Errorf("loads/stores = %d/%d", c.Stats.Loads, c.Stats.Stores)
	}
}

func TestLoadDelayExposesStaleValue(t *testing.T) {
	// With no interlocks, the instruction right after a load reads the
	// register's OLD value; one instruction later the new value appears.
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(7))),  // r1 = 7 (stale value)
		w(isa.Mov(2, isa.Imm(50))), // address base
		w(isa.LoadImm32(3, 99)),
		w(isa.Nop()),
		w(isa.StoreDisp(3, 2, 0)), // mem[50] = 99
		w(isa.LoadDisp(1, 2, 0)),  // r1 <- 99, delayed
		w(isa.Mov(4, isa.R(1))),   // delay slot: sees 7
		w(isa.Mov(5, isa.R(1))),   // sees 99
		halt,
	)
	run(t, c, 100)
	if c.Regs[4] != 7 {
		t.Errorf("r4 = %d, want stale 7", c.Regs[4])
	}
	if c.Regs[5] != 99 {
		t.Errorf("r5 = %d, want fresh 99", c.Regs[5])
	}
}

func TestHazardAuditorFlagsLoadUse(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(2, isa.Imm(50))),
		w(isa.LoadDisp(1, 2, 0)),
		w(isa.Mov(4, isa.R(1))), // violation: r1 not yet committed
		halt,
	)
	var hazards []Hazard
	c.SetAudit(func(h Hazard) { hazards = append(hazards, h) })
	run(t, c, 100)
	if len(hazards) != 1 {
		t.Fatalf("hazards = %v, want exactly 1", hazards)
	}
	if hazards[0].Reg != 1 || hazards[0].PC != 2 {
		t.Errorf("hazard = %+v", hazards[0])
	}
	if hazards[0].String() == "" {
		t.Error("empty hazard description")
	}
}

func TestLoadCommitDoesNotClobberYoungerWrite(t *testing.T) {
	// A load followed immediately by an ALU write of the same register:
	// the ALU write is architecturally later and must win.
	c := newTestCPU(
		w(isa.Mov(2, isa.Imm(50))),
		w(isa.LoadDisp(1, 2, 0)),   // r1 <- mem[50] (0), delayed
		w(isa.Mov(1, isa.Imm(42))), // younger write
		w(isa.Nop()),
		w(isa.Mov(3, isa.R(1))),
		halt,
	)
	run(t, c, 100)
	if c.Regs[3] != 42 {
		t.Errorf("r3 = %d, want 42 (younger ALU write must win)", c.Regs[3])
	}
}

func TestBranchDelaySlot(t *testing.T) {
	// Taken branch: the next instruction still executes.
	br := isa.Branch(isa.CmpAlw, isa.R(0), isa.R(0), "")
	br.Target = 4
	c := newTestCPU(
		w(br),                      // 0: branch to 4
		w(isa.Mov(1, isa.Imm(11))), // 1: delay slot — executes
		w(isa.Mov(2, isa.Imm(22))), // 2: skipped
		w(isa.Mov(3, isa.Imm(33))), // 3: skipped
		w(isa.Mov(4, isa.Imm(44))), // 4: target
		halt,
	)
	run(t, c, 100)
	if c.Regs[1] != 11 {
		t.Error("delay slot did not execute")
	}
	if c.Regs[2] != 0 || c.Regs[3] != 0 {
		t.Error("skipped instructions executed")
	}
	if c.Regs[4] != 44 {
		t.Error("branch target did not execute")
	}
	if c.Stats.TakenBranches != 1 {
		t.Errorf("taken branches = %d", c.Stats.TakenBranches)
	}
}

func TestUntakenBranchFallsThrough(t *testing.T) {
	br := isa.Branch(isa.CmpNev, isa.R(0), isa.R(0), "")
	br.Target = 3
	c := newTestCPU(
		w(br),
		w(isa.Mov(1, isa.Imm(1))),
		w(isa.Mov(2, isa.Imm(2))),
		halt,
	)
	run(t, c, 100)
	if c.Regs[1] != 1 || c.Regs[2] != 2 {
		t.Error("fall-through path wrong")
	}
	if c.Stats.TakenBranches != 0 || c.Stats.Branches != 1 {
		t.Errorf("branch stats = %d/%d", c.Stats.TakenBranches, c.Stats.Branches)
	}
}

func TestIndirectJumpTwoDelaySlots(t *testing.T) {
	c := newTestCPU(
		w(isa.LoadImm32(15, 6)),    // 0: target address
		w(isa.Nop()),               // 1: load delay
		w(isa.JumpInd(15)),         // 2: jump r15, delay 2
		w(isa.Mov(1, isa.Imm(11))), // 3: delay slot 1 — executes
		w(isa.Mov(2, isa.Imm(22))), // 4: delay slot 2 — executes
		w(isa.Mov(3, isa.Imm(33))), // 5: skipped
		w(isa.Mov(4, isa.Imm(44))), // 6: target
		halt,
	)
	run(t, c, 100)
	if c.Regs[1] != 11 || c.Regs[2] != 22 {
		t.Error("indirect jump delay slots did not execute")
	}
	if c.Regs[3] != 0 {
		t.Error("instruction after delay slots executed")
	}
	if c.Regs[4] != 44 {
		t.Error("indirect target did not execute")
	}
}

func TestCallLinksPastDelaySlot(t *testing.T) {
	call := isa.Call("", isa.RegLink)
	call.Target = 5
	c := newTestCPU(
		w(isa.Nop()),                // 0
		w(call),                     // 1: call 5, link = 3
		w(isa.Mov(1, isa.Imm(11))),  // 2: delay slot
		w(isa.Mov(2, isa.Imm(22))),  // 3: return lands here
		halt,                        // 4
		w(isa.Mov(3, isa.Imm(33))),  // 5: subroutine
		w(isa.JumpInd(isa.RegLink)), // 6: return, delay 2
		w(isa.Mov(4, isa.Imm(44))),  // 7: delay slot 1
		w(isa.Mov(5, isa.Imm(55))),  // 8: delay slot 2
	)
	run(t, c, 100)
	if c.Regs[1] != 11 || c.Regs[3] != 33 || c.Regs[4] != 44 || c.Regs[5] != 55 {
		t.Errorf("call path regs = %v", c.Regs[:6])
	}
	if c.Regs[2] != 22 {
		t.Error("return did not land past the delay slot")
	}
}

func TestSetConditionally(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(5))),
		w(isa.SetCond(isa.CmpEQ, 2, isa.R(1), isa.Imm(5))), // 1
		w(isa.SetCond(isa.CmpLT, 3, isa.R(1), isa.Imm(5))), // 0
		w(isa.SetCond(isa.CmpLE, 4, isa.R(1), isa.Imm(5))), // 1
		halt,
	)
	run(t, c, 100)
	if c.Regs[2] != 1 || c.Regs[3] != 0 || c.Regs[4] != 1 {
		t.Errorf("setcond results = %d,%d,%d", c.Regs[2], c.Regs[3], c.Regs[4])
	}
}

func TestByteExtractInsert(t *testing.T) {
	// The paper's load-byte sequence: ld (r0>>2),r1 ; xc r0,r1,r1
	// followed by the store-byte sequence with movlo and ic.
	c := newTestCPU(
		w(isa.LoadImm32(1, 0x41424344)),             // "ABCD"
		w(isa.Mov(2, isa.Imm(1))),                   // byte pointer 1
		w(isa.ALU(isa.OpXC, 3, isa.R(2), isa.R(1))), // r3 = 'B'
		// Now replace byte 2 with 'x' (0x78).
		w(isa.Mov(4, isa.Imm(2))),
		w(isa.ALU(isa.OpMovLo, 0, isa.R(4), isa.Operand{})),
		w(isa.Mov(5, isa.Imm(0x78))),
		w(isa.ALU(isa.OpIC, 1, isa.R(5), isa.R(1))),
		halt,
	)
	run(t, c, 100)
	if c.Regs[3] != 0x42 {
		t.Errorf("extract = %#x, want 0x42", c.Regs[3])
	}
	if c.Regs[1] != 0x41427844 {
		t.Errorf("insert = %#x, want 0x41427844", c.Regs[1])
	}
}

func TestExtractInsertByteHelpers(t *testing.T) {
	w := uint32(0x11223344)
	for i, want := range []uint32{0x11, 0x22, 0x33, 0x44} {
		if got := ExtractByte(w, uint32(i)); got != want {
			t.Errorf("ExtractByte(%d) = %#x, want %#x", i, got, want)
		}
		// Pointers are taken mod 4.
		if got := ExtractByte(w, uint32(i+8)); got != want {
			t.Errorf("ExtractByte(%d) = %#x, want %#x", i+8, got, want)
		}
	}
	if got := InsertByte(w, 0, 0xAA); got != 0xAA223344 {
		t.Errorf("InsertByte(0) = %#x", got)
	}
	if got := InsertByte(w, 3, 0x1BB); got != 0x112233BB {
		t.Errorf("InsertByte(3) = %#x (high source bits must be ignored)", got)
	}
}

func TestTrapSavesStateAndTrapCode(t *testing.T) {
	// Handler at 0 reads the surprise register and halts via the hook.
	c := newTestCPU(
		w(isa.ReadSpecial(1, isa.SpecSurprise)), // 0: handler
		halt,                                    // 1
		w(isa.Nop()),                            // 2
		w(isa.Nop()),                            // 3
		w(isa.Trap(77)),                         // 4: user trap
		w(isa.Mov(2, isa.Imm(9))),               // 5: return address 0
	)
	c.SetPC(4)
	run(t, c, 100)
	sur := isa.Surprise(c.Regs[1])
	p1, _ := sur.Causes()
	if p1 != isa.CauseTrap {
		t.Errorf("cause = %s, want trap", p1)
	}
	if sur.TrapCode() != 77 {
		t.Errorf("trap code = %d, want 77", sur.TrapCode())
	}
	// A trap completes; the saved return addresses resume after it.
	if c.Ret[0] != 5 || c.Ret[1] != 6 || c.Ret[2] != 7 {
		t.Errorf("ret = %v, want [5 6 7]", c.Ret)
	}
	if !sur.Supervisor() {
		t.Error("exception entry must raise privilege")
	}
}

func TestOverflowTrap(t *testing.T) {
	big := isa.LoadImm32(1, 0x7FFFFFFF)
	c := newTestCPU(
		halt, // 0: handler
		w(big),
		w(isa.Nop()),
		w(isa.ALU(isa.OpAdd, 2, isa.R(1), isa.Imm(1))), // overflow
		w(isa.Mov(3, isa.Imm(5))),
	)
	c.Sur = c.Sur.SetOverflow(true)
	c.SetPC(1)
	run(t, c, 100)
	p1, _ := c.Sur.Causes()
	if p1 != isa.CauseOverflow {
		t.Errorf("cause = %s, want overflow", p1)
	}
	if c.Regs[2] != 0 {
		t.Error("overflowing result must not be written")
	}
	// The faulting instruction is return address 0 (it did not complete).
	if c.Ret[0] != 3 {
		t.Errorf("ret0 = %d, want 3", c.Ret[0])
	}
}

func TestOverflowIgnoredWhenDisabled(t *testing.T) {
	big := isa.LoadImm32(1, 0x7FFFFFFF)
	c := newTestCPU(
		w(big),
		w(isa.Nop()),
		w(isa.ALU(isa.OpAdd, 2, isa.R(1), isa.Imm(1))),
		halt,
	)
	run(t, c, 100)
	if c.Regs[2] != 0x80000000 {
		t.Errorf("r2 = %#x, want wrapped 0x80000000", c.Regs[2])
	}
	if c.Stats.Exceptions[isa.CauseOverflow] != 0 {
		t.Error("overflow trapped while disabled")
	}
}

func TestDataFaultSuppressesALUWriteInSameWord(t *testing.T) {
	// A packed word whose store faults must also suppress its ALU
	// piece's write, so the word restarts cleanly (paper §3.3).
	add := isa.ALU(isa.OpAdd, 1, isa.R(1), isa.Imm(1))
	st := isa.StoreDisp(2, 3, 0) // r3 = huge address -> fault
	packed, ok := isa.Pack(add, st)
	if !ok {
		t.Fatal("pack failed")
	}
	c := newTestCPU(
		halt, // 0: handler
		w(isa.LoadImm32(3, 0x7FFFFFFF)),
		w(isa.Nop()),
		packed, // 3
	)
	c.SetPC(1)
	run(t, c, 100)
	if c.Regs[1] != 0 {
		t.Errorf("r1 = %d; ALU write must be suppressed on memory fault", c.Regs[1])
	}
	if c.Ret[0] != 3 {
		t.Errorf("ret0 = %d, want the faulting word", c.Ret[0])
	}
	p1, _ := c.Sur.Causes()
	if p1 != isa.CausePageFault {
		t.Errorf("cause = %s", p1)
	}
}

func TestOverflowPrimaryOverMemFaultSecondary(t *testing.T) {
	// When one word raises both an overflow (ALU piece) and a memory
	// fault, the overflow is logically first: primary cause overflow,
	// secondary the fault.
	add := isa.ALU(isa.OpAdd, 2, isa.R(2), isa.R(2))
	ld := isa.LoadDisp(4, 3, 0)
	packed, ok := isa.Pack(add, ld)
	if !ok {
		t.Fatal("pack failed")
	}
	c := newTestCPU(
		halt,
		w(isa.LoadImm32(2, 0x40000000)),
		w(isa.LoadImm32(3, 0x7FFFFFFF)),
		w(isa.Nop()),
		packed,
	)
	c.Sur = c.Sur.SetOverflow(true)
	c.SetPC(1)
	run(t, c, 100)
	p1, p2 := c.Sur.Causes()
	if p1 != isa.CauseOverflow || p2 != isa.CausePageFault {
		t.Errorf("causes = %s/%s, want overflow/pagefault", p1, p2)
	}
}

func TestPrivilegeEnforcement(t *testing.T) {
	c := newTestCPU(
		halt,                                    // 0: handler
		w(isa.WriteSpecial(isa.SpecSegBase, 1)), // 1: privileged
	)
	c.Sur = c.Sur.SetSupervisor(false)
	c.SetPC(1)
	run(t, c, 100)
	p1, _ := c.Sur.Causes()
	if p1 != isa.CausePrivilege {
		t.Errorf("cause = %s, want privilege", p1)
	}
	if c.Ret[0] != 1 {
		t.Errorf("ret0 = %d", c.Ret[0])
	}
}

func TestUserMayAccessByteSelector(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(2))),
		w(isa.ALU(isa.OpMovLo, 0, isa.R(1), isa.Operand{})),
		w(isa.ReadSpecial(2, isa.SpecLo)),
		halt,
	)
	c.Sur = c.Sur.SetSupervisor(false)
	// Trap 0 still reaches the hook even at user level.
	run(t, c, 100)
	if c.Regs[2] != 2 {
		t.Errorf("lo readback = %d", c.Regs[2])
	}
	if c.Stats.Exceptions[isa.CausePrivilege] != 0 {
		t.Error("byte selector access must not require privilege")
	}
}

func TestRFEResumesThroughIndirectJumpDelay(t *testing.T) {
	// The paper's motivating case for three return addresses: an
	// exception hits the instruction after an indirect jump; resumption
	// must execute the offending instruction, its successor, and then
	// the branch target.
	c := newTestCPU(
		// Handler: clear r5 as a marker, then rfe.
		w(isa.Mov(5, isa.Imm(1))),  // 0
		w(isa.RFE()),               // 1
		w(isa.Nop()),               // 2
		w(isa.LoadImm32(15, 8)),    // 3: target = 8
		w(isa.Nop()),               // 4
		w(isa.JumpInd(15)),         // 5: delay 2
		w(isa.Trap(3)),             // 6: delay slot 1 — traps
		w(isa.Mov(2, isa.Imm(22))), // 7: delay slot 2
		w(isa.Mov(3, isa.Imm(33))), // 8: target
		halt,                       // 9
	)
	c.SetPC(3)
	run(t, c, 100)
	if c.Regs[5] != 1 {
		t.Fatal("handler did not run")
	}
	// Trap completes: ret = [7, 8, 9]? No — the trap is in the delay
	// slot, so the pending target is already queued: ret = [7, 8, ...]
	// with 8 the jump target.
	if c.Ret[0] != 7 || c.Ret[1] != 8 {
		t.Errorf("ret = %v", c.Ret)
	}
	if c.Regs[2] != 22 || c.Regs[3] != 33 {
		t.Errorf("resume path wrong: r2=%d r3=%d", c.Regs[2], c.Regs[3])
	}
}

func TestInterruptTakenBetweenInstructions(t *testing.T) {
	c := newTestCPU(
		// Handler: note the interrupt, clear the line, halt.
		w(isa.Mov(7, isa.Imm(1))), // 0
		halt,                      // 1
		w(isa.Nop()),              // 2
		w(isa.Mov(1, isa.Imm(5))), // 3: main
		w(isa.Mov(2, isa.Imm(6))), // 4
	)
	// Interrupts are deferred in supervisor state, so run at user level.
	c.Sur = c.Sur.SetSupervisor(false).SetInterrupts(true)
	// The test raises the line externally between two specific
	// instructions, which needs per-instruction Step granularity; the
	// superblock engine would run the whole straight-line block in the
	// first Step, before the line rises.
	c.SetEngine(EngineFast)
	c.SetPC(3)
	if err := c.Step(); err != nil { // executes instr 3
		t.Fatal(err)
	}
	c.Interrupt(true)
	run(t, c, 100)
	if c.Regs[7] != 1 {
		t.Error("interrupt handler did not run")
	}
	p1, _ := c.Sur.Causes()
	if p1 != isa.CauseInterrupt {
		t.Errorf("cause = %s", p1)
	}
	// The interrupted instruction (4) had not started.
	if c.Ret[0] != 4 {
		t.Errorf("ret0 = %d, want 4", c.Ret[0])
	}
	if c.Regs[2] != 0 {
		t.Error("instruction after interrupt point executed")
	}
}

func TestInterruptMaskedWhenDisabled(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(5))),
		halt,
	)
	c.Interrupt(true) // interrupts disabled by default
	run(t, c, 100)
	if c.Stats.Exceptions[isa.CauseInterrupt] != 0 {
		t.Error("masked interrupt was taken")
	}
	if c.Regs[1] != 5 {
		t.Error("program did not run")
	}
}

func TestFreeCycleAccounting(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(50))),
		w(isa.StoreDisp(1, 1, 0)), // uses the data port
		w(isa.Mov(2, isa.Imm(2))), // free
		w(isa.LoadDisp(3, 1, 0)),  // uses the data port
		w(isa.Nop()),              // free
		halt,                      // free (trap)
	)
	run(t, c, 100)
	if c.Stats.DataCycles != 2 {
		t.Errorf("data cycles = %d, want 2", c.Stats.DataCycles)
	}
	if c.Stats.FreeCycles != 4 {
		t.Errorf("free cycles = %d, want 4", c.Stats.FreeCycles)
	}
	got := c.Stats.FreeBandwidthFraction()
	if got < 0.66 || got > 0.67 {
		t.Errorf("free fraction = %f", got)
	}
}

func TestDMADrainsFreeCycles(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(1))),
		w(isa.Mov(2, isa.Imm(2))),
		w(isa.Mov(3, isa.Imm(3))),
		w(isa.Mov(4, isa.Imm(4))),
		halt,
	)
	c.Bus.MMU.Phys.Poke(10, 0xAB)
	dma := mem.NewDMA(c.Bus.MMU.Phys)
	c.Bus.DMA = dma
	dma.Queue(mem.Transfer{Src: 10, Dst: 20, Words: 1})
	run(t, c, 100)
	if c.Bus.MMU.Phys.Peek(20) != 0xAB {
		t.Error("DMA transfer did not complete on free cycles")
	}
	if c.Stats.DMACycles != 2 {
		t.Errorf("DMA cycles = %d, want 2", c.Stats.DMACycles)
	}
}

func TestMappedExecution(t *testing.T) {
	// User process with PID 1, 64K-word space, text mapped at virtual 0.
	phys := mem.NewPhysical(1 << 16)
	c := New(NewBus(phys))
	c.SetTrapHook(func(code uint16) {
		if code == 0 {
			c.Halt()
		}
	})
	// Physical frame 4 holds the user text (IMem is physically indexed).
	base := uint32(4) << mem.PageBits
	text := []isa.Instr{
		w(isa.Mov(1, isa.Imm(50))),
		w(isa.StoreDisp(1, 1, 0)), // virtual word 50
		w(isa.LoadDisp(2, 1, 0)),
		w(isa.Nop()),
		halt,
	}
	c.IMem.Replace(base, 2<<mem.PageBits, text)
	c.Bus.MMU.Seg = mem.NewSegUnit(1, 16)
	// System virtual page for PID 1, page 0 -> frame 4 (text+data).
	sysPage := uint32(1) << 16 >> mem.PageBits
	c.Bus.MMU.Map.Map(sysPage, 4, true)
	c.Sur = c.Sur.SetSupervisor(false).SetMapping(true)
	c.SetPC(0)
	run(t, c, 100)
	if c.Regs[2] != 50 {
		t.Errorf("r2 = %d", c.Regs[2])
	}
	// The store landed in frame 4.
	if phys.Peek(base+50) != 50 {
		t.Error("mapped store landed in the wrong frame")
	}
}

func TestFetchFaultOnUnmappedPage(t *testing.T) {
	phys := mem.NewPhysical(1 << 16)
	c := New(NewBus(phys))
	// 16 words, so pc 5 lies inside the length: only the MMU can
	// page-fault the fetch there.
	c.IMem.Write(0, make([]isa.Instr, 16))
	c.IMem.Set(0, halt) // handler
	c.SetTrapHook(func(code uint16) {
		if code == 0 {
			c.Halt()
		}
	})
	c.Bus.MMU.Seg = mem.NewSegUnit(0, 16)
	c.Sur = c.Sur.SetSupervisor(false).SetMapping(true)
	c.SetPC(5) // no page mapped
	run(t, c, 100)
	p1, _ := c.Sur.Causes()
	if p1 != isa.CausePageFault {
		t.Errorf("cause = %s, want pagefault", p1)
	}
	if c.Ret[0] != 5 {
		t.Errorf("ret0 = %d, want faulting pc", c.Ret[0])
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	c := newTestCPU(
		halt,        // 0: handler
		isa.Instr{}, // 1: empty word decodes as illegal
	)
	c.SetPC(1)
	run(t, c, 100)
	p1, _ := c.Sur.Causes()
	if p1 != isa.CauseIllegal {
		t.Errorf("cause = %s, want illegal", p1)
	}
}

func TestSpecialRegisterRoundTrips(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(3))),
		w(isa.WriteSpecial(isa.SpecRet0, 1)),
		w(isa.ReadSpecial(2, isa.SpecRet0)),
		w(isa.Mov(3, isa.Imm(18))),
		w(isa.WriteSpecial(isa.SpecSegLimit, 3)),
		w(isa.ReadSpecial(4, isa.SpecSegLimit)),
		halt,
	)
	run(t, c, 100)
	if c.Regs[2] != 3 {
		t.Errorf("ret0 round trip = %d", c.Regs[2])
	}
	if c.Regs[4] != 18 {
		t.Errorf("seglimit round trip = %d", c.Regs[4])
	}
}

func TestPackedWordAutoIncrementIdiom(t *testing.T) {
	// ld 0(r1) packed with add r1,#1: the load uses the old r1, the add
	// bumps it — the "auto increment" behavior of §3.3.
	ld := isa.LoadDisp(2, 1, 0)
	add := isa.ALU(isa.OpAdd, 1, isa.R(1), isa.Imm(1))
	packed, ok := isa.Pack(add, ld)
	if !ok {
		t.Fatal("pack failed")
	}
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(50))),
		packed,
		w(isa.Nop()),
		w(isa.Mov(3, isa.R(2))),
		halt,
	)
	c.Bus.MMU.Phys.Poke(50, 1234)
	c.Bus.MMU.Phys.Poke(51, 9999)
	run(t, c, 100)
	if c.Regs[3] != 1234 {
		t.Errorf("load used wrong address: r3 = %d", c.Regs[3])
	}
	if c.Regs[1] != 51 {
		t.Errorf("pointer not bumped: r1 = %d", c.Regs[1])
	}
}

func TestMStepMultiplyLoop(t *testing.T) {
	// 13 * 11 via the multiply-step primitive: acc += x when y is odd,
	// then shift x left and y right, eight times is enough for 4-bit y.
	var prog []isa.Instr
	prog = append(prog,
		w(isa.Mov(1, isa.Imm(13))), // x
		w(isa.Mov(2, isa.Imm(11))), // y
		w(isa.Mov(3, isa.Imm(0))),  // acc
	)
	for i := 0; i < 8; i++ {
		prog = append(prog,
			w(isa.ALU(isa.OpMStep, 3, isa.R(1), isa.R(2))),
			w(isa.ALU(isa.OpSll, 1, isa.R(1), isa.Imm(1))),
			w(isa.ALU(isa.OpSrl, 2, isa.R(2), isa.Imm(1))),
		)
	}
	prog = append(prog, halt)
	c := newTestCPU(prog...)
	run(t, c, 100)
	if c.Regs[3] != 143 {
		t.Errorf("mstep product = %d, want 143", c.Regs[3])
	}
}

func TestRunStepLimit(t *testing.T) {
	// An infinite loop must hit the step limit, not hang.
	loop := isa.Jump("")
	loop.Target = 0
	c := newTestCPU(w(loop), w(isa.Nop()))
	if _, err := c.Run(50); err == nil {
		t.Error("expected step-limit error")
	}
}

func TestResetRestoresPowerUpState(t *testing.T) {
	c := newTestCPU(
		w(isa.Mov(1, isa.Imm(9))),
		halt,
	)
	run(t, c, 10)
	c.Reset()
	if c.Halted || c.PC() != 0 || c.Regs[1] != 0 {
		t.Error("reset did not restore power-up state")
	}
	if !c.Sur.Supervisor() {
		t.Error("reset must enter supervisor state")
	}
	p1, _ := c.Sur.Causes()
	if p1 != isa.CauseReset {
		t.Errorf("reset cause = %s", p1)
	}
}

func TestLoadImageSetsUpMachine(t *testing.T) {
	im := isa.NewImage()
	im.TextBase = 8
	im.Entry = 8
	im.Words = []isa.Instr{
		w(isa.LoadAbs(1, 100)),
		w(isa.Nop()),
		halt,
	}
	im.Data[100] = 777
	c := newTestCPU()
	if err := c.LoadImage(im); err != nil {
		t.Fatalf("load: %v", err)
	}
	run(t, c, 100)
	if c.Regs[1] != 777 {
		t.Errorf("r1 = %d", c.Regs[1])
	}
}

func TestStatsString(t *testing.T) {
	c := newTestCPU(w(isa.Mov(1, isa.Imm(1))), halt)
	run(t, c, 10)
	if c.Stats.String() == "" {
		t.Error("empty stats string")
	}
}
