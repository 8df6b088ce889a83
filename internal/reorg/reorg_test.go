package reorg

import (
	"reflect"
	"testing"

	"mips/internal/asm"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/mem"
)

// allOptionSets are the cumulative stages of Table 11 plus the empty
// baseline.
var allOptionSets = map[string]Options{
	"none":       {},
	"reorg":      {Reorganize: true},
	"reorg+pack": {Reorganize: true, Pack: true},
	"full":       All(),
	"pack-only":  {Pack: true},
	"delay-only": {FillDelay: true},
}

// execute reorganizes src under opt, assembles, and runs it with the
// hazard auditor armed. It fails the test on any load-use violation and
// returns the machine for result checks.
func execute(t *testing.T, src string, opt Options) (*cpu.CPU, Stats) {
	t.Helper()
	u, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ro, st := Reorganize(u, opt)
	im, err := asm.Assemble(ro)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, dump(ro))
	}
	c := cpu.New(cpu.NewBus(mem.NewPhysical(1 << 16)))
	c.SetTrapHook(func(code uint16) {
		if code == 0 {
			c.Halt()
		}
	})
	var hazards []cpu.Hazard
	c.SetAudit(func(h cpu.Hazard) { hazards = append(hazards, h) })
	if err := c.LoadImage(im); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Run(1_000_000); err != nil {
		t.Fatalf("run: %v\n%s", err, dump(ro))
	}
	if len(hazards) > 0 {
		t.Fatalf("reorganizer emitted hazardous code (%v): %v\n%s", opt, hazards[0], dump(ro))
	}
	return c, st
}

func dump(u *asm.Unit) string {
	var out string
	for _, s := range u.Stmts {
		for _, l := range s.Labels {
			out += l + ":\n"
		}
		line := "\t" + s.Pieces[0].String()
		if len(s.Pieces) > 1 {
			line += " | " + s.Pieces[1].String()
		}
		out += line + "\n"
	}
	return out
}

// sumProgram computes sum(1..10) into memory word 500. Written with
// sequential semantics: no delay slots, loads used immediately.
const sumProgram = `
	.data 500
result:	.word 0
	.text
	.entry main
main:	mov #0, r1
	mov #0, r2
loop:	add r2, #1, r2
	add r1, r2, r1
	blt r2, #10, loop
	ldi result, r3
	st r1, (r3)
	trap #0
`

// stringCopyProgram copies a packed byte string with the insert/extract
// sequences of §4.1, then sums the copied characters into word 700.
const stringCopyProgram = `
	.data 600
src:	.ascii "MIPS!"
dst:	.space 4
sum:	.word 0
	.text
	.entry main
main:	mov #0, r1		; byte index
	mov #0, r7		; checksum
copy:	ldi src, r2
	ld (r2+r1>>2), r3	; word containing source byte
	xc r1, r3, r4		; extract byte
	beq0 r4, #0, done
	add r7, r4, r7
	ldi dst, r5
	ld (r5+r1>>2), r6	; word containing destination byte
	movlo r1
	ic r4, r6, r6		; insert byte
	st r6, (r5+r1>>2)
	add r1, #1, r1
	jmp copy
done:	ldi sum, r2
	st r7, (r2)
	trap #0
`

// callProgram exercises call/return: doubles r1 in a subroutine, twice.
const callProgram = `
	.data 800
out:	.word 0
	.text
	.entry main
main:	mov #3, r1
	call double, ra
	call double, ra
	ldi out, r2
	st r1, (r2)
	trap #0
double:	add r1, r1, r1
	jmpr ra
`

func TestAllStagesPreserveSemantics(t *testing.T) {
	checks := []struct {
		name string
		src  string
		addr uint32
		want uint32
	}{
		{"sum", sumProgram, 500, 55},
		{"stringcopy", stringCopyProgram, 606, 'M' + 'I' + 'P' + 'S' + '!'},
		{"call", callProgram, 800, 12},
	}
	for _, tc := range checks {
		for name, opt := range allOptionSets {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				c, _ := execute(t, tc.src, opt)
				if got := c.Bus.MMU.Phys.Peek(tc.addr); got != tc.want {
					t.Errorf("mem[%d] = %d, want %d", tc.addr, got, tc.want)
				}
			})
		}
	}
}

func TestStagesImproveMonotonically(t *testing.T) {
	// Table 11's property: each added optimization never increases the
	// static word count.
	stages := []Options{
		{},
		{Reorganize: true},
		{Reorganize: true, Pack: true},
		All(),
	}
	for _, src := range []string{sumProgram, stringCopyProgram, callProgram} {
		prev := -1
		for i, opt := range stages {
			u, err := asm.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			ro, _ := Reorganize(u, opt)
			n := WordCount(ro)
			if prev >= 0 && n > prev {
				t.Errorf("stage %d grew static count: %d -> %d\n%s", i, prev, n, dump(ro))
			}
			prev = n
		}
	}
}

func TestFullBeatsNoneSubstantially(t *testing.T) {
	// The paper reports 20-35% static improvement on its benchmarks; on
	// this mixed workload demand at least some improvement.
	for _, src := range []string{sumProgram, stringCopyProgram} {
		parse := func() *asm.Unit {
			u, err := asm.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		none, _ := Reorganize(parse(), Options{})
		full, _ := Reorganize(parse(), All())
		if WordCount(full) >= WordCount(none) {
			t.Errorf("full reorganization did not shrink the program: %d vs %d",
				WordCount(full), WordCount(none))
		}
	}
}

func TestNoneInsertsLoadUseNop(t *testing.T) {
	src := `
	ld 2(sp), r1
	add r1, #1, r2
	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, Options{})
	if st.Nops == 0 {
		t.Fatalf("expected a no-op between load and use:\n%s", dump(ro))
	}
	// Word sequence: ld, nop, add, trap.
	if len(ro.Stmts) != 4 || !ro.Stmts[1].Pieces[0].IsNop() {
		t.Errorf("unexpected schedule:\n%s", dump(ro))
	}
}

func TestReorganizeCoversLoadDelayWithUsefulWork(t *testing.T) {
	src := `
	ld 2(sp), r1
	add r5, #1, r5
	add r1, #1, r2
	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, Options{Reorganize: true})
	if st.Nops != 0 {
		t.Errorf("independent add should cover the load delay:\n%s", dump(ro))
	}
	// The independent add must sit between load and use.
	if ro.Stmts[1].Pieces[0].Dst != 5 {
		t.Errorf("unexpected schedule:\n%s", dump(ro))
	}
}

func TestPackingMergesALUAndStore(t *testing.T) {
	src := `
	mov #5, r1
	add r2, #1, r2
	st r1, 3(sp)
	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, Options{Reorganize: true, Pack: true})
	if st.PackedWords == 0 {
		t.Errorf("expected at least one packed word:\n%s", dump(ro))
	}
}

func TestPackingRespectsDependence(t *testing.T) {
	// The store reads r1, which the add defines: they must not share a
	// word (the store would see the stale value).
	src := `
	add r1, #1, r1
	st r1, 3(sp)
	trap #0
`
	u, _ := asm.Parse(src)
	ro, _ := Reorganize(u, All())
	for _, s := range ro.Stmts {
		if len(s.Pieces) == 2 {
			t.Errorf("dependent pieces packed:\n%s", dump(ro))
		}
	}
}

func TestBranchDelaySlotFilledByScheme1(t *testing.T) {
	// The store is independent of the branch: it can move into the
	// delay slot.
	src := `
	mov #1, r1
	st r1, 3(sp)
	bge r2, #5, out
	mov #7, r4
out:	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, All())
	if st.SchemeMoved == 0 {
		t.Errorf("expected scheme-1 delay fill:\n%s", dump(ro))
	}
	execOK := func(opt Options) {
		c, _ := execute(t, src, opt)
		_ = c
	}
	execOK(All())
}

func TestLoopBranchDelayFilledByScheme2(t *testing.T) {
	// Every word of the loop body feeds the branch, so scheme 1 cannot
	// fill the slot; the backward branch must duplicate the loop head.
	// r1 is redefined right after the loop, so the spurious add on the
	// exit path clobbers a dead value.
	src := `
	mov #0, r1
loop:	add r1, #1, r1
	blt r1, #8, loop
	mov #0, r1
	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, All())
	if st.SchemeLoop == 0 {
		t.Errorf("expected scheme-2 loop fill:\n%s", dump(ro))
	}
	if st.SchemeMoved != 0 {
		t.Errorf("nothing was movable by scheme 1:\n%s", dump(ro))
	}
	execute(t, src, All()) // semantics + hazard check
}

func TestScheme2RejectedWhenLiveOnExit(t *testing.T) {
	// Same loop, but r1 is stored after the loop: the duplicate would
	// corrupt the exit value, so the slot must stay a no-op.
	src := `
	mov #0, r1
loop:	add r1, #1, r1
	blt r1, #8, loop
	st r1, 5(sp)
	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, All())
	if st.SchemeLoop != 0 {
		t.Errorf("scheme 2 fired on a live-out value:\n%s", dump(ro))
	}
	c, _ := execute(t, src, All())
	if got := c.Bus.MMU.Phys.Peek(5); got != 8 {
		t.Errorf("exit value = %d, want 8", got)
	}
}

func TestJumpDelayFilledByTargetDuplication(t *testing.T) {
	// The jump is alone in its block (nothing before it to move), so
	// the target's first word is duplicated into the slot and the jump
	// retargeted past it.
	src := `
	.data 910
out:	.word 0
	.text
	mov #0, r1
	beq0 r2, #0, over
	nop
over:	jmp join
	mov #9, r1		; unreachable
join:	add r1, #1, r1
	ldi out, r2
	st r1, (r2)
	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, All())
	if st.SchemeLoop == 0 {
		t.Errorf("expected jump target duplication:\n%s", dump(ro))
	}
	c, _ := execute(t, src, All())
	if got := c.Bus.MMU.Phys.Peek(910); got != 1 {
		t.Errorf("result = %d, want 1", got)
	}
}

func TestScheme3HoistsFallThrough(t *testing.T) {
	// The branch skips over an increment of r3, and r3 is dead at the
	// target (redefined before use), so the increment may sit in the
	// delay slot and execute on both paths.
	src := `
	mov #0, r3
	beq r3, r2, skip
	add r3, #1, r3
	st r3, 5(sp)
skip:	mov #7, r3
	trap #0
`
	u, _ := asm.Parse(src)
	ro, st := Reorganize(u, All())
	if st.SchemeHoist == 0 {
		t.Errorf("expected scheme-3 hoist:\n%s", dump(ro))
	}
	// Taken path (r1 == r2 == 0): the hoisted add executes spuriously
	// but r3 is immediately redefined.
	c, _ := execute(t, src, All())
	if c.Regs[3] != 7 {
		t.Errorf("r3 = %d, want 7", c.Regs[3])
	}
	if got := c.Bus.MMU.Phys.Peek(5); got != 0 {
		t.Errorf("store on skipped path executed: mem[5] = %d", got)
	}
}

func TestNoReorgRegionUntouched(t *testing.T) {
	src := `
	.noreorg
	ld 2(sp), r1
	nop
	add r1, #1, r2
	.endnoreorg
	trap #0
`
	u, _ := asm.Parse(src)
	ro, _ := Reorganize(u, All())
	// The hand-scheduled region keeps its exact shape: ld, nop, add.
	if len(ro.Stmts) < 3 ||
		ro.Stmts[0].Pieces[0].Kind != isa.PieceLoad ||
		!ro.Stmts[1].Pieces[0].IsNop() ||
		ro.Stmts[2].Pieces[0].Kind != isa.PieceALU {
		t.Errorf("noreorg region modified:\n%s", dump(ro))
	}
}

func TestStoresNotReordered(t *testing.T) {
	// Two stores to possibly aliased addresses must stay in order; the
	// final memory value proves it.
	src := `
	mov #1, r1
	mov #2, r2
	st r1, 5(sp)
	st r2, 5(sp)
	trap #0
`
	for name, opt := range allOptionSets {
		t.Run(name, func(t *testing.T) {
			c, _ := execute(t, src, opt)
			if got := c.Bus.MMU.Phys.Peek(5); got != 2 {
				t.Errorf("mem[5] = %d, want 2 (stores reordered?)", got)
			}
		})
	}
}

func TestLoadMayNotEndBlock(t *testing.T) {
	// A block ending in a load must gain a no-op so the next block's
	// first word cannot read it early.
	src := `
	ld 2(sp), r1
next:	add r1, #1, r2
	trap #0
`
	u, _ := asm.Parse(src)
	ro, _ := Reorganize(u, All())
	// First block must be [ld, nop].
	if len(ro.Stmts) < 2 || !ro.Stmts[1].Pieces[0].IsNop() {
		t.Errorf("no spacing after block-final load:\n%s", dump(ro))
	}
}

func TestFigure4Fragment(t *testing.T) {
	// The paper's Figure 4 fragment (registers renamed to our dialect).
	// r2 is dead outside the shown region, which is what lets the
	// reorganizer move work around the branch.
	src := `
	.entry start
start:	ld 2(sp), r0
	ble r0, #1, L11
	sub r0, #1, r2
	st r2, 2(sp)
	ld 3(sp), r5
	add r0, r5, r0
	add r4, #1, r4
	jmp L3
L11:	nop
L3:	trap #0
`
	parse := func() *asm.Unit {
		u, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	none, _ := Reorganize(parse(), Options{})
	full, stFull := Reorganize(parse(), All())
	if WordCount(full) >= WordCount(none) {
		t.Errorf("figure 4: full (%d words) not smaller than none (%d words)\nfull:\n%s",
			WordCount(full), WordCount(none), dump(full))
	}
	if stFull.DelayFilled == 0 {
		t.Errorf("figure 4: no delay slots filled\n%s", dump(full))
	}
	// Execute both and compare machine state.
	for name, opt := range allOptionSets {
		t.Run(name, func(t *testing.T) {
			c, _ := execute(t, src, opt)
			// sp=0: mem[2] holds 0 initially, so the branch is taken.
			if c.Regs[4] != 0 {
				t.Errorf("r4 = %d on taken path", c.Regs[4])
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	u, _ := asm.Parse(sumProgram)
	ro, st := Reorganize(u, All())
	if st.InputPieces == 0 || st.OutputWords != len(ro.Stmts) {
		t.Errorf("stats = %+v", st)
	}
	if st.DelaySlots == 0 {
		t.Error("loop program must have delay slots")
	}
}

func TestLivenessDeadAfterRedefinition(t *testing.T) {
	src := `
	add r1, #1, r2
	mov #3, r2
	st r2, 1(sp)
	trap #0
`
	u, _ := asm.Parse(src)
	lv := computeLiveness(u)
	// Before stmt 1 (mov), r2's old value is dead.
	if lv.liveAt(1)&maskOf(2) != 0 {
		t.Error("r2 live before its redefinition")
	}
	// Before stmt 2 (st), r2 is live.
	if lv.liveAt(2)&maskOf(2) == 0 {
		t.Error("r2 dead before its use")
	}
}

func TestLivenessThroughBranch(t *testing.T) {
	src := `
	beq r1, r2, away
	nop
	mov #1, r3
	trap #0
away:	st r4, 1(sp)
	trap #0
`
	u, _ := asm.Parse(src)
	lv := computeLiveness(u)
	// r4 is used at the branch target, so it is live before the branch.
	if lv.liveAt(0)&maskOf(4) == 0 {
		t.Error("r4 not live across the branch")
	}
}

func TestLivenessConservativeAtCall(t *testing.T) {
	src := `
	call f, ra
	nop
	trap #0
f:	jmpr ra
`
	u, _ := asm.Parse(src)
	lv := computeLiveness(u)
	if lv.liveAt(0) != allRegs {
		t.Errorf("call liveness = %#x, want all registers", lv.liveAt(0))
	}
}

func TestEmptyAndTrivialUnits(t *testing.T) {
	u, _ := asm.Parse("\n")
	ro, st := Reorganize(u, All())
	if len(ro.Stmts) != 0 || st.OutputWords != 0 {
		t.Errorf("empty unit produced %d stmts", len(ro.Stmts))
	}
	u, _ = asm.Parse("lone: nop\n")
	ro, _ = Reorganize(u, All())
	if len(ro.Stmts) != 1 || len(ro.Stmts[0].Labels) != 1 {
		t.Errorf("trivial unit mangled: %+v", ro.Stmts)
	}
}

// The global delay pass leaves NoReorg code alone: a loop written
// inside .noreorg keeps its no-op slot, and the word after it is not
// hoisted into the slot.
func TestNoReorgLoopNotFilled(t *testing.T) {
	src := `
	.noreorg
loop:	add r1, #1, r1
	sub r2, #1, r2
	bne r2, #0, loop
	nop
	mov #7, r3
	.endnoreorg
	trap #0
`
	u, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ro, st := Reorganize(u, All())
	if st.DelayFilled != 0 || st.DelaySlots != 0 {
		t.Errorf("stats = %+v, want no delay slots counted or filled in noreorg code", st)
	}
	if len(ro.Stmts) != len(u.Stmts) {
		t.Fatalf("noreorg loop changed length: %d words, want %d\n%s", len(ro.Stmts), len(u.Stmts), dump(ro))
	}
	for i := range u.Stmts {
		if ro.Stmts[i].Pieces[0].String() != u.Stmts[i].Pieces[0].String() {
			t.Fatalf("word %d = %s, want %s\n%s", i, ro.Stmts[i].Pieces[0].String(), u.Stmts[i].Pieces[0].String(), dump(ro))
		}
	}
}

// cloneUnit deep-copies a unit, keeping nil slices nil so the copy is
// reflect.DeepEqual to the original.
func cloneUnit(u *asm.Unit) *asm.Unit {
	c := *u
	c.Stmts = nil
	if u.Stmts != nil {
		c.Stmts = make([]asm.Stmt, len(u.Stmts))
	}
	for i, s := range u.Stmts {
		if s.Labels != nil {
			s.Labels = append(make([]string, 0, len(s.Labels)), s.Labels...)
		}
		if s.Pieces != nil {
			s.Pieces = append(make([]isa.Piece, 0, len(s.Pieces)), s.Pieces...)
		}
		c.Stmts[i] = s
	}
	if u.Data != nil {
		c.Data = append(make([]asm.DataItem, 0, len(u.Data)), u.Data...)
	}
	if u.DataLabels != nil {
		c.DataLabels = make(map[string]int32, len(u.DataLabels))
		for k, v := range u.DataLabels {
			c.DataLabels[k] = v
		}
	}
	return &c
}

// Reorganize never writes into its input: a jump inside .noreorg is not
// retargeted (and so neither is the input's own jump piece), and the
// same holds for every option set.
func TestReorganizeLeavesNoReorgInputUntouched(t *testing.T) {
	src := `
	.noreorg
	jmp there
	nop
	.endnoreorg
	trap #0
there:	mov #1, r1
	trap #0
`
	for name, opt := range allOptionSets {
		u, err := asm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		before := cloneUnit(u)
		ro, _ := Reorganize(u, opt)
		if !reflect.DeepEqual(u, before) {
			t.Errorf("%s: Reorganize modified its input\n%s", name, dump(u))
		}
		if got := ro.Stmts[0].Pieces[0].String(); got != "jmp there" {
			t.Errorf("%s: noreorg jump rewritten to %q\n%s", name, got, dump(ro))
		}
		if !ro.Stmts[1].Pieces[0].IsNop() {
			t.Errorf("%s: noreorg slot filled\n%s", name, dump(ro))
		}
	}
}
