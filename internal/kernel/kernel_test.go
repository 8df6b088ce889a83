package kernel

import (
	"strings"
	"testing"

	"mips/internal/asm"
	"mips/internal/isa"
	"mips/internal/reorg"
)

// buildUser assembles a user program through the full toolchain.
func buildUser(t *testing.T, src string) *isa.Image {
	t.Helper()
	u, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ro, _ := reorg.Reorganize(u, reorg.All())
	im, err := asm.Assemble(ro)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return im
}

func newMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return m
}

func TestKernelAssembles(t *testing.T) {
	m := newMachine(t, Config{})
	if m.Phys.ROMLimit() != ROMLimit {
		t.Errorf("ROM limit = %d", m.Phys.ROMLimit())
	}
	// The cause table must be populated with handler addresses.
	for c := isa.Cause(0); c < isa.NumCauses; c++ {
		if m.Phys.Peek(causeTab+uint32(c)) == 0 && c != 0 {
			t.Errorf("cause table entry %s is zero", c)
		}
	}
}

func TestBootWithNoProcessesHalts(t *testing.T) {
	m := newMachine(t, Config{})
	if _, err := m.Run(10_000); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestSingleProcessHelloWorld(t *testing.T) {
	user := buildUser(t, `
	.entry main
main:	mov #'H', r1
	trap #1
	mov #'i', r1
	trap #1
	trap #0
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := m.ConsoleOutput(); got != "Hi" {
		t.Errorf("console = %q", got)
	}
	if m.PageFaults() == 0 {
		t.Error("demand paging should have faulted in the text page")
	}
}

func TestPutIntMonitorCall(t *testing.T) {
	user := buildUser(t, `
	.entry main
main:	mov #0, r1
	sub r1, #7, r1		; -7
	trap #2
	mov #42, r1
	trap #2
	trap #0
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "-7\n42\n" {
		t.Errorf("console = %q", got)
	}
}

func TestDemandPagingAcrossPages(t *testing.T) {
	// Touch data on several distinct pages; every touch must fault in
	// exactly one page, transparently.
	user := buildUser(t, `
	.entry main
main:	mov #0, r1		; page counter
	mov #7, r3
	ldi #1024, r4		; page stride in words
	ldi #6144, r2		; first data address (page 6, above text)
loop:	st r3, (r2)
	ld (r2), r5
	bne r5, r3, bad
	add r2, r4, r2
	add r1, #1, r1
	blt r1, #5, loop
	mov #1, r1
	trap #2
	trap #0
bad:	mov #0, r1
	trap #2
	trap #0
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "1\n" {
		t.Errorf("console = %q (memory roundtrip through paging failed)", got)
	}
	// One text page + five data pages at least.
	if m.PageFaults() < 6 {
		t.Errorf("page faults = %d, want >= 6", m.PageFaults())
	}
	if int(m.PageFaults()) != m.DiskReads() {
		t.Errorf("faults %d != disk reads %d", m.PageFaults(), m.DiskReads())
	}
	if m.ResidentPages() != m.DiskReads() {
		t.Errorf("resident pages %d != disk reads %d", m.ResidentPages(), m.DiskReads())
	}
}

func TestStackPagesZeroFilled(t *testing.T) {
	// The initial stack pointer sits in the top region; pushing must
	// fault in a fresh zero page and work transparently.
	user := buildUser(t, `
	.entry main
main:	mov #9, r1
	st r1, 0(sp)
	st r1, 1(sp)
	ld 0(sp), r2
	mov r2, r1
	trap #2
	trap #0
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "9\n" {
		t.Errorf("console = %q", got)
	}
}

func TestExitMonitorCall(t *testing.T) {
	user := buildUser(t, `
	.entry main
main:	mov #'a', r1
	trap #1
	trap #4			; exit: last process exiting halts the machine
	mov #'b', r1		; unreachable
	trap #1
	trap #0
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "a" {
		t.Errorf("console = %q", got)
	}
}

func TestTwoProcessesYieldCooperatively(t *testing.T) {
	procA := buildUser(t, `
	.entry main
main:	mov #'A', r1
	trap #1
	trap #3			; yield
	mov #'C', r1
	trap #1
	trap #3
	trap #4			; exit
`)
	procB := buildUser(t, `
	.entry main
main:	mov #'B', r1
	trap #1
	trap #3
	mov #'D', r1
	trap #1
	trap #4
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(procA, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(procB, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "ABCD" {
		t.Errorf("console = %q, want interleaved ABCD", got)
	}
	if m.ContextSwitches() < 3 {
		t.Errorf("switches = %d", m.ContextSwitches())
	}
}

func TestPreemptiveTimeSlicing(t *testing.T) {
	// Two compute loops with no yields; the timer must interleave them.
	// Each prints a marker when done.
	loop := func(mark byte) string {
		return `
	.entry main
main:	mov #0, r1
	ldi #3000, r2
spin:	add r1, #1, r1
	blt r1, r2, spin
	mov #'` + string(mark) + `', r1
	trap #1
	trap #4
`
	}
	m := newMachine(t, Config{TimerPeriod: 100})
	if _, err := m.AddProcess(buildUser(t, loop('x')), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(buildUser(t, loop('y')), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	out := m.ConsoleOutput()
	if !strings.Contains(out, "x") || !strings.Contains(out, "y") {
		t.Errorf("console = %q; both processes must finish", out)
	}
	if m.ContextSwitches() < 10 {
		t.Errorf("switches = %d; timer should preempt repeatedly", m.ContextSwitches())
	}
}

func TestContextSwitchPreservesAllRegisters(t *testing.T) {
	// Process A fills every allocatable register with a signature and
	// yields repeatedly while B does the same with another signature;
	// each then verifies its registers. Any save/restore slip corrupts
	// the check.
	sigProg := func(base int, mark byte) string {
		var b strings.Builder
		b.WriteString("\t.entry main\nmain:\n")
		// Set r5..r13 to base+k.
		for r := 5; r <= 13; r++ {
			b.WriteString("\tldi #")
			b.WriteString(itoa(base + r))
			b.WriteString(", r")
			b.WriteString(itoa(r))
			b.WriteString("\n")
		}
		b.WriteString("\ttrap #3\n\ttrap #3\n\ttrap #3\n")
		// Verify.
		for r := 5; r <= 13; r++ {
			b.WriteString("\tldi #" + itoa(base+r) + ", r1\n")
			b.WriteString("\tbne r1, r" + itoa(r) + ", bad\n")
		}
		b.WriteString("\tmov #'" + string(mark) + "', r1\n\ttrap #1\n\ttrap #4\n")
		b.WriteString("bad:\tmov #'!', r1\n\ttrap #1\n\ttrap #4\n")
		return b.String()
	}
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(buildUser(t, sigProg(1000, 'p')), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(buildUser(t, sigProg(2000, 'q')), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	out := m.ConsoleOutput()
	if strings.Contains(out, "!") {
		t.Fatalf("register corruption across context switch: %q", out)
	}
	if !strings.Contains(out, "p") || !strings.Contains(out, "q") {
		t.Errorf("console = %q", out)
	}
}

func TestProcessesAreIsolated(t *testing.T) {
	// Both processes use the same virtual addresses; segmentation must
	// keep their data disjoint.
	prog := func(val int, mark byte) string {
		return `
	.entry main
main:	ldi #5000, r2
	ldi #` + itoa(val) + `, r3
	st r3, (r2)
	trap #3			; yield so the other process runs
	ld (r2), r4
	bne r4, r3, bad
	mov #'` + string(mark) + `', r1
	trap #1
	trap #4
bad:	mov #'!', r1
	trap #1
	trap #4
`
	}
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(buildUser(t, prog(111, 'a')), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(buildUser(t, prog(222, 'b')), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	out := m.ConsoleOutput()
	if strings.Contains(out, "!") {
		t.Fatalf("address spaces not isolated: %q", out)
	}
}

func TestSegmentationHoleKillsProcess(t *testing.T) {
	// A reference between the two valid regions must terminate the
	// process (the kernel's choice per §3.1), halting the machine since
	// it is the only one.
	user := buildUser(t, `
	.entry main
main:	ldi #1073741824, r2	; 2^30: in the hole of a 16-bit space
	ld (r2), r3
	mov #'s', r1		; unreachable: the load kills us
	trap #1
	trap #0
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "" {
		t.Errorf("console = %q; process should have been killed", got)
	}
}

func TestPrivilegedInstructionKillsUserProcess(t *testing.T) {
	user := buildUser(t, `
	.entry main
main:	mov #1, r1
	wrspec r1, segbase	; privileged
	mov #'p', r1		; unreachable
	trap #1
	trap #0
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "" {
		t.Errorf("console = %q", got)
	}
	if m.CPU.Stats.Exceptions[isa.CausePrivilege] != 1 {
		t.Errorf("privilege exceptions = %d", m.CPU.Stats.Exceptions[isa.CausePrivilege])
	}
}

func TestKilledProcessDoesNotStopOthers(t *testing.T) {
	bad := buildUser(t, `
	.entry main
main:	ldi #1073741824, r2
	ld (r2), r3		; killed here
	trap #0
`)
	good := buildUser(t, `
	.entry main
main:	mov #'g', r1
	trap #1
	trap #4
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(bad, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(good, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "g" {
		t.Errorf("console = %q", got)
	}
}

func TestProcessTableFull(t *testing.T) {
	user := buildUser(t, "\t.entry main\nmain:\ttrap #4\n")
	m := newMachine(t, Config{})
	for i := 0; i < MaxProcs; i++ {
		if _, err := m.AddProcess(user, 20); err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	if _, err := m.AddProcess(user, 20); err == nil {
		t.Error("expected process-table-full error")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	// More working set than physical memory: the kernel must evict FIFO
	// victims with dirty write-back, and every page's data must survive
	// its round trip through backing store. 16 frames total: 8 kernel
	// and frame-table frames, 8 user frames; the program walks 20 data
	// pages twice, verifying contents.
	prog := buildUser(t, `
	.entry main
main:	mov #0, r5		; pass counter
	mov #20, r7		; pages
pass:	mov #0, r6		; page index
	ldi #10240, r2		; base virtual address (page 10, clear of text)
fill:	ldi #1024, r3
	add r6, #3, r4		; value = pageindex + 3 + pass
	add r4, r5, r4
	st r4, (r2)		; touch the page (dirty it)
	add r2, r3, r2
	add r6, #1, r6
	blt r6, r7, fill
	; verify
	mov #0, r6
	ldi #10240, r2
chk:	ldi #1024, r3
	ld (r2), r1
	add r6, #3, r4
	add r4, r5, r4
	bne r1, r4, bad
	add r2, r3, r2
	add r6, #1, r6
	blt r6, r7, chk
	add r5, #1, r5
	blt r5, #2, pass
	mov #'e', r1
	trap #1
	trap #4
bad:	mov #'!', r1
	trap #1
	trap #4
`)
	m, err := NewMachine(Config{PhysWords: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(prog, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(50_000_000); err != nil {
		t.Fatalf("machine failed under memory pressure: %v", err)
	}
	if got := m.ConsoleOutput(); got != "e" {
		t.Fatalf("console = %q; data corrupted across eviction", got)
	}
	if m.Evictions() == 0 {
		t.Error("no evictions despite working set > memory")
	}
	if m.DiskWrites() == 0 {
		t.Error("no dirty write-backs recorded")
	}
	if m.ResidentPages() > 8 {
		t.Errorf("resident pages = %d with only 8 user frames", m.ResidentPages())
	}
}

func TestEvictedTextPageRestored(t *testing.T) {
	// Force the victim to include the process's own text page; the next
	// instruction fetch must fault it back in intact.
	prog := buildUser(t, `
	.entry main
main:	mov #0, r6
	ldi #10240, r2
walk:	ldi #1024, r3
	st r6, (r2)		; 12 pages: guarantees the text page evicts
	add r2, r3, r2
	add r6, #1, r6
	blt r6, #12, walk
	mov #'t', r1
	trap #1
	trap #4
`)
	m, err := NewMachine(Config{PhysWords: 16 << 10}) // 8 user frames
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(prog, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "t" {
		t.Errorf("console = %q; text did not survive eviction", got)
	}
	if m.Evictions() == 0 {
		t.Error("expected evictions")
	}
}

func TestROMIsProtectedFromUserStores(t *testing.T) {
	// A user store cannot reach physical ROM: its address translates
	// through the page map into user frames, and the dispatch code at
	// physical zero stays intact.
	user := buildUser(t, `
	.entry main
main:	mov #0, r2
	st r2, (r2)		; virtual address 0 -> user frame, not ROM
	trap #3			; yield (exercises the kernel again)
	mov #'k', r1
	trap #1
	trap #4
`)
	m := newMachine(t, Config{})
	if _, err := m.AddProcess(user, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := m.ConsoleOutput(); got != "k" {
		t.Errorf("console = %q", got)
	}
}

func TestKernelEncodesToBits(t *testing.T) {
	// The dispatch ROM itself must fit the 32-bit binary encoding.
	u, err := asm.Parse(kernelSource(1 << 12))
	if err != nil {
		t.Fatal(err)
	}
	ro, _ := reorg.Reorganize(u, reorg.All())
	im, err := asm.Assemble(ro)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := isa.EncodeProgram(im.Words, im.TextBase)
	if err != nil {
		t.Fatalf("kernel does not encode: %v", err)
	}
	decoded, err := isa.DecodeProgram(bits, im.TextBase)
	if err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		if decoded[i].String() != im.Words[i].String() {
			t.Fatalf("word %d: %q != %q", i, decoded[i], im.Words[i])
		}
	}
}

// TestTracedProcessSteadyStateZeroAlloc runs a process's load/store loop
// on the trace tier under the interval timer: once the loop's traces
// are compiled, running — trace dispatch, TLB probes, the timer's
// horizon and advance, and the preemptions it raises — allocates
// nothing.
func TestTracedProcessSteadyStateZeroAlloc(t *testing.T) {
	prog := buildUser(t, `
	.entry main
main:	mov #0, r5
	ldi #10240, r2
	ldi #100000000, r7
loop:	st r5, (r2)
	ld (r2), r1
	add r1, #1, r5
	blt r5, r7, loop
	trap #4
`)
	m := newMachine(t, Config{TimerPeriod: 4099})
	if _, err := m.AddProcess(prog, 16); err != nil {
		t.Fatal(err)
	}
	m.CPU.Reset()
	for i := 0; i < 4096; i++ {
		m.CPU.RunSteps(256)
	}
	if m.CPU.Trans.TraceCompiled == 0 {
		t.Fatal("warm-up compiled no trace; the measurement would be vacuous")
	}
	hits, switches := m.CPU.Trans.TraceDispatchHits, m.ContextSwitches()
	avg := testing.AllocsPerRun(1000, func() { m.CPU.RunSteps(256) })
	if avg != 0 {
		t.Errorf("steady-state run allocates %v allocs/op, want 0", avg)
	}
	if m.CPU.Trans.TraceDispatchHits == hits {
		t.Error("the measured runs dispatched no compiled trace")
	}
	if m.ContextSwitches() == switches {
		t.Error("the timer never preempted the measured runs")
	}
}
