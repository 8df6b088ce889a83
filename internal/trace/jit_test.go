package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/mem"
)

func jitEvent(kind cpu.JITEventKind, pc uint32, cycle uint64) cpu.JITEvent {
	return cpu.JITEvent{Kind: kind, PC: pc, Cycle: cycle}
}

// buildLoopCPU assembles a counted loop hot enough to form traces, on a
// bare machine with a trap-0 halt hook.
func buildLoopCPU(n int32) (*cpu.CPU, error) {
	back := isa.Branch(isa.CmpNE, isa.R(1), isa.Imm(0), "")
	back.Target = 2
	words := []isa.Piece{
		isa.LoadImm32(1, n),                         // 0
		isa.Mov(3, isa.Imm(5)),                      // 1
		isa.ALU(isa.OpAdd, 2, isa.R(2), isa.R(3)),   // 2: loop entry
		isa.ALU(isa.OpSub, 1, isa.R(1), isa.Imm(1)), // 3
		back,        // 4
		isa.Nop(),   // 5: branch delay
		isa.Trap(0), // 6
	}
	c := cpu.New(cpu.NewBus(mem.NewPhysical(1 << 16)))
	for i, p := range words {
		c.IMem.Set(uint32(i), isa.Word(p))
	}
	c.SetTrapHook(func(code uint16) {
		if code == 0 {
			c.Halt()
		}
	})
	return c, nil
}

func TestJITLogBoundedDropAndCount(t *testing.T) {
	l := NewJITLog(4)
	for i := 0; i < 10; i++ {
		l.Record(jitEvent(cpu.JITGuardExit, uint32(i), uint64(i)))
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("Len = %d, want ring bound 4", got)
	}
	if got := l.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	if got := l.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	ev := l.Events()
	if len(ev) != 4 || ev[0].PC != 6 || ev[3].PC != 9 {
		t.Errorf("Events = %+v, want oldest-first PCs 6..9", ev)
	}
}

func TestJITLogSubscribe(t *testing.T) {
	l := NewJITLog(16)
	sink := l.Subscribe(2)
	l.Record(jitEvent(cpu.JITFormed, 10, 1))
	l.Record(jitEvent(cpu.JITCompiled, 10, 2))
	l.Record(jitEvent(cpu.JITGuardExit, 10, 3)) // buffer full: dropped for the sink
	if e := <-sink.Events(); e.Kind != cpu.JITFormed {
		t.Errorf("first subscribed event = %v", e.Kind)
	}
	if e := <-sink.Events(); e.Kind != cpu.JITCompiled {
		t.Errorf("second subscribed event = %v", e.Kind)
	}
	select {
	case e := <-sink.Events():
		t.Errorf("slow subscriber received overflow event %v", e.Kind)
	default:
	}
	if got := sink.Dropped(); got != 1 {
		t.Errorf("sink Dropped = %d, want 1", got)
	}
	// The log itself retained everything regardless.
	if got := l.Len(); got != 3 {
		t.Errorf("log Len = %d, want 3", got)
	}
	l.Unsubscribe(sink)
	if _, ok := <-sink.Events(); ok {
		t.Error("channel not closed by Unsubscribe")
	}
	l.Unsubscribe(sink) // double-unsubscribe must be safe
	l.Record(jitEvent(cpu.JITInvalidated, 10, 4))
}

func TestJITLogAttachObservesMachine(t *testing.T) {
	c, err := buildLoopCPU(6000)
	if err != nil {
		t.Fatal(err)
	}
	c.SetEngine(cpu.EngineTraces)
	l := NewJITLog(0)
	l.Attach(c)
	for i := 0; i < 1_000_000 && !c.Halted; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var kinds [8]int
	for _, e := range l.Events() {
		kinds[e.Kind]++
	}
	if kinds[cpu.JITFormed] == 0 || kinds[cpu.JITCompiled] == 0 || kinds[cpu.JITGuardExit] == 0 {
		t.Fatalf("lifecycle incomplete: formed=%d compiled=%d exits=%d",
			kinds[cpu.JITFormed], kinds[cpu.JITCompiled], kinds[cpu.JITGuardExit])
	}
}

func TestJITWriteJSONL(t *testing.T) {
	l := NewJITLog(16)
	l.Record(cpu.JITEvent{Kind: cpu.JITGuardExit, Reason: uint8(cpu.DeoptBranchDirection), Cycle: 7, PC: 2, Len: 5})
	l.Record(cpu.JITEvent{Kind: cpu.JITRefused, Reason: uint8(cpu.RefusalShadowBranch), Cycle: 9, PC: 3})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec JITEventJSON
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "guard_exit" || rec.Reason != "branch_direction" || rec.Cycle != 7 || rec.PC != 2 {
		t.Errorf("first record = %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Kind != "refused" || rec.Reason != "shadow_branch" {
		t.Errorf("second record = %+v", rec)
	}
}

func TestJITWriteChromeJSON(t *testing.T) {
	l := NewJITLog(16)
	l.Record(cpu.JITEvent{Kind: cpu.JITFormed, Cycle: 1, PC: 2, Len: 3})
	l.Record(cpu.JITEvent{Kind: cpu.JITGuardExit, Reason: uint8(cpu.DeoptFault), Cycle: 5, PC: 2, Len: 1})
	var buf bytes.Buffer
	if err := l.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid trace JSON: %v", err)
	}
	var sawDeopt, sawFormed bool
	for _, e := range tr.TraceEvents {
		switch e.Name {
		case "deopt:fault":
			sawDeopt = true
		case "formed":
			sawFormed = true
		}
	}
	if !sawDeopt || !sawFormed {
		t.Errorf("missing named instants (deopt=%v formed=%v) in %v", sawDeopt, sawFormed, tr.TraceEvents)
	}
}

func TestCollectJITSites(t *testing.T) {
	c, err := buildLoopCPU(6000)
	if err != nil {
		t.Fatal(err)
	}
	c.SetEngine(cpu.EngineTraces)
	for i := 0; i < 1_000_000 && !c.Halted; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	sites := CollectJITSites(c, nil)
	if len(sites.Traces) == 0 {
		t.Fatal("no trace sites on a traced loop")
	}
	top := sites.Traces[0]
	if top.Hits == 0 || top.Instrs == 0 {
		t.Errorf("hottest site has no residency: %+v", top)
	}
	for i := 1; i < len(sites.Traces); i++ {
		if sites.Traces[i].Hits > sites.Traces[i-1].Hits {
			t.Fatal("trace sites not sorted hottest-first")
		}
	}
	if len(sites.Tiers) != int(cpu.NumTiers) {
		t.Errorf("tier map has %d entries, want %d", len(sites.Tiers), cpu.NumTiers)
	}
	var sum uint64
	for _, v := range sites.Tiers {
		sum += v
	}
	if sum != c.Stats.Instructions {
		t.Errorf("tier map sums to %d, want Instructions %d", sum, c.Stats.Instructions)
	}
}

func TestRegisterTranslationTaxonomy(t *testing.T) {
	r := NewRegistry()
	var ts cpu.TranslationStats
	if err := RegisterTranslation(r, "xlate.", &ts); err != nil {
		t.Fatal(err)
	}
	ts.TraceDeopts[cpu.DeoptBranchDirection] = 11
	ts.TraceFormRefusals[cpu.RefusalShadowBranch] = 5
	ts.TierInstrs[cpu.TierTraces] = 900
	ts.TracePoisoned = 2
	snap := r.Snapshot()
	checks := map[string]uint64{
		"xlate.trace.guard_exits.branch_direction": 11,
		"xlate.trace.refuse.shadow_branch":         5,
		"xlate.tier.traces":                        900,
		"xlate.trace.poisoned":                     2,
		"xlate.trace.deopt.environment":            0,
	}
	for name, want := range checks {
		got, ok := snap[name]
		if !ok {
			t.Errorf("series %q not registered", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
