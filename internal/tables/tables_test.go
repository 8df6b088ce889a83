package tables

import (
	"strconv"
	"strings"
	"testing"

	"mips/internal/sim"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tab, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", e.Name)
			}
			out := tab.Render()
			if !strings.Contains(out, tab.ID) {
				t.Errorf("%s: render missing ID", e.Name)
			}
		})
	}
}

// regen runs one experiment on a pass of its own.
func regen(t *testing.T, run func(*pass) (*Table, error)) *Table {
	t.Helper()
	tab, err := run(newPass(sim.Default))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// cell parses a numeric table cell (strips % signs).
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func findRow(t *testing.T, tab *Table, prefix string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return i
		}
	}
	t.Fatalf("no row starting %q in %s", prefix, tab.ID)
	return -1
}

func TestTable1Shape(t *testing.T) {
	tab := regen(t, table1)
	// The paper's headline: the 4-bit field covers most constants and
	// the 8-bit immediate nearly all. Encoded in the first note.
	var small, large float64
	for i := 0; i < 4; i++ {
		small += cell(t, tab, i, 1)
	}
	large = cell(t, tab, 5, 1)
	if small < 50 {
		t.Errorf("small-constant share = %.1f%%, paper ~68.7%%", small)
	}
	if large > 15 {
		t.Errorf("large-constant share = %.1f%%, paper 4.5%%", large)
	}
}

func TestTable3SavingsAreSmall(t *testing.T) {
	tab := regen(t, table3)
	// Row 1: "saved, CC set by operators only" rendered "N = X%".
	parts := strings.Split(tab.Rows[1][1], "= ")
	frac, err := strconv.ParseFloat(strings.TrimSuffix(parts[1], "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 10 {
		t.Errorf("ops-only savings %.1f%%; paper's point is that savings are tiny (1.1%%)", frac)
	}
	// Moves policy saves more than ops-only, as in the paper.
	opsSaved, _ := strconv.Atoi(strings.Split(tab.Rows[1][1], " =")[0])
	movesSaved, _ := strconv.Atoi(tab.Rows[2][1])
	if movesSaved < opsSaved {
		t.Errorf("moves policy saved %d < ops policy %d", movesSaved, opsSaved)
	}
}

func TestTable4Shape(t *testing.T) {
	tab := regen(t, table4)
	avg := cell(t, tab, 0, 1)
	if avg < 1.0 || avg > 3.5 {
		t.Errorf("operators/expression = %.2f, paper 1.66", avg)
	}
	jumps := cell(t, tab, 1, 1)
	if jumps < 50 {
		t.Errorf("jump share = %.1f%%, paper 80.9%%", jumps)
	}
}

func TestTable6Ordering(t *testing.T) {
	tab := regen(t, table6)
	// Total cost column: set-conditionally < conditional-set < full
	// evaluation — the paper's ranking.
	setcond := cell(t, tab, 0, 3)
	condset := cell(t, tab, 1, 3)
	full := cell(t, tab, 2, 3)
	early := cell(t, tab, 3, 3)
	if !(setcond < condset && condset < full) {
		t.Errorf("ordering violated: setcond %.1f, condset %.1f, full %.1f", setcond, condset, full)
	}
	if early > full {
		t.Errorf("early-out %.1f costs more than full evaluation %.1f", early, full)
	}
}

func TestTable7LoadsDominate(t *testing.T) {
	tab := regen(t, table7)
	loads := cell(t, tab, 0, 1)
	if loads < 55 {
		t.Errorf("load share = %.1f%%, paper 71.2%%", loads)
	}
	l32 := cell(t, tab, findRow(t, tab, "32-bit loads"), 1)
	l8 := cell(t, tab, findRow(t, tab, "8-bit loads"), 1)
	if l32 < l8 {
		t.Error("word loads must dominate byte loads in word allocation")
	}
}

func TestTable8ByteTrafficGrows(t *testing.T) {
	t7 := regen(t, table7)
	t8 := regen(t, table8)
	b7 := cell(t, t7, findRow(t, t7, "8-bit loads"), 1) + cell(t, t7, findRow(t, t7, "8-bit stores"), 1)
	b8 := cell(t, t8, findRow(t, t8, "8-bit loads"), 1) + cell(t, t8, findRow(t, t8, "8-bit stores"), 1)
	if b8 <= b7 {
		t.Errorf("byte allocation did not increase byte traffic: %.1f%% vs %.1f%%", b8, b7)
	}
}

func TestTable10WordAddressingWins(t *testing.T) {
	tab := regen(t, table10)
	// Every row's penalty must be positive: byte addressing loses, the
	// paper's central §4.1 claim.
	for i, row := range tab.Rows {
		p, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatalf("row %d penalty %q", i, row[4])
		}
		if p <= 0 {
			t.Errorf("row %d (%s, overhead %s): byte addressing won (%.1f%%); paper reports a 7.7-14.6%% penalty",
				i, row[0], row[1], p)
		}
		if p > 40 {
			t.Errorf("row %d penalty %.1f%% implausibly large", i, p)
		}
	}
}

func TestTable11Monotone(t *testing.T) {
	tab := regen(t, table11)
	// Stages shrink monotonically for every benchmark; total improvement
	// lands in the paper's 15-45% band.
	for col := 1; col <= 3; col++ {
		var prev float64 = 1 << 30
		for row := 0; row < 4; row++ {
			v := cell(t, tab, row, col)
			if v > prev {
				t.Errorf("%s: stage %d grew: %v -> %v", tab.Header[col], row, prev, v)
			}
			prev = v
		}
		imp := cell(t, tab, 4, col)
		if imp < 10 || imp > 60 {
			t.Errorf("%s: total improvement %.1f%%, paper band 20.6-35.1%%", tab.Header[col], imp)
		}
	}
}

func TestFigureOrdering(t *testing.T) {
	f2 := regen(t, figure2)
	f3 := regen(t, figure3)
	// Figure 2 (conditional set) and Figure 3 (set conditionally) are
	// branch-free; Figure 3 uses fewer evaluation instructions.
	if br := cell(t, f2, 2, 1); br != 0 {
		t.Errorf("conditional-set branches = %v, want 0", br)
	}
	if br := cell(t, f3, 2, 1); br != 0 {
		t.Errorf("set-conditionally branches = %v, want 0", br)
	}
	if cell(t, f3, 0, 1) >= cell(t, f2, 0, 1) {
		t.Errorf("MIPS static %.0f not below M68000 static %.0f", cell(t, f3, 0, 1), cell(t, f2, 0, 1))
	}
}

func TestFreeCyclesNearPaper(t *testing.T) {
	tab := regen(t, freeCycles)
	total := tab.Rows[len(tab.Rows)-1]
	frac, err := strconv.ParseFloat(strings.TrimSuffix(total[4], "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~40% of available (two-port) bandwidth wasted; on the data
	// port alone that is ~80%, and compiled code typically leaves
	// 60-85% of data cycles free.
	if frac < 40 || frac > 95 {
		t.Errorf("free data-cycle fraction = %.1f%%", frac)
	}
}

func TestRegisterSaveSaturation(t *testing.T) {
	sat, err := registerSaveSaturation(newPass(sim.Default))
	if err != nil {
		t.Fatal(err)
	}
	if sat != 1.0 {
		t.Errorf("save-sequence data-port utilization = %.2f, want 1.0 (§3.2)", sat)
	}
}

func TestContextSwitchTable(t *testing.T) {
	tab := regen(t, contextSwitch)
	if n := cell(t, tab, 0, 1); n < 5 {
		t.Errorf("switches = %v; timer should preempt repeatedly", n)
	}
}

func TestAblationInterlocksEquivalence(t *testing.T) {
	tab := regen(t, ablationInterlocks)
	// Per benchmark (4 rows each): hw/naive must match sw/naive in
	// cycles exactly — a stall and a no-op both cost one cycle — while
	// using fewer static words; and sw/reorg must beat both naive
	// configurations in cycles.
	for b := 0; b+3 < len(tab.Rows); b += 4 {
		swNaiveWords := cell(t, tab, b, 2)
		swNaiveCycles := cell(t, tab, b, 3)
		swReorgCycles := cell(t, tab, b+1, 3)
		hwNaiveWords := cell(t, tab, b+2, 2)
		hwNaiveCycles := cell(t, tab, b+2, 3)
		name := tab.Rows[b][0]
		if hwNaiveCycles != swNaiveCycles {
			t.Errorf("%s: hw/naive cycles %v != sw/naive %v", name, hwNaiveCycles, swNaiveCycles)
		}
		if hwNaiveWords >= swNaiveWords {
			t.Errorf("%s: interlock hardware should shrink naive code (%v vs %v words)",
				name, hwNaiveWords, swNaiveWords)
		}
		if swReorgCycles >= swNaiveCycles {
			t.Errorf("%s: reorganization did not reduce cycles (%v vs %v)",
				name, swReorgCycles, swNaiveCycles)
		}
	}
}

func TestAblationDelaySchemesScheme1Dominates(t *testing.T) {
	tab := regen(t, ablationDelaySchemes)
	total := tab.Rows[len(tab.Rows)-1]
	filled := cell(t, tab, len(tab.Rows)-1, 2)
	s1 := cell(t, tab, len(tab.Rows)-1, 3)
	if filled == 0 || s1 < filled/2 {
		t.Errorf("scheme 1 fills %v of %v; expected it to dominate (%v)", s1, filled, total)
	}
}

func TestAblationByteOverheadCrossover(t *testing.T) {
	tab := regen(t, ablationByteOverhead)
	// At the paper's 15-20% overhead both program styles must show a
	// positive penalty (word addressing wins); at zero overhead the
	// byte-allocated style flips (byte addressing wins on byte-heavy
	// code with free hardware) — the crossover the paper's argument is
	// about.
	first := cell(t, tab, 0, 2) // byte-alloc penalty at 0% overhead
	last := cell(t, tab, len(tab.Rows)-1, 2)
	if first >= 0 {
		t.Errorf("byte-alloc penalty at 0%% overhead = %v; expected byte addressing to win there", first)
	}
	if last <= 0 {
		t.Errorf("byte-alloc penalty at 25%% overhead = %v; expected word addressing to win there", last)
	}
}
