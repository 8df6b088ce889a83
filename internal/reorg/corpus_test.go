package reorg_test

import (
	"reflect"
	"testing"

	"mips/internal/asm"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/lang"
	"mips/internal/reorg"
)

// corpusUnit is one corpus program's sequential-semantics unit, as the
// compiler hands it to the reorganizer.
type corpusUnit struct {
	name string
	unit *asm.Unit
}

// corpusUnits generates every corpus program under the given options.
func corpusUnits(tb testing.TB, mopt codegen.MIPSOptions) []corpusUnit {
	tb.Helper()
	var out []corpusUnit
	for _, p := range corpus.All() {
		prog, err := lang.Parse(p.Source)
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		u, err := codegen.GenMIPS(prog, mopt)
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		out = append(out, corpusUnit{p.Name, u})
	}
	return out
}

// TestKeptLivenessOnCorpus: on every corpus unit, the liveness the
// delay pass keeps across fills equals a fresh solve after every fill.
func TestKeptLivenessOnCorpus(t *testing.T) {
	for _, mode := range []lang.AllocMode{lang.WordAlloc, lang.ByteAlloc} {
		for _, cu := range corpusUnits(t, codegen.MIPSOptions{Mode: mode}) {
			for _, opt := range reorg.FillOptionSets {
				st, err := reorg.CheckKeptLiveness(cu.unit, opt)
				if err != nil {
					t.Fatalf("%s (mode %v, %+v): %v", cu.name, mode, opt, err)
				}
				if opt == reorg.All() && st.SchemeLoop+st.SchemeHoist == 0 {
					t.Errorf("%s (mode %v): no global fill to check", cu.name, mode)
				}
			}
		}
	}
}

// TestReorganizeLeavesInputUntouched: under every option set, the unit
// handed to Reorganize is deeply equal afterwards to a copy taken before.
func TestReorganizeLeavesInputUntouched(t *testing.T) {
	for _, cu := range corpusUnits(t, codegen.MIPSOptions{}) {
		for name, opt := range reorg.AllOptionSets {
			before := reorg.CloneUnit(cu.unit)
			reorg.Reorganize(cu.unit, opt)
			if !reflect.DeepEqual(cu.unit, before) {
				t.Errorf("%s/%s: Reorganize modified its input", cu.name, name)
			}
		}
	}
}

// TestReorganizeAllocs bounds the full reorganizer's allocations per
// output word on every corpus program: the output itself costs about
// one or two, and nothing the reorganizer derives along the way may
// grow with the number of fills or the size of a block.
func TestReorganizeAllocs(t *testing.T) {
	const perWord = 4
	for _, cu := range corpusUnits(t, codegen.MIPSOptions{}) {
		ro, _ := reorg.Reorganize(cu.unit, reorg.All())
		words := float64(len(ro.Stmts))
		allocs := testing.AllocsPerRun(5, func() { reorg.Reorganize(cu.unit, reorg.All()) })
		t.Logf("%-10s %5.0f words %7.0f allocs  %.2f/word", cu.name, words, allocs, allocs/words)
		if allocs > perWord*words {
			t.Errorf("%s: %.0f allocations for %.0f words (%.2f/word), want at most %d/word",
				cu.name, allocs, words, allocs/words, perWord)
		}
	}
}

// sinkUnit keeps the benchmark's results live.
var sinkUnit *asm.Unit

// BenchmarkReorganize runs the full reorganizer over every corpus unit
// per iteration; the units are generated outside the timer.
func BenchmarkReorganize(b *testing.B) {
	units := corpusUnits(b, codegen.MIPSOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cu := range units {
			sinkUnit, _ = reorg.Reorganize(cu.unit, reorg.All())
		}
	}
}
