package corpus

import (
	"testing"

	"mips/internal/ccarch"
	"mips/internal/codegen"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
)

func interpOutput(t *testing.T, p Program, mode lang.AllocMode) string {
	t.Helper()
	prog, err := lang.Parse(p.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", p.Name, err)
	}
	out, err := (&lang.Interp{Mode: mode, Fuel: 500_000_000}).Run(prog)
	if err != nil {
		t.Fatalf("%s: interp: %v", p.Name, err)
	}
	return out
}

func TestCorpusGoldenOutputs(t *testing.T) {
	for _, p := range All() {
		out := interpOutput(t, p, lang.WordAlloc)
		if p.Output != "" && out != p.Output {
			t.Errorf("%s: interp output = %q, want golden %q", p.Name, out, p.Output)
		}
		if out == "" {
			t.Errorf("%s: produced no output", p.Name)
		}
		// Allocation mode must not change observable behavior.
		if byteOut := interpOutput(t, p, lang.ByteAlloc); byteOut != out {
			t.Errorf("%s: byte-allocated output differs: %q vs %q", p.Name, byteOut, out)
		}
	}
}

func TestCorpusRunsOnMIPS(t *testing.T) {
	for _, p := range All() {
		if p.Heavy && testing.Short() {
			continue
		}
		want := interpOutput(t, p, lang.WordAlloc)
		for _, mode := range []lang.AllocMode{lang.WordAlloc, lang.ByteAlloc} {
			im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{Mode: mode}, reorg.All())
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", p.Name, mode, err)
			}
			res, err := codegen.RunMIPS(im, 500_000_000)
			if err != nil {
				t.Fatalf("%s/%s: run: %v", p.Name, mode, err)
			}
			if len(res.Hazards) > 0 {
				t.Fatalf("%s/%s: hazard: %v", p.Name, mode, res.Hazards[0])
			}
			if res.Output != want {
				t.Errorf("%s/%s: output = %q, want %q", p.Name, mode, res.Output, want)
			}
		}
	}
}

func TestCorpusRunsOnCCMachine(t *testing.T) {
	for _, p := range All() {
		if p.Heavy && testing.Short() {
			continue
		}
		want := interpOutput(t, p, lang.WordAlloc)
		prog, err := lang.Parse(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []codegen.BoolStrategy{codegen.BoolFullEval, codegen.BoolEarlyOut} {
			res, err := codegen.GenCC(prog, codegen.CCOptions{
				Policy: ccarch.PolicyVAX, Strategy: strat, Eliminate: true,
			})
			if err != nil {
				t.Fatalf("%s/%s: gen: %v", p.Name, strat, err)
			}
			out, _, err := codegen.RunCC(res, ccarch.PolicyVAX, 500_000_000)
			if err != nil {
				t.Fatalf("%s/%s: run: %v", p.Name, strat, err)
			}
			if out != want {
				t.Errorf("%s/%s: output = %q, want %q", p.Name, strat, out, want)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) < 8 {
		t.Errorf("corpus has only %d programs", len(All()))
	}
	if len(Table11()) != 3 {
		t.Errorf("Table 11 set = %d programs", len(Table11()))
	}
	if _, err := Get("fib"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Error("expected lookup failure")
	}
	seen := map[string]bool{}
	for _, p := range All() {
		if seen[p.Name] {
			t.Errorf("duplicate program name %s", p.Name)
		}
		seen[p.Name] = true
		if p.Role == "" {
			t.Errorf("%s: missing role", p.Name)
		}
	}
}

func TestCorpusImagesEncodeToBits(t *testing.T) {
	// Bit-level fidelity: every fully optimized corpus image encodes to
	// exactly one 32-bit word per instruction and decodes back to a
	// program with the identical rendering.
	for _, p := range All() {
		im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		bits, err := isa.EncodeProgram(im.Words, im.TextBase)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		decoded, err := isa.DecodeProgram(bits, im.TextBase)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		for i := range decoded {
			if decoded[i].String() != im.Words[i].String() {
				t.Fatalf("%s: word %d: %q != %q", p.Name, i, decoded[i], im.Words[i])
			}
		}
	}
}

// TestImageValidateAllocs holds image validation, which every LoadImage
// and Assemble runs, to zero allocations on every compiled corpus image.
func TestImageValidateAllocs(t *testing.T) {
	for _, p := range All() {
		im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var verr error
		if n := testing.AllocsPerRun(5, func() { verr = im.Validate() }); n != 0 {
			t.Errorf("%s: Validate allocated %.0f times per run, want 0", p.Name, n)
		}
		if verr != nil {
			t.Errorf("%s: %v", p.Name, verr)
		}
	}
}
