package lang

import (
	"strings"
	"testing"

	"mips/internal/corpus"
)

// FuzzParse feeds the front end arbitrary source. Parse must return a
// program or an error, never panic; a program it returns must run under
// the interpreter in both allocation modes to output or an error, never
// a panic. Seeds are the corpus, each corpus program cut in half, and
// programs at the front end's bounds.
func FuzzParse(f *testing.F) {
	for _, p := range corpus.All() {
		f.Add(p.Source)
		f.Add(p.Source[:len(p.Source)/2])
	}
	f.Add("program big; var a: array[0..65535] of integer; begin a[65535] := 1 end.")
	f.Add("program huge; var a: array[0..2147483647] of integer; begin a[1] := 1 end.")
	f.Add("program rec; var r: record x: array[0..65535] of char; y: integer end; begin r.y := 1 end.")
	f.Add("program deep; procedure p(var n: integer); var a: array[0..99] of integer; begin n := n + 1; p(n) end;\nvar i: integer; begin p(i) end.")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		for _, mode := range []AllocMode{WordAlloc, ByteAlloc} {
			ip := &Interp{Mode: mode, Fuel: 10_000, OnRef: func(RefEvent) {}}
			ip.Run(prog)
		}
	})
}

// TestFrontEndBounds: a type larger than the machines' memory is a
// parse error, and a program that outgrows the interpreter's storage or
// call depth stops with an error.
func TestFrontEndBounds(t *testing.T) {
	for _, src := range []string{
		"program p; var a: array[0..65536] of integer; begin end.",
		"program p; var a: array[0..2147483647] of integer; begin end.",
		"program p; var a: array[-2147483648..2147483647] of integer; begin end.",
		"program p; var a: array[0..65535] of array[0..65535] of char; begin end.",
		"program p; var r: record x: array[0..65535] of integer; y: integer end; begin end.",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: error %v, want a size error", src, err)
		}
	}
	for src, want := range map[string]string{
		"program p; procedure q; begin q end; begin q end.":                                                     "deeper",
		"program p; procedure q; var a: array[0..65535] of integer; begin q end; begin q end.":                  "live storage",
		"program p; var a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, q, r: array[0..65535] of char; begin end.": "live storage",
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := (&Interp{}).Run(prog); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", src, err, want)
		}
	}
	// Sixteen 64K-cell locals per call: the fuel, not the host, bounds
	// how much storage a run zeroes.
	prog, err := Parse("program p; var x: integer; procedure q; var a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, r: array[0..65535] of char; begin end; begin for x := 1 to 10000 do q end.")
	if err != nil {
		t.Fatal(err)
	}
	ip := &Interp{Fuel: 10_000}
	if _, err := ip.Run(prog); err != ErrFuel {
		t.Errorf("calls zeroing 1M cells each: error %v, want %v", err, ErrFuel)
	}
}
