package asm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"mips/internal/asm"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// FuzzAssemble runs assembly source through the whole path a program
// takes to a machine: asm.Parse, reorg.Reorganize with every
// transformation on, asm.Assemble, then Load on a bare machine. Each
// step may reject its input with an error; none may panic.
func FuzzAssemble(f *testing.F) {
	for _, src := range asmTestSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := asm.Parse(src)
		if err != nil {
			return
		}
		u, _ = reorg.Reorganize(u, reorg.All())
		im, err := asm.Assemble(u)
		if err != nil {
			return
		}
		m, err := sim.New()
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Load(im)
	})
}

// asmTestSources returns every string literal in asm_test.go: the
// programs and pieces the package's own tests parse and assemble, good
// and bad alike.
func asmTestSources(f *testing.F) []string {
	file, err := parser.ParseFile(token.NewFileSet(), "asm_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var srcs []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				srcs = append(srcs, s)
			}
		}
		return true
	})
	if len(srcs) == 0 {
		f.Fatal("asm_test.go holds no string literals")
	}
	return srcs
}
