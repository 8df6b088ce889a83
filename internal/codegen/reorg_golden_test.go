package codegen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mips/internal/asm"
	"mips/internal/corpus"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
)

const reorgGoldenPath = "testdata/reorg_corpus.golden"

// reorgGoldenOptions are the reorganizer configurations the golden pins:
// the Table 11 stages, the interlocked counterfactual, and delay filling
// on its own.
var reorgGoldenOptions = []struct {
	name string
	opt  reorg.Options
}{
	{"none", reorg.Options{}},
	{"reorg", reorg.Options{Reorganize: true}},
	{"reorg+pack", reorg.Options{Reorganize: true, Pack: true}},
	{"all", reorg.All()},
	{"all+interlocks", reorg.Options{Reorganize: true, Pack: true, FillDelay: true, AssumeInterlocks: true}},
	{"delay-only", reorg.Options{FillDelay: true}},
}

// reorgGoldenLine compiles one corpus program and renders a line holding
// a hash of the encoded image (words, data, entry) and the full
// reorganizer statistics.
func reorgGoldenLine(t *testing.T, p corpus.Program, mopt MIPSOptions, oname string, ropt reorg.Options) string {
	t.Helper()
	prog, err := lang.Parse(p.Source)
	if err != nil {
		t.Fatalf("%s: parse: %v", p.Name, err)
	}
	u, err := GenMIPS(prog, mopt)
	if err != nil {
		t.Fatalf("%s: gen: %v", p.Name, err)
	}
	ro, st := reorg.Reorganize(u, ropt)
	im, err := asm.Assemble(ro)
	if err != nil {
		t.Fatalf("%s/%s: assemble: %v", p.Name, oname, err)
	}
	bits, err := isa.EncodeProgram(im.Words, im.TextBase)
	if err != nil {
		t.Fatalf("%s/%s: encode: %v", p.Name, oname, err)
	}
	h := sha256.New()
	put := func(v uint32) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(uint32(im.TextBase))
	put(uint32(im.Entry))
	put(uint32(len(bits)))
	for _, b := range bits {
		put(b)
	}
	addrs := make([]int32, 0, len(im.Data))
	for a := range im.Data {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		put(uint32(a))
		put(im.Data[a])
	}
	mode := "word"
	if mopt.Mode == lang.ByteAlloc {
		mode = "byte"
	}
	cond := "setcond"
	if mopt.NoSetCond {
		cond = "nosetcond"
	}
	return fmt.Sprintf("%s %s %s %s %x %+v", p.Name, mode, cond, oname, h.Sum(nil)[:12], st)
}

// TestReorgCorpusGolden pins the reorganized corpus byte for byte: every
// program under both allocation modes, with and without
// set-conditionally, under every reorganizer configuration. A change to
// the reorganizer that alters any emitted word, data item or statistic
// fails here; the new file is written under the test's temporary
// directory for inspection.
func TestReorgCorpusGolden(t *testing.T) {
	got := reorgGolden(t)
	want, err := os.ReadFile(reorgGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		path := filepath.Join(t.TempDir(), "reorg_corpus.golden")
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("reorganized corpus no longer matches %s (new file: %s)", reorgGoldenPath, path)
	}
}

// reorgGolden renders the golden file's contents.
func reorgGolden(t *testing.T) string {
	var b strings.Builder
	for _, p := range corpus.All() {
		for _, mode := range []lang.AllocMode{lang.WordAlloc, lang.ByteAlloc} {
			for _, noSet := range []bool{false, true} {
				for _, o := range reorgGoldenOptions {
					mopt := MIPSOptions{Mode: mode, NoSetCond: noSet}
					b.WriteString(reorgGoldenLine(t, p, mopt, o.name, o.opt))
					b.WriteByte('\n')
				}
			}
		}
	}
	return b.String()
}
