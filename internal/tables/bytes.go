package tables

import (
	"fmt"

	"mips/internal/lang"
)

func refTable(p *pass, id string, mode lang.AllocMode, paper [4]string) (*Table, error) {
	mix, err := p.corpusRefs(mode)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Data reference patterns in %s programs (dynamic)", mode),
		Header: []string{"reference class", "measured", "paper"},
	}
	t.AddRow("all loads", pct(mix.LoadFraction()), "71.2%")
	t.AddRow("all stores", pct(1-mix.LoadFraction()), "28.7%")
	t.AddRow("8-bit loads", pct(mix.Frac(mix.Loads8)), paper[0])
	t.AddRow("32-bit loads or larger", pct(mix.Frac(mix.Loads32)), paper[1])
	t.AddRow("8-bit stores", pct(mix.Frac(mix.Stores8)), paper[2])
	t.AddRow("32-bit stores or larger", pct(mix.Frac(mix.Stores32)), paper[3])
	if mode == lang.WordAlloc {
		t.AddRow("character refs: loads", pct(mix.CharFrac(mix.CharLoads8+mix.CharLoads32)), "66.7%")
		t.AddRow("character refs: stores", pct(mix.CharFrac(mix.CharStores8+mix.CharStores32)), "33.3%")
		t.AddRow("8-bit character loads", pct(mix.CharFrac(mix.CharLoads8)), "14.7%")
		t.AddRow("32-bit character loads", pct(mix.CharFrac(mix.CharLoads32)), "52.0%")
		t.AddRow("8-bit character stores", pct(mix.CharFrac(mix.CharStores8)), "21.5%")
		t.AddRow("32-bit character stores", pct(mix.CharFrac(mix.CharStores32)), "11.8%")
	}
	t.Note("%d data references over the corpus", mix.Total())
	return t, nil
}

// table7 regenerates the word-allocated reference mix.
// Paper: 8-bit loads 2.6%, 32-bit loads 68.6%, 8-bit stores 2.6%,
// 32-bit stores 26.2%.
func table7(p *pass) (*Table, error) {
	return refTable(p, "Table 7", lang.WordAlloc,
		[4]string{"2.6%", "68.6%", "2.6%", "26.2%"})
}

// table8 regenerates the byte-allocated reference mix.
// Paper: 8-bit loads 6.6%, 32-bit loads 64.6%, 8-bit stores 5.9%,
// 32-bit stores 22.9%.
func table8(p *pass) (*Table, error) {
	return refTable(p, "Table 8", lang.ByteAlloc,
		[4]string{"6.6%", "64.6%", "5.9%", "22.9%"})
}

// byteOpCosts is the Table 9 cost model. Word-addressed MIPS costs come
// from the paper's own instruction sequences (ld+xc, ld+movlo+ic+st)
// under the Table 9 weights (memory 4, ALU 2); the byte-addressed
// machine does each in one memory operation, but every operand fetch on
// it pays the critical-path overhead (paper estimate: 15-20%).
type byteOpCosts struct {
	overhead float64 // byte-addressed critical-path overhead factor
}

func (c byteOpCosts) byteMachine(base float64) float64 { return base * (1 + c.overhead) }

// The cost rows. MIPS sequences (AddressingCosts: mem 4, ALU 2):
//
//	load byte from array:  ld (b+i>>2) [4] + xc [2]                 = 6
//	store byte into array: [ld 4] + movlo 2 + ic 2 + st 4           = 8..12
//	load byte via pointer: srl 2 + ld 4 + xc 2                      = 8
//	store byte via pointer: srl 2 + [ld 4] + movlo 2 + ic 2 + st 4  = 10..18
//	load/store word: one memory reference                           = 4
const (
	mipsLoadArrayByte   = 6
	mipsStoreArrayByteL = 8
	mipsStoreArrayByteH = 12
	mipsLoadByte        = 8
	mipsStoreByteL      = 10
	mipsStoreByteH      = 18
	wordRef             = 4
)

// table9 renders the per-operation byte-access costs.
func table9(*pass) (*Table, error) {
	c := byteOpCosts{overhead: 0.15}
	t := &Table{
		ID:     "Table 9",
		Title:  "Cost of byte operations (cycles; byte-addressed overhead 15%)",
		Header: []string{"operation", "byte-addressed", "with overhead", "MIPS sequences", "paper (MIPS)"},
	}
	row := func(name string, base float64, mips string, paper string) {
		t.AddRow(name, f2(base), f2(c.byteMachine(base)), mips, paper)
	}
	row("load from byte array", 4, num(mipsLoadArrayByte), "6")
	row("store into byte array", 4, fmt.Sprintf("%d-%d", mipsStoreArrayByteL, mipsStoreArrayByteH), "8-12")
	row("load byte via pointer", 6, num(mipsLoadByte), "8")
	row("store byte via pointer", 6, fmt.Sprintf("%d-%d", mipsStoreByteL, mipsStoreByteH), "10-18")
	row("load word", 4, num(wordRef), "4")
	row("store word", 4, num(wordRef), "4")
	t.Note("MIPS byte sequences are the paper's §4.1 code (ld/xc and ld/movlo/ic/st) under memory=4, ALU=2 cycle weights")
	return t, nil
}

// table10 combines the measured reference mixes with the Table 9 cost
// model to compare total addressing cost on a word-addressed versus a
// byte-addressed machine.
//
// Paper: byte addressing carries a 9-11.8% penalty on word-allocated
// programs and 7.7-14.6% on byte-allocated programs.
func table10(p *pass) (*Table, error) {
	t := &Table{
		ID:     "Table 10",
		Title:  "Cost of byte- vs word-addressed architectures (per reference, weighted)",
		Header: []string{"programs", "overhead", "word-addr cost", "byte-addr cost", "byte penalty", "paper penalty"},
	}
	paper := map[lang.AllocMode]string{
		lang.WordAlloc: "9% - 11.8%",
		lang.ByteAlloc: "7.7% - 14.6%",
	}
	for _, mode := range []lang.AllocMode{lang.WordAlloc, lang.ByteAlloc} {
		mix, err := p.corpusRefs(mode)
		if err != nil {
			return nil, err
		}
		for _, overhead := range []float64{0.15, 0.20} {
			c := byteOpCosts{overhead: overhead}
			// Word-addressed machine: bytes through the MIPS sequences
			// (midpoint of the store range), words at cost 4.
			wordCost := float64(mix.Loads8)*mipsLoadArrayByte +
				float64(mix.Stores8)*(mipsStoreArrayByteL+mipsStoreArrayByteH)/2 +
				float64(mix.Loads32+mix.Stores32)*wordRef
			// Byte-addressed machine: single references, all paying the
			// critical-path overhead.
			byteCost := c.byteMachine(float64(mix.Loads8)*wordRef +
				float64(mix.Stores8)*wordRef +
				float64(mix.Loads32+mix.Stores32)*wordRef)
			n := float64(mix.Total())
			penalty := (byteCost - wordCost) / wordCost
			t.AddRow(mode.String(), pct(overhead), f2(wordCost/n), f2(byteCost/n),
				pct(penalty), paper[mode])
		}
	}
	t.Note("positive penalty = the word-addressed machine wins; the paper's crossover logic: word references dominate, so the per-fetch overhead outweighs the occasional multi-instruction byte sequence")
	return t, nil
}
