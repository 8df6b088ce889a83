package tables

import (
	"fmt"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/lang"
	"mips/internal/reorg"
)

// ablationInterlocks quantifies the §4.2.1 tradeoff directly: what do
// software-imposed interlocks cost or buy against a counterfactual
// machine with hardware load interlocks?
//
// Four configurations per benchmark:
//
//	sw/naive:   real machine, no-ops inserted, no reorganization
//	sw/reorg:   real machine, full reorganizer (MIPS as shipped)
//	hw/naive:   interlock hardware, raw code order, stalls instead of no-ops
//	hw/reorg:   interlock hardware plus the same scheduling
//
// The paper's argument reproduced: the hardware buys code space against
// naive code but no cycles (a stall and a no-op both cost one cycle),
// and once the reorganizer runs, the hardware is almost pure overhead.
func ablationInterlocks(p *pass) (*Table, error) {
	t := &Table{
		ID:     "Ablation: interlocks",
		Title:  "Software-imposed vs hardware pipeline interlocks",
		Header: []string{"benchmark", "config", "static words", "cycles", "stalls", "no-op executions"},
	}
	type config struct {
		name string
		opt  reorg.Options
		hw   bool
	}
	configs := []config{
		{"sw/naive", reorg.Options{}, false},
		{"sw/reorg", reorg.All(), false},
		{"hw/naive", reorg.Options{AssumeInterlocks: true}, true},
		{"hw/reorg", func() reorg.Options { o := reorg.All(); o.AssumeInterlocks = true; return o }(), true},
	}
	for _, b := range corpus.Table11() {
		var outputs []string
		for _, cfg := range configs {
			im, _, err := p.compile(b.Source, codegen.MIPSOptions{}, cfg.opt)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, cfg.name, err)
			}
			res, err := p.run(b.Source, codegen.MIPSOptions{}, cfg.opt, 500_000_000, cfg.hw)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, cfg.name, err)
			}
			if cfg.hw && len(res.Hazards) > 0 {
				return nil, fmt.Errorf("%s/%s: hazards under interlocks", b.Name, cfg.name)
			}
			outputs = append(outputs, res.Output)
			t.AddRow(b.Name, cfg.name, num(len(im.Words)), num(res.Stats.Cycles),
				num(res.Stats.StallCycles), num(res.Stats.Nops))
		}
		for _, o := range outputs[1:] {
			if o != outputs[0] {
				return nil, fmt.Errorf("%s: configurations disagree on output", b.Name)
			}
		}
	}
	t.Note("hw/naive trades every load no-op for a stall cycle: smaller code, same cycles — the interlock hardware buys nothing the reorganizer does not already provide (paper §4.2.1)")
	return t, nil
}

// ablationDelaySchemes disables each branch-delay scheme in turn and
// reports the surviving fill rate — which of the paper's three schemes
// does the work on real code.
func ablationDelaySchemes(p *pass) (*Table, error) {
	t := &Table{
		ID:     "Ablation: branch-delay schemes",
		Title:  "Delay-slot fills by scheme over the corpus",
		Header: []string{"program", "slots", "filled", "scheme1 move", "scheme2 dup", "scheme3 hoist"},
	}
	var slots, filled, s1, s2, s3 int
	for _, prog := range corpus.All() {
		_, st, err := p.compile(prog.Source, codegen.MIPSOptions{}, reorg.All())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prog.Name, err)
		}
		t.AddRow(prog.Name, num(st.DelaySlots), num(st.DelayFilled),
			num(st.SchemeMoved), num(st.SchemeLoop), num(st.SchemeHoist))
		slots += st.DelaySlots
		filled += st.DelayFilled
		s1 += st.SchemeMoved
		s2 += st.SchemeLoop
		s3 += st.SchemeHoist
	}
	t.AddRow("TOTAL", num(slots), num(filled), num(s1), num(s2), num(s3))
	t.Note("fill rate %s; scheme 1 (move an independent prior instruction) dominates, as the paper's delayed-branch study [ref 5] also found", pct(float64(filled)/float64(max(1, slots))))
	return t, nil
}

// ablationByteOverhead sweeps the byte-addressing critical-path
// overhead parameter around the paper's 15-20% estimate and reports the
// Table 10 penalty at each point, locating the crossover.
func ablationByteOverhead(p *pass) (*Table, error) {
	t := &Table{
		ID:     "Ablation: byte-addressing overhead sweep",
		Title:  "Table 10 penalty as the critical-path overhead varies",
		Header: []string{"overhead", "word-alloc penalty", "byte-alloc penalty"},
	}
	mixes := map[lang.AllocMode]struct{ l8, s8, w uint64 }{}
	for _, mode := range []lang.AllocMode{lang.WordAlloc, lang.ByteAlloc} {
		mix, err := p.corpusRefs(mode)
		if err != nil {
			return nil, err
		}
		mixes[mode] = struct{ l8, s8, w uint64 }{mix.Loads8, mix.Stores8, mix.Loads32 + mix.Stores32}
	}
	for _, overhead := range []float64{0.0, 0.05, 0.10, 0.15, 0.20, 0.25} {
		row := []string{pct(overhead)}
		for _, mode := range []lang.AllocMode{lang.WordAlloc, lang.ByteAlloc} {
			m := mixes[mode]
			wordCost := float64(m.l8)*mipsLoadArrayByte +
				float64(m.s8)*(mipsStoreArrayByteL+mipsStoreArrayByteH)/2 +
				float64(m.w)*wordRef
			byteCost := (1 + overhead) * float64(m.l8+m.s8+m.w) * wordRef
			row = append(row, pct((byteCost-wordCost)/wordCost))
		}
		t.AddRow(row...)
	}
	t.Note("negative penalty = byte addressing wins; the crossover sits where the paper's argument predicts: only with near-zero hardware overhead (or far more byte traffic) does byte addressing pay")
	return t, nil
}
