package cpu_test

import (
	"testing"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// publishedOpsPerWord bounds the compiled ops of a settled image's
// published traces per distinct instruction-memory word they cover.
// Traces overlap by design (a loop entered from several places is
// copied into each path that reaches it), but a recording ends where
// another machine published a trace, so the copies stay few. Without that rule the short programs read 6.3
// to 9.2 ops per word; with it, at most 4.2 (tokenizer).
const publishedOpsPerWord = 5

// TestPublishedTraceOpsBounded loads each short program twenty-one
// times over one image — every machine publishes on the image's golden
// code and pools its heat there — and bounds the ops the image's
// published traces hold per word they cover. Published traces live as
// long as their image, so this is memory per image, not per job.
func TestPublishedTraceOpsBounded(t *testing.T) {
	for _, name := range shortCorpus {
		t.Run(name, func(t *testing.T) {
			p, err := corpus.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
			if err != nil {
				t.Fatal(err)
			}
			var code *cpu.GoldenCode
			for i := range 21 {
				m, err := sim.New(sim.WithEngine(sim.Traces))
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Load(im); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(10_000_000); err != nil {
					t.Fatal(err)
				}
				g := cpu.Code(m.CPU())
				if i > 0 && g != code {
					t.Fatalf("machine %d runs on another golden code than machine 1", i+1)
				}
				code = g
			}
			traces, ops, words := code.TraceCensus()
			t.Logf("%d published traces: %d ops over %d words (%.2f per word)", traces, ops, words, float64(ops)/float64(words))
			if words == 0 || ops > publishedOpsPerWord*words {
				t.Errorf("published traces hold %d ops over %d words, want at most %d per word", ops, words, publishedOpsPerWord)
			}
		})
	}
}

// blockBytesBound bounds what a fresh machine's translations hold per
// block: the machine's block record, the block's immutable part and the
// words it caches. The corpus programs read 190 (fib) to 268 (puzzle0)
// bytes per block; with a flat decoded record per cached word they read
// 535 to 871.
const blockBytesBound = 320

// TestTranslationFootprint runs every corpus program once on a fresh
// trace-tier machine, over an image compiled for it so that no other
// machine shares its translations, and bounds the bytes its block table's
// translations hold per block. It logs one JSON line per program: the
// blocks translated, the words they cache, and their bytes.
func TestTranslationFootprint(t *testing.T) {
	for _, p := range corpus.All() {
		im, _, err := codegen.CompileMIPS(p.Source, codegen.MIPSOptions{}, reorg.All())
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(sim.WithEngine(sim.Traces))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(im); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		blocks, words, bytes := cpu.TranslationFootprint(m.CPU())
		t.Logf(`{"program":%q,"blocks":%d,"words":%d,"bytes":%d}`, p.Name, blocks, words, bytes)
		if blocks == 0 || bytes > blockBytesBound*uintptr(blocks) {
			t.Errorf("%s: %d blocks hold %d bytes, want at most %d per block", p.Name, blocks, bytes, blockBytesBound)
		}
	}
}
