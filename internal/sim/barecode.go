package sim

import (
	"runtime"
	"sync"
	"weak"

	"mips/internal/cpu"
	"mips/internal/isa"
)

// Every bare machine loaded with the same image runs the same code: the
// monitor's rfe at word 0 and the image's text at its base. That code is
// built once per image into one golden code, which each machine forks
// (allocating no pages). The machines also share its translations
// (cpu.GoldenCode): each, the image's first included, publishes what it
// translates and adopts what the others published, so a block is
// translated and a trace formed about once per image, not once per run.
//
// The table holds its images weakly: an entry goes when its image is
// collected, and its golden code, translations included, goes with the
// last machine that forked it. An image is immutable once loaded, but an
// entry is rebuilt all the same if the image's text no longer matches
// what it was built from.
var bareCodes = struct {
	sync.Mutex
	m map[weak.Pointer[isa.Image]]*bareCode
}{m: make(map[weak.Pointer[isa.Image]]*bareCode)}

// bareCode is one image's golden code and the text it was built from.
type bareCode struct {
	textBase, entry int32
	words           int
	first           *isa.Instr // &Words[0], or nil for empty text
	code            *cpu.GoldenCode
}

// builtFrom reports whether e was built from im's current text.
func (e *bareCode) builtFrom(im *isa.Image) bool {
	return e.textBase == im.TextBase && e.entry == im.Entry && e.words == len(im.Words) && e.first == firstWord(im)
}

func firstWord(im *isa.Image) *isa.Instr {
	if len(im.Words) == 0 {
		return nil
	}
	return &im.Words[0]
}

// bareGoldenCode returns the golden code of a bare machine loaded with
// im, building and validating it on the image's first load. The caller
// has checked that the text lies inside [1, mem.MaxPhysWords).
func bareGoldenCode(im *isa.Image) (*cpu.GoldenCode, error) {
	key := weak.Make(im)
	bareCodes.Lock()
	defer bareCodes.Unlock()
	e, known := bareCodes.m[key]
	if known && e.builtFrom(im) {
		return e.code, nil
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	// Monitor calls vector through the exception path to physical
	// address zero; one rfe resumes after the trap (the host hook
	// already did the work). Images start above it (BareTextBase).
	runs := []cpu.CodeRun{
		{Base: 0, Words: []isa.Instr{isa.Word(isa.RFE())}},
		{Base: uint32(im.TextBase), Words: im.Words},
	}
	code := cpu.NewGoldenCode(uint32(im.TextBase)+uint32(len(im.Words)), runs)
	bareCodes.m[key] = &bareCode{textBase: im.TextBase, entry: im.Entry, words: len(im.Words), first: firstWord(im), code: code}
	if !known {
		runtime.AddCleanup(im, func(key weak.Pointer[isa.Image]) {
			bareCodes.Lock()
			delete(bareCodes.m, key)
			bareCodes.Unlock()
		}, key)
	}
	return code, nil
}
