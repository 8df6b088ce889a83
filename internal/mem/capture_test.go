package mem

import (
	"reflect"
	"testing"
)

// referenceCapture is the word-by-word capture scan: every word of the
// memory, in address order, with a run closed after more than
// physRunGap zeros. CaptureState must produce exactly its result while
// visiting only pages that have frames.
func referenceCapture(p *Physical) PhysState {
	st := PhysState{Size: p.Size(), ROMLimit: p.ROMLimit()}
	i, n := 0, int(p.Size())
	for i < n {
		if p.Peek(uint32(i)) == 0 {
			i++
			continue
		}
		start, last := i, i
		zeros := 0
		for i++; i < n; i++ {
			if p.Peek(uint32(i)) != 0 {
				last, zeros = i, 0
				continue
			}
			if zeros++; zeros > physRunGap {
				break
			}
		}
		run := make([]uint32, last-start+1)
		for k := range run {
			run[k] = p.Peek(uint32(start + k))
		}
		st.Runs = append(st.Runs, PhysRun{Base: uint32(start), Words: run})
	}
	return st
}

// lfsr is a 32-bit Galois LFSR: a fixed, seedable write schedule.
type lfsr uint32

func (l *lfsr) next() uint32 {
	v := uint32(*l)
	v = v>>1 ^ -(v&1)&0xA3000000
	*l = lfsr(v)
	return v
}

// untouchedPage is a page no test write reaches, so every memory keeps
// one page with no frame between pages that have frames.
const untouchedPage = 2

// scribble stores n LFSR-chosen values at LFSR-chosen addresses below
// limit, skipping untouchedPage; about a third of the values are zero.
func scribble(p *Physical, seed lfsr, n int, limit uint32) {
	for k := 0; k < n; k++ {
		addr := seed.next() % limit
		if addr>>PageBits == untouchedPage {
			continue
		}
		val := seed.next()
		if val%3 == 0 {
			val = 0
		}
		p.Poke(addr, val)
	}
}

// edgeWrites lays down the shapes the page-skipping scan must get
// right: nonzero words within physRunGap of a page end followed by a
// page nothing touched, runs straddling pages, gaps of exactly
// physRunGap and physRunGap+1 zeros across a page boundary, and zeros
// stored into private frames.
func edgeWrites(p *Physical) {
	p.Poke(untouchedPage*PageWords-5, 0x11)
	p.Poke(untouchedPage*PageWords-1, 0x12)
	p.Poke((untouchedPage+1)*PageWords+2, 0x13)
	for a := uint32(4*PageWords - 3); a < 4*PageWords+3; a++ {
		p.Poke(a, a) // one run across pages 3 and 4
	}
	p.Poke(5*PageWords-8, 0x51) // 16 zeros to the next word: one run
	p.Poke(5*PageWords+8, 0x52)
	p.Poke(6*PageWords-8, 0x61) // 17 zeros to the next word: two runs
	p.Poke(6*PageWords+9, 0x62)
	p.Poke(7*PageWords+100, 0) // a private frame of zeros
	p.Poke(6*PageWords+9, 0)   // a nonzero word zeroed again
}

func TestCaptureMatchesWordScan(t *testing.T) {
	check := func(name string, p *Physical) {
		t.Helper()
		if got, want := p.CaptureState(), referenceCapture(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CaptureState has %d runs, word-by-word scan %d; they differ",
				name, len(got.Runs), len(want.Runs))
		}
	}
	for _, words := range []int{12 * PageWords, 12*PageWords + 37} {
		top := uint32(words)

		plain := NewPhysical(words)
		check("empty", plain)
		edgeWrites(plain)
		scribble(plain, 0xACE1, 200, 3*PageWords)
		scribble(plain, 0x1D872B41, 40, top)
		plain.Poke(top-1, 7) // a run ending at the last word
		check("plain", plain)

		golden := NewPhysical(words)
		scribble(golden, 0xBEEF, 300, top)
		golden.SealROM(16)
		g := GoldenFromState(golden.CaptureState())
		fork := g.Fork()
		check("fresh fork", fork)
		edgeWrites(fork)
		scribble(fork, 0x5EED, 300, top)
		check("fork", fork)

		restored := NewPhysical(words)
		if err := restored.RestoreState(fork.CaptureState()); err != nil {
			t.Fatal(err)
		}
		check("restored", restored)
		scribble(restored, 0xC0FFEE, 300, top)
		edgeWrites(restored)
		check("restored then written", restored)
	}
}

// TestRestoreStateRejectsBadCaptures pins that RestoreState refuses a
// capture of another size or with a run outside the memory, and leaves
// the memory as it was.
func TestRestoreStateRejectsBadCaptures(t *testing.T) {
	p := NewPhysical(2 * PageWords)
	p.Poke(3, 33)
	for _, st := range []PhysState{
		{Size: 4 * PageWords},
		{Size: 2 * PageWords, Runs: []PhysRun{{Base: 2*PageWords - 1, Words: []uint32{1, 2}}}},
		{Size: 2 * PageWords, Runs: []PhysRun{{Base: 1<<32 - 1, Words: []uint32{1, 2}}}},
	} {
		if err := p.RestoreState(st); err == nil {
			t.Fatalf("RestoreState accepted %+v", st)
		}
	}
	if p.Peek(3) != 33 {
		t.Fatalf("rejected restore changed memory")
	}
	big := PhysState{Size: MaxPhysWords + 1}
	if err := big.Validate(); err == nil {
		t.Fatalf("Validate accepted %d words", big.Size)
	}
}
