package mem

import (
	"sync"
	"testing"
)

// goldenFixture builds a Golden whose contents are a recognizable
// function of the address, with the first ROM words sealed.
func goldenFixture(t *testing.T, words int, romLimit uint32) *Golden {
	t.Helper()
	p := NewPhysical(words)
	for a := 0; a < words; a++ {
		p.Poke(uint32(a), uint32(a)*3+7)
	}
	p.SealROM(romLimit)
	return GoldenFromState(p.CaptureState())
}

func TestCOWForkReadsGolden(t *testing.T) {
	const words = 4 * PageWords
	g := goldenFixture(t, words, 8)
	f := g.Fork()
	if f.Size() != uint32(words) {
		t.Fatalf("fork size = %d, want %d", f.Size(), words)
	}
	if f.ROMLimit() != 8 {
		t.Fatalf("fork ROM limit = %d, want 8", f.ROMLimit())
	}
	for _, a := range []uint32{0, 1, PageWords - 1, PageWords, 2*PageWords + 5, words - 1} {
		v, fault := f.Read(a)
		if fault != nil {
			t.Fatalf("Read(%#x) fault: %v", a, fault)
		}
		if want := a*3 + 7; v != want {
			t.Fatalf("Read(%#x) = %d, want %d", a, v, want)
		}
		if pv := f.Peek(a); pv != v {
			t.Fatalf("Peek(%#x) = %d, Read = %d", a, pv, v)
		}
	}
	if st := f.COWStats(); !st.Forked || st.PrivatePages != 0 || st.Faults != 0 {
		t.Fatalf("fresh fork COWStats = %+v, want forked with no private pages", st)
	}
	// A fork allocates at most its Physical and its top-level table: no
	// frames before a write.
	if n := testing.AllocsPerRun(10, func() { g.Fork() }); n > 2 {
		t.Fatalf("Fork allocated %v objects, want at most 2", n)
	}
}

func TestCOWFirstWritePrivatizesOnePage(t *testing.T) {
	const words = 4 * PageWords
	g := goldenFixture(t, words, 0)
	f := g.Fork()

	addr := uint32(PageWords + 3) // page 1
	if fault := f.Write(addr, 12345); fault != nil {
		t.Fatalf("Write fault: %v", fault)
	}
	st := f.COWStats()
	if st.PrivatePages != 1 || st.Faults != 1 {
		t.Fatalf("after one write COWStats = %+v, want 1 private page, 1 fault", st)
	}

	// The written word changed; the rest of the privatized page kept the
	// golden contents; other pages still read golden.
	if v := f.Peek(addr); v != 12345 {
		t.Fatalf("Peek(written) = %d, want 12345", v)
	}
	for _, a := range []uint32{PageWords, PageWords + 2, 2*PageWords - 1, 0, 2 * PageWords} {
		if a == addr {
			continue
		}
		if v := f.Peek(a); v != a*3+7 {
			t.Fatalf("Peek(%#x) = %d, want golden %d", a, v, a*3+7)
		}
	}
	// The golden image itself is untouched.
	if v := g.Fork().Peek(addr); v != addr*3+7 {
		t.Fatalf("golden mutated by fork write: a new fork reads %d", v)
	}

	// A second write to the same page faults no further frame copies.
	if fault := f.Write(addr+1, 999); fault != nil {
		t.Fatalf("second Write fault: %v", fault)
	}
	if st := f.COWStats(); st.Faults != 1 {
		t.Fatalf("second write to privatized page re-faulted: %+v", st)
	}
}

func TestCOWForkROMProtected(t *testing.T) {
	g := goldenFixture(t, 2*PageWords, 16)
	f := g.Fork()
	if fault := f.Write(3, 1); fault == nil {
		t.Fatalf("write below ROM limit succeeded on fork")
	}
	if st := f.COWStats(); st.Faults != 0 {
		t.Fatalf("faulted ROM write still copied a frame: %+v", st)
	}
	// Poke ignores the seal but still breaks COW.
	f.Poke(3, 42)
	if v := f.Peek(3); v != 42 {
		t.Fatalf("Poke through ROM = %d, want 42", v)
	}
	if st := f.COWStats(); st.Faults != 1 || st.PrivatePages != 1 {
		t.Fatalf("Poke did not break COW: %+v", st)
	}
}

func TestCOWCaptureFlattens(t *testing.T) {
	const words = 4 * PageWords
	g := goldenFixture(t, words, 8)
	f := g.Fork()
	f.Poke(2*PageWords+1, 555)

	// Reference: a plain memory with the same effective contents.
	ref := NewPhysical(words)
	for a := 0; a < words; a++ {
		ref.Poke(uint32(a), uint32(a)*3+7)
	}
	ref.Poke(2*PageWords+1, 555)
	ref.SealROM(8)

	got, want := f.CaptureState(), ref.CaptureState()
	if got.Size != want.Size || got.ROMLimit != want.ROMLimit || len(got.Runs) != len(want.Runs) {
		t.Fatalf("fork capture shape %d/%d/%d runs, want %d/%d/%d",
			got.Size, got.ROMLimit, len(got.Runs), want.Size, want.ROMLimit, len(want.Runs))
	}
	for i := range got.Runs {
		if got.Runs[i].Base != want.Runs[i].Base || len(got.Runs[i].Words) != len(want.Runs[i].Words) {
			t.Fatalf("run %d: base %d len %d, want base %d len %d", i,
				got.Runs[i].Base, len(got.Runs[i].Words), want.Runs[i].Base, len(want.Runs[i].Words))
		}
		for k := range got.Runs[i].Words {
			if got.Runs[i].Words[k] != want.Runs[i].Words[k] {
				t.Fatalf("run %d word %d = %d, want %d", i, k, got.Runs[i].Words[k], want.Runs[i].Words[k])
			}
		}
	}
}

func TestCOWRestoreDropsSharing(t *testing.T) {
	const words = 2 * PageWords
	g := goldenFixture(t, words, 0)
	f := g.Fork()

	src := NewPhysical(words)
	src.Poke(5, 111)
	src.Poke(PageWords+9, 222)
	if err := f.RestoreState(src.CaptureState()); err != nil {
		t.Fatalf("RestoreState over fork: %v", err)
	}
	if st := f.COWStats(); st.Forked {
		t.Fatalf("restore left fork sharing golden frames: %+v", st)
	}
	if v := f.Peek(5); v != 111 {
		t.Fatalf("Peek(5) = %d, want 111", v)
	}
	if v := f.Peek(PageWords + 9); v != 222 {
		t.Fatalf("Peek = %d, want 222", v)
	}
	if v := f.Peek(1); v != 0 {
		t.Fatalf("Peek(1) = %d, want 0 (golden contents must be gone)", v)
	}
}

// TestCOWFlatten pins that a fork's capture is self-contained: restored
// into a plain memory, it reproduces the fork's private writes and the
// golden contents it still shares, with no tie to the golden left.
func TestCOWFlatten(t *testing.T) {
	const words = 3 * PageWords
	g := goldenFixture(t, words, 4)
	f := g.Fork()
	f.Poke(PageWords, 9)
	p := NewPhysical(words)
	if err := p.RestoreState(f.CaptureState()); err != nil {
		t.Fatal(err)
	}
	if st := p.COWStats(); st.Forked {
		t.Fatalf("restored capture still shares: %+v", st)
	}
	if p.ROMLimit() != 4 {
		t.Fatalf("ROM limit = %d, want 4", p.ROMLimit())
	}
	if v := p.Peek(PageWords); v != 9 {
		t.Fatalf("capture lost private write: %d", v)
	}
	for _, a := range []uint32{0, PageWords - 1, 2*PageWords + 7} {
		if v := p.Peek(a); v != a*3+7 {
			t.Fatalf("capture lost golden word %#x: %d", a, v)
		}
	}
}

// TestCOWConcurrentForks exercises the Golden sharing contract under the
// race detector: many forks reading and writing the same pages from
// separate goroutines must not race on the shared frames.
func TestCOWConcurrentForks(t *testing.T) {
	const words = 8 * PageWords
	g := goldenFixture(t, words, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			f := g.Fork()
			for a := uint32(0); a < words; a += 17 {
				if v := f.Peek(a); v != a*3+7 {
					t.Errorf("fork %d: Peek(%#x) = %d, want %d", seed, a, v, a*3+7)
					return
				}
			}
			for a := uint32(0); a < words; a += PageWords / 2 {
				if fault := f.Write(a, seed*1000+a); fault != nil {
					t.Errorf("fork %d: Write(%#x): %v", seed, a, fault)
					return
				}
			}
			for a := uint32(0); a < words; a += PageWords / 2 {
				if v := f.Peek(a); v != seed*1000+a {
					t.Errorf("fork %d: read back %#x = %d, want %d", seed, a, v, seed*1000+a)
					return
				}
			}
		}(uint32(i))
	}
	wg.Wait()
}

func TestCOWNonPageMultipleSize(t *testing.T) {
	words := 2*PageWords + 10 // partial last page
	g := goldenFixture(t, words, 0)
	f := g.Fork()
	last := uint32(words - 1)
	if fault := f.Write(last, 77); fault != nil {
		t.Fatalf("Write(last): %v", fault)
	}
	if v := f.Peek(last); v != 77 {
		t.Fatalf("Peek(last) = %d, want 77", v)
	}
	if _, fault := f.Read(uint32(words)); fault == nil {
		t.Fatalf("read past end of fork succeeded")
	}
}

// TestFillPageMatchesPokes holds the page-granular fill to what
// PageWords zero Pokes followed by one Poke per data word leave: the
// frame's contents and COWStats, on a
// fork (shared page, private page) and on a plain memory.
func TestFillPageMatchesPokes(t *testing.T) {
	g := goldenFixture(t, 4*PageWords, 0)
	data := []uint32{9, 0, 8, 7}
	for _, tc := range []struct {
		name string
		mk   func() *Physical
	}{
		{"fork", g.Fork},
		{"fork, page already private", func() *Physical {
			f := g.Fork()
			f.Poke(2*PageWords+5, 1)
			return f
		}},
		{"plain", func() *Physical { return NewPhysical(4 * PageWords) }},
		{"partial last page", func() *Physical { return NewPhysical(2*PageWords + 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pokes, fill := tc.mk(), tc.mk()
			base := uint32(2 * PageWords)
			for i := uint32(0); i < PageWords; i++ {
				pokes.Poke(base+i, 0)
			}
			for i, w := range data {
				pokes.Poke(base+uint32(i), w)
			}
			fill.FillPage(2, data)
			for a := uint32(0); a < 4*PageWords; a++ {
				if pokes.Peek(a) != fill.Peek(a) {
					t.Fatalf("word %#x: pokes %d, fill %d", a, pokes.Peek(a), fill.Peek(a))
				}
			}
			if ps, fs := pokes.COWStats(), fill.COWStats(); ps != fs {
				t.Fatalf("COWStats %+v, want %+v", fs, ps)
			}
		})
	}
}

// TestCOWSilentStoreKeepsSharing pins that a store leaving its word as
// it was copies no frame, while a store that
// changes a word copies the page as before.
func TestCOWSilentStoreKeepsSharing(t *testing.T) {
	g := goldenFixture(t, 4*PageWords, 0)
	f := g.Fork()
	addr := uint32(PageWords + 3)
	if fault := f.Write(addr, addr*3+7); fault != nil {
		t.Fatal(fault)
	}
	if st := f.COWStats(); st.PrivatePages != 0 || st.Faults != 0 {
		t.Fatalf("silent store: %+v; want no copy", st)
	}
	if fault := f.Write(addr, 1); fault != nil {
		t.Fatal(fault)
	}
	if st := f.COWStats(); st.PrivatePages != 1 || st.Faults != 1 || f.Peek(addr) != 1 || g.Fork().Peek(addr) != addr*3+7 {
		t.Fatalf("changing store: %+v; want one page copied and the golden frame intact", st)
	}
}
