package mem

import "testing"

// BenchmarkPhysicalLoadStore measures the per-access cost of the word
// load/store path, with page-creation costs excluded: the accessed
// window is written once before timing. Each op is four loads and one
// store at pseudo-random addresses in a 16-page window. "plain" is a
// memory with no backing; "fork" is a copy-on-write fork of a golden
// image.
func BenchmarkPhysicalLoadStore(b *testing.B) {
	const (
		words  = 1 << 20
		window = 16 * PageWords
		base   = 64 * PageWords
	)
	plain := NewPhysical(words)
	for a := uint32(base); a < base+window; a += PageWords {
		plain.Write(a, 1)
	}
	fork := GoldenFromState(plain.CaptureState()).Fork()
	for a := uint32(base); a < base+window; a += PageWords {
		fork.Write(a, 1)
	}
	for _, c := range []struct {
		name string
		p    *Physical
	}{{"plain", plain}, {"fork", fork}} {
		b.Run(c.name, func(b *testing.B) {
			p := c.p
			x := uint32(0xACE1)
			var sum uint32
			for i := 0; i < b.N; i++ {
				for k := 0; k < 4; k++ {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					v, _ := p.Read(base + x%window)
					sum += v
				}
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				p.Write(base+x%window, sum)
			}
		})
	}
}
