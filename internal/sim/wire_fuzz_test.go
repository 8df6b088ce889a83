package sim

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"mips/internal/asm"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/reorg"
)

// FuzzRestoreWire mutates the code a decoded snapshot carries —
// instruction memory's length, its runs' bases, lengths and words, and
// the code pages on a kernel's backing store — and re-encodes it with a
// valid header and checksum, so each mutation reaches decodeWire's
// checks instead of dying at the checksum as FuzzRestore's byte
// mutations mostly do. Restore must return a machine or
// ErrSnapshotFormat, never panic, and reject within the allocation
// ceiling of TestSnapshotMemoryBoundsRejected. The top bit of op picks
// the base: the committed bare fixture or a kernel machine with a code
// page on its backing store.
func FuzzRestoreWire(f *testing.F) {
	fib, err := os.ReadFile("testdata/fib.snap")
	if err != nil {
		f.Fatal(err)
	}
	bases := [2][]byte{fib, kernelLoopSnapshot(f)}
	for base := range uint8(2) {
		for op := range uint8(wireMutations) {
			f.Add(base<<7|op, uint16(1), uint32(17), uint32(0x35))
		}
	}
	f.Add(uint8(1), uint16(0), uint32(1<<24), uint32(0))     // IMemLen at the limit
	f.Add(uint8(2), uint16(1), uint32(1<<32-1), uint32(0))   // a base that wraps
	f.Add(uint8(3), uint16(0), uint32(2000), uint32(7))      // a long run
	f.Add(uint8(1<<7|6), uint16(0), uint32(1500), uint32(0)) // a long disk page
	f.Fuzz(func(t *testing.T, op uint8, at uint16, v, w uint32) {
		wire, err := decodeWire(bytes.NewReader(bases[op>>7]))
		if err != nil {
			t.Fatal(err)
		}
		mutateWireCode(wire, op&0x7f, int(at), v, w)
		var buf bytes.Buffer
		if err := encodeWire(&buf, wire); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		var m *Machine
		n := heapBytes(func() { m, err = Restore(bytes.NewReader(snap)) })
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("Restore error %v, want ErrSnapshotFormat", err)
			}
			if n > 1<<20 {
				t.Fatalf("rejecting a %d-byte snapshot allocated %d bytes", len(snap), n)
			}
			return
		}
		m.RunSteps(100)
	})
}

// wireMutations counts mutateWireCode's operations.
const wireMutations = 7

// mutateWireCode applies mutation op of the wire's code, at index at
// (modulo the count of runs or pages), with values v and w: 0 none,
// 1 IMemLen, 2 a run's base, 3 a run's length, 4 a run's word, 5 a
// disk page's word, 6 a disk page's length. A length grows by copies of
// the existing words, so the grown part holds code.
func mutateWireCode(wire *snapshotWire, op uint8, at int, v, w uint32) {
	runs := wire.CPU.IMem
	var pages []kernel.DiskPage
	if wire.Kern != nil {
		pages = wire.Kern.DiskPages
	}
	switch op % wireMutations {
	case 1:
		wire.CPU.IMemLen = v
	case 2:
		if len(runs) > 0 {
			runs[at%len(runs)].Base = v
		}
	case 3:
		if len(runs) > 0 {
			r := &runs[at%len(runs)]
			r.Words = resizeCode(r.Words, v)
		}
	case 4:
		if len(runs) > 0 {
			mutateWord(runs[at%len(runs)].Words, v, w)
		}
	case 5:
		if len(pages) > 0 {
			mutateWord(pages[at%len(pages)].Code, v, w)
		}
	case 6:
		if len(pages) > 0 {
			pg := &pages[at%len(pages)]
			pg.Code = resizeCode(pg.Code, v)
		}
	}
}

// resizeCode returns words cut or grown to n modulo 4096 words, grown
// by repeating its words.
func resizeCode(words []isa.Instr, n uint32) []isa.Instr {
	n %= 4096
	if int(n) <= len(words) || len(words) == 0 {
		return words[:min(int(n), len(words))]
	}
	out := make([]isa.Instr, n)
	for i := range out {
		out[i] = words[i%len(words)]
	}
	return out
}

// mutateWord sets one field of one piece of word v (modulo the count),
// or drops the piece; w's low byte picks the slot and field and the
// rest is the value.
func mutateWord(words []isa.Instr, v, w uint32) {
	if len(words) == 0 {
		return
	}
	in := &words[int(v%uint32(len(words)))]
	slot := &in.ALU
	if w&1 != 0 {
		slot = &in.Mem
	}
	var p isa.Piece
	if *slot != nil {
		p = **slot
	}
	x := w >> 8
	switch (w >> 1) % 14 {
	case 0:
		*slot = nil
		return
	case 1:
		p.Kind = isa.PieceKind(x)
	case 2:
		p.Op = isa.ALUOp(x)
	case 3:
		p.Dst = isa.Reg(x)
	case 4:
		p.Src1 = isa.Operand{IsImm: x&1 != 0, Reg: isa.Reg(x >> 1), Imm: int32(x >> 1)}
	case 5:
		p.Src2 = isa.Operand{IsImm: x&1 != 0, Reg: isa.Reg(x >> 1), Imm: int32(x >> 1)}
	case 6:
		p.Cmp = isa.Cmp(x)
	case 7:
		p.Mode = isa.AddrMode(x)
	case 8:
		p.Data, p.Base, p.Index = isa.Reg(x), isa.Reg(x>>4), isa.Reg(x>>8)
	case 9:
		p.Shift = uint8(x)
	case 10:
		p.Disp = int32(x) - 1<<23
	case 11:
		p.Target = int32(x)
	case 12:
		p.TrapCode = uint16(x)
	case 13:
		p.SpecOp, p.SpecReg = isa.SpecialOp(x), isa.SpecialReg(x>>8)
	}
	*slot = &p
}

// kernelLoopSnapshot snapshots a kernel machine whose one process
// prints in a loop, after its text page has been paged in.
func kernelLoopSnapshot(tb testing.TB) []byte {
	tb.Helper()
	u, err := asm.Parse("\t.entry main\nmain:\tmov #'H', r1\n\ttrap #1\n\tjmp main\n")
	if err != nil {
		tb.Fatal(err)
	}
	ro, _ := reorg.Reorganize(u, reorg.All())
	im, err := asm.Assemble(ro)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := New(WithKernel(kernel.Config{TimerPeriod: 500}))
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.Load(im); err != nil {
		tb.Fatal(err)
	}
	if _, halted := m.RunSteps(3000); halted || m.Output() == "" {
		tb.Fatalf("the loop halted or printed nothing (%q)", m.Output())
	}
	snap, err := m.SnapshotBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}
