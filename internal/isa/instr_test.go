package isa

import (
	"bytes"
	"testing"
)

func TestPackALUWithStore(t *testing.T) {
	// The two-address form the packed ALU half encodes: "sub r2, #1, r2"
	// alongside "st r4, 2(sp)" (the Figure 4 pairing shape).
	sub := ALU(OpSub, 2, R(2), Imm(1))
	st := StoreDisp(4, RegSP, 2)
	in, ok := Pack(sub, st)
	if !ok {
		t.Fatal("expected sub+st to pack")
	}
	if !in.Packed() || in.ALU.Op != OpSub || in.Mem.Kind != PieceStore {
		t.Errorf("bad packed word: %s", in)
	}
}

func TestPackRequiresTwoAddressALU(t *testing.T) {
	// A three-address ALU piece does not fit the 15-bit packed half.
	add := ALU(OpAdd, 1, R(2), R(3))
	ld := LoadDisp(4, RegSP, 3)
	if _, ok := Pack(add, ld); ok {
		t.Error("three-address ALU piece must not pack")
	}
}

func TestPackOrderIndependent(t *testing.T) {
	add := ALU(OpAdd, 1, R(1), R(3))
	ld := LoadDisp(4, RegSP, 3)
	a, ok1 := Pack(add, ld)
	b, ok2 := Pack(ld, add)
	if !ok1 || !ok2 {
		t.Fatal("expected packing in both orders")
	}
	if a.String() != b.String() {
		t.Errorf("order-dependent packing: %q vs %q", a, b)
	}
}

func TestPackRejectsBranch(t *testing.T) {
	// Compare-and-branch uses the ALU for its comparison and occupies a
	// full word.
	br := Branch(CmpEQ, R(1), R(2), "L")
	add := ALU(OpAdd, 3, R(4), R(5))
	if _, ok := Pack(add, br); ok {
		t.Error("branch must not pack")
	}
}

func TestPackAllowsJump(t *testing.T) {
	j := Jump("L3")
	add := ALU(OpAdd, 4, R(4), Imm(1))
	if _, ok := Pack(add, j); !ok {
		t.Error("direct jump should pack with an ALU piece")
	}
}

func TestPackRejectsConflictingDefs(t *testing.T) {
	add := ALU(OpAdd, 1, R(2), R(3))
	ld := LoadDisp(1, RegSP, 0) // also writes r1
	if _, ok := Pack(add, ld); ok {
		t.Error("conflicting register writes must not pack")
	}
}

func TestPackRejectsLoadUseInSameWord(t *testing.T) {
	ld := LoadDisp(1, RegSP, 0)
	use := ALU(OpAdd, 2, R(1), R(3)) // reads the loaded register
	if _, ok := Pack(use, ld); ok {
		t.Error("ALU piece reading the loaded register must not share its word")
	}
}

// A rejected pairing costs no allocation: the reorganizer tries many
// pairings per packed word.
func TestPackRejectionAllocatesNothing(t *testing.T) {
	ld := LoadDisp(3, RegSP, 2)
	use := ALU(OpAdd, 4, R(4), R(3)) // reads the loaded register
	add := ALU(OpAdd, 2, R(2), Imm(1))
	br := Branch(CmpNE, R(1), R(2), "loop")
	if n := testing.AllocsPerRun(100, func() {
		if CanPack(&use, &ld) {
			t.Fatal("load packed with its consumer")
		}
		if _, ok := Pack(use, ld); ok {
			t.Fatal("load packed with its consumer")
		}
		if _, ok := Pack(add, br); ok {
			t.Fatal("branch packed")
		}
	}); n != 0 {
		t.Errorf("rejected pairings allocate %.0f times, want 0", n)
	}
}

func TestPackRejectsWideImmediates(t *testing.T) {
	add := ALU(OpAdd, 1, R(2), R(3))
	far := LoadDisp(4, RegSP, 100) // displacement exceeds packed field
	if _, ok := Pack(add, far); ok {
		t.Error("wide displacement must force a full word")
	}
	abs := LoadAbs(4, 5)
	if _, ok := Pack(add, abs); ok {
		t.Error("absolute mode must force a full word")
	}
	ldi := LoadImm32(4, 7)
	if _, ok := Pack(add, ldi); ok {
		t.Error("long immediate must force a full word")
	}
}

func TestStorePacksEvenWhenALUWritesData(t *testing.T) {
	// A store reads its data register before the ALU writeback, so
	// packing an ALU write of the same register is legal (the store sees
	// the old value) — exactly the auto-increment-like behavior §3.3
	// describes.
	add := ALU(OpAdd, 1, R(1), Imm(1))
	st := StoreDisp(1, RegSP, 0)
	if _, ok := Pack(add, st); !ok {
		t.Error("store of a register the ALU piece rewrites should pack")
	}
}

func TestInstrMemRefAndControl(t *testing.T) {
	w := Word(LoadDisp(1, 14, 0))
	if w.MemRef() == nil {
		t.Error("load word should report a memory reference")
	}
	if w.Control() != nil {
		t.Error("load word is not control flow")
	}
	j := Word(Jump("L"))
	if j.Control() == nil {
		t.Error("jump word should report control flow")
	}
	if j.MemRef() != nil {
		t.Error("jump word does not reference data memory")
	}
	a := Word(ALU(OpAdd, 1, R(2), R(3)))
	if a.MemRef() != nil || a.Control() != nil {
		t.Error("alu word classified incorrectly")
	}
}

func TestInstrValidate(t *testing.T) {
	if err := (Instr{}).Validate(); err == nil {
		t.Error("empty word should not validate")
	}
	if err := NopWord().Validate(); err != nil {
		t.Errorf("nop word: %v", err)
	}
	ld := LoadDisp(1, 14, 0)
	bad := Instr{ALU: &ld} // load in the ALU slot
	if err := bad.Validate(); err == nil {
		t.Error("load in ALU slot should not validate")
	}
}

func TestImageCountAndValidate(t *testing.T) {
	im := NewImage()
	add := ALU(OpAdd, 1, R(1), R(3))
	st := StoreDisp(2, RegSP, 0)
	packed, ok := Pack(add, st)
	if !ok {
		t.Fatal("pack failed")
	}
	br := Branch(CmpEQ, R(1), R(2), "")
	br.Target = 0
	im.Words = []Instr{
		packed,
		NopWord(),
		Word(br),
		Word(LoadDisp(4, RegSP, 1)),
	}
	c := im.Count()
	if c.Words != 4 || c.Nops != 1 || c.Packed != 1 {
		t.Errorf("counts = %+v", c)
	}
	if c.Pieces != 4 || c.Branches != 1 || c.MemRefs != 2 {
		t.Errorf("counts = %+v", c)
	}
	if err := im.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}

	// Out-of-range target must be caught.
	far := Branch(CmpEQ, R(1), R(2), "")
	far.Target = 99
	im.Words = append(im.Words, Word(far))
	if err := im.Validate(); err == nil {
		t.Error("expected out-of-range target error")
	}
}

func TestImageRoundTrip(t *testing.T) {
	im := NewImage()
	im.TextBase = 16
	im.Entry = 17
	im.Words = []Instr{Word(ALU(OpAdd, 1, R(2), R(3))), NopWord()}
	im.Data[100] = 0xDEADBEEF
	im.Data[101] = 7
	im.Symbols["main"] = 17
	im.Symbols["loop"] = 16

	var buf bytes.Buffer
	if _, err := im.WriteTo(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.TextBase != 16 || got.Entry != 17 {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Words) != 2 || got.Words[0].String() != im.Words[0].String() {
		t.Errorf("words mismatch: %v", got.Words)
	}
	if got.Data[100] != 0xDEADBEEF || got.Data[101] != 7 {
		t.Errorf("data mismatch: %v", got.Data)
	}
	if got.Symbols["main"] != 17 || got.Symbols["loop"] != 16 {
		t.Errorf("symbols mismatch: %v", got.Symbols)
	}
}

func TestImageDeterministicEncoding(t *testing.T) {
	build := func() *Image {
		im := NewImage()
		im.Words = []Instr{NopWord()}
		for i := int32(0); i < 50; i++ {
			im.Data[i*3] = uint32(i)
			im.Symbols[string(rune('a'+i%26))+string(rune('0'+i%10))] = i
		}
		return im
	}
	var b1, b2 bytes.Buffer
	if _, err := build().WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := build().WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("image encoding is not deterministic")
	}
}
