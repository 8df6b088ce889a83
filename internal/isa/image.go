package isa

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// Image is a loadable program: the instruction words, the resolved
// symbol table, initialized data, and the entry point. It is the
// interchange format between the assembler, the compiler's backend, and
// the simulator, and the on-disk format of the cmd tools.
//
// An image is immutable once loaded: only its construction writes it
// (the assembler, the code generator, UnmarshalBinary). The simulator
// builds the code of a bare machine once per image and shares it, with
// its translations, among every machine loaded with the image.
type Image struct {
	// Words are the instruction words, loaded at word address TextBase.
	Words []Instr
	// TextBase is the word address of Words[0].
	TextBase int32
	// Data maps word addresses to initial memory contents (globals,
	// string constants).
	Data map[int32]uint32
	// Symbols maps labels to word addresses.
	Symbols map[string]int32
	// Entry is the word address where execution begins.
	Entry int32
}

// NewImage returns an empty image with initialized maps.
func NewImage() *Image {
	return &Image{Data: make(map[int32]uint32), Symbols: make(map[string]int32)}
}

// StaticCounts summarizes the image for the paper's static measurements.
type StaticCounts struct {
	Words    int // instruction words (what Table 11 counts)
	Pieces   int // non-nop pieces
	Nops     int // explicit no-op words
	Packed   int // words holding two pieces
	Branches int // control-flow pieces
	MemRefs  int // load/store pieces
}

// Count computes static instruction statistics over the image.
func (im *Image) Count() StaticCounts {
	var c StaticCounts
	c.Words = len(im.Words)
	for _, w := range im.Words {
		if w.IsNop() {
			c.Nops++
			continue
		}
		if w.Packed() {
			c.Packed++
		}
		for _, p := range w.Pieces(nil) {
			if p.IsNop() {
				continue
			}
			c.Pieces++
			if p.IsControl() {
				c.Branches++
			}
			if p.IsMem() {
				c.MemRefs++
			}
		}
	}
	return c
}

// Validate checks every instruction word and that branch targets fall
// inside the text segment.
func (im *Image) Validate() error {
	lo, hi := im.TextBase, im.TextBase+int32(len(im.Words))
	for i, w := range im.Words {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("word %d: %w", i, err)
		}
		if c := w.Control(); c != nil && c.Kind != PieceJumpInd && c.Kind != PieceTrap {
			if c.Label != "" {
				return fmt.Errorf("word %d: unresolved label %q", i, c.Label)
			}
			if c.Target < lo || c.Target >= hi {
				return fmt.Errorf("word %d: target %d outside text [%d,%d)", i, c.Target, lo, hi)
			}
		}
	}
	return nil
}

// imageWire is the gob wire form of an Image; maps are flattened to
// sorted slices so the encoding is deterministic.
type imageWire struct {
	Words    []Instr
	TextBase int32
	DataAddr []int32
	DataVal  []uint32
	SymName  []string
	SymAddr  []int32
	Entry    int32
}

// WriteTo serializes the image. The format is a gob stream with maps
// flattened in sorted order, so identical images produce identical bytes.
func (im *Image) WriteTo(w io.Writer) (int64, error) {
	wire := imageWire{Words: im.Words, TextBase: im.TextBase, Entry: im.Entry}
	addrs := make([]int32, 0, len(im.Data))
	for a := range im.Data {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		wire.DataAddr = append(wire.DataAddr, a)
		wire.DataVal = append(wire.DataVal, im.Data[a])
	}
	names := make([]string, 0, len(im.Symbols))
	for n := range im.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		wire.SymName = append(wire.SymName, n)
		wire.SymAddr = append(wire.SymAddr, im.Symbols[n])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
		return 0, err
	}
	return buf.WriteTo(w)
}

// ReadImage deserializes an image written by WriteTo.
func ReadImage(r io.Reader) (*Image, error) {
	var wire imageWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	if len(wire.DataAddr) != len(wire.DataVal) || len(wire.SymName) != len(wire.SymAddr) {
		return nil, fmt.Errorf("corrupt image: mismatched table lengths")
	}
	im := NewImage()
	im.Words = wire.Words
	im.TextBase = wire.TextBase
	im.Entry = wire.Entry
	for i, a := range wire.DataAddr {
		im.Data[a] = wire.DataVal[i]
	}
	for i, n := range wire.SymName {
		im.Symbols[n] = wire.SymAddr[i]
	}
	return im, nil
}
