package lang

import (
	"fmt"
	"strings"
)

// TypeKind classifies a Pasqual type.
type TypeKind uint8

const (
	TInt TypeKind = iota
	TChar
	TBool
	TArray
	TRecord
)

// Type describes a Pasqual type. Types are canonical: the basic types
// are singletons and composite types compare structurally via Same.
type Type struct {
	Kind TypeKind

	// Array fields.
	Lo, Hi int32 // index range, inclusive
	Elem   *Type
	Packed bool

	// Record fields.
	Fields []Field
}

// Field is one record field.
type Field struct {
	Name string
	Type *Type
}

// MaxCells bounds the cells (scalar elements) of one type. The code
// generators place all data below a stack top of 64K words, so no
// larger object runs on any machine; the parser rejects it.
const MaxCells = 1 << 16

// The basic types.
var (
	IntType  = &Type{Kind: TInt}
	CharType = &Type{Kind: TChar}
	BoolType = &Type{Kind: TBool}
)

// Len returns the number of elements of an array type.
func (t *Type) Len() int32 { return t.Hi - t.Lo + 1 }

// Scalar reports whether the type fits a register.
func (t *Type) Scalar() bool {
	return t.Kind == TInt || t.Kind == TChar || t.Kind == TBool
}

// ByteSized reports whether values of this type occupy one byte when
// byte allocation applies (characters and booleans; paper §4.1).
func (t *Type) ByteSized() bool { return t.Kind == TChar || t.Kind == TBool }

// Field returns the named record field and its index.
func (t *Type) Field(name string) (Field, int, bool) {
	for i, f := range t.Fields {
		if f.Name == name {
			return f, i, true
		}
	}
	return Field{}, 0, false
}

// Same reports structural type identity.
func (t *Type) Same(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case TInt, TChar, TBool:
		return true
	case TArray:
		return t.Lo == o.Lo && t.Hi == o.Hi && t.Packed == o.Packed && t.Elem.Same(o.Elem)
	case TRecord:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != o.Fields[i].Name || !t.Fields[i].Type.Same(o.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

func (t *Type) String() string {
	switch t.Kind {
	case TInt:
		return "integer"
	case TChar:
		return "char"
	case TBool:
		return "boolean"
	case TArray:
		p := ""
		if t.Packed {
			p = "packed "
		}
		return fmt.Sprintf("%sarray[%d..%d] of %s", p, t.Lo, t.Hi, t.Elem)
	case TRecord:
		var b strings.Builder
		b.WriteString("record ")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s: %s", f.Name, f.Type)
		}
		b.WriteString(" end")
		return b.String()
	}
	return "?"
}

// AllocMode selects how characters and booleans are laid out in memory:
// the word-allocated versus byte-allocated program versions of the
// paper's Tables 7 and 8.
type AllocMode uint8

const (
	// WordAlloc allocates every object as a full word unless it occurs
	// in a packed structure (Table 7).
	WordAlloc AllocMode = iota
	// ByteAlloc allocates all characters and booleans as bytes
	// (Table 8).
	ByteAlloc
	// WideAlloc allocates every element as a full word, even in packed
	// structures — the layout for target machines without byte
	// insert/extract instructions (the condition-code baseline).
	WideAlloc
)

func (m AllocMode) String() string {
	switch m {
	case ByteAlloc:
		return "byte-allocated"
	case WideAlloc:
		return "wide-allocated"
	}
	return "word-allocated"
}

// ElemBytePacked reports whether elements of the array are stored as
// bytes under the mode: packed char/boolean arrays always are (except
// under WideAlloc); unpacked ones only under byte allocation.
func (m AllocMode) ElemBytePacked(arr *Type) bool {
	if arr.Kind != TArray || !arr.Elem.ByteSized() || m == WideAlloc {
		return false
	}
	return arr.Packed || m == ByteAlloc
}

// SizeWords returns the memory size of a type in words under the mode.
func (m AllocMode) SizeWords(t *Type) int32 {
	switch t.Kind {
	case TInt, TChar, TBool:
		return 1
	case TArray:
		if m.ElemBytePacked(t) {
			return (t.Len() + 3) / 4
		}
		return t.Len() * m.SizeWords(t.Elem)
	case TRecord:
		var n int32
		for _, f := range t.Fields {
			n += m.SizeWords(f.Type)
		}
		return n
	}
	return 1
}

// FieldOffsetWords returns the word offset of record field index i.
func (m AllocMode) FieldOffsetWords(t *Type, i int) int32 {
	var off int32
	for j := 0; j < i; j++ {
		off += m.SizeWords(t.Fields[j].Type)
	}
	return off
}
