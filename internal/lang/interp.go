package lang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// RefEvent describes one data memory reference during interpretation:
// the raw material of the paper's Tables 7 and 8.
type RefEvent struct {
	Store bool
	Bits  int  // 8 or 32
	Char  bool // reference to a character object
}

// ErrFuel is returned when the step budget is exhausted.
var ErrFuel = errors.New("lang: interpreter fuel exhausted")

// errHalt is the internal signal for the halt builtin.
var errHalt = errors.New("halt")

// Interp executes a checked program directly. It is the semantic
// reference for the machine backends (differential testing) and the
// instrument behind the data-reference tables: OnRef sees every load
// and store with its width under the chosen allocation mode.
type Interp struct {
	// Mode selects word or byte allocation for reference accounting.
	Mode AllocMode
	// OnRef, if set, observes every data reference.
	OnRef func(RefEvent)
	// Fuel bounds execution steps (0 means a default of 50 million);
	// zeroing 256 cells of new storage counts as one step.
	Fuel int64

	out  strings.Builder
	prog *Program

	globals []value // by Object.Slot
	fuel    int64
	// live counts the composite cells held by the globals and every
	// activation; depth counts activations.
	live, depth int
}

// The interpreter bounds what a program holds, as the machines' 64K-word
// memory does: maxLiveCells of composite storage over the globals and
// every activation, and maxDepth activations (a machine frame takes at
// least the 12 spill slots). Neither binds a program the machines run.
const (
	maxLiveCells = 1 << 20
	maxDepth     = 1 << 14
)

// value is a variable's storage: a scalar cell or a flattened composite.
type value struct {
	scalar int32
	comp   []int32
}

// slot is an lvalue: a storage location plus the element type that
// determines reference width.
type slot struct {
	val *value
	idx int // index into comp, or -1 for scalar
	typ *Type
}

func (s slot) get() int32 {
	if s.idx < 0 {
		return s.val.scalar
	}
	return s.val.comp[s.idx]
}

func (s slot) set(v int32) {
	if s.idx < 0 {
		s.val.scalar = v
	} else {
		s.val.comp[s.idx] = v
	}
}

// frame is a procedure activation. Both slices are indexed by
// Object.Slot; refs is nil when the procedure has no var parameter.
type frame struct {
	proc *ProcDecl
	vars []value
	refs []slot // var-parameter aliases
}

// Run interprets the program and returns its console output.
func (ip *Interp) Run(p *Program) (string, error) {
	ip.prog = p
	ip.out.Reset()
	ip.fuel = ip.Fuel
	if ip.fuel == 0 {
		ip.fuel = 50_000_000
	}
	ip.globals = make([]value, len(p.Globals))
	ip.live, ip.depth = 0, 0
	if err := ip.allocate(ip.globals, p.Globals); err != nil {
		return "", err
	}
	err := ip.stmts(nil, p.Body)
	if errors.Is(err, errHalt) {
		err = nil
	}
	return ip.out.String(), err
}

// Output returns the output accumulated so far (useful after an error).
func (ip *Interp) Output() string { return ip.out.String() }

// allocate gives each composite object of objs its storage in vars, at
// its slot. It counts the cells against maxLiveCells and charges the
// fuel one step per 256 cells: zeroing storage is work, and without the
// charge a short loop of calls could zero gigabytes within its fuel.
func (ip *Interp) allocate(vars []value, objs []*Object) error {
	start := ip.live
	for _, o := range objs {
		if o.Type.Scalar() {
			continue
		}
		n := cellCount(o.Type)
		if ip.live += int(n); ip.live > maxLiveCells {
			return fmt.Errorf("lang: live storage exceeds %d cells", maxLiveCells)
		}
		vars[o.Slot].comp = make([]int32, n)
	}
	ip.fuel -= int64(ip.live-start) >> 8
	if ip.fuel <= 0 {
		return ErrFuel
	}
	return nil
}

// cellCount flattens composites to logical cells (one per scalar
// element, independent of byte packing).
func cellCount(t *Type) int32 {
	switch t.Kind {
	case TArray:
		return t.Len() * cellCount(t.Elem)
	case TRecord:
		var n int32
		for _, f := range t.Fields {
			n += cellCount(f.Type)
		}
		return n
	}
	return 1
}

// cellOffset returns the flattened cell offset of record field i.
func cellOffset(t *Type, i int) int32 {
	var off int32
	for j := 0; j < i; j++ {
		off += cellCount(t.Fields[j].Type)
	}
	return off
}

func (ip *Interp) burn() error {
	ip.fuel--
	if ip.fuel <= 0 {
		return ErrFuel
	}
	return nil
}

// refWidth returns the access width in bits for an element of type t
// reached through container ct (nil for scalars).
func (ip *Interp) refWidth(t *Type, packedContainer bool) int {
	if !t.ByteSized() {
		return 32
	}
	if packedContainer || ip.Mode == ByteAlloc {
		return 8
	}
	return 32
}

func (ip *Interp) noteRef(store bool, t *Type, packedContainer bool) {
	if ip.OnRef == nil {
		return
	}
	ip.OnRef(RefEvent{
		Store: store,
		Bits:  ip.refWidth(t, packedContainer),
		Char:  t.Kind == TChar,
	})
}

// stmts executes a statement list.
func (ip *Interp) stmts(fr *frame, list []Stmt) error {
	for _, s := range list {
		if err := ip.stmt(fr, s); err != nil {
			return err
		}
	}
	return nil
}

func (ip *Interp) stmt(fr *frame, s Stmt) error {
	if err := ip.burn(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *BlockStmt:
		return ip.stmts(fr, st.Stmts)

	case *AssignStmt:
		v, err := ip.eval(fr, st.RHS)
		if err != nil {
			return err
		}
		sl, packed, err := ip.lvalue(fr, st.LHS)
		if err != nil {
			return err
		}
		sl.set(v)
		ip.noteRef(true, sl.typ, packed)
		return nil

	case *IfStmt:
		c, err := ip.eval(fr, st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return ip.stmts(fr, st.Then)
		}
		return ip.stmts(fr, st.Else)

	case *WhileStmt:
		for {
			c, err := ip.eval(fr, st.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := ip.stmts(fr, st.Body); err != nil {
				return err
			}
			if err := ip.burn(); err != nil {
				return err
			}
		}

	case *RepeatStmt:
		for {
			if err := ip.stmts(fr, st.Body); err != nil {
				return err
			}
			c, err := ip.eval(fr, st.Cond)
			if err != nil {
				return err
			}
			if c != 0 {
				return nil
			}
			if err := ip.burn(); err != nil {
				return err
			}
		}

	case *ForStmt:
		from, err := ip.eval(fr, st.From)
		if err != nil {
			return err
		}
		to, err := ip.eval(fr, st.To)
		if err != nil {
			return err
		}
		sl, packed, err := ip.lvalue(fr, st.Var)
		if err != nil {
			return err
		}
		sl.set(from)
		ip.noteRef(true, sl.typ, packed)
		for {
			cur := sl.get()
			ip.noteRef(false, sl.typ, packed)
			if st.Down && cur < to || !st.Down && cur > to {
				return nil
			}
			if err := ip.stmts(fr, st.Body); err != nil {
				return err
			}
			cur = sl.get()
			ip.noteRef(false, sl.typ, packed)
			if st.Down {
				cur--
			} else {
				cur++
			}
			sl.set(cur)
			ip.noteRef(true, sl.typ, packed)
			if err := ip.burn(); err != nil {
				return err
			}
		}

	case *CallStmt:
		_, err := ip.call(fr, st.Call)
		return err
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

// lvalue resolves an addressable expression to a storage slot. The
// second result reports whether the slot sits in a packed container.
func (ip *Interp) lvalue(fr *frame, e Expr) (slot, bool, error) {
	switch ex := e.(type) {
	case *VarExpr:
		sl, err := ip.objSlot(fr, ex.Obj)
		return sl, false, err

	case *IndexExpr:
		base, _, err := ip.lvalue(fr, ex.Arr)
		if err != nil {
			return slot{}, false, err
		}
		at := ex.Arr.ExprType()
		idx, err := ip.eval(fr, ex.Idx)
		if err != nil {
			return slot{}, false, err
		}
		if idx < at.Lo || idx > at.Hi {
			return slot{}, false, fmt.Errorf("lang: %s: index %d out of range [%d..%d]",
				ex.ExprPos(), idx, at.Lo, at.Hi)
		}
		off := (idx - at.Lo) * cellCount(at.Elem)
		start := 0
		if base.idx >= 0 {
			start = base.idx
		}
		return slot{val: base.val, idx: start + int(off), typ: at.Elem},
			ip.Mode.ElemBytePacked(at), nil

	case *FieldExpr:
		base, _, err := ip.lvalue(fr, ex.Rec)
		if err != nil {
			return slot{}, false, err
		}
		rt := ex.Rec.ExprType()
		off := cellOffset(rt, ex.FieldIndex)
		start := 0
		if base.idx >= 0 {
			start = base.idx
		}
		return slot{val: base.val, idx: start + int(off), typ: ex.ExprType()}, false, nil
	}
	return slot{}, false, fmt.Errorf("lang: %s: not an lvalue", e.ExprPos())
}

// objSlot returns the storage of a named object.
func (ip *Interp) objSlot(fr *frame, o *Object) (slot, error) {
	if o.Kind == ObjConst {
		if o.IsStr {
			// String constants materialize as read-only arrays.
			v := &value{comp: make([]int32, len(o.StrVal))}
			for i := 0; i < len(o.StrVal); i++ {
				v.comp[i] = int32(o.StrVal[i])
			}
			return slot{val: v, idx: 0, typ: o.Type}, nil
		}
		return slot{}, fmt.Errorf("lang: constant %s is not addressable", o.Name)
	}
	if o.Owner == nil {
		if o.Slot >= len(ip.globals) || ip.prog.Globals[o.Slot] != o {
			return slot{}, fmt.Errorf("lang: no storage for global %s", o.Name)
		}
		return scalarSlot(&ip.globals[o.Slot], o.Type), nil
	}
	if fr == nil || fr.proc != o.Owner {
		return slot{}, fmt.Errorf("lang: %s referenced outside its procedure", o.Name)
	}
	if o.ByRef {
		return fr.refs[o.Slot], nil
	}
	return scalarSlot(&fr.vars[o.Slot], o.Type), nil
}

func scalarSlot(v *value, t *Type) slot {
	if t.Scalar() {
		return slot{val: v, idx: -1, typ: t}
	}
	return slot{val: v, idx: 0, typ: t}
}

// eval evaluates an expression to a scalar.
func (ip *Interp) eval(fr *frame, e Expr) (int32, error) {
	if err := ip.burn(); err != nil {
		return 0, err
	}
	switch ex := e.(type) {
	case *IntExpr:
		return ex.Val, nil
	case *CharExpr:
		return ex.Val, nil
	case *BoolExpr:
		if ex.Val {
			return 1, nil
		}
		return 0, nil

	case *VarExpr:
		if ex.Obj.Kind == ObjConst && !ex.Obj.IsStr {
			return ex.Obj.ConstVal, nil
		}
		sl, packed, err := ip.lvalue(fr, ex)
		if err != nil {
			return 0, err
		}
		ip.noteRef(false, sl.typ, packed)
		return sl.get(), nil

	case *IndexExpr, *FieldExpr:
		sl, packed, err := ip.lvalue(fr, e)
		if err != nil {
			return 0, err
		}
		ip.noteRef(false, sl.typ, packed)
		return sl.get(), nil

	case *UnExpr:
		v, err := ip.eval(fr, ex.E)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case OpNeg:
			return -v, nil
		case OpNot:
			return 1 - v&1, nil
		case OpOrd, OpChr:
			return v, nil
		}

	case *BinExpr:
		l, err := ip.eval(fr, ex.L)
		if err != nil {
			return 0, err
		}
		// Pasqual's and/or evaluate both operands (full evaluation), the
		// standard-Pascal rule the paper's Figure 1 starts from. Early-
		// out is a backend option, legal exactly because operands are
		// side-effect-free expressions.
		r, err := ip.eval(fr, ex.R)
		if err != nil {
			return 0, err
		}
		return applyBin(ex.Op, l, r, ex.ExprPos())

	case *CallExpr:
		return ip.call(fr, ex)
	}
	return 0, fmt.Errorf("lang: unknown expression %T", e)
}

func applyBin(op BinOp, l, r int32, pos Pos) (int32, error) {
	b := func(cond bool) int32 {
		if cond {
			return 1
		}
		return 0
	}
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("lang: %s: division by zero", pos)
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, fmt.Errorf("lang: %s: modulo by zero", pos)
		}
		return l % r, nil
	case OpAnd:
		return b(l != 0 && r != 0), nil
	case OpOr:
		return b(l != 0 || r != 0), nil
	case OpEq:
		return b(l == r), nil
	case OpNE:
		return b(l != r), nil
	case OpLT:
		return b(l < r), nil
	case OpLE:
		return b(l <= r), nil
	case OpGT:
		return b(l > r), nil
	case OpGE:
		return b(l >= r), nil
	}
	return 0, fmt.Errorf("lang: %s: unknown operator", pos)
}

// call invokes a builtin, procedure, or function.
func (ip *Interp) call(fr *frame, c *CallExpr) (int32, error) {
	switch c.Builtin {
	case BWriteInt:
		v, err := ip.eval(fr, c.Args[0])
		if err != nil {
			return 0, err
		}
		ip.out.WriteString(strconv.FormatInt(int64(v), 10))
		ip.out.WriteByte('\n')
		return 0, nil
	case BWriteChar:
		v, err := ip.eval(fr, c.Args[0])
		if err != nil {
			return 0, err
		}
		ip.out.WriteByte(byte(v))
		return 0, nil
	case BHalt:
		return 0, errHalt
	}

	proc := c.Proc
	if ip.depth == maxDepth {
		return 0, fmt.Errorf("lang: %s: calls nest deeper than %d", c.ExprPos(), maxDepth)
	}
	nf := &frame{proc: proc, vars: make([]value, proc.Slots())}
	for i, param := range proc.Params {
		arg := c.Args[i]
		if param.ByRef {
			sl, _, err := ip.lvalue(fr, arg)
			if err != nil {
				return 0, err
			}
			if nf.refs == nil {
				nf.refs = make([]slot, len(proc.Params))
			}
			nf.refs[param.Slot] = sl
			continue
		}
		v, err := ip.eval(fr, arg)
		if err != nil {
			return 0, err
		}
		// Value parameters are scalars (the parser makes composites var).
		nf.vars[param.Slot].scalar = v
		// Storing the argument into the parameter slot is a data store.
		ip.noteRef(true, param.Type, false)
	}
	live := ip.live
	if err := ip.allocate(nf.vars, proc.Locals); err != nil {
		return 0, err
	}
	ip.depth++
	err := ip.stmts(nf, proc.Body)
	ip.depth--
	ip.live = live
	if err != nil {
		return 0, err
	}
	if proc.ResultObj != nil {
		return nf.vars[proc.ResultObj.Slot].scalar, nil
	}
	return 0, nil
}
