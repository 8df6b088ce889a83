package lang

// Parser parses and type-checks Pasqual in one pass: Pascal's
// declare-before-use rule makes the combined pass natural. The result is
// a fully resolved, typed AST.
type Parser struct {
	toks []Token
	pos  int

	prog    *Program
	globals map[string]*Object
	types   map[string]*Type
	procs   map[string]*ProcDecl

	// Current procedure scope (nil at program level).
	cur      *ProcDecl
	curScope map[string]*Object
}

// Parse parses a Pasqual program.
func Parse(src string) (*Program, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	toks = append(toks, Token{Kind: EOF})
	p := &Parser{
		toks:    toks,
		prog:    &Program{},
		globals: make(map[string]*Object),
		types:   make(map[string]*Type),
		procs:   make(map[string]*ProcDecl),
	}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

func (p *Parser) tok() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) accept(k Kind) bool {
	if p.tok().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.tok()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s", k, t)
	}
	p.pos++
	return t, nil
}

func (p *Parser) parseProgram() error {
	if _, err := p.expect(KwProgram); err != nil {
		return err
	}
	name, err := p.expect(Ident)
	if err != nil {
		return err
	}
	p.prog.Name = name.Text
	if _, err := p.expect(Semi); err != nil {
		return err
	}
	for {
		switch p.tok().Kind {
		case KwConst:
			if err := p.parseConstSection(); err != nil {
				return err
			}
		case KwType:
			if err := p.parseTypeSection(); err != nil {
				return err
			}
		case KwVar:
			if err := p.parseVarSection(); err != nil {
				return err
			}
		case KwFunction, KwProcedure:
			if err := p.parseProcDecl(); err != nil {
				return err
			}
		default:
			body, err := p.parseBlock()
			if err != nil {
				return err
			}
			p.prog.Body = body
			if _, err := p.expect(Dot); err != nil {
				return err
			}
			return nil
		}
	}
}

// declare installs an object in the current scope.
func (p *Parser) declare(o *Object) error {
	scope := p.globals
	if p.curScope != nil {
		scope = p.curScope
	}
	if _, dup := scope[o.Name]; dup {
		return errf(o.Pos, "duplicate declaration of %s", o.Name)
	}
	if p.curScope == nil {
		if _, dup := p.types[o.Name]; dup {
			return errf(o.Pos, "%s already names a type", o.Name)
		}
		if _, dup := p.procs[o.Name]; dup {
			return errf(o.Pos, "%s already names a procedure", o.Name)
		}
	}
	scope[o.Name] = o
	return nil
}

// lookup resolves a name: current scope, then globals.
func (p *Parser) lookup(name string) (*Object, bool) {
	if p.curScope != nil {
		if o, ok := p.curScope[name]; ok {
			return o, true
		}
	}
	o, ok := p.globals[name]
	return o, ok
}

func (p *Parser) parseConstSection() error {
	p.next() // const
	for p.tok().Kind == Ident {
		name := p.next()
		if _, err := p.expect(Eq); err != nil {
			return err
		}
		o := &Object{Name: name.Text, Kind: ObjConst, Pos: name.Pos, Owner: p.cur}
		if p.tok().Kind == StrLit {
			s := p.next()
			o.IsStr = true
			o.StrVal = s.Text
			o.Type = &Type{Kind: TArray, Lo: 0, Hi: int32(len(s.Text) - 1), Elem: CharType, Packed: true}
		} else {
			v, typ, err := p.parseConstExpr()
			if err != nil {
				return err
			}
			o.ConstVal = v
			o.Type = typ
		}
		if err := p.declare(o); err != nil {
			return err
		}
		if p.cur == nil {
			p.prog.Consts = append(p.prog.Consts, o)
		}
		if _, err := p.expect(Semi); err != nil {
			return err
		}
	}
	return nil
}

// parseConstExpr evaluates a compile-time constant: literals, named
// constants, unary minus, and + - * between integers.
func (p *Parser) parseConstExpr() (int32, *Type, error) {
	v, typ, err := p.parseConstTerm()
	if err != nil {
		return 0, nil, err
	}
	for p.tok().Kind == Plus || p.tok().Kind == Minus || p.tok().Kind == Star {
		op := p.next()
		r, rt, err := p.parseConstTerm()
		if err != nil {
			return 0, nil, err
		}
		if typ != IntType || rt != IntType {
			return 0, nil, errf(op.Pos, "constant arithmetic needs integers")
		}
		switch op.Kind {
		case Plus:
			v += r
		case Minus:
			v -= r
		case Star:
			v *= r
		}
	}
	return v, typ, nil
}

func (p *Parser) parseConstTerm() (int32, *Type, error) {
	t := p.next()
	switch t.Kind {
	case IntLit:
		return t.Val, IntType, nil
	case CharLit:
		return t.Val, CharType, nil
	case KwTrue:
		return 1, BoolType, nil
	case KwFalse:
		return 0, BoolType, nil
	case Minus:
		v, typ, err := p.parseConstTerm()
		if err != nil {
			return 0, nil, err
		}
		if typ != IntType {
			return 0, nil, errf(t.Pos, "cannot negate %s constant", typ)
		}
		return -v, IntType, nil
	case Ident:
		o, ok := p.lookup(t.Text)
		if !ok || o.Kind != ObjConst || o.IsStr {
			return 0, nil, errf(t.Pos, "%s is not a scalar constant", t.Text)
		}
		return o.ConstVal, o.Type, nil
	}
	return 0, nil, errf(t.Pos, "expected constant, found %s", t)
}

func (p *Parser) parseTypeSection() error {
	p.next() // type
	for p.tok().Kind == Ident {
		name := p.next()
		if _, err := p.expect(Eq); err != nil {
			return err
		}
		typ, err := p.parseType()
		if err != nil {
			return err
		}
		if _, dup := p.types[name.Text]; dup {
			return errf(name.Pos, "duplicate type %s", name.Text)
		}
		p.types[name.Text] = typ
		if _, err := p.expect(Semi); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseType() (*Type, error) {
	t := p.tok()
	switch t.Kind {
	case Ident:
		p.next()
		switch t.Text {
		case "integer":
			return IntType, nil
		case "char":
			return CharType, nil
		case "boolean":
			return BoolType, nil
		}
		typ, ok := p.types[t.Text]
		if !ok {
			return nil, errf(t.Pos, "unknown type %s", t.Text)
		}
		return typ, nil

	case KwPacked, KwArray:
		packed := p.accept(KwPacked)
		if _, err := p.expect(KwArray); err != nil {
			return nil, err
		}
		if _, err := p.expect(LBrack); err != nil {
			return nil, err
		}
		lo, lot, err := p.parseConstExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(DotDot); err != nil {
			return nil, err
		}
		hi, hit, err := p.parseConstExpr()
		if err != nil {
			return nil, err
		}
		if lot != IntType || hit != IntType || hi < lo {
			return nil, errf(t.Pos, "bad array bounds [%d..%d]", lo, hi)
		}
		if _, err := p.expect(RBrack); err != nil {
			return nil, err
		}
		if _, err := p.expect(KwOf); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if n := (int64(hi) - int64(lo) + 1) * int64(cellCount(elem)); n > MaxCells {
			return nil, errf(t.Pos, "array of %d cells exceeds %d", n, MaxCells)
		}
		return &Type{Kind: TArray, Lo: lo, Hi: hi, Elem: elem, Packed: packed}, nil

	case KwRecord:
		p.next()
		rec := &Type{Kind: TRecord}
		var cells int64
		for p.tok().Kind == Ident {
			names := []Token{p.next()}
			for p.accept(Comma) {
				n, err := p.expect(Ident)
				if err != nil {
					return nil, err
				}
				names = append(names, n)
			}
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			ft, err := p.parseType()
			if err != nil {
				return nil, err
			}
			for _, n := range names {
				if _, _, dup := rec.Field(n.Text); dup {
					return nil, errf(n.Pos, "duplicate field %s", n.Text)
				}
				rec.Fields = append(rec.Fields, Field{Name: n.Text, Type: ft})
				if cells += int64(cellCount(ft)); cells > MaxCells {
					return nil, errf(t.Pos, "record of %d cells exceeds %d", cells, MaxCells)
				}
			}
			if !p.accept(Semi) {
				break
			}
		}
		if _, err := p.expect(KwEnd); err != nil {
			return nil, err
		}
		return rec, nil
	}
	return nil, errf(t.Pos, "expected type, found %s", t)
}

func (p *Parser) parseVarSection() error {
	p.next() // var
	for p.tok().Kind == Ident {
		names := []Token{p.next()}
		for p.accept(Comma) {
			n, err := p.expect(Ident)
			if err != nil {
				return err
			}
			names = append(names, n)
		}
		if _, err := p.expect(Colon); err != nil {
			return err
		}
		typ, err := p.parseType()
		if err != nil {
			return err
		}
		for _, n := range names {
			kind := ObjGlobal
			if p.cur != nil {
				kind = ObjLocal
			}
			o := &Object{Name: n.Text, Kind: kind, Pos: n.Pos, Type: typ, Owner: p.cur}
			if err := p.declare(o); err != nil {
				return err
			}
			if p.cur != nil {
				o.Slot = p.cur.Slots()
				p.cur.Locals = append(p.cur.Locals, o)
			} else {
				o.Slot = len(p.prog.Globals)
				p.prog.Globals = append(p.prog.Globals, o)
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return err
		}
	}
	return nil
}

func (p *Parser) parseProcDecl() error {
	isFunc := p.tok().Kind == KwFunction
	kw := p.next()
	name, err := p.expect(Ident)
	if err != nil {
		return err
	}
	if _, dup := p.procs[name.Text]; dup {
		return errf(name.Pos, "duplicate procedure %s", name.Text)
	}
	if _, dup := p.globals[name.Text]; dup {
		return errf(name.Pos, "%s already declared", name.Text)
	}
	proc := &ProcDecl{Name: name.Text, Pos: kw.Pos}
	p.cur = proc
	p.curScope = make(map[string]*Object)

	if p.accept(LParen) {
		for {
			byRef := p.accept(KwVar)
			names := []Token{}
			n, err := p.expect(Ident)
			if err != nil {
				return err
			}
			names = append(names, n)
			for p.accept(Comma) {
				n, err := p.expect(Ident)
				if err != nil {
					return err
				}
				names = append(names, n)
			}
			if _, err := p.expect(Colon); err != nil {
				return err
			}
			typ, err := p.parseType()
			if err != nil {
				return err
			}
			if byRef && typ == nil {
				return errf(n.Pos, "var parameter needs a type")
			}
			for _, n := range names {
				o := &Object{Name: n.Text, Kind: ObjParam, Pos: n.Pos, Type: typ, ByRef: byRef, Owner: proc}
				if !byRef && !typ.Scalar() {
					// Composite value parameters would need copying; pass
					// them by reference explicitly, as the corpus does.
					return errf(n.Pos, "composite parameter %s must be a var parameter", n.Text)
				}
				if err := p.declare(o); err != nil {
					return err
				}
				o.Slot = proc.Slots()
				proc.Params = append(proc.Params, o)
			}
			if !p.accept(Semi) {
				break
			}
		}
		if _, err := p.expect(RParen); err != nil {
			return err
		}
	}

	if isFunc {
		if _, err := p.expect(Colon); err != nil {
			return err
		}
		rt, err := p.parseType()
		if err != nil {
			return err
		}
		if !rt.Scalar() {
			return errf(name.Pos, "function result must be scalar")
		}
		proc.Result = rt
		proc.ResultObj = &Object{Name: proc.Name, Kind: ObjLocal, Type: rt, Owner: proc, Slot: proc.Slots()}
	}
	if _, err := p.expect(Semi); err != nil {
		return err
	}

	// Register before the body so recursion resolves.
	p.procs[proc.Name] = proc
	p.prog.Procs = append(p.prog.Procs, proc)

	for p.tok().Kind == KwVar || p.tok().Kind == KwConst {
		if p.tok().Kind == KwVar {
			if err := p.parseVarSection(); err != nil {
				return err
			}
		} else {
			if err := p.parseConstSection(); err != nil {
				return err
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	proc.Body = body
	if _, err := p.expect(Semi); err != nil {
		return err
	}
	p.cur = nil
	p.curScope = nil
	return nil
}

func (p *Parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(KwBegin); err != nil {
		return nil, err
	}
	stmts, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwEnd); err != nil {
		return nil, err
	}
	return stmts, nil
}

func (p *Parser) parseStmts() ([]Stmt, error) {
	var out []Stmt
	for {
		if k := p.tok().Kind; k == KwEnd || k == KwUntil || k == EOF {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
		if !p.accept(Semi) {
			return out, nil
		}
	}
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.tok()
	switch t.Kind {
	case KwBegin:
		stmts, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{Stmts: stmts, Pos: t.Pos}, nil

	case KwIf:
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !cond.ExprType().Same(BoolType) {
			return nil, errf(t.Pos, "if condition must be boolean, got %s", cond.ExprType())
		}
		if _, err := p.expect(KwThen); err != nil {
			return nil, err
		}
		thenS, err := p.parseStmtAsList()
		if err != nil {
			return nil, err
		}
		var elseS []Stmt
		if p.accept(KwElse) {
			elseS, err = p.parseStmtAsList()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{Cond: cond, Then: thenS, Else: elseS, Pos: t.Pos}, nil

	case KwWhile:
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !cond.ExprType().Same(BoolType) {
			return nil, errf(t.Pos, "while condition must be boolean")
		}
		if _, err := p.expect(KwDo); err != nil {
			return nil, err
		}
		body, err := p.parseStmtAsList()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Pos: t.Pos}, nil

	case KwRepeat:
		p.next()
		body, err := p.parseStmts()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwUntil); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !cond.ExprType().Same(BoolType) {
			return nil, errf(t.Pos, "until condition must be boolean")
		}
		return &RepeatStmt{Body: body, Cond: cond, Pos: t.Pos}, nil

	case KwFor:
		p.next()
		vn, err := p.expect(Ident)
		if err != nil {
			return nil, err
		}
		obj, ok := p.lookup(vn.Text)
		if !ok {
			return nil, errf(vn.Pos, "undefined variable %s", vn.Text)
		}
		if obj.Kind == ObjConst || obj.Type != IntType || obj.ByRef {
			return nil, errf(vn.Pos, "for variable must be a plain integer variable")
		}
		vexp := &VarExpr{exprBase: exprBase{T: IntType, Pos: vn.Pos}, Obj: obj}
		if _, err := p.expect(Assign); err != nil {
			return nil, err
		}
		from, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		down := false
		switch p.tok().Kind {
		case KwTo:
			p.next()
		case KwDownto:
			p.next()
			down = true
		default:
			return nil, errf(p.tok().Pos, "expected to or downto")
		}
		to, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !from.ExprType().Same(IntType) || !to.ExprType().Same(IntType) {
			return nil, errf(t.Pos, "for bounds must be integers")
		}
		if _, err := p.expect(KwDo); err != nil {
			return nil, err
		}
		body, err := p.parseStmtAsList()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Var: vexp, From: from, To: to, Down: down, Body: body, Pos: t.Pos}, nil

	case Ident:
		// Assignment, procedure call, or builtin.
		return p.parseSimpleStmt()

	case Semi:
		return nil, nil
	}
	return nil, errf(t.Pos, "expected statement, found %s", t)
}

// parseStmtAsList parses a single statement as a one-element list,
// flattening compound statements.
func (p *Parser) parseStmtAsList() ([]Stmt, error) {
	if p.tok().Kind == KwBegin {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []Stmt{s}, nil
}

func (p *Parser) parseSimpleStmt() (Stmt, error) {
	name := p.tok()
	// Builtin or user procedure call?
	if b := builtinByName(name.Text); b != NotBuiltin {
		p.next()
		call, err := p.parseCallArgs(name.Pos, nil, b)
		if err != nil {
			return nil, err
		}
		return &CallStmt{Call: call, Pos: name.Pos}, nil
	}
	if proc, ok := p.procs[name.Text]; ok {
		// A function used as a statement target may also be the result
		// assignment "f := expr" inside f itself.
		if !(p.cur != nil && p.cur.Name == name.Text && p.toks[p.pos+1].Kind == Assign) {
			p.next()
			call, err := p.parseCallArgs(name.Pos, proc, NotBuiltin)
			if err != nil {
				return nil, err
			}
			if proc.Result != nil {
				return nil, errf(name.Pos, "function %s called as a procedure", proc.Name)
			}
			return &CallStmt{Call: call, Pos: name.Pos}, nil
		}
	}

	lhs, err := p.parseDesignator()
	if err != nil {
		return nil, err
	}
	at, err := p.expect(Assign)
	if err != nil {
		return nil, err
	}
	if !isLValue(lhs) {
		return nil, errf(at.Pos, "left side of := is not assignable")
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !lhs.ExprType().Same(rhs.ExprType()) {
		return nil, errf(at.Pos, "cannot assign %s to %s", rhs.ExprType(), lhs.ExprType())
	}
	if !lhs.ExprType().Scalar() {
		return nil, errf(at.Pos, "composite assignment is not supported; copy elementwise")
	}
	if o := rootObject(lhs); o != nil && o.Kind == ObjConst {
		return nil, errf(at.Pos, "cannot assign to constant %s", o.Name)
	}
	return &AssignStmt{LHS: lhs, RHS: rhs, Pos: at.Pos}, nil
}

// rootObject returns the object at the base of a designator chain.
func rootObject(e Expr) *Object {
	for {
		switch ex := e.(type) {
		case *VarExpr:
			return ex.Obj
		case *IndexExpr:
			e = ex.Arr
		case *FieldExpr:
			e = ex.Rec
		default:
			return nil
		}
	}
}

func builtinByName(name string) Builtin {
	switch name {
	case "writeint":
		return BWriteInt
	case "writechar":
		return BWriteChar
	case "halt":
		return BHalt
	}
	return NotBuiltin
}

// parseCallArgs parses an argument list and checks it against the
// procedure or builtin signature.
func (p *Parser) parseCallArgs(pos Pos, proc *ProcDecl, b Builtin) (*CallExpr, error) {
	var args []Expr
	if p.accept(LParen) {
		if !p.accept(RParen) {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(Comma) {
					break
				}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
		}
	}
	call := &CallExpr{Proc: proc, Builtin: b, Args: args}
	call.Pos = pos
	switch b {
	case BWriteInt:
		if len(args) != 1 || !args[0].ExprType().Same(IntType) {
			return nil, errf(pos, "writeint takes one integer")
		}
		return call, nil
	case BWriteChar:
		if len(args) != 1 || !args[0].ExprType().Same(CharType) {
			return nil, errf(pos, "writechar takes one char")
		}
		return call, nil
	case BHalt:
		if len(args) != 0 {
			return nil, errf(pos, "halt takes no arguments")
		}
		return call, nil
	}
	if len(args) != len(proc.Params) {
		return nil, errf(pos, "%s needs %d arguments, got %d", proc.Name, len(proc.Params), len(args))
	}
	for i, a := range args {
		param := proc.Params[i]
		if !a.ExprType().Same(param.Type) {
			return nil, errf(a.ExprPos(), "argument %d of %s: expected %s, got %s",
				i+1, proc.Name, param.Type, a.ExprType())
		}
		if param.ByRef && !isLValue(a) {
			return nil, errf(a.ExprPos(), "argument %d of %s must be a variable", i+1, proc.Name)
		}
	}
	if proc.Result != nil {
		call.T = proc.Result
	}
	return call, nil
}

func isLValue(e Expr) bool {
	switch v := e.(type) {
	case *VarExpr:
		return v.Obj.Kind != ObjConst
	case *IndexExpr, *FieldExpr:
		return true
	}
	return false
}
