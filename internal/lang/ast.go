package lang

// Program is a parsed Pasqual compilation unit.
type Program struct {
	Name    string
	Consts  []*Object // IsConst objects, including string constants
	Globals []*Object
	Procs   []*ProcDecl
	Body    []Stmt // main program body
}

// Proc returns the named procedure or function.
func (p *Program) Proc(name string) *ProcDecl {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// ObjKind classifies a named object.
type ObjKind uint8

const (
	ObjGlobal ObjKind = iota
	ObjLocal
	ObjParam
	ObjConst
)

// Object is a declared name: a global, a local, a parameter, or a
// constant. The checker resolves every identifier to its Object.
type Object struct {
	Name string
	Kind ObjKind
	Pos  Pos
	Type *Type

	// ByRef marks a var parameter.
	ByRef bool
	// Owner is the declaring procedure (nil for globals and global
	// constants).
	Owner *ProcDecl
	// Slot is the object's storage index, assigned by the parser: a
	// global's index in Program.Globals; a parameter's, local's or
	// result object's index in its procedure's activation, which has
	// Owner.Slots() of them. Constants have none.
	Slot int

	// Constant value (Kind == ObjConst): a scalar or a string.
	ConstVal int32
	IsStr    bool
	StrVal   string
}

// ProcDecl is a procedure or function declaration.
type ProcDecl struct {
	Name   string
	Pos    Pos
	Params []*Object
	Result *Type // nil for procedures
	Locals []*Object
	Body   []Stmt

	// ResultObj is the pseudo-local holding the function result
	// (assigned by Pascal's "name := expr" idiom).
	ResultObj *Object
}

// Slots returns the number of storage slots of an activation: one per
// parameter, local and result object.
func (d *ProcDecl) Slots() int {
	n := len(d.Params) + len(d.Locals)
	if d.ResultObj != nil {
		n++
	}
	return n
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Expr is an expression node; the checker fills in its type.
type Expr interface {
	ExprType() *Type
	ExprPos() Pos
}

type exprBase struct {
	T   *Type
	Pos Pos
}

func (e *exprBase) ExprType() *Type { return e.T }
func (e *exprBase) ExprPos() Pos    { return e.Pos }

// Statements.

// AssignStmt is "lhs := rhs". LHS is a VarExpr, IndexExpr, or FieldExpr.
type AssignStmt struct {
	LHS, RHS Expr
	Pos      Pos
}

// IfStmt is "if cond then Then [else Else]".
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil if absent
	Pos  Pos
}

// WhileStmt is "while cond do body".
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  Pos
}

// RepeatStmt is "repeat body until cond".
type RepeatStmt struct {
	Body []Stmt
	Cond Expr
	Pos  Pos
}

// ForStmt is "for v := from to|downto limit do body".
type ForStmt struct {
	Var      *VarExpr
	From, To Expr
	Down     bool
	Body     []Stmt
	Pos      Pos
}

// CallStmt invokes a procedure (or a builtin).
type CallStmt struct {
	Call *CallExpr
	Pos  Pos
}

// BlockStmt is a begin..end compound statement.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

func (*BlockStmt) stmt() {}

func (*AssignStmt) stmt() {}
func (*IfStmt) stmt()     {}
func (*WhileStmt) stmt()  {}
func (*RepeatStmt) stmt() {}
func (*ForStmt) stmt()    {}
func (*CallStmt) stmt()   {}

// Expressions.

// IntExpr is an integer literal or folded constant.
type IntExpr struct {
	exprBase
	Val int32
}

// CharExpr is a character literal.
type CharExpr struct {
	exprBase
	Val int32
}

// BoolExpr is true or false.
type BoolExpr struct {
	exprBase
	Val bool
}

// VarExpr references a variable, parameter, or named constant.
type VarExpr struct {
	exprBase
	Obj *Object
}

// IndexExpr is arr[idx].
type IndexExpr struct {
	exprBase
	Arr Expr
	Idx Expr
}

// FieldExpr is rec.field.
type FieldExpr struct {
	exprBase
	Rec        Expr
	Field      string
	FieldIndex int
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpEq
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

var binOpNames = [...]string{
	"+", "-", "*", "div", "mod", "and", "or",
	"=", "<>", "<", "<=", ">", ">=",
}

func (op BinOp) String() string { return binOpNames[op] }

// Relational reports whether the operator compares operands.
func (op BinOp) Relational() bool { return op >= OpEq }

// BinExpr is a binary operation.
type BinExpr struct {
	exprBase
	Op   BinOp
	L, R Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

const (
	OpNeg UnOp = iota
	OpNot
	// OpOrd and OpChr are the ordinal conversions; they are free at the
	// machine level.
	OpOrd
	OpChr
)

func (op UnOp) String() string {
	switch op {
	case OpNeg:
		return "-"
	case OpNot:
		return "not"
	case OpOrd:
		return "ord"
	case OpChr:
		return "chr"
	}
	return "?"
}

// UnExpr is a unary operation.
type UnExpr struct {
	exprBase
	Op UnOp
	E  Expr
}

// Builtin identifies an intrinsic procedure.
type Builtin uint8

const (
	NotBuiltin Builtin = iota
	BWriteInt          // writeint(i): print a signed integer and newline
	BWriteChar         // writechar(c): print a character
	BHalt              // halt: stop the program
)

// CallExpr invokes a function, procedure, or builtin.
type CallExpr struct {
	exprBase
	Proc    *ProcDecl // nil for builtins
	Builtin Builtin
	Args    []Expr
}
