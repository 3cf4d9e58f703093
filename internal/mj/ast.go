package mj

import "fmt"

// Type is an MJ static type.
type Type struct {
	Kind TypeKind
	// Class is the class name for KindObject.
	Class string
	// Elem is the element type for KindArray.
	Elem *Type
}

// TypeKind enumerates MJ types.
type TypeKind uint8

const (
	TypeInt TypeKind = iota
	TypeDouble
	TypeBool
	TypeString
	TypeVoid
	TypeThread
	TypeObject
	TypeArray
	TypeNull // type of the null literal; assignable to refs
	TypeChan // chan<Elem>
)

// Prebuilt scalar types.
var (
	IntType    = &Type{Kind: TypeInt}
	DoubleType = &Type{Kind: TypeDouble}
	BoolType   = &Type{Kind: TypeBool}
	StringType = &Type{Kind: TypeString}
	VoidType   = &Type{Kind: TypeVoid}
	ThreadType = &Type{Kind: TypeThread}
	NullType   = &Type{Kind: TypeNull}
)

// ObjectType returns the type of instances of class name.
func ObjectType(name string) *Type { return &Type{Kind: TypeObject, Class: name} }

// ArrayType returns the array type with the given element type.
func ArrayType(elem *Type) *Type { return &Type{Kind: TypeArray, Elem: elem} }

// ChanType returns the channel type carrying the given element type.
func ChanType(elem *Type) *Type { return &Type{Kind: TypeChan, Elem: elem} }

// IsRef reports whether the type is a reference type (object, array,
// string, thread, or null).
func (t *Type) IsRef() bool {
	switch t.Kind {
	case TypeObject, TypeArray, TypeString, TypeThread, TypeNull, TypeChan:
		return true
	}
	return false
}

// Equal reports structural type equality.
func (t *Type) Equal(u *Type) bool {
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case TypeObject:
		return t.Class == u.Class
	case TypeArray, TypeChan:
		return t.Elem.Equal(u.Elem)
	}
	return true
}

// AssignableTo reports whether a value of type t can be assigned to a
// location of type u.
func (t *Type) AssignableTo(u *Type) bool {
	if t.Equal(u) {
		return true
	}
	if t.Kind == TypeNull && u.IsRef() {
		return true
	}
	if t.Kind == TypeInt && u.Kind == TypeDouble {
		return true
	}
	return false
}

func (t *Type) String() string {
	switch t.Kind {
	case TypeInt:
		return "int"
	case TypeDouble:
		return "double"
	case TypeBool:
		return "boolean"
	case TypeString:
		return "string"
	case TypeVoid:
		return "void"
	case TypeThread:
		return "thread"
	case TypeObject:
		return t.Class
	case TypeArray:
		return t.Elem.String() + "[]"
	case TypeNull:
		return "null"
	case TypeChan:
		return "chan<" + t.Elem.String() + ">"
	}
	return fmt.Sprintf("Type(%d)", t.Kind)
}

// Program is a parsed MJ compilation unit.
type Program struct {
	Classes []*ClassDecl
	Pragmas []Pragma

	// byName is filled by the checker.
	byName map[string]*ClassDecl
}

// ClassByName returns the class declaration, after Check.
func (p *Program) ClassByName(name string) *ClassDecl { return p.byName[name] }

// ClassDecl is a class declaration.
type ClassDecl struct {
	Pos     Pos
	Name    string
	Fields  []*FieldDeclNode
	Methods []*MethodDecl

	fieldsByName  map[string]*FieldDeclNode
	methodsByName map[string]*MethodDecl
}

// Field returns the field declaration, after Check.
func (c *ClassDecl) Field(name string) *FieldDeclNode { return c.fieldsByName[name] }

// Method returns the method declaration, after Check.
func (c *ClassDecl) Method(name string) *MethodDecl { return c.methodsByName[name] }

// FieldDeclNode is a field declaration.
type FieldDeclNode struct {
	Pos      Pos
	Name     string
	Type     *Type
	Volatile bool
	// Index is the field's runtime slot, assigned by the checker.
	Index int
}

// MethodDecl is a method declaration.
type MethodDecl struct {
	Pos          Pos
	Name         string
	Class        *ClassDecl
	Synchronized bool
	Params       []*Param
	Ret          *Type
	Body         *Block
}

// QName returns Class.Method.
func (m *MethodDecl) QName() string { return m.Class.Name + "." + m.Name }

// Param is a method parameter.
type Param struct {
	Pos  Pos
	Name string
	Type *Type
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	StmtPos() Pos
}

// Block is a sequence of statements with its own scope.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// VarDeclStmt declares (and optionally initializes) a local variable.
type VarDeclStmt struct {
	Pos  Pos
	Name string
	Type *Type
	Init Expr // may be nil
}

// AssignStmt assigns to a local, a field, or an array element.
type AssignStmt struct {
	Pos    Pos
	Target Expr // IdentExpr, FieldExpr, or IndexExpr
	Value  Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body *Block
}

// ForStmt is for(init; cond; post) body. Init/Post are optional simple
// statements (VarDeclStmt, AssignStmt, or ExprStmt).
type ForStmt struct {
	Pos  Pos
	Init Stmt // may be nil
	Cond Expr // may be nil (infinite)
	Post Stmt // may be nil
	Body *Block
}

// ReturnStmt returns from a method.
type ReturnStmt struct {
	Pos   Pos
	Value Expr // nil for void
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// ExprStmt evaluates an expression for effect (call or spawn).
type ExprStmt struct {
	Pos Pos
	E   Expr
}

// SyncStmt is synchronized (lock) { body }.
type SyncStmt struct {
	Pos  Pos
	Lock Expr
	Body *Block
}

// AtomicStmt is atomic { body }: a software transaction.
type AtomicStmt struct {
	Pos  Pos
	Body *Block
}

// WaitStmt is wait(o); NotifyStmt covers notify/notifyall.
type WaitStmt struct {
	Pos Pos
	Obj Expr
}

// NotifyStmt is notify(o) or notifyall(o).
type NotifyStmt struct {
	Pos Pos
	Obj Expr
	All bool
}

// JoinStmt is join(t).
type JoinStmt struct {
	Pos    Pos
	Thread Expr
}

// PrintStmt is print(e).
type PrintStmt struct {
	Pos  Pos
	Args []Expr
}

// TryStmt is try { body } catch { handler }: the handler runs iff the
// body throws a DataRaceException (the only catchable exception in MJ).
type TryStmt struct {
	Pos   Pos
	Body  *Block
	Catch *Block
}

// SendStmt is send(c, v): deliver v into channel c, blocking while the
// buffer is full.
type SendStmt struct {
	Pos   Pos
	Chan  Expr
	Value Expr
	// Elem is the channel's element type, resolved by the checker (for
	// the int->double widening of the sent value).
	Elem *Type
}

// CloseStmt is close(c).
type CloseStmt struct {
	Pos  Pos
	Chan Expr
}

// SelectArm is one case of a select statement: a send, or a receive
// optionally binding the received value to a fresh local.
type SelectArm struct {
	Pos  Pos
	Send bool
	Chan Expr
	// Value is the sent expression (send arms only).
	Value Expr
	// Bind/BindType declare the receive binding ("" discards the value).
	Bind     string
	BindType *Type
	// Elem is the channel's element type, resolved by the checker.
	Elem *Type
	Body *Block
}

// SelectStmt is select { case ... } with an optional default block. The
// first ready arm runs; with no ready arm the statement blocks, unless a
// default is present — a default that fires performs no synchronization
// and creates no happens-before edge.
type SelectStmt struct {
	Pos     Pos
	Arms    []*SelectArm
	Default *Block // may be nil
}

func (*Block) stmtNode()        {}
func (*VarDeclStmt) stmtNode()  {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}
func (*SyncStmt) stmtNode()     {}
func (*AtomicStmt) stmtNode()   {}
func (*WaitStmt) stmtNode()     {}
func (*NotifyStmt) stmtNode()   {}
func (*JoinStmt) stmtNode()     {}
func (*PrintStmt) stmtNode()    {}
func (*TryStmt) stmtNode()      {}
func (*SendStmt) stmtNode()     {}
func (*CloseStmt) stmtNode()    {}
func (*SelectStmt) stmtNode()   {}

// StmtPos implementations.
func (s *Block) StmtPos() Pos        { return s.Pos }
func (s *VarDeclStmt) StmtPos() Pos  { return s.Pos }
func (s *AssignStmt) StmtPos() Pos   { return s.Pos }
func (s *IfStmt) StmtPos() Pos       { return s.Pos }
func (s *WhileStmt) StmtPos() Pos    { return s.Pos }
func (s *ForStmt) StmtPos() Pos      { return s.Pos }
func (s *ReturnStmt) StmtPos() Pos   { return s.Pos }
func (s *BreakStmt) StmtPos() Pos    { return s.Pos }
func (s *ContinueStmt) StmtPos() Pos { return s.Pos }
func (s *ExprStmt) StmtPos() Pos     { return s.Pos }
func (s *SyncStmt) StmtPos() Pos     { return s.Pos }
func (s *AtomicStmt) StmtPos() Pos   { return s.Pos }
func (s *WaitStmt) StmtPos() Pos     { return s.Pos }
func (s *NotifyStmt) StmtPos() Pos   { return s.Pos }
func (s *JoinStmt) StmtPos() Pos     { return s.Pos }
func (s *PrintStmt) StmtPos() Pos    { return s.Pos }
func (s *TryStmt) StmtPos() Pos      { return s.Pos }
func (s *SendStmt) StmtPos() Pos     { return s.Pos }
func (s *CloseStmt) StmtPos() Pos    { return s.Pos }
func (s *SelectStmt) StmtPos() Pos   { return s.Pos }

// Expr is an expression node. The checker fills each node's type.
type Expr interface {
	exprNode()
	ExprPos() Pos
	// Type returns the checked static type (nil before Check).
	Type() *Type
}

type typed struct{ typ *Type }

func (t *typed) Type() *Type     { return t.typ }
func (t *typed) setType(u *Type) { t.typ = u }

// IntLit is an integer literal.
type IntLit struct {
	typed
	Pos Pos
	V   int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	typed
	Pos Pos
	V   float64
}

// BoolLit is true/false.
type BoolLit struct {
	typed
	Pos Pos
	V   bool
}

// StringLit is a string literal.
type StringLit struct {
	typed
	Pos Pos
	V   string
}

// NullLit is null.
type NullLit struct {
	typed
	Pos Pos
}

// ThisExpr is this.
type ThisExpr struct {
	typed
	Pos Pos
}

// IdentExpr is a local variable or parameter reference.
type IdentExpr struct {
	typed
	Pos  Pos
	Name string
}

// FieldExpr is recv.Name. The checker resolves Decl.
type FieldExpr struct {
	typed
	Pos  Pos
	Recv Expr
	Name string
	Decl *FieldDeclNode
	// SiteID is the unique access-site id assigned by the checker, used
	// by the static analyses and their per-site check masks.
	SiteID int
}

// IndexExpr is arr[idx].
type IndexExpr struct {
	typed
	Pos    Pos
	Arr    Expr
	Index  Expr
	SiteID int
}

// LenExpr is arr.length (parsed from FieldExpr on arrays).
type LenExpr struct {
	typed
	Pos Pos
	Arr Expr
}

// CallExpr is recv.Name(args); the checker resolves Decl.
type CallExpr struct {
	typed
	Pos  Pos
	Recv Expr // nil means this
	Name string
	Args []Expr
	Decl *MethodDecl
}

// NewExpr is new C().
type NewExpr struct {
	typed
	Pos   Pos
	Class string
	Decl  *ClassDecl
}

// NewArrayExpr is new T[len], or new T[len][len2]... for eager
// multi-dimensional allocation; extraDims holds the inner lengths.
type NewArrayExpr struct {
	typed
	Pos       Pos
	Elem      *Type
	Len       Expr
	extraDims []Expr
}

// ExtraDims returns the inner dimension lengths of a multi-dimensional
// allocation (empty for one-dimensional arrays).
func (e *NewArrayExpr) ExtraDims() []Expr { return e.extraDims }

// SpawnExpr is spawn recv.Name(args): starts a thread running the
// method, evaluating to a thread handle.
type SpawnExpr struct {
	typed
	Pos  Pos
	Call *CallExpr
	// SpawnID is the unique spawn-site id assigned by the checker.
	SpawnID int
}

// MakeChanExpr is make(chan<T>) or make(chan<T>, cap).
type MakeChanExpr struct {
	typed
	Pos  Pos
	Elem *Type
	Cap  Expr // may be nil (unbuffered)
}

// RecvExpr is recv(c): take the next message, blocking while the
// channel is empty and open; a closed, drained channel yields the
// element type's zero value without blocking.
type RecvExpr struct {
	typed
	Pos  Pos
	Chan Expr
}

// UnaryExpr is !e or -e.
type UnaryExpr struct {
	typed
	Pos Pos
	Op  TokKind
	E   Expr
}

// BinaryExpr is e1 op e2.
type BinaryExpr struct {
	typed
	Pos  Pos
	Op   TokKind
	L, R Expr
}

func (*IntLit) exprNode()       {}
func (*FloatLit) exprNode()     {}
func (*BoolLit) exprNode()      {}
func (*StringLit) exprNode()    {}
func (*NullLit) exprNode()      {}
func (*ThisExpr) exprNode()     {}
func (*IdentExpr) exprNode()    {}
func (*FieldExpr) exprNode()    {}
func (*IndexExpr) exprNode()    {}
func (*LenExpr) exprNode()      {}
func (*CallExpr) exprNode()     {}
func (*NewExpr) exprNode()      {}
func (*NewArrayExpr) exprNode() {}
func (*SpawnExpr) exprNode()    {}
func (*UnaryExpr) exprNode()    {}
func (*BinaryExpr) exprNode()   {}
func (*MakeChanExpr) exprNode() {}
func (*RecvExpr) exprNode()     {}

// ExprPos implementations.
func (e *IntLit) ExprPos() Pos       { return e.Pos }
func (e *FloatLit) ExprPos() Pos     { return e.Pos }
func (e *BoolLit) ExprPos() Pos      { return e.Pos }
func (e *StringLit) ExprPos() Pos    { return e.Pos }
func (e *NullLit) ExprPos() Pos      { return e.Pos }
func (e *ThisExpr) ExprPos() Pos     { return e.Pos }
func (e *IdentExpr) ExprPos() Pos    { return e.Pos }
func (e *FieldExpr) ExprPos() Pos    { return e.Pos }
func (e *IndexExpr) ExprPos() Pos    { return e.Pos }
func (e *LenExpr) ExprPos() Pos      { return e.Pos }
func (e *CallExpr) ExprPos() Pos     { return e.Pos }
func (e *NewExpr) ExprPos() Pos      { return e.Pos }
func (e *NewArrayExpr) ExprPos() Pos { return e.Pos }
func (e *SpawnExpr) ExprPos() Pos    { return e.Pos }
func (e *UnaryExpr) ExprPos() Pos    { return e.Pos }
func (e *BinaryExpr) ExprPos() Pos   { return e.Pos }
func (e *MakeChanExpr) ExprPos() Pos { return e.Pos }
func (e *RecvExpr) ExprPos() Pos     { return e.Pos }
