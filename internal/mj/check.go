package mj

import "fmt"

// CheckError is a semantic error with its position.
type CheckError struct {
	Pos Pos
	Msg string
}

func (e *CheckError) Error() string { return fmt.Sprintf("%v: %s", e.Pos, e.Msg) }

// Check resolves and typechecks a parsed program in place: class, field
// and method references are resolved, every expression receives its
// static type, and access sites and spawn sites receive unique ids.
// Then the restrictions on atomic blocks are enforced on the resolved
// program: an atomic block, and every method it reaches through calls,
// may not synchronize, use threads, channels, volatile fields, try or
// I/O, or nest a transaction (a return is refused only in the block's
// own body). The verdict does not depend on declaration order.
func Check(prog *Program) error {
	c := &checker{prog: prog}
	return c.run()
}

// MustCheck parses and checks src (test and workload support).
func MustCheck(src string) *Program {
	prog := MustParse(src)
	if err := Check(prog); err != nil {
		panic(err)
	}
	return prog
}

type checker struct {
	prog      *Program
	method    *MethodDecl
	scopes    []map[string]*Type
	loopDepth int
	inAtomic  bool // lexically inside an atomic block of c.method
	nextSite  int
	nextSpawn int
	// atomics are the atomic blocks in resolution order, and entered
	// the methods atomicUnsafe has entered.
	atomics []*AtomicStmt
	entered map[*MethodDecl]bool
}

func (c *checker) errf(pos Pos, format string, args ...any) error {
	return &CheckError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) run() error {
	c.prog.byName = make(map[string]*ClassDecl)
	for _, cd := range c.prog.Classes {
		if _, dup := c.prog.byName[cd.Name]; dup {
			return c.errf(cd.Pos, "duplicate class %s", cd.Name)
		}
		c.prog.byName[cd.Name] = cd
		cd.fieldsByName = make(map[string]*FieldDeclNode)
		cd.methodsByName = make(map[string]*MethodDecl)
		for i, f := range cd.Fields {
			if _, dup := cd.fieldsByName[f.Name]; dup {
				return c.errf(f.Pos, "duplicate field %s.%s", cd.Name, f.Name)
			}
			f.Index = i
			cd.fieldsByName[f.Name] = f
		}
		for _, m := range cd.Methods {
			if _, dup := cd.methodsByName[m.Name]; dup {
				return c.errf(m.Pos, "duplicate method %s", m.QName())
			}
			if _, clash := cd.fieldsByName[m.Name]; clash {
				return c.errf(m.Pos, "method %s clashes with a field name", m.QName())
			}
			cd.methodsByName[m.Name] = m
		}
	}

	// Validate declared types now that the class table exists.
	for _, cd := range c.prog.Classes {
		for _, f := range cd.Fields {
			if err := c.validType(f.Pos, f.Type); err != nil {
				return err
			}
			if f.Volatile && f.Type.Kind == TypeArray {
				return c.errf(f.Pos, "volatile array fields are not supported")
			}
		}
		for _, m := range cd.Methods {
			if m.Ret.Kind != TypeVoid {
				if err := c.validType(m.Pos, m.Ret); err != nil {
					return err
				}
			}
			for _, p := range m.Params {
				if err := c.validType(p.Pos, p.Type); err != nil {
					return err
				}
			}
		}
	}

	for _, cd := range c.prog.Classes {
		for _, m := range cd.Methods {
			if err := c.checkMethod(m); err != nil {
				return err
			}
		}
	}

	// The atomic-block restrictions follow calls, so they are checked
	// once every body is resolved, whatever the declaration order.
	c.entered = make(map[*MethodDecl]bool)
	for _, a := range c.atomics {
		if err := c.checkAtomic(a); err != nil {
			return err
		}
	}
	return nil
}

// atomicRule is the one list of what a transaction may not contain. For
// a statement or expression n it returns msg, the error for n in an
// atomic block's body, and reason, what n makes of a method that an
// atomic block calls. Both are "" for anything a transaction may
// contain. (A return is refused in the block's own body only, by
// checkStmt, so that a callee may return.)
func atomicRule(n any) (msg, reason string) {
	switch n := n.(type) {
	case *AtomicStmt:
		return "nested atomic blocks are not supported", "nests atomic"
	case *SyncStmt:
		return "synchronized inside atomic block", "uses synchronized"
	case *TryStmt:
		return "try inside atomic block", "uses try"
	case *WaitStmt:
		return "wait inside atomic block", "uses wait"
	case *NotifyStmt:
		return "notify inside atomic block", "uses notify"
	case *JoinStmt:
		return "join inside atomic block", "joins a thread"
	case *PrintStmt:
		return "print (I/O) inside atomic block", "performs I/O"
	case *SendStmt:
		return "channel send inside atomic block", "sends on a channel"
	case *CloseStmt:
		return "channel close inside atomic block", "closes a channel"
	case *SelectStmt:
		return "select inside atomic block", "uses select"
	case *SpawnExpr:
		return "spawn inside atomic block", "spawns a thread"
	case *MakeChanExpr:
		return "make(chan) inside atomic block", "makes a channel"
	case *RecvExpr:
		return "channel receive inside atomic block", "receives from a channel"
	case *FieldExpr:
		if n.Decl.Volatile {
			return "volatile access inside atomic block", "accesses a volatile field"
		}
	}
	return "", ""
}

// checkAtomic refuses the first construct in a's body that atomicRule
// forbids, and the first call to a method that atomicUnsafe refuses.
func (c *checker) checkAtomic(a *AtomicStmt) error {
	return walkUntil(a.Body, func(n any, pos Pos) error {
		if msg, _ := atomicRule(n); msg != "" {
			return c.errf(pos, "%s", msg)
		}
		if call, ok := n.(*CallExpr); ok {
			if err := c.atomicUnsafe(call.Decl); err != nil {
				return c.errf(pos, "call to %s inside atomic block: %v", call.Decl.QName(), err)
			}
		}
		return nil
	})
}

// atomicUnsafe returns why m may not run inside a transaction: it is
// synchronized, or it or a method it calls contains something that
// atomicRule gives a reason for. It enters each method once per program:
// a search that finds a reason ends the check, and one that finds none
// has shown every method it entered safe.
func (c *checker) atomicUnsafe(m *MethodDecl) error {
	if c.entered[m] {
		return nil
	}
	c.entered[m] = true
	if m.Synchronized {
		return fmt.Errorf("%s is synchronized", m.QName())
	}
	return walkUntil(m.Body, func(n any, _ Pos) error {
		if _, reason := atomicRule(n); reason != "" {
			return fmt.Errorf("%s %s", m.QName(), reason)
		}
		if call, ok := n.(*CallExpr); ok {
			return c.atomicUnsafe(call.Decl)
		}
		return nil
	})
}

// walkUntil calls f on every statement and expression under body, in
// source order, until f returns an error, and returns that error.
func walkUntil(body Stmt, f func(n any, pos Pos) error) error {
	var err error
	WalkStmts(body, func(s Stmt) {
		if err == nil {
			err = f(s, s.StmtPos())
		}
		stmtExprs(s, func(e Expr) {
			if err == nil {
				err = f(e, e.ExprPos())
			}
		})
	})
	return err
}

func (c *checker) validType(pos Pos, t *Type) error {
	switch t.Kind {
	case TypeObject:
		if _, ok := c.prog.byName[t.Class]; !ok {
			return c.errf(pos, "unknown class %s", t.Class)
		}
	case TypeArray, TypeChan:
		return c.validType(pos, t.Elem)
	case TypeVoid:
		return c.errf(pos, "void is not a value type")
	}
	return nil
}

func (c *checker) checkMethod(m *MethodDecl) error {
	c.method = m
	c.scopes = []map[string]*Type{{}}
	c.loopDepth = 0
	c.inAtomic = false
	for _, p := range m.Params {
		if _, dup := c.scopes[0][p.Name]; dup {
			return c.errf(p.Pos, "duplicate parameter %s", p.Name)
		}
		c.scopes[0][p.Name] = p.Type
	}
	return c.checkBlock(m.Body)
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*Type{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }
func (c *checker) declare(name string, t *Type) bool {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return false
	}
	top[name] = t
	return true
}

func (c *checker) lookup(name string) (*Type, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	return nil, false
}

func (c *checker) checkBlock(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return c.checkBlock(st)
	case *VarDeclStmt:
		if err := c.validType(st.Pos, st.Type); err != nil {
			return err
		}
		if st.Init != nil {
			it, err := c.checkExprP(&st.Init)
			if err != nil {
				return err
			}
			if !it.AssignableTo(st.Type) {
				return c.errf(st.Pos, "cannot initialize %s %s with %s", st.Type, st.Name, it)
			}
		}
		if !c.declare(st.Name, st.Type) {
			return c.errf(st.Pos, "redeclaration of %s", st.Name)
		}
		return nil
	case *AssignStmt:
		tt, err := c.checkExprP(&st.Target)
		if err != nil {
			return err
		}
		if _, isLen := st.Target.(*LenExpr); isLen {
			return c.errf(st.Pos, "cannot assign to length")
		}
		vt, err := c.checkExprP(&st.Value)
		if err != nil {
			return err
		}
		if !vt.AssignableTo(tt) {
			return c.errf(st.Pos, "cannot assign %s to %s", vt, tt)
		}
		return nil
	case *IfStmt:
		ct, err := c.checkExprP(&st.Cond)
		if err != nil {
			return err
		}
		if ct.Kind != TypeBool {
			return c.errf(st.Pos, "if condition must be boolean, got %s", ct)
		}
		if err := c.checkBlock(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return c.checkBlock(st.Else)
		}
		return nil
	case *WhileStmt:
		ct, err := c.checkExprP(&st.Cond)
		if err != nil {
			return err
		}
		if ct.Kind != TypeBool {
			return c.errf(st.Pos, "while condition must be boolean, got %s", ct)
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(st.Body)
	case *ForStmt:
		c.push()
		defer c.pop()
		if st.Init != nil {
			if err := c.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			ct, err := c.checkExprP(&st.Cond)
			if err != nil {
				return err
			}
			if ct.Kind != TypeBool {
				return c.errf(st.Pos, "for condition must be boolean, got %s", ct)
			}
		}
		if st.Post != nil {
			if err := c.checkStmt(st.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(st.Body)
	case *ReturnStmt:
		if c.inAtomic {
			return c.errf(st.Pos, "return inside atomic block is not supported")
		}
		if st.Value == nil {
			if c.method.Ret.Kind != TypeVoid {
				return c.errf(st.Pos, "missing return value in %s", c.method.QName())
			}
			return nil
		}
		if c.method.Ret.Kind == TypeVoid {
			return c.errf(st.Pos, "void method %s returns a value", c.method.QName())
		}
		vt, err := c.checkExprP(&st.Value)
		if err != nil {
			return err
		}
		if !vt.AssignableTo(c.method.Ret) {
			return c.errf(st.Pos, "cannot return %s from %s (want %s)", vt, c.method.QName(), c.method.Ret)
		}
		return nil
	case *BreakStmt:
		if c.loopDepth == 0 {
			return c.errf(st.Pos, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if c.loopDepth == 0 {
			return c.errf(st.Pos, "continue outside loop")
		}
		return nil
	case *ExprStmt:
		_, err := c.checkExprP(&st.E)
		return err
	case *SyncStmt:
		lt, err := c.checkExprP(&st.Lock)
		if err != nil {
			return err
		}
		if lt.Kind != TypeObject {
			return c.errf(st.Pos, "synchronized requires an object, got %s", lt)
		}
		return c.checkBlock(st.Body)
	case *AtomicStmt:
		// break, continue and return must not cross the transaction
		// boundary; the other restrictions are checked after resolution.
		c.atomics = append(c.atomics, st)
		savedLoops, savedAtomic := c.loopDepth, c.inAtomic
		c.loopDepth, c.inAtomic = 0, true
		defer func() { c.loopDepth, c.inAtomic = savedLoops, savedAtomic }()
		return c.checkBlock(st.Body)
	case *TryStmt:
		if err := c.checkBlock(st.Body); err != nil {
			return err
		}
		return c.checkBlock(st.Catch)
	case *SendStmt:
		ct, err := c.checkExprP(&st.Chan)
		if err != nil {
			return err
		}
		if ct.Kind != TypeChan {
			return c.errf(st.Pos, "send requires a channel, got %s", ct)
		}
		vt, err := c.checkExprP(&st.Value)
		if err != nil {
			return err
		}
		if !vt.AssignableTo(ct.Elem) {
			return c.errf(st.Pos, "cannot send %s on %s", vt, ct)
		}
		st.Elem = ct.Elem
		return nil
	case *CloseStmt:
		ct, err := c.checkExprP(&st.Chan)
		if err != nil {
			return err
		}
		if ct.Kind != TypeChan {
			return c.errf(st.Pos, "close requires a channel, got %s", ct)
		}
		return nil
	case *SelectStmt:
		for _, arm := range st.Arms {
			ct, err := c.checkExprP(&arm.Chan)
			if err != nil {
				return err
			}
			if ct.Kind != TypeChan {
				return c.errf(arm.Pos, "select case requires a channel, got %s", ct)
			}
			arm.Elem = ct.Elem
			if arm.Send {
				vt, err := c.checkExprP(&arm.Value)
				if err != nil {
					return err
				}
				if !vt.AssignableTo(ct.Elem) {
					return c.errf(arm.Pos, "cannot send %s on %s", vt, ct)
				}
			} else if arm.Bind != "" {
				if err := c.validType(arm.Pos, arm.BindType); err != nil {
					return err
				}
				if !ct.Elem.AssignableTo(arm.BindType) {
					return c.errf(arm.Pos, "cannot bind %s received from %s", arm.BindType, ct)
				}
				// The binding scopes over the arm body only.
				c.push()
				c.declare(arm.Bind, arm.BindType)
				err := c.checkBlock(arm.Body)
				c.pop()
				if err != nil {
					return err
				}
				continue
			}
			if err := c.checkBlock(arm.Body); err != nil {
				return err
			}
		}
		if st.Default != nil {
			return c.checkBlock(st.Default)
		}
		return nil
	case *WaitStmt:
		ot, err := c.checkExprP(&st.Obj)
		if err != nil {
			return err
		}
		if ot.Kind != TypeObject {
			return c.errf(st.Pos, "wait requires an object, got %s", ot)
		}
		return nil
	case *NotifyStmt:
		ot, err := c.checkExprP(&st.Obj)
		if err != nil {
			return err
		}
		if ot.Kind != TypeObject {
			return c.errf(st.Pos, "notify requires an object, got %s", ot)
		}
		return nil
	case *JoinStmt:
		tt, err := c.checkExprP(&st.Thread)
		if err != nil {
			return err
		}
		if tt.Kind != TypeThread {
			return c.errf(st.Pos, "join requires a thread, got %s", tt)
		}
		return nil
	case *PrintStmt:
		for i := range st.Args {
			if _, err := c.checkExprP(&st.Args[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return c.errf(s.StmtPos(), "unhandled statement %T", s)
}

// checkExprP checks the expression at *pe, replacing the node when the
// checker rewrites it (length access), and returns its type.
func (c *checker) checkExprP(pe *Expr) (*Type, error) {
	e2, t, err := c.checkExpr(*pe)
	if err != nil {
		return nil, err
	}
	*pe = e2
	return t, nil
}

func (c *checker) checkExpr(e Expr) (Expr, *Type, error) {
	switch ex := e.(type) {
	case *IntLit:
		ex.setType(IntType)
		return ex, IntType, nil
	case *FloatLit:
		ex.setType(DoubleType)
		return ex, DoubleType, nil
	case *BoolLit:
		ex.setType(BoolType)
		return ex, BoolType, nil
	case *StringLit:
		ex.setType(StringType)
		return ex, StringType, nil
	case *NullLit:
		ex.setType(NullType)
		return ex, NullType, nil
	case *ThisExpr:
		t := ObjectType(c.method.Class.Name)
		ex.setType(t)
		return ex, t, nil
	case *IdentExpr:
		t, ok := c.lookup(ex.Name)
		if !ok {
			// An unqualified name may be a field of this.
			if f := c.method.Class.Field(ex.Name); f != nil {
				fe := &FieldExpr{Pos: ex.Pos, Recv: &ThisExpr{Pos: ex.Pos}, Name: ex.Name}
				return c.checkExpr(fe)
			}
			return nil, nil, c.errf(ex.Pos, "undefined variable %s", ex.Name)
		}
		ex.setType(t)
		return ex, t, nil
	case *FieldExpr:
		recv, rt, err := c.checkExpr(ex.Recv)
		if err != nil {
			return nil, nil, err
		}
		ex.Recv = recv
		if rt.Kind == TypeArray || rt.Kind == TypeString {
			if ex.Name == "length" {
				le := &LenExpr{Pos: ex.Pos, Arr: recv}
				le.setType(IntType)
				return le, IntType, nil
			}
			return nil, nil, c.errf(ex.Pos, "%s has no field %s", rt, ex.Name)
		}
		if rt.Kind != TypeObject {
			return nil, nil, c.errf(ex.Pos, "field access on non-object %s", rt)
		}
		cd := c.prog.byName[rt.Class]
		f := cd.Field(ex.Name)
		if f == nil {
			return nil, nil, c.errf(ex.Pos, "class %s has no field %s", rt.Class, ex.Name)
		}
		ex.Decl = f
		ex.SiteID = c.nextSite
		c.nextSite++
		ex.setType(f.Type)
		return ex, f.Type, nil
	case *IndexExpr:
		arr, at, err := c.checkExpr(ex.Arr)
		if err != nil {
			return nil, nil, err
		}
		ex.Arr = arr
		if at.Kind != TypeArray {
			return nil, nil, c.errf(ex.Pos, "indexing non-array %s", at)
		}
		idx, it, err := c.checkExpr(ex.Index)
		if err != nil {
			return nil, nil, err
		}
		ex.Index = idx
		if it.Kind != TypeInt {
			return nil, nil, c.errf(ex.Pos, "array index must be int, got %s", it)
		}
		ex.SiteID = c.nextSite
		c.nextSite++
		ex.setType(at.Elem)
		return ex, at.Elem, nil
	case *CallExpr:
		return c.checkCall(ex)
	case *NewExpr:
		cd, ok := c.prog.byName[ex.Class]
		if !ok {
			return nil, nil, c.errf(ex.Pos, "unknown class %s", ex.Class)
		}
		ex.Decl = cd
		t := ObjectType(ex.Class)
		ex.setType(t)
		return ex, t, nil
	case *NewArrayExpr:
		if err := c.validType(ex.Pos, ex.Elem); err != nil {
			return nil, nil, err
		}
		dims := append([]Expr{ex.Len}, ex.extraDims...)
		for i := range dims {
			d, dt, err := c.checkExpr(dims[i])
			if err != nil {
				return nil, nil, err
			}
			if dt.Kind != TypeInt {
				return nil, nil, c.errf(ex.Pos, "array length must be int, got %s", dt)
			}
			dims[i] = d
		}
		ex.Len = dims[0]
		ex.extraDims = dims[1:]
		// The parser folded the inner dimensions into Elem already; the
		// allocation's own type is one array layer on top.
		t := ArrayType(ex.Elem)
		ex.setType(t)
		return ex, t, nil
	case *SpawnExpr:
		call, _, err := c.checkCall(ex.Call)
		if err != nil {
			return nil, nil, err
		}
		ex.Call = call.(*CallExpr)
		if ex.Call.Decl.Ret.Kind != TypeVoid {
			return nil, nil, c.errf(ex.Pos, "spawned method %s must return void", ex.Call.Decl.QName())
		}
		ex.SpawnID = c.nextSpawn
		c.nextSpawn++
		ex.setType(ThreadType)
		return ex, ThreadType, nil
	case *MakeChanExpr:
		if err := c.validType(ex.Pos, ex.Elem); err != nil {
			return nil, nil, err
		}
		if ex.Cap != nil {
			capE, capT, err := c.checkExpr(ex.Cap)
			if err != nil {
				return nil, nil, err
			}
			ex.Cap = capE
			if capT.Kind != TypeInt {
				return nil, nil, c.errf(ex.Pos, "channel capacity must be int, got %s", capT)
			}
		}
		t := ChanType(ex.Elem)
		ex.setType(t)
		return ex, t, nil
	case *RecvExpr:
		ch, ct, err := c.checkExpr(ex.Chan)
		if err != nil {
			return nil, nil, err
		}
		ex.Chan = ch
		if ct.Kind != TypeChan {
			return nil, nil, c.errf(ex.Pos, "recv requires a channel, got %s", ct)
		}
		ex.setType(ct.Elem)
		return ex, ct.Elem, nil
	case *UnaryExpr:
		sub, st, err := c.checkExpr(ex.E)
		if err != nil {
			return nil, nil, err
		}
		ex.E = sub
		switch ex.Op {
		case TokNot:
			if st.Kind != TypeBool {
				return nil, nil, c.errf(ex.Pos, "! requires boolean, got %s", st)
			}
			ex.setType(BoolType)
			return ex, BoolType, nil
		case TokMinus:
			if st.Kind != TypeInt && st.Kind != TypeDouble {
				return nil, nil, c.errf(ex.Pos, "- requires a number, got %s", st)
			}
			ex.setType(st)
			return ex, st, nil
		}
		return nil, nil, c.errf(ex.Pos, "unhandled unary op %v", ex.Op)
	case *BinaryExpr:
		return c.checkBinary(ex)
	case *LenExpr:
		ex.setType(IntType)
		return ex, IntType, nil
	}
	return nil, nil, c.errf(e.ExprPos(), "unhandled expression %T", e)
}

func (c *checker) checkCall(call *CallExpr) (Expr, *Type, error) {
	var cd *ClassDecl
	if call.Recv == nil {
		cd = c.method.Class
		call.Recv = &ThisExpr{Pos: call.Pos}
		if _, _, err := c.checkExpr(call.Recv); err != nil {
			return nil, nil, err
		}
	} else {
		recv, rt, err := c.checkExpr(call.Recv)
		if err != nil {
			return nil, nil, err
		}
		call.Recv = recv
		if rt.Kind != TypeObject {
			return nil, nil, c.errf(call.Pos, "method call on non-object %s", rt)
		}
		cd = c.prog.byName[rt.Class]
	}
	m := cd.Method(call.Name)
	if m == nil {
		return nil, nil, c.errf(call.Pos, "class %s has no method %s", cd.Name, call.Name)
	}
	if len(call.Args) != len(m.Params) {
		return nil, nil, c.errf(call.Pos, "%s takes %d arguments, got %d", m.QName(), len(m.Params), len(call.Args))
	}
	for i := range call.Args {
		a, at, err := c.checkExpr(call.Args[i])
		if err != nil {
			return nil, nil, err
		}
		call.Args[i] = a
		if !at.AssignableTo(m.Params[i].Type) {
			return nil, nil, c.errf(call.Pos, "argument %d of %s: cannot pass %s as %s", i+1, m.QName(), at, m.Params[i].Type)
		}
	}
	call.Decl = m
	call.setType(m.Ret)
	return call, m.Ret, nil
}

func (c *checker) checkBinary(ex *BinaryExpr) (Expr, *Type, error) {
	l, lt, err := c.checkExpr(ex.L)
	if err != nil {
		return nil, nil, err
	}
	r, rt, err := c.checkExpr(ex.R)
	if err != nil {
		return nil, nil, err
	}
	ex.L, ex.R = l, r

	numeric := func() (*Type, bool) {
		if lt.Kind == TypeInt && rt.Kind == TypeInt {
			return IntType, true
		}
		if (lt.Kind == TypeInt || lt.Kind == TypeDouble) && (rt.Kind == TypeInt || rt.Kind == TypeDouble) {
			return DoubleType, true
		}
		return nil, false
	}

	switch ex.Op {
	case TokPlus:
		if lt.Kind == TypeString && rt.Kind == TypeString {
			ex.setType(StringType)
			return ex, StringType, nil
		}
		fallthrough
	case TokMinus, TokStar, TokSlash:
		t, ok := numeric()
		if !ok {
			return nil, nil, c.errf(ex.Pos, "operator %v requires numbers, got %s and %s", ex.Op, lt, rt)
		}
		ex.setType(t)
		return ex, t, nil
	case TokPercent:
		if lt.Kind != TypeInt || rt.Kind != TypeInt {
			return nil, nil, c.errf(ex.Pos, "%% requires ints, got %s and %s", lt, rt)
		}
		ex.setType(IntType)
		return ex, IntType, nil
	case TokLt, TokLe, TokGt, TokGe:
		if _, ok := numeric(); !ok {
			return nil, nil, c.errf(ex.Pos, "comparison requires numbers, got %s and %s", lt, rt)
		}
		ex.setType(BoolType)
		return ex, BoolType, nil
	case TokEq, TokNe:
		ok := false
		if _, num := numeric(); num {
			ok = true
		}
		if lt.Kind == TypeBool && rt.Kind == TypeBool {
			ok = true
		}
		if lt.Kind == TypeString && rt.Kind == TypeString {
			ok = true
		}
		if lt.IsRef() && rt.IsRef() && (lt.AssignableTo(rt) || rt.AssignableTo(lt)) {
			ok = true
		}
		if !ok {
			return nil, nil, c.errf(ex.Pos, "cannot compare %s and %s", lt, rt)
		}
		ex.setType(BoolType)
		return ex, BoolType, nil
	case TokAnd, TokOr:
		if lt.Kind != TypeBool || rt.Kind != TypeBool {
			return nil, nil, c.errf(ex.Pos, "%v requires booleans, got %s and %s", ex.Op, lt, rt)
		}
		ex.setType(BoolType)
		return ex, BoolType, nil
	}
	return nil, nil, c.errf(ex.Pos, "unhandled binary op %v", ex.Op)
}

// NumSites returns the number of access sites assigned by Check.
func NumSites(prog *Program) int {
	n := 0
	forEachAccessSite(prog, func(int, *MethodDecl) { n++ })
	return n
}

// forEachAccessSite visits every field/index access site id with its
// enclosing method.
func forEachAccessSite(prog *Program, f func(site int, m *MethodDecl)) {
	for _, cd := range prog.Classes {
		for _, m := range cd.Methods {
			WalkExprs(m.Body, func(e Expr) {
				switch ex := e.(type) {
				case *FieldExpr:
					f(ex.SiteID, m)
				case *IndexExpr:
					f(ex.SiteID, m)
				}
			})
		}
	}
}
