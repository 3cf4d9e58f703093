package mj

import (
	"fmt"
	"io"
	"sync"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/jrt"
	"goldilocks/internal/stm"
)

// NullPointer mirrors Java's NullPointerException.
type NullPointer struct {
	Pos Pos
}

func (e *NullPointer) Error() string { return fmt.Sprintf("%v: null dereference", e.Pos) }

// InterpConfig configures an interpreter instance.
type InterpConfig struct {
	// Runtime hosts execution; required.
	Runtime *jrt.Runtime
	// Out receives print output (nil discards it).
	Out io.Writer
	// SiteNoCheck disables race checking per access site (indexed by
	// SiteID), typically the Chord-style analysis result.
	SiteNoCheck []bool
}

// Interp executes a checked MJ program on the jrt runtime. Entry point
// is Main.main().
type Interp struct {
	prog    *Program
	rt      *jrt.Runtime
	tm      *stm.TM
	out     io.Writer
	outMu   sync.Mutex
	classes map[*ClassDecl]*jrt.Class
	sites   []bool

	errMu      sync.Mutex
	threadErrs []error
}

// NewInterp prepares prog (already Checked) for execution.
func NewInterp(prog *Program, cfg InterpConfig) (*Interp, error) {
	if prog.byName == nil {
		return nil, fmt.Errorf("mj: program must be checked before interpretation")
	}
	in := &Interp{
		prog:    prog,
		rt:      cfg.Runtime,
		tm:      stm.New(),
		out:     cfg.Out,
		classes: make(map[*ClassDecl]*jrt.Class),
		sites:   cfg.SiteNoCheck,
	}
	for _, cd := range prog.Classes {
		fields := make([]jrt.FieldDecl, len(cd.Fields))
		for i, f := range cd.Fields {
			fields[i] = jrt.FieldDecl{Name: f.Name, Volatile: f.Volatile}
		}
		in.classes[cd] = in.rt.DefineClass("mj."+cd.Name, fields...)
	}
	return in, nil
}

// TMStats reports the transaction manager's (commits, aborts) counters.
func (in *Interp) TMStats() (commits, aborts uint64) { return in.tm.Stats() }

func (in *Interp) noteThreadErr(t *jrt.Thread, err error) {
	in.errMu.Lock()
	in.threadErrs = append(in.threadErrs, fmt.Errorf("thread %v terminated: %w", t.ID(), err))
	in.errMu.Unlock()
}

// ThreadErrors returns the uncaught runtime exceptions that terminated
// spawned threads.
func (in *Interp) ThreadErrors() []error {
	in.errMu.Lock()
	defer in.errMu.Unlock()
	out := make([]error, len(in.threadErrs))
	copy(out, in.threadErrs)
	return out
}

// Run executes Main.main() to completion (including all spawned
// threads) and returns the races the runtime observed.
func (in *Interp) Run() ([]detect.Race, error) {
	mainClass := in.prog.ClassByName("Main")
	if mainClass == nil {
		return nil, fmt.Errorf("mj: no class Main")
	}
	mainMethod := mainClass.Method("main")
	if mainMethod == nil || len(mainMethod.Params) != 0 {
		return nil, fmt.Errorf("mj: Main must declare a zero-argument main() method")
	}
	var runErr error
	races := in.rt.Run(func(t *jrt.Thread) {
		defer func() {
			if r := recover(); r != nil {
				// An uncaught DataRaceException terminates the main
				// thread gracefully (the runtime records it); other MJ
				// runtime exceptions surface as the run's error.
				if _, isDRX := r.(*jrt.DataRaceException); isDRX {
					panic(r)
				}
				if err, ok := r.(error); ok {
					runErr = err
					return
				}
				panic(r)
			}
		}()
		ts := &threadState{in: in, jt: t}
		self := t.New(in.classes[mainClass])
		ts.invoke(self, mainClass, mainMethod, nil)
	})
	if runErr == nil {
		if errs := in.ThreadErrors(); len(errs) > 0 {
			runErr = errs[0]
		}
	}
	return races, runErr
}

// threadState is the per-MJ-thread interpreter state.
type threadState struct {
	in *Interp
	jt *jrt.Thread
	tx *stm.Tx // non-nil inside an atomic block
}

// frame is a method activation: a scope stack over local variables.
type frame struct {
	this   *jrt.Object
	class  *ClassDecl
	scopes []map[string]jrt.Value
}

func (f *frame) push() { f.scopes = append(f.scopes, map[string]jrt.Value{}) }
func (f *frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *frame) declare(name string, v jrt.Value) {
	f.scopes[len(f.scopes)-1][name] = v
}

func (f *frame) assign(name string, v jrt.Value) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if _, ok := f.scopes[i][name]; ok {
			f.scopes[i][name] = v
			return
		}
	}
	panic(fmt.Sprintf("mj: internal error: assign to undeclared %s", name))
}

func (f *frame) lookup(name string) jrt.Value {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v
		}
	}
	panic(fmt.Sprintf("mj: internal error: read of undeclared %s", name))
}

// snapshot deep-copies the scope stack (restores locals across aborted
// transaction attempts).
func (f *frame) snapshot() []map[string]jrt.Value {
	out := make([]map[string]jrt.Value, len(f.scopes))
	for i, s := range f.scopes {
		c := make(map[string]jrt.Value, len(s))
		for k, v := range s {
			c[k] = v
		}
		out[i] = c
	}
	return out
}

func (f *frame) restore(snap []map[string]jrt.Value) {
	f.scopes = make([]map[string]jrt.Value, len(snap))
	for i, s := range snap {
		c := make(map[string]jrt.Value, len(s))
		for k, v := range s {
			c[k] = v
		}
		f.scopes[i] = c
	}
}

// control is the statement outcome.
type control uint8

const (
	ctrlNone control = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// invoke runs method m on receiver self with arguments already
// evaluated.
func (ts *threadState) invoke(self *jrt.Object, cd *ClassDecl, m *MethodDecl, args []jrt.Value) jrt.Value {
	if m.Synchronized {
		ts.jt.MonitorEnter(self)
		defer ts.jt.MonitorExit(self)
	}
	fr := &frame{this: self, class: cd}
	fr.push()
	for i, p := range m.Params {
		fr.declare(p.Name, coerce(args[i], p.Type))
	}
	ctrl, ret := ts.execBlock(fr, m.Body)
	if ctrl == ctrlReturn {
		return coerce(ret, m.Ret)
	}
	return nil
}

func (ts *threadState) execBlock(fr *frame, b *Block) (control, jrt.Value) {
	fr.push()
	defer fr.pop()
	for _, s := range b.Stmts {
		ctrl, v := ts.execStmt(fr, s)
		if ctrl != ctrlNone {
			return ctrl, v
		}
	}
	return ctrlNone, nil
}

func (ts *threadState) execStmt(fr *frame, s Stmt) (control, jrt.Value) {
	switch st := s.(type) {
	case *Block:
		return ts.execBlock(fr, st)
	case *VarDeclStmt:
		var v jrt.Value
		if st.Init != nil {
			v = coerce(ts.eval(fr, st.Init), st.Type)
		} else {
			v = zeroValue(st.Type)
		}
		fr.declare(st.Name, v)
		return ctrlNone, nil
	case *AssignStmt:
		ts.execAssign(fr, st)
		return ctrlNone, nil
	case *IfStmt:
		if ts.evalBool(fr, st.Cond) {
			return ts.execBlock(fr, st.Then)
		}
		if st.Else != nil {
			return ts.execBlock(fr, st.Else)
		}
		return ctrlNone, nil
	case *WhileStmt:
		for ts.evalBool(fr, st.Cond) {
			ctrl, v := ts.execBlock(fr, st.Body)
			switch ctrl {
			case ctrlReturn:
				return ctrl, v
			case ctrlBreak:
				return ctrlNone, nil
			}
		}
		return ctrlNone, nil
	case *ForStmt:
		fr.push()
		defer fr.pop()
		if st.Init != nil {
			ts.execStmt(fr, st.Init)
		}
		for st.Cond == nil || ts.evalBool(fr, st.Cond) {
			ctrl, v := ts.execBlock(fr, st.Body)
			if ctrl == ctrlReturn {
				return ctrl, v
			}
			if ctrl == ctrlBreak {
				return ctrlNone, nil
			}
			if st.Post != nil {
				ts.execStmt(fr, st.Post)
			}
		}
		return ctrlNone, nil
	case *ReturnStmt:
		if st.Value != nil {
			return ctrlReturn, ts.eval(fr, st.Value)
		}
		return ctrlReturn, nil
	case *BreakStmt:
		return ctrlBreak, nil
	case *ContinueStmt:
		return ctrlContinue, nil
	case *ExprStmt:
		ts.eval(fr, st.E)
		return ctrlNone, nil
	case *SyncStmt:
		lock := ts.evalObject(fr, st.Lock, st.Pos)
		var ctrl control
		var v jrt.Value
		ts.jt.Synchronized(lock, func() {
			ctrl, v = ts.execBlock(fr, st.Body)
		})
		return ctrl, v
	case *AtomicStmt:
		snap := fr.snapshot()
		err := ts.in.tm.Atomic(ts.jt, func(tx *stm.Tx) {
			fr.restore(snap)
			ts.tx = tx
			defer func() { ts.tx = nil }()
			ts.execBlock(fr, st.Body)
		})
		if err != nil {
			panic(err)
		}
		return ctrlNone, nil
	case *WaitStmt:
		ts.jt.Wait(ts.evalObject(fr, st.Obj, st.Pos))
		return ctrlNone, nil
	case *NotifyStmt:
		o := ts.evalObject(fr, st.Obj, st.Pos)
		if st.All {
			ts.jt.NotifyAll(o)
		} else {
			ts.jt.Notify(o)
		}
		return ctrlNone, nil
	case *JoinStmt:
		th, ok := ts.eval(fr, st.Thread).(*jrt.Thread)
		if !ok || th == nil {
			panic(&NullPointer{Pos: st.Pos})
		}
		ts.jt.Join(th)
		return ctrlNone, nil
	case *PrintStmt:
		var parts []any
		for _, a := range st.Args {
			parts = append(parts, renderValue(ts.eval(fr, a)))
		}
		ts.in.outMu.Lock()
		if ts.in.out != nil {
			fmt.Fprintln(ts.in.out, parts...)
		}
		ts.in.outMu.Unlock()
		return ctrlNone, nil
	case *TryStmt:
		ctrl, v, drx := ts.runTry(fr, st)
		if drx != nil {
			return ts.execBlock(fr, st.Catch)
		}
		return ctrl, v
	case *SendStmt:
		c := ts.evalChan(fr, st.Chan, st.Pos)
		ts.jt.Send(c, coerce(ts.eval(fr, st.Value), st.Elem))
		return ctrlNone, nil
	case *CloseStmt:
		ts.jt.Close(ts.evalChan(fr, st.Chan, st.Pos))
		return ctrlNone, nil
	case *SelectStmt:
		cases := make([]jrt.SelectCase, len(st.Arms))
		for i, arm := range st.Arms {
			sc := jrt.SelectCase{Chan: ts.evalChan(fr, arm.Chan, arm.Pos), Send: arm.Send}
			if arm.Send {
				sc.Value = coerce(ts.eval(fr, arm.Value), arm.Elem)
			}
			cases[i] = sc
		}
		idx, v, _ := ts.jt.Select(cases, st.Default != nil)
		if idx < 0 {
			return ts.execBlock(fr, st.Default)
		}
		arm := st.Arms[idx]
		if !arm.Send && arm.Bind != "" {
			fr.push()
			defer fr.pop()
			fr.declare(arm.Bind, coerce(fill(v, arm.BindType), arm.BindType))
		}
		return ts.execBlock(fr, arm.Body)
	}
	panic(fmt.Sprintf("mj: internal error: unhandled statement %T", s))
}

// ctrlEscape tunnels return/break/continue out of a Try closure.
type ctrlEscape struct {
	ctrl control
	v    jrt.Value
}

// runTry executes a try body, catching DataRaceException and letting
// return/break/continue escape the closure intact.
func (ts *threadState) runTry(fr *frame, st *TryStmt) (ctrl control, v jrt.Value, drx *jrt.DataRaceException) {
	defer func() {
		if r := recover(); r != nil {
			if esc, ok := r.(ctrlEscape); ok {
				ctrl, v = esc.ctrl, esc.v
				return
			}
			panic(r)
		}
	}()
	drx = ts.jt.Try(func() {
		c, val := ts.execBlock(fr, st.Body)
		if c != ctrlNone {
			panic(ctrlEscape{c, val})
		}
	})
	return ctrl, v, drx
}

func (ts *threadState) execAssign(fr *frame, st *AssignStmt) {
	v := ts.eval(fr, st.Value)
	switch target := st.Target.(type) {
	case *IdentExpr:
		v = coerce(v, target.Type())
		fr.assign(target.Name, v)
	case *FieldExpr:
		recv := ts.evalObject(fr, target.Recv, target.Pos)
		v = coerce(v, target.Decl.Type)
		fid := event.FieldID(target.Decl.Index)
		switch {
		case ts.tx != nil:
			ts.tx.Set(recv, fid, v)
		case ts.skipCheck(target.SiteID) && !target.Decl.Volatile:
			ts.jt.SetUnchecked(recv, fid, v)
		default:
			ts.jt.Set(recv, fid, v)
		}
	case *IndexExpr:
		arr := ts.evalObject(fr, target.Arr, target.Pos)
		i := int(ts.evalInt(fr, target.Index))
		v = coerce(v, target.Type())
		switch {
		case ts.tx != nil:
			ts.tx.Store(arr, i, v)
		case ts.skipCheck(target.SiteID):
			ts.jt.StoreUnchecked(arr, i, v)
		default:
			ts.jt.Store(arr, i, v)
		}
	default:
		panic(fmt.Sprintf("mj: internal error: bad assign target %T", st.Target))
	}
}

// skipCheck decides whether this access site's dynamic check is
// statically eliminated: the site mask is the only channel from the
// static analyses to the runtime.
func (ts *threadState) skipCheck(site int) bool {
	return site < len(ts.in.sites) && ts.in.sites[site]
}

func (ts *threadState) eval(fr *frame, e Expr) jrt.Value {
	switch ex := e.(type) {
	case *IntLit:
		return ex.V
	case *FloatLit:
		return ex.V
	case *BoolLit:
		return ex.V
	case *StringLit:
		return ex.V
	case *NullLit:
		return nil
	case *ThisExpr:
		return fr.this
	case *IdentExpr:
		return fr.lookup(ex.Name)
	case *FieldExpr:
		recv := ts.evalObject(fr, ex.Recv, ex.Pos)
		fid := event.FieldID(ex.Decl.Index)
		var v jrt.Value
		switch {
		case ts.tx != nil:
			v = ts.tx.Get(recv, fid)
		case ts.skipCheck(ex.SiteID) && !ex.Decl.Volatile:
			v = ts.jt.GetUnchecked(recv, fid)
		default:
			v = ts.jt.Get(recv, fid)
		}
		return fill(v, ex.Decl.Type)
	case *IndexExpr:
		arr := ts.evalObject(fr, ex.Arr, ex.Pos)
		i := int(ts.evalInt(fr, ex.Index))
		var v jrt.Value
		switch {
		case ts.tx != nil:
			v = ts.tx.Load(arr, i)
		case ts.skipCheck(ex.SiteID):
			v = ts.jt.LoadUnchecked(arr, i)
		default:
			v = ts.jt.Load(arr, i)
		}
		return fill(v, ex.Type())
	case *LenExpr:
		v := ts.eval(fr, ex.Arr)
		switch a := v.(type) {
		case *jrt.Object:
			return int64(a.Len())
		case string:
			return int64(len(a))
		case nil:
			panic(&NullPointer{Pos: ex.Pos})
		}
		panic(fmt.Sprintf("mj: internal error: length of %T", v))
	case *CallExpr:
		recv := ts.evalObject(fr, ex.Recv, ex.Pos)
		args := make([]jrt.Value, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = ts.eval(fr, a)
		}
		return ts.invoke(recv, ex.Decl.Class, ex.Decl, args)
	case *NewExpr:
		return ts.jt.New(ts.in.classes[ex.Decl])
	case *NewArrayExpr:
		dims := make([]int, 1+len(ex.extraDims))
		dims[0] = int(ts.evalInt(fr, ex.Len))
		for i, d := range ex.extraDims {
			dims[i+1] = int(ts.evalInt(fr, d))
		}
		return ts.allocArray(dims)
	case *SpawnExpr:
		call := ex.Call
		recv := ts.evalObject(fr, call.Recv, call.Pos)
		args := make([]jrt.Value, len(call.Args))
		for i, a := range call.Args {
			args[i] = ts.eval(fr, a)
		}
		return ts.jt.Spawn(func(u *jrt.Thread) {
			// As in Java, an uncaught runtime exception terminates the
			// thread (and is reported after the run), not the whole VM.
			// DataRaceException passes through: the runtime's own
			// uncaught-exception handling records it.
			defer func() {
				if r := recover(); r != nil {
					if _, isDRX := r.(*jrt.DataRaceException); isDRX {
						panic(r)
					}
					if err, ok := r.(error); ok {
						ts.in.noteThreadErr(u, err)
						return
					}
					panic(r)
				}
			}()
			child := &threadState{in: ts.in, jt: u}
			child.invoke(recv, call.Decl.Class, call.Decl, args)
		})
	case *MakeChanExpr:
		capacity := 0
		if ex.Cap != nil {
			capacity = int(ts.evalInt(fr, ex.Cap))
		}
		if capacity < 0 || capacity > event.ChanMaxCap {
			panic(&ArithmeticError{Pos: ex.Pos, Msg: fmt.Sprintf("invalid channel capacity %d", capacity)})
		}
		return ts.jt.NewChan(capacity)
	case *RecvExpr:
		c := ts.evalChan(fr, ex.Chan, ex.Pos)
		v, _ := ts.jt.Recv(c)
		// A closed, drained channel yields the element type's zero value.
		return fill(v, ex.Type())
	case *UnaryExpr:
		switch ex.Op {
		case TokNot:
			return !ts.evalBool(fr, ex.E)
		case TokMinus:
			v := ts.eval(fr, ex.E)
			switch n := v.(type) {
			case int64:
				return -n
			case float64:
				return -n
			}
		}
	case *BinaryExpr:
		return ts.evalBinary(fr, ex)
	}
	panic(fmt.Sprintf("mj: internal error: unhandled expression %T", e))
}

func (ts *threadState) allocArray(dims []int) *jrt.Object {
	arr := ts.jt.NewArray(dims[0])
	if len(dims) > 1 {
		for i := 0; i < dims[0]; i++ {
			ts.jt.Store(arr, i, ts.allocArray(dims[1:]))
		}
	}
	return arr
}

func (ts *threadState) evalBool(fr *frame, e Expr) bool {
	b, _ := ts.eval(fr, e).(bool)
	return b
}

func (ts *threadState) evalInt(fr *frame, e Expr) int64 {
	n, _ := ts.eval(fr, e).(int64)
	return n
}

// evalObject evaluates e to a non-null object.
func (ts *threadState) evalObject(fr *frame, e Expr, pos Pos) *jrt.Object {
	v := ts.eval(fr, e)
	o, ok := v.(*jrt.Object)
	if !ok || o == nil {
		panic(&NullPointer{Pos: pos})
	}
	return o
}

// evalChan evaluates e to a non-null channel.
func (ts *threadState) evalChan(fr *frame, e Expr, pos Pos) *jrt.Chan {
	c, ok := ts.eval(fr, e).(*jrt.Chan)
	if !ok || c == nil {
		panic(&NullPointer{Pos: pos})
	}
	return c
}

func (ts *threadState) evalBinary(fr *frame, ex *BinaryExpr) jrt.Value {
	// Short-circuit operators evaluate lazily.
	switch ex.Op {
	case TokAnd:
		return ts.evalBool(fr, ex.L) && ts.evalBool(fr, ex.R)
	case TokOr:
		return ts.evalBool(fr, ex.L) || ts.evalBool(fr, ex.R)
	}
	l := ts.eval(fr, ex.L)
	r := ts.eval(fr, ex.R)

	if ex.Op == TokPlus {
		if ls, ok := l.(string); ok {
			rs, _ := r.(string)
			return ls + rs
		}
	}

	if ex.Op == TokEq || ex.Op == TokNe {
		eq := valueEq(l, r)
		if ex.Op == TokNe {
			return !eq
		}
		return eq
	}

	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch ex.Op {
		case TokPlus:
			return li + ri
		case TokMinus:
			return li - ri
		case TokStar:
			return li * ri
		case TokSlash:
			if ri == 0 {
				panic(&ArithmeticError{Pos: ex.Pos, Msg: "division by zero"})
			}
			return li / ri
		case TokPercent:
			if ri == 0 {
				panic(&ArithmeticError{Pos: ex.Pos, Msg: "division by zero"})
			}
			return li % ri
		case TokLt:
			return li < ri
		case TokLe:
			return li <= ri
		case TokGt:
			return li > ri
		case TokGe:
			return li >= ri
		}
	}
	lf := toFloat(l)
	rf := toFloat(r)
	switch ex.Op {
	case TokPlus:
		return lf + rf
	case TokMinus:
		return lf - rf
	case TokStar:
		return lf * rf
	case TokSlash:
		return lf / rf
	case TokLt:
		return lf < rf
	case TokLe:
		return lf <= rf
	case TokGt:
		return lf > rf
	case TokGe:
		return lf >= rf
	}
	panic(fmt.Sprintf("mj: internal error: unhandled binary op %v", ex.Op))
}

// ArithmeticError mirrors Java's ArithmeticException.
type ArithmeticError struct {
	Pos Pos
	Msg string
}

func (e *ArithmeticError) Error() string { return fmt.Sprintf("%v: %s", e.Pos, e.Msg) }

func valueEq(l, r jrt.Value) bool {
	li, lOk := l.(int64)
	ri, rOk := r.(int64)
	if lOk && rOk {
		return li == ri
	}
	if (lOk || isFloat(l)) && (rOk || isFloat(r)) {
		return toFloat(l) == toFloat(r)
	}
	return l == r // bool, string, references (identity), nil
}

func isFloat(v jrt.Value) bool {
	_, ok := v.(float64)
	return ok
}

func toFloat(v jrt.Value) float64 {
	switch n := v.(type) {
	case int64:
		return float64(n)
	case float64:
		return n
	}
	return 0
}

// coerce applies the int->double widening conversion required by the
// static type.
func coerce(v jrt.Value, t *Type) jrt.Value {
	if t != nil && t.Kind == TypeDouble {
		if n, ok := v.(int64); ok {
			return float64(n)
		}
	}
	return v
}

// fill substitutes the typed zero value for a never-written slot (jrt
// slots start as Go nil; MJ semantics give fields and elements their
// type's zero value).
func fill(v jrt.Value, t *Type) jrt.Value {
	if v != nil {
		return v
	}
	return zeroValue(t)
}

func zeroValue(t *Type) jrt.Value {
	switch t.Kind {
	case TypeInt:
		return int64(0)
	case TypeDouble:
		return float64(0)
	case TypeBool:
		return false
	case TypeString:
		return ""
	default:
		return nil
	}
}

func renderValue(v jrt.Value) any {
	switch x := v.(type) {
	case nil:
		return "null"
	case *jrt.Object:
		return x.String()
	case *jrt.Thread:
		return fmt.Sprintf("thread-%d", x.ID())
	case *jrt.Chan:
		return fmt.Sprintf("chan-%d", x.Addr())
	default:
		return x
	}
}
