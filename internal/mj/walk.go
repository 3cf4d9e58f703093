package mj

// WalkStmts calls f on every statement in the tree rooted at s,
// including s itself, in source order.
func WalkStmts(s Stmt, f func(Stmt)) {
	if s == nil {
		return
	}
	f(s)
	switch st := s.(type) {
	case *Block:
		for _, sub := range st.Stmts {
			WalkStmts(sub, f)
		}
	case *IfStmt:
		WalkStmts(st.Then, f)
		if st.Else != nil {
			WalkStmts(st.Else, f)
		}
	case *WhileStmt:
		WalkStmts(st.Body, f)
	case *ForStmt:
		if st.Init != nil {
			WalkStmts(st.Init, f)
		}
		if st.Post != nil {
			WalkStmts(st.Post, f)
		}
		WalkStmts(st.Body, f)
	case *SyncStmt:
		WalkStmts(st.Body, f)
	case *AtomicStmt:
		WalkStmts(st.Body, f)
	case *TryStmt:
		WalkStmts(st.Body, f)
		WalkStmts(st.Catch, f)
	case *SelectStmt:
		for _, arm := range st.Arms {
			WalkStmts(arm.Body, f)
		}
		if st.Default != nil {
			WalkStmts(st.Default, f)
		}
	}
}

// WalkExprs calls f on every expression in the tree rooted at s, in
// source order, descending into subexpressions.
func WalkExprs(s Stmt, f func(Expr)) {
	WalkStmts(s, func(st Stmt) { stmtExprs(st, f) })
}

// stmtExprs calls f on the expressions that st holds itself, not those
// of its nested statements, descending into subexpressions.
func stmtExprs(st Stmt, f func(Expr)) {
	switch n := st.(type) {
	case *VarDeclStmt:
		walkExpr(n.Init, f)
	case *AssignStmt:
		walkExpr(n.Target, f)
		walkExpr(n.Value, f)
	case *IfStmt:
		walkExpr(n.Cond, f)
	case *WhileStmt:
		walkExpr(n.Cond, f)
	case *ForStmt:
		walkExpr(n.Cond, f)
	case *ReturnStmt:
		walkExpr(n.Value, f)
	case *ExprStmt:
		walkExpr(n.E, f)
	case *SyncStmt:
		walkExpr(n.Lock, f)
	case *WaitStmt:
		walkExpr(n.Obj, f)
	case *NotifyStmt:
		walkExpr(n.Obj, f)
	case *JoinStmt:
		walkExpr(n.Thread, f)
	case *PrintStmt:
		for _, a := range n.Args {
			walkExpr(a, f)
		}
	case *SendStmt:
		walkExpr(n.Chan, f)
		walkExpr(n.Value, f)
	case *CloseStmt:
		walkExpr(n.Chan, f)
	case *SelectStmt:
		for _, arm := range n.Arms {
			walkExpr(arm.Chan, f)
			walkExpr(arm.Value, f)
		}
	}
}

func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch ex := e.(type) {
	case *FieldExpr:
		walkExpr(ex.Recv, f)
	case *IndexExpr:
		walkExpr(ex.Arr, f)
		walkExpr(ex.Index, f)
	case *LenExpr:
		walkExpr(ex.Arr, f)
	case *CallExpr:
		walkExpr(ex.Recv, f)
		for _, a := range ex.Args {
			walkExpr(a, f)
		}
	case *SpawnExpr:
		walkExpr(ex.Call, f)
	case *UnaryExpr:
		walkExpr(ex.E, f)
	case *BinaryExpr:
		walkExpr(ex.L, f)
		walkExpr(ex.R, f)
	case *NewArrayExpr:
		walkExpr(ex.Len, f)
		for _, d := range ex.extraDims {
			walkExpr(d, f)
		}
	case *MakeChanExpr:
		walkExpr(ex.Cap, f)
	case *RecvExpr:
		walkExpr(ex.Chan, f)
	}
}
