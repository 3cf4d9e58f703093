// Package static provides the ahead-of-time race analyses the paper
// uses to eliminate dynamic checks (Section 5.2): a Chord-style
// automatic may-race access-pair analysis and an RccJava-style
// annotation-checked lock-discipline analysis. Both consume MJ programs
// and emit the same artifact the paper's runtime consumes: the set of
// access sites that are guaranteed race-free, a per-site mask the
// interpreter uses to skip dynamic checks.
//
// Substitution note (see DESIGN.md): the real Chord is a context-
// sensitive whole-program analysis over Java bytecode and the real
// RccJava is a type system over annotated Java source. The versions
// here are conservative reimplementations of their decision structure —
// thread-root reachability + may-happen-in-parallel + must-alias lock
// guards + escape analysis for Chord; self-guard/atomic/thread-local
// discipline checks plus trusted annotations for RccJava. Soundness (a
// site is only marked safe if it cannot race) is property-tested against
// the dynamic oracle.
package static

import (
	"goldilocks/internal/mj"
)

// RootID identifies a thread root: root 0 is Main.main; each spawn site
// is its own root (1 + SpawnID).
type RootID int

// Site describes one field or array-element access site.
type Site struct {
	ID    int
	Field FieldKey
	Write bool
	// Method lexically containing the site.
	Method *mj.MethodDecl
	// SelfGuarded: the access receiver's own monitor is held (the
	// must-alias lock pattern: synchronized method accessing this.f, or
	// synchronized(x){ x.f }).
	SelfGuarded bool
	// Atomic: the site is inside an atomic block.
	Atomic bool
	// LocalOnly: the receiver is a non-escaping local allocation, so
	// only the allocating thread can reach the object.
	LocalOnly bool
	// Roots that may execute the site.
	Roots map[RootID]bool
}

// FieldKey names an abstract variable: a class field, or all elements of
// arrays with a given element type.
type FieldKey struct {
	Class string // "[]" for arrays
	Field string // field name, or element type string for arrays
}

func (k FieldKey) String() string { return k.Class + "." + k.Field }

// Facts are the program facts both analyses share.
type Facts struct {
	Prog  *mj.Program
	Sites []*Site
	// RootMulti reports whether a root may have several live instances
	// (a spawn site in a loop or in a multiply-executed method).
	RootMulti map[RootID]bool
	// MethodRoots: which roots may execute each method.
	MethodRoots map[*mj.MethodDecl]map[RootID]bool
	// FieldSites groups sites by abstract variable.
	FieldSites map[FieldKey][]*Site
	// NumSites is the program's total number of access sites.
	NumSites int
}

// BuildFacts computes the shared facts for a checked program.
func BuildFacts(prog *mj.Program) *Facts {
	f := &Facts{
		Prog:        prog,
		RootMulti:   make(map[RootID]bool),
		MethodRoots: make(map[*mj.MethodDecl]map[RootID]bool),
		FieldSites:  make(map[FieldKey][]*Site),
		NumSites:    mj.NumSites(prog),
	}
	f.computeRoots()
	f.collectSites()
	return f
}

// computeRoots propagates thread roots through the (exact) call graph.
// Main.main carries root 0; each spawn site begins a new root at the
// spawned method. A root is multi-instance when its spawn site sits in
// a loop, in a method reachable from a multi root, or in a method
// reachable from two or more roots.
func (f *Facts) computeRoots() {
	mainClass := f.Prog.ClassByName("Main")
	if mainClass == nil {
		return
	}
	mainM := mainClass.Method("main")
	if mainM == nil {
		return
	}

	addRoot := func(m *mj.MethodDecl, r RootID) bool {
		set := f.MethodRoots[m]
		if set == nil {
			set = make(map[RootID]bool)
			f.MethodRoots[m] = set
		}
		if set[r] {
			return false
		}
		set[r] = true
		return true
	}

	// Iterate to a fixpoint: propagate roots through calls, and create
	// new roots at spawns.
	var spawns []spawnSite
	for _, cd := range f.Prog.Classes {
		for _, m := range cd.Methods {
			m := m
			collectSpawns(m.Body, false, func(sp *mj.SpawnExpr, inLoop bool) {
				spawns = append(spawns, spawnSite{site: sp, method: m, inLoop: inLoop})
			})
		}
	}

	addRoot(mainM, 0)
	for changed := true; changed; {
		changed = false
		// Call edges propagate the caller's roots.
		for _, cd := range f.Prog.Classes {
			for _, m := range cd.Methods {
				roots := f.MethodRoots[m]
				if len(roots) == 0 {
					continue
				}
				mj.WalkExprs(m.Body, func(e mj.Expr) {
					call, ok := e.(*mj.CallExpr)
					if !ok || call.Decl == nil {
						return
					}
					if _, isSpawn := spawnTarget(m, call, spawns); isSpawn {
						return // handled through the spawn's own root
					}
					for r := range roots {
						if addRoot(call.Decl, r) {
							changed = true
						}
					}
				})
			}
		}
		// Spawn edges begin fresh roots.
		for _, sp := range spawns {
			if len(f.MethodRoots[sp.method]) == 0 {
				continue // spawn site unreachable
			}
			r := RootID(1 + sp.site.SpawnID)
			if addRoot(sp.site.Call.Decl, r) {
				changed = true
			}
			multi := sp.inLoop
			// A spawn in a method reachable from a multi root, or from
			// more than one root, may execute many times.
			parents := f.MethodRoots[sp.method]
			if len(parents) > 1 {
				multi = true
			}
			for pr := range parents {
				if f.RootMulti[pr] {
					multi = true
				}
				// A spawn inside a spawned method body (not main) is
				// conservatively multi: the parent root itself may
				// denote several threads only if multi, handled above.
				_ = pr
			}
			if multi && !f.RootMulti[r] {
				f.RootMulti[r] = true
				changed = true
			}
		}
	}
}

// spawnSite is a spawn expression with its lexical context.
type spawnSite struct {
	site   *mj.SpawnExpr
	method *mj.MethodDecl // enclosing method
	inLoop bool
}

// spawnTarget reports whether call is the call expression of a spawn in
// method m.
func spawnTarget(m *mj.MethodDecl, call *mj.CallExpr, spawns []spawnSite) (*mj.SpawnExpr, bool) {
	for _, sp := range spawns {
		if sp.method == m && sp.site.Call == call {
			return sp.site, true
		}
	}
	return nil, false
}

// collectSpawns visits spawn expressions with loop context.
func collectSpawns(s mj.Stmt, inLoop bool, visit func(*mj.SpawnExpr, bool)) {
	switch st := s.(type) {
	case *mj.Block:
		for _, sub := range st.Stmts {
			collectSpawns(sub, inLoop, visit)
		}
	case *mj.IfStmt:
		collectSpawns(st.Then, inLoop, visit)
		if st.Else != nil {
			collectSpawns(st.Else, inLoop, visit)
		}
	case *mj.WhileStmt:
		collectSpawns(st.Body, true, visit)
	case *mj.ForStmt:
		collectSpawns(st.Body, true, visit)
	case *mj.SyncStmt:
		collectSpawns(st.Body, inLoop, visit)
	case *mj.AtomicStmt:
		collectSpawns(st.Body, inLoop, visit)
	case *mj.TryStmt:
		collectSpawns(st.Body, inLoop, visit)
		collectSpawns(st.Catch, inLoop, visit)
	case *mj.SelectStmt:
		for _, arm := range st.Arms {
			visitSpawnsExpr(arm.Chan, inLoop, visit)
			visitSpawnsExpr(arm.Value, inLoop, visit)
			collectSpawns(arm.Body, inLoop, visit)
		}
		if st.Default != nil {
			collectSpawns(st.Default, inLoop, visit)
		}
	case *mj.SendStmt:
		visitSpawnsExpr(st.Chan, inLoop, visit)
		visitSpawnsExpr(st.Value, inLoop, visit)
	case *mj.CloseStmt:
		visitSpawnsExpr(st.Chan, inLoop, visit)
	case *mj.VarDeclStmt:
		visitSpawnsExpr(st.Init, inLoop, visit)
	case *mj.AssignStmt:
		visitSpawnsExpr(st.Value, inLoop, visit)
	case *mj.ExprStmt:
		visitSpawnsExpr(st.E, inLoop, visit)
	case *mj.ReturnStmt:
		visitSpawnsExpr(st.Value, inLoop, visit)
	}
}

func visitSpawnsExpr(e mj.Expr, inLoop bool, visit func(*mj.SpawnExpr, bool)) {
	if e == nil {
		return
	}
	if sp, ok := e.(*mj.SpawnExpr); ok {
		visit(sp, inLoop)
	}
	switch ex := e.(type) {
	case *mj.CallExpr:
		for _, a := range ex.Args {
			visitSpawnsExpr(a, inLoop, visit)
		}
	case *mj.BinaryExpr:
		visitSpawnsExpr(ex.L, inLoop, visit)
		visitSpawnsExpr(ex.R, inLoop, visit)
	case *mj.UnaryExpr:
		visitSpawnsExpr(ex.E, inLoop, visit)
	case *mj.RecvExpr:
		visitSpawnsExpr(ex.Chan, inLoop, visit)
	case *mj.MakeChanExpr:
		visitSpawnsExpr(ex.Cap, inLoop, visit)
	}
}
