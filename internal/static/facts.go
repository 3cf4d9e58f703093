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
	"slices"

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

	// One walk per method finds its spawns and the methods it calls. A
	// spawn's own call, which the walk visits right after the spawn, is
	// not a call edge: it begins the spawn's root.
	var spawns []spawnSite
	calls := make(map[*mj.MethodDecl][]*mj.MethodDecl)
	spawned := make(map[*mj.CallExpr]bool)
	for _, cd := range f.Prog.Classes {
		for _, m := range cd.Methods {
			var inLoop map[*mj.SpawnExpr]bool
			mj.WalkExprs(m.Body, func(e mj.Expr) {
				switch ex := e.(type) {
				case *mj.SpawnExpr:
					if inLoop == nil {
						inLoop = loopSpawns(m.Body)
					}
					spawns = append(spawns, spawnSite{site: ex, method: m, inLoop: inLoop[ex]})
					spawned[ex.Call] = true
				case *mj.CallExpr:
					if !spawned[ex] {
						calls[m] = append(calls[m], ex.Decl)
					}
				}
			})
		}
	}

	// Iterate to a fixpoint: propagate roots through calls, and create
	// new roots at spawns.
	addRoot(mainM, 0)
	for changed := true; changed; {
		changed = false
		// Call edges propagate the caller's roots.
		for _, cd := range f.Prog.Classes {
			for _, m := range cd.Methods {
				for _, callee := range calls[m] {
					for r := range f.MethodRoots[m] {
						if addRoot(callee, r) {
							changed = true
						}
					}
				}
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

// loopSpawns returns the spawns in body that may run more than once
// per call: those in a while or for condition, a for post statement or
// a loop body. A for init runs once.
func loopSpawns(body mj.Stmt) map[*mj.SpawnExpr]bool {
	in := make(map[*mj.SpawnExpr]bool)
	mj.WalkStmts(body, func(s mj.Stmt) {
		var init mj.Stmt
		switch st := s.(type) {
		case *mj.WhileStmt:
		case *mj.ForStmt:
			init = st.Init
		default:
			return
		}
		var once []mj.Expr
		mj.WalkExprs(init, func(e mj.Expr) {
			if _, ok := e.(*mj.SpawnExpr); ok {
				once = append(once, e)
			}
		})
		mj.WalkExprs(s, func(e mj.Expr) {
			if sp, ok := e.(*mj.SpawnExpr); ok && !slices.Contains(once, e) {
				in[sp] = true
			}
		})
	})
	return in
}
