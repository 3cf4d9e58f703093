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
// spawned method. A root is multi-instance when its spawn site may run
// more than once: the site sits in a loop, or in a method reachable
// from a multi root or from two or more roots, or in a method that may
// run more than once per instance of the root executing it (runsOnce).
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

	// One walk per method finds its spawns and its call sites. A spawn's
	// own call, which the walk visits right after the spawn, is not a
	// call site: it begins the spawn's root.
	var spawns []spawnSite
	calls := make(map[*mj.MethodDecl][]*mj.MethodDecl)
	sites := make(map[*mj.MethodDecl][]callSite) // by callee
	spawned := make(map[*mj.CallExpr]bool)
	loops := make(map[*mj.MethodDecl]map[mj.Expr]bool) // loopExprs, by method, on demand
	inLoop := func(m *mj.MethodDecl, e mj.Expr) bool {
		if loops[m] == nil {
			loops[m] = loopExprs(m.Body)
		}
		return loops[m][e]
	}
	for _, cd := range f.Prog.Classes {
		for _, m := range cd.Methods {
			mj.WalkExprs(m.Body, func(e mj.Expr) {
				switch ex := e.(type) {
				case *mj.SpawnExpr:
					spawns = append(spawns, spawnSite{site: ex, method: m, inLoop: inLoop(m, ex)})
					spawned[ex.Call] = true
				case *mj.CallExpr:
					if !spawned[ex] {
						calls[m] = append(calls[m], ex.Decl)
						sites[ex.Decl] = append(sites[ex.Decl], callSite{caller: m, call: ex})
					}
				}
			})
		}
	}

	// Propagate roots to a fixpoint: call edges carry the caller's
	// roots, and spawns begin fresh roots.
	entry := map[RootID]*mj.MethodDecl{0: mainM}
	addRoot(mainM, 0)
	for changed := true; changed; {
		changed = false
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
		for _, sp := range spawns {
			if len(f.MethodRoots[sp.method]) == 0 {
				continue // spawn site unreachable
			}
			r := RootID(1 + sp.site.SpawnID)
			entry[r] = sp.site.Call.Decl
			if addRoot(sp.site.Call.Decl, r) {
				changed = true
			}
		}
	}

	// runsOnce reports whether m runs at most once per instance of root
	// r: m is r's entry, or m has exactly one call site, outside any
	// loop, in a method that itself runs at most once per instance of r;
	// and in either case no recursion reaches m.
	once := make(map[*mj.MethodDecl]map[RootID]bool)
	var runsOnce func(m *mj.MethodDecl, r RootID) bool
	runsOnce = func(m *mj.MethodDecl, r RootID) bool {
		if v, ok := once[m][r]; ok {
			return v
		}
		v := false
		switch {
		case recursive(calls, m):
		case m == entry[r]:
			v = true
		case len(sites[m]) == 1:
			s := sites[m][0]
			v = !inLoop(s.caller, s.call) && f.MethodRoots[s.caller][r] && runsOnce(s.caller, r)
		}
		if once[m] == nil {
			once[m] = make(map[RootID]bool)
		}
		once[m][r] = v
		return v
	}

	// Multi-instance roots, to a fixpoint: a spawn site makes its root
	// multi when it may run more than once.
	for changed := true; changed; {
		changed = false
		for _, sp := range spawns {
			parents := f.MethodRoots[sp.method]
			r := RootID(1 + sp.site.SpawnID)
			if len(parents) == 0 || f.RootMulti[r] {
				continue
			}
			multi := sp.inLoop || len(parents) > 1
			for pr := range parents {
				if f.RootMulti[pr] || !runsOnce(sp.method, pr) {
					multi = true
				}
			}
			if multi {
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

// callSite is a call expression (not a spawn's) and its method.
type callSite struct {
	caller *mj.MethodDecl
	call   *mj.CallExpr
}

// recursive reports whether m lies on a cycle of the call graph calls.
func recursive(calls map[*mj.MethodDecl][]*mj.MethodDecl, m *mj.MethodDecl) bool {
	seen := make(map[*mj.MethodDecl]bool)
	stack := slices.Clone(calls[m])
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c == m {
			return true
		}
		if !seen[c] {
			seen[c] = true
			stack = append(stack, calls[c]...)
		}
	}
	return false
}

// loopExprs returns the expressions in body that may run more than
// once per call: those in a while or for condition, a for post
// statement or a loop body. A for init runs once.
func loopExprs(body mj.Stmt) map[mj.Expr]bool {
	in := make(map[mj.Expr]bool)
	mj.WalkStmts(body, func(s mj.Stmt) {
		var init mj.Stmt
		switch st := s.(type) {
		case *mj.WhileStmt:
		case *mj.ForStmt:
			init = st.Init
		default:
			return
		}
		once := make(map[mj.Expr]bool)
		mj.WalkExprs(init, func(e mj.Expr) { once[e] = true })
		mj.WalkExprs(s, func(e mj.Expr) {
			if !once[e] {
				in[e] = true
			}
		})
	})
	return in
}
