package static_test

import (
	"testing"

	"goldilocks/internal/mj"
	"goldilocks/internal/static"
)

func facts(t *testing.T, src string) *static.Facts {
	t.Helper()
	return static.BuildFacts(mj.MustCheck(src))
}

func TestRootsThroughCallGraph(t *testing.T) {
	f := facts(t, `
class Helper { int n; void deep() { n = 1; } }
class Main {
	Helper h;
	void mid() { h.deep(); }
	void work() { mid(); }
	void main() {
		h = new Helper();
		thread t = spawn this.work();
		join(t);
	}
}
`)
	prog := f.Prog
	deep := prog.ClassByName("Helper").Method("deep")
	roots := f.MethodRoots[deep]
	if len(roots) != 1 {
		t.Fatalf("deep reachable from %d roots, want 1 (the spawn)", len(roots))
	}
	for r := range roots {
		if r == 0 {
			t.Error("deep attributed to the main root; it is only called from the worker")
		}
		if f.RootMulti[r] {
			t.Error("single spawn in straight-line main marked multi-instance")
		}
	}
	mainM := prog.ClassByName("Main").Method("main")
	if rs := f.MethodRoots[mainM]; len(rs) != 1 || !rs[0] {
		t.Errorf("main roots = %v", rs)
	}
}

func TestRecursiveCallGraphTerminates(t *testing.T) {
	f := facts(t, `
class Main {
	int acc;
	void rec(int n) {
		if (n > 0) { acc = acc + n; rec(n - 1); }
	}
	void main() { rec(5); }
}
`)
	rec := f.Prog.ClassByName("Main").Method("rec")
	if rs := f.MethodRoots[rec]; len(rs) != 1 {
		t.Errorf("recursive method roots = %v", rs)
	}
}

func TestSpawnInLoopMarkedMulti(t *testing.T) {
	f := facts(t, `
class Main {
	int n;
	void work() { n = n + 1; }
	void main() {
		for (int i = 0; i < 3; i = i + 1) {
			thread t = spawn this.work();
		}
	}
}
`)
	multi := false
	for r, m := range f.RootMulti {
		if r != 0 && m {
			multi = true
		}
	}
	if !multi {
		t.Error("loop spawn not marked multi-instance")
	}
}

// TestSpawnLoopPositions: a spawn in a loop condition, a for post
// statement or a loop body may run many times, and one in a for init
// runs once.
func TestSpawnLoopPositions(t *testing.T) {
	f := facts(t, `
class Main {
	int n;
	void init() { }
	void cond() { }
	void post() { }
	void body() { }
	void wcond() { }
	boolean go(thread t) { n = n + 1; return n < 3; }
	void main() {
		for (thread t = spawn this.init(); this.go(spawn this.cond()); t = spawn this.post()) {
			thread u = spawn this.body();
		}
		while (this.go(spawn this.wcond())) { }
	}
}
`)
	main := f.Prog.ClassByName("Main")
	for name, want := range map[string]bool{"init": false, "cond": true, "post": true, "body": true, "wcond": true} {
		roots := f.MethodRoots[main.Method(name)]
		if len(roots) != 1 || roots[0] {
			t.Errorf("%s: roots %v, want one, its spawn's", name, roots)
		}
		for r := range roots {
			if f.RootMulti[r] != want {
				t.Errorf("%s: multi-instance %v, want %v", name, f.RootMulti[r], want)
			}
		}
	}
}

func TestSpawnInsideBranchesAndTry(t *testing.T) {
	f := facts(t, `
class Main {
	int n;
	void a() { n = 1; }
	void b() { n = 2; }
	void main() {
		if (n == 0) {
			thread t1 = spawn this.a();
		} else {
			try {
				thread t2 = spawn this.b();
			} catch { }
		}
	}
}
`)
	aM := f.Prog.ClassByName("Main").Method("a")
	bM := f.Prog.ClassByName("Main").Method("b")
	if len(f.MethodRoots[aM]) != 1 || len(f.MethodRoots[bM]) != 1 {
		t.Errorf("branch/try spawns not discovered: a=%v b=%v", f.MethodRoots[aM], f.MethodRoots[bM])
	}
	for r := range f.MethodRoots[aM] {
		if f.RootMulti[r] {
			t.Error("if-branch spawn marked multi")
		}
	}
}

func TestUnreachableMethodHasNoRoots(t *testing.T) {
	f := facts(t, `
class Main {
	int n;
	void dead() { n = 9; }
	void main() { n = 1; }
}
`)
	dead := f.Prog.ClassByName("Main").Method("dead")
	if rs := f.MethodRoots[dead]; len(rs) != 0 {
		t.Errorf("unreachable method has roots %v", rs)
	}
	// Its sites are trivially safe under Chord.
	r := static.Chord(f.Prog)
	for _, s := range f.Sites {
		if s.Method == dead && !r.SafeSites[s.ID] {
			t.Error("unreachable site not eliminated")
		}
	}
}

func TestLockWitnessRequiresStableLocal(t *testing.T) {
	f := facts(t, `
class D { int v; }
class Main {
	D a;
	D b;
	void work() {
		D x = a;
		synchronized (x) { x.v = 1; } // stable witness: self-guarded
		x = b;
		synchronized (x) { x.v = 2; } // x reassigned: witness rejected
	}
	void main() {
		a = new D();
		b = new D();
		thread t = spawn this.work();
		thread u = spawn this.work();
		join(t);
		join(u);
	}
}
`)
	selfGuarded := 0
	for _, s := range f.Sites {
		if s.Field.Field == "v" && s.SelfGuarded {
			selfGuarded++
		}
	}
	if selfGuarded != 0 {
		t.Errorf("%d sites self-guarded through a reassigned local (unsound witness)", selfGuarded)
	}
}

func TestEscapeThroughReturnAndArgs(t *testing.T) {
	f := facts(t, `
class D { int v; }
class Main {
	D keep(D x) { return x; }
	void work() {
		D mine = new D();
		D leaked = keep(mine); // escapes via argument
		leaked.v = 1;
		mine.v = 2;
	}
	void main() {
		thread t = spawn this.work();
		thread u = spawn this.work();
	}
}
`)
	for _, s := range f.Sites {
		if s.Field.Field == "v" && s.LocalOnly {
			t.Error("argument-escaped allocation still marked local-only")
		}
	}
}
