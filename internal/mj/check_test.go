package mj

import (
	"slices"
	"strings"
	"testing"
)

func TestCheckResolvesTypesAndSites(t *testing.T) {
	prog := MustCheck(`
class Box { int v; }
class Main {
	Box b;
	void main() {
		b = new Box();
		b.v = 3;
		int x = b.v + 1;
		int[] a = new int[4];
		a[0] = x;
	}
}
`)
	if NumSites(prog) == 0 {
		t.Error("no access sites assigned")
	}
	mainM := prog.ClassByName("Main").Method("main")
	seen := map[int]bool{}
	WalkExprs(mainM.Body, func(e Expr) {
		switch ex := e.(type) {
		case *FieldExpr:
			if ex.Decl == nil {
				t.Errorf("unresolved field %s", ex.Name)
			}
			if seen[ex.SiteID] {
				t.Errorf("duplicate site id %d", ex.SiteID)
			}
			seen[ex.SiteID] = true
		case *IndexExpr:
			if seen[ex.SiteID] {
				t.Errorf("duplicate site id %d", ex.SiteID)
			}
			seen[ex.SiteID] = true
		}
	})
}

func TestCheckLengthRewrite(t *testing.T) {
	prog := MustCheck(`
class Main { void main() { int[] a = new int[3]; int n = a.length; string s = "abc"; int m = s.length; } }
`)
	var lens int
	WalkExprs(prog.ClassByName("Main").Method("main").Body, func(e Expr) {
		if _, ok := e.(*LenExpr); ok {
			lens++
		}
	})
	if lens != 2 {
		t.Errorf("LenExpr count = %d, want 2", lens)
	}
}

func TestCheckImplicitThisField(t *testing.T) {
	MustCheck(`
class Main {
	int n;
	void main() { n = n + 1; }
}
`)
}

func TestCheckIntToDoubleWidening(t *testing.T) {
	MustCheck(`
class Main {
	double d;
	double half(double x) { return x / 2; }
	void main() { d = 3; d = half(7); }
}
`)
}

func errContains(t *testing.T, src, want string) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v", err)
	}
	err = Check(prog)
	if err == nil {
		t.Fatalf("Check succeeded, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error = %q, want substring %q", err, want)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`class C {} class C {}`, "duplicate class"},
		{`class C { int x; int x; }`, "duplicate field"},
		{`class C { void m() {} void m() {} }`, "duplicate method"},
		{`class C { D d; }`, "unknown class"},
		{`class C { void m() { x = 1; } }`, "undefined variable"},
		{`class C { int x; void m() { x = true; } }`, "cannot assign"},
		{`class C { void m() { int x = 1; int x = 2; } }`, "redeclaration"},
		{`class C { void m(int a, int a) {} }`, "duplicate parameter"},
		{`class C { void m() { if (1) {} } }`, "must be boolean"},
		{`class C { void m() { break; } }`, "break outside loop"},
		{`class C { int m() { return; } }`, "missing return value"},
		{`class C { void m() { return 1; } }`, "returns a value"},
		{`class C { void m() { this.q(); } }`, "no method"},
		{`class C { int f; void m() { this.g = 1; } }`, "no field"},
		{`class C { void m(int a) {} void n() { m(); } }`, "takes 1 arguments"},
		{`class C { void m() { synchronized (1) {} } }`, "requires an object"},
		{`class C { void m() { wait(3); } }`, "requires an object"},
		{`class C { void m() { join(3); } }`, "requires a thread"},
		{`class C { void m() { int[] a = new int[2]; a[true] = 1; } }`, "index must be int"},
		{`class C { void m() { int x = 1; x[0] = 2; } }`, "indexing non-array"},
		{`class C { volatile int[] va; }`, "volatile array"},
		{`class C { void m() { int x = 1 + true; } }`, "requires numbers"},
		{`class C { void m() { boolean b = 1 && true; } }`, "requires booleans"},
		{`class C { int m(int x) { return x; } void n() { thread t = spawn this.m(1); } }`, "must return void"},
		{`class C { void m() { int[] a = new int[2]; a.length = 3; } }`, "cannot assign to length"},
	}
	for _, c := range cases {
		errContains(t, c.src, c.want)
	}
}

// atomicCases are programs the atomic-block restrictions refuse, with a
// substring of the error.
var atomicCases = []struct{ src, want string }{
	{`class C { void m() { atomic { synchronized (this) {} } } }`, "synchronized inside atomic"},
	{`class C { void m() { atomic { wait(this); } } }`, "wait inside atomic"},
	{`class C { void m() { atomic { notify(this); } } }`, "notify inside atomic"},
	{`class C { void m() { atomic { atomic { } } } }`, "nested atomic"},
	{`class C { void m() { atomic { print(1); } } }`, "I/O"},
	{`class C { void w() {} void m() { atomic { thread t = spawn this.w(); } } }`, "spawn inside atomic"},
	{`class C { volatile int v; void m() { atomic { v = 1; } } }`, "volatile access inside atomic"},
	{`class C { volatile int v; void m() { atomic { int x = v; } } }`, "volatile access inside atomic"},
	{`class C { int m2() { return 1; } void m() { while(true) { atomic { break; } } } }`, "break outside loop"},
	{`class C { synchronized void s() {} void m() { atomic { s(); } } }`, "synchronized"},
	{`class C { void deep() { print(1); } void mid() { deep(); } void m() { atomic { mid(); } } }`, "I/O"},
	{`class C { int m() { atomic { return; } } }`, "return inside atomic"},
}

func TestCheckAtomicRestrictions(t *testing.T) {
	for _, c := range atomicCases {
		errContains(t, c.src, c.want)
	}

	// Legal atomic usage: plain field access and calls to pure methods.
	MustCheck(`
class C {
	int n;
	int bump(int x) { return x + 1; }
	void m() { atomic { n = bump(n); } }
}
`)
}

// TestCheckAtomicAnyOrder: the atomic-block restrictions follow calls
// into methods declared after the caller. Every refused program is
// checked with each class's methods as written and reversed, and so are
// programs whose violation hides behind a later-declared callee: a
// volatile write, a chain that synchronizes, and a try around a lock.
func TestCheckAtomicAnyOrder(t *testing.T) {
	refused := slices.Concat(atomicCases, chanAtomicCases, []struct{ src, want string }{
		{`class C { volatile int v; void m() { atomic { this.inner(); } } void inner() { v = 1; } }`,
			"call to C.inner inside atomic block: C.inner accesses a volatile field"},
		{`class C { void dep() { atomic { this.mid(); } } void mid() { this.inner(); } void inner() { synchronized (this) { } } }`,
			"call to C.mid inside atomic block: C.inner uses synchronized"},
		{`class C { void m() { atomic { this.inner(); } } void inner() { try { synchronized (this) { } } catch { } } }`,
			"call to C.inner inside atomic block: C.inner uses try"},
		// A cycle whose violation follows the recursive call.
		{`class C { void m() { atomic { b(1); } } void b(int k) { a(k); } void a(int k) { if (k > 0) { b(k - 1); } print(1); } }`,
			"C.a performs I/O"},
	})
	accepted := []string{
		`class C { int n; int bump(int x) { return x + 1; } void m() { atomic { n = bump(n); } } }`,
		`class C { int n; void m() { atomic { n = f(3) + f(2); } } int f(int x) { if (x < 2) { return 1; } return x * f(x - 1); } }`,
	}
	for _, reverse := range []bool{false, true} {
		check := func(src string) error {
			prog, err := Parse(src)
			if err != nil {
				t.Fatalf("parse failed: %v", err)
			}
			if reverse {
				for _, cd := range prog.Classes {
					slices.Reverse(cd.Methods)
				}
			}
			return Check(prog)
		}
		for _, c := range refused {
			if err := check(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("reversed=%v: %s\nerror = %v, want substring %q", reverse, c.src, err, c.want)
			}
		}
		for _, src := range accepted {
			if err := check(src); err != nil {
				t.Errorf("reversed=%v: %s\nrefused: %v", reverse, src, err)
			}
		}
	}
}
