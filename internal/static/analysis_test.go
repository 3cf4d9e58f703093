package static_test

import (
	"slices"
	"strings"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/jrt"
	"goldilocks/internal/mj"
	"goldilocks/internal/static"
)

func chordOn(t *testing.T, src string) (*mj.Program, *static.Result) {
	t.Helper()
	prog := mj.MustCheck(src)
	return prog, static.Chord(prog)
}

func rccOn(t *testing.T, src string) (*mj.Program, *static.Result) {
	t.Helper()
	prog := mj.MustCheck(src)
	r, err := static.Rcc(prog)
	if err != nil {
		t.Fatalf("Rcc: %v", err)
	}
	return prog, r
}

const guardedSrc = `
class Counter {
	int n;
	synchronized void inc() { n = n + 1; }
	synchronized int get() { return n; }
}
class Main {
	Counter c;
	void work() { for (int i = 0; i < 5; i = i + 1) { c.inc(); } }
	void main() {
		c = new Counter();
		thread a = spawn this.work();
		thread b = spawn this.work();
		join(a); join(b);
		print(c.get());
	}
}
`

func TestChordGuardedByThis(t *testing.T) {
	_, r := chordOn(t, guardedSrc)
	if !r.SafeFields[static.FieldKey{Class: "Counter", Field: "n"}] {
		t.Error("self-guarded field not proven safe by Chord")
	}
}

func TestRccGuardedByThis(t *testing.T) {
	_, r := rccOn(t, guardedSrc)
	if !r.SafeFields[static.FieldKey{Class: "Counter", Field: "n"}] {
		t.Error("self-guarded field not proven safe by Rcc")
	}
}

const racySrc = `
class D { int v; }
class Main {
	D d;
	void racer() { d.v = 1; }
	void main() {
		d = new D();
		thread t = spawn this.racer();
		d.v = 2;
		join(t);
	}
}
`

func TestRacyFieldNotSafe(t *testing.T) {
	_, rc := chordOn(t, racySrc)
	if rc.SafeFields[static.FieldKey{Class: "D", Field: "v"}] {
		t.Error("Chord marked a racy field safe (unsound)")
	}
	_, rr := rccOn(t, racySrc)
	if rr.SafeFields[static.FieldKey{Class: "D", Field: "v"}] {
		t.Error("Rcc marked a racy field safe (unsound)")
	}
}

// Volatile publication is dynamically race-free, but neither static
// analysis reasons about volatile ordering — the field must stay checked
// (this is exactly the moldyn/raytracer situation with Chord in the
// paper).
func TestVolatileHandshakeStaysChecked(t *testing.T) {
	src := `
class Box { int data; volatile boolean ready; }
class Main {
	Box b;
	void consumer() { while (!b.ready) { } print(b.data); }
	void main() {
		b = new Box();
		thread t = spawn this.consumer();
		b.data = 42;
		b.ready = true;
		join(t);
	}
}
`
	_, r := chordOn(t, src)
	if r.SafeFields[static.FieldKey{Class: "Box", Field: "data"}] {
		t.Error("Chord claims to see through volatile ordering")
	}
}

func TestThreadLocalSafe(t *testing.T) {
	src := `
class D { int v; }
class Main {
	void work() {
		D mine = new D();
		int[] scratch = new int[16];
		for (int i = 0; i < 16; i = i + 1) {
			scratch[i] = i;
			mine.v = mine.v + scratch[i];
		}
	}
	void main() {
		thread a = spawn this.work();
		thread b = spawn this.work();
		join(a); join(b);
	}
}
`
	_, r := chordOn(t, src)
	if got, want := r.SafeSiteCount(), len(r.SafeSites); got != want {
		t.Errorf("thread-local program: %d/%d sites safe", got, want)
	}
}

func TestEscapingLocalNotSafe(t *testing.T) {
	src := `
class D { int v; }
class Main {
	D shared;
	void racer() { shared.v = 2; }
	void main() {
		D mine = new D();
		shared = mine; // escapes!
		thread t = spawn this.racer();
		mine.v = 1;
		join(t);
	}
}
`
	_, r := chordOn(t, src)
	if r.SafeFields[static.FieldKey{Class: "D", Field: "v"}] {
		t.Error("escaped allocation treated as thread-local")
	}
}

func TestAtomicOnlySafe(t *testing.T) {
	src := `
class Acct { int bal; }
class Main {
	Acct a;
	void mover() { atomic { a.bal = a.bal + 1; } }
	void main() {
		a = new Acct();
		atomic { a.bal = 0; }
		thread t1 = spawn this.mover();
		thread t2 = spawn this.mover();
		join(t1); join(t2);
	}
}
`
	_, r := chordOn(t, src)
	if !r.SafeFields[static.FieldKey{Class: "Acct", Field: "bal"}] {
		t.Error("atomic-only field not proven safe (commit pairs are exempt)")
	}
}

func TestMixedAtomicPlainNotSafe(t *testing.T) {
	src := `
class Acct { int bal; }
class Main {
	Acct a;
	void plainWriter() { a.bal = 7; }
	void main() {
		a = new Acct();
		thread t = spawn this.plainWriter();
		atomic { a.bal = a.bal + 1; }
		join(t);
	}
}
`
	_, r := chordOn(t, src)
	if r.SafeFields[static.FieldKey{Class: "Acct", Field: "bal"}] {
		t.Error("mixed atomic/plain accesses marked safe")
	}
}

func TestSpawnInLoopIsMulti(t *testing.T) {
	src := `
class D { int v; }
class Main {
	D d;
	void work() { d.v = d.v + 1; } // unsynchronized, many workers
	void main() {
		d = new D();
		for (int i = 0; i < 4; i = i + 1) {
			thread t = spawn this.work();
		}
	}
}
`
	_, r := chordOn(t, src)
	if r.SafeFields[static.FieldKey{Class: "D", Field: "v"}] {
		t.Error("loop-spawned workers treated as a single thread")
	}
}

func TestSingleSpawnNotParallelWithItself(t *testing.T) {
	src := `
class D { int v; }
class Main {
	D d;
	void work() { d.v = d.v + 1; }
	void main() {
		d = new D();
		thread t = spawn this.work();
		join(t);
	}
}
`
	// main's own accesses: none after spawn; work's accesses are a single
	// root, single instance: safe.
	_, r := chordOn(t, src)
	if !r.SafeFields[static.FieldKey{Class: "D", Field: "v"}] {
		t.Error("single spawned worker's private accesses not proven safe")
	}
}

func TestRccPragmas(t *testing.T) {
	// trusted pragma accepted.
	_, r := rccOn(t, `
//@ race_free Box.data trusted
class Box { int data; volatile boolean ready; }
class Main {
	Box b;
	void consumer() { while (!b.ready) { } print(b.data); }
	void main() {
		b = new Box();
		thread t = spawn this.consumer();
		b.data = 42;
		b.ready = true;
		join(t);
	}
}
`)
	if !r.SafeFields[static.FieldKey{Class: "Box", Field: "data"}] {
		t.Error("trusted pragma ignored")
	}

	// Verified pragma that does not hold is rejected.
	prog := mj.MustCheck(`
//@ race_free D.v guarded_by_this
class D { int v; }
class Main {
	D d;
	void racer() { d.v = 1; }
	void main() { d = new D(); thread t = spawn this.racer(); d.v = 2; join(t); }
}
`)
	if _, err := static.Rcc(prog); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("bogus guarded_by_this pragma accepted: %v", err)
	}

	// Malformed pragmas are rejected.
	for _, bad := range []string{
		"//@ race_free D.v",
		"//@ race_free Dv trusted",
		"//@ race_free D.v sounds_fine",
	} {
		prog := mj.MustCheck(bad + "\nclass D { int v; }\nclass Main { void main() { } }")
		if _, err := static.Rcc(prog); err == nil {
			t.Errorf("pragma %q accepted", bad)
		}
	}
}

// calleeRaceSrc races on d.v through write(), called from wrapper().
// wrapper's own site (k = 1) is safe, so a verdict about whole methods
// would call wrapper safe and hide the racy write in its callee.
const calleeRaceSrc = `
class D { int v; }
class Main {
	D d;
	int k;
	void racer() { d.v = 1; }
	void write() { d.v = 2; }
	void wrapper() { k = 1; this.write(); }
	void main() {
		d = new D();
		thread t = spawn this.racer();
		this.wrapper();
		join(t);
	}
}
`

// TestApplyReturnsSiteMask: Apply hands the runtime the per-site mask
// and leaves the program as the checker made it, so running the program
// afterwards without the mask still checks every access.
func TestApplyReturnsSiteMask(t *testing.T) {
	for _, analysis := range []string{"chord", "rcc"} {
		prog := mj.MustCheck(calleeRaceSrc)
		r := analyze(t, prog, analysis)
		mask := r.Apply(prog)
		if !slices.Equal(mask, r.SafeSites) {
			t.Errorf("%s: Apply returned %v, want SafeSites %v", analysis, mask, r.SafeSites)
		}
		if !slices.Contains(mask, true) {
			t.Errorf("%s: Apply produced an empty site mask", analysis)
		}
		if races := runProg(t, prog, 1, nil); len(races) == 0 {
			t.Errorf("%s: after Apply, the unmasked run reports no race", analysis)
		}
	}
}

// corpus are programs mixing idioms; used for the end-to-end soundness
// property: applying a static result must not suppress the detection of
// any actual race.
var corpus = []string{
	calleeRaceSrc,
	guardedSrc,
	racySrc,
	`
class D { int a; int b; }
class Main {
	D d;
	void w1() { synchronized (d) { d.a = 1; } d.b = 1; }
	void w2() { synchronized (d) { d.a = 2; } d.b = 2; }
	void main() {
		d = new D();
		thread x = spawn this.w1();
		thread y = spawn this.w2();
		join(x); join(y);
	}
}
`,
	`
class Acct { int bal; }
class Main {
	Acct a;
	void txn() { atomic { a.bal = a.bal + 1; } }
	void mixed() { a.bal = 9; }
	void main() {
		a = new Acct();
		thread t1 = spawn this.txn();
		thread t2 = spawn this.mixed();
		join(t1); join(t2);
	}
}
`,
	`
class Main {
	int total;
	void work() {
		int[] mine = new int[8];
		for (int i = 0; i < 8; i = i + 1) { mine[i] = i * i; }
		int s = 0;
		for (int i = 0; i < 8; i = i + 1) { s = s + mine[i]; }
		synchronized (this) { total = total + s; }
	}
	void main() {
		for (int i = 0; i < 3; i = i + 1) { thread t = spawn this.work(); }
	}
}
`,
	// Spawns outside statement bodies: a for init, a call argument in an
	// if condition and a call argument in a while condition each start a
	// thread that races with main.
	`
class B { int v; }
class Main {
	B b;
	void w() { b.v = 1; }
	void main() {
		b = new B();
		int i = 0;
		for (thread t = spawn this.w(); i < 1; i = i + 1) { b.v = 2; }
	}
}
`,
	`
class B { int v; }
class Main {
	B b;
	void w() { b.v = 1; }
	boolean go(thread t) { return true; }
	void main() {
		b = new B();
		if (this.go(spawn this.w())) { b.v = 2; }
	}
}
`,
	`
class B { int v; }
class Main {
	B b;
	int n;
	void w() { b.v = 1; }
	boolean more(thread t) { n = n + 1; return n < 3; }
	void main() {
		b = new B();
		while (this.more(spawn this.w())) { b.v = 2; }
	}
}
`,
	// A spawn in a method that runs more than once per instance of its
	// root: start() is called twice from main, and from a loop in main.
	`
class B { int v; }
class Main {
	B b;
	void w() { b.v = b.v + 1; }
	void start() { thread t = spawn this.w(); }
	void main() {
		b = new B();
		this.start();
		this.start();
	}
}
`,
	`
class B { int v; }
class Main {
	B b;
	void w() { b.v = b.v + 1; }
	void start() { thread t = spawn this.w(); }
	void main() {
		b = new B();
		for (int i = 0; i < 2; i = i + 1) { this.start(); }
	}
}
`,
}

// analyze runs the named analysis on prog.
func analyze(t *testing.T, prog *mj.Program, analysis string) *static.Result {
	t.Helper()
	if analysis == "chord" {
		return static.Chord(prog)
	}
	r, err := static.Rcc(prog)
	if err != nil {
		t.Fatalf("Rcc: %v", err)
	}
	return r
}

// runWith executes src with the named analysis's site mask applied
// ("none": no mask) and returns the set of racy variables.
func runWith(t *testing.T, src string, seed int64, analysis string) map[event.Variable]bool {
	t.Helper()
	prog := mj.MustCheck(src)
	var mask []bool
	if analysis != "none" {
		mask = analyze(t, prog, analysis).Apply(prog)
	}
	return runProg(t, prog, seed, mask)
}

// runProg executes prog with the given site mask, using the Log policy
// so control flow is identical between runs, and returns the set of
// racy variables.
func runProg(t *testing.T, prog *mj.Program, seed int64, mask []bool) map[event.Variable]bool {
	t.Helper()
	rt := jrt.NewRuntime(jrt.Config{Detector: core.New(), Policy: jrt.Log, Mode: jrt.Deterministic, Seed: seed})
	in, err := mj.NewInterp(prog, mj.InterpConfig{Runtime: rt, SiteNoCheck: mask})
	if err != nil {
		t.Fatal(err)
	}
	races, err := in.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make(map[event.Variable]bool)
	for _, r := range races {
		out[r.Var] = true
	}
	return out
}

// TestStaticEliminationSound: on every corpus program and seed, the
// racy-variable set with static elimination equals the set without it —
// eliminated checks only ever cover race-free accesses.
func TestStaticEliminationSound(t *testing.T) {
	for pi, src := range corpus {
		for seed := int64(0); seed < 10; seed++ {
			full := runWith(t, src, seed, "none")
			for _, analysis := range []string{"chord", "rcc"} {
				got := runWith(t, src, seed, analysis)
				if len(got) != len(full) {
					t.Fatalf("program %d seed %d: %s changed racy vars: %v vs %v", pi, seed, analysis, got, full)
				}
				for v := range full {
					if !got[v] {
						t.Fatalf("program %d seed %d: %s suppressed race on %v", pi, seed, analysis, v)
					}
				}
			}
		}
	}
}
