package jrt_test

import (
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/hb"
	"goldilocks/internal/jrt"
	"goldilocks/internal/resilience"
)

// faultyDetector panics on accesses to one designated variable (and, if
// badCommit is set, on every commit) and delegates everything else to a
// wrapped trace-level detector. steps counts the actions that reach it.
type faultyDetector struct {
	detect.Detector
	bad       event.Variable
	badCommit bool
	steps     int
}

func (f *faultyDetector) Step(a event.Action) []detect.Race {
	f.steps++
	if a.Kind.IsData() && a.Variable() == f.bad || a.Kind == event.KindCommit && f.badCommit {
		panic("synthetic detector bug")
	}
	return f.Detector.Step(a)
}

// TestGuardQuarantinesVariable: a panicking check on one variable is
// contained; other variables keep being checked (a seeded race on a
// different variable is still caught).
func TestGuardQuarantinesVariable(t *testing.T) {
	inner := &faultyDetector{Detector: hb.NewDetector()}
	g := jrt.Guard(inner, resilience.Quarantine)
	d := jrt.Serialize(g)

	// Accesses to the bad variable return no race and do not crash.
	inner.bad = event.Variable{Obj: 7, Field: 0}
	if r := d.Write(1, 7, 0); r != nil {
		t.Fatalf("quarantined write returned race %v", r)
	}
	if r := d.Read(2, 7, 0); r != nil {
		t.Fatalf("quarantined read returned race %v", r)
	}
	panics, quarantined := g.GuardStats()
	if panics == 0 || quarantined != 1 {
		t.Fatalf("GuardStats = (%d, %d), want panics>0 and 1 variable", panics, quarantined)
	}

	// A racy pair on a healthy variable is still detected: T1 writes,
	// T2 writes with no synchronization between them.
	d.Alloc(1, 9)
	if r := d.Write(1, 9, 0); r != nil {
		t.Fatalf("first write raced: %v", r)
	}
	if r := d.Write(2, 9, 0); r == nil {
		t.Fatal("race on healthy variable missed after quarantine")
	}
}

// TestGuardAbortPropagates: under the Abort policy the panic escapes.
func TestGuardAbortPropagates(t *testing.T) {
	inner := &faultyDetector{Detector: hb.NewDetector(), bad: event.Variable{Obj: 1, Field: 0}}
	d := jrt.Serialize(jrt.Guard(inner, resilience.Abort))
	defer func() {
		if recover() == nil {
			t.Fatal("Abort policy swallowed the panic")
		}
	}()
	d.Read(1, 1, 0)
}

// TestGuardAllocLiftsQuarantine: reallocation makes the fields fresh
// variables again.
func TestGuardAllocLiftsQuarantine(t *testing.T) {
	inner := &faultyDetector{Detector: hb.NewDetector(), bad: event.Variable{Obj: 5, Field: 2}}
	g := jrt.Guard(inner, resilience.Quarantine)
	d := jrt.Serialize(g)
	d.Read(1, 5, 2) // panics inside, quarantined
	if _, q := g.GuardStats(); q != 1 {
		t.Fatal("variable not quarantined")
	}
	inner.bad = event.Variable{} // bug "fixed" for the fresh object
	d.Alloc(1, 5)
	if r := d.Write(1, 5, 2); r != nil {
		t.Fatalf("post-alloc write returned race %v", r)
	}
	if r := d.Write(2, 5, 2); r == nil {
		t.Fatal("race on reallocated variable missed: quarantine not lifted")
	}
}

// TestGuardCommitQuarantinesReadWriteSet: a panicking commit cannot be
// blamed on one variable, so its whole read and write set is
// quarantined; a later plain access to one of them never reaches the
// inner detector.
func TestGuardCommitQuarantinesReadWriteSet(t *testing.T) {
	inner := &faultyDetector{Detector: hb.NewDetector(), badCommit: true}
	g := jrt.Guard(inner, resilience.Quarantine)
	d := jrt.Serialize(g)
	a, b, c := event.Variable{Obj: 3, Field: 0}, event.Variable{Obj: 3, Field: 1}, event.Variable{Obj: 4, Field: 0}
	if rs := d.Commit(1, []event.Variable{a, b}, []event.Variable{b, c}); rs != nil {
		t.Fatalf("panicking commit returned races %v", rs)
	}
	if panics, quarantined := g.GuardStats(); panics != 1 || quarantined != 3 {
		t.Fatalf("GuardStats = (%d, %d), want 1 panic and 3 distinct variables", panics, quarantined)
	}
	before := inner.steps
	if r := d.Write(2, c.Obj, c.Field); r != nil {
		t.Fatalf("write to a quarantined variable returned race %v", r)
	}
	if inner.steps != before {
		t.Error("write to a variable quarantined by a commit reached the inner detector")
	}
	d.Write(2, 9, 0) // a healthy variable is still checked
	if inner.steps != before+1 {
		t.Error("write to a healthy variable skipped the inner detector")
	}
}

// TestInjectedFaultProgramCompletes is the ISSUE acceptance scenario: a
// full MJ-style program runs under the deterministic scheduler with a
// fault injector forcing a detector panic on one variable; the program
// still runs to completion, the variable is quarantined, and a race on
// an unrelated variable is still reported.
func TestInjectedFaultProgramCompletes(t *testing.T) {
	// The injector can only name variables by raw address; addresses are
	// allocated sequentially from 1, and the first object the program
	// allocates is the shared counter ⇒ Obj 1, Field 0.
	eng := core.NewEngine(core.Options{
		OnError:  resilience.Quarantine,
		Injector: &resilience.Injector{PanicOnVars: []event.Variable{{Obj: 1, Field: 0}}},
	})
	rt := jrt.NewRuntime(jrt.Config{Detector: eng, Policy: jrt.Log, Mode: jrt.Deterministic, Seed: 11})

	completed := false
	rt.Run(func(th *jrt.Thread) {
		counter := rt.DefineClass("Counter", jrt.FieldDecl{Name: "n"})
		plain := rt.DefineClass("Plain", jrt.FieldDecl{Name: "x"})
		c := th.New(counter) // Obj 1: every check on (1,0) is a forced fault
		p := th.New(plain)   // Obj 2: healthy, raced on below
		lock := th.New(rt.DefineClass("Lock"))

		th.Set(c, 0, 0)
		u := th.Spawn(func(u *jrt.Thread) {
			u.Synchronized(lock, func() {
				u.Set(c, 0, 1) // faulting variable, under lock
			})
			u.Set(p, 0, 1) // unsynchronized: races with main's write
		})
		th.Synchronized(lock, func() {
			th.Set(c, 0, 2)
		})
		th.Set(p, 0, 2) // the racy pair's other half
		th.Join(u)
		completed = true
	})

	if !completed {
		t.Fatal("program did not run to completion under injected faults")
	}
	if rep := rt.Failure(); rep != nil {
		t.Fatalf("unexpected scheduler failure: %v", rep)
	}
	st := eng.Stats()
	if st.PanicsRecovered == 0 {
		t.Fatal("injected fault never fired")
	}
	if st.VarsQuarantined != 1 {
		t.Fatalf("VarsQuarantined = %d, want 1", st.VarsQuarantined)
	}
	// The healthy variable's race must still be found.
	found := false
	for _, r := range rt.Races() {
		if r.Var == (event.Variable{Obj: 2, Field: 0}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("race on healthy variable missed; races = %v", rt.Races())
	}
}
