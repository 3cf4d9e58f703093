package event

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestKindIsSync(t *testing.T) {
	syncKinds := []Kind{KindAcquire, KindRelease, KindVolatileRead, KindVolatileWrite, KindFork, KindJoin, KindCommit}
	for _, k := range syncKinds {
		if !k.IsSync() {
			t.Errorf("%v.IsSync() = false, want true", k)
		}
		if k.IsData() {
			t.Errorf("%v.IsData() = true, want false", k)
		}
	}
	for _, k := range []Kind{KindRead, KindWrite} {
		if k.IsSync() {
			t.Errorf("%v.IsSync() = true, want false", k)
		}
		if !k.IsData() {
			t.Errorf("%v.IsData() = false, want true", k)
		}
	}
	if KindAlloc.IsSync() || KindAlloc.IsData() {
		t.Error("alloc must be neither sync nor data")
	}
}

func TestActionVariable(t *testing.T) {
	a := Read(1, 10, 2)
	if got := a.Variable(); got != (Variable{Obj: 10, Field: 2}) {
		t.Errorf("Variable() = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Variable() on acq action did not panic")
		}
	}()
	Acquire(1, 10).Variable()
}

func TestActionVolatile(t *testing.T) {
	if got := VolatileRead(1, 10, 3).Volatile(); got != (Volatile{Obj: 10, Field: 3}) {
		t.Errorf("Volatile() = %v", got)
	}
	if got := Acquire(1, 10).Volatile(); got != Lock(10) {
		t.Errorf("acq Volatile() = %v, want lock", got)
	}
	if Lock(10).Field != LockField {
		t.Error("Lock field is not LockField")
	}
}

func TestActionAccesses(t *testing.T) {
	v := Variable{Obj: 10, Field: 0}
	w := Variable{Obj: 10, Field: 1}
	cases := []struct {
		a       Action
		accV    bool
		writesV bool
	}{
		{Read(1, 10, 0), true, false},
		{Write(1, 10, 0), true, true},
		{Read(1, 10, 1), false, false},
		{Commit(1, []Variable{v}, nil), true, false},
		{Commit(1, nil, []Variable{v}), true, true},
		{Commit(1, []Variable{w}, []Variable{w}), false, false},
		{Acquire(1, 10), false, false},
	}
	for _, c := range cases {
		if got := c.a.Accesses(v); got != c.accV {
			t.Errorf("%v.Accesses(%v) = %v, want %v", c.a, v, got, c.accV)
		}
		if got := c.a.WritesVar(v); got != c.writesV {
			t.Errorf("%v.WritesVar(%v) = %v, want %v", c.a, v, got, c.writesV)
		}
	}
}

func TestActionString(t *testing.T) {
	cases := []struct {
		a    Action
		want string
	}{
		{Read(1, 10, 0), "T1:read(o10.f0)"},
		{Write(2, 10, 1), "T2:write(o10.f1)"},
		{Acquire(1, 5), "T1:acq(o5)"},
		{VolatileWrite(1, 5, 2), "T1:vwrite(o5.v2)"},
		{Fork(1, 2), "T1:fork(T2)"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	cs := Commit(1, []Variable{{10, 0}}, []Variable{{10, 1}}).String()
	if !strings.Contains(cs, "commit") || !strings.Contains(cs, "o10.f0") || !strings.Contains(cs, "o10.f1") {
		t.Errorf("commit String() = %q", cs)
	}
}

func TestTraceThreadsVars(t *testing.T) {
	tr := NewBuilder().
		Write(1, 10, 0).
		Fork(1, 2).
		Read(2, 10, 0).
		Commit(2, []Variable{{11, 0}}, []Variable{{10, 1}}).
		Trace()
	threads := tr.Threads()
	if len(threads) != 2 || threads[0] != 1 || threads[1] != 2 {
		t.Errorf("Threads() = %v", threads)
	}
	vars := tr.Vars()
	want := []Variable{{10, 0}, {11, 0}, {10, 1}}
	if len(vars) != len(want) {
		t.Fatalf("Vars() = %v, want %v", vars, want)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("Vars()[%d] = %v, want %v", i, vars[i], want[i])
		}
	}
}

func TestValidateOK(t *testing.T) {
	tr := NewBuilder().
		Alloc(1, 10).
		Write(1, 10, 0).
		Acquire(1, 20).
		Acquire(1, 20). // reentrant
		Release(1, 20).
		Release(1, 20).
		Fork(1, 2).
		Acquire(2, 20).
		Read(2, 10, 0).
		Release(2, 20).
		Join(1, 2).
		Trace()
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

// TestValidateErrors checks that Validate names the first violating
// action, and that a trace file holding the same actions salvages
// exactly the valid prefix before it: the one Validator serves both.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		trace *Trace
		at    int // index of the first violating action
	}{
		{"acquire held lock", NewBuilder().Acquire(1, 20).Fork(1, 2).Acquire(2, 20).Trace(), 2},
		{"release unheld", NewBuilder().Release(1, 20).Trace(), 0},
		{"release by non-owner", NewBuilder().Acquire(1, 20).Fork(1, 2).Release(2, 20).Trace(), 2},
		{"fork twice", NewBuilder().Fork(1, 2).Fork(1, 2).Trace(), 1},
		{"act after join", NewBuilder().Fork(1, 2).Write(2, 10, 0).Join(1, 2).Write(2, 10, 0).Trace(), 3},
		{"join unknown", NewBuilder().Join(1, 9).Trace(), 0},
		{"alloc after access", NewBuilder().Write(1, 10, 0).Alloc(1, 10).Trace(), 1},
		// The alloc-after-access violation comes first, ahead of the
		// later release of an unheld lock.
		{"first violation wins", NewBuilder().Write(1, 10, 0).Alloc(1, 10).Release(1, 20).Trace(), 1},
		{"alloc after commit access", NewBuilder().
			Fork(1, 2).
			Alloc(1, 5).
			Write(1, 5, 0).
			Commit(2, []Variable{{Obj: 5, Field: 0}}, nil).
			Alloc(2, 5).
			Trace(), 4},
		{"missing tid", NewTrace([]Action{{Kind: KindRead, Obj: 10}}), 0},
	}
	for _, c := range cases {
		err := c.trace.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
			continue
		}
		if want := fmt.Sprintf("action %d ", c.at); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: Validate() = %q, want prefix %q", c.name, err, want)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, c.trace); err != nil {
			t.Fatal(err)
		}
		got, dropped, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("%s: ReadTrace: %v", c.name, err)
		}
		if got.Len() != c.at || dropped != c.trace.Len()-c.at {
			t.Errorf("%s: salvaged %d actions, %d dropped; want %d and %d",
				c.name, got.Len(), dropped, c.at, c.trace.Len()-c.at)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: salvaged prefix invalid: %v", c.name, err)
		}
	}
}

func TestBuilderSnapshotIsolation(t *testing.T) {
	b := NewBuilder().Write(1, 10, 0)
	tr1 := b.Trace()
	b.Write(1, 10, 1)
	if tr1.Len() != 1 {
		t.Errorf("earlier trace grew: len = %d", tr1.Len())
	}
	if b.Trace().Len() != 2 {
		t.Errorf("builder lost actions")
	}
}
