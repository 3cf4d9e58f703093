package jrt_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/jrt"
)

// liveVars is the number of variable states the engine holds. jrt never
// reuses an address, so no state is ever reset by an Alloc and every
// state created and not freed is still in the table.
func liveVars(e *core.Engine) uint64 {
	s := e.Stats()
	return s.VarsTracked - s.VarsFreed
}

// useAndDrop is the hedc pattern: allocate an array, write and read
// every element, and let the array go.
func useAndDrop(th *jrt.Thread, n int) {
	a := th.NewArray(n)
	for i := 0; i < n; i++ {
		th.Store(a, i, i)
	}
	for i := 0; i < n; i++ {
		th.Load(a, i)
	}
}

// awaitFreed collects garbage until the engine holds fewer than bound
// variable states, allocating once per round so that the engine drains
// its dead-object queue. Cleanups run after a collection, on their own
// goroutine, so one round may not see them; the deadline only bounds a
// failing run.
func awaitFreed(t *testing.T, th *jrt.Thread, e *core.Engine, bound uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		th.NewArray(0)
		if liveVars(e) < bound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine still holds %d variables (%d created, %d freed), want < %d",
				liveVars(e), e.Stats().VarsTracked, e.Stats().VarsFreed, bound)
		}
		runtime.Gosched()
	}
}

// TestDeadObjectStateBounded pins the point of freeing: a program that
// uses and discards K arrays of M elements leaves the engine holding
// far fewer than K*M variables once the arrays are collected.
func TestDeadObjectStateBounded(t *testing.T) {
	const k, m = 200, 100
	e := core.New()
	rt := jrt.NewRuntime(jrt.Config{Detector: e, Policy: jrt.Throw, Mode: jrt.Deterministic, Seed: 1})
	rt.Run(func(th *jrt.Thread) {
		for i := 0; i < k; i++ {
			useAndDrop(th, m)
		}
		if got := e.Stats().VarsTracked; got < k*m {
			t.Fatalf("VarsTracked = %d, want at least %d", got, k*m)
		}
		awaitFreed(t, th, e, k*m/10)
	})
	if rs := rt.Races(); len(rs) != 0 {
		t.Errorf("single-threaded program raced: %v", rs)
	}
}

// TestDeadObjectStateBoundedFree is the free-running variant: two
// threads allocate and access arrays while cleanups fire and queue the
// dead ones, and the drops run inside their allocations. Under the race
// detector it checks that frees never race live accesses.
func TestDeadObjectStateBoundedFree(t *testing.T) {
	const k, m = 200, 100
	e := core.New()
	rt := jrt.NewRuntime(jrt.Config{Detector: e, Policy: jrt.Throw, Mode: jrt.Free})
	rt.Run(func(th *jrt.Thread) {
		work := func(u *jrt.Thread) {
			for i := 0; i < k/2; i++ {
				useAndDrop(u, m)
				if i%20 == 0 {
					runtime.GC()
				}
			}
		}
		a, b := th.Spawn(work), th.Spawn(work)
		th.Join(a)
		th.Join(b)
		awaitFreed(t, th, e, k*m/10)
	})
	if rs := rt.Races(); len(rs) != 0 {
		t.Errorf("thread-local arrays raced: %v", rs)
	}
}

// TestAddressesNeverReused pins the premise that makes freeing sound: an
// address, once allocated, is never handed out again, even after its
// object has been collected and freed.
func TestAddressesNeverReused(t *testing.T) {
	e := core.New()
	rt := jrt.NewRuntime(jrt.Config{Detector: e, Policy: jrt.Throw, Mode: jrt.Free})
	c := rt.DefineClass("Cell", jrt.FieldDecl{Name: "v"})
	var mu sync.Mutex
	seen := map[event.Addr]bool{}
	rt.Run(func(th *jrt.Thread) {
		work := func(u *jrt.Thread) {
			for i := 0; i < 500; i++ {
				o := u.New(c)
				u.SetField(o, "v", i)
				mu.Lock()
				if seen[o.Addr()] {
					t.Errorf("address %d allocated twice", o.Addr())
				}
				seen[o.Addr()] = true
				mu.Unlock()
				if i%100 == 0 {
					runtime.GC()
				}
			}
		}
		var us []*jrt.Thread
		for i := 0; i < 4; i++ {
			us = append(us, th.Spawn(work))
		}
		for _, u := range us {
			th.Join(u)
		}
	})
	if len(seen) != 2000 {
		t.Errorf("%d distinct addresses, want 2000", len(seen))
	}
}
