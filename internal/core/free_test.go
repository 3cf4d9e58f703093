package core_test

import (
	"sync"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

// TestFreeDropsOnNextAlloc: Free only queues the address; the next
// Alloc drops the dead object's variables, counts them in VarsFreed,
// and releases the list positions they pinned, so collection can trim
// the list behind them. Verdicts on live variables are unaffected.
func TestFreeDropsOnNextAlloc(t *testing.T) {
	opts := core.DefaultOptions()
	opts.GCThreshold = 8
	opts.GCTrimFraction = 0.5
	opts.PartialEager = false // only a drop can unpin the list head
	e := core.NewEngine(opts)

	e.Sync(event.Fork(1, 2))
	const dead, live = event.Addr(10), event.Addr(20)
	for f := event.FieldID(0); f < 5; f++ {
		e.Write(1, dead, f)
		e.Read(1, dead, f)
	}
	e.Write(1, live, 0)
	for i := 0; i < 100; i++ {
		e.Sync(event.Acquire(1, 30))
		e.Sync(event.Release(1, 30))
	}
	pinned := e.ListLen()
	if pinned < 100 {
		t.Fatalf("list length %d before the free, want the head pinned (>= 100)", pinned)
	}

	e.Free(dead)
	if got := e.Stats().VarsFreed; got != 0 {
		t.Fatalf("VarsFreed = %d before any Alloc, want 0: Free only queues", got)
	}
	e.Alloc(1, 11)
	if got := e.Stats().VarsFreed; got != 5 {
		t.Fatalf("VarsFreed = %d after the Alloc, want 5", got)
	}

	// The live variable still pins the head; once it is freed too, the
	// next collection trims the list.
	e.Free(live)
	e.Alloc(1, 12)
	for i := 0; i < 20; i++ {
		e.Sync(event.Acquire(1, 30))
		e.Sync(event.Release(1, 30))
	}
	if got := e.ListLen(); got >= pinned {
		t.Errorf("list length %d after freeing every pinning variable, want below %d", got, pinned)
	}

	// A race on a variable that is still live is still reported.
	e.Write(1, 40, 0)
	e.Free(11)
	e.Alloc(1, 13)
	if r := e.Write(2, 40, 0); r == nil {
		t.Error("race on a live variable was lost across a free")
	}
}

// TestFreeVsAccess drives frees and accesses from several goroutines at
// once; run it with -race. Each goroutine accesses only its own objects
// and frees each one when done with it, so some goroutine's Alloc drops
// another's dead objects while that goroutine accesses its live ones.
func TestFreeVsAccess(t *testing.T) {
	e := core.New()
	const workers, objs, fields = 4, 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := event.Tid(w + 1)
			for i := 0; i < objs; i++ {
				o := event.Addr(1 + w*objs + i)
				e.Alloc(tid, o)
				for f := event.FieldID(0); f < fields; f++ {
					if r := e.Write(tid, o, f); r != nil {
						t.Errorf("worker %d: race on its own object: %v", w, r)
					}
					if r := e.Read(tid, o, f); r != nil {
						t.Errorf("worker %d: race on its own object: %v", w, r)
					}
				}
				e.Free(o)
			}
		}(w)
	}
	wg.Wait()
	e.Alloc(1, workers*objs+1)
	s := e.Stats()
	if s.VarsTracked != workers*objs*fields || s.VarsFreed != s.VarsTracked {
		t.Errorf("VarsTracked = %d, VarsFreed = %d, want both %d", s.VarsTracked, s.VarsFreed, workers*objs*fields)
	}
}

// TestVarsFreedZeroAfterReplay: a free is not an action, so replaying a
// trace, allocations included, never frees anything.
func TestVarsFreedZeroAfterReplay(t *testing.T) {
	b := event.NewBuilder().Fork(1, 2)
	for o := event.Addr(10); o < 20; o++ {
		b.Alloc(1, o).Write(1, o, 0).Write(1, o, 1)
	}
	e := core.New()
	if rs := detect.RunTrace(e, b.Trace()); len(rs) != 0 {
		t.Fatalf("unexpected races: %v", rs)
	}
	if s := e.Stats(); s.VarsFreed != 0 || s.VarsTracked != 20 {
		t.Errorf("VarsTracked = %d, VarsFreed = %d after replay, want 20 and 0", s.VarsTracked, s.VarsFreed)
	}
}
