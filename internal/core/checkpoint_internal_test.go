package core

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"unsafe"

	"goldilocks/internal/event"
	"goldilocks/internal/tracegen"
)

// TestVarStateSize pins varState at 32 bytes. The engine holds one per
// tracked variable, so every byte is paid per variable in resident
// memory: the checkpoint reuse flag had to fit in the padding after the
// three flags, and storing a variable's checkpoint span in its state
// (two uint32s) would grow it to 40 bytes, a quarter more per variable.
func TestVarStateSize(t *testing.T) {
	var vs varState
	if got := unsafe.Sizeof(vs); got != 32 {
		t.Fatalf("varState is %d bytes, want 32", got)
	}
}

// checkpointed returns the bytes of a checkpoint of e.
func checkpointed(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshCapture captures e with nothing to reuse: every variable is
// listed and encoded from its state.
func freshCapture(t *testing.T, e *Engine) []byte {
	e.ckpt.tracking.Store(false)
	e.ckpt.dirty = nil
	return checkpointed(t, e)
}

// varTable returns the encoded variable table of a checkpoint.
func varTable(b []byte) []byte {
	return b[bytes.Index(b, []byte(`,"vars":[`)):bytes.Index(b, []byte(`,"counters":`))]
}

// firstVar returns some tracked variable with a write Info.
func firstVar(e *Engine) (event.Variable, *varState) {
	var v event.Variable
	var found *varState
	e.forEachVarState(func(o event.Addr, d event.FieldID, vs *varState) {
		if found == nil && vs.write != nil {
			v, found = event.Variable{Obj: o, Field: d}, vs
		}
	})
	return v, found
}

// TestCheckpointInvalidation calls each engine operation that mutates
// variable state, or the variable table, directly between two captures,
// and requires the second capture to match a fresh one and to differ
// from the first. Through Step alone some of these are unobservable: a
// cache shed is always followed by an eager sweep that advances (and so
// invalidates) every Info, Alloc unlinks a state before dropping it,
// and a valid trace never reallocates an object that has state. The
// invalidation is each operation's own contract, so each is checked on
// its own.
func TestCheckpointInvalidation(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 200
	// A lock handoff at the end leaves a happens-before cache entry (an
	// SC2 hit of thread 2 against thread 1's write) for the shed to drop.
	handoff := event.NewBuilder().
		Acquire(1, 150).Write(1, 50, 0).Release(1, 150).
		Acquire(2, 150).Read(2, 50, 0).Release(2, 150).
		Trace()
	tr := event.NewTrace(append(tracegen.FromSeedConfig(4, cfg).Actions(), handoff.Actions()...))
	mutations := map[string]func(e *Engine){
		"access": func(e *Engine) {
			for i := 0; i < tr.Len(); i++ {
				if a := tr.At(i); a.Kind == event.KindWrite {
					e.Step(event.Action{Kind: event.KindRead, Thread: a.Thread + 7, Obj: a.Obj, Field: a.Field})
					return
				}
			}
		},
		"advance":     func(e *Engine) { e.advanceInfosBefore(e.list.snapshotTail()) },
		"eager-sweep": func(e *Engine) { e.eagerSweepLocked() },
		"shed-caches": func(e *Engine) { e.shedCaches() },
		// Reallocating an object with state is not a valid trace step,
		// but the engine must still unlink the object's variables.
		"alloc": func(e *Engine) { e.Alloc(1, 50) },
		// The same variable, dropped and created again.
		"alloc-recreate": func(e *Engine) {
			e.Alloc(1, 50)
			e.Step(event.Action{Kind: event.KindWrite, Thread: 1, Obj: 50, Field: 0})
		},
		// A variable the trace never touched.
		"create": func(e *Engine) {
			e.Step(event.Action{Kind: event.KindWrite, Thread: 1, Obj: 999, Field: 3})
		},
		"drop": func(e *Engine) {
			v, vs := firstVar(e)
			vs.mu.Lock()
			e.dropVar(v.Obj, v.Field, vs)
			vs.mu.Unlock()
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(DefaultOptions())
			for i := 0; i < tr.Len(); i++ {
				e.Step(tr.At(i))
			}
			before := checkpointed(t, e)
			mutate(e)
			got := checkpointed(t, e)
			if bytes.Equal(varTable(got), varTable(before)) {
				t.Fatal("the mutation changed no variable's encoding; the check is vacuous")
			}
			if want := freshCapture(t, e); !bytes.Equal(got, want) {
				t.Fatalf("capture after %s reused stale bytes:\n got %s\nwant %s", name, got, want)
			}
		})
	}
}

// TestCheckpointReuseStateBounded captures an engine once and then steps
// it through a long trace full of allocations without another capture,
// as a session with no periodic checkpoints does after one admin pull.
// What the reuse keeps is one capture's body and table, replaced only
// by the next capture, plus a dirty key list whose size the previous
// capture fixed: past its cap the list is freed and tracking stops, and
// the next capture lists the whole table. An engine never captured
// keeps no list at all.
func TestCheckpointReuseStateBounded(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 200
	e := NewEngine(DefaultOptions())
	never := NewEngine(DefaultOptions())
	tr := tracegen.FromSeedConfig(5, cfg)
	for i := 0; i < tr.Len(); i++ {
		e.Step(tr.At(i))
		never.Step(tr.At(i))
	}
	e.Checkpoint(io.Discard)
	r := &e.ckpt
	body, vars, spare, dirtyCap := len(r.buf), len(r.vars), cap(r.spare), r.dirtyCap
	if want := 2*vars + 1024; dirtyCap != want {
		t.Fatalf("dirty list cap %d after a capture of %d variables, want %d", dirtyCap, vars, want)
	}
	cfg.Steps = 20000
	long := tracegen.FromSeedConfig(6, cfg)
	allocs := 0
	for i := 0; i < long.Len(); i++ {
		if long.At(i).Kind == event.KindAlloc {
			allocs++
		}
		e.Step(long.At(i))
		never.Step(long.At(i))
	}
	if allocs == 0 {
		t.Fatal("the trace has no allocations; the check is vacuous")
	}
	if len(r.buf) != body || len(r.vars) != vars || cap(r.spare) != spare {
		t.Fatalf("reuse state changed without a capture: body %d->%d, vars %d->%d, spare cap %d->%d",
			body, len(r.buf), vars, len(r.vars), spare, cap(r.spare))
	}
	if r.tracking.Load() {
		if len(r.dirty) > dirtyCap {
			t.Fatalf("dirty list holds %d keys, over its cap %d", len(r.dirty), dirtyCap)
		}
	} else if r.dirty != nil {
		t.Fatalf("tracking stopped but the dirty list still holds %d keys", len(r.dirty))
	}
	got := checkpointed(t, e)
	if want := freshCapture(t, e); !bytes.Equal(got, want) {
		t.Fatalf("capture after the long run differs from a fresh one:\n got %s\nwant %s", got, want)
	}
	if never.ckpt.dirty != nil || never.ckpt.tracking.Load() {
		t.Fatalf("an engine never captured tracks dirty keys (%d listed)", len(never.ckpt.dirty))
	}
}

// TestCheckpointDirtyNotesConcurrent steps one engine from 8 goroutines
// between two captures, on variables they share and on variables each
// creates, with collections advancing Infos underneath: every note
// lands in the dirty list, so the second capture equals a fresh one.
// Run it under -race.
func TestCheckpointDirtyNotesConcurrent(t *testing.T) {
	opts := DefaultOptions()
	opts.GCThreshold = 64
	e := NewEngine(opts)
	const workers, objs = 8, 512
	for o := event.Addr(1); o <= objs; o++ {
		e.Step(event.Action{Kind: event.KindWrite, Thread: 1, Obj: o, Field: 0})
	}
	e.Checkpoint(io.Discard)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid event.Tid) {
			defer wg.Done()
			lock := event.Addr(1000 + tid)
			for i := 0; i < 100; i++ {
				shared := event.Addr(1 + (int(tid)*37+i)%objs)
				fresh := event.Addr(10000 + int(tid)*1000 + i)
				e.Step(event.Action{Kind: event.KindAcquire, Thread: tid, Obj: lock})
				e.Step(event.Action{Kind: event.KindRead, Thread: tid, Obj: shared, Field: 0})
				e.Step(event.Action{Kind: event.KindWrite, Thread: tid, Obj: fresh, Field: event.FieldID(i % 3)})
				e.Step(event.Action{Kind: event.KindRelease, Thread: tid, Obj: lock})
			}
		}(event.Tid(2 + w))
	}
	wg.Wait()
	if !e.ckpt.tracking.Load() {
		t.Fatal("the dirty list overflowed; the check is vacuous")
	}
	got := checkpointed(t, e)
	if want := freshCapture(t, e); !bytes.Equal(got, want) {
		t.Fatalf("capture after concurrent steps differs from a fresh one:\n got %s\nwant %s", got, want)
	}
}
