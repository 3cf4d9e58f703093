package core

import (
	"bytes"
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

func encoded(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshCapture captures e with nothing to reuse: every variable is
// encoded from its state.
func freshCapture(t *testing.T, e *Engine) []byte {
	e.ckpt.vars = nil
	return encoded(t, e.Capture())
}

// varTable returns the encoded variable table of a checkpoint.
func varTable(b []byte) []byte {
	return b[bytes.Index(b, []byte(`,"vars":[`)):bytes.Index(b, []byte(`,"counters":`))]
}

// firstVar returns some tracked state with a write Info.
func firstVar(e *Engine) *varState {
	var found *varState
	e.forEachVarState(func(vs *varState) {
		if found == nil && vs.write != nil {
			found = vs
		}
	})
	return found
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
		"drop": func(e *Engine) {
			vs := firstVar(e)
			vs.mu.Lock()
			vs.dropAll()
			vs.mu.Unlock()
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(DefaultOptions())
			for i := 0; i < tr.Len(); i++ {
				e.Step(tr.At(i))
			}
			before := encoded(t, e.Capture())
			mutate(e)
			got := encoded(t, e.Capture())
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
// Nothing the reuse keeps may change or grow in between: it is one
// capture's body and table, replaced only by the next capture.
func TestCheckpointReuseStateBounded(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 200
	e := NewEngine(DefaultOptions())
	tr := tracegen.FromSeedConfig(5, cfg)
	for i := 0; i < tr.Len(); i++ {
		e.Step(tr.At(i))
	}
	e.Capture()
	body, vars, spare := len(e.ckpt.body), len(e.ckpt.vars), cap(e.ckpt.spare)
	cfg.Steps = 20000
	long := tracegen.FromSeedConfig(6, cfg)
	allocs := 0
	for i := 0; i < long.Len(); i++ {
		if long.At(i).Kind == event.KindAlloc {
			allocs++
		}
		e.Step(long.At(i))
	}
	if allocs == 0 {
		t.Fatal("the trace has no allocations; the check is vacuous")
	}
	if len(e.ckpt.body) != body || len(e.ckpt.vars) != vars || cap(e.ckpt.spare) != spare {
		t.Fatalf("reuse state changed without a capture: body %d->%d, vars %d->%d, spare cap %d->%d",
			body, len(e.ckpt.body), vars, len(e.ckpt.vars), spare, cap(e.ckpt.spare))
	}
}
