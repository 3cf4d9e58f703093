package core

import (
	"sync/atomic"
	"testing"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

func TestSyncListEnqueueAndSnapshot(t *testing.T) {
	l := newSyncList()
	if l.len() != 0 {
		t.Fatal("fresh list not empty")
	}
	s0 := l.snapshotTail()
	if s0.filled {
		t.Fatal("sentinel marked filled")
	}
	n := l.enqueue(event.Acquire(1, 20))
	if n != 1 || l.len() != 1 {
		t.Errorf("len after enqueue = %d", n)
	}
	if !s0.filled || s0.action.Kind != event.KindAcquire {
		t.Error("enqueue did not fill the old sentinel")
	}
	s1 := l.snapshotTail()
	if s1 == s0 || s1.filled {
		t.Error("tail did not advance to a fresh sentinel")
	}
	if s0.next != s1 {
		t.Error("cells not linked")
	}
	if s1.seq != s0.seq+1 {
		t.Errorf("seq %d after %d", s1.seq, s0.seq)
	}
}

func TestSyncListTrimRespectsRefs(t *testing.T) {
	l := newSyncList()
	var cells []*cell
	for i := 0; i < 10; i++ {
		cells = append(cells, l.snapshotTail())
		l.enqueue(event.Release(1, 20))
	}
	// Pin the 4th cell.
	cells[3].refs.Add(1)
	dropped := l.trim(nil)
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3 (stop at pinned cell)", dropped)
	}
	if l.len() != 7 {
		t.Errorf("len = %d", l.len())
	}
	// Unpin and trim fully.
	cells[3].refs.Add(-1)
	dropped = l.trim(nil)
	if dropped != 7 {
		t.Errorf("second trim dropped = %d, want 7", dropped)
	}
	if l.len() != 0 {
		t.Errorf("len = %d after full trim", l.len())
	}
	if l.collected.Load() != 10 {
		t.Errorf("collected counter = %d", l.collected.Load())
	}
}

func TestSyncListTrimLimit(t *testing.T) {
	l := newSyncList()
	var cells []*cell
	for i := 0; i < 8; i++ {
		cells = append(cells, l.snapshotTail())
		l.enqueue(event.Release(1, 20))
	}
	dropped := l.trim(cells[5])
	if dropped != 5 {
		t.Errorf("dropped = %d, want 5 (limit)", dropped)
	}
}

func TestSyncListCellAt(t *testing.T) {
	l := newSyncList()
	if l.cellAt(0) != nil {
		t.Error("cellAt on empty list should be nil")
	}
	first := l.snapshotTail()
	for i := 0; i < 5; i++ {
		l.enqueue(event.Acquire(1, 20))
	}
	if got := l.cellAt(0); got != first {
		t.Error("cellAt(0) is not head")
	}
	if got := l.cellAt(2); got.seq != first.seq+2 {
		t.Errorf("cellAt(2).seq = %d", got.seq)
	}
	// Past the end: clamps to the last filled cell.
	if got := l.cellAt(50); got.seq != first.seq+4 {
		t.Errorf("cellAt(50).seq = %d, want last filled", got.seq)
	}
}

func TestWalkUntilEarlyExit(t *testing.T) {
	l := newSyncList()
	start := l.snapshotTail()
	l.enqueue(event.Release(1, 20))        // adds lock 20 (T1 owns)
	l.enqueue(event.Acquire(2, 20))        // adds T2 -> verdict
	l.enqueue(event.VolatileRead(3, 1, 0)) // never visited
	end := l.snapshotTail()

	ls := NewLockset(ThreadElem(1))
	found, viaTL, stopped, n := walkUntil(ls, start, end, ruleSet{sem: event.TxnSharedVariable}, false, 1, 2, false, new([obs.NumRules + 1]atomic.Uint64), nil)
	if !found || viaTL {
		t.Fatalf("found=%v viaTL=%v", found, viaTL)
	}
	if n != 2 {
		t.Errorf("visited %d cells, want 2 (early exit)", n)
	}
	if stopped == end {
		t.Error("claimed to reach end despite early exit")
	}

	// A non-member target walks to the end.
	ls2 := NewLockset(ThreadElem(1))
	found, _, stopped, n = walkUntil(ls2, start, end, ruleSet{sem: event.TxnSharedVariable}, false, 1, 9, false, new([obs.NumRules + 1]atomic.Uint64), nil)
	if found {
		t.Error("found absent thread")
	}
	if stopped != end || n != 3 {
		t.Errorf("stopped short: n=%d", n)
	}
}
