package core

import (
	"sync"
	"sync/atomic"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// cell is one entry of the synchronization event list (the Cell record
// of Figure 8). The list always ends in an empty sentinel cell: an
// enqueue fills the current sentinel and links a fresh one. An Info's
// pos field points to the sentinel that was current when the access
// happened, so the events that came after the access are exactly the
// filled cells reachable from pos.
type cell struct {
	action event.Action
	seq    uint64 // position in the extended synchronization order
	next   *cell
	refs   atomic.Int32 // number of Info.pos pointers to this cell
	filled bool
}

// syncList is the synchronization event list: an append-only linked
// list of synchronization actions in extended synchronization order,
// with reference-counted prefix trimming.
//
// The sentinel tail is published through an atomic pointer, so readers
// (snapshotTail on every data access, and the walks it anchors) never
// take the mutex; mu serializes only the writers: enqueue and trim.
// The memory-model argument: enqueue fills the old sentinel (action,
// filled, next, and the new sentinel's seq) *before* the atomic store
// that publishes the new tail, so a reader that loads some tail T sees
// every cell strictly before T fully filled and immutable — those
// fields are never written again.
type syncList struct {
	mu     sync.Mutex
	head   *cell                // oldest retained cell; guarded by mu
	tail   atomic.Pointer[cell] // empty sentinel; lock-free readable
	length atomic.Int64         // filled cells reachable from head

	enqueued  atomic.Uint64 // total events ever enqueued
	collected atomic.Uint64 // total cells trimmed

	// fires counts, per rule, the synchronization actions (rules 2–7
	// and 9–12) and allocations (rule 8) the engine processed, whether
	// or not a cell was enqueued. Every action counted here also writes
	// the list or walks the shards, so the counts sit with the list's
	// other counters rather than on the access path's stripes.
	fires [obs.NumRules + 1]atomic.Uint64
}

func newSyncList() *syncList {
	sentinel := &cell{seq: 0}
	l := &syncList{head: sentinel}
	l.tail.Store(sentinel)
	return l
}

// enqueue appends a synchronization action and returns the new length.
func (l *syncList) enqueue(a event.Action) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tail.Load()
	t.action = a
	t.filled = true
	t.next = &cell{seq: t.seq + 1}
	l.tail.Store(t.next) // publishes the fill to lock-free readers
	n := l.length.Add(1)
	l.enqueued.Add(1)
	return int(n)
}

// fire counts one firing of rule; rule 0 (no rule) is counted in a
// slot nothing reads.
func (l *syncList) fire(rule int) { l.fires[rule].Add(1) }

// snapshotTail returns the current sentinel without locking. Every
// filled cell strictly before it is immutable; the happens-before edge
// established by the atomic tail publication makes those cells safe to
// read without further synchronization.
func (l *syncList) snapshotTail() *cell {
	return l.tail.Load()
}

// trim drops unreferenced cells from the front of the list, stopping at
// the first cell with a nonzero reference count, at limit, or at the
// sentinel. It returns the number of cells dropped.
func (l *syncList) trim(limit *cell) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	dropped := 0
	tail := l.tail.Load()
	for l.head != tail && l.head.refs.Load() == 0 {
		if limit != nil && l.head.seq >= limit.seq {
			break
		}
		l.head = l.head.next
		dropped++
	}
	l.length.Add(int64(-dropped))
	l.collected.Add(uint64(dropped))
	return dropped
}

// len returns the number of filled cells currently retained.
func (l *syncList) len() int {
	return int(l.length.Load())
}

// cellFor returns the retained cell at position seq, or nil if that
// prefix has been collected. The scan from head is linear — cellFor
// serves race provenance, a cold path that runs at most once per racy
// variable.
func (l *syncList) cellFor(seq uint64) *cell {
	l.mu.Lock()
	c := l.head
	l.mu.Unlock()
	if c.seq > seq {
		return nil
	}
	end := l.tail.Load()
	for c != end && c.seq < seq {
		c = c.next
	}
	if c.seq != seq {
		return nil
	}
	return c
}

// cellAt returns the retained cell that is n filled cells past head (or
// the last filled cell if the list is shorter), for choosing the
// partially-eager advance point. Returns nil if the list has no filled
// cells.
//
// Only the head read needs the mutex; the walk itself runs on the
// immutable filled cells between head and a tail snapshot, so an O(n)
// collection scan no longer blocks every concurrent enqueue and access.
// The head must be read before the tail: head never passes the tail, so
// a head read first is always at or before a tail read second, and the
// sentinel stays reachable from it.
func (l *syncList) cellAt(n int) *cell {
	l.mu.Lock()
	c := l.head
	l.mu.Unlock()
	end := l.tail.Load()
	if c == end {
		return nil // no filled cells
	}
	for i := 0; i < n && c.next != nil && c.next != end; i++ {
		c = c.next
	}
	return c
}
