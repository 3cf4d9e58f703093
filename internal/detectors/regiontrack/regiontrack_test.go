package regiontrack

import (
	"bytes"
	"reflect"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
)

// corpusEntry is one hand-built serializability scenario with a known
// verdict.
type corpusEntry struct {
	name         string
	trace        *event.Trace
	opts         Options
	serializable bool
}

func v(o event.Addr, d event.FieldID) event.Variable {
	return event.Variable{Obj: o, Field: d}
}

// corpus returns the hand-built scenario set. Every trace must pass
// event.Trace.Validate.
func corpus() []corpusEntry {
	var out []corpusEntry
	add := func(name string, serializable bool, opts Options, b *event.Builder) {
		tr := b.Trace()
		out = append(out, corpusEntry{name: name, trace: tr, opts: opts, serializable: serializable})
	}
	def := DefaultOptions()
	locks := DefaultOptions()
	locks.LockRegions = true

	// Two marker regions on disjoint variables: trivially serializable.
	add("disjoint-regions", true, def, event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).Write(1, 10, 0).TxEnd(1).
		TxBegin(2).Read(2, 20, 0).Write(2, 20, 0).TxEnd(2))

	// Serial schedule of conflicting regions: serializable (edges one way).
	add("serial-conflicting", true, def, event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).Write(1, 10, 0).TxEnd(1).
		TxBegin(2).Read(2, 10, 0).Write(2, 10, 0).TxEnd(2))

	// Lost update: T2 writes x between T1's read and write of x.
	add("lost-update", false, def, event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).
		Write(2, 10, 0).
		Write(1, 10, 0).TxEnd(1))

	// Write skew: T1 reads y writes x, T2 reads x writes y, interleaved.
	add("write-skew", false, def, event.NewBuilder().
		TxBegin(1).Read(1, 10, 1).
		TxBegin(2).Read(2, 10, 0).
		Write(1, 10, 0).TxEnd(1).
		Write(2, 10, 1).TxEnd(2))

	// The same write skew run serially is fine.
	add("write-skew-serial", true, def, event.NewBuilder().
		TxBegin(1).Read(1, 10, 1).Write(1, 10, 0).TxEnd(1).
		TxBegin(2).Read(2, 10, 0).Write(2, 10, 1).TxEnd(2))

	// Dirty read: T2 reads x mid-region, then T1 overwrites it before
	// closing — T1 -> T2 (w-r) and T2 -> T1 (r-w) on the same variable.
	add("dirty-read", false, def, event.NewBuilder().
		TxBegin(1).Write(1, 10, 0).
		Read(2, 10, 0).
		Write(1, 10, 0).TxEnd(1))

	// Commit interleaved into an open marker region: the commit's write
	// set conflicts both ways with the region.
	add("commit-lost-update", false, def, event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).
		Commit(2, nil, []event.Variable{v(10, 0)}).
		Commit(1, nil, []event.Variable{v(10, 0)}).TxEnd(1))

	// Commits alone are unary regions: atomic by construction, so a
	// commit-only interleaving is always serializable.
	add("commits-only", true, def, event.NewBuilder().
		Commit(1, []event.Variable{v(10, 0)}, []event.Variable{v(10, 1)}).
		Commit(2, []event.Variable{v(10, 1)}, []event.Variable{v(10, 0)}).
		Commit(1, []event.Variable{v(10, 0)}, []event.Variable{v(10, 0)}))

	// Volatile ping-pong inside a region: sync-object conflicts order the
	// regions both ways.
	add("volatile-cycle", false, def, event.NewBuilder().
		TxBegin(1).VolatileWrite(1, 30, 7).
		VolatileWrite(2, 30, 7).
		VolatileRead(1, 30, 7).TxEnd(1))

	// Channel message order is observable: two regions interleaving their
	// sends/recvs on one channel are not serializable.
	add("channel-cycle", false, def, event.NewBuilder().
		ChanMake(1, 40, 2).
		TxBegin(1).ChanSend(1, 40).
		TxBegin(2).ChanSend(2, 40).
		ChanRecv(1, 40).TxEnd(1).
		ChanRecv(2, 40).TxEnd(2))

	// Fork/join edges are one-directional: serializable.
	add("fork-join", true, def, event.NewBuilder().
		TxBegin(1).Write(1, 10, 0).Fork(1, 2).TxEnd(1).
		TxBegin(2).Write(2, 10, 0).TxEnd(2).
		Join(1, 2).Read(1, 10, 0))

	// LockRegions: a marker region spanning two critical sections with a
	// conflicting critical section between them — the classical stale-
	// value atomicity violation (no data race: every access is locked).
	add("lock-stale-value", false, locks, event.NewBuilder().
		TxBegin(1).
		Acquire(1, 50).Read(1, 10, 0).Release(1, 50).
		Acquire(2, 50).Write(2, 10, 0).Release(2, 50).
		Acquire(1, 50).Write(1, 10, 0).Release(1, 50).
		TxEnd(1))

	// The same lock pattern without the enclosing marker region: three
	// independent critical sections, serializable.
	add("lock-sections-serial", true, locks, event.NewBuilder().
		Acquire(1, 50).Read(1, 10, 0).Release(1, 50).
		Acquire(2, 50).Write(2, 10, 0).Release(2, 50).
		Acquire(1, 50).Write(1, 10, 0).Release(1, 50))

	// Reentrant locking stays one region per outermost span.
	add("lock-reentrant", true, locks, event.NewBuilder().
		Acquire(1, 50).Acquire(1, 50).Write(1, 10, 0).Release(1, 50).Read(1, 10, 0).Release(1, 50).
		Acquire(2, 50).Write(2, 10, 0).Release(2, 50))

	// Marker pair nested inside a lock span must not split the span.
	add("marker-in-lock-span", true, locks, event.NewBuilder().
		Acquire(1, 50).TxBegin(1).Write(1, 10, 0).TxEnd(1).Write(1, 10, 1).Release(1, 50).
		Acquire(2, 50).Write(2, 10, 0).Write(2, 10, 1).Release(2, 50))

	// A region left open at end of trace (checkpoint-style cut) still
	// carries its edges.
	add("open-region-cut", false, def, event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).
		Write(2, 10, 0).
		Write(1, 10, 0))

	// Unmarked data race: unary regions only, so serializable — but the
	// embedded engine must still report the race (checked separately).
	add("plain-race", true, def, event.NewBuilder().
		Write(1, 10, 0).
		Write(2, 10, 0))

	return out
}

func TestCorpusVerdicts(t *testing.T) {
	for _, c := range corpus() {
		t.Run(c.name, func(t *testing.T) {
			if err := c.trace.Validate(); err != nil {
				t.Fatalf("corpus trace invalid: %v", err)
			}
			_, sum := Check(c.trace, c.opts)
			if sum.Serializable != c.serializable {
				t.Fatalf("serializable = %v, want %v (summary %+v)", sum.Serializable, c.serializable, sum)
			}
			if !c.serializable && len(sum.Violations) == 0 {
				t.Fatalf("non-serializable verdict with no witness")
			}
		})
	}
}

// TestAcyclicMatchesIncremental pins the core invariant: the
// incremental cycle detector and the independent whole-graph Kahn
// verdict agree on every corpus trace.
func TestAcyclicMatchesIncremental(t *testing.T) {
	for _, c := range corpus() {
		ch := New(c.opts)
		detect.RunTrace(ch, c.trace)
		if ch.Acyclic() != ch.Serializable() {
			t.Errorf("%s: Acyclic()=%v but Serializable()=%v", c.name, ch.Acyclic(), ch.Serializable())
		}
	}
}

// TestRacesMatchPlainEngine: the composed checker's race verdicts are
// the embedded engine's, position for position.
func TestRacesMatchPlainEngine(t *testing.T) {
	for _, c := range corpus() {
		want := detect.RunTrace(core.NewEngine(c.opts.Engine), c.trace)
		got := detect.RunTrace(New(c.opts), c.trace)
		if len(got) != len(want) {
			t.Fatalf("%s: %d races from checker, %d from plain engine", c.name, len(got), len(want))
		}
		for i := range got {
			if got[i].Var != want[i].Var || got[i].Pos != want[i].Pos {
				t.Errorf("%s: race %d: got (%v,%d) want (%v,%d)",
					c.name, i, got[i].Var, got[i].Pos, want[i].Var, want[i].Pos)
			}
		}
	}
}

func TestPlainRaceStillDetected(t *testing.T) {
	for _, c := range corpus() {
		if c.name != "plain-race" {
			continue
		}
		races, sum := Check(c.trace, c.opts)
		if len(races) == 0 {
			t.Fatalf("unsynchronized write-write race not reported by embedded engine")
		}
		if !sum.Serializable {
			t.Fatalf("unary-region race must not be an atomicity violation")
		}
	}
}

// TestViolationWitness checks the recorded cycle is a real cycle in the
// final graph: consecutive edges exist and the closing edge returns
// from From to To.
func TestViolationWitness(t *testing.T) {
	for _, c := range corpus() {
		if c.serializable {
			continue
		}
		ch := New(c.opts)
		detect.RunTrace(ch, c.trace)
		for _, vi := range ch.Violations() {
			if len(vi.Cycle) == 0 || vi.Cycle[0] != vi.To || vi.Cycle[len(vi.Cycle)-1] != vi.From {
				t.Fatalf("%s: witness cycle %v does not run To(%d)..From(%d)", c.name, vi.Cycle, vi.To, vi.From)
			}
			for i := 0; i+1 < len(vi.Cycle); i++ {
				if _, ok := ch.edges[vi.Cycle[i]][vi.Cycle[i+1]]; !ok {
					t.Fatalf("%s: witness edge %d->%d missing from graph", c.name, vi.Cycle[i], vi.Cycle[i+1])
				}
			}
			if _, ok := ch.edges[vi.From][vi.To]; !ok {
				t.Fatalf("%s: closing edge %d->%d missing from graph", c.name, vi.From, vi.To)
			}
			if len(vi.Threads) == 0 {
				t.Fatalf("%s: witness has no threads", c.name)
			}
		}
	}
}

func TestMaxViolationsCap(t *testing.T) {
	b := event.NewBuilder()
	// Independent lost-update cycles between threads 1 and 2, past the cap.
	const cycles = maxViolations + 6
	for i := 0; i < cycles; i++ {
		o := event.Addr(100 + i)
		b.TxBegin(1).Read(1, o, 0).
			Write(2, o, 0).
			Write(1, o, 0).TxEnd(1)
	}
	ch := New(DefaultOptions())
	detect.RunTrace(ch, b.Trace())
	if got := len(ch.Violations()); got != maxViolations {
		t.Fatalf("retained %d witnesses, want cap %d", got, maxViolations)
	}
	if ch.ViolationCount() < cycles {
		t.Fatalf("total violations %d, want >= %d", ch.ViolationCount(), cycles)
	}
	if ch.Serializable() {
		t.Fatalf("capped checker must still report non-serializable")
	}
}

func TestRegionAccounting(t *testing.T) {
	tr := event.NewBuilder().
		TxBegin(1).Read(1, 10, 0).Write(1, 10, 0).TxEnd(1).
		Write(2, 10, 0).
		Trace()
	ch := New(DefaultOptions())
	detect.RunTrace(ch, tr)
	if ch.RegionCount() != 2 {
		t.Fatalf("RegionCount = %d, want 2 (one marker region, one unary)", ch.RegionCount())
	}
	if ch.MultiRegionCount() != 1 {
		t.Fatalf("MultiRegionCount = %d, want 1", ch.MultiRegionCount())
	}
	sum := ch.Summarize()
	if sum.Events != tr.Len() {
		t.Fatalf("Summary.Events = %d, want %d", sum.Events, tr.Len())
	}
}

// TestCheckpointEveryPrefix cuts every corpus trace at every position —
// including mid-region — snapshots, restores, and finishes both the
// original and the restored checker over the suffix. Verdicts, race
// output on the suffix, and the final snapshot bytes must all agree.
func TestCheckpointEveryPrefix(t *testing.T) {
	for _, c := range corpus() {
		for cut := 0; cut <= c.trace.Len(); cut++ {
			orig := New(c.opts)
			for i := 0; i < cut; i++ {
				orig.Step(c.trace.At(i))
			}
			var snap bytes.Buffer
			if err := orig.Checkpoint(&snap); err != nil {
				t.Fatalf("%s cut %d: checkpoint: %v", c.name, cut, err)
			}
			rest, err := Restore(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("%s cut %d: restore: %v", c.name, cut, err)
			}
			for i := cut; i < c.trace.Len(); i++ {
				a := c.trace.At(i)
				ro := orig.Step(a)
				rr := rest.Step(a)
				if len(ro) != len(rr) {
					t.Fatalf("%s cut %d step %d: %d races original vs %d restored", c.name, cut, i, len(ro), len(rr))
				}
				for j := range ro {
					if ro[j].Var != rr[j].Var {
						t.Fatalf("%s cut %d step %d: race var %v vs %v", c.name, cut, i, ro[j].Var, rr[j].Var)
					}
				}
			}
			if !reflect.DeepEqual(orig.Summarize(), rest.Summarize()) {
				t.Fatalf("%s cut %d: summaries diverge:\n  orig %+v\n  rest %+v",
					c.name, cut, orig.Summarize(), rest.Summarize())
			}
			var so, sr bytes.Buffer
			if err := orig.Checkpoint(&so); err != nil {
				t.Fatalf("%s cut %d: final checkpoint (original): %v", c.name, cut, err)
			}
			if err := rest.Checkpoint(&sr); err != nil {
				t.Fatalf("%s cut %d: final checkpoint (restored): %v", c.name, cut, err)
			}
			if !bytes.Equal(so.Bytes(), sr.Bytes()) {
				t.Fatalf("%s cut %d: final snapshots diverge", c.name, cut)
			}
		}
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	ch := New(DefaultOptions())
	detect.RunTrace(ch, corpus()[0].trace)
	var snap bytes.Buffer
	if err := ch.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader([]byte("junk\n"))); err == nil {
		t.Fatal("restore of junk header succeeded")
	}
	// Flip a byte inside the trailing graph line.
	raw := snap.Bytes()
	mut := append([]byte(nil), raw...)
	mut[len(mut)-10] ^= 0x01
	if _, err := Restore(bytes.NewReader(mut)); err == nil {
		t.Fatal("restore of corrupted graph line succeeded")
	}
}
