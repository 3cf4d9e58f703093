package core_test

import (
	"fmt"
	"sync"
	"testing"

	"goldilocks/internal/conformance"
	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/tracegen"
)

// configurations returns the engine configurations every verdict test
// runs: the default plus the conformance matrix's variants, each of
// which must leave verdicts unchanged.
func configurations() map[string]core.Options {
	configs := conformance.Variants()
	configs["default"] = core.DefaultOptions()
	return configs
}

// TestEngineScenarios checks verdicts on every paper scenario under
// every option configuration.
func TestEngineScenarios(t *testing.T) {
	for name, opts := range configurations() {
		for _, sc := range scenarios.All() {
			t.Run(name+"/"+sc.Name, func(t *testing.T) {
				r := detect.FirstRace(core.NewEngine(opts), sc.Trace)
				if sc.Racy {
					if r == nil {
						t.Fatalf("no race, want %v at %d", sc.RaceVar, sc.RacePos)
					}
					if r.Pos != sc.RacePos || r.Var != sc.RaceVar {
						t.Errorf("race = %v at %d, want %v at %d", r.Var, r.Pos, sc.RaceVar, sc.RacePos)
					}
					if !r.HasPrev {
						t.Error("engine race missing previous access")
					}
				} else if r != nil {
					t.Errorf("false race: %v", r)
				}
			})
		}
	}
}

// checkAgainstSpec runs tr through the engine under sem and requires
// its verdict to match the ground truth racy, and its races and Figure
// 5 rule fires to match the executable specification's.
func checkAgainstSpec(t *testing.T, tr *event.Trace, sem event.TxnSemantics, racy bool) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	opts := core.DefaultOptions()
	opts.TxnSemantics = sem
	eng := core.NewEngine(opts)
	races := detect.RunTrace(eng, tr)
	if got := len(races) > 0; got != racy {
		t.Errorf("racy = %v, want %v (races %v)", got, racy, races)
	}
	spec := core.NewSpecEngineSem(sem)
	if got, want := sortedKeys(races), sortedKeys(detect.RunTrace(spec, tr)); !equalStrings(got, want) {
		t.Errorf("races %v, spec %v", got, want)
	}
	if got, want := eng.RuleFires(), spec.RuleFires(); got != want {
		t.Errorf("rule fires %v, spec %v", got, want)
	}
}

// TestEscalationEdges hands a thread-owned variable (its accesses
// resolved at SC1) to another thread through each synchronization
// vocabulary in turn. The engine's verdict must match the case's ground
// truth, and its races and Figure 5 rule fires the specification's.
func TestEscalationEdges(t *testing.T) {
	const (
		x    event.Addr = 10 // the handed-off data object
		lk   event.Addr = 20
		vol  event.Addr = 21
		ch   event.Addr = 22
		spin event.Addr = 23 // second object for read-shared cases
	)
	cases := []struct {
		name string
		tr   *event.Trace
		// racy is the ground-truth verdict.
		racy bool
	}{
		{
			// Reads spread the variable across threads; t1's write then
			// finds a foreign reader. Properly synchronized: no race.
			name: "write-after-read-shared-synced",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).
				Acquire(1, lk).Read(1, x, 0).Release(1, lk).
				Acquire(2, lk).Read(2, x, 0).Release(2, lk).
				Acquire(1, lk).Write(1, x, 0).Release(1, lk).
				Trace(),
			racy: false,
		},
		{
			name: "write-after-read-shared-racy",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).
				Acquire(1, lk).Read(1, x, 0).Release(1, lk).
				Acquire(2, lk).Read(2, x, 0).Release(2, lk).
				Write(1, x, 0). // no lock this time: races with t2's read
				Trace(),
			racy: true,
		},
		{
			name: "lock-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).Write(1, x, 0). // thread-owned: SC1
				Acquire(1, lk).Write(1, x, 0).Release(1, lk).
				Acquire(2, lk).Write(2, x, 0).Release(2, lk). // handed off here
				Trace(),
			racy: false,
		},
		{
			// Disjoint locks: the lockset intersection between t1's release
			// and t2's acquire is empty, so the handoff is a race.
			name: "lock-handoff-racy",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).Write(1, x, 0).
				Acquire(1, lk).Write(1, x, 0).Release(1, lk).
				Acquire(2, spin).Write(2, x, 0).Release(2, spin).
				Trace(),
			racy: true,
		},
		{
			name: "volatile-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, x, 0).Write(1, x, 0).
				VolatileWrite(1, vol, 0).
				VolatileRead(2, vol, 0).
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "channel-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				ChanMake(1, ch, 1).
				Write(1, x, 0).Write(1, x, 0).
				ChanSend(1, ch).
				ChanRecv(2, ch).
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "channel-close-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				ChanMake(1, ch, 1).
				Write(1, x, 0).Write(1, x, 0).
				ChanClose(1, ch).
				ChanRecv(2, ch). // receive from drained closed channel
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "fork-handoff",
			tr: event.NewBuilder().
				Write(1, x, 0).Write(1, x, 0).
				Fork(1, 2).
				Write(2, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "join-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(2, x, 0).Write(2, x, 0).
				Join(1, 2).
				Write(1, x, 0).
				Trace(),
			racy: false,
		},
		{
			name: "commit-handoff",
			tr: event.NewBuilder().
				Fork(1, 2).
				Write(1, spin, 0).Write(1, spin, 0). // plain thread-owned traffic
				Commit(1, nil, []event.Variable{{Obj: x, Field: 0}}).
				Commit(2, []event.Variable{{Obj: x, Field: 0}}, nil).
				Trace(),
			racy: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstSpec(t, c.tr, event.TxnSharedVariable, c.racy)
		})
	}
}

// TestEscalationStress delivers channel- and lock-heavy generated
// traces concurrently (one goroutine per trace thread,
// ticket-serialized to the trace order) and requires the serial run's
// verdicts. Under -race, any unsynchronized state touched by an
// ownership handoff fails here.
func TestEscalationStress(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := tracegen.Default()
			cfg.Steps = 400
			cfg.MaxThreads = 6
			cfg.Channels = 2
			cfg.SyncBias = 0.8
			tr := tracegen.FromSeedConfig(seed, cfg)
			got := sortedKeys(conformance.RunConcurrent(core.New(), tr))
			if want := sortedKeys(detect.RunTrace(core.New(), tr)); !equalStrings(got, want) {
				t.Errorf("concurrent verdicts %v, serial %v", got, want)
			}
		})
	}
}

// TestEngineShortCircuitCounters verifies the cheap checks fire where
// they should.
func TestEngineShortCircuitCounters(t *testing.T) {
	// SC1: same-thread accesses.
	e := core.New()
	detect.RunTrace(e, event.NewBuilder().
		Write(1, 10, 0).Read(1, 10, 0).Write(1, 10, 0).Trace())
	st := e.Stats()
	if st.SC1Hits != 2 {
		t.Errorf("SC1 hits = %d, want 2", st.SC1Hits)
	}
	if st.FullWalks != 0 {
		t.Errorf("full walks = %d, want 0", st.FullWalks)
	}

	// SC2: both accesses under the same lock.
	e = core.New()
	detect.RunTrace(e, event.NewBuilder().
		Fork(1, 2).
		Acquire(1, 20).Write(1, 10, 0).Release(1, 20).
		Acquire(2, 20).Write(2, 10, 0).Release(2, 20).
		Trace())
	st = e.Stats()
	if st.SC2Hits != 1 {
		t.Errorf("SC2 hits = %d, want 1", st.SC2Hits)
	}
	if st.Races != 0 {
		t.Errorf("races = %d, want 0", st.Races)
	}

	// Xact short-circuit: transactional pair.
	e = core.New()
	v := event.Variable{Obj: 10, Field: 0}
	detect.RunTrace(e, event.NewBuilder().
		Fork(1, 2).
		Commit(1, nil, []event.Variable{v}).
		Commit(2, nil, []event.Variable{v}).
		Trace())
	st = e.Stats()
	if st.XactHits != 1 {
		t.Errorf("xact hits = %d, want 1", st.XactHits)
	}

	// SC3: handoff via a lock the second thread no longer holds at
	// access time (release-then-access), so SC2 cannot apply but the
	// two-thread traversal proves the edge.
	e = core.New()
	detect.RunTrace(e, event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		Acquire(1, 20).Release(1, 20).
		Acquire(2, 20).Release(2, 20).
		Write(2, 10, 0).
		Trace())
	st = e.Stats()
	if st.SC3Hits != 1 {
		t.Errorf("SC3 hits = %d, want 1 (stats %+v)", st.SC3Hits, st)
	}
	if st.Races != 0 {
		t.Errorf("races = %d, want 0", st.Races)
	}
}

// TestEngineMemoization: a full lockset computation that runs to the
// end of the list stores its result back into the Info and advances its
// position, so repeated checks walk each segment once (linear) instead
// of rescanning from the access point (quadratic). The reads race, so
// every check is a failed one that must traverse its whole segment
// (successful checks stop early at the verdict and are covered by the
// early-exit tests).
func TestEngineMemoization(t *testing.T) {
	build := func() *event.Trace {
		b := event.NewBuilder()
		b.Fork(1, 2)
		b.Write(1, 10, 0)
		for i := 0; i < 20; i++ {
			b.VolatileWrite(1, 1, 0)
			b.VolatileWrite(1, 1, 1)
			b.VolatileWrite(1, 1, 2)
			b.Read(2, 10, 0) // races with the write every time
		}
		return b.Trace()
	}
	opts := core.DefaultOptions()
	opts.SC2, opts.SC3 = false, false
	e := core.NewEngine(opts)
	if rs := detect.RunTrace(e, build()); len(rs) == 0 {
		t.Fatal("expected races")
	}
	// Memoized traversal is linear in list length: each cell is visited
	// at most once per info chain.
	if m := e.Stats().WalkCells; m > 100 {
		t.Errorf("memoized walk = %d cells, expected linear (<= 100)", m)
	}
}

// TestEngineGC: the event list is trimmed once every info has moved past
// the prefix.
func TestEngineGC(t *testing.T) {
	opts := core.DefaultOptions()
	opts.GCThreshold = 8
	opts.GCTrimFraction = 0.5
	e := core.NewEngine(opts)

	b := event.NewBuilder()
	b.Fork(1, 2)
	b.Write(1, 10, 0) // early access pins the list head until advanced
	for i := 0; i < 100; i++ {
		b.Acquire(1, 20)
		b.Release(1, 20)
	}
	b.Acquire(2, 20)
	b.Write(2, 10, 0) // would race without the lock-chain edges? (no: T1 held 20 repeatedly)
	b.Release(2, 20)
	rs := detect.RunTrace(e, b.Trace())
	if len(rs) != 0 {
		t.Fatalf("unexpected races: %v", rs)
	}
	st := e.Stats()
	if st.Collections == 0 {
		t.Error("no collections ran")
	}
	if st.CellsCollected == 0 {
		t.Error("no cells were collected")
	}
	if st.InfosAdvanced == 0 {
		t.Error("partially-eager evaluation never advanced an info")
	}
	if got := e.ListLen(); got > 150 {
		t.Errorf("list length %d, expected trimming", got)
	}
}

// TestEngineGCCorrectness: aggressive collection must not change
// verdicts on a handoff that spans collected prefix.
func TestEngineGCCorrectness(t *testing.T) {
	mk := func(opts core.Options) *detect.Race {
		b := event.NewBuilder()
		b.Fork(1, 2)
		b.Write(1, 10, 0)
		b.Acquire(1, 20)
		b.Release(1, 20)           // LS(o.data) grows to {T1, l20}
		for i := 0; i < 200; i++ { // unrelated noise to force collections
			b.VolatileWrite(1, 1, 0)
			b.VolatileRead(1, 1, 0)
		}
		b.Acquire(2, 20) // T2 becomes an owner
		b.Write(2, 10, 0)
		b.Release(2, 20)
		return detect.FirstRace(core.NewEngine(opts), b.Trace())
	}
	opts := core.DefaultOptions()
	opts.GCThreshold = 16
	opts.GCTrimFraction = 0.3
	if r := mk(opts); r != nil {
		t.Errorf("handoff flagged under aggressive GC: %v", r)
	}
}

// TestEngineDisableAfterRace: with the paper's measurement policy a
// variable stops being checked after its first race.
func TestEngineDisableAfterRace(t *testing.T) {
	opts := core.DefaultOptions()
	opts.DisableAfterRace = true
	e := core.NewEngine(opts)
	tr := event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		Write(2, 10, 0). // race
		Write(1, 10, 0). // would race again; disabled
		Write(2, 10, 0).
		Trace()
	rs := detect.RunTrace(e, tr)
	if len(rs) != 1 {
		t.Errorf("races = %d, want 1 (disable after first)", len(rs))
	}

	// Without the policy every subsequent conflicting access reports.
	e2 := core.New()
	rs2 := detect.RunTrace(e2, tr)
	if len(rs2) != 3 {
		t.Errorf("races = %d, want 3 without disabling", len(rs2))
	}
}

// TestEngineAllocReset: reusing state after alloc starts fresh.
func TestEngineAllocReset(t *testing.T) {
	tr := event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		Write(2, 11, 0).
		Alloc(1, 12).
		Write(1, 12, 0).
		Trace()
	rs := detect.RunTrace(core.New(), tr)
	if len(rs) != 0 {
		t.Errorf("unexpected races: %v", rs)
	}
}

// TestEngineConcurrentUse drives the engine from many goroutines; run
// with -race. Each goroutine works on its own variables under a shared
// lock discipline, so no race reports are expected.
func TestEngineConcurrentUse(t *testing.T) {
	e := core.New()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := event.Tid(w + 1)
			obj := event.Addr(100 + w)
			lock := event.Addr(200)
			for i := 0; i < 200; i++ {
				e.Sync(event.Acquire(tid, lock))
				if r := e.Write(tid, obj, 0); r != nil {
					t.Errorf("worker %d: unexpected race %v", w, r)
				}
				if r := e.Read(tid, obj, 0); r != nil {
					t.Errorf("worker %d: unexpected race %v", w, r)
				}
				e.Sync(event.Release(tid, lock))
			}
		}(w)
	}
	wg.Wait()
	if st := e.Stats(); st.Races != 0 {
		t.Errorf("races = %d", st.Races)
	}
}

// TestEngineConcurrentSharedVar: shared variable under a lock from many
// goroutines, with aggressive GC running concurrently.
func TestEngineConcurrentSharedVar(t *testing.T) {
	opts := core.DefaultOptions()
	opts.GCThreshold = 64
	opts.GCTrimFraction = 0.25
	e := core.NewEngine(opts)
	const workers = 6
	lock := event.Addr(200)
	obj := event.Addr(100)
	var wg sync.WaitGroup
	var mu sync.Mutex // the real lock backing the modeled one
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := event.Tid(w + 1)
			for i := 0; i < 300; i++ {
				mu.Lock()
				e.Sync(event.Acquire(tid, lock))
				if r := e.Write(tid, obj, 0); r != nil {
					t.Errorf("worker %d iter %d: %v", w, i, r)
				}
				e.Sync(event.Release(tid, lock))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if st := e.Stats(); st.Races != 0 {
		t.Errorf("races = %d (stats %+v)", st.Races, e.Stats())
	}
}

// TestStatsShortCircuitRate sanity-checks the Table 1 statistic.
func TestStatsShortCircuitRate(t *testing.T) {
	s := core.Stats{PairChecks: 10, SC1Hits: 2, SC2Hits: 3, SC3Hits: 1, XactHits: 1}
	if got := s.ShortCircuitRate(); got != 0.7 {
		t.Errorf("ShortCircuitRate = %v, want 0.7", got)
	}
	if got := (core.Stats{}).ShortCircuitRate(); got != 0 {
		t.Errorf("empty rate = %v", got)
	}
}

// TestLocksetOps covers the lockset container directly.
func TestLocksetOps(t *testing.T) {
	ls := core.NewLockset(core.ThreadElem(1))
	if ls.Empty() || ls.Len() != 1 || !ls.HasThread(1) {
		t.Error("constructor broken")
	}
	ls.Add(core.TL)
	ls.AddVars([]event.Variable{{Obj: 10, Field: 0}})
	if !ls.Has(core.TL) || !ls.IntersectsVars([]event.Variable{{Obj: 10, Field: 0}}) {
		t.Error("Add/Has broken")
	}
	if ls.IntersectsVars([]event.Variable{{Obj: 10, Field: 1}}) {
		t.Error("IntersectsVars false positive")
	}
	c := ls.Clone()
	c.Add(core.ThreadElem(2))
	if ls.HasThread(2) {
		t.Error("Clone shares state")
	}
	if !c.Equal(c.Clone()) || c.Equal(ls) {
		t.Error("Equal broken")
	}
	got := core.NewLockset(core.ThreadElem(1), core.LockElem(20), core.TL).String()
	want := "{T1, TL, o20.lock}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	ls.Reset(core.ThreadElem(3))
	if ls.Len() != 1 || !ls.HasThread(3) {
		t.Error("Reset broken")
	}
	if len(ls.Elems()) != 1 {
		t.Error("Elems broken")
	}
}

// TestElemString covers element rendering used in diagnostics.
func TestElemString(t *testing.T) {
	cases := []struct {
		e    core.Elem
		want string
	}{
		{core.ThreadElem(3), "T3"},
		{core.LockElem(20), "o20.lock"},
		{core.VolatileElem(event.Volatile{Obj: 1, Field: 2}), "o1.v2"},
		{core.VarElem(event.Variable{Obj: 10, Field: 0}), "o10.f0"},
		{core.TL, "TL"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func ExampleEngine() {
	e := core.New()
	e.Sync(event.Fork(1, 2))
	e.Write(1, 10, 0)
	r := e.Write(2, 10, 0)
	fmt.Println(r.Var, r.HasPrev)
	// Output: o10.f0 true
}

// TestEngineHBCache: once an edge to a thread is established, repeated
// checks against the same info are O(1) and walk no cells.
func TestEngineHBCache(t *testing.T) {
	e := core.New()
	b := event.NewBuilder()
	b.Fork(1, 2)
	b.Write(1, 10, 0)
	b.VolatileWrite(1, 1, 0)
	b.VolatileRead(2, 1, 0) // T1's write now happens-before T2
	for i := 0; i < 50; i++ {
		b.Read(2, 10, 0)
		b.VolatileRead(2, 1, 1) // noise so SC1 does not absorb the reads
		b.VolatileWrite(2, 1, 1)
	}
	if rs := detect.RunTrace(e, b.Trace()); len(rs) != 0 {
		t.Fatalf("unexpected races: %v", rs)
	}
	st := e.Stats()
	if st.HBCacheHits < 45 {
		t.Errorf("HB cache hits = %d, want most of the 50 repeat checks", st.HBCacheHits)
	}
}

// TestEngineSC3SegmentCap: a failed check must traverse its whole
// segment. Up to the 512-cell cap it does so twice (the filtered SC3
// walk, then the full walk); past the cap the check goes straight to
// the full walk and visits the segment once. Racy reads force failed
// checks, and memoization makes each check start where the last one
// stopped.
func TestEngineSC3SegmentCap(t *testing.T) {
	const reads = 3
	walkCells := func(segment int) uint64 {
		b := event.NewBuilder()
		b.Fork(1, 2)
		b.Write(1, 10, 0)
		for i := 0; i < reads; i++ {
			for j := 0; j < segment; j++ {
				b.VolatileWrite(1, 1, 0) // noise
			}
			b.Read(2, 10, 0) // races: no handshake anywhere
		}
		e := core.New()
		if rs := detect.RunTrace(e, b.Trace()); len(rs) != reads {
			t.Fatalf("segment %d: %d races, want %d", segment, len(rs), reads)
		}
		return e.Stats().WalkCells
	}
	if got, want := walkCells(512), uint64(reads*2*512); got != want {
		t.Errorf("512-cell segments: walked %d cells, want %d (SC3 and full walk each)", got, want)
	}
	if got, want := walkCells(513), uint64(reads*513); got != want {
		t.Errorf("513-cell segments: walked %d cells, want %d (full walk only)", got, want)
	}
}

// TestEngineReentrantLocks: reentrant acquire/release sequences keep
// SC2 and the lockset rules sound (the paper notes reentrant locks are
// an easy extension; the engine counts depth in its held-lock table and
// the runtime emits only outermost acquire/release events).
func TestEngineReentrantLocks(t *testing.T) {
	e := core.New()
	tr := event.NewBuilder().
		Fork(1, 2).
		Acquire(1, 20).
		Acquire(1, 20). // reentrant
		Write(1, 10, 0).
		Release(1, 20).
		Write(1, 10, 1). // still held once: alock usable
		Release(1, 20).
		Acquire(2, 20).
		Write(2, 10, 0).
		Write(2, 10, 1).
		Release(2, 20).
		Trace()
	if rs := detect.RunTrace(e, tr); len(rs) != 0 {
		t.Errorf("reentrant lock discipline flagged: %v", rs)
	}
	if got := e.HeldLocks(1); len(got) != 0 {
		t.Errorf("T1 still holds %v", got)
	}
}

// TestEngineCommitDuplicateVars: duplicate entries in R and W are
// deduplicated (one check and one race per variable).
func TestEngineCommitDuplicateVars(t *testing.T) {
	v := event.Variable{Obj: 10, Field: 0}
	tr := event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		Commit(2, []event.Variable{v, v}, []event.Variable{v, v}).
		Trace()
	rs := detect.RunTrace(core.New(), tr)
	if len(rs) != 1 {
		t.Errorf("races = %d, want exactly 1 for duplicated commit vars", len(rs))
	}
	specRs := detect.RunTrace(core.NewSpecEngine(), tr)
	if len(specRs) != 1 {
		t.Errorf("spec races = %d, want 1", len(specRs))
	}
}

// TestEngineAllocReenablesDisabledVar: rule 8's reset also clears the
// disable-after-race flag — a fresh object at a recycled address is
// checked again.
func TestEngineAllocReenablesDisabledVar(t *testing.T) {
	opts := core.DefaultOptions()
	opts.DisableAfterRace = true
	e := core.NewEngine(opts)
	e.Sync(event.Fork(1, 2))
	e.Write(1, 10, 0)
	if r := e.Write(2, 10, 0); r == nil {
		t.Fatal("expected a race")
	}
	if r := e.Write(1, 10, 0); r != nil {
		t.Fatal("variable should be disabled after its first race")
	}
	e.Alloc(1, 10) // address reuse after allocation
	e.Write(1, 10, 0)
	if r := e.Write(2, 10, 0); r == nil {
		t.Error("fresh allocation no longer checked")
	}
}
