package stm_test

import (
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/jrt"
	"goldilocks/internal/stm"
)

func newRuntime(seed int64, policy jrt.RacePolicy) *jrt.Runtime {
	return jrt.NewRuntime(jrt.Config{
		Detector: core.New(),
		Policy:   policy,
		Mode:     jrt.Deterministic,
		Seed:     seed,
	})
}

// commitsOf returns the commit actions in rec's recording.
func commitsOf(rec *jrt.Recorder) []event.Action {
	var out []event.Action
	for _, a := range rec.Trace().Actions() {
		if a.Kind == event.KindCommit {
			out = append(out, a)
		}
	}
	return out
}

func TestAtomicReadWrite(t *testing.T) {
	rt := newRuntime(1, jrt.Throw)
	tm := stm.New()
	rt.Run(func(th *jrt.Thread) {
		c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
		a := th.New(c)
		th.SetField(a, "bal", 100)
		err := tm.Atomic(th, func(tx *stm.Tx) {
			n, _ := tx.GetField(a, "bal").(int)
			tx.SetField(a, "bal", n-30)
		})
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		if n, _ := th.GetField(a, "bal").(int); n != 70 {
			t.Errorf("bal = %d, want 70", n)
		}
	})
	// Same-thread mixing of plain and transactional accesses is ordered
	// by program order: no race.
	if rs := rt.Races(); len(rs) != 0 {
		t.Errorf("unexpected races: %v", rs)
	}
	if c, a := tm.Stats(); c != 1 || a != 0 {
		t.Errorf("commits=%d aborts=%d", c, a)
	}
}

func TestCommitReportsReadWriteSets(t *testing.T) {
	rec := jrt.Record(core.New())
	rt := jrt.NewRuntime(jrt.Config{Detector: rec, Mode: jrt.Deterministic, Seed: 1})
	tm := stm.New()
	var av, bv event.Variable
	rt.Run(func(th *jrt.Thread) {
		c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
		a, b := th.New(c), th.New(c)
		th.SetField(a, "bal", 10)
		th.SetField(b, "bal", 20)
		av = a.Variable(c.MustFieldID("bal"))
		bv = b.Variable(c.MustFieldID("bal"))
		tm.Atomic(th, func(tx *stm.Tx) {
			n, _ := tx.GetField(a, "bal").(int) // a.bal: read then written -> write set
			tx.SetField(a, "bal", n-5)
			tx.GetField(b, "bal") // b.bal: pure read
		})
	})
	commits := commitsOf(rec)
	if len(commits) != 1 {
		t.Fatalf("commits seen = %d", len(commits))
	}
	cm := commits[0]
	if len(cm.Writes) != 1 || cm.Writes[0] != av {
		t.Errorf("write set = %v, want [%v]", cm.Writes, av)
	}
	if len(cm.Reads) != 1 || cm.Reads[0] != bv {
		t.Errorf("read set = %v, want [%v]", cm.Reads, bv)
	}
}

func TestAbortRollsBack(t *testing.T) {
	rt := newRuntime(1, jrt.Throw)
	tm := stm.New()
	rt.Run(func(th *jrt.Thread) {
		c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
		a := th.New(c)
		th.SetField(a, "bal", 100)
		err := tm.Atomic(th, func(tx *stm.Tx) {
			tx.SetField(a, "bal", 0)
			tx.Abort()
		})
		if err != stm.ErrAborted {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
		if n, _ := th.GetField(a, "bal").(int); n != 100 {
			t.Errorf("bal = %d after abort, want 100", n)
		}
	})
}

// TestTransferInvariant: concurrent transactional transfers preserve the
// total. This is the serializability check.
func TestTransferInvariant(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rt := newRuntime(seed, jrt.Throw)
		tm := stm.New()
		rt.Run(func(th *jrt.Thread) {
			c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
			a, b := th.New(c), th.New(c)
			th.SetField(a, "bal", 500)
			th.SetField(b, "bal", 500)
			done := jrt.NewLatch(th, 4)
			for w := 0; w < 4; w++ {
				w := w
				th.Spawn(func(u *jrt.Thread) {
					for i := 0; i < 10; i++ {
						amt := (w + 1) * (i + 1) % 7
						err := tm.Atomic(u, func(tx *stm.Tx) {
							x, _ := tx.GetField(a, "bal").(int)
							y, _ := tx.GetField(b, "bal").(int)
							tx.SetField(a, "bal", x-amt)
							tx.SetField(b, "bal", y+amt)
						})
						if err != nil {
							t.Errorf("seed %d: Atomic: %v", seed, err)
						}
					}
					done.CountDown(u)
				})
			}
			done.Await(th)
			var total int
			tm.Atomic(th, func(tx *stm.Tx) {
				x, _ := tx.GetField(a, "bal").(int)
				y, _ := tx.GetField(b, "bal").(int)
				total = x + y
			})
			if total != 1000 {
				t.Errorf("seed %d: total = %d, want 1000", seed, total)
			}
		})
		if rs := rt.Races(); len(rs) != 0 {
			t.Fatalf("seed %d: transactional transfers raced: %v", seed, rs)
		}
	}
}

// TestExample4MixedRace reproduces Example 4 on the real runtime: a
// transaction transfers between accounts while another thread uses the
// object monitor; the monitor is not the transaction's synchronization,
// so the detector must throw.
func TestExample4MixedRace(t *testing.T) {
	raced := 0
	const seeds = 20
	for seed := int64(0); seed < seeds; seed++ {
		rt := newRuntime(seed, jrt.Throw)
		tm := stm.New()
		rt.Run(func(th *jrt.Thread) {
			c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
			savings, checking := th.New(c), th.New(c)
			th.SetField(savings, "bal", 100)
			th.SetField(checking, "bal", 100)
			u := th.Spawn(func(u *jrt.Thread) {
				// synchronized withdraw(42)
				u.Try(func() {
					u.Synchronized(checking, func() {
						n, _ := u.GetField(checking, "bal").(int)
						u.SetField(checking, "bal", n-42)
					})
				})
			})
			th.Try(func() {
				tm.Atomic(th, func(tx *stm.Tx) {
					x, _ := tx.GetField(savings, "bal").(int)
					y, _ := tx.GetField(checking, "bal").(int)
					tx.SetField(savings, "bal", x-42)
					tx.SetField(checking, "bal", y+42)
				})
			})
			th.Join(u)
		})
		if len(rt.Races()) > 0 {
			raced++
		}
	}
	if raced != seeds {
		t.Errorf("mixed monitor/transaction race detected in %d/%d runs; the race exists in every interleaving", raced, seeds)
	}
}

// TestExample3LinkedList reproduces Example 3 end to end: thread-local
// init, transactional insert, transactional sweep, transactional remove,
// then plain post-removal mutation — race-free in every interleaving.
func TestExample3LinkedList(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rt := newRuntime(seed, jrt.Throw)
		tm := stm.New()
		rt.Run(func(th *jrt.Thread) {
			fooC := rt.DefineClass("Foo", jrt.FieldDecl{Name: "data"}, jrt.FieldDecl{Name: "nxt"})
			listC := rt.DefineClass("List", jrt.FieldDecl{Name: "head"})
			list := th.New(listC)
			tm.Atomic(th, func(tx *stm.Tx) { tx.SetField(list, "head", nil) })

			t1 := th.Spawn(func(u *jrt.Thread) {
				foo := u.New(fooC)
				u.SetField(foo, "data", 42) // thread-local init
				tm.Atomic(u, func(tx *stm.Tx) {
					tx.SetField(foo, "nxt", tx.GetField(list, "head"))
					tx.SetField(list, "head", foo)
				})
			})
			th.Join(t1) // ensure the element is in before the sweep

			t2 := th.Spawn(func(u *jrt.Thread) {
				tm.Atomic(u, func(tx *stm.Tx) {
					iter := tx.GetField(list, "head")
					for iter != nil {
						o := iter.(*jrt.Object)
						tx.SetField(o, "data", 0)
						iter = tx.GetField(o, "nxt")
					}
				})
			})
			t3 := th.Spawn(func(u *jrt.Thread) {
				var removed *jrt.Object
				tm.Atomic(u, func(tx *stm.Tx) {
					h := tx.GetField(list, "head")
					if h == nil {
						return
					}
					o := h.(*jrt.Object)
					tx.SetField(list, "head", tx.GetField(o, "nxt"))
					removed = o
				})
				if removed != nil {
					// Now local to t3: plain increment.
					n, _ := u.GetField(removed, "data").(int)
					u.SetField(removed, "data", n+1)
				}
			})
			th.Join(t2)
			th.Join(t3)
		})
		if rs := rt.Races(); len(rs) != 0 {
			t.Fatalf("seed %d: Example 3 raced: %v", seed, rs)
		}
	}
}

// TestContentionRetries: transactions colliding on the same object abort
// and retry rather than deadlock, in both scheduler modes.
func TestContentionRetries(t *testing.T) {
	modes := map[string]jrt.Config{
		"det":  {Detector: core.New(), Mode: jrt.Deterministic, Seed: 11},
		"free": {Detector: core.New(), Mode: jrt.Free},
	}
	for name, cfg := range modes {
		t.Run(name, func(t *testing.T) {
			rt := jrt.NewRuntime(cfg)
			tm := stm.New()
			rt.Run(func(th *jrt.Thread) {
				c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
				a := th.New(c)
				th.SetField(a, "bal", 0)
				done := jrt.NewLatch(th, 6)
				for w := 0; w < 6; w++ {
					th.Spawn(func(u *jrt.Thread) {
						for i := 0; i < 20; i++ {
							tm.Atomic(u, func(tx *stm.Tx) {
								n, _ := tx.GetField(a, "bal").(int)
								tx.SetField(a, "bal", n+1)
							})
						}
						done.CountDown(u)
					})
				}
				done.Await(th)
				var n int
				tm.Atomic(th, func(tx *stm.Tx) { n, _ = tx.GetField(a, "bal").(int) })
				if n != 120 {
					t.Errorf("bal = %d, want 120", n)
				}
			})
			if rs := rt.Races(); len(rs) != 0 {
				t.Fatalf("transactional counter raced: %v", rs)
			}
		})
	}
}

// TestRollbackOnDataRace: a DataRaceException at the commit point leaves
// no partial effects.
func TestRollbackOnDataRace(t *testing.T) {
	sawRaceWithIntactState := false
	for seed := int64(0); seed < 30; seed++ {
		rt := newRuntime(seed, jrt.Throw)
		tm := stm.New()
		rt.Run(func(th *jrt.Thread) {
			c := rt.DefineClass("D", jrt.FieldDecl{Name: "v"})
			o := th.New(c)
			th.SetField(o, "v", 7)
			u := th.Spawn(func(u *jrt.Thread) {
				u.Try(func() { u.SetField(o, "v", 8) }) // plain racy write
			})
			drx := th.Try(func() {
				tm.Atomic(th, func(tx *stm.Tx) {
					tx.SetField(o, "v", 9)
				})
			})
			th.Join(u)
			if drx != nil {
				// The transaction rolled back: its write (9) must not be
				// visible.
				if n, _ := th.GetUnchecked(o, c.MustFieldID("v")).(int); n != 9 {
					sawRaceWithIntactState = true
				} else {
					t.Errorf("seed %d: aborted transaction's write visible", seed)
				}
			}
		})
	}
	if !sawRaceWithIntactState {
		t.Error("no seed produced a commit-point DataRaceException; rollback path untested")
	}
}

func TestTxArrayAccessAndBounds(t *testing.T) {
	rt := newRuntime(1, jrt.Throw)
	tm := stm.New()
	rt.Run(func(th *jrt.Thread) {
		arr := th.NewArray(3)
		err := tm.Atomic(th, func(tx *stm.Tx) {
			tx.Store(arr, 0, 10)
			tx.Store(arr, 2, 30)
			v, _ := tx.Load(arr, 0).(int)
			tx.Store(arr, 1, v+10)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{10, 20, 30} {
			if got := th.LoadUnchecked(arr, i); got != want {
				t.Errorf("arr[%d] = %v, want %d", i, got, want)
			}
		}
		// Out-of-bounds inside a transaction panics with the runtime's
		// bounds error and rolls back held locks.
		func() {
			defer func() {
				if _, ok := recover().(*jrt.IndexOutOfBounds); !ok {
					t.Error("transactional OOB did not raise IndexOutOfBounds")
				}
			}()
			tm.Atomic(th, func(tx *stm.Tx) {
				tx.Load(arr, 99)
			})
		}()
		// The internal locks were released by the rollback: a new
		// transaction on the same array succeeds.
		if err := tm.Atomic(th, func(tx *stm.Tx) { tx.Store(arr, 0, 1) }); err != nil {
			t.Fatalf("array lock leaked by panicking transaction: %v", err)
		}
	})
}

func TestTxReadYourOwnWrites(t *testing.T) {
	rt := newRuntime(2, jrt.Throw)
	tm := stm.New()
	rt.Run(func(th *jrt.Thread) {
		c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
		a := th.New(c)
		th.SetField(a, "bal", 5)
		var seen []int
		tm.Atomic(th, func(tx *stm.Tx) {
			n1, _ := tx.GetField(a, "bal").(int)
			tx.SetField(a, "bal", n1+1)
			n2, _ := tx.GetField(a, "bal").(int) // must see the buffered write
			tx.SetField(a, "bal", n2+1)
			seen = append(seen, n1, n2)
		})
		if len(seen) != 2 || seen[0] != 5 || seen[1] != 6 {
			t.Errorf("reads saw %v, want [5 6]", seen)
		}
		if n, _ := th.GetField(a, "bal").(int); n != 7 {
			t.Errorf("bal = %d, want 7", n)
		}
	})
}

func TestTxPureReadCommitsEmptyWriteSet(t *testing.T) {
	rec := jrt.Record(core.New())
	rt := jrt.NewRuntime(jrt.Config{Detector: rec, Mode: jrt.Deterministic, Seed: 1})
	tm := stm.New()
	rt.Run(func(th *jrt.Thread) {
		c := rt.DefineClass("Acct", jrt.FieldDecl{Name: "bal"})
		a := th.New(c)
		th.SetField(a, "bal", 1)
		tm.Atomic(th, func(tx *stm.Tx) { tx.GetField(a, "bal") })
	})
	commits := commitsOf(rec)
	if len(commits) != 1 {
		t.Fatalf("commits = %d", len(commits))
	}
	if len(commits[0].Writes) != 0 || len(commits[0].Reads) != 1 {
		t.Errorf("commit sets: R=%v W=%v", commits[0].Reads, commits[0].Writes)
	}
}
