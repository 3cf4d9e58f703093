package jrt_test

import (
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/hb"
	"goldilocks/internal/jrt"
	"goldilocks/internal/resilience"
)

func newChanRuntime(seed int64) *jrt.Runtime {
	return jrt.NewRuntime(jrt.Config{
		Detector: core.New(),
		Policy:   jrt.Log,
		Mode:     jrt.Deterministic,
		Seed:     seed,
	})
}

// TestChanHandoffNoRace: the message-passing idiom — write, send;
// recv, write — is race-free through the channel's happens-before edge.
func TestChanHandoffNoRace(t *testing.T) {
	rt := newChanRuntime(1)
	rt.Run(func(th *jrt.Thread) {
		data := th.New(rt.DefineClass("Data", jrt.FieldDecl{Name: "x"}))
		c := th.NewChan(0)
		u := th.Spawn(func(u *jrt.Thread) {
			v, ok := u.Recv(c)
			if !ok || v != 42 {
				t.Errorf("Recv = (%v, %v), want (42, true)", v, ok)
			}
			u.Set(data, 0, 2)
		})
		th.Set(data, 0, 1)
		th.Send(c, 42)
		th.Join(u)
	})
	if races := rt.Races(); len(races) != 0 {
		t.Fatalf("handoff raced: %v", races)
	}
	if rep := rt.Failure(); rep != nil {
		t.Fatalf("scheduler failure: %v", rep)
	}
}

// TestChanNoSyncStillRaces: the channel edge orders only what precedes
// the send against what follows the recv; a write racing around the
// rendezvous is still reported.
func TestChanNoSyncStillRaces(t *testing.T) {
	rt := newChanRuntime(3)
	rt.Run(func(th *jrt.Thread) {
		data := th.New(rt.DefineClass("Data", jrt.FieldDecl{Name: "x"}))
		c := th.NewChan(0)
		u := th.Spawn(func(u *jrt.Thread) {
			u.Set(data, 0, 2) // before u's send: unordered with main's write
			u.Send(c, 1)
		})
		th.Set(data, 0, 1) // concurrent with u's write
		th.Recv(c)
		th.Join(u)
	})
	if races := rt.Races(); len(races) != 1 {
		t.Fatalf("races = %v, want exactly 1", rt.Races())
	}
}

// TestChanBufferedFIFO: a capacity-2 conveyor delivers in order and the
// producer's writes are visible to the consumer without races.
func TestChanBufferedFIFO(t *testing.T) {
	rt := newChanRuntime(7)
	var got []jrt.Value
	rt.Run(func(th *jrt.Thread) {
		c := th.NewChan(2)
		u := th.Spawn(func(u *jrt.Thread) {
			for i := 0; i < 5; i++ {
				u.Send(c, i)
			}
			u.Close(c)
		})
		for {
			v, ok := th.Recv(c)
			if !ok {
				break
			}
			got = append(got, v)
		}
		th.Join(u)
	})
	if rep := rt.Failure(); rep != nil {
		t.Fatalf("scheduler failure: %v", rep)
	}
	if len(got) != 5 {
		t.Fatalf("received %v, want 5 messages", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery: got %v", got)
		}
	}
	if races := rt.Races(); len(races) != 0 {
		t.Fatalf("unexpected races: %v", races)
	}
}

// TestRecvFromClosedNonBlocking pins the drain semantics: recv from a
// closed, drained channel does not block, yields the zero value, and
// still carries the closer's happens-before edge.
func TestRecvFromClosedNonBlocking(t *testing.T) {
	rt := newChanRuntime(5)
	rt.Run(func(th *jrt.Thread) {
		data := th.New(rt.DefineClass("Data", jrt.FieldDecl{Name: "x"}))
		c := th.NewChan(0)
		u := th.Spawn(func(u *jrt.Thread) {
			// Blocks until the close, then drains without a sender.
			v, ok := u.Recv(c)
			if ok || v != nil {
				t.Errorf("drain Recv = (%v, %v), want (nil, false)", v, ok)
			}
			u.Set(data, 0, 2) // ordered after main's write via the close edge
		})
		th.Set(data, 0, 1)
		th.Close(c)
		th.Join(u)
	})
	if rep := rt.Failure(); rep != nil {
		t.Fatalf("scheduler failure: %v", rep)
	}
	if races := rt.Races(); len(races) != 0 {
		t.Fatalf("close edge missed, races: %v", races)
	}
}

// TestSelectDefaultNoEdge: a select whose default fires performs no
// synchronization — no detector event, and no happens-before edge, so
// the surrounding race stays visible.
func TestSelectDefaultNoEdge(t *testing.T) {
	rt := newChanRuntime(9)
	var idx int
	rt.Run(func(th *jrt.Thread) {
		data := th.New(rt.DefineClass("Data", jrt.FieldDecl{Name: "x"}))
		c := th.NewChan(1)
		th.Send(c, 1) // fill the buffer: the send arm below cannot proceed
		before := rt.Stats().SyncOps
		u := th.Spawn(func(u *jrt.Thread) {
			var v jrt.Value
			var ok bool
			idx, v, ok = u.Select([]jrt.SelectCase{{Chan: c, Send: true, Value: 2}}, true)
			if v != nil || ok {
				t.Errorf("default arm returned (%v, %v), want (nil, false)", v, ok)
			}
			u.Set(data, 0, 2)
		})
		th.Set(data, 0, 1) // races with u's write: the default created no edge
		th.Join(u)
		// Spawn and Join each emit one sync op; the select must emit none.
		if after := rt.Stats().SyncOps; after != before+2 {
			t.Errorf("select-with-default emitted %d extra sync ops", after-before-2)
		}
	})
	if idx != -1 {
		t.Fatalf("select took arm %d, want default (-1)", idx)
	}
	if races := rt.Races(); len(races) != 1 {
		t.Fatalf("races = %v, want exactly 1 (default must not synchronize)", rt.Races())
	}
}

// TestSelectTakesReadyArm: with a message in flight the recv arm wins
// over the default and synchronizes normally.
func TestSelectTakesReadyArm(t *testing.T) {
	rt := newChanRuntime(11)
	rt.Run(func(th *jrt.Thread) {
		data := th.New(rt.DefineClass("Data", jrt.FieldDecl{Name: "x"}))
		c := th.NewChan(1)
		u := th.Spawn(func(u *jrt.Thread) {
			u.Set(data, 0, 2)
			u.Send(c, 7)
		})
		th.Join(u)
		idx, v, ok := th.Select([]jrt.SelectCase{{Chan: c}}, true)
		if idx != 0 || v != 7 || !ok {
			t.Errorf("Select = (%d, %v, %v), want (0, 7, true)", idx, v, ok)
		}
		th.Set(data, 0, 1)
	})
	if races := rt.Races(); len(races) != 0 {
		t.Fatalf("unexpected races: %v", races)
	}
}

// TestSendOnClosedPanics mirrors Go: a send on a closed channel panics
// with *ClosedChannel, and the program can recover it.
func TestSendOnClosedPanics(t *testing.T) {
	rt := newChanRuntime(13)
	var caught *jrt.ClosedChannel
	rt.Run(func(th *jrt.Thread) {
		c := th.NewChan(1)
		th.Close(c)
		func() {
			defer func() {
				if e, ok := recover().(*jrt.ClosedChannel); ok {
					caught = e
				}
			}()
			th.Send(c, 1)
		}()
	})
	if caught == nil || caught.Op != "send" {
		t.Fatalf("caught = %v, want a send ClosedChannel panic", caught)
	}
}

// TestDoubleClosePanics mirrors Go's close-of-closed panic.
func TestDoubleClosePanics(t *testing.T) {
	rt := newChanRuntime(13)
	var caught *jrt.ClosedChannel
	rt.Run(func(th *jrt.Thread) {
		c := th.NewChan(0)
		th.Close(c)
		func() {
			defer func() {
				if e, ok := recover().(*jrt.ClosedChannel); ok {
					caught = e
				}
			}()
			th.Close(c)
		}()
	})
	if caught == nil || caught.Op != "close" {
		t.Fatalf("caught = %v, want a close ClosedChannel panic", caught)
	}
}

// TestChanDeadlockReported: a recv nobody will ever satisfy is a
// deadlock the deterministic scheduler reports structurally instead of
// hanging.
func TestChanDeadlockReported(t *testing.T) {
	rt := newChanRuntime(17)
	rt.Run(func(th *jrt.Thread) {
		c := th.NewChan(0)
		th.Recv(c) // no sender, never closed
	})
	rep := rt.Failure()
	if rep == nil || rep.Kind != resilience.Deadlock {
		t.Fatalf("Failure() = %v, want a deadlock report", rep)
	}
}

// TestGuardQuarantinesBadChanEvent is the satellite acceptance check: a
// malformed channel event (send on a channel the detector never saw
// made) panics inside the vector-clock detector with a structured
// corruption report; the Guard barrier recovers it and the detector
// keeps serving.
func TestGuardQuarantinesBadChanEvent(t *testing.T) {
	g := jrt.Guard(hb.NewDetector(), resilience.Quarantine)
	d := jrt.Serialize(g)
	d.Sync(event.ChanSend(1, 99)) // never made: corruption panic inside
	panics, _ := g.GuardStats()
	if panics != 1 {
		t.Fatalf("GuardStats panics = %d, want 1", panics)
	}
	// The detector still works: an unsynchronized write pair still races.
	d.Alloc(1, 5)
	if r := d.Write(1, 5, 0); r != nil {
		t.Fatalf("first write raced: %v", r)
	}
	if r := d.Write(2, 5, 0); r == nil {
		t.Fatal("race missed after recovered channel-event panic")
	}
}
