package eraser_test

import (
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/basic"
	"goldilocks/internal/detectors/eraser"
	"goldilocks/internal/event"
	"goldilocks/internal/hb"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/tracegen"
)

// TestEraserConsistentLockDiscipline: a variable always protected by the
// same lock never alarms.
func TestEraserConsistentLockDiscipline(t *testing.T) {
	b := event.NewBuilder()
	b.Fork(1, 2)
	for i := 0; i < 5; i++ {
		tid := event.Tid(1 + i%2)
		b.Acquire(tid, 20)
		b.Read(tid, 10, 0)
		b.Write(tid, 10, 0)
		b.Release(tid, 20)
	}
	if rs := detect.RunTrace(eraser.New(), b.Trace()); len(rs) != 0 {
		t.Errorf("consistent discipline flagged: %v", rs)
	}
}

// TestEraserInitializationTolerated: the Exclusive state absorbs
// unprotected initialization by one thread.
func TestEraserInitializationTolerated(t *testing.T) {
	tr := event.NewBuilder().
		Write(1, 10, 0). // no locks held: virgin -> exclusive
		Write(1, 10, 0).
		Fork(1, 2).
		Acquire(1, 20).Write(1, 10, 0).Release(1, 20).
		Acquire(2, 20).Read(2, 10, 0).Release(2, 20).
		Trace()
	if rs := detect.RunTrace(eraser.New(), tr); len(rs) != 0 {
		t.Errorf("initialization flagged: %v", rs)
	}
}

// TestEraserReadSharedNoAlarm: multiple readers without locks stay in
// the Shared state and never alarm.
func TestEraserReadSharedNoAlarm(t *testing.T) {
	tr := event.NewBuilder().
		Write(1, 10, 0).
		Fork(1, 2).
		Fork(1, 3).
		Read(2, 10, 0).
		Read(3, 10, 0).
		Trace()
	if rs := detect.RunTrace(eraser.New(), tr); len(rs) != 0 {
		t.Errorf("read sharing flagged: %v", rs)
	}
}

// TestEraserDetectsRealRace: an unprotected write-write race alarms.
func TestEraserDetectsRealRace(t *testing.T) {
	tr := event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		Write(2, 10, 0).
		Trace()
	rs := detect.RunTrace(eraser.New(), tr)
	if len(rs) != 1 || rs[0].Pos != 2 {
		t.Errorf("races = %v, want one at 2", rs)
	}
}

// TestEraserFalseAlarmOnOwnershipTransfer is the paper's Section 4.1
// claim: Example 2 is race-free, yet Eraser reports a race at the last
// access (tmp3.data = 3) because the protecting lock changes over time.
func TestEraserFalseAlarmOnOwnershipTransfer(t *testing.T) {
	sc := scenarios.Ownership()
	rs := detect.RunTrace(eraser.New(), sc.Trace)
	if len(rs) == 0 {
		t.Fatal("Eraser did not false-alarm on Example 2 — the paper's precision gap disappeared")
	}
	odata := scenarios.Var(scenarios.IntBox, scenarios.FieldData)
	found := false
	for _, r := range rs {
		if r.Var == odata {
			found = true
			// The alarm fires at the final unprotected write.
			if r.Pos != 15 {
				t.Errorf("alarm at %d, want 15 (tmp3.data = 3)", r.Pos)
			}
		}
	}
	if !found {
		t.Errorf("no alarm on o.data: %v", rs)
	}
}

// TestEraserFalseAlarmOnChannelPipeline: a buffer handed down a
// two-channel pipeline is race-free, since each send happens-before
// its recv. Eraser models a channel as a lock that recv acquires and
// send releases. Each stage receives on one channel and sends on
// another, so it keeps holding its input channel's pseudo-lock. The
// stages' locksets never intersect, and Eraser alarms at the last
// stage's write.
func TestEraserFalseAlarmOnChannelPipeline(t *testing.T) {
	tr := event.NewBuilder().
		ChanMake(1, 30, 1).
		ChanMake(1, 31, 1).
		Fork(1, 2).
		Fork(1, 3).
		Write(1, 10, 0). // stage 1 fills the buffer
		ChanSend(1, 30).
		ChanRecv(2, 30).
		Write(2, 10, 0). // stage 2 transforms it
		ChanSend(2, 31).
		ChanRecv(3, 31).
		Write(3, 10, 0). // stage 3 consumes it
		Trace()
	if rs := detect.RunTrace(core.New(), tr); len(rs) != 0 {
		t.Fatalf("Goldilocks reported %v on a race-free pipeline", rs)
	}
	if rs := detect.RunTrace(eraser.New(), tr); len(rs) == 0 {
		t.Error("Eraser saw through a channel pipeline; expected a false alarm")
	}
}

// TestEraserFalseAlarmOnVolatileHandshake: Eraser cannot see volatile
// synchronization (the barrier idiom).
func TestEraserFalseAlarmOnVolatileHandshake(t *testing.T) {
	tr := event.NewBuilder().
		Fork(1, 2).
		Write(1, 10, 0).
		VolatileWrite(1, 1, 0).
		VolatileRead(2, 1, 0).
		Write(2, 10, 0). // ordered by the volatile, but Eraser alarms
		Trace()
	if rs := detect.RunTrace(eraser.New(), tr); len(rs) == 0 {
		t.Error("Eraser saw through a volatile handshake; expected a false alarm")
	}
	// Goldilocks ground truth: race-free.
	if _, racy := hb.NewOracle(tr).FirstRacePos(); racy {
		t.Fatal("trace is actually racy; test is broken")
	}
}

// TestEraserTransactionalDiscipline: accesses always inside transactions
// share the fictitious transaction lock and never alarm.
func TestEraserTransactionalDiscipline(t *testing.T) {
	v := event.Variable{Obj: 10, Field: 0}
	tr := event.NewBuilder().
		Fork(1, 2).
		Commit(1, nil, []event.Variable{v}).
		Commit(2, nil, []event.Variable{v}).
		Commit(1, []event.Variable{v}, nil).
		Trace()
	if rs := detect.RunTrace(eraser.New(), tr); len(rs) != 0 {
		t.Errorf("transactional discipline flagged: %v", rs)
	}
}

// TestEraserCoverageOnRandomTraces: Eraser alarms on nearly every racy
// trace. It is not strictly sound — the read-shared state can absorb a
// racing read without refining the candidate set to empty — so a small
// miss rate is tolerated; what the test pins down is that the detector
// is a meaningful baseline: high recall, nonzero false-alarm rate on
// race-free traces (its documented imprecision).
func TestEraserCoverageOnRandomTraces(t *testing.T) {
	misses, falseAlarms, racyTotal, cleanTotal := 0, 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		tr := tracegen.FromSeed(seed)
		_, racy := hb.NewOracle(tr).FirstRacePos()
		alarms := detect.RunTrace(eraser.New(), tr)
		switch {
		case racy:
			racyTotal++
			if len(alarms) == 0 {
				misses++
			}
		default:
			cleanTotal++
			if len(alarms) > 0 {
				falseAlarms++
			}
		}
	}
	if racyTotal == 0 || cleanTotal == 0 {
		t.Fatalf("degenerate sample: %d racy, %d clean", racyTotal, cleanTotal)
	}
	if misses*10 > racyTotal {
		t.Errorf("Eraser missed %d of %d racy traces (>10%%)", misses, racyTotal)
	}
	if falseAlarms == 0 {
		t.Errorf("Eraser produced no false alarms on %d race-free traces; the precision gap the paper measures should be visible", cleanTotal)
	}
}

// TestBasicLocksetFirstAccessAlarm: the paper's claim that the basic
// algorithm alarms at the very first unprotected access of Figure 6.
func TestBasicLocksetFirstAccessAlarm(t *testing.T) {
	sc := scenarios.Ownership()
	rs := detect.RunTrace(basic.New(), sc.Trace)
	if len(rs) == 0 {
		t.Fatal("basic lockset did not alarm on Example 2")
	}
	if rs[0].Pos != 1 {
		t.Errorf("first alarm at %d, want 1 (tmp1.data = 0, no locks held)", rs[0].Pos)
	}
}

// TestBasicLocksetConsistentDiscipline: fixed-lock programs stay quiet.
func TestBasicLocksetConsistentDiscipline(t *testing.T) {
	b := event.NewBuilder()
	b.Fork(1, 2)
	for i := 0; i < 4; i++ {
		tid := event.Tid(1 + i%2)
		b.Acquire(tid, 20)
		b.Write(tid, 10, 0)
		b.Release(tid, 20)
	}
	if rs := detect.RunTrace(basic.New(), b.Trace()); len(rs) != 0 {
		t.Errorf("fixed-lock program flagged: %v", rs)
	}
}

// TestBasicLocksetSound: alarms on every truly racy random trace.
func TestBasicLocksetSound(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		tr := tracegen.FromSeed(seed)
		if _, racy := hb.NewOracle(tr).FirstRacePos(); racy {
			if len(detect.RunTrace(basic.New(), tr)) == 0 {
				t.Errorf("seed %d: racy trace with no basic alarm", seed)
			}
		}
	}
}
