package core

import (
	"bytes"
	"errors"
	"testing"

	"goldilocks/internal/event"
	"goldilocks/internal/tracegen"
)

// stepRange steps e through tr's actions [from, to).
func stepRange(e *Engine, tr *event.Trace, from, to int) {
	for i := from; i < to && i < tr.Len(); i++ {
		e.Step(tr.At(i))
	}
}

// recordKeys returns the variables a capture lists.
func recordKeys(rs *Records) map[event.Variable]bool {
	keys := make(map[event.Variable]bool, len(rs.vars))
	for _, rec := range rs.vars {
		keys[rec.v] = true
	}
	return keys
}

// TestCheckpointRecordsFold takes two captures after an encoded one and
// folds the first into the second before encoding it: the result must
// equal a fresh capture, including the variables only the first listed.
func TestCheckpointRecordsFold(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 300
	tr := tracegen.FromSeedConfig(8, cfg)
	third := tr.Len() / 3
	e := NewEngine(DefaultOptions())
	stepRange(e, tr, 0, third)
	e.Capture()
	stepRange(e, tr, third, 2*third)
	older := e.CaptureRecords()
	stepRange(e, tr, 2*third, tr.Len())
	newer := e.CaptureRecords()
	only := 0
	newerKeys := recordKeys(newer)
	for v := range recordKeys(older) {
		if !newerKeys[v] {
			only++
		}
	}
	if only == 0 {
		t.Fatal("every variable of the older capture is listed again; the check is vacuous")
	}
	newer.Fold(older)
	got, _, err := newer.AppendTo(nil)
	if err != nil {
		t.Fatalf("encode of the folded capture: %v", err)
	}
	if want := freshCapture(t, e); !bytes.Equal(got, want) {
		t.Fatalf("folded capture differs from a fresh one:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointRecordsOutOfOrder drops a capture without encoding or
// folding it: the next capture's encode must fail rather than write
// stale bytes, and the capture after that lists every variable again
// and equals a fresh one.
func TestCheckpointRecordsOutOfOrder(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 300
	tr := tracegen.FromSeedConfig(9, cfg)
	third := tr.Len() / 3
	e := NewEngine(DefaultOptions())
	stepRange(e, tr, 0, third)
	e.Capture()
	stepRange(e, tr, third, 2*third)
	e.CaptureRecords() // dropped
	stepRange(e, tr, 2*third, tr.Len())
	if _, _, err := e.CaptureRecords().AppendTo(nil); !errors.Is(err, errCkptOrder) {
		t.Fatalf("encode after a dropped capture: err %v, want %v", err, errCkptOrder)
	}
	rs := e.CaptureRecords()
	if !rs.full {
		t.Fatal("the capture after a failed encode does not list every variable")
	}
	got, _, err := rs.AppendTo(nil)
	if err != nil {
		t.Fatalf("encode of the full capture: %v", err)
	}
	if want := freshCapture(t, e); !bytes.Equal(got, want) {
		t.Fatalf("capture after the failed encode differs from a fresh one:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointSpareReuse encodes through AppendTo with the storage it
// hands back, as the checkpoint writer does, while a Snapshot from
// Capture is held: the held bytes never change, and every encode
// equals a fresh capture.
func TestCheckpointSpareReuse(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 400
	tr := tracegen.FromSeedConfig(10, cfg)
	e := NewEngine(DefaultOptions())
	stepRange(e, tr, 0, 50)
	held := e.Capture()
	heldBytes := bytes.Clone(held.b)
	var buf []byte
	for at := 50; at < tr.Len(); at += 50 {
		stepRange(e, tr, at, at+50)
		out, spare, err := e.CaptureRecords().AppendTo(buf)
		if err != nil {
			t.Fatalf("encode at %d: %v", at, err)
		}
		if at > 100 && spare == nil {
			t.Fatalf("encode at %d handed back no storage", at)
		}
		ref := NewEngine(DefaultOptions())
		stepRange(ref, tr, 0, at+50)
		if want := encoded(t, ref.Capture()); !bytes.Equal(out, want) {
			t.Fatalf("encode at %d differs from a fresh engine's", at)
		}
		buf = spare
	}
	if !bytes.Equal(held.b, heldBytes) {
		t.Fatal("a later encode wrote into a Snapshot's bytes")
	}
}
