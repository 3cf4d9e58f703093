package core

import (
	"bytes"
	"errors"
	"io"
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

// TestCheckpointRecordsOutOfOrder drops a capture without encoding it:
// the next capture's encode must fail rather than write stale bytes,
// and the capture after that lists every variable again and equals a
// fresh one.
func TestCheckpointRecordsOutOfOrder(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 300
	tr := tracegen.FromSeedConfig(9, cfg)
	third := tr.Len() / 3
	e := NewEngine(DefaultOptions())
	stepRange(e, tr, 0, third)
	e.Checkpoint(io.Discard)
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
// hands back, as the checkpoint writer does, while the bytes of an
// earlier Checkpoint are held: the held bytes never change, and every
// encode equals a fresh capture.
func TestCheckpointSpareReuse(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 400
	tr := tracegen.FromSeedConfig(10, cfg)
	e := NewEngine(DefaultOptions())
	stepRange(e, tr, 0, 50)
	var held bytes.Buffer
	if err := e.Checkpoint(&held); err != nil {
		t.Fatal(err)
	}
	heldBytes := bytes.Clone(held.Bytes())
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
		if want := checkpointed(t, ref); !bytes.Equal(out, want) {
			t.Fatalf("encode at %d differs from a fresh engine's", at)
		}
		buf = spare
	}
	if !bytes.Equal(held.Bytes(), heldBytes) {
		t.Fatal("a later encode wrote into an earlier checkpoint's bytes")
	}
}
