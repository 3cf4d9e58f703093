package server

// Tests of the two checkpoint steps across goroutines: the session
// worker copies a capture and keeps stepping while the checkpoint
// writer encodes it, and skips a periodic capture while the session's
// previous one still waits. Run them under -race.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
	"goldilocks/internal/tracegen"
)

// flush returns once every capture submitted so far has been written.
func (w *ckptWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.order) > 0 || w.active != nil {
		w.cond.Wait()
	}
}

// encode runs the writer step of a capture into fresh storage, as the
// checkpoint writer does into its own.
func (snap *sessionSnapshot) encode() ([]byte, error) {
	data, _, err := snap.encodeInto(nil)
	return data, err
}

// hooked collects the checkpoints a server hands its replication hook.
type hooked struct {
	mu   sync.Mutex
	byAt map[uint64][]byte
	at   []uint64
}

func (h *hooked) hook(_ string, applied uint64, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.byAt == nil {
		h.byAt = make(map[uint64][]byte)
	}
	h.byAt[applied] = data
	h.at = append(h.at, applied)
}

// checkFresh requires every collected checkpoint to hold exactly the
// state of a fresh engine stepped through tr up to its applied count:
// its body after the session header line equals that engine's
// Checkpoint.
func (h *hooked) checkFresh(t *testing.T, tr *event.Trace) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	ref := core.New()
	stepped := 0
	at := slices.Clone(h.at)
	slices.Sort(at)
	for _, applied := range at {
		for ; stepped < int(applied); stepped++ {
			ref.Step(tr.At(stepped))
		}
		var want bytes.Buffer
		if err := ref.Checkpoint(&want); err != nil {
			t.Fatal(err)
		}
		data := h.byAt[applied]
		if got := checkpointAppliedBytes(t, data); got != applied {
			t.Fatalf("checkpoint handed over at %d says %d applied", applied, got)
		}
		if body := data[bytes.IndexByte(data, '\n')+1:]; !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("checkpoint at %d applied differs from a fresh engine's", applied)
		}
	}
}

// checkpointAppliedBytes reads the applied count from a session
// checkpoint's header line.
func checkpointAppliedBytes(t *testing.T, data []byte) uint64 {
	t.Helper()
	sess, err := loadSession(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("loading a written checkpoint: %v", err)
	}
	return sess.applied.Load()
}

// TestCheckpointWriterEncodesWhileWorkerSteps holds the writer on a
// capture while the worker steps the session on, then streams the rest
// of a long trace with a periodic capture every 16 actions, so the
// writer encodes captures while the worker keeps changing the engine
// they came from. Every written checkpoint must equal a fresh
// Checkpoint of an engine replayed to its applied count.
func TestCheckpointWriterEncodesWhileWorkerSteps(t *testing.T) {
	cfg := tracegen.Default()
	cfg.Steps = 1500
	tr := tracegen.FromSeedConfig(21, cfg)
	var h hooked
	srv, err := New("127.0.0.1:0", Config{CheckpointEvery: 16, OnCheckpoint: h.hook})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	release := holdWriter(srv)
	defer release()

	st := dialStreamer(t, srv, "w", tr)
	st.sendTo(16)
	waitUntil(t, "the writer holds the capture at 16", func() bool { return writing(srv, "w") })
	st.sendTo(200) // the engine moves on under the held capture
	release()
	// The capture at 32 queued behind the held one, and every capture
	// falling due while it waits is skipped. Let the writer drain both
	// first, or a worker that outruns it streams the rest of the trace
	// with no capture taken.
	srv.ckpt.wait(lockedSession(srv, "w"))
	for ; st.sent < tr.Len(); st.sent++ {
		if err := st.c.Send(tr.At(st.sent)); err != nil {
			t.Fatalf("send %d: %v", st.sent, err)
		}
	}
	if _, err := st.c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	srv.ckpt.flush()
	if len(h.at) < 3 || h.at[0] != 16 {
		t.Fatalf("hook saw checkpoints at %v, want 16 first and at least two more", h.at)
	}
	h.checkFresh(t, tr)
}

// blockTrace writes objects 1-8 in its first 8 actions, objects 101-108
// in the next 8, and so on for 201-208 and 301-308: with a periodic
// capture every 8 actions, each capture's variables are untouched by
// the others.
func blockTrace() *event.Trace {
	b := event.NewBuilder()
	for _, base := range []event.Addr{1, 101, 201, 301} {
		for o := base; o < base+8; o++ {
			b.Write(1, o, 0)
		}
	}
	return b.Trace()
}

// TestCheckpointWriterSkipsWhileCaptureWaits holds the writer on the
// capture at 8, so that the capture at 16 waits behind it: the capture
// due at 24 is not taken. Once the writer is released, the next
// capture taken must list objects 201-208, which changed only while
// the capture at 24 was skipped, and every written checkpoint must
// equal a fresh engine's at its applied count.
func TestCheckpointWriterSkipsWhileCaptureWaits(t *testing.T) {
	tr := blockTrace()
	var h hooked
	srv, err := New("127.0.0.1:0", Config{CheckpointEvery: 8, OnCheckpoint: h.hook})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	release := holdWriter(srv)
	defer release()

	st := dialStreamer(t, srv, "s", tr)
	st.sendTo(8)
	waitUntil(t, "the writer holds the capture at 8", func() bool { return writing(srv, "s") })
	st.sendTo(16)
	if !srv.ckpt.waiting(lockedSession(srv, "s")) {
		t.Fatal("the capture at 16 is not waiting behind the held one")
	}
	st.sendTo(24) // due while the capture at 16 waits
	release()
	srv.ckpt.flush()
	st.sendTo(32)
	srv.ckpt.flush()
	st.c.Abandon()

	h.mu.Lock()
	at, next := slices.Clone(h.at), []byte(nil)
	if len(at) >= 3 {
		next = h.byAt[at[2]]
	}
	h.mu.Unlock()
	if len(at) < 3 || at[0] != 8 || at[1] != 16 || at[2] <= 24 {
		t.Fatalf("hook saw checkpoints at %v, want 8, 16, then one past 24", at)
	}
	if !bytes.Contains(next, []byte(`{"o":201,"f":0,`)) {
		t.Fatalf("the checkpoint at %d lacks object 201, written only while a capture was skipped", at[2])
	}
	h.checkFresh(t, tr)
}

// TestPeriodicCaptureNeedsReader runs a server with CheckpointEvery set
// but no checkpoint directory and no OnCheckpoint hook: nothing would
// read a periodic checkpoint, so none is captured. An admin pull still
// returns a checkpoint that restores and finishes the trace with the
// verdicts of an uninterrupted run.
func TestPeriodicCaptureNeedsReader(t *testing.T) {
	tr := writerTrace(t)
	const every = 8
	tracer := obs.NewTracer(1)
	flight := obs.NewFlightRecorder(256)
	srv, err := New("127.0.0.1:0", Config{CheckpointEvery: every, Tracer: tracer, Flight: flight})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	st := dialStreamer(t, srv, "n", tr)
	st.sendTo(3 * every)
	srv.ckpt.flush()
	if n := tracer.StageHist(obs.StageCheckpointCapture).Count(); n != 0 {
		t.Fatalf("%d periodic captures observed with no reader", n)
	}
	evs, _ := flight.Snapshot()
	for _, ev := range evs {
		if ev.Kind == "checkpoint" {
			t.Fatalf("flight event %+v with no reader", ev)
		}
	}

	data, applied, err := PullCheckpoint(context.Background(), srv.Addr(), "n")
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	st.c.Abandon()
	if applied != 3*every {
		t.Fatalf("pulled checkpoint at %d applied, want %d", applied, 3*every)
	}
	sess, err := loadSession(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("restoring the pulled checkpoint: %v", err)
	}
	ref := core.NewEngine(core.DefaultOptions())
	var races uint64
	var want, got []string
	for i := 0; i < tr.Len(); i++ {
		for _, r := range ref.Step(tr.At(i)) {
			races++
			if i >= int(applied) {
				want = append(want, fmt.Sprintf("%d:%v", i, r.Var))
			}
		}
	}
	for i := int(applied); i < tr.Len(); i++ {
		for _, r := range sess.step(tr.At(i)) {
			got = append(got, fmt.Sprintf("%d:%v", i, r.Var))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("races after the restore %v, uninterrupted %v", got, want)
	}
	if total := sess.races.Load() + uint64(len(got)); total != races {
		t.Fatalf("%d races in all after the restore, uninterrupted %d", total, races)
	}
}

// TestCheckpointDurableWriteLeavesNoTemp checks writeDurable's temp
// files: a write torn by the configured injector (which reports
// success) and a good write each leave exactly <id>.ckpt, and a write
// whose rename fails leaves its temp file behind neither.
func TestCheckpointDurableWriteLeavesNoTemp(t *testing.T) {
	tr := writerTrace(t)
	for name, inj := range map[string]*resilience.Injector{
		"torn": {TruncateTraceBytes: 40},
		"good": nil,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := New("127.0.0.1:0", Config{CheckpointDir: dir, CheckpointEvery: 8, Injector: inj})
			if err != nil {
				t.Fatalf("server: %v", err)
			}
			st := dialStreamer(t, srv, "d", tr)
			st.sendTo(16)
			srv.ckpt.flush()
			st.c.Abandon()
			srv.Kill()
			if got := dirNames(t, dir); !slices.Equal(got, []string{"d.ckpt"}) {
				t.Fatalf("checkpoint directory holds %v, want just d.ckpt", got)
			}
		})
	}
	t.Run("rename-fails", func(t *testing.T) {
		dir := t.TempDir()
		srv, err := New("127.0.0.1:0", Config{CheckpointDir: dir})
		if err != nil {
			t.Fatalf("server: %v", err)
		}
		defer srv.Close()
		// A directory in the way makes the rename fail.
		if err := os.Mkdir(filepath.Join(dir, "x.ckpt"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := srv.writeDurable(dir, "x.ckpt", []byte("data")); err == nil {
			t.Fatal("a rename onto a directory succeeded")
		}
		if got := dirNames(t, dir); !slices.Equal(got, []string{"x.ckpt"}) {
			t.Fatalf("directory holds %v after the failed write, want just x.ckpt", got)
		}
	})
}

// dirNames lists dir's entries, sorted, failing on any temp file.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
		names = append(names, e.Name())
	}
	return names
}
