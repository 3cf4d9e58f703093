package server

// Tests of the two checkpoint steps across goroutines: the session
// worker copies a capture and keeps stepping while the checkpoint
// writer encodes it, and a capture that replaces a waiting one folds
// in the older one's changes. Run them under -race.

import (
	"bufio"
	"bytes"
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
	opts := core.DefaultOptions()
	opts.Telemetry = obs.NewTelemetry()
	ref := core.NewEngine(opts)
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

// foldTrace writes objects 1-8 in its first 8 actions, objects 101-108
// in the next 8 and objects 201-208 in the 8 after: with a periodic
// capture every 8 actions, the variables of the capture at 16 are
// untouched by the one at 24.
func foldTrace() *event.Trace {
	b := event.NewBuilder()
	for _, base := range []event.Addr{1, 101, 201} {
		for o := base; o < base+8; o++ {
			b.Write(1, o, 0)
		}
	}
	return b.Trace()
}

// TestCheckpointWriterFoldKeepsOlderDelta holds the writer on the
// capture at 8 while the capture at 24 replaces the one at 16 before
// the writer takes it. The written checkpoint at 24 must hold the state
// at 24, objects 101-108 included: only the replaced capture copied
// them, so a fold that dropped its records would leave them out (or
// fail the encode).
func TestCheckpointWriterFoldKeepsOlderDelta(t *testing.T) {
	tr := foldTrace()
	var h hooked
	srv, err := New("127.0.0.1:0", Config{CheckpointEvery: 8, OnCheckpoint: h.hook})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	release := holdWriter(srv)
	defer release()

	st := dialStreamer(t, srv, "f", tr)
	st.sendTo(8)
	waitUntil(t, "the writer holds the capture at 8", func() bool { return writing(srv, "f") })
	st.sendTo(16)
	st.sendTo(24) // replaces the capture at 16, still waiting
	release()
	srv.ckpt.flush()
	st.c.Abandon()
	if !slices.Equal(h.at, []uint64{8, 24}) {
		t.Fatalf("hook saw checkpoints at %v, want 8 and 24", h.at)
	}
	if !bytes.Contains(h.byAt[24], []byte(`{"o":101,"f":0,`)) {
		t.Fatal("the checkpoint at 24 lacks object 101, written only before the capture at 16")
	}
	h.checkFresh(t, tr)
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
