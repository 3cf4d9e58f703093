package server

// Internal tests for the checkpoint writer's lifecycle. They live
// inside the package because the window between a periodic capture and
// its durable write is only reachable deterministically by holding the
// writer (ckptWriter.hold).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/event"
	"goldilocks/internal/tracegen"
)

// holdWriter parks srv's checkpoint writer before it encodes the next
// capture it takes. The returned release function lets it go; it may be
// called more than once.
func holdWriter(srv *Server) (release func()) {
	hold := make(chan struct{})
	srv.ckpt.mu.Lock()
	srv.ckpt.hold = hold
	srv.ckpt.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(hold) }) }
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// writing reports whether the writer holds a capture of session id.
func writing(srv *Server, id string) bool {
	srv.ckpt.mu.Lock()
	defer srv.ckpt.mu.Unlock()
	return srv.ckpt.active != nil && srv.ckpt.active.id == id
}

// lockedSession returns the registered session id, or nil.
func lockedSession(srv *Server, id string) *session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// checkpointApplied reads the applied count from a session checkpoint
// file's header line.
func checkpointApplied(t *testing.T, path string) uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening checkpoint: %v", err)
	}
	defer f.Close()
	line, err := event.ReadLine(bufio.NewReader(f))
	if err != nil {
		t.Fatalf("reading checkpoint header: %v", err)
	}
	var hdr sessionHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		t.Fatalf("decoding checkpoint header: %v", err)
	}
	return hdr.Applied
}

// writerTrace is a generated trace long enough for several periodic
// checkpoints at CheckpointEvery 8.
func writerTrace(t *testing.T) *event.Trace {
	t.Helper()
	cfg := tracegen.Default()
	cfg.Steps = 120
	tr := tracegen.FromSeedConfig(11, cfg)
	if tr.Len() < 48 {
		t.Fatalf("generated trace has %d actions, want at least 48", tr.Len())
	}
	return tr
}

// streamer sends trace prefixes on one client and tracks the highest
// durable watermark any ack reported.
type streamer struct {
	t          *testing.T
	c          *Client
	tr         *event.Trace
	sent       int
	maxDurable uint64
}

func dialStreamer(t *testing.T, srv *Server, id string, tr *event.Trace) *streamer {
	t.Helper()
	c, err := DialContext(context.Background(), srv.Addr(), id, DialConfig{})
	if err != nil {
		t.Fatalf("dial %s: %v", id, err)
	}
	return &streamer{t: t, c: c, tr: tr}
}

// sendTo streams up to position n and flushes; the flush ack follows
// the submission of every periodic capture due by then.
func (st *streamer) sendTo(n int) Ack {
	st.t.Helper()
	for ; st.sent < n; st.sent++ {
		if err := st.c.Send(st.tr.At(st.sent)); err != nil {
			st.t.Fatalf("send %d: %v", st.sent, err)
		}
	}
	ack, err := st.c.Flush()
	if err != nil {
		st.t.Fatalf("flush at %d: %v", n, err)
	}
	if ack.Applied != uint64(n) {
		st.t.Fatalf("flush ack applied %d, want %d", ack.Applied, n)
	}
	st.maxDurable = max(st.maxDurable, ack.Durable)
	return ack
}

// TestCheckpointWriterKillResumesAtDurable kills the daemon while one
// periodic checkpoint is captured but not yet written and a newer one
// is pending: the restarted daemon resumes the session at the older
// durable checkpoint, never below any Ack.Durable the client saw, and
// the re-streamed suffix converges to the uninterrupted verdicts.
func TestCheckpointWriterKillResumesAtDurable(t *testing.T) {
	dir := t.TempDir()
	tr := writerTrace(t)
	srv1, err := New("127.0.0.1:0", Config{CheckpointDir: dir, CheckpointEvery: 8})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	st := dialStreamer(t, srv1, "k", tr)
	st.sendTo(16)
	// The capture at 16 is written asynchronously: flush until an ack
	// reports it durable.
	waitUntil(t, "the checkpoint at 16 is durable", func() bool { return st.sendTo(16).Durable == 16 })

	release := holdWriter(srv1)
	defer release()
	st.sendTo(24)
	waitUntil(t, "the writer holds the capture at 24", func() bool { return writing(srv1, "k") })
	if ack := st.sendTo(32); ack.Durable != 16 {
		t.Fatalf("ack durable %d while the writer is held, want 16", ack.Durable)
	}
	srv1.Kill()
	st.c.Abandon()
	if got := checkpointApplied(t, filepath.Join(dir, "k.ckpt")); got != 16 {
		t.Fatalf("checkpoint on disk at %d applied after the kill, want 16", got)
	}

	srv2, err := New("127.0.0.1:0", Config{CheckpointDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	c, err := DialContext(context.Background(), srv2.Addr(), "k", DialConfig{})
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	if !c.Resumed() || c.Next() != 16 || c.Next() < st.maxDurable {
		t.Fatalf("resumed=%v next=%d, want resumed at 16 (highest acked durable %d)", c.Resumed(), c.Next(), st.maxDurable)
	}
	for i := int(c.Next()); i < tr.Len(); i++ {
		if err := c.Send(tr.At(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if ack, err := c.Close(); err != nil || ack.Applied != uint64(tr.Len()) {
		t.Fatalf("close: ack %+v, err %v", ack, err)
	}

	eng := core.NewEngine(core.DefaultOptions())
	var want, got []string
	for i := 0; i < tr.Len(); i++ {
		for _, r := range eng.Step(tr.At(i)) {
			if i >= 16 {
				want = append(want, fmt.Sprintf("%d:%v", i, r.Var))
			}
		}
	}
	for _, r := range c.Races() {
		got = append(got, fmt.Sprintf("%d:%v", r.Pos, r.Var))
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("races past the resume point %v, uninterrupted %v", got, want)
	}
}

// TestCheckpointWriterDropLeavesNoFile drops two detached sessions, one
// whose periodic capture is still pending and one whose capture the
// writer is holding: neither leaves a checkpoint file behind.
func TestCheckpointWriterDropLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	tr := writerTrace(t)
	srv, err := New("127.0.0.1:0", Config{CheckpointDir: dir, CheckpointEvery: 8})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	release := holdWriter(srv)
	defer release()

	a := dialStreamer(t, srv, "a", tr)
	a.sendTo(8)
	waitUntil(t, "the writer holds a's capture", func() bool { return writing(srv, "a") })
	b := dialStreamer(t, srv, "b", tr)
	b.sendTo(8) // b's capture waits behind a's
	a.c.Abandon()
	b.c.Abandon()

	waitUntil(t, "b is dropped", func() bool { return srv.DropSession("b") == nil })
	dropped := make(chan error, 1)
	go func() {
		for {
			err := srv.DropSession("a")
			if err == nil || lockedSession(srv, "a") == nil {
				dropped <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// DropSession unregisters the session before it waits out the held
	// write; release the writer only once the drop is under way.
	waitUntil(t, "a's drop is under way", func() bool { return lockedSession(srv, "a") == nil })
	release()
	if err := <-dropped; err != nil {
		t.Fatalf("drop a: %v", err)
	}
	srv.ckpt.flush()
	for _, id := range []string{"a", "b"} {
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); !os.IsNotExist(err) {
			t.Errorf("%s.ckpt present after the drop (stat err %v)", id, err)
		}
	}
}

// TestCheckpointWriterDrainNotOverwritten drains a node while two
// periodic captures of a session are still unwritten: Drain's own
// checkpoint is the one left on disk, not a stale periodic one.
func TestCheckpointWriterDrainNotOverwritten(t *testing.T) {
	dir := t.TempDir()
	tr := writerTrace(t)
	srv, err := New("127.0.0.1:0", Config{CheckpointDir: dir, CheckpointEvery: 8})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	release := holdWriter(srv)
	defer release()

	st := dialStreamer(t, srv, "d", tr)
	st.sendTo(8)
	waitUntil(t, "the writer holds the capture at 8", func() bool { return writing(srv, "d") })
	st.sendTo(16) // pending behind the held one
	st.sendTo(20)

	drained := make(chan error, 1)
	go func() {
		_, err := srv.Drain()
		drained <- err
	}()
	sess := lockedSession(srv, "d")
	waitUntil(t, "drain detaches the session", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return !sess.attached
	})
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st.c.Abandon()
	srv.ckpt.flush()
	if got := checkpointApplied(t, filepath.Join(dir, "d.ckpt")); got != 20 {
		t.Fatalf("checkpoint on disk at %d applied after drain, want drain's 20", got)
	}
}

// TestSessionCheckpointGolden pins the session checkpoint bytes of a
// serializability session: testdata/serial-commit-heavy.ckpt was
// written by an earlier build, and it must load and re-encode byte for
// byte.
func TestSessionCheckpointGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "serial-commit-heavy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := loadSession(bufio.NewReader(bytes.NewReader(want)))
	if err != nil {
		t.Fatalf("loading golden: %v", err)
	}
	if sess.rt == nil {
		t.Fatal("golden is not a serializability session")
	}
	got, err := captureSession(sess).encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("re-encoding differs from the golden at byte %d of %d", i, len(want))
	}
}

// TestCheckpointBufferReuse recycles capture bodies and the writer's
// encode buffer while captures are skipped: the writer is held on the
// capture at 8 while the one at 16 waits and those due at 24 and 32 are
// skipped, then the session runs on through more periodic checkpoints.
// Every checkpoint written, as persisted and as handed to the
// replication hook, must restore and re-encode byte for byte and hold
// the state of an engine stepped through the same prefix.
func TestCheckpointBufferReuse(t *testing.T) {
	dir := t.TempDir()
	tr := writerTrace(t)
	type written struct {
		applied uint64
		data    []byte
	}
	var mu sync.Mutex
	var hooked []written
	srv, err := New("127.0.0.1:0", Config{
		CheckpointDir: dir, CheckpointEvery: 8,
		OnCheckpoint: func(_ string, applied uint64, data []byte) {
			mu.Lock()
			hooked = append(hooked, written{applied, data})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	release := holdWriter(srv)
	defer release()

	st := dialStreamer(t, srv, "r", tr)
	st.sendTo(8)
	waitUntil(t, "the writer holds the capture at 8", func() bool { return writing(srv, "r") })
	st.sendTo(16)
	st.sendTo(24)
	st.sendTo(32) // 24 and 32 skipped: 16 still waits
	release()
	srv.ckpt.flush()
	path := filepath.Join(dir, "r.ckpt")
	var files []written
	for n := 40; n <= tr.Len(); n += 8 {
		st.sendTo(n)
		srv.ckpt.flush()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading the checkpoint at %d: %v", n, err)
		}
		files = append(files, written{checkpointApplied(t, path), data})
	}
	st.c.Abandon()

	mu.Lock()
	defer mu.Unlock()
	var applied []uint64
	for _, w := range hooked {
		applied = append(applied, w.applied)
	}
	if len(applied) < 4 || applied[0] != 8 || applied[1] != 16 || applied[2] <= 32 {
		t.Fatalf("hook saw checkpoints at %v, want 8, 16 and later ones past 32", applied)
	}
	for _, w := range append(hooked, files...) {
		sess, err := loadSession(bufio.NewReader(bytes.NewReader(w.data)))
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", w.applied, err)
		}
		again, err := captureSession(sess).encode()
		if err != nil || !bytes.Equal(again, w.data) {
			t.Fatalf("checkpoint at %d does not re-encode byte for byte (err %v)", w.applied, err)
		}
		ref := core.New()
		for i := 0; i < int(w.applied); i++ {
			ref.Step(tr.At(i))
		}
		var want bytes.Buffer
		if err := ref.Checkpoint(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(w.data, want.Bytes()) {
			t.Fatalf("checkpoint at %d holds another state than the trace prefix", w.applied)
		}
	}
}
