package server

// Internal tests for the observability layer: the queue-depth gauge
// under deliberate backpressure, the stage histograms fed by a traced
// client, and the flight recorder's admin scrape. They live inside the
// package because backpressure is only reachable deterministically by
// parking the session worker on an internal control item.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// parkedSession attaches a client session and parks its worker: with
// the session's capture lock held, a ctlCkpt item blocks the worker in
// its capture, so everything enqueued afterwards stays in the queue.
// The returned release function unblocks the worker.
func parkedSession(t *testing.T, srv *Server, addr, id string) (*Client, *session, func()) {
	t.Helper()
	c, err := DialContext(context.Background(), addr, id, DialConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	srv.mu.Lock()
	sess := srv.sessions[id]
	srv.mu.Unlock()
	if sess == nil {
		t.Fatalf("session %q not registered", id)
	}
	sess.ckptMu.Lock()
	// The session queue is installed when the server reads the client's
	// stream header, which races DialContext returning — poll.
	deadline := time.Now().Add(5 * time.Second)
	for !sess.tryEnqueue(item{ctl: ctlCkpt, ckpt: make(chan ckptResult, 1)}) {
		if time.Now().After(deadline) {
			t.Fatal("session queue never came up")
		}
		time.Sleep(time.Millisecond)
	}
	for sess.queueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never drained the control item")
		}
		time.Sleep(time.Millisecond)
	}
	return c, sess, sess.ckptMu.Unlock
}

// TestQueueDepthGaugeBackpressure pins that a full ingest queue is
// visible in /metrics — the gauge reads the live channel depth, so an
// operator sees backpressure while it is happening, not after — and
// that dropping the session unregisters the gauge.
func TestQueueDepthGaugeBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New("127.0.0.1:0", Config{Registry: reg, Queue: 4})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()

	c, sess, release := parkedSession(t, srv, srv.Addr(), "qd")

	// Fill the queue to its bound. Exactly Queue items: one more would
	// block tryEnqueue (that block IS the TCP backpressure, but here it
	// would deadlock the test).
	for i := 0; i < 4; i++ {
		if !sess.tryEnqueue(item{a: event.Write(1, 10, 0)}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}

	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatalf("scrape: %v", err)
		}
		return b.String()
	}
	if want := `goldilocksd_session_queue_depth{session="qd"} 4`; !strings.Contains(scrape(), want) {
		t.Fatalf("scrape missing %q under backpressure:\n%s", want, scrape())
	}

	release()
	if _, err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := srv.DropSession("qd"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if out := scrape(); strings.Contains(out, "goldilocksd_session_queue_depth") {
		t.Fatalf("queue-depth gauge survived session drop:\n%s", out)
	}
}

// TestStageHistogramsEndToEnd runs a traced client against a traced
// server and checks every pipeline stage both sides cover observed
// latency, the registry exports it, and the flight recorder saw the
// session lifecycle.
func TestStageHistogramsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	serverTracer := obs.NewTracer(1)
	// Room for every event: the tracer samples all 64 records, and each
	// logs its rule fire beside the lifecycle and checkpoint events.
	flight := obs.NewFlightRecorder(256)
	srv, err := New("127.0.0.1:0", Config{
		Registry: reg, Tracer: serverTracer, Flight: flight,
		Batch: 4, CheckpointDir: t.TempDir(), CheckpointEvery: 8,
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()

	clientTracer := obs.NewTracer(1)
	c, err := DialContext(context.Background(), srv.Addr(), "traced", DialConfig{Tracer: clientTracer})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < 64; i++ {
		var a event.Action
		switch i % 4 {
		case 0:
			a = event.Acquire(1, 20)
		case 1:
			a = event.Write(1, 10, 0)
		case 2:
			a = event.Read(1, 10, 0)
		default:
			a = event.Release(1, 20)
		}
		if err := c.Send(a); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if _, err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	for _, probe := range []struct {
		tr *obs.Tracer
		st obs.Stage
	}{
		{clientTracer, obs.StageClientEncode},
		{clientTracer, obs.StageWireRTT},
		{serverTracer, obs.StageQueueWait},
		{serverTracer, obs.StageApply},
		{serverTracer, obs.StageVerdictFlush},
		{serverTracer, obs.StageCheckpointCapture},
		{serverTracer, obs.StageCheckpointWrite},
	} {
		if n := probe.tr.StageHist(probe.st).Count(); n == 0 {
			t.Errorf("stage %s observed nothing", probe.st)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if !strings.Contains(b.String(), "goldilocksd_stage_apply_us_count") {
		t.Fatalf("scrape missing stage histograms:\n%s", b.String())
	}

	evs, dropped := flight.Snapshot()
	if dropped != 0 {
		t.Fatalf("flight recorder overwrote %d events", dropped)
	}
	kinds := map[string]int{}
	acquires := 0
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.Kind == "rule-fire" && strings.HasPrefix(ev.Detail, "acquire x1 at ") {
			acquires++
		}
	}
	for _, want := range []string{"attach", "close", "checkpoint", "rule-fire"} {
		if kinds[want] == 0 {
			t.Errorf("flight recorder missing %q events (have %v)", want, kinds)
		}
	}
	if acquires != 16 {
		t.Errorf("%d rule-fire events name one acquire, want 16 (one per sampled acquire)", acquires)
	}
}

// TestScrapeFlight exercises the admin "flight" verb end to end: the
// scraped bytes parse back as a checksummed dump carrying the session
// lifecycle, and a scrape with a reason also drops a dump on disk.
func TestScrapeFlight(t *testing.T) {
	flightDir := t.TempDir()
	srv, err := New("127.0.0.1:0", Config{
		Registry:  obs.NewRegistry(),
		Flight:    obs.NewFlightRecorder(64),
		FlightDir: flightDir,
		Advertise: "nodeA:1",
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()

	c, err := DialContext(context.Background(), srv.Addr(), "fl", DialConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.Send(event.Write(1, 10, 0)); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	body, err := ScrapeFlight(context.Background(), srv.Addr(), "")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	hdr, evs, err := obs.ReadFlightDump(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parse dump: %v", err)
	}
	if hdr.Node != "nodeA:1" || hdr.Reason != "scrape" {
		t.Fatalf("header = %+v", hdr)
	}
	found := false
	for _, ev := range evs {
		if ev.Kind == "attach" && ev.Session == "fl" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump missing the attach event: %+v", evs)
	}

	// A reason-bearing scrape persists the dump server-side too.
	if _, err := ScrapeFlight(context.Background(), srv.Addr(), "incident-7"); err != nil {
		t.Fatalf("scrape with reason: %v", err)
	}
	path := fmt.Sprintf("%s/flight-incident-7.jsonl", flightDir)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := readDumpFile(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never wrote %s", path)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A server without a recorder refuses the verb.
	bare, err := New("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("bare server: %v", err)
	}
	defer bare.Close()
	if _, err := ScrapeFlight(context.Background(), bare.Addr(), ""); err == nil {
		t.Fatal("flight verb succeeded without a recorder")
	}
}

func readDumpFile(path string) (obs.FlightHeader, []obs.FlightEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return obs.FlightHeader{}, nil, err
	}
	return obs.ReadFlightDump(bytes.NewReader(data))
}
