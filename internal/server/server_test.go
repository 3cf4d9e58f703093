package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"goldilocks/internal/conformance"
	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/scenarios"
	"goldilocks/internal/server"
)

// corpusTraces returns the full seed corpus: the Section 2 scenarios
// plus every checked-in conformance counterexample.
func corpusTraces(t *testing.T) map[string]*event.Trace {
	t.Helper()
	out := make(map[string]*event.Trace)
	for _, sc := range scenarios.All() {
		out["scenario-"+sc.Name] = sc.Trace
	}
	entries, err := conformance.LoadCorpus("../conformance/testdata")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	for _, e := range entries {
		out["corpus-"+strings.TrimSuffix(e.Name, ".jsonl")] = e.Trace
	}
	return out
}

// remoteBackend adapts a daemon session to the conformance harness's
// Backend interface.
func remoteBackend(addr, session string) conformance.Backend {
	return func(tr *event.Trace) (conformance.BackendResult, error) {
		races, ack, err := server.StreamTrace(addr, session, tr)
		if err != nil {
			return conformance.BackendResult{}, err
		}
		res := conformance.BackendResult{Races: races}
		if len(ack.RuleFires) == obs.NumRules+1 {
			copy(res.RuleFires[:], ack.RuleFires)
			res.HasRuleFires = true
		}
		return res, nil
	}
}

// TestRemoteParityCorpus is the remote differential-parity acceptance
// gate: every seed-corpus trace streamed through a daemon session must
// yield exactly the in-process verdicts and Figure 5 rule-fire counts.
func TestRemoteParityCorpus(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	i := 0
	for name, tr := range corpusTraces(t) {
		i++
		session := fmt.Sprintf("parity-%d", i)
		if div := conformance.CheckBackend("remote", remoteBackend(srv.Addr(), session), tr); div != nil {
			t.Errorf("%s: %v", name, div)
		}
	}
}

// TestRemoteParityTinyQueue re-runs parity with a queue and batch of 1,
// so every enqueue exercises the backpressure path (the reader blocks
// on a full queue between each apply).
func TestRemoteParityTinyQueue(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{Queue: 1, Batch: 1})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	i := 0
	for name, tr := range corpusTraces(t) {
		i++
		session := fmt.Sprintf("tiny-%d", i)
		if div := conformance.CheckBackend("remote-tiny", remoteBackend(srv.Addr(), session), tr); div != nil {
			t.Errorf("%s: %v", name, div)
		}
	}
}

// TestConcurrentSessions streams every corpus trace through the same
// daemon at once, one session per goroutine, and requires every session
// to report exactly its own in-process verdicts — sessions are
// isolated engines, not a shared one.
func TestConcurrentSessions(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	i := 0
	for name, tr := range corpusTraces(t) {
		i++
		session := fmt.Sprintf("conc-%d", i)
		wg.Add(1)
		go func(name, session string, tr *event.Trace) {
			defer wg.Done()
			if div := conformance.CheckBackend("remote-concurrent", remoteBackend(srv.Addr(), session), tr); div != nil {
				t.Errorf("%s: %v", name, div)
			}
		}(name, session, tr)
	}
	wg.Wait()
}

func keysOf(races []detect.Race) []string {
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = fmt.Sprintf("%d:%v", r.Pos, r.Var)
	}
	sort.Strings(out)
	return out
}

// TestRestartConvergence kills the daemon mid-session and requires the
// resumed session to converge: stream half a trace, close the server
// (checkpointing to disk), start a fresh server on the same directory,
// resume, stream the rest, and require the union of verdicts plus the
// final engine stats and rule fires to equal an uninterrupted
// in-process run.
func TestRestartConvergence(t *testing.T) {
	dir := t.TempDir()
	for name, tr := range corpusTraces(t) {
		t.Run(name, func(t *testing.T) {
			// Uninterrupted in-process run for ground truth.
			eng := core.New()
			var want []detect.Race
			for i := 0; i < tr.Len(); i++ {
				for _, r := range eng.Step(tr.At(i)) {
					r.Pos = i
					want = append(want, r)
				}
			}
			wantStats := eng.Stats()
			wantFires := eng.RuleFires()

			srv1, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir})
			if err != nil {
				t.Fatalf("starting server: %v", err)
			}
			c, err := server.Dial(srv1.Addr(), "restart")
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			half := tr.Len() / 2
			for i := 0; i < half; i++ {
				if err := c.Send(tr.At(i)); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if _, err := c.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			got := c.Races()
			c.Abandon() // simulate a client surviving the daemon
			if err := srv1.Close(); err != nil {
				t.Fatalf("closing first server: %v", err)
			}

			srv2, err := server.New("127.0.0.1:0", server.Config{CheckpointDir: dir})
			if err != nil {
				t.Fatalf("restarting server: %v", err)
			}
			defer srv2.Close()
			c2, err := server.Dial(srv2.Addr(), "restart")
			if err != nil {
				t.Fatalf("redial: %v", err)
			}
			if !c2.Resumed() || c2.Next() != uint64(half) {
				t.Fatalf("resume state: resumed=%v next=%d, want true/%d", c2.Resumed(), c2.Next(), half)
			}
			for i := half; i < tr.Len(); i++ {
				if err := c2.Send(tr.At(i)); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			ack, err := c2.Close()
			if err != nil {
				t.Fatalf("close: %v", err)
			}
			got = append(got, c2.Races()...)

			if gk, wk := keysOf(got), keysOf(want); !equalStrings(gk, wk) {
				t.Fatalf("races %v, uninterrupted %v", gk, wk)
			}
			if ack.Stats == nil || *ack.Stats != wantStats {
				t.Fatalf("stats diverged\nresumed:       %+v\nuninterrupted: %+v", ack.Stats, wantStats)
			}
			var gotFires [obs.NumRules + 1]uint64
			copy(gotFires[:], ack.RuleFires)
			if gotFires != wantFires {
				t.Fatalf("rule fires %v, uninterrupted %v", gotFires, wantFires)
			}
			if ack.Applied != uint64(tr.Len()) {
				t.Fatalf("applied %d, want %d", ack.Applied, tr.Len())
			}

			// Clean the session so the next subtest starts fresh.
			srv2.Close()
			cleanCheckpointDir(t, dir)
		})
	}
}

// cleanCheckpointDir removes persisted sessions so the next subtest
// starts from an empty daemon.
func cleanCheckpointDir(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatalf("globbing checkpoints: %v", err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatalf("removing %s: %v", m, err)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionExclusive rejects a second live connection to the same
// session.
func TestSessionExclusive(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()
	c1, err := server.Dial(srv.Addr(), "excl")
	if err != nil {
		t.Fatalf("first dial: %v", err)
	}
	defer c1.Abandon()
	if _, err := server.Dial(srv.Addr(), "excl"); err == nil {
		t.Fatal("second connection to a live session was accepted")
	}
}

// TestRejectsBadHandshake covers the protocol guards: wrong protocol
// name, wrong version, and invalid session ids are all refused with an
// explanatory welcome. A version-1 client, which would stream line-JSON,
// gets the version error at once — with or without the binary offer
// its hello could carry — instead of a connection that never answers.
func TestRejectsBadHandshake(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	for name, tc := range map[string]struct{ hello, want string }{
		"wrong-proto":     {`{"proto":"nope","version":2,"session":"a"}`, "handshake"},
		"wrong-version":   {`{"proto":"goldilocks-service","version":99,"session":"a"}`, "unsupported protocol version 99"},
		"v1-json-client":  {`{"proto":"goldilocks-service","version":1,"session":"a"}`, "unsupported protocol version 1"},
		"v1-binary-offer": {`{"proto":"goldilocks-service","version":1,"session":"a","formats":["goldilocks-bin","goldilocks-json"]}`, "unsupported protocol version 1"},
		"bad-session":     {`{"proto":"goldilocks-service","version":2,"session":"../escape"}`, "invalid session id"},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(conn, "%s\n", tc.hello)
		line, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err != nil {
			t.Fatalf("%s: reading welcome: %v", name, err)
		}
		var w struct {
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &w); err != nil {
			t.Fatalf("%s: bad welcome %q: %v", name, line, err)
		}
		if w.OK || !strings.Contains(w.Error, tc.want) {
			t.Errorf("%s: welcome %q, want a refusal naming %q", name, line, tc.want)
		}
	}
}

// TestOversizedHelloRefused: a first line longer than the 64 KiB line
// bound is refused without waiting for its newline, and the daemon
// keeps serving the next client.
func TestOversizedHelloRefused(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	go conn.Write(bytes.Repeat([]byte{'x'}, 64*1024+1)) // no newline
	line, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server waited on an oversized hello instead of refusing it")
	}
	// Either an error welcome or a closed connection is a refusal; an
	// accepting welcome is not.
	if err == nil && !strings.Contains(line, "too long") {
		t.Fatalf("oversized hello answered with %q", line)
	}

	races, ack, err := server.StreamTrace(srv.Addr(), "after-oversize", scenarios.All()[0].Trace)
	if err != nil {
		t.Fatalf("daemon stopped serving after an oversized hello: %v", err)
	}
	if ack.Applied != uint64(scenarios.All()[0].Trace.Len()) {
		t.Fatalf("applied %d of %d after an oversized hello (%d races)",
			ack.Applied, scenarios.All()[0].Trace.Len(), len(races))
	}
}

// TestLargeSessionListings: the 64 KiB bound is on the first line a
// peer sends, not on what an admin caller reads back. A node whose
// info and drain replies list more sessions than fit in 64 KiB still
// answers Sessions and DrainNode in full.
func TestLargeSessionListings(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	// Each listed session takes ~95 bytes of JSON with a 64-byte id, so
	// 800 of them make a reply of ~75 KiB. A hello alone registers a
	// session, which the dropped connection leaves detached.
	const n = 800
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		fmt.Fprintf(conn, `{"proto":"goldilocks-service","version":2,"session":"%064d"}`+"\n", i)
		line, err := bufio.NewReader(conn).ReadString('\n')
		conn.Close()
		if err != nil || !strings.Contains(line, `"ok":true`) {
			t.Fatalf("session %d: welcome %q, %v", i, line, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	listed, err := server.Sessions(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if b, _ := json.Marshal(listed); len(listed) != n || len(b) <= 64*1024 {
		t.Fatalf("Sessions listed %d sessions in %d bytes, want %d in more than 64 KiB", len(listed), len(b), n)
	}
	drained, err := server.DrainNode(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if len(drained) != n {
		t.Fatalf("DrainNode listed %d sessions, want %d", len(drained), n)
	}
}

// TestSessionMetrics checks the per-session metrics appear in the
// registry with session labels and advance as actions apply.
func TestSessionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := server.New("127.0.0.1:0", server.Config{Registry: reg})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	tr := scenarios.All()[0].Trace
	if _, _, err := server.StreamTrace(srv.Addr(), "metrics-a", tr); err != nil {
		t.Fatalf("stream: %v", err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	text := sb.String()
	want := fmt.Sprintf(`goldilocksd_session_applied_total{session="metrics-a"} %d`, tr.Len())
	if !strings.Contains(text, want) {
		t.Fatalf("scrape missing %q:\n%s", want, text)
	}
	if !strings.Contains(text, "goldilocksd_sessions_total 1") {
		t.Fatalf("scrape missing sessions_total:\n%s", text)
	}
}
