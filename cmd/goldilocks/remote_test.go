package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/resilience"
	"goldilocks/internal/server"
)

// TestRunRemoteParity runs the same programs locally and against an
// in-process goldilocksd and requires the same verdict count and exit
// code from both paths.
func TestRunRemoteParity(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	for name, src := range map[string]string{"clean": cleanSrc, "racy": racySrc} {
		path := writeProgram(t, src)

		local := cfg()
		local.policy = "log"
		nLocal, err := run(context.Background(), path, local)
		if err != nil {
			t.Fatalf("%s: local run: %v", name, err)
		}

		rem := cfg()
		rem.policy = "log"
		rem.remote = srv.Addr()
		rem.session = "cli-" + name
		nRemote, err := run(context.Background(), path, rem)
		if err != nil {
			t.Fatalf("%s: remote run: %v", name, err)
		}

		if nLocal != nRemote {
			t.Errorf("%s: local %d races, remote %d", name, nLocal, nRemote)
		}
		if lc, rc := exitFor(nLocal, nil), exitFor(nRemote, nil); lc != rc {
			t.Errorf("%s: local exit %d, remote exit %d", name, lc, rc)
		}
	}
}

// TestRunRemoteFreeScheduler streams from goroutine threads: under
// -sched free several threads send through the adapter's one mutex at
// once, with and without -record. The racy program's race is
// interleaving-independent, so each run reports exactly one; a recorded
// run's trace replays to the same verdict.
func TestRunRemoteFreeScheduler(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	dir := t.TempDir()
	for name, src := range map[string]string{"clean": cleanSrc, "racy": racySrc} {
		path := writeProgram(t, src)
		want := 0
		if name == "racy" {
			want = 1
		}
		for _, record := range []bool{false, true} {
			c := cfg()
			c.sched, c.policy = "free", "log"
			c.remote = srv.Addr()
			c.session = fmt.Sprintf("cli-free-%s-%v", name, record)
			if record {
				c.record = filepath.Join(dir, name+".jsonl")
			}
			n, err := run(context.Background(), path, c)
			if err != nil {
				t.Fatalf("%s (record %v): remote run: %v", name, record, err)
			}
			if n != want {
				t.Errorf("%s (record %v): %d races, want %d", name, record, n, want)
			}
			if !record {
				continue
			}
			f, err := os.Open(c.record)
			if err != nil {
				t.Fatal(err)
			}
			tr, _, err := event.ReadTrace(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: recording unreadable: %v", name, err)
			}
			if got := len(detect.RunTrace(core.New(), tr)); got != n {
				t.Errorf("%s: remote run reported %d races, replay of its recording %d", name, n, got)
			}
		}
	}
}

// TestRunRemoteForcesLogPolicy keeps the throw policy from silently
// doing nothing with -remote: the run succeeds, logs the verdicts, and
// still reports the racy exit code.
func TestRunRemoteForcesLogPolicy(t *testing.T) {
	srv, err := server.New("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	path := writeProgram(t, racySrc)
	c := cfg() // policy: throw
	c.remote = srv.Addr()
	c.session = "cli-throw"
	n, err := run(context.Background(), path, c)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if n == 0 {
		t.Fatal("racy program reported no races via remote detection")
	}
	if code := exitFor(n, err); code != resilience.ExitRace {
		t.Errorf("exit code %d, want %d", code, resilience.ExitRace)
	}
}

// TestRunRemoteUnreachable maps a refused connection to a runtime
// failure, not a silent clean run.
func TestRunRemoteUnreachable(t *testing.T) {
	path := writeProgram(t, cleanSrc)
	c := cfg()
	c.remote = "127.0.0.1:1" // nothing listens here
	if _, err := run(context.Background(), path, c); err == nil {
		t.Fatal("run with unreachable daemon succeeded")
	}
}
