package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"goldilocks/internal/event"
	"goldilocks/internal/server"
)

// replayRemote streams a recorded trace through a goldilocksd session
// and reports the daemon's verdicts. A resumed session (the daemon
// already applied a prefix, e.g. before a restart) streams only the
// remaining suffix; verdict positions are global linearization indices
// either way, so the output is directly comparable to a local replay.
//
// stopAfter > 0 streams at most that many actions, waits until they are
// applied, and detaches without the close handshake — the session stays
// resumable, which is how the CI service job interrupts a session
// mid-trace before killing the daemon.
func replayRemote(path, addr, sessionID string, stopAfter int, out *os.File) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tr, dropped, err := event.ReadTraceAuto(f)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "trace: %d actions, %d threads, %d variables\n",
		tr.Len(), len(tr.Threads()), len(tr.Vars()))
	if dropped > 0 {
		fmt.Fprintf(out, "trace damaged: replaying the valid %d-action prefix, %d records dropped\n",
			tr.Len(), dropped)
	}
	if sessionID == "" {
		sessionID = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}

	// addr may be a single daemon or a comma-separated fleet list; a
	// fleet client follows NOT_OWNER redirects and fails over.
	c, err := server.DialAuto(context.Background(), addr, sessionID)
	if err != nil {
		return 0, err
	}
	start := int(c.Next())
	if c.Resumed() {
		fmt.Fprintf(out, "session %s resumed at action %d\n", sessionID, start)
	}
	if start > tr.Len() {
		c.Abandon()
		return 0, fmt.Errorf("session %q already at %d, past trace end %d", sessionID, start, tr.Len())
	}
	end := tr.Len()
	if stopAfter > 0 && start+stopAfter < end {
		end = start + stopAfter
	}
	for i := start; i < end; i++ {
		if err := c.Send(tr.At(i)); err != nil {
			c.Abandon()
			return 0, err
		}
	}

	if end < tr.Len() {
		ack, err := c.Flush()
		if err != nil {
			return 0, err
		}
		c.Abandon()
		fmt.Fprintf(out, "detached at action %d (%d races so far); session %s resumable\n",
			ack.Applied, ack.Races, sessionID)
		return reportRemote(c, out, false)
	}

	ack, err := c.Close()
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "remote session applied %d actions\n", ack.Applied)
	return reportRemote(c, out, true)
}

// reportRemote prints this connection's verdicts. For a completed
// session the count is the exit-code basis, same as a local replay.
func reportRemote(c *server.Client, out *os.File, complete bool) (int, error) {
	races := c.Races()
	label := "remote"
	if !complete {
		label = "remote (partial)"
	}
	fmt.Fprintf(out, "%s: %d races\n", label, len(races))
	for _, r := range races {
		fmt.Fprintf(out, "  %v\n", &r)
		if r.Prov != nil {
			fmt.Fprintf(out, "    provenance: %v\n", r.Prov)
		}
	}
	return len(races), nil
}
