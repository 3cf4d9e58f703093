package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"goldilocks/internal/event"
)

// FlightEvent is one entry of the flight recorder: a structured
// lifecycle event (session attach/detach, NOT_OWNER redirect, replica
// promotion, quarantine, governor rung escalation, sampled rule fire,
// checkpoint, ...) with enough context to reconstruct what the daemon
// was doing in the seconds before an incident. Seq and the timestamp
// are stamped by Record.
type FlightEvent struct {
	Seq       uint64 `json:"seq"`
	UnixMicro int64  `json:"t"`
	Component string `json:"c"`
	Kind      string `json:"k"`
	Session   string `json:"s,omitempty"`
	Node      string `json:"n,omitempty"`
	Span      uint64 `json:"sp,omitempty"`
	Detail    string `json:"d,omitempty"`
}

// FlightRecorder is a bounded ring of recent FlightEvents. Record is a
// mutex-guarded ring append — cheap, but meant for lifecycle edges and
// sampled spans, not the per-access hot path. A nil recorder is fully
// disabled: every method is nil-safe, so call sites need no gating
// beyond the pointer they already hold.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []FlightEvent
	next    int
	wrapped bool
	seq     uint64
	dumps   uint64
}

// NewFlightRecorder returns a ring holding the last capacity events.
// capacity <= 0 returns nil — the disabled recorder.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		return nil
	}
	return &FlightRecorder{buf: make([]FlightEvent, capacity)}
}

// Record appends one event, stamping its sequence number and time.
func (r *FlightRecorder) Record(ev FlightEvent) {
	if r == nil {
		return
	}
	now := time.Now().UnixMicro()
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	ev.UnixMicro = now
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Event is the common-case Record: component, kind, session, detail.
func (r *FlightRecorder) Event(component, kind, session, detail string) {
	r.Record(FlightEvent{Component: component, Kind: kind, Session: session, Detail: detail})
}

// Len returns how many events the ring currently retains.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Snapshot returns the retained events oldest-first, plus how many
// older events the ring has already overwritten.
func (r *FlightRecorder) Snapshot() (events []FlightEvent, overwritten uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		events = append(events, r.buf[:r.next]...)
	} else {
		events = append(events, r.buf[r.next:]...)
		events = append(events, r.buf[:r.next]...)
	}
	return events, r.seq - uint64(len(events))
}

// FlightFormatName identifies a flight-recorder dump file.
const FlightFormatName = "goldilocks-flight"

// FlightFormatVersion is the current dump format version.
const FlightFormatVersion = 1

// FlightHeader is the first line of a dump: what was dumped, where,
// why, and how much of the history the ring had already lost.
type FlightHeader struct {
	Format      string `json:"format"`
	Version     int    `json:"version"`
	Node        string `json:"node,omitempty"`
	Reason      string `json:"reason"`
	DumpedUnix  int64  `json:"dumped_unix_ms"`
	Events      int    `json:"events"`
	Overwritten uint64 `json:"overwritten"`
}

// WriteDump serializes the ring as a record file (event/record.go): the
// header line, then one record per event under "e", oldest first. The
// ring keeps recording while (and after) a dump is written.
func (r *FlightRecorder) WriteDump(w io.Writer, node, reason string) error {
	events, overwritten := r.Snapshot()
	b, err := json.Marshal(FlightHeader{
		Format: FlightFormatName, Version: FlightFormatVersion,
		Node: node, Reason: reason, DumpedUnix: time.Now().UnixMilli(),
		Events: len(events), Overwritten: overwritten,
	})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	for _, ev := range events {
		body, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = event.AppendRecord(b, "e", body)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	r.mu.Lock()
	r.dumps++
	r.mu.Unlock()
	return nil
}

// Dumps returns how many dumps have been written from this ring.
func (r *FlightRecorder) Dumps() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumps
}

// DumpToDir writes the dump atomically to dir/flight-<reason>.jsonl
// (reason sanitized to filename-safe characters; a later dump for the
// same reason replaces the earlier one — the newest evidence wins) and
// returns the path.
func (r *FlightRecorder) DumpToDir(dir, node, reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("obs: no flight recorder")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := "flight-" + sanitizeFilename(reason) + ".jsonl"
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if err := r.WriteDump(tmp, node, reason); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// sanitizeFilename maps anything outside [A-Za-z0-9._-] to '-'.
func sanitizeFilename(s string) string {
	if s == "" {
		return "dump"
	}
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// ReadFlightDump parses a dump, verifying every line's checksum. Like
// trace salvage, it returns the longest valid prefix of events; err is
// non-nil when the header is unusable or any line after it is torn or
// checksum-corrupt (the salvaged prefix still comes back).
func ReadFlightDump(rd io.Reader) (FlightHeader, []FlightEvent, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return FlightHeader{}, nil, fmt.Errorf("obs: empty flight dump")
	}
	var hdr FlightHeader
	if err := event.CheckHeader(sc.Bytes(), FlightFormatName, FlightFormatVersion, FlightFormatVersion); err != nil {
		return hdr, nil, fmt.Errorf("obs: %w", err)
	}
	json.Unmarshal(sc.Bytes(), &hdr) // CheckHeader has parsed the line
	var events []FlightEvent
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		body, err := event.ReadRecord(line, "e")
		if err != nil {
			return hdr, events, fmt.Errorf("obs: flight dump after %d events: %w", len(events), err)
		}
		var ev FlightEvent
		if err := json.Unmarshal(body, &ev); err != nil {
			return hdr, events, fmt.Errorf("obs: bad flight event after %d events", len(events))
		}
		events = append(events, ev)
	}
	return hdr, events, nil
}
