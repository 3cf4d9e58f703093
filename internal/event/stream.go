package event

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"goldilocks/internal/report"
)

// The trace file format — the only one WriteTrace writes and ReadTrace
// reads — is the record file format (record.go) with one record per
// action under the key "a", so a truncated or partially corrupted file
// still yields its valid prefix:
//
//	{"format":"goldilocks-stream","version":1}
//	{"a":{"kind":"acq","t":1,"o":2},"crc":"7f1c0d3a"}
//	...
//
// Trace validity is prefix-closed (Validator checks each action against
// the state built by the actions before it), so every valid prefix of a
// recorded execution is itself a replayable trace.

// StreamFormatName identifies the line-delimited trace format.
const StreamFormatName = "goldilocks-stream"

// StreamFormatVersion is the current format version. Version 2 added
// the channel event kinds (chmake/send/recv/close); the record layout
// is unchanged, so readers accept every version back to
// StreamMinVersion and old corpora stay readable.
const StreamFormatVersion = 2

// StreamMinVersion is the oldest stream version readers accept.
const StreamMinVersion = 1

// WriteTrace writes a whole trace in the trace file format. The buffered
// writer keeps the first write error, which Flush returns.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	bw.Write(AppendHeader(nil, StreamFormatName, StreamFormatVersion))
	for i := 0; i < tr.Len(); i++ {
		rec, start := OpenRecord(bw.AvailableBuffer(), "a")
		bw.Write(CloseRecord(AppendJSON(rec, tr.At(i)), start))
	}
	return bw.Flush()
}

// ReadTrace reads a trace file, salvaging the longest valid prefix. It
// stops at the first unreadable record — truncated line, malformed
// JSON, checksum mismatch, or an action that is invalid after the
// prefix before it — and returns the prefix trace together with the
// number of records dropped (the bad record, if distinguishable, plus
// everything after it).
//
// A torn or checksum-failing record is what a crash leaves behind, so
// it ends the salvage silently. Two cases are reported instead, still
// with the salvaged prefix and dropped count, as a structured
// *report.Report (Corruption kind, the same type as resilience.Report):
// an *intact* record (checksum verifies, JSON parses) whose kind this
// reader does not know, which means the file came from a newer writer
// and silently discarding it would misreport the execution; and a line
// the reader cannot read at all — one longer than MaxFrameLen, or an
// I/O error — after which the rest of the file is out of reach. err is
// otherwise non-nil only when the header itself is unusable.
func ReadTrace(r io.Reader) (tr *Trace, dropped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxFrameLen)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, 0, fmt.Errorf("event: reading stream header: %w", err)
		}
		return nil, 0, fmt.Errorf("event: empty stream trace")
	}
	if err := CheckHeader(sc.Bytes(), StreamFormatName, StreamMinVersion, StreamFormatVersion); err != nil {
		return nil, 0, fmt.Errorf("event: %w", err)
	}

	var actions []Action
	var rep *report.Report
	val := NewValidator()
	record := 0
	bad := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		record++
		if bad {
			dropped++
			continue
		}
		a, st, kindName := decodeStreamLine(line)
		if st != recOK {
			if st == recUnknownKind {
				rep = &report.Report{
					Kind: report.Corruption,
					Detail: fmt.Sprintf("unknown event kind %q in intact record %d (stream version <= %d reader; writer is newer)",
						kindName, record, StreamFormatVersion),
				}
			}
			bad = true
			dropped++
			continue
		}
		// Validity is prefix-closed: check the extended trace before
		// accepting the record.
		if val.Step(a) != nil {
			bad = true
			dropped++
			continue
		}
		actions = append(actions, a)
	}
	if err := sc.Err(); err != nil {
		// The scanner cannot step past the unreadable line, so the
		// records after it are lost with it.
		dropped++
		if rep == nil {
			rep = &report.Report{
				Kind: report.Corruption,
				Detail: fmt.Sprintf("record %d unreadable: %v (valid prefix of %d records salvaged)",
					record+1, err, len(actions)),
			}
		}
	}
	if rep != nil {
		return NewTrace(actions), dropped, rep
	}
	return NewTrace(actions), dropped, nil
}

// recDecodeStatus classifies one record line.
type recDecodeStatus uint8

const (
	recOK          recDecodeStatus = iota
	recCorrupt                     // torn line, bad JSON, or checksum mismatch
	recUnknownKind                 // intact record carrying an unrecognized kind name
)

// decodeStreamLine parses and checksum-verifies one record line,
// distinguishing corruption from version skew (an intact record with an
// unknown kind). kindName is the offending name in the unknown-kind
// case.
func decodeStreamLine(line []byte) (Action, recDecodeStatus, string) {
	body, err := ReadRecord(line, "a")
	if err != nil {
		return Action{}, recCorrupt, ""
	}
	var ja JSONAction
	if err := json.Unmarshal(body, &ja); err != nil {
		return Action{}, recCorrupt, ""
	}
	a, ok := ja.action()
	if !ok {
		return Action{}, recUnknownKind, ja.Kind
	}
	return a, recOK, ""
}
