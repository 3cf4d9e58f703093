package event

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"goldilocks/internal/report"
)

// The trace file format — the only one WriteTrace writes and ReadTrace
// reads — is line-delimited JSON (JSONL) so that a truncated or
// partially corrupted file still yields its valid prefix: a header line
// identifying the format, then one record per action. Each record
// carries a CRC-32 (IEEE) checksum of the serialized action, so torn
// writes and bit rot are detected per record instead of poisoning the
// whole file.
//
//	{"format":"goldilocks-stream","version":1}
//	{"a":{"kind":"acquire","t":1,"o":2},"crc":"7f1c0d3a"}
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

type streamHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// streamRecord is one record line; decoding ignores unknown keys.
type streamRecord struct {
	Action json.RawMessage `json:"a"`
	CRC    string          `json:"crc"`
}

func actionCRC(serialized []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(serialized))
}

// Auto-flush thresholds for StreamWriter: buffered records reach the
// underlying writer after at most autoFlushRecords appends or once
// autoFlushBytes are pending, whichever comes first. Without these, up
// to a full bufio buffer of records would sit in memory and be lost by
// a crash, contradicting the durability contract below.
const (
	autoFlushRecords = 32
	autoFlushBytes   = 2048
)

// StreamWriter writes actions incrementally in the trace file format.
// Unlike WriteTrace it needs no completed Trace up front, so a recording
// cut short by a crash (or by fault injection) keeps everything written
// so far — the header is flushed at creation and records auto-flush
// every autoFlushRecords appends (or autoFlushBytes pending bytes), so
// at most that window of records is at risk. Call Flush at commit
// points that must be durable immediately, and Close when done.
type StreamWriter struct {
	w       *bufio.Writer
	err     error
	pending int // records appended since the last flush
}

// NewStreamWriter writes and flushes the header and returns a writer
// ready for Append calls: a recording that crashes before its first
// record still salvages as a valid empty trace.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	sw := &StreamWriter{w: bufio.NewWriter(w)}
	if _, err := sw.w.Write(StreamHeaderLine()); err != nil {
		return nil, fmt.Errorf("event: writing stream header: %w", err)
	}
	if err := sw.w.Flush(); err != nil {
		return nil, fmt.Errorf("event: flushing stream header: %w", err)
	}
	return sw, nil
}

// Append writes one action record. After the first error every
// subsequent Append is a no-op returning that error.
func (sw *StreamWriter) Append(a Action) error {
	if sw.err != nil {
		return sw.err
	}
	rec, err := encodeRecord(a)
	if err != nil {
		sw.err = err
		return err
	}
	if _, err := sw.w.Write(rec); err != nil {
		sw.err = fmt.Errorf("event: writing stream record: %w", err)
		return sw.err
	}
	sw.pending++
	if sw.pending >= autoFlushRecords || sw.w.Buffered() >= autoFlushBytes {
		if err := sw.w.Flush(); err != nil {
			sw.err = fmt.Errorf("event: flushing stream records: %w", err)
			return sw.err
		}
		sw.pending = 0
	}
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (sw *StreamWriter) Flush() error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.w.Flush(); err != nil {
		sw.err = fmt.Errorf("event: flushing stream records: %w", err)
		return sw.err
	}
	sw.pending = 0
	return nil
}

// Close flushes buffered records and marks the writer finished: further
// Appends fail. It does not close the underlying writer (the caller
// owns it). Closing after a write error returns that error.
func (sw *StreamWriter) Close() error {
	if err := sw.Flush(); err != nil {
		return err
	}
	sw.err = fmt.Errorf("event: stream writer closed")
	return nil
}

// StreamHeaderLine returns the header line (newline-terminated) that
// opens every streaming trace.
func StreamHeaderLine() []byte {
	hdr, err := json.Marshal(streamHeader{Format: StreamFormatName, Version: StreamFormatVersion})
	if err != nil {
		panic(err) // static struct of two scalar fields; cannot fail
	}
	return append(hdr, '\n')
}

// CheckStreamHeader verifies that line is a usable stream header. Every
// version in [StreamMinVersion, StreamFormatVersion] is readable.
func CheckStreamHeader(line []byte) error {
	var hdr streamHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != StreamFormatName {
		return fmt.Errorf("event: not a %s trace", StreamFormatName)
	}
	if hdr.Version < StreamMinVersion || hdr.Version > StreamFormatVersion {
		return fmt.Errorf("event: unsupported stream version %d (reader supports %d..%d)",
			hdr.Version, StreamMinVersion, StreamFormatVersion)
	}
	return nil
}

// encodeRecord serializes one action as a checksummed record line
// (newline-terminated), the unit of the trace file format.
func encodeRecord(a Action) ([]byte, error) {
	body, err := MarshalAction(a)
	if err != nil {
		return nil, err
	}
	rec, err := json.Marshal(streamRecord{Action: body, CRC: actionCRC(body)})
	if err != nil {
		return nil, err
	}
	return append(rec, '\n'), nil
}

// WriteTrace writes a whole trace in the trace file format.
func WriteTrace(w io.Writer, tr *Trace) error {
	sw, err := NewStreamWriter(w)
	if err != nil {
		return err
	}
	for i := 0; i < tr.Len(); i++ {
		if err := sw.Append(tr.At(i)); err != nil {
			return err
		}
	}
	return sw.Flush()
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
	if err := CheckStreamHeader(sc.Bytes()); err != nil {
		return nil, 0, err
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
	var rec streamRecord
	if err := json.Unmarshal(line, &rec); err != nil || len(rec.Action) == 0 {
		return Action{}, recCorrupt, ""
	}
	if actionCRC(rec.Action) != rec.CRC {
		return Action{}, recCorrupt, ""
	}
	var ja JSONAction
	if err := json.Unmarshal(rec.Action, &ja); err != nil {
		return Action{}, recCorrupt, ""
	}
	a, ok := ja.action()
	if !ok {
		return Action{}, recUnknownKind, ja.Kind
	}
	return a, recOK, ""
}
