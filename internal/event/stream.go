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

// The streaming trace format is line-delimited so that a truncated or
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
// Trace validity is prefix-closed (Trace.Validate checks each action
// against the state built by the actions before it), so every valid
// prefix of a recorded execution is itself a replayable trace.

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

// StreamWriter writes actions incrementally in the streaming format.
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
	rec, err := EncodeRecord(a)
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

// EncodeRecord serializes one action as a checksummed record line
// (newline-terminated), the unit of the streaming format.
func EncodeRecord(a Action) ([]byte, error) {
	ja := jsonAction{
		Kind:   a.Kind.String(),
		Thread: a.Thread,
		Obj:    a.Obj,
		Field:  a.Field,
		Peer:   a.Peer,
		Reads:  a.Reads,
		Writes: a.Writes,
	}
	body, err := json.Marshal(ja)
	if err != nil {
		return nil, err
	}
	rec, err := json.Marshal(streamRecord{Action: body, CRC: actionCRC(body)})
	if err != nil {
		return nil, err
	}
	return append(rec, '\n'), nil
}

// DecodeRecord parses and checksum-verifies one record line; ok is
// false for a torn, corrupt, or unknown-kind record.
func DecodeRecord(line []byte) (a Action, ok bool) {
	a, st, _ := decodeStreamLine(line)
	return a, st == recOK
}

// WriteTraceStream writes a whole trace in the streaming format.
func WriteTraceStream(w io.Writer, tr *Trace) error {
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

// ReadTraceStream reads a streaming-format trace, salvaging the longest
// valid prefix. It stops at the first unreadable record — truncated
// line, malformed JSON, checksum mismatch, or an action that is invalid
// after the prefix before it — and returns the prefix trace together
// with the number of records dropped (the bad record, if
// distinguishable, plus everything after it).
//
// A torn or checksum-failing record is what a crash leaves behind, so
// it ends the salvage silently. An *intact* record (checksum verifies,
// JSON parses) whose kind this reader does not know is different: it
// means the stream came from a newer writer, and silently discarding it
// would misreport the execution. That case still returns the salvaged
// prefix and dropped count, but err is a structured *report.Report
// (Corruption kind, same type as resilience.Report) naming the unknown
// kind and the version skew. err is otherwise non-nil only when the
// header itself is unusable.
func ReadTraceStream(r io.Reader) (tr *Trace, dropped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, 0, fmt.Errorf("event: empty stream trace")
	}
	if err := CheckStreamHeader(sc.Bytes()); err != nil {
		return nil, 0, err
	}

	var actions []Action
	var unknownRep *report.Report
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
				unknownRep = &report.Report{
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
	// A read error (not io.EOF) ends the salvage the same way a bad
	// record does: the prefix is what we have.
	_ = sc.Err()
	if unknownRep != nil {
		return NewTrace(actions), dropped, unknownRep
	}
	return NewTrace(actions), dropped, nil
}

// Validator is Trace.Validate as an incremental state machine, so
// streaming consumers (trace salvage, the goldilocksd ingest path) pay
// O(1) per record instead of revalidating the whole prefix. Step(a)
// errors exactly when Validate would error on the prefix extended with
// a (both of Validate's passes are streamable: the alloc-after-access
// check only consults the already-seen touched set). A Validator whose
// Step errored must not be stepped further.
type Validator struct {
	lockOwner map[Addr]Tid
	lockDepth map[Addr]int
	forked    map[Tid]bool
	started   map[Tid]bool
	joined    map[Tid]bool
	touched   map[Addr]bool
	inRegion  map[Tid]bool
	chans     *ChanTracker
}

// NewValidator returns a validator for an empty prefix.
func NewValidator() *Validator {
	return &Validator{
		lockOwner: make(map[Addr]Tid),
		lockDepth: make(map[Addr]int),
		forked:    make(map[Tid]bool),
		started:   make(map[Tid]bool),
		joined:    make(map[Tid]bool),
		touched:   make(map[Addr]bool),
		inRegion:  make(map[Tid]bool),
		chans:     NewChanTracker(),
	}
}

// Step checks that a is valid after the prefix stepped so far.
func (v *Validator) Step(a Action) error {
	if a.Thread == NoTid {
		return fmt.Errorf("event: missing thread id in %v", a)
	}
	if v.joined[a.Thread] {
		return fmt.Errorf("event: thread %v acts after being joined", a.Thread)
	}
	v.started[a.Thread] = true
	switch a.Kind {
	case KindAcquire:
		if owner, held := v.lockOwner[a.Obj]; held && owner != a.Thread {
			return fmt.Errorf("event: lock %v held by %v", a.Obj, owner)
		}
		v.lockOwner[a.Obj] = a.Thread
		v.lockDepth[a.Obj]++
	case KindRelease:
		owner, held := v.lockOwner[a.Obj]
		if !held {
			return fmt.Errorf("event: release of unheld lock %v", a.Obj)
		}
		if owner != a.Thread {
			return fmt.Errorf("event: release by non-owner (owner %v)", owner)
		}
		v.lockDepth[a.Obj]--
		if v.lockDepth[a.Obj] == 0 {
			delete(v.lockOwner, a.Obj)
			delete(v.lockDepth, a.Obj)
		}
	case KindFork:
		if v.forked[a.Peer] {
			return fmt.Errorf("event: thread %v forked twice", a.Peer)
		}
		if v.started[a.Peer] {
			return fmt.Errorf("event: thread %v forked after it acted", a.Peer)
		}
		v.forked[a.Peer] = true
	case KindJoin:
		if !v.forked[a.Peer] && !v.started[a.Peer] {
			return fmt.Errorf("event: join of unknown thread %v", a.Peer)
		}
		v.joined[a.Peer] = true
	case KindAlloc:
		if v.touched[a.Obj] {
			return fmt.Errorf("event: alloc of %v after it was accessed", a.Obj)
		}
	case KindChanMake, KindChanSend, KindChanRecv, KindChanClose:
		if _, err := v.chans.Normalize(a); err != nil {
			return fmt.Errorf("event: %v", err)
		}
	case KindTxBegin:
		if v.inRegion[a.Thread] {
			return fmt.Errorf("event: nested txbegin by %v", a.Thread)
		}
		v.inRegion[a.Thread] = true
	case KindTxEnd:
		if !v.inRegion[a.Thread] {
			return fmt.Errorf("event: txend by %v without an open region", a.Thread)
		}
		v.inRegion[a.Thread] = false
	case KindRead, KindWrite:
		v.touched[a.Obj] = true
	case KindCommit:
		for _, x := range a.Reads {
			v.touched[x.Obj] = true
		}
		for _, x := range a.Writes {
			v.touched[x.Obj] = true
		}
	}
	return nil
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
	var ja jsonAction
	if err := json.Unmarshal(rec.Action, &ja); err != nil {
		return Action{}, recCorrupt, ""
	}
	k, ok := kindByName[ja.Kind]
	if !ok || k == KindInvalid {
		return Action{}, recUnknownKind, ja.Kind
	}
	return Action{
		Kind:   k,
		Thread: ja.Thread,
		Obj:    ja.Obj,
		Field:  ja.Field,
		Peer:   ja.Peer,
		Reads:  ja.Reads,
		Writes: ja.Writes,
	}, recOK, ""
}

// ReadTraceAuto sniffs the format: a binary header frame selects
// ReadTraceBin, a streaming header selects ReadTraceStream (both
// returning any salvage count), anything else is read as the legacy
// single-object format (dropped is always 0 there — the legacy format
// is all-or-nothing). The binary sniff runs first: BinFormatName and
// StreamFormatName are chosen so neither contains the other.
func ReadTraceAuto(r io.Reader) (tr *Trace, dropped int, err error) {
	br := bufio.NewReader(r)
	peek, _ := br.Peek(64)
	if bytes.Contains(peek, []byte(BinFormatName)) {
		return ReadTraceBin(br)
	}
	if bytes.Contains(peek, []byte(StreamFormatName)) {
		return ReadTraceStream(br)
	}
	tr, err = ReadTrace(br)
	return tr, 0, err
}
