package event_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"goldilocks/internal/event"
	"goldilocks/internal/resilience"
)

func sampleTrace() *event.Trace {
	return event.NewBuilder().
		Alloc(1, 10).
		Fork(1, 2).
		Acquire(1, 20).
		Write(1, 10, 0).
		Release(1, 20).
		Acquire(2, 20).
		Read(2, 10, 0).
		Release(2, 20).
		Join(1, 2).
		Trace()
}

// TestStreamRoundTrip writes every non-channel kind, including
// volatiles and a commit with read/write sets, and reads it back
// loss-free.
func TestStreamRoundTrip(t *testing.T) {
	tr := event.NewBuilder().
		Alloc(1, 10).
		Write(1, 10, 0).
		Fork(1, 2).
		Acquire(2, 20).
		VolatileWrite(2, 1, 3).
		VolatileRead(1, 1, 3).
		Release(2, 20).
		Commit(2, []event.Variable{{Obj: 10, Field: 0}}, []event.Variable{{Obj: 10, Field: 1}, {Obj: 11, Field: 2}}).
		Join(1, 2).
		Trace()
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, dropped, err := event.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if a, b := tr.At(i), got.At(i); a.String() != b.String() {
			t.Fatalf("action %d: got %v, want %v", i, b, a)
		}
	}
}

// TestStreamTruncatedTail: a file cut mid-record (as a crash or the
// fault injector's truncating writer produces) yields the valid prefix.
func TestStreamTruncatedTail(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut inside the last record's line.
	cut := bytes.LastIndexByte(full[:len(full)-1], '\n') + 4
	got, dropped, err := event.ReadTrace(bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len()-1 {
		t.Fatalf("prefix Len = %d, want %d", got.Len(), tr.Len()-1)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("salvaged prefix invalid: %v", err)
	}
}

// TestStreamCorruptRecord: a flipped byte in the middle fails that
// record's checksum; the prefix before it survives and everything from
// the corruption on is dropped.
func TestStreamCorruptRecord(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Corrupt the 5th record (line 0 is the header): change a digit
	// inside its action body without touching the JSON structure.
	corrupt := strings.Replace(lines[5], `"t":`, `"t":4`, 1)
	if corrupt == lines[5] {
		t.Fatalf("corruption did not apply to %q", lines[5])
	}
	lines[5] = corrupt
	got, dropped, err := event.ReadTrace(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("prefix Len = %d, want 4", got.Len())
	}
	if dropped != len(lines)-1-4 {
		t.Fatalf("dropped = %d, want %d", dropped, len(lines)-1-4)
	}
}

// TestStreamInvalidSuffixRejected: records that decode fine but violate
// trace well-formedness after the prefix are dropped too (the salvage
// never returns an invalid trace).
func TestStreamInvalidSuffixRejected(t *testing.T) {
	var buf bytes.Buffer
	err := event.WriteTrace(&buf, event.NewTrace([]event.Action{
		event.Acquire(1, 7),
		event.Release(2, 7), // invalid: release by non-owner
		event.Read(1, 3, 0),
	}))
	if err != nil {
		t.Fatal(err)
	}
	got, dropped, err := event.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || dropped != 2 {
		t.Fatalf("Len = %d dropped = %d, want 1 and 2", got.Len(), dropped)
	}
}

// TestStreamSalvageMatchesValidate: a written trace whose last action
// is invalid salvages to a prefix that Trace.Validate accepts.
func TestStreamSalvageMatchesValidate(t *testing.T) {
	b := event.NewBuilder().
		Fork(1, 2).
		Alloc(1, 5).
		Write(1, 5, 0).
		Commit(2, []event.Variable{{Obj: 5, Field: 0}}, nil).
		Alloc(2, 5) // invalid: alloc after access
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, b.Trace()); err != nil {
		t.Fatal(err)
	}
	got, dropped, err := event.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("salvaged prefix invalid: %v", err)
	}
}

// TestStreamRetiredKeyIgnored: a record that carries a key this reader
// does not know (the span id "sp" an earlier writer added beside the
// action) still reads, since its action and checksum are intact.
func TestStreamRetiredKeyIgnored(t *testing.T) {
	body := `{"kind":"acq","t":1,"o":20}`
	in := fmt.Sprintf(`{"format":%q,"version":%d}`+"\n"+`{"a":%s,"sp":7,"crc":"%08x"}`+"\n",
		event.StreamFormatName, event.StreamFormatVersion, body, crc32.ChecksumIEEE([]byte(body)))
	got, dropped, err := event.ReadTrace(strings.NewReader(in))
	if err != nil || dropped != 0 || got.Len() != 1 {
		t.Fatalf("got Len = %d dropped = %d err = %v, want the 1 record", got.Len(), dropped, err)
	}
	if a := got.At(0); a.Kind != event.KindAcquire || a.Thread != 1 || a.Obj != 20 {
		t.Fatalf("read %v, want acquire by thread 1 of o20", a)
	}
}

// TestStreamV1CorpusReadable pins backward compatibility: a corpus
// written before the channel kinds existed carries a version-1 header,
// and the version-2 reader must consume it with zero drops. The body
// record layout is unchanged across the bump, so rewriting the header
// of a current pre-channel trace reproduces a v1 file exactly.
func TestStreamV1CorpusReadable(t *testing.T) {
	tr := sampleTrace() // pre-channel kinds only
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(buf.String(),
		fmt.Sprintf(`"version":%d`, event.StreamFormatVersion), `"version":1`, 1)
	if v1 == buf.String() {
		t.Fatal("header rewrite did not apply")
	}
	got, dropped, err := event.ReadTrace(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 corpus unreadable: %v", err)
	}
	if dropped != 0 || got.Len() != tr.Len() {
		t.Fatalf("v1 corpus: Len = %d dropped = %d, want %d and 0", got.Len(), dropped, tr.Len())
	}
}

// unknownKindRecord builds an intact (CRC-valid) record whose kind this
// reader does not know — what a stream from a newer writer looks like.
func unknownKindRecord(kind string) string {
	body := fmt.Sprintf(`{"kind":%q,"t":1,"o":2}`, kind)
	return fmt.Sprintf(`{"a":%s,"crc":"%08x"}`+"\n", body, crc32.ChecksumIEEE([]byte(body)))
}

// TestStreamUnknownKindStructuredReport: an intact record with an
// unrecognized kind is version skew, not corruption-by-crash. The
// reader must return the salvaged prefix AND a structured
// resilience.Report naming the unknown kind, instead of silently
// misreporting the execution.
func TestStreamUnknownKindStructuredReport(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(unknownKindRecord("chan-rendezvous-v3"))
	buf.WriteString(unknownKindRecord("chan-rendezvous-v3")) // dropped with the rest

	got, dropped, err := event.ReadTrace(&buf)
	if err == nil {
		t.Fatal("unknown kind in intact record was swallowed silently")
	}
	var rep *resilience.Report
	if !errors.As(err, &rep) {
		t.Fatalf("err = %T %v, want *resilience.Report", err, err)
	}
	if rep.Kind != resilience.Corruption {
		t.Fatalf("report kind = %v, want corruption", rep.Kind)
	}
	if !strings.Contains(rep.Detail, "chan-rendezvous-v3") {
		t.Fatalf("report does not name the unknown kind: %q", rep.Detail)
	}
	if got.Len() != tr.Len() || dropped != 2 {
		t.Fatalf("salvage: Len = %d dropped = %d, want %d and 2", got.Len(), dropped, tr.Len())
	}
	if verr := got.Validate(); verr != nil {
		t.Fatalf("salvaged prefix invalid: %v", verr)
	}
}

// TestReadTraceOverlongRecord: a line longer than MaxFrameLen stops
// the scanner, and every record after it is out of reach. The reader
// must keep the prefix, count the loss and say why, rather than return
// what looks like a clean short trace.
func TestReadTraceOverlongRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := event.WriteTrace(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	// Header and three records, the overlong line, then the rest.
	lines := strings.SplitAfter(buf.String(), "\n")
	long := `{"a":"` + strings.Repeat("x", event.MaxFrameLen) + "\"}\n"
	in := strings.Join(lines[:4], "") + long + strings.Join(lines[4:], "")
	got, dropped, err := event.ReadTrace(strings.NewReader(in))
	var rep *resilience.Report
	if !errors.As(err, &rep) || rep.Kind != resilience.Corruption {
		t.Fatalf("err = %v, want a corruption report", err)
	}
	if !strings.Contains(rep.Detail, "record 4") || !strings.Contains(rep.Detail, "too long") {
		t.Fatalf("report does not name the record and the cause: %q", rep.Detail)
	}
	if got.Len() != 3 || dropped < 1 {
		t.Fatalf("salvage: Len = %d dropped = %d, want 3 and at least 1", got.Len(), dropped)
	}
}

// TestStreamFutureVersionRejected: a header from a newer format version
// is unusable as a whole (the reader cannot bound what changed).
func TestStreamFutureVersionRejected(t *testing.T) {
	hdr := fmt.Sprintf(`{"format":%q,"version":%d}`+"\n",
		event.StreamFormatName, event.StreamFormatVersion+1)
	if _, _, err := event.ReadTrace(strings.NewReader(hdr)); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestStreamSurvivesInjectedTruncation wires the fault injector's
// truncating writer in front of the stream writer: the tool believes
// every write succeeded, yet the reader still salvages a valid prefix.
func TestStreamSurvivesInjectedTruncation(t *testing.T) {
	tr := sampleTrace()
	var intact bytes.Buffer
	if err := event.WriteTrace(&intact, tr); err != nil {
		t.Fatal(err)
	}

	limit := intact.Len() / 2
	var buf bytes.Buffer
	inj := &resilience.Injector{TruncateTraceBytes: limit}
	w := inj.WrapTraceWriter(&buf)
	if err := event.WriteTrace(w, tr); err != nil {
		t.Fatalf("truncating writer leaked an error: %v", err)
	}
	if buf.Len() > limit {
		t.Fatalf("writer wrote %d bytes past the %d-byte fault", buf.Len(), limit)
	}

	got, dropped, err := event.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || got.Len() >= tr.Len() {
		t.Fatalf("salvaged Len = %d, want a proper non-empty prefix of %d", got.Len(), tr.Len())
	}
	if dropped == 0 {
		t.Fatal("truncation dropped no records")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("salvaged prefix invalid: %v", err)
	}
}
