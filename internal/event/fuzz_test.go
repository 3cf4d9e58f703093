package event

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"goldilocks/internal/report"
)

// sampleStream serializes a small valid trace in the trace file
// format, as seed material for the fuzz target.
func sampleStream(tb testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleTrace()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// preChannelStream serializes a trace using only version-1 kinds, the
// shape of every corpus recorded before the channel vocabulary existed.
func preChannelStream(tb testing.TB) []byte {
	tr := NewBuilder().
		Fork(1, 2).
		Acquire(1, 7).
		Write(1, 10, 0).
		Release(1, 7).
		Read(2, 10, 0).
		Join(1, 2).
		Trace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadTrace throws arbitrary bytes at the trace file reader.
// Robustness contract: never panic, never return an invalid trace, and
// when the reader salvages (dropped > 0 or early stop) the salvaged
// prefix must itself be a valid, re-serializable trace.
func FuzzReadTrace(f *testing.F) {
	sample := sampleStream(f)
	f.Add(sample)
	f.Add([]byte(`{"format":"goldilocks-stream","version":1}` + "\n"))
	f.Add([]byte(`{"format":"goldilocks-stream","version":2}` + "\n"))
	f.Add([]byte("not a stream at all"))
	f.Add(sample[:len(sample)-9]) // torn final record
	f.Add(bytes.Replace(sample, []byte(`"crc":"`), []byte(`"crc":"0`), 1))
	// An old-corpus file: a v1 header over pre-channel records. The v2
	// reader must keep salvaging these (backward-compat regression).
	v1 := preChannelStream(f)
	f.Add(bytes.Replace(v1, []byte(`"version":2`), []byte(`"version":1`), 1))
	// Version skew the other way: an intact record with a kind from the
	// future must surface the structured report, not a silent drop.
	withUnknown := AppendRecord(append([]byte(nil), sample...), "a", []byte(`{"kind":"warp","t":1,"o":2}`))
	f.Add(withUnknown)
	// Input that is not a trace file at all, including the retired
	// single-object format: refused without a panic.
	f.Add([]byte(`{"actions":[{"kind":"write","t":1,"o":10,"d":0}]}`))
	f.Add([]byte(`{"format":"goldilocks-stream"`))
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, dropped, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			// Unusable header: fine, as long as it did not panic. The
			// structured errors — version skew on an intact record, an
			// unreadable line — still hand back a salvage, which must be
			// a valid trace.
			var rep *report.Report
			if errors.As(err, &rep) {
				if rep.Kind != report.Corruption {
					t.Fatalf("stream reader produced report kind %v", rep.Kind)
				}
				if verr := tr.Validate(); verr != nil {
					t.Fatalf("salvage alongside skew report invalid: %v", verr)
				}
			}
			return
		}
		if dropped < 0 {
			t.Fatalf("negative dropped count %d", dropped)
		}
		// Salvaged prefixes are full-fledged traces: valid and
		// round-trippable with zero drops.
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("salvaged trace invalid: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteTrace(&buf, tr); werr != nil {
			t.Fatalf("re-serialize: %v", werr)
		}
		tr2, dropped2, rerr := ReadTrace(&buf)
		if rerr != nil || dropped2 != 0 {
			t.Fatalf("round trip: err=%v dropped=%d", rerr, dropped2)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip length %d, want %d", tr2.Len(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if tr2.At(i).String() != tr.At(i).String() {
				t.Fatalf("round trip action %d: %v != %v", i, tr2.At(i), tr.At(i))
			}
		}
	})
}

// TestStreamSalvageTruncatedPrefix pins the salvage behavior the fuzz
// target relies on: cutting a stream mid-record yields the preceding
// records and counts the torn one as dropped.
func TestStreamSalvageTruncatedPrefix(t *testing.T) {
	sample := sampleStream(t)
	lines := strings.SplitAfter(string(sample), "\n")
	// Header + 12 records (+ trailing empty split).
	if len(lines) < 13 {
		t.Fatalf("unexpected sample layout: %d lines", len(lines))
	}
	// Keep the header and first 5 records, then tear record 6 in half.
	torn := strings.Join(lines[:6], "") + lines[6][:len(lines[6])/2]
	tr, dropped, err := ReadTrace(strings.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5 {
		t.Fatalf("salvaged %d actions, want 5", tr.Len())
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the torn record)", dropped)
	}
	if verr := tr.Validate(); verr != nil {
		t.Fatalf("salvaged prefix invalid: %v", verr)
	}
}
