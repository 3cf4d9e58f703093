package event

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTraceJSONRoundTrip: every action of the full-vocabulary sample
// survives MarshalAction/UnmarshalAction — the one Action<->JSON mapping
// behind trace file records, race reports and checkpoints — and an
// unknown kind name is refused, not decoded as some other kind.
func TestTraceJSONRoundTrip(t *testing.T) {
	for _, a := range sampleTrace().Actions() {
		data := MarshalAction(a)
		back, err := UnmarshalAction(data)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if back.String() != a.String() || back.Peer != a.Peer || back.Field != a.Field {
			t.Errorf("round trip %v -> %s -> %v", a, data, back)
		}
	}
	for _, src := range []string{`{"kind":"teleport","t":1}`, `{"kind":"invalid","t":1}`} {
		if a, err := UnmarshalAction([]byte(src)); err == nil || !strings.Contains(err.Error(), "unknown action kind") {
			t.Errorf("UnmarshalAction(%s) = %v, %v; want an unknown-kind error", src, a, err)
		}
	}
}

// TestAppendJSONMatchesMarshal: the reflection-free encoder writes
// exactly what json.Marshal of the JSONAction decoders read writes, zero
// and negative fields, empty commit sets and an out-of-range kind
// included.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	actions := append(sampleTrace().Actions(),
		Action{},
		Action{Kind: KindCommit, Thread: -3, Reads: []Variable{}, Writes: []Variable{{Obj: -7, Field: -1}, {}}},
		Action{Kind: KindWrite, Thread: 1, Obj: 1 << 40, Field: 1<<31 - 1, Peer: -1},
		Action{Kind: Kind(200), Thread: 2},
	)
	for _, a := range actions {
		want, err := json.Marshal(JSONAction{
			Kind: a.Kind.String(), Thread: a.Thread, Obj: a.Obj, Field: a.Field,
			Peer: a.Peer, Reads: a.Reads, Writes: a.Writes,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSON([]byte("x"), a); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendJSON(%v) = %s, json.Marshal %s", a, got, want)
		}
	}
}

// TestReadTraceRejectsGarbage: input that does not open with a trace
// file header is refused as a whole, including a file in the retired
// single-object format.
func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"actions":[{"kind":"write","t":1,"o":10}]}`,
		`{"a":{"kind":"write","t":1,"o":10},"crc":"00000000"}`,
		`{"format":"goldilocks-binstream","version":1}`,
	}
	for _, src := range cases {
		if tr, _, err := ReadTrace(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q as a %d-action trace", src, tr.Len())
		}
	}
}

// TestWriteTraceIsReadable: trace files keep greppable kind names.
func TestWriteTraceIsReadable(t *testing.T) {
	tr := NewBuilder().Write(1, 10, 0).Trace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"format":"goldilocks-stream"`, `"kind":"write"`, `"t":1`, `"o":10`} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized trace missing %q:\n%s", want, out)
		}
	}
}
