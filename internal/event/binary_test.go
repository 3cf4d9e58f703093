package event

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// sampleTrace is the shared valid-trace fixture covering every kind,
// including the channel vocabulary and a commit with read/write sets.
func sampleTrace() *Trace {
	return NewBuilder().
		Fork(1, 2).
		Acquire(1, 7).
		Write(1, 10, 0).
		Release(1, 7).
		Acquire(2, 7).
		Read(2, 10, 0).
		Release(2, 7).
		VolatileWrite(1, 1, 0).
		VolatileRead(2, 1, 0).
		Commit(2, []Variable{{Obj: 10, Field: 1}}, []Variable{{Obj: 11, Field: 0}}).
		Alloc(1, 42).
		ChanMake(1, 30, 1).
		ChanSend(1, 30).
		ChanRecv(2, 30).
		ChanClose(1, 30).
		Join(1, 2).
		Trace()
}

// sampleBin encodes sampleTrace as a binary stream: the header frame,
// then one event frame per action.
func sampleBin() []byte {
	buf := BinHeaderFrame()
	for _, a := range sampleTrace().Actions() {
		buf = AppendEventFrame(buf, a, 0)
	}
	return buf
}

// decodeFrames reads a binary stream the way the goldilocksd ingest
// loop does: a header frame, then event frames until the first error.
// It returns the actions decoded before that error and the error, which
// is nil at a clean end of stream.
func decodeFrames(data []byte) ([]Action, error) {
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(data)))
	typ, body, err := fr.Next()
	if err != nil {
		return nil, err
	}
	if typ != FrameHeader {
		return nil, fmt.Errorf("first frame has type %#x, want a header", typ)
	}
	if err := CheckBinHeader(body); err != nil {
		return nil, err
	}
	var out []Action
	for {
		typ, body, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if typ != FrameEvent {
			return out, fmt.Errorf("unexpected frame type %#x", typ)
		}
		a, _, err := DecodeEventFrame(body)
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}

// TestBinaryGoldenVectors pins the wire encoding byte for byte. A
// failure here means the format changed: bump BinFormatVersion and
// teach the reader the old layout before touching these strings.
func TestBinaryGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		a    Action
		span uint64
		hex  string
	}{
		{"plain-write", Action{Kind: KindWrite, Thread: 1, Obj: 10}, 0,
			"8b80800002000202140000105e15c1"},
		{"span-read", Action{Kind: KindRead, Thread: 2, Obj: 10, Field: 3}, 0x9d,
			"8d808000020101041406009d014bdf503a"},
		{"acquire-lockfield", Action{Kind: KindAcquire, Thread: 1, Obj: 7, Field: LockField}, 0,
			"8b808000020003020e01004760dff4"},
		{"chan-send-slot", Action{Kind: KindChanSend, Thread: 1, Obj: 30, Field: ChanSlotField(2)}, 0,
			"8b80800002000c023c23004880d2f6"},
		{"chan-close", Action{Kind: KindChanClose, Thread: 1, Obj: 30, Field: ChanClosedField}, 7,
			"8c80800002010e023c030007538d65e7"},
		{"fork", Action{Kind: KindFork, Thread: 1, Peer: 2}, 0,
			"8b80800002000702000004d51eb715"},
		{"commit-sets", Action{Kind: KindCommit, Thread: 2,
			Reads:  []Variable{{Obj: 10, Field: 1}, {Obj: 11, Field: LockField}},
			Writes: []Variable{{Obj: 12, Field: 0}}}, 0x1234,
			"9580800002030904000000b4240214021601011800925c7c4b"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := AppendEventFrame(nil, c.a, c.span)
			if hex.EncodeToString(got) != c.hex {
				t.Fatalf("encode = %s, want %s", hex.EncodeToString(got), c.hex)
			}
			// And the pinned bytes decode back to the same action.
			want, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatal(err)
			}
			fr := NewFrameReader(bufio.NewReader(bytes.NewReader(want)))
			typ, body, err := fr.Next()
			if err != nil || typ != FrameEvent {
				t.Fatalf("Next: typ=%#x err=%v", typ, err)
			}
			a, span, err := DecodeEventFrame(body)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != c.a.String() || span != c.span {
				t.Fatalf("decode = %v span %#x, want %v span %#x", a, span, c.a, c.span)
			}
			if len(a.Reads) != len(c.a.Reads) || len(a.Writes) != len(c.a.Writes) {
				t.Fatalf("decode sets = %v/%v, want %v/%v", a.Reads, a.Writes, c.a.Reads, c.a.Writes)
			}
		})
	}
	const wantHeader = "9a8080000101676f6c64696c6f636b732d62696e73747265616d6961e614"
	if got := hex.EncodeToString(BinHeaderFrame()); got != wantHeader {
		t.Fatalf("header frame = %s, want %s", got, wantHeader)
	}
}

// TestBinaryMinimalLengthPrefix checks that readers accept a minimally
// encoded length prefix, not just the padded form writers emit.
func TestBinaryMinimalLengthPrefix(t *testing.T) {
	padded := AppendEventFrame(nil, Action{Kind: KindWrite, Thread: 1, Obj: 10}, 0)
	// Padded prefix is 4 bytes; the minimal encoding of any m < 128 is 1.
	minimal := append([]byte{padded[0] &^ 0x80}, padded[4:]...)
	fr := NewFrameReader(bufio.NewReader(bytes.NewReader(minimal)))
	typ, body, err := fr.Next()
	if err != nil || typ != FrameEvent {
		t.Fatalf("Next on minimal prefix: typ=%#x err=%v", typ, err)
	}
	a, _, err := DecodeEventFrame(body)
	if err != nil || a.Kind != KindWrite {
		t.Fatalf("decode: a=%v err=%v", a, err)
	}
}

// TestBinaryRoundTrip encodes the full-vocabulary sample and decodes
// it back with no error and identical actions.
func TestBinaryRoundTrip(t *testing.T) {
	want := sampleTrace()
	got, err := decodeFrames(sampleBin())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want.Len() {
		t.Fatalf("round trip length %d, want %d", len(got), want.Len())
	}
	for i, a := range got {
		if a.String() != want.At(i).String() {
			t.Fatalf("action %d: %v != %v", i, a, want.At(i))
		}
	}
}

// TestBinarySalvageTorn cuts the sample mid-frame: every frame before
// the cut decodes and the reader reports ErrTornFrame.
func TestBinarySalvageTorn(t *testing.T) {
	sample := sampleBin()
	for _, cut := range []int{len(sample) - 1, len(sample) - 5, len(sample) - 9} {
		got, err := decodeFrames(sample[:cut])
		if !errors.Is(err, ErrTornFrame) {
			t.Fatalf("cut %d: err = %v, want ErrTornFrame", cut, err)
		}
		if len(got) != sampleTrace().Len()-1 {
			t.Fatalf("cut %d: decoded %d actions, want %d", cut, len(got), sampleTrace().Len()-1)
		}
	}
}

// TestBinarySalvageCorruptCRC flips a payload byte in the middle of the
// stream: the frames before the bad one decode, and the reader reports
// ErrCorruptFrame rather than trusting anything after it.
func TestBinarySalvageCorruptCRC(t *testing.T) {
	corrupt := sampleBin()
	// Flip a byte well past the header frame but before the end.
	corrupt[len(corrupt)/2] ^= 0xff
	got, err := decodeFrames(corrupt)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("err = %v, want ErrCorruptFrame", err)
	}
	if len(got) == 0 || len(got) >= sampleTrace().Len() {
		t.Fatalf("decoded %d of %d actions, want a proper non-empty prefix", len(got), sampleTrace().Len())
	}
}

// TestBinaryUnknownKind feeds an intact frame carrying a future kind:
// the decoder must name the kind (version skew) rather than call the
// frame corrupt.
func TestBinaryUnknownKind(t *testing.T) {
	stream := AppendEventFrame(BinHeaderFrame(), Action{Kind: KindWrite, Thread: 1, Obj: 10}, 0)
	// Hand-build an intact frame with kind byte 200.
	body := []byte{0 /* flags */, 200 /* kind */, 2, 0, 0, 0}
	stream = AppendFrame(stream, FrameEvent, body)
	got, err := decodeFrames(stream)
	var unk *errUnknownBinKind
	if !errors.As(err, &unk) || unk.kind != 200 {
		t.Fatalf("err = %v, want the unknown-kind error for kind 200", err)
	}
	if !strings.Contains(err.Error(), "kind 200") {
		t.Fatalf("error does not name the kind: %q", err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d actions before the unknown kind, want 1", len(got))
	}
}

// TestBinaryEncodeZeroAlloc pins the zero-alloc encode contract: with a
// warm reused buffer, AppendEventFrame allocates nothing.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	a := Action{Kind: KindWrite, Thread: 1, Obj: 10, Field: 3}
	buf := AppendEventFrame(nil, a, 99) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendEventFrame(buf[:0], a, 99)
	})
	if allocs != 0 {
		t.Fatalf("AppendEventFrame allocates %.1f times per op, want 0", allocs)
	}
}

// FuzzBinaryStream throws arbitrary bytes at the wire decoder
// (FrameReader + DecodeEventFrame). Robustness contract: never panic,
// and the actions decoded before any error re-encode to a stream that
// decodes back to the same actions.
func FuzzBinaryStream(f *testing.F) {
	sample := sampleBin()
	f.Add(sample)
	f.Add(BinHeaderFrame())
	f.Add(sample[:len(sample)-3])           // torn final frame
	f.Add(sample[:len(BinHeaderFrame())+2]) // torn first event frame
	f.Add([]byte("not a stream at all"))
	corrupt := append([]byte(nil), sample...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _ := decodeFrames(data)
		stream := BinHeaderFrame()
		for _, a := range got {
			stream = AppendEventFrame(stream, a, 0)
		}
		again, rerr := decodeFrames(stream)
		if rerr != nil || len(again) != len(got) {
			t.Fatalf("round trip: err=%v, %d actions, want %d", rerr, len(again), len(got))
		}
		for i := range got {
			if again[i].String() != got[i].String() {
				t.Fatalf("round trip action %d: %v != %v", i, again[i], got[i])
			}
		}
	})
}
