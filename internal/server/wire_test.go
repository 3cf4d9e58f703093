package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"goldilocks/internal/conformance"
	"goldilocks/internal/event"
	"goldilocks/internal/scenarios"
)

// racyScenario returns a scenario the engine reports a race on, so the
// wire tests exercise the verdict path, not just acks.
func racyScenario(t *testing.T) scenarios.Scenario {
	t.Helper()
	for _, sc := range scenarios.All() {
		if sc.Racy {
			return sc
		}
	}
	t.Fatal("no racy scenario in the corpus")
	return scenarios.Scenario{}
}

// streamWith streams sc through a fresh session with the given dial
// config and checks verdict parity.
func streamWith(t *testing.T, addr, session string, cfg DialConfig) {
	t.Helper()
	sc := racyScenario(t)
	c, err := DialContext(context.Background(), addr, session, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < sc.Trace.Len(); i++ {
		if err := c.Send(sc.Trace.At(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	mid, err := c.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if mid.Applied != uint64(sc.Trace.Len()) {
		t.Fatalf("flush ack applied=%d, want %d", mid.Applied, sc.Trace.Len())
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if !c.Resumed() && ack.Applied != uint64(sc.Trace.Len()) {
		t.Fatalf("final ack applied=%d, want %d", ack.Applied, sc.Trace.Len())
	}
	if ack.Stats == nil || len(ack.RuleFires) == 0 {
		t.Fatalf("final ack missing stats/rule fires: %+v", ack)
	}
	backend := func(*event.Trace) (conformance.BackendResult, error) {
		return conformance.BackendResult{Races: c.Races()}, nil
	}
	if div := conformance.CheckBackend("wire", backend, sc.Trace); div != nil {
		t.Errorf("verdict divergence: %v", div)
	}
}

// TestHandshakeFormatMatrix: a current client and server complete the
// version-2 handshake and deliver identical verdicts over the binary
// stream. Older clients are refused at the handshake (see
// TestRejectsBadHandshake).
func TestHandshakeFormatMatrix(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t.Run("new-client-new-server-binary", func(t *testing.T) {
		streamWith(t, srv.Addr(), "matrix-bin", DialConfig{})
	})
}

// TestCorruptRecordReported requires a checksum-corrupt event frame to
// be reported as a protocol error, not silently applied or dropped.
func TestCorruptRecordReported(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	h, _ := json.Marshal(hello{Proto: ProtoName, Version: ProtoVersion, Session: "corrupt"})
	conn.Write(append(h, '\n'))
	br := bufio.NewReader(conn)
	if _, err := event.ReadLine(br); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	frame := event.AppendEventFrame(nil, event.Read(1, 1, 0), 0)
	frame[len(frame)-1] ^= 0xff // flip a CRC byte
	conn.Write(append(event.BinHeaderFrame(), frame...))
	typ, body, err := event.NewFrameReader(br).Next()
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if typ != frameErr || !bytes.Contains(body, []byte("corrupt")) {
		t.Fatalf("expected a corrupt-frame error, got frame 0x%02x %q", typ, body)
	}
}

// TestBinaryProgressWatermark checks the batched unsolicited acks: a
// binary client learns server progress without issuing a single
// control round trip, and the solicited flush ack is not consumed by
// the watermark path.
func TestBinaryProgressWatermark(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sc := racyScenario(t)
	c, err := DialContext(context.Background(), srv.Addr(), "watermark", DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Binary() {
		t.Fatal("expected a binary connection")
	}
	for i := 0; i < sc.Trace.Len(); i++ {
		if err := c.Send(sc.Trace.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Push the frames without a control: the server's batch-boundary
	// progress acks must advance the watermark on their own.
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if applied, _ := c.Progress(); applied == uint64(sc.Trace.Len()) {
			break
		}
		if time.Now().After(deadline) {
			applied, _ := c.Progress()
			t.Fatalf("progress watermark stuck at %d, want %d", applied, sc.Trace.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The watermark advanced with zero solicited acks outstanding, so
	// this round trip must still get its own reply.
	ack, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied != uint64(sc.Trace.Len()) || ack.Stats == nil {
		t.Fatalf("final ack = %+v, want applied %d with stats", ack, sc.Trace.Len())
	}
}

// fuzzSrv is the shared daemon for FuzzHandshake; one per fuzz worker
// process.
var (
	fuzzSrvOnce sync.Once
	fuzzSrvAddr string
)

// FuzzHandshake throws arbitrary bytes at a live daemon's handshake and
// early stream: the server must always answer the first line with a
// welcome (or drop the connection) and never wedge or crash, whatever
// the bytes — truncated hellos, JSON where binary frames belong, torn
// frames after a valid handshake.
func FuzzHandshake(f *testing.F) {
	h, _ := json.Marshal(hello{Proto: ProtoName, Version: ProtoVersion, Session: "fuzz"})
	okHello := append(h, '\n')
	withHeader := append(append([]byte{}, okHello...), event.BinHeaderFrame()...)
	f.Add([]byte("garbage\n"))
	f.Add(okHello)
	f.Add(withHeader)
	// A valid handshake followed by a torn event frame.
	f.Add(append(append([]byte{}, withHeader...),
		event.AppendEventFrame(nil, event.Action{Kind: event.KindRead, Thread: 1, Obj: 1}, 0)[:7]...))
	// The retired line-JSON stream header where the binary one belongs.
	f.Add(append(append([]byte{}, okHello...), event.AppendHeader(nil, event.StreamFormatName, event.StreamFormatVersion)...))
	// A valid handshake followed by an unknown control verb.
	f.Add(append(append([]byte{}, withHeader...), event.AppendFrame(nil, event.FrameCtl, []byte{9})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSrvOnce.Do(func() {
			srv, err := New("127.0.0.1:0", Config{Queue: 4, Batch: 2})
			if err != nil {
				t.Fatalf("starting fuzz server: %v", err)
			}
			fuzzSrvAddr = srv.Addr()
		})
		conn, err := net.Dial("tcp", fuzzSrvAddr)
		if err != nil {
			t.Skip("dial failed; server saturated")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		conn.Write(data)
		if tcp, ok := conn.(*net.TCPConn); ok {
			tcp.CloseWrite()
		}
		// Drain whatever the server says until it closes our connection.
		// A wedged server (no reply, no close) trips the deadline.
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
					t.Fatalf("server wedged on input %q", data)
				}
				return
			}
		}
	})
}
