package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"goldilocks/internal/core"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
)

// The binary wire protocol reuses internal/event's frame layout (padded
// uvarint length | type | body | crc32) in both directions. Client to
// server it is exactly the binary trace stream — a header frame, then
// event frames — plus one-byte control frames; server to client the
// frame types below carry races, acks, and errors. Races and the final
// ack's stats are JSON payloads inside their frames: they are rare, so
// only the per-event hot path earns a hand-rolled layout.

// Server-to-client frame types. The client-to-server types
// (event.FrameHeader/FrameEvent/FrameCtl) live in internal/event.
const (
	frameRace byte = 0x10 // body: wireRace JSON
	frameAck  byte = 0x11 // body: flags | uvarint applied | uvarint races | [ackTail JSON]
	frameErr  byte = 0x12 // body: the error message string
)

// Binary control verbs: the one-byte body of an event.FrameCtl frame.
const (
	binCtlFlush byte = 1
	binCtlClose byte = 2
)

// Ack frame flag bits. Solicited marks the reply to a flush/close
// control — the only acks a client round trip may consume. Unsolicited
// acks are the batched progress reports the server volunteers at batch
// boundaries; clients fold them into a watermark instead of the ack
// channel.
const (
	ackFlagFinal     byte = 1 << 0
	ackFlagSolicited byte = 1 << 1
	ackFlagTail      byte = 1 << 2 // an ackTail JSON payload follows
)

// ackTail is the JSON tail of a final ack frame: the engine counters
// and rule-fire counts, too rare and too wide to hand-encode.
type ackTail struct {
	Stats     *core.Stats          `json:"stats,omitempty"`
	RuleFires []uint64             `json:"rule_fires,omitempty"`
	Serial    *regiontrack.Summary `json:"serializability,omitempty"`
}

// binWire is the binary downlink. Frame and body buffers are reused, so
// the steady-state progress-ack path allocates nothing.
type binWire struct {
	bw      *bufio.Writer
	buf     []byte // frame scratch
	scratch []byte // body scratch
	// last is the connection's terminal frame, the final ack or an
	// error. The session worker builds it; handleConn sends it only
	// after detaching the session, so a client holding it can reattach.
	last []byte
}

func (w *binWire) frame(typ byte, body []byte) {
	w.buf = event.AppendFrame(w.buf[:0], typ, body)
	w.bw.Write(w.buf)
}

func (w *binWire) race(wr *wireRace) {
	b, err := json.Marshal(wr)
	if err != nil {
		return
	}
	w.frame(frameRace, b)
}

// ack writes an ack frame.
func (w *binWire) ack(a Ack, final, solicited bool) {
	w.frame(frameAck, w.ackBody(a, final, solicited))
}

// ackBody encodes an ack frame body into the body scratch. final marks
// the reply to a close control, solicited any reply to a control (see
// the ack flag bits); the counters and rule fires ride a JSON tail when
// present.
func (w *binWire) ackBody(a Ack, final, solicited bool) []byte {
	var flags byte
	if final {
		flags |= ackFlagFinal
	}
	if solicited {
		flags |= ackFlagSolicited
	}
	var tail []byte
	if a.Stats != nil || a.RuleFires != nil || a.Serial != nil {
		if b, err := json.Marshal(ackTail{Stats: a.Stats, RuleFires: a.RuleFires, Serial: a.Serial}); err == nil {
			tail = b
			flags |= ackFlagTail
		}
	}
	body := append(w.scratch[:0], flags)
	body = binary.AppendUvarint(body, a.Applied)
	body = binary.AppendUvarint(body, a.Races)
	body = append(body, tail...)
	w.scratch = body
	return body
}

func (w *binWire) errMsg(msg string) { w.frame(frameErr, []byte(msg)) }
func (w *binWire) flush() error      { return w.bw.Flush() }

// decodeAckFrame parses an ack frame body into the client's Ack plus
// its solicited flag.
func decodeAckFrame(body []byte) (ack Ack, solicited bool, err error) {
	if len(body) < 1 {
		return Ack{}, false, event.ErrCorruptFrame
	}
	flags := body[0]
	rest := body[1:]
	applied, n := binary.Uvarint(rest)
	if n <= 0 {
		return Ack{}, false, event.ErrCorruptFrame
	}
	rest = rest[n:]
	races, n := binary.Uvarint(rest)
	if n <= 0 {
		return Ack{}, false, event.ErrCorruptFrame
	}
	rest = rest[n:]
	ack = Ack{Applied: applied, Races: races}
	if flags&ackFlagTail != 0 {
		var tail ackTail
		if err := json.Unmarshal(rest, &tail); err != nil {
			return Ack{}, false, fmt.Errorf("server: bad ack tail: %w", err)
		}
		ack.Stats, ack.RuleFires, ack.Serial = tail.Stats, tail.RuleFires, tail.Serial
	}
	return ack, flags&ackFlagSolicited != 0, nil
}
