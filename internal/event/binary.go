package event

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The binary stream format is the goldilocksd wire format
// ("goldilocks-bin", spoken after the handshake — internal/server): the
// length-prefixed counterpart of the JSONL trace file format, with the
// same actions and the same per-record integrity checking at a fraction
// of the bytes and the encode/decode cost. It is a wire format only;
// trace files are always JSONL (WriteTrace/ReadTrace).
//
// Every frame is
//
//	uvarint(m) | type byte | body (m-5 bytes) | crc32-IEEE (4 bytes, LE)
//
// where m counts everything after the length prefix and the checksum
// covers the type byte and the body. The length prefix is written as a
// fixed-width (zero-padded) four-byte uvarint so an event frame can be
// encoded into a caller-reused buffer in one pass with no allocation:
// the length hole is patched after the body and checksum are in place.
// Readers accept any uvarint encoding, padded or minimal.
//
// Integer fields use zigzag varints (Obj and Field are negative for
// the lock pseudo-field, the channel closed element, and conveyor
// slots); the span id uses a plain uvarint.

// BinFormatName identifies the binary stream format.
const BinFormatName = "goldilocks-binstream"

// BinFormatVersion is the current binary stream version.
const BinFormatVersion = 1

// BinMinVersion is the oldest binary stream version readers accept.
const BinMinVersion = 1

// Frame types. The event-stream types live here; higher-level
// protocols (the goldilocksd server messages) allocate from 0x10 up
// and reuse the same framing.
const (
	// FrameHeader opens every binary stream: body is uvarint(version)
	// followed by the format name bytes.
	FrameHeader byte = 0x01
	// FrameEvent carries one action record (and optionally a span id).
	FrameEvent byte = 0x02
	// FrameCtl carries a one-byte control verb (client to server).
	FrameCtl byte = 0x03
)

// Event frame flag bits.
const (
	frameFlagSpan byte = 1 << 0 // a span id follows the fixed fields
	frameFlagSets byte = 1 << 1 // commit read/write sets follow
)

// MaxFrameLen bounds one record in either encoding: a binary frame
// (length prefix excluded) or a JSONL trace file line. A commit's
// read/write sets are the only unbounded payload.
const MaxFrameLen = 16 << 20

// minFrameLen is type byte + checksum: the smallest well-formed m.
const minFrameLen = 5

// Frame-decode errors. ErrTornFrame means the stream ended inside a
// frame (what a crash or a cut connection leaves behind);
// ErrCorruptFrame means the frame is structurally intact but fails its
// checksum or bounds. After either, the position of the next frame is
// untrustworthy, so the reader must stop.
var (
	ErrTornFrame    = errors.New("event: torn binary frame")
	ErrCorruptFrame = errors.New("event: corrupt binary frame")
)

// appendPaddedUvarint appends u as a fixed-width four-byte uvarint
// (three continuation bytes, one terminator). Values up to 2^28-1 fit;
// MaxFrameLen is far below that.
func appendPaddedUvarint(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u)|0x80,
		byte(u>>7)|0x80,
		byte(u>>14)|0x80,
		byte(u>>21)&0x7f)
}

// AppendFrame appends one framed payload to dst and returns the
// extended slice. body may be nil.
func AppendFrame(dst []byte, typ byte, body []byte) []byte {
	m := 1 + len(body) + 4
	dst = appendPaddedUvarint(dst, uint64(m))
	payloadStart := len(dst)
	dst = append(dst, typ)
	dst = append(dst, body...)
	crc := crc32.ChecksumIEEE(dst[payloadStart:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// AppendEventFrame appends one action record frame to dst — the binary
// counterpart of a JSONL trace record, plus an optional trace span id —
// and returns the extended slice. It allocates nothing beyond dst's
// growth, so a streaming sender reusing dst reaches steady-state zero
// allocations per event.
func AppendEventFrame(dst []byte, a Action, span uint64) []byte {
	start := len(dst)
	dst = appendPaddedUvarint(dst, 0) // length hole, patched below
	payloadStart := len(dst)
	dst = append(dst, FrameEvent)

	var flags byte
	if span != 0 {
		flags |= frameFlagSpan
	}
	if len(a.Reads) > 0 || len(a.Writes) > 0 {
		flags |= frameFlagSets
	}
	dst = append(dst, flags, byte(a.Kind))
	dst = binary.AppendVarint(dst, int64(a.Thread))
	dst = binary.AppendVarint(dst, int64(a.Obj))
	dst = binary.AppendVarint(dst, int64(a.Field))
	dst = binary.AppendVarint(dst, int64(a.Peer))
	if flags&frameFlagSpan != 0 {
		dst = binary.AppendUvarint(dst, span)
	}
	if flags&frameFlagSets != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(a.Reads)))
		for _, v := range a.Reads {
			dst = binary.AppendVarint(dst, int64(v.Obj))
			dst = binary.AppendVarint(dst, int64(v.Field))
		}
		dst = binary.AppendUvarint(dst, uint64(len(a.Writes)))
		for _, v := range a.Writes {
			dst = binary.AppendVarint(dst, int64(v.Obj))
			dst = binary.AppendVarint(dst, int64(v.Field))
		}
	}

	crc := crc32.ChecksumIEEE(dst[payloadStart:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	m := uint64(len(dst) - payloadStart)
	patched := appendPaddedUvarint(dst[start:start], m)
	_ = patched // writes in place into the hole
	return dst
}

// binReader wraps a byte slice for sequential varint decoding.
type binReader struct {
	b   []byte
	err bool
}

func (r *binReader) byte() byte {
	if r.err || len(r.b) == 0 {
		r.err = true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *binReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// errUnknownBinKind marks an intact event frame carrying a kind byte
// this reader does not know: version skew, not corruption.
type errUnknownBinKind struct{ kind byte }

func (e *errUnknownBinKind) Error() string {
	return fmt.Sprintf("event: unknown binary event kind %d", e.kind)
}

// DecodeEventFrame parses an event frame body (the bytes between the
// type byte and the checksum — ReadFrame's body). The returned error is
// *errUnknownBinKind for an intact frame from a newer writer and
// ErrCorruptFrame for a structurally bad body.
func DecodeEventFrame(body []byte) (Action, uint64, error) {
	r := binReader{b: body}
	flags := r.byte()
	kind := r.byte()
	a := Action{
		Kind:   Kind(kind),
		Thread: Tid(r.varint()),
		Obj:    Addr(r.varint()),
		Field:  FieldID(r.varint()),
		Peer:   Tid(r.varint()),
	}
	var span uint64
	if flags&frameFlagSpan != 0 {
		span = r.uvarint()
	}
	if flags&frameFlagSets != 0 {
		nr := r.uvarint()
		if r.err || nr > uint64(len(r.b)) {
			return Action{}, 0, ErrCorruptFrame
		}
		a.Reads = make([]Variable, nr)
		for i := range a.Reads {
			a.Reads[i] = Variable{Obj: Addr(r.varint()), Field: FieldID(r.varint())}
		}
		nw := r.uvarint()
		if r.err || nw > uint64(len(r.b)) {
			return Action{}, 0, ErrCorruptFrame
		}
		a.Writes = make([]Variable, nw)
		for i := range a.Writes {
			a.Writes[i] = Variable{Obj: Addr(r.varint()), Field: FieldID(r.varint())}
		}
	}
	if r.err || len(r.b) != 0 {
		return Action{}, 0, ErrCorruptFrame
	}
	if int(kind) >= len(kindNames) || Kind(kind) == KindInvalid {
		return Action{}, 0, &errUnknownBinKind{kind: kind}
	}
	return a, span, nil
}

// BinHeaderFrame returns the header frame that opens every binary
// stream.
func BinHeaderFrame() []byte {
	body := binary.AppendUvarint(nil, BinFormatVersion)
	body = append(body, BinFormatName...)
	return AppendFrame(nil, FrameHeader, body)
}

// CheckBinHeader verifies a header frame body. Every version in
// [BinMinVersion, BinFormatVersion] is readable.
func CheckBinHeader(body []byte) error {
	r := binReader{b: body}
	v := r.uvarint()
	if r.err || string(r.b) != BinFormatName {
		return fmt.Errorf("event: not a %s stream", BinFormatName)
	}
	if v < BinMinVersion || v > BinFormatVersion {
		return fmt.Errorf("event: unsupported binary stream version %d (reader supports %d..%d)",
			v, BinMinVersion, BinFormatVersion)
	}
	return nil
}

// FrameReader reads frames sequentially, reusing one buffer: the body
// it returns is valid only until the next call.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over br.
func NewFrameReader(br *bufio.Reader) *FrameReader {
	return &FrameReader{br: br}
}

// Next reads one frame and returns its type and body. io.EOF means the
// stream ended cleanly at a frame boundary; ErrTornFrame that it ended
// inside a frame; ErrCorruptFrame a bad length or checksum. Any other
// error is an underlying read error.
func (fr *FrameReader) Next() (typ byte, body []byte, err error) {
	m, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean end: no bytes of a next frame
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTornFrame
		}
		return 0, nil, err
	}
	if m < minFrameLen || m > MaxFrameLen {
		return 0, nil, ErrCorruptFrame
	}
	if uint64(cap(fr.buf)) < m {
		fr.buf = make([]byte, m)
	}
	buf := fr.buf[:m]
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTornFrame
		}
		return 0, nil, err
	}
	payload, sum := buf[:m-4], binary.LittleEndian.Uint32(buf[m-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, ErrCorruptFrame
	}
	return payload[0], payload[1:], nil
}
