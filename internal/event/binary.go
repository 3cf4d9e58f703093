package event

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"goldilocks/internal/report"
)

// The binary stream format is the length-prefixed counterpart of the
// line-JSON streaming format: the same actions, the same per-record
// integrity checking, the same salvage-the-valid-prefix durability
// story, at a fraction of the bytes and the encode/decode cost. It is
// both a trace-file format (WriteTraceBin/ReadTraceBin, sniffed by
// ReadTraceAuto) and the goldilocksd wire format ("goldilocks-bin",
// spoken after the handshake — internal/server).
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

// BinFormatName identifies the binary stream format. It deliberately
// does not contain StreamFormatName as a substring, so ReadTraceAuto
// can sniff the two formats independently.
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

// MaxFrameLen bounds one frame (length prefix excluded). A commit's
// read/write sets are the only unbounded payload; 16 MiB matches the
// line-JSON scanner's record bound.
const MaxFrameLen = 16 << 20

// minFrameLen is type byte + checksum: the smallest well-formed m.
const minFrameLen = 5

// Frame-decode errors. ErrTornFrame means the stream ended inside a
// frame (what a crash or a cut connection leaves behind);
// ErrCorruptFrame means the frame is structurally intact but fails its
// checksum or bounds. Both end a salvage; see ReadTraceBin.
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
// counterpart of EncodeRecord, plus an optional trace span id — and
// returns the extended slice. It
// allocates nothing beyond dst's growth, so a streaming sender reusing
// dst reaches steady-state zero allocations per event.
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

// BinWriter writes actions incrementally in the binary stream format,
// with the same auto-flush durability contract as StreamWriter. The
// encode buffer is reused across Appends, so steady-state appends
// allocate nothing.
type BinWriter struct {
	w       *bufio.Writer
	buf     []byte
	err     error
	pending int
}

// NewBinWriter writes and flushes the header frame and returns a
// writer ready for Append calls.
func NewBinWriter(w io.Writer) (*BinWriter, error) {
	bw := &BinWriter{w: bufio.NewWriter(w)}
	if _, err := bw.w.Write(BinHeaderFrame()); err != nil {
		return nil, fmt.Errorf("event: writing binary stream header: %w", err)
	}
	if err := bw.w.Flush(); err != nil {
		return nil, fmt.Errorf("event: flushing binary stream header: %w", err)
	}
	return bw, nil
}

// Append writes one action frame. After the first error every
// subsequent Append is a no-op returning that error.
func (bw *BinWriter) Append(a Action) error { return bw.AppendSpan(a, 0) }

// AppendSpan is Append with a trace span id riding the frame.
func (bw *BinWriter) AppendSpan(a Action, span uint64) error {
	if bw.err != nil {
		return bw.err
	}
	bw.buf = AppendEventFrame(bw.buf[:0], a, span)
	if _, err := bw.w.Write(bw.buf); err != nil {
		bw.err = fmt.Errorf("event: writing binary stream frame: %w", err)
		return bw.err
	}
	bw.pending++
	if bw.pending >= autoFlushRecords || bw.w.Buffered() >= autoFlushBytes {
		if err := bw.w.Flush(); err != nil {
			bw.err = fmt.Errorf("event: flushing binary stream frames: %w", err)
			return bw.err
		}
		bw.pending = 0
	}
	return nil
}

// Flush flushes buffered frames to the underlying writer.
func (bw *BinWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = fmt.Errorf("event: flushing binary stream frames: %w", err)
		return bw.err
	}
	bw.pending = 0
	return nil
}

// Close flushes buffered frames and marks the writer finished.
func (bw *BinWriter) Close() error {
	if err := bw.Flush(); err != nil {
		return err
	}
	bw.err = fmt.Errorf("event: binary stream writer closed")
	return nil
}

// WriteTraceBin writes a whole trace in the binary stream format.
func WriteTraceBin(w io.Writer, tr *Trace) error {
	bw, err := NewBinWriter(w)
	if err != nil {
		return err
	}
	for i := 0; i < tr.Len(); i++ {
		if err := bw.Append(tr.At(i)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceBin reads a binary stream trace, salvaging the longest valid
// prefix, mirroring ReadTraceStream's contract with one strengthening:
// a torn or checksum-failing frame also returns a structured
// *report.Report (Corruption kind, the same type as resilience.Report),
// because a binary frame boundary — unlike a JSON line boundary —
// distinguishes a crash-truncated tail from a clean end of stream. An
// intact frame with an unknown kind (version skew) reports the same
// way, naming the kind. A frame whose action is invalid after the
// salvaged prefix ends the salvage silently, as in the JSON reader.
func ReadTraceBin(r io.Reader) (tr *Trace, dropped int, err error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64*1024)
	}
	fr := NewFrameReader(br)
	typ, body, ferr := fr.Next()
	if ferr != nil {
		return nil, 0, fmt.Errorf("event: missing binary stream header: %w", ferr)
	}
	if typ != FrameHeader {
		return nil, 0, fmt.Errorf("event: not a %s stream", BinFormatName)
	}
	if err := CheckBinHeader(body); err != nil {
		return nil, 0, err
	}

	var actions []Action
	var rep *report.Report
	val := NewValidator()
	frame := 0
	bad := false
	for {
		typ, body, ferr := fr.Next()
		if ferr == io.EOF {
			break
		}
		frame++
		if ferr != nil {
			// Torn or corrupt frame: the length of anything after it is
			// untrustworthy, so the salvage ends here.
			dropped++
			rep = &report.Report{
				Kind:   report.Corruption,
				Detail: fmt.Sprintf("binary stream frame %d: %v (valid prefix of %d records salvaged)", frame, ferr, len(actions)),
			}
			break
		}
		if bad {
			dropped++
			continue
		}
		if typ != FrameEvent {
			dropped++
			bad = true
			rep = &report.Report{
				Kind:   report.Corruption,
				Detail: fmt.Sprintf("binary stream frame %d: unexpected frame type 0x%02x", frame, typ),
			}
			continue
		}
		a, _, derr := DecodeEventFrame(body)
		if derr != nil {
			dropped++
			bad = true
			var unk *errUnknownBinKind
			if errors.As(derr, &unk) {
				rep = &report.Report{
					Kind: report.Corruption,
					Detail: fmt.Sprintf("unknown event kind %d in intact frame %d (binary stream version <= %d reader; writer is newer)",
						unk.kind, frame, BinFormatVersion),
				}
			} else {
				rep = &report.Report{
					Kind:   report.Corruption,
					Detail: fmt.Sprintf("binary stream frame %d: %v", frame, derr),
				}
			}
			continue
		}
		if val.Step(a) != nil {
			dropped++
			bad = true
			continue
		}
		actions = append(actions, a)
	}
	if rep != nil {
		return NewTrace(actions), dropped, rep
	}
	return NewTrace(actions), dropped, nil
}
