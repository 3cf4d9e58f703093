package event

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// The record file format. Trace files, engine and checker checkpoints,
// session checkpoints and flight-recorder dumps are all line-delimited
// JSON: a header line naming the format and its version, then record
// lines, each holding one JSON body under a key together with the
// CRC-32 (IEEE) of the body's bytes:
//
//	{"format":"goldilocks-stream","version":2}
//	{"a":{"kind":"acq","t":1,"o":2},"crc":"7f1c0d3a"}
//	...
//
// A torn write or bit rot therefore shows up as a bad record, never as
// a wrong result. A header may carry more fields than the two (a
// session checkpoint's id, a dump's reason), and a record line may carry
// unknown keys; readers here ignore both. This file is the one copy of
// the framing; each format owns only its name, its version range and
// what its bodies mean (see docs/ROBUSTNESS.md).

// AppendHeader appends the header line of format name at version.
// Format names, like record keys, are identifiers JSON needs no
// escapes for.
func AppendHeader(dst []byte, name string, version int) []byte {
	dst = append(dst, `{"format":"`...)
	dst = append(dst, name...)
	dst = append(dst, `","version":`...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	return append(dst, "}\n"...)
}

// CheckHeader verifies that line is the header of format name at a
// version in [minVersion, maxVersion].
func CheckHeader(line []byte, name string, minVersion, maxVersion int) error {
	var hdr struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != name {
		return fmt.Errorf("not a %s file", name)
	}
	if hdr.Version < minVersion || hdr.Version > maxVersion {
		return fmt.Errorf("unsupported %s version %d (reader supports %d..%d)",
			name, hdr.Version, minVersion, maxVersion)
	}
	return nil
}

// OpenRecord appends the start of a record line whose body is stored
// under key, and returns where the body starts. The caller appends the
// body in place and ends the line with CloseRecord.
func OpenRecord(dst []byte, key string) ([]byte, int) {
	dst = append(dst, `{"`...)
	dst = append(dst, key...)
	dst = append(dst, `":`...)
	return dst, len(dst)
}

// CloseRecord ends the record line opened at start, whose body is
// dst[start:], with the body's checksum and a newline.
func CloseRecord(dst []byte, start int) []byte {
	crc := crcHex(dst[start:])
	dst = append(dst, `,"crc":"`...)
	dst = append(dst, crc[:]...)
	return append(dst, "\"}\n"...)
}

// AppendRecord appends a whole record line holding body under key.
func AppendRecord(dst []byte, key string, body []byte) []byte {
	dst, start := OpenRecord(dst, key)
	return CloseRecord(append(dst, body...), start)
}

// ReadRecord verifies one record line and returns the body stored
// under key. A line laid out as the writers here lay it out is checked
// without a JSON parse; the caller's decode of the body checks its
// syntax. Any other line is parsed as a JSON object.
func ReadRecord(line []byte, key string) ([]byte, error) {
	open := len(key) + 4 // {"key":
	if n := len(line) - len(`,"crc":"00000000"}`); n > open &&
		string(line[:open]) == `{"`+key+`":` && string(line[n:n+8]) == `,"crc":"` && string(line[n+16:]) == `"}` {
		if crc := crcHex(line[open:n]); string(crc[:]) == string(line[n+8:n+16]) {
			return line[open:n], nil
		}
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(line, &rec); err != nil || len(rec[key]) == 0 {
		return nil, fmt.Errorf("unreadable %q record", key)
	}
	var want string
	json.Unmarshal(rec["crc"], &want) // a missing or non-string crc stays "" and mismatches
	if got := crcHex(rec[key]); string(got[:]) != want {
		return nil, fmt.Errorf("%q record checksum mismatch (got %s, recorded %s)", key, got[:], want)
	}
	return rec[key], nil
}

// crcHex is the checksum of body as the record line writes it, %08x.
func crcHex(body []byte) (hex [8]byte) {
	crc := crc32.ChecksumIEEE(body)
	for i := range hex {
		hex[i] = "0123456789abcdef"[crc>>(28-4*i)&0xf]
	}
	return hex
}

// ReadLine reads one newline-terminated line without the newline and
// consumes nothing past it, so a reader can hand the same br on to the
// format nested after its own lines (a session checkpoint's engine
// snapshot). A final line without a newline is accepted; an empty read
// returns io.EOF.
func ReadLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	switch {
	case err == nil:
		return line[:len(line)-1], nil
	case err == io.EOF && len(line) > 0:
		return line, nil
	}
	return nil, err
}
