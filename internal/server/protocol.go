// Package server implements goldilocksd: a long-running detection
// service that accepts event streams over TCP from many concurrent
// client sessions, runs one core.Engine per session, and pushes race
// verdicts (with provenance) back to the clients. Sessions survive
// connection drops and — with a checkpoint directory configured —
// daemon restarts, via the engine checkpoint/restore machinery in
// internal/core.
//
// A connection opens with one JSON handshake line in each direction
// (hello, welcome); the admin protocol shares that first line. After
// the welcome both directions speak the goldilocks-bin framing of
// internal/event: the client sends the binary stream header frame,
// then event and control frames; the server answers with race, ack and
// error frames (binary.go). See docs/SERVICE.md for the full protocol
// and lifecycle story.
package server

import (
	"encoding/json"
	"fmt"

	"goldilocks/internal/detect"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// ProtoName identifies the handshake protocol.
const ProtoName = "goldilocks-service"

// ProtoVersion is the current protocol version. Version 2 retired the
// line-JSON stream: the binary framing is implied after the welcome, so
// a version-1 client is refused with an error welcome rather than left
// waiting on a format it cannot read.
const ProtoVersion = 2

// hello is the first line a client sends.
type hello struct {
	Proto   string `json:"proto"`
	Version int    `json:"version"`
	Session string `json:"session"`
}

// welcome is the server's reply to a hello. Next is the number of
// actions the session has already applied: a resuming client must skip
// that prefix of its linearization and stream from there. In cluster
// mode a node that does not own the session refuses the attach with
// NotOwner set and, when known, the owner's advertised address — the
// client redials there (see DialFleet).
type welcome struct {
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	Resumed  bool   `json:"resumed,omitempty"`
	Next     uint64 `json:"next"`
	NotOwner bool   `json:"not_owner,omitempty"`
	Owner    string `json:"owner,omitempty"`
}

// wireRace is a race verdict pushed to the client, carrying enough to
// rebuild the detect.Race a local engine would have returned: the
// global linearization position, the variable, the completing and
// previous accesses, and the provenance chain.
type wireRace struct {
	Pos     uint64          `json:"pos"`
	Obj     event.Addr      `json:"obj"`
	Field   event.FieldID   `json:"field"`
	Access  json.RawMessage `json:"access"`
	Prev    json.RawMessage `json:"prev,omitempty"`
	HasPrev bool            `json:"has_prev,omitempty"`
	Prov    *obs.Provenance `json:"prov,omitempty"`
}

// encodeRace converts an engine verdict to its wire form. pos is the
// global linearization position of the completing access.
func encodeRace(r detect.Race, pos uint64) (*wireRace, error) {
	access, err := event.MarshalAction(r.Access)
	if err != nil {
		return nil, fmt.Errorf("server: encoding race access: %w", err)
	}
	wr := &wireRace{
		Pos: pos, Obj: r.Var.Obj, Field: r.Var.Field,
		Access: access, HasPrev: r.HasPrev, Prov: r.Prov,
	}
	if r.HasPrev {
		if wr.Prev, err = event.MarshalAction(r.Prev); err != nil {
			return nil, fmt.Errorf("server: encoding race prev: %w", err)
		}
	}
	return wr, nil
}

// decodeRace rebuilds the detect.Race a local run would have produced.
func decodeRace(wr *wireRace) (detect.Race, error) {
	r := detect.Race{
		Var:     event.Variable{Obj: wr.Obj, Field: wr.Field},
		Pos:     int(wr.Pos),
		HasPrev: wr.HasPrev,
		Prov:    wr.Prov,
	}
	var err error
	if r.Access, err = event.UnmarshalAction(wr.Access); err != nil {
		return r, fmt.Errorf("server: decoding race access: %w", err)
	}
	if wr.HasPrev {
		if r.Prev, err = event.UnmarshalAction(wr.Prev); err != nil {
			return r, fmt.Errorf("server: decoding race prev: %w", err)
		}
	}
	return r, nil
}
