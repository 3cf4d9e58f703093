package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"goldilocks/internal/event"
)

// The admin protocol is how cluster peers and goldilocksctl talk to a
// node, on the same listener as detection sessions: the first line's
// "proto" field selects it. One request line (optionally followed by a
// raw byte body of the declared size), one response line (optionally
// followed by a raw byte body), connection closed. Verbs:
//
//	ping        liveness probe; reply carries the advertised name,
//	            draining state, and session count (failure detector)
//	info        list sessions with applied/race counts
//	checkpoint  pull one session's checkpoint bytes (live sessions are
//	            checkpointed between batches, zero verdicts lost)
//	adopt       install a session from checkpoint bytes (migration)
//	replica     store checkpoint bytes as a follower replica
//	drop        remove a detached session and its local checkpoint
//	drain       stop owning sessions: sever connections, checkpoint
//	            and replicate everything, reply with the session list
//	metrics     pull this node's Prometheus exposition (rollup)
//	flight      pull this node's flight-recorder ring as a checksummed
//	            .jsonl dump; a nonempty reason also triggers a local
//	            dump to the node's flight directory
const AdminProtoName = "goldilocks-cluster"

// AdminProtoVersion is the current admin protocol version.
const AdminProtoVersion = 1

// Admin verbs.
const (
	verbPing       = "ping"
	verbInfo       = "info"
	verbCheckpoint = "checkpoint"
	verbAdopt      = "adopt"
	verbReplica    = "replica"
	verbDrop       = "drop"
	verbDrain      = "drain"
	verbMetrics    = "metrics"
	verbFlight     = "flight"
)

// adminReq is the request line of an admin exchange.
type adminReq struct {
	Proto   string `json:"proto"`
	Version int    `json:"version"`
	Verb    string `json:"verb"`
	Session string `json:"session,omitempty"`
	Reason  string `json:"reason,omitempty"` // with verb flight: also dump locally
	Size    int64  `json:"size,omitempty"`   // body bytes that follow
}

// SessionInfo is one session's progress as reported by info and drain.
type SessionInfo struct {
	ID       string `json:"id"`
	Applied  uint64 `json:"applied"`
	Races    uint64 `json:"races"`
	Attached bool   `json:"attached,omitempty"`
}

// PingInfo is what a liveness probe learns about a node.
type PingInfo struct {
	Node     string `json:"node"`
	Draining bool   `json:"draining,omitempty"`
	Sessions int    `json:"sessions"`
}

// adminResp is the response line of an admin exchange.
type adminResp struct {
	OK       bool          `json:"ok"`
	Error    string        `json:"error,omitempty"`
	Node     string        `json:"node,omitempty"`
	Draining bool          `json:"draining,omitempty"`
	Count    int           `json:"count,omitempty"`
	Applied  uint64        `json:"applied,omitempty"`
	Sessions []SessionInfo `json:"sessions,omitempty"`
	Size     int64         `json:"size,omitempty"` // body bytes that follow
}

// maxAdminBody bounds adopt/replica payloads (a session checkpoint).
const maxAdminBody = 1 << 30

// handleAdmin serves one admin exchange. The request line has already
// been consumed and parsed.
func (s *Server) handleAdmin(req adminReq, br *bufio.Reader, bw *bufio.Writer) {
	reply := func(resp adminResp, body []byte) {
		resp.Size = int64(len(body))
		b, _ := json.Marshal(resp)
		bw.Write(append(b, '\n'))
		bw.Write(body)
		bw.Flush()
	}
	fail := func(format string, args ...any) {
		reply(adminResp{Error: fmt.Sprintf(format, args...)}, nil)
	}
	if req.Version != AdminProtoVersion {
		fail("unsupported admin protocol version %d", req.Version)
		return
	}

	readBody := func() ([]byte, error) {
		if req.Size <= 0 || req.Size > maxAdminBody {
			return nil, fmt.Errorf("bad body size %d", req.Size)
		}
		body := make([]byte, req.Size)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, err
		}
		return body, nil
	}

	switch req.Verb {
	case verbPing:
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		reply(adminResp{OK: true, Node: s.cfg.Advertise, Draining: s.draining.Load(), Count: n}, nil)

	case verbInfo:
		reply(adminResp{OK: true, Node: s.cfg.Advertise, Draining: s.draining.Load(), Sessions: s.sessionInfos()}, nil)

	case verbCheckpoint:
		data, applied, err := s.CheckpointSessionBytes(req.Session)
		if err != nil {
			fail("checkpoint %s: %v", req.Session, err)
			return
		}
		reply(adminResp{OK: true, Applied: applied}, data)

	case verbAdopt:
		body, err := readBody()
		if err != nil {
			fail("adopt: reading body: %v", err)
			return
		}
		applied, err := s.AdoptSession(body)
		if err != nil {
			fail("adopt: %v", err)
			return
		}
		reply(adminResp{OK: true, Applied: applied}, nil)

	case verbReplica:
		body, err := readBody()
		if err != nil {
			fail("replica: reading body: %v", err)
			return
		}
		if !validSessionID(req.Session) {
			fail("replica: invalid session id %q", req.Session)
			return
		}
		if err := s.PutReplica(req.Session, body); err != nil {
			fail("replica %s: %v", req.Session, err)
			return
		}
		reply(adminResp{OK: true}, nil)

	case verbDrop:
		if err := s.DropSession(req.Session); err != nil {
			fail("drop %s: %v", req.Session, err)
			return
		}
		reply(adminResp{OK: true}, nil)

	case verbDrain:
		infos, err := s.Drain()
		if err != nil {
			fail("drain: %v", err)
			return
		}
		reply(adminResp{OK: true, Node: s.cfg.Advertise, Sessions: infos}, nil)

	case verbMetrics:
		if s.cfg.Registry == nil {
			fail("no metrics registry configured")
			return
		}
		var buf bytes.Buffer
		if err := s.cfg.Registry.WritePrometheus(&buf); err != nil {
			fail("rendering metrics: %v", err)
			return
		}
		reply(adminResp{OK: true, Node: s.cfg.Advertise}, buf.Bytes())

	case verbFlight:
		if s.cfg.Flight == nil {
			fail("no flight recorder configured")
			return
		}
		reason := req.Reason
		if reason == "" {
			reason = "scrape"
		}
		var buf bytes.Buffer
		if err := s.cfg.Flight.WriteDump(&buf, s.cfg.Advertise, reason); err != nil {
			fail("rendering flight dump: %v", err)
			return
		}
		if req.Reason != "" {
			// A caller-supplied reason marks an incident (conformance
			// divergence, operator drill): keep a local copy too.
			s.autoDumpFlight(req.Reason)
		}
		reply(adminResp{OK: true, Node: s.cfg.Advertise}, buf.Bytes())

	default:
		fail("unknown admin verb %q", req.Verb)
	}
}

// adminCall performs one admin exchange with the node at addr: send the
// request line plus body, read the response line plus body. The context
// deadline bounds the whole exchange.
func adminCall(ctx context.Context, addr string, req adminReq, body []byte) (adminResp, []byte, error) {
	req.Proto, req.Version = AdminProtoName, AdminProtoVersion
	req.Size = int64(len(body))
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return adminResp{}, nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	b, err := json.Marshal(req)
	if err != nil {
		return adminResp{}, nil, err
	}
	bw := bufio.NewWriterSize(conn, 64*1024)
	bw.Write(append(b, '\n'))
	bw.Write(body)
	if err := bw.Flush(); err != nil {
		return adminResp{}, nil, err
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	line, err := event.ReadLine(br)
	if err != nil {
		return adminResp{}, nil, fmt.Errorf("reading admin response: %w", err)
	}
	var resp adminResp
	if err := json.Unmarshal(line, &resp); err != nil {
		return adminResp{}, nil, fmt.Errorf("bad admin response: %w", err)
	}
	if !resp.OK {
		if resp.Error == "" {
			resp.Error = "admin request refused"
		}
		return resp, nil, errors.New(resp.Error)
	}
	var respBody []byte
	if resp.Size > 0 {
		if resp.Size > maxAdminBody {
			return resp, nil, fmt.Errorf("admin response body too large (%d bytes)", resp.Size)
		}
		respBody = make([]byte, resp.Size)
		if _, err := io.ReadFull(br, respBody); err != nil {
			return resp, nil, fmt.Errorf("reading admin response body: %w", err)
		}
	}
	return resp, respBody, nil
}

// Ping probes the node at addr and reports its identity, draining
// state, and session count. It is the failure detector's heartbeat.
func Ping(ctx context.Context, addr string) (PingInfo, error) {
	resp, _, err := adminCall(ctx, addr, adminReq{Verb: verbPing}, nil)
	if err != nil {
		return PingInfo{}, err
	}
	return PingInfo{Node: resp.Node, Draining: resp.Draining, Sessions: resp.Count}, nil
}

// Sessions lists the sessions held by the node at addr.
func Sessions(ctx context.Context, addr string) ([]SessionInfo, error) {
	resp, _, err := adminCall(ctx, addr, adminReq{Verb: verbInfo}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// PullCheckpoint fetches a checkpoint of the named session from the
// node at addr. A live session is checkpointed between batches, so the
// bytes are a consistent cut with no verdicts lost.
func PullCheckpoint(ctx context.Context, addr, id string) (data []byte, applied uint64, err error) {
	resp, body, err := adminCall(ctx, addr, adminReq{Verb: verbCheckpoint, Session: id}, nil)
	if err != nil {
		return nil, 0, err
	}
	return body, resp.Applied, nil
}

// Adopt installs a session from checkpoint bytes on the node at addr
// (the receiving end of a migration).
func Adopt(ctx context.Context, addr string, data []byte) (applied uint64, err error) {
	resp, _, err := adminCall(ctx, addr, adminReq{Verb: verbAdopt}, data)
	if err != nil {
		return 0, err
	}
	return resp.Applied, nil
}

// PutReplica stores checkpoint bytes as a follower replica of session
// id on the node at addr. Replicas are promoted into live sessions when
// the owner dies and the ring reassigns the session here.
func PutReplica(ctx context.Context, addr, id string, data []byte) error {
	_, _, err := adminCall(ctx, addr, adminReq{Verb: verbReplica, Session: id}, data)
	return err
}

// DropSession removes a detached session (and its checkpoint) from the
// node at addr, the final step of a migration.
func DropSession(ctx context.Context, addr, id string) error {
	_, _, err := adminCall(ctx, addr, adminReq{Verb: verbDrop, Session: id}, nil)
	return err
}

// DrainNode tells the node at addr to stop owning sessions: it severs
// live connections, checkpoints and replicates every session, and
// returns the list for the coordinator to migrate.
func DrainNode(ctx context.Context, addr string) ([]SessionInfo, error) {
	resp, _, err := adminCall(ctx, addr, adminReq{Verb: verbDrain}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// ScrapeMetrics pulls the Prometheus exposition of the node at addr
// over the admin protocol (the transport behind the cluster rollup).
func ScrapeMetrics(ctx context.Context, addr string) ([]byte, error) {
	_, body, err := adminCall(ctx, addr, adminReq{Verb: verbMetrics}, nil)
	return body, err
}

// ScrapeFlight pulls the flight-recorder dump of the node at addr. A
// nonempty reason marks an incident: the node also writes a local
// flight-<reason>.jsonl copy to its flight directory.
func ScrapeFlight(ctx context.Context, addr, reason string) ([]byte, error) {
	_, body, err := adminCall(ctx, addr, adminReq{Verb: verbFlight, Reason: reason}, nil)
	return body, err
}

// withTimeout derives a context bounded by d when ctx has no earlier
// deadline.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}
