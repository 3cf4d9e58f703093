package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// Ack is the server's progress report for a session: how many actions
// it has applied and how many races it has reported. The final ack (the
// reply to Close) also carries the engine counters and the Figure 5
// rule-fire counts, which the conformance harness compares against an
// in-process run.
type Ack struct {
	Applied uint64
	Races   uint64
	// Durable is the applied count of the newest checkpoint of the
	// session on the server's disk: a server restart resumes the session
	// at or past it. Zero when nothing has been written.
	Durable   uint64
	Stats     *core.Stats
	RuleFires []uint64
	// Serial is the serializability summary from a server running with
	// Config.Serializability; nil otherwise.
	Serial *regiontrack.Summary
}

// Client is one session's connection to a detection server. Race
// verdicts arrive asynchronously (a background reader collects them);
// Flush and Close provide synchronization points where every action
// sent so far is known to be applied.
//
// A client opened with DialFleet is failover-aware: it knows every node
// of the cluster, keeps a journal of the actions it has sent, and — when
// the connection or the owning node dies — reconnects with exponential
// backoff and jitter, follows NOT_OWNER redirects to the new owner,
// replays the journal suffix past the server's applied prefix, and
// deduplicates re-fired verdicts. Send, Flush and Close then never
// surface a node death to the caller; only exhausting the failover
// budget does.
type Client struct {
	conn    net.Conn
	bw      *bufio.Writer
	session string
	next    uint64
	resumed bool
	encBuf  []byte // frame encode scratch, reused across Sends

	// Unsolicited progress acks (batched by the server) land in these
	// watermarks, never in the ack channel.
	progApplied atomic.Uint64
	progRaces   atomic.Uint64

	// Failover state (fleet mode; nil fleet = single-node client).
	fleet     []string
	cfg       DialConfig
	base      uint64         // applied count before journal[0]
	journal   []event.Action // every action sent, for replay after failover
	failovers int

	// tracer, when set (DialConfig.Tracer), samples sent records into
	// pipeline spans: the span id rides the stream record to the server,
	// and the client observes its own stages (encode, control RTT).
	tracer *obs.Tracer

	mu    sync.Mutex
	races []detect.Race
	seen  map[string]bool // race keys, for dedup across failovers

	acks    chan Ack
	readErr error // set before acks closes
	errOnce sync.Once
	done    chan struct{}
}

// Session returns the session id.
func (c *Client) Session() string { return c.session }

// Next returns how many actions the session had already applied at
// connect time. A fresh session returns 0; a resumed one returns the
// resume point, and the caller must skip that prefix.
func (c *Client) Next() uint64 { return c.next }

// Resumed reports whether the session predates this connection.
func (c *Client) Resumed() bool { return c.resumed }

// Failovers returns how many times this client has reconnected after
// losing its server (fleet mode).
func (c *Client) Failovers() int { return c.failovers }

// Binary reports whether the connection speaks the binary wire format.
// It is always true: goldilocks-bin is the only stream format since
// protocol version 2.
func (c *Client) Binary() bool { return true }

// Progress returns the server's last volunteered progress watermark
// (applied actions, races reported), which the server batches with its
// verdict flushes.
func (c *Client) Progress() (applied, races uint64) {
	return c.progApplied.Load(), c.progRaces.Load()
}

// startConn installs a fresh connection and starts its read loop.
func (c *Client) startConn(conn net.Conn, br *bufio.Reader) {
	c.conn = conn
	c.bw = bufio.NewWriterSize(conn, 64*1024)
	c.acks = make(chan Ack, 4)
	c.done = make(chan struct{})
	c.errOnce = sync.Once{}
	c.readErr = nil
	go c.readLoop(br, c.acks, c.done)
}

// readLoop collects server frames: races into the race list, solicited
// acks (flush/close replies) into the ack channel. Unsolicited batched
// progress acks only advance the watermark — a control round trip must
// never consume one as its reply. It closes acks on connection end so
// waiters fail fast. In fleet mode a verdict re-fired after a failover
// (the journal suffix is replayed through the restored engine) is
// recognized by its position+variable key and dropped.
func (c *Client) readLoop(br *bufio.Reader, acks chan Ack, done chan struct{}) {
	defer close(done)
	defer close(acks)
	fr := event.NewFrameReader(br)
	for {
		typ, body, err := fr.Next()
		if err != nil {
			c.setErr(io.EOF)
			return
		}
		switch typ {
		case frameErr:
			c.setErr(fmt.Errorf("server: %s", body))
			return
		case frameRace:
			var wr wireRace
			if err := json.Unmarshal(body, &wr); err != nil {
				c.setErr(fmt.Errorf("server: bad race frame: %w", err))
				return
			}
			if err := c.collectRace(&wr); err != nil {
				c.setErr(err)
				return
			}
		case frameAck:
			ack, solicited, err := decodeAckFrame(body)
			if err != nil {
				c.setErr(err)
				return
			}
			c.noteProgress(ack)
			if solicited {
				acks <- ack
			}
		default:
			c.setErr(fmt.Errorf("server: unexpected frame type 0x%02x", typ))
			return
		}
	}
}

// collectRace decodes one pushed verdict into the race list, deduping
// re-fired verdicts across failovers (fleet mode).
func (c *Client) collectRace(wr *wireRace) error {
	r, err := decodeRace(wr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen != nil {
		key := fmt.Sprintf("%d:%v", r.Pos, r.Var)
		if c.seen[key] {
			return nil
		}
		c.seen[key] = true
	}
	c.races = append(c.races, r)
	return nil
}

// noteProgress folds an ack into the progress watermark. Watermarks
// are monotonic: a failover replays the journal suffix, and a stale
// ack from the old connection must not rewind them.
func (c *Client) noteProgress(ack Ack) {
	for {
		cur := c.progApplied.Load()
		if ack.Applied <= cur || c.progApplied.CompareAndSwap(cur, ack.Applied) {
			break
		}
	}
	for {
		cur := c.progRaces.Load()
		if ack.Races <= cur || c.progRaces.CompareAndSwap(cur, ack.Races) {
			break
		}
	}
}

func (c *Client) setErr(err error) {
	c.errOnce.Do(func() { c.readErr = err })
}

// err returns the terminal read error, once the reader has stopped.
func (c *Client) terminalErr() error {
	if c.readErr != nil && c.readErr != io.EOF {
		return c.readErr
	}
	return errors.New("server: connection closed")
}

// Send streams one action to the session. Verdicts for it arrive
// asynchronously; use Flush or Close to synchronize. In fleet mode the
// action is journaled first, so a mid-stream node death is survived by
// reconnecting and replaying.
func (c *Client) Send(a event.Action) error {
	// The reused encode buffer makes the steady-state send path
	// allocation-free.
	if c.tracer.Sample() {
		start := time.Now()
		c.encBuf = event.AppendEventFrame(c.encBuf[:0], a, c.tracer.NextSpan())
		c.tracer.Observe(obs.StageClientEncode, time.Since(start))
	} else {
		c.encBuf = event.AppendEventFrame(c.encBuf[:0], a, 0)
	}
	if c.fleet != nil {
		c.journal = append(c.journal, a)
	}
	if _, err := c.bw.Write(c.encBuf); err != nil {
		if c.fleet == nil {
			return err
		}
		return c.failover(context.Background())
	}
	return nil
}

// Flush pushes everything sent so far to the server, waits until it is
// applied, and returns the progress ack.
func (c *Client) Flush() (Ack, error) {
	return c.ctlRoundTrip(binCtlFlush)
}

// Close ends the session cleanly: every action sent is applied, the
// final ack (with engine stats and rule-fire counts) is returned, and
// the connection is closed. The session remains resumable on the
// server.
func (c *Client) Close() (Ack, error) {
	ack, err := c.ctlRoundTrip(binCtlClose)
	c.conn.Close()
	<-c.done
	return ack, err
}

// Abandon severs the connection without a close handshake, as a crashed
// client would. The session stays resumable server-side.
func (c *Client) Abandon() {
	c.conn.Close()
	<-c.done
}

// ctlRoundTrip sends a control frame (binCtlFlush or binCtlClose) and
// waits for its solicited ack, failing over once in fleet mode.
func (c *Client) ctlRoundTrip(verb byte) (Ack, error) {
	for attempt := 0; ; attempt++ {
		var start time.Time
		if c.tracer != nil {
			start = time.Now()
		}
		c.bw.Write(event.AppendFrame(nil, event.FrameCtl, []byte{verb}))
		flushErr := c.bw.Flush()
		var ack Ack
		ok := false
		if flushErr == nil {
			ack, ok = <-c.acks
		}
		if ok {
			if c.tracer != nil {
				// A control round trip drains everything queued ahead of
				// it, so this RTT bounds end-to-end pipeline latency.
				c.tracer.Observe(obs.StageWireRTT, time.Since(start))
			}
			return ack, nil
		}
		if c.fleet == nil || attempt >= 1 {
			if flushErr != nil {
				return Ack{}, flushErr
			}
			return Ack{}, c.terminalErr()
		}
		// The connection died under the control round trip: fail over
		// (which replays any unapplied journal suffix) and re-issue the
		// control on the new owner.
		if err := c.failover(context.Background()); err != nil {
			return Ack{}, err
		}
	}
}

// Races returns the verdicts received so far, in arrival order. Race
// positions are global linearization indices, directly comparable to an
// in-process run over the same linearization.
func (c *Client) Races() []detect.Race {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]detect.Race, len(c.races))
	copy(out, c.races)
	return out
}

// StreamTrace is the convenience path used by the replay tools and the
// conformance harness: open (or resume) the session, stream the
// remainder of tr, close, and return the verdicts of this connection
// plus the final ack. addr may be a single address or a comma-separated
// fleet list (see DialFleet).
func StreamTrace(addr, sessionID string, tr *event.Trace) ([]detect.Race, Ack, error) {
	c, err := DialAuto(context.Background(), addr, sessionID)
	if err != nil {
		return nil, Ack{}, err
	}
	start := int(c.Next())
	if start > tr.Len() {
		c.Abandon()
		return nil, Ack{}, fmt.Errorf("server: session %q already at %d, past trace end %d", sessionID, start, tr.Len())
	}
	for i := start; i < tr.Len(); i++ {
		if err := c.Send(tr.At(i)); err != nil {
			c.Abandon()
			return nil, Ack{}, err
		}
	}
	ack, err := c.Close()
	if err != nil {
		return nil, Ack{}, err
	}
	return c.Races(), ack, nil
}
