package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"goldilocks/internal/event"
	"goldilocks/internal/obs"
)

// DialConfig tunes connection establishment and failover.
type DialConfig struct {
	// Attempts bounds how many times a dial is tried before giving up;
	// transport failures (connection refused, handshake I/O) retry with
	// exponential backoff and jitter. Protocol rejections (bad session
	// id, wrong version) never retry. Default 1: fail fast.
	Attempts int
	// BaseDelay is the first backoff step. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 2s.
	MaxDelay time.Duration
	// FailoverTimeout bounds one failover episode in fleet mode: how
	// long a client keeps redialing the fleet after losing its server
	// (the failure detector needs time to declare the node dead and
	// reassign its sessions). Default 30s.
	FailoverTimeout time.Duration
	// MaxRedirects bounds a NOT_OWNER redirect chain within a single
	// connect (ownership can be in flux while the fleet converges).
	// Default 8.
	MaxRedirects int
	// Tracer, when set, samples sent records into pipeline spans (the
	// span id rides the stream record to the server) and observes the
	// client-side stages: record encode and control round-trip time.
	// Nil disables client tracing at zero cost.
	Tracer *obs.Tracer
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 1
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 50 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	if cfg.FailoverTimeout <= 0 {
		cfg.FailoverTimeout = 30 * time.Second
	}
	if cfg.MaxRedirects <= 0 {
		cfg.MaxRedirects = 8
	}
	return cfg
}

// jitterRand adds jitter to backoff delays. Seeded once per process;
// guarded because many clients may back off concurrently.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// backoffDelay returns the delay before retry attempt (0-based):
// base·2^attempt, capped at max, with ±25% jitter so a fleet of
// reconnecting clients does not stampede in lockstep.
func (cfg DialConfig) backoffDelay(attempt int) time.Duration {
	d := cfg.BaseDelay << uint(attempt)
	if d <= 0 || d > cfg.MaxDelay {
		d = cfg.MaxDelay
	}
	jitterMu.Lock()
	f := 0.75 + 0.5*jitterRand.Float64()
	jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableWelcome reports whether a welcome rejection is worth
// retrying: "already has a live connection" clears once the server
// notices the old connection died, and "shutting down" clears when the
// fleet reassigns the session. Bad session ids and protocol mismatches
// never clear.
func retryableWelcome(msg string) bool {
	return strings.Contains(msg, "live connection") || strings.Contains(msg, "shutting down")
}

// handshakeResult is one attach attempt's outcome.
type handshakeResult struct {
	conn net.Conn
	br   *bufio.Reader
	w    welcome
}

// errNotOwner is returned by connectOnce when the node redirected.
type redirectError struct{ owner string }

func (e *redirectError) Error() string { return "redirected to " + e.owner }

// terminalDialError marks rejections that retrying cannot fix.
type terminalDialError struct{ msg string }

func (e *terminalDialError) Error() string { return e.msg }

// connectOnce dials addr and performs the session handshake, including
// sending the binary stream header frame. On NOT_OWNER it returns
// *redirectError with the owner's address (possibly empty).
func connectOnce(ctx context.Context, addr, session string) (*handshakeResult, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	fail := func(err error) (*handshakeResult, error) {
		conn.Close()
		return nil, err
	}
	h, err := json.Marshal(hello{Proto: ProtoName, Version: ProtoVersion, Session: session})
	if err != nil {
		return fail(err)
	}
	if _, err := conn.Write(append(h, '\n')); err != nil {
		return fail(err)
	}
	br := bufio.NewReaderSize(conn, 64*1024)
	line, err := readLine(br)
	if err != nil {
		return fail(fmt.Errorf("server: reading welcome: %w", err))
	}
	var w welcome
	if err := json.Unmarshal(line, &w); err != nil {
		return fail(fmt.Errorf("server: bad welcome: %w", err))
	}
	if w.NotOwner {
		conn.Close()
		return nil, &redirectError{owner: w.Owner}
	}
	if !w.OK {
		msg := fmt.Sprintf("server: rejected session %q: %s", session, w.Error)
		if retryableWelcome(w.Error) {
			return fail(errors.New(msg))
		}
		return fail(&terminalDialError{msg: msg})
	}
	if _, err := conn.Write(event.BinHeaderFrame()); err != nil {
		return fail(err)
	}
	conn.SetDeadline(time.Time{}) // handshake done; streaming has no deadline
	return &handshakeResult{conn: conn, br: br, w: w}, nil
}

// Dial connects to a detection server and opens (or resumes) the named
// session, failing fast on the first error. After a successful Dial the
// caller must check Next: a resumed session has already applied that
// many actions, and the client must stream only the remainder of its
// linearization.
func Dial(addr, session string) (*Client, error) {
	return DialContext(context.Background(), addr, session, DialConfig{})
}

// DialContext connects with bounded retry: cfg.Attempts dials,
// exponential backoff with jitter between them, the whole episode
// bounded by ctx. A daemon that comes up *after* the client starts
// dialing is found by a later attempt. Protocol rejections (invalid
// session, version skew) fail immediately; only transport errors retry.
func DialContext(ctx context.Context, addr, session string, cfg DialConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	var lastErr error
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, cfg.backoffDelay(attempt-1)); err != nil {
				return nil, fmt.Errorf("dialing %s: %w (last error: %v)", addr, err, lastErr)
			}
		}
		res, err := connectOnce(ctx, addr, session)
		if err != nil {
			var term *terminalDialError
			if errors.As(err, &term) {
				return nil, errors.New(term.msg)
			}
			var re *redirectError
			if errors.As(err, &re) {
				return nil, fmt.Errorf("server: not the session owner (use DialFleet; owner %s)", re.owner)
			}
			lastErr = err
			continue
		}
		c := &Client{session: session, next: res.w.Next, resumed: res.w.Resumed, cfg: cfg, tracer: cfg.Tracer}
		c.startConn(res.conn, res.br)
		return c, nil
	}
	return nil, fmt.Errorf("dialing %s: %d attempts failed: %w", addr, cfg.Attempts, lastErr)
}

// DialFleet opens (or resumes) a session against a cluster: it tries
// the fleet's nodes — starting from a session-hash guess at the owner —
// follows NOT_OWNER redirects, and retries with exponential backoff and
// jitter until a node accepts or cfg.FailoverTimeout expires. The
// returned client journals everything it sends and transparently fails
// over (reconnect, redirect, replay, dedup) when its node dies.
func DialFleet(ctx context.Context, addrs []string, session string, cfg DialConfig) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("server: empty fleet address list")
	}
	cfg = cfg.withDefaults()
	c := &Client{session: session, fleet: append([]string(nil), addrs...), cfg: cfg, seen: make(map[string]bool), tracer: cfg.Tracer}
	res, err := c.connectFleet(ctx)
	if err != nil {
		return nil, err
	}
	c.next, c.resumed = res.w.Next, res.w.Resumed
	c.base = res.w.Next
	c.startConn(res.conn, res.br)
	return c, nil
}

// DialAuto is the CLI-friendly entry: a single address dials directly,
// a comma-separated list dials the fleet with failover enabled.
func DialAuto(ctx context.Context, addr, session string) (*Client, error) {
	if strings.Contains(addr, ",") {
		return DialFleet(ctx, splitAddrs(addr), session, DialConfig{})
	}
	return DialContext(ctx, addr, session, DialConfig{})
}

// splitAddrs parses a comma-separated address list.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// connectFleet keeps trying the fleet until a node accepts the session
// or the failover budget expires. Candidate order starts at the
// session's hash point (the likely owner) and follows NOT_OWNER
// redirects from there.
func (c *Client) connectFleet(ctx context.Context) (*handshakeResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.FailoverTimeout)
	defer cancel()
	h := fnv.New32a()
	h.Write([]byte(c.session))
	start := int(h.Sum32()) % len(c.fleet)
	if start < 0 {
		start += len(c.fleet)
	}
	var lastErr error
	for round := 0; ; round++ {
		for i := 0; i < len(c.fleet); i++ {
			addr := c.fleet[(start+i)%len(c.fleet)]
			res, err := c.followRedirects(ctx, addr)
			if err == nil {
				return res, nil
			}
			var term *terminalDialError
			if errors.As(err, &term) {
				return nil, errors.New(term.msg)
			}
			lastErr = err
		}
		if err := sleepCtx(ctx, c.cfg.backoffDelay(round)); err != nil {
			return nil, fmt.Errorf("fleet %v: failover budget exhausted: %w (last error: %v)", c.fleet, err, lastErr)
		}
	}
}

// followRedirects dials addr and follows NOT_OWNER redirects up to the
// configured bound.
func (c *Client) followRedirects(ctx context.Context, addr string) (*handshakeResult, error) {
	for hop := 0; hop < c.cfg.MaxRedirects; hop++ {
		res, err := connectOnce(ctx, addr, c.session)
		if err == nil {
			return res, nil
		}
		var re *redirectError
		if errors.As(err, &re) && re.owner != "" && re.owner != addr {
			addr = re.owner
			continue
		}
		return nil, err
	}
	return nil, fmt.Errorf("server: redirect chain for session %q exceeded %d hops", c.session, c.cfg.MaxRedirects)
}

// failover reconnects a fleet client after its server died: close the
// old connection, redial the fleet (backoff + redirects), learn the new
// owner's applied prefix, and replay the journal suffix past it. The
// restored engine re-fires verdicts deterministically; readLoop's dedup
// drops the ones this client already collected, so the caller observes
// an uninterrupted session.
func (c *Client) failover(ctx context.Context) error {
	c.conn.Close()
	<-c.done // old read loop has stopped; c.races is quiescent
	res, err := c.connectFleet(ctx)
	if err != nil {
		return err
	}
	next := res.w.Next
	if next < c.base || next > c.base+uint64(len(c.journal)) {
		res.conn.Close()
		return fmt.Errorf("server: session %q resumed at %d, outside this client's journal [%d,%d]",
			c.session, next, c.base, c.base+uint64(len(c.journal)))
	}
	c.failovers++
	c.startConn(res.conn, res.br)
	for _, a := range c.journal[next-c.base:] {
		c.encBuf = event.AppendEventFrame(c.encBuf[:0], a, 0)
		if _, err := c.bw.Write(c.encBuf); err != nil {
			// The replacement died too; recurse into another episode.
			return c.failover(ctx)
		}
	}
	return nil
}
