package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldilocks/internal/core"
	"goldilocks/internal/detect"
	"goldilocks/internal/detectors/regiontrack"
	"goldilocks/internal/event"
	"goldilocks/internal/obs"
	"goldilocks/internal/resilience"
)

// SessionFormatName identifies a session checkpoint file: one session
// header line followed by an engine checkpoint (see internal/core).
const SessionFormatName = "goldilocks-session"

// SessionFormatVersion is the current session checkpoint version.
const SessionFormatVersion = 1

// sessionHeader is the first line of a session checkpoint file. Serial
// marks a serializability session: the body is then a regiontrack
// checker snapshot (which embeds the engine checkpoint) instead of a
// bare engine snapshot. The field is omitempty, so plain checkpoints
// are byte-identical to version-1 files from before the flag existed.
type sessionHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Session string `json:"session"`
	Applied uint64 `json:"applied"`
	Races   uint64 `json:"races"`
	Serial  bool   `json:"serializability,omitempty"`
}

// Config configures a detection server.
type Config struct {
	// Engine is the per-session engine configuration. Telemetry and
	// Injector are ignored: every session gets its own telemetry bundle
	// so rule-fire counts are per-session. The zero value means
	// core.DefaultOptions.
	Engine core.Options
	// Serializability, when set, runs a RegionTrack-style
	// conflict-serializability checker on top of every session's engine
	// (lock-protected spans count as atomic regions). Race verdicts are
	// unchanged; the final ack additionally carries the serializability
	// summary, and session checkpoints embed the checker's conflict
	// graph so the verdict survives restarts.
	Serializability bool
	// Queue bounds each session's ingest queue (actions decoded but not
	// yet applied). A full queue blocks the connection reader, which
	// pushes back on the producer through TCP flow control instead of
	// buffering without bound. Default 256.
	Queue int
	// Batch is how many queued actions the session worker applies
	// before flushing pending verdicts to the client. Default 64.
	Batch int
	// CheckpointDir, when set, is where Close persists every session's
	// engine state, and where New restores sessions from. Empty
	// disables persistence.
	CheckpointDir string
	// Registry, when set, receives the daemon and per-session metrics
	// (serve it with obs.Serve).
	Registry *obs.Registry
	// Logger, when set, receives one structured record per lifecycle
	// event. Nil means discard.
	Logger *slog.Logger
	// Tracer, when set, samples ingest records into pipeline spans and
	// observes per-stage latency (queue wait, apply, verdict flush,
	// checkpoint write) into its histograms, which New registers in
	// Registry under goldilocksd_stage_*. Nil disables tracing at zero
	// cost. Records arriving with a client-stamped span id are always
	// timed; the server additionally samples unstamped records through
	// Tracer so server-side stages fill in even with untraced clients.
	Tracer *obs.Tracer
	// Flight, when set, records lifecycle events (attach/detach,
	// redirects, promotions, quarantines, rung escalations, sampled rule
	// fires) into a bounded ring dumped on incidents. Nil disables.
	Flight *obs.FlightRecorder
	// FlightDir, when set with Flight, is where incident-triggered dumps
	// (panic quarantine, checkpoint corruption) are written as
	// flight-<reason>.jsonl.
	FlightDir string

	// Advertise is this node's address as cluster peers and clients
	// should reach it (cluster mode; defaults to the bound address).
	Advertise string
	// Router, when set, makes this node part of a cluster: a session
	// attach for a session this node does not own is refused with a
	// NOT_OWNER redirect to the owner. Nil means standalone.
	Router Router
	// ReplicaDir, when set, is where follower replicas of other nodes'
	// session checkpoints are stored (admin "replica" verb). An attach
	// for a session this node owns but does not hold live is promoted
	// from its replica, resuming from the replicated applied prefix.
	ReplicaDir string
	// CheckpointEvery, when positive, checkpoints each session every N
	// applied actions — in addition to the shutdown checkpoint — so a
	// node death loses at most the suffix past the last checkpoint
	// (which the client re-streams idempotently).
	CheckpointEvery int
	// OnCheckpoint, when set, receives every durably written session
	// checkpoint (id, applied count, serialized bytes). The cluster
	// node mirrors the bytes to the session's follower nodes.
	OnCheckpoint func(id string, applied uint64, data []byte)
	// OnDrain, when set, is called when the admin drain verb arrives,
	// before sessions are severed and checkpointed (the cluster node
	// excludes itself from the ring and starts redirecting).
	OnDrain func()
	// Injector, when set, injects faults into checkpoint writes
	// (resilience testing: torn writes via TruncateTraceBytes).
	Injector *resilience.Injector
}

// Router decides which node owns a session (cluster mode). Route
// returns the owner's advertised address and whether this node is the
// owner.
type Router interface {
	Route(session string) (owner string, self bool)
}

// Server is a running detection service.
type Server struct {
	cfg      Config
	ln       net.Listener
	wg       sync.WaitGroup
	draining atomic.Bool

	mu          sync.Mutex
	closing     bool
	sessions    map[string]*session
	conns       map[net.Conn]struct{}
	quarantined []Quarantined

	connsTotal    *obs.Counter
	sessionsTotal *obs.Counter
	ckptsWritten  *obs.Counter
	ckptsRestored *obs.Counter
	ckptsQuarant  *obs.Counter
	replicasHeld  *obs.Counter
	promotions    *obs.Counter
	adoptions     *obs.Counter
	redirects     *obs.Counter
	flightDumps   *obs.Counter
}

// session is one client session: a detection engine plus its progress
// counters. It outlives connections — a client that disconnects (or a
// daemon that restarts with a checkpoint directory) can resume where it
// left off.
type session struct {
	id  string
	eng *core.Engine
	tel *obs.Telemetry
	// rt, when non-nil (Config.Serializability), is the serializability
	// checker wrapping eng; eng is then rt.Engine() and every action
	// steps through rt so the conflict graph stays consistent.
	rt *regiontrack.Checker

	attached bool     // guarded by Server.mu: at most one connection at a time
	conn     net.Conn // guarded by Server.mu: the live connection while attached

	applied atomic.Uint64 // actions applied; also the next global position
	races   atomic.Uint64

	qmu         sync.Mutex
	queue       chan item // live while attached (read by the queue-depth gauge)
	queueClosed bool      // set (under qmu) before the queue is closed

	// Worker-local governor watermarks: the last degradation rung and
	// quarantine count seen, so the flight recorder logs each escalation
	// and quarantine exactly once. Touched only by the session worker.
	lastRung resilience.DegradationRung
	lastQuar uint64
}

// item is one unit of session work: an event record or a control token.
type item struct {
	a      event.Action
	ctl    string          // "" for records
	errMsg string          // with ctl == ctlErr
	ckpt   chan ckptResult // with ctl == ctlCkpt: reply channel

	span uint64    // nonzero: this record is a sampled trace span
	enq  time.Time // enqueue time, set only for sampled records
}

// Control items.
const (
	ctlFlush = "flush" // client flush: apply everything sent so far, then ack
	ctlClose = "close" // client close: apply everything, send the final ack
	ctlErr   = "err"   // protocol error: report errMsg to the client
	// ctlCkpt makes the session worker checkpoint the engine between
	// batches and reply on the item's channel. It is how a live session
	// is checkpointed with zero verdicts lost.
	ctlCkpt = "ckpt"
)

// ckptResult is the session worker's reply to a ctlCkpt item.
type ckptResult struct {
	data    []byte
	applied uint64
	err     error
}

func (s *session) setQueue(q chan item) {
	s.qmu.Lock()
	s.queue = q
	s.queueClosed = false
	s.qmu.Unlock()
}

// markQueueClosed flags the queue as closing so concurrent tryEnqueue
// calls stop using it; the caller closes the channel after this
// returns.
func (s *session) markQueueClosed() {
	s.qmu.Lock()
	s.queueClosed = true
	s.qmu.Unlock()
}

// tryEnqueue delivers an item to the session worker if the session is
// attached with a live queue. The send happens under qmu, which is safe
// against close: the closer must take qmu to mark the queue closed
// first, and the worker keeps draining until then.
func (s *session) tryEnqueue(it item) bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.queue == nil || s.queueClosed {
		return false
	}
	s.queue <- it
	return true
}

// step applies one action through the session's detector stack: the
// serializability checker when configured (it forwards to the engine),
// the bare engine otherwise.
func (s *session) step(a event.Action) []detect.Race {
	if s.rt != nil {
		return s.rt.Step(a)
	}
	return s.eng.Step(a)
}

func (s *session) queueDepth() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queue)
}

// New starts a detection server listening on addr (port 0 picks a free
// port). If cfg.CheckpointDir is set, sessions checkpointed by a
// previous instance are restored before the listener opens.
func New(addr string, cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 256
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	if cfg.Engine == (core.Options{}) {
		cfg.Engine = core.DefaultOptions()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
	}
	if reg := cfg.Registry; reg != nil {
		s.connsTotal = reg.Counter("goldilocksd_connections_total")
		s.sessionsTotal = reg.Counter("goldilocksd_sessions_total")
		s.ckptsWritten = reg.Counter("goldilocksd_checkpoints_written_total")
		s.ckptsRestored = reg.Counter("goldilocksd_checkpoints_restored_total")
		s.ckptsQuarant = reg.Counter("goldilocksd_checkpoints_quarantined_total")
		s.replicasHeld = reg.Counter("goldilocksd_replicas_received_total")
		s.promotions = reg.Counter("goldilocksd_sessions_promoted_total")
		s.adoptions = reg.Counter("goldilocksd_sessions_adopted_total")
		s.redirects = reg.Counter("goldilocksd_redirects_total")
		cfg.Tracer.Register(reg, "goldilocksd")
		if cfg.Flight != nil {
			s.flightDumps = reg.Counter("goldilocksd_flight_dumps_total")
			reg.RegisterGaugeFunc("goldilocksd_flight_events", func() float64 {
				return float64(cfg.Flight.Len())
			})
		}
		reg.RegisterGaugeFunc("goldilocksd_sessions_active", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, sess := range s.sessions {
				if sess.attached {
					n++
				}
			}
			return float64(n)
		})
	}
	if cfg.CheckpointDir != "" {
		if err := s.restoreSessions(); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	if s.cfg.Advertise == "" {
		s.cfg.Advertise = ln.Addr().String()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address, e.g. "127.0.0.1:7777".
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.connsTotal != nil {
			s.connsTotal.Inc()
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// validSessionID keeps session ids filesystem- and metrics-label-safe.
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// notOwnerError is attach's refusal in cluster mode: the session hashes
// to another node, whose advertised address the client should redial.
type notOwnerError struct{ owner string }

func (e *notOwnerError) Error() string {
	if e.owner == "" {
		return "not the session owner (owner unknown)"
	}
	return "not the session owner (owner " + e.owner + ")"
}

// attach finds or creates the session and claims it for this
// connection. existed reports whether the session predates this attach
// (the client must then resume from session.applied). In cluster mode
// an attach for a session owned elsewhere fails with *notOwnerError,
// and a session owned here but not held live is promoted from its
// follower replica when one exists.
func (s *Server) attach(id string, conn net.Conn) (sess *session, existed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, false, errors.New("server shutting down")
	}
	if r := s.cfg.Router; r != nil {
		if owner, self := r.Route(id); !self {
			return nil, false, &notOwnerError{owner: owner}
		}
	}
	sess, existed = s.sessions[id]
	if !existed {
		if promoted := s.promoteReplicaLocked(id); promoted != nil {
			sess, existed = promoted, true
		} else {
			sess = s.newSessionLocked(id)
		}
	}
	if sess.attached {
		return nil, false, fmt.Errorf("session %q already has a live connection", id)
	}
	sess.attached = true
	sess.conn = conn
	return sess, existed, nil
}

// newSessionLocked creates a session and registers its metrics. Caller
// holds s.mu.
func (s *Server) newSessionLocked(id string) *session {
	tel := obs.NewTelemetry()
	opts := s.cfg.Engine
	opts.Telemetry = tel
	opts.Injector = nil
	sess := &session{id: id, tel: tel}
	if s.cfg.Serializability {
		sess.rt = regiontrack.New(regiontrack.Options{Engine: opts, LockRegions: true})
		sess.eng = sess.rt.Engine()
	} else {
		sess.eng = core.NewEngine(opts)
	}
	s.sessions[id] = sess
	s.registerSessionMetrics(sess)
	if s.sessionsTotal != nil {
		s.sessionsTotal.Inc()
	}
	return sess
}

func (s *Server) registerSessionMetrics(sess *session) {
	reg := s.cfg.Registry
	if reg == nil {
		return
	}
	label := fmt.Sprintf("{session=%q}", sess.id)
	reg.RegisterGaugeFunc("goldilocksd_session_applied_total"+label, func() float64 {
		return float64(sess.applied.Load())
	})
	reg.RegisterGaugeFunc("goldilocksd_session_races_total"+label, func() float64 {
		return float64(sess.races.Load())
	})
	reg.RegisterGaugeFunc("goldilocksd_session_queue_depth"+label, func() float64 {
		return float64(sess.queueDepth())
	})
	reg.RegisterGaugeFunc("goldilocksd_session_list_len"+label, func() float64 {
		return float64(sess.eng.ListLen())
	})
}

// unregisterSessionMetrics drops a migrated-away session's gauges so
// the scrape stops reporting state this node no longer holds.
func (s *Server) unregisterSessionMetrics(id string) {
	reg := s.cfg.Registry
	if reg == nil {
		return
	}
	label := fmt.Sprintf("{session=%q}", id)
	for _, name := range []string{
		"goldilocksd_session_applied_total", "goldilocksd_session_races_total",
		"goldilocksd_session_queue_depth", "goldilocksd_session_list_len",
	} {
		reg.Unregister(name + label)
	}
}

func (s *Server) detach(sess *session) {
	s.mu.Lock()
	sess.attached = false
	sess.conn = nil
	s.mu.Unlock()
	sess.setQueue(nil)
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handleConn speaks the protocol on one connection: handshake, stream
// header frame, then event and control frames. Decoded work goes to a
// bounded queue drained by the session worker; when the queue is full
// this reader blocks, which is the backpressure path (the producer's
// writes stall on TCP flow control rather than the daemon buffering
// without bound).
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer s.dropConn(conn)

	br := bufio.NewReaderSize(conn, maxHelloLen)
	bw := bufio.NewWriterSize(conn, 64*1024)

	writeWelcome := func(w welcome) {
		b, _ := json.Marshal(w)
		bw.Write(append(b, '\n'))
		bw.Flush()
	}

	line, err := readHello(br)
	if err == errHelloTooLong {
		writeWelcome(welcome{Error: "handshake line too long"})
		return
	}
	if err != nil {
		return
	}
	var h hello
	if err := json.Unmarshal(line, &h); err != nil || (h.Proto != ProtoName && h.Proto != AdminProtoName) {
		writeWelcome(welcome{Error: "not a " + ProtoName + " handshake"})
		return
	}
	if h.Proto == AdminProtoName {
		var req adminReq
		if err := json.Unmarshal(line, &req); err != nil {
			writeWelcome(welcome{Error: "bad admin request"})
			return
		}
		s.handleAdmin(req, br, bw)
		return
	}
	if h.Version != ProtoVersion {
		writeWelcome(welcome{Error: fmt.Sprintf("unsupported protocol version %d", h.Version)})
		return
	}
	if !validSessionID(h.Session) {
		writeWelcome(welcome{Error: "invalid session id (want [A-Za-z0-9._-]{1,64})"})
		return
	}
	sess, existed, err := s.attach(h.Session, conn)
	if err != nil {
		var noe *notOwnerError
		if errors.As(err, &noe) {
			if s.redirects != nil {
				s.redirects.Inc()
			}
			s.flight("redirect", h.Session, "owner "+noe.owner)
			writeWelcome(welcome{Error: err.Error(), NotOwner: true, Owner: noe.owner})
			return
		}
		writeWelcome(welcome{Error: err.Error()})
		return
	}
	next := sess.applied.Load()
	s.cfg.Logger.Info("session attached", "component", "server", "session", sess.id,
		"resumed", existed, "next", next)
	s.flight("attach", sess.id, fmt.Sprintf("resumed=%v next=%d", existed, next))
	writeWelcome(welcome{OK: true, Resumed: existed, Next: next})

	enc := &binWire{bw: bw}
	frames := event.NewFrameReader(br)
	// The client opens its stream with the binary header frame.
	typ, body, err := frames.Next()
	if err == nil && typ != event.FrameHeader {
		err = fmt.Errorf("frame type 0x%02x", typ)
	}
	if err == nil {
		err = event.CheckBinHeader(body)
	}
	if err != nil {
		enc.last = event.AppendFrame(nil, frameErr,
			[]byte(fmt.Sprintf("expected binary stream header frame: %v", err)))
	} else {
		queue := make(chan item, s.cfg.Queue)
		sess.setQueue(queue)
		// Seed the governor watermarks before the worker starts so a
		// restored or promoted session's pre-existing rung/quarantine
		// state is not re-reported as a fresh transition.
		sess.lastRung = sess.eng.Rung()
		sess.lastQuar = sess.eng.VarsQuarantined()
		workerDone := make(chan struct{})
		go s.sessionWorker(sess, queue, enc, workerDone)
		s.readFrames(sess, frames, queue, func() {
			// Mark the queue closed (so admin tryEnqueue stops
			// delivering) before closing the channel the worker drains.
			sess.markQueueClosed()
			close(queue)
			<-workerDone
		})
	}
	// The worker has exited. Detach before sending the terminal frame:
	// a client that holds its final ack or error finds the session free
	// to reattach, drop, or migrate.
	s.detach(sess)
	if enc.last != nil {
		bw.Write(enc.last)
		bw.Flush()
	}
}

// readFrames is the ingest loop: it decodes event and control frames
// into the session queue until the client closes the session, a frame
// is bad, or the connection drops. A close or protocol error ends the
// loop after its item is queued; the session worker answers both.
func (s *Server) readFrames(sess *session, frames *event.FrameReader, queue chan item, closeQueue func()) {
	for {
		typ, body, err := frames.Next()
		var it item
		switch {
		case errors.Is(err, event.ErrCorruptFrame) || errors.Is(err, event.ErrTornFrame):
			it = item{ctl: ctlErr, errMsg: fmt.Sprintf("corrupt event frame: %v", err)}
		case err != nil:
			// Connection dropped or severed without a close control: the
			// session stays resumable.
			closeQueue()
			s.cfg.Logger.Info("session connection lost", "component", "server",
				"session", sess.id, "applied", sess.applied.Load())
			s.flight("detach", sess.id, fmt.Sprintf("connection lost at %d applied", sess.applied.Load()))
			return
		case typ == event.FrameEvent:
			a, span, derr := event.DecodeEventFrame(body)
			if derr != nil {
				it = item{ctl: ctlErr, errMsg: fmt.Sprintf("corrupt event frame: %v", derr)}
				break
			}
			it = item{a: a, span: span}
			if span == 0 && s.cfg.Tracer.Sample() {
				// Untraced client: sample server-side so the queue/apply/
				// flush histograms still fill in.
				it.span = s.cfg.Tracer.NextSpan()
			}
			if it.span != 0 {
				it.enq = time.Now()
			}
		case typ == event.FrameCtl && len(body) == 1 && body[0] == binCtlFlush:
			it = item{ctl: ctlFlush}
		case typ == event.FrameCtl && len(body) == 1 && body[0] == binCtlClose:
			it = item{ctl: ctlClose}
		case typ == event.FrameCtl:
			it = item{ctl: ctlErr, errMsg: fmt.Sprintf("unknown binary control %v", body)}
		default:
			it = item{ctl: ctlErr, errMsg: fmt.Sprintf("unexpected frame type 0x%02x", typ)}
		}
		queue <- it
		if it.ctl == ctlClose || it.ctl == ctlErr {
			closeQueue()
			return
		}
	}
}

// sessionWorker drains the ingest queue, applies actions to the
// session engine in batches, and pushes verdicts and acks back to the
// client. It is the only goroutine touching the engine or the encoder
// while attached. Every lifecycle record (log line, flight event) that
// an ack or error frame makes observable is written before that frame
// is built, so a client that has seen the reply also sees the record.
// The terminal frame of a close or protocol error goes to enc.last for
// handleConn to send once the session is detached.
func (s *Server) sessionWorker(sess *session, queue chan item, enc *binWire, done chan struct{}) {
	defer close(done)
	sinceFlush := 0
	tracedInBatch := false
	// flush pushes buffered verdicts to the client; when the batch held
	// a traced record, the flush latency lands in the verdict_flush
	// histogram — on whichever path drained it (batch boundary, idle
	// queue, or a client flush/close control).
	flush := func() {
		if tracedInBatch {
			start := time.Now()
			enc.flush()
			s.cfg.Tracer.Observe(obs.StageVerdictFlush, time.Since(start))
			tracedInBatch = false
		} else {
			enc.flush()
		}
		sinceFlush = 0
	}
	for it := range queue {
		switch it.ctl {
		case "":
			traced := it.span != 0
			var applyStart time.Time
			var firesBefore [obs.NumRules + 1]uint64
			if traced {
				s.cfg.Tracer.Observe(obs.StageQueueWait, time.Since(it.enq))
				if s.cfg.Flight != nil {
					firesBefore = sess.tel.RuleFires()
				}
				applyStart = time.Now()
			}
			pos := sess.applied.Load()
			races := sess.step(it.a)
			if traced {
				s.cfg.Tracer.Observe(obs.StageApply, time.Since(applyStart))
				tracedInBatch = true
				if s.cfg.Flight != nil {
					// Sampled rule fires: log which lockset rules this
					// traced record triggered.
					after := sess.tel.RuleFires()
					for i := 1; i <= obs.NumRules; i++ {
						if after[i] > firesBefore[i] {
							s.cfg.Flight.Record(obs.FlightEvent{
								Component: "server", Kind: "rule-fire", Session: sess.id,
								Span:   it.span,
								Detail: fmt.Sprintf("%s x%d at %d", obs.RuleName(i), after[i]-firesBefore[i], pos),
							})
						}
					}
				}
			}
			for _, r := range races {
				sess.races.Add(1)
				wr, err := encodeRace(r, pos)
				if err != nil {
					enc.errMsg(err.Error())
					continue
				}
				enc.race(wr)
			}
			n := sess.applied.Add(1)
			sinceFlush++
			if sinceFlush >= s.cfg.Batch || len(queue) == 0 {
				// Batched progress ack: the applied watermark rides each
				// batch flush, so clients track progress without control
				// round trips.
				enc.ack(Ack{Applied: n, Races: sess.races.Load()}, false, false)
				flush()
				s.observeGovernor(sess)
			}
			if every := s.cfg.CheckpointEvery; every > 0 && n%uint64(every) == 0 {
				// The worker is the only goroutine touching the engine,
				// so it is quiescent here: checkpoint, persist, and hand
				// the bytes to the replication hook.
				if err := s.checkpointAndReplicate(sess); err != nil {
					s.cfg.Logger.Warn("periodic checkpoint failed", "component", "server",
						"session", sess.id, "err", err)
				}
			}
		case ctlCkpt:
			data, err := sessionSnapshotBytes(sess)
			it.ckpt <- ckptResult{data: data, applied: sess.applied.Load(), err: err}
		case ctlFlush:
			enc.ack(Ack{Applied: sess.applied.Load(), Races: sess.races.Load()}, false, true)
			flush()
		case ctlClose:
			applied, races := sess.applied.Load(), sess.races.Load()
			s.cfg.Logger.Info("session closed", "component", "server", "session", sess.id,
				"applied", applied, "races", races)
			s.flight("close", sess.id, fmt.Sprintf("%d applied, %d races", applied, races))
			stats := sess.eng.Stats()
			fires := sess.tel.RuleFires()
			ack := Ack{Applied: applied, Races: races, Stats: &stats, RuleFires: fires[:]}
			if sess.rt != nil {
				sum := sess.rt.Summarize()
				ack.Serial = &sum
			}
			flush()
			enc.last = event.AppendFrame(nil, frameAck, enc.ackBody(ack, true, true))
		case ctlErr:
			s.cfg.Logger.Warn("session protocol error", "component", "server",
				"session", sess.id, "err", it.errMsg)
			s.flight("protocol-error", sess.id, it.errMsg)
			flush()
			enc.last = event.AppendFrame(nil, frameErr, []byte(it.errMsg))
		}
	}
}

// maxHelloLen bounds a connection's first line — a hello or an admin
// request — so a peer cannot grow daemon memory before it names a
// session. It is the size of handleConn's reader buffer, which
// readHello never grows. What follows the first line is bounded too:
// event frames by event.MaxFrameLen, admin bodies by maxAdminBody.
const maxHelloLen = 64 * 1024

// errHelloTooLong is readHello's refusal of a first line that does not
// fit the reader's buffer.
var errHelloTooLong = fmt.Errorf("server: first line exceeds %d bytes", maxHelloLen)

// readHello reads a connection's first line without the terminator.
// A line longer than br's buffer is refused, not accumulated.
func readHello(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errHelloTooLong
	}
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), line[:len(line)-1]...), nil
}

// readLine reads one newline-terminated line without the terminator.
// It serves lines from trusted or already-bounded sources: a welcome or
// admin response read by a client, and a checkpoint header.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// Close stops accepting connections, severs live ones, waits for every
// session worker to drain, and — with a checkpoint directory configured
// — persists every session so a future instance can resume them. The
// returned error aggregates checkpoint failures.
func (s *Server) Close() error {
	if !s.shutdownConns() {
		return nil
	}
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	var errs []error
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		if err := s.checkpointSession(sess); err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", sess.id, err))
		} else {
			s.cfg.Logger.Info("session checkpointed", "component", "server",
				"session", sess.id, "applied", sess.applied.Load())
		}
	}
	return errors.Join(errs...)
}

// flight records one lifecycle event into the configured flight
// recorder (nil-safe no-op without one).
func (s *Server) flight(kind, session, detail string) {
	s.cfg.Flight.Event("server", kind, session, detail)
}

// observeGovernor flight-records engine governor transitions — rung
// escalations/recoveries and new panic quarantines — comparing against
// the session's worker-local watermarks. A fresh quarantine is an
// incident: it also triggers an automatic flight dump. Called from the
// session worker between batches.
func (s *Server) observeGovernor(sess *session) {
	if s.cfg.Flight == nil {
		return
	}
	if rung := sess.eng.Rung(); rung != sess.lastRung {
		s.flight("rung", sess.id, fmt.Sprintf("%v -> %v", sess.lastRung, rung))
		sess.lastRung = rung
	}
	if q := sess.eng.VarsQuarantined(); q != sess.lastQuar {
		s.flight("panic-quarantine", sess.id, fmt.Sprintf("%d variables quarantined", q))
		sess.lastQuar = q
		s.autoDumpFlight("panic-quarantine")
	}
}

// DumpFlight writes the flight-recorder ring to the configured
// FlightDir as flight-<reason>.jsonl and returns the path.
func (s *Server) DumpFlight(reason string) (string, error) {
	if s.cfg.Flight == nil {
		return "", errors.New("no flight recorder configured")
	}
	if s.cfg.FlightDir == "" {
		return "", errors.New("no flight directory configured")
	}
	path, err := s.cfg.Flight.DumpToDir(s.cfg.FlightDir, s.cfg.Advertise, reason)
	if err != nil {
		return "", err
	}
	if s.flightDumps != nil {
		s.flightDumps.Inc()
	}
	s.cfg.Logger.Info("flight recorder dumped", "component", "server",
		"reason", reason, "path", path)
	return path, nil
}

// autoDumpFlight is the incident-trigger path of DumpFlight:
// best-effort, silently a no-op unless both Flight and FlightDir are
// configured.
func (s *Server) autoDumpFlight(reason string) {
	if s.cfg.Flight == nil || s.cfg.FlightDir == "" {
		return
	}
	if _, err := s.DumpFlight(reason); err != nil {
		s.cfg.Logger.Warn("flight dump failed", "component", "server",
			"reason", reason, "err", err)
	}
}

// sessionSnapshotBytes serializes a session checkpoint — the session
// header line followed by the engine snapshot — into memory. The
// engine must be quiescent (worker context, or a claimed detached
// session).
func sessionSnapshotBytes(sess *session) ([]byte, error) {
	hdr, err := json.Marshal(sessionHeader{
		Format: SessionFormatName, Version: SessionFormatVersion,
		Session: sess.id, Applied: sess.applied.Load(), Races: sess.races.Load(),
		Serial: sess.rt != nil,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(append(hdr, '\n'))
	if sess.rt != nil {
		// The checker snapshot embeds the engine checkpoint, so one body
		// round-trips both the lockset state and the conflict graph.
		if err := sess.rt.Checkpoint(&buf); err != nil {
			return nil, err
		}
	} else if err := sess.eng.Checkpoint(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeDurable writes dir/<name> atomically and durably: temp file,
// fsync the data, rename, fsync the directory — a snapshot that
// survives power loss, not just a process crash. The configured fault
// injector can tear the data write (resilience testing).
func (s *Server) writeDurable(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := s.cfg.Injector.WrapTraceWriter(tmp)
	if _, err := w.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// checkpointSession writes dir/<id>.ckpt atomically and durably.
func (s *Server) checkpointSession(sess *session) error {
	data, err := sessionSnapshotBytes(sess)
	if err != nil {
		return err
	}
	return s.persistCheckpoint(sess.id, data)
}

// persistCheckpoint durably writes a serialized session checkpoint to
// the checkpoint directory.
func (s *Server) persistCheckpoint(id string, data []byte) error {
	if err := s.writeDurable(s.cfg.CheckpointDir, id+".ckpt", data); err != nil {
		return err
	}
	if s.ckptsWritten != nil {
		s.ckptsWritten.Inc()
	}
	return nil
}

// checkpointAndReplicate snapshots a session, persists it when a
// checkpoint directory is configured, and hands the bytes to the
// replication hook. Called from the session worker (engine quiescent)
// and from Drain.
func (s *Server) checkpointAndReplicate(sess *session) error {
	start := time.Now()
	data, err := sessionSnapshotBytes(sess)
	if err != nil {
		return err
	}
	if s.cfg.CheckpointDir != "" {
		if err := s.persistCheckpoint(sess.id, data); err != nil {
			return err
		}
	}
	// Checkpoints are rare (every CheckpointEvery actions), so every one
	// is observed rather than sampled.
	s.cfg.Tracer.Observe(obs.StageCheckpointWrite, time.Since(start))
	s.flight("checkpoint", sess.id, fmt.Sprintf("%d bytes at %d applied", len(data), sess.applied.Load()))
	if s.cfg.OnCheckpoint != nil {
		s.cfg.OnCheckpoint(sess.id, sess.applied.Load(), data)
	}
	return nil
}

// Quarantined describes a checkpoint that could not be restored at
// startup (or a replica that could not be promoted): the session is
// set aside — file moved to the quarantine subdirectory, structured
// report recorded — instead of aborting the daemon and taking every
// healthy session down with it.
type Quarantined struct {
	Session string             `json:"session"`
	Path    string             `json:"path"` // where the bad file was moved
	Report  *resilience.Report `json:"report"`
}

// Quarantined returns the checkpoints set aside as corrupt, in the
// order they were found.
func (s *Server) Quarantined() []Quarantined {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Quarantined(nil), s.quarantined...)
}

// quarantineCheckpoint moves a bad checkpoint file into the quarantine
// subdirectory beside it and records a structured report. Callers hold
// no locks.
func (s *Server) quarantineCheckpoint(path, sessionID string, cause error) {
	qdir := filepath.Join(filepath.Dir(path), "quarantine")
	dest := filepath.Join(qdir, filepath.Base(path))
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, dest); err != nil {
			dest = path // leave it where it is; still quarantined in memory
		}
	} else {
		dest = path
	}
	q := Quarantined{
		Session: sessionID,
		Path:    dest,
		Report: &resilience.Report{
			Kind:   resilience.Corruption,
			Detail: fmt.Sprintf("session %s: checkpoint %s: %v", sessionID, filepath.Base(path), cause),
		},
	}
	s.mu.Lock()
	s.quarantined = append(s.quarantined, q)
	s.mu.Unlock()
	if s.ckptsQuarant != nil {
		s.ckptsQuarant.Inc()
	}
	s.cfg.Logger.Warn("checkpoint quarantined", "component", "server",
		"session", sessionID, "path", dest, "err", cause)
	s.flight("checkpoint-quarantine", sessionID, fmt.Sprintf("%s: %v", dest, cause))
	s.autoDumpFlight("checkpoint-corruption")
}

// restoreSessions loads every session checkpoint in the configured
// directory. A corrupt or torn checkpoint quarantines that one session
// — the file is moved aside and a structured resilience report is
// recorded — rather than aborting daemon startup: one bad snapshot
// must not take every healthy session down with it.
func (s *Server) restoreSessions() error {
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		path := filepath.Join(s.cfg.CheckpointDir, e.Name())
		sess, err := loadSessionFile(path)
		if err != nil {
			s.quarantineCheckpoint(path, strings.TrimSuffix(e.Name(), ".ckpt"), err)
			continue
		}
		s.mu.Lock()
		s.sessions[sess.id] = sess
		s.registerSessionMetrics(sess)
		s.mu.Unlock()
		if s.ckptsRestored != nil {
			s.ckptsRestored.Inc()
		}
		s.cfg.Logger.Info("session restored", "component", "server", "session", sess.id,
			"applied", sess.applied.Load(), "races", sess.races.Load())
		s.flight("restore", sess.id, fmt.Sprintf("%d applied, %d races", sess.applied.Load(), sess.races.Load()))
	}
	return nil
}

// loadSessionFile reads one session checkpoint file into a detached
// session. It takes no locks; the caller registers the session.
func loadSessionFile(path string) (*session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return loadSession(bufio.NewReaderSize(f, 64*1024))
}

// loadSession decodes a session checkpoint (header line + engine
// snapshot) from r.
func loadSession(br *bufio.Reader) (*session, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("reading session header: %w", err)
	}
	var hdr sessionHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != SessionFormatName {
		return nil, fmt.Errorf("not a %s checkpoint", SessionFormatName)
	}
	if hdr.Version != SessionFormatVersion {
		return nil, fmt.Errorf("unsupported session checkpoint version %d", hdr.Version)
	}
	if !validSessionID(hdr.Session) {
		return nil, fmt.Errorf("invalid session id %q", hdr.Session)
	}
	tel := obs.NewTelemetry()
	sess := &session{id: hdr.Session, tel: tel}
	if hdr.Serial {
		rt, err := regiontrack.Restore(br, core.RestoreAttach{Telemetry: tel})
		if err != nil {
			return nil, err
		}
		sess.rt, sess.eng = rt, rt.Engine()
	} else {
		eng, err := core.RestoreEngine(br, core.RestoreAttach{Telemetry: tel})
		if err != nil {
			return nil, err
		}
		sess.eng = eng
	}
	sess.applied.Store(hdr.Applied)
	sess.races.Store(hdr.Races)
	return sess, nil
}
