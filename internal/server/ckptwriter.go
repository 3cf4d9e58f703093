package server

import (
	"errors"
	"slices"
	"sync"
)

// ckptWriter is a server's one checkpoint writer goroutine. Every
// checkpoint of a session is two steps: a capture (a copy of the
// session's detector state, the only step that needs the engine
// quiescent) and an encode (the writer step). The capture is taken
// where the engine is quiescent, by the session worker or by a caller
// that holds the session, and handed to the writer, which encodes,
// persists, replicates or returns it off the verdict path.
//
// A capture lists only what changed since the previous capture of the
// same engine, so the writer encodes one session's captures in the
// order they were taken, every one of them: each session's jobs wait in
// their own queue. A session worker skips a periodic capture while one
// of its session's captures still waits to be taken (see waiting): the
// changes it would list stay on the engine's dirty list for the next
// capture taken, so no capture is ever replaced or merged.
type ckptWriter struct {
	// write is Server.writeCapture. It encodes into buf, the writer's
	// scratch storage, and returns the storage to keep for the next
	// write; only the writer goroutine touches buf.
	write func(job ckptJob, buf []byte) []byte
	buf   []byte

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on submit, on each finished write, on stop
	pending map[*session][]ckptJob
	order   []*session // sessions with jobs waiting, served in turn
	active  *session   // session whose capture is being written, or nil
	stopped bool       // no further submissions; the loop exits once order is empty
	killed  chan struct{}
	done    chan struct{}

	// hold, when non-nil, parks the writer after it takes a capture and
	// before it encodes it: a test seam for the window between capture
	// and durable write. A kill abandons the held capture.
	hold chan struct{}
}

// ckptKind says what the writer does with an encoded capture.
type ckptKind uint8

const (
	// ckptPeriodic persists, records and replicates the checkpoint and
	// advances the durable watermark. A failure is reported to the
	// job's waiter (Drain), or logged when it has none.
	ckptPeriodic ckptKind = iota
	// ckptPull returns a copy of the bytes (the admin pull).
	ckptPull
	// ckptPersist only writes the checkpoint file (Close).
	ckptPersist
)

// ckptJob is one capture for the writer. done, when set, receives the
// outcome; it must have room for one result.
type ckptJob struct {
	snap *sessionSnapshot
	kind ckptKind
	done chan ckptResult
}

// ckptResult is the outcome of a ckptJob: the applied count captured,
// the bytes for a pull, and the error.
type ckptResult struct {
	data    []byte
	applied uint64
	err     error
}

var (
	errWriterStopped = errors.New("server: checkpoint writer stopped")
	errSessionGone   = errors.New("server: session dropped before its checkpoint was written")
)

func newCkptWriter(write func(ckptJob, []byte) []byte) *ckptWriter {
	w := &ckptWriter{
		write:   write,
		pending: make(map[*session][]ckptJob),
		killed:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

func (w *ckptWriter) run() {
	defer close(w.done)
	w.mu.Lock()
	for {
		for len(w.order) == 0 && !w.stopped {
			w.cond.Wait()
		}
		if len(w.order) == 0 {
			w.mu.Unlock()
			return
		}
		sess := w.order[0]
		w.order = w.order[1:]
		q := w.pending[sess]
		job := q[0]
		if len(q) == 1 {
			delete(w.pending, sess)
		} else {
			w.pending[sess] = q[1:]
			w.order = append(w.order, sess)
		}
		w.active = sess
		hold := w.hold
		w.mu.Unlock()

		write := true
		if hold != nil {
			select {
			case <-hold:
			case <-w.killed:
				write = false
			}
		}
		if write {
			w.buf = w.write(job, w.buf)
		} else {
			job.fail(errWriterStopped)
		}

		w.mu.Lock()
		w.active = nil
		w.cond.Broadcast()
	}
}

// fail reports err to the job's waiter, if any.
func (job ckptJob) fail(err error) {
	if job.done != nil {
		job.done <- ckptResult{applied: job.snap.hdr.Applied, err: err}
	}
}

// submit queues a capture behind the session's earlier ones. After
// stop a job fails: only session workers and Close's own captures come
// in late, and the workers have all exited by then.
func (w *ckptWriter) submit(job ckptJob) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		job.fail(errWriterStopped)
		return
	}
	sess := job.snap.sess
	if len(w.pending[sess]) == 0 {
		w.order = append(w.order, sess)
	}
	w.pending[sess] = append(w.pending[sess], job)
	w.cond.Broadcast()
}

// waiting reports whether a capture of sess waits for the writer to
// take it. A capture being written does not count: one submitted now
// is written right after it.
func (w *ckptWriter) waiting(sess *session) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending[sess]) > 0
}

// wait returns once sess has no capture pending or being written. The
// writer serves sess next, ahead of the other sessions waiting: a
// closing client waits on it.
func (w *ckptWriter) wait(sess *session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i := slices.Index(w.order, sess); i > 0 {
		copy(w.order[1:i+1], w.order[:i])
		w.order[0] = sess
	}
	for len(w.pending[sess]) > 0 || w.active == sess {
		w.cond.Wait()
	}
}

// discard drops sess's pending captures and waits out one being
// written.
func (w *ckptWriter) discard(sess *session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if q := w.pending[sess]; len(q) > 0 {
		for _, job := range q {
			job.fail(errSessionGone)
		}
		delete(w.pending, sess)
		for i, s := range w.order {
			if s == sess {
				w.order = append(w.order[:i], w.order[i+1:]...)
				break
			}
		}
	}
	for w.active == sess {
		w.cond.Wait()
	}
}

// close writes every pending capture, then stops the writer and waits
// for it to exit.
func (w *ckptWriter) close() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}

// kill stops the writer the way a crash would: pending captures are
// discarded and a held one is abandoned. It waits for the writer to
// exit, so a write already under way finishes first.
func (w *ckptWriter) kill() {
	w.mu.Lock()
	w.stopped = true
	for _, q := range w.pending {
		for _, job := range q {
			job.fail(errWriterStopped)
		}
	}
	clear(w.pending)
	w.order = nil
	close(w.killed)
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}
